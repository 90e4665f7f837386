"""Risk relation scoring: mutual risk paragraphs and the RRS matrix.

A paragraph of firm A is a mutual risk paragraph when some paragraph of
firm B clears the similarity threshold with it. The risk relation score
is the fraction of both firms' paragraphs that are mutual, so it is
symmetric and lives in [0, 1]. The planted ACME/BOLT supply-chain theme
should surface as the strongest relation, with the shared paragraphs as
retrievable evidence.
"""

import tempfile
from pathlib import Path

from riskrel import corpus, pairs, scoring, synthetic, training

with tempfile.TemporaryDirectory(prefix="riskrel_demo_") as tmp:
    manifest = synthetic.write_fixture(Path(tmp))
    paragraphs = corpus.ingest_directory(manifest.filings_dir)

by_view = {pairs.CHRONOLOGICAL: pairs.build_chronological_pairs(paragraphs),
           pairs.LEXICAL: pairs.build_lexical_pairs(paragraphs, rng_seed=7)}
train_pairs, val_pairs = pairs.split_train_val(by_view, 140, 25, rng_seed=7)
outcome = training.train(train_pairs, val_pairs, training.TrainConfig(seed=0))
print(f"encoder trained ({outcome.report.stop_reason}, "
      f"best epoch {outcome.report.best_epoch})\n")

index = scoring.embed_corpus(outcome.vocab, outcome.params, [paragraphs])
firms, matrix = scoring.rrs_matrix(index, threshold=0.75)

print("=== RRS matrix (threshold 0.75) ===")
print("      " + "  ".join(f"{f:>6}" for f in firms))
for i, firm in enumerate(firms):
    print(f"{firm:>6} " + "  ".join(f"{matrix[i, j]:6.3f}"
                                    for j in range(len(firms))))

ranked = sorted(((matrix[i, j], firms[i], firms[j])
                 for i in range(len(firms)) for j in range(i + 1, len(firms))),
                reverse=True)
print("\n=== top firm pairs ===")
for value, a, b in ranked[:4]:
    print(f"  {a} - {b}: {value:.4f}")

top_a, top_b = ranked[0][1], ranked[0][2]
result = scoring.find_mrps(index, top_a, top_b, 0.75)
print(f"\n=== evidence for {top_a} - {top_b} ===")
print(f"{len(result.evidence)} qualifying paragraph pairs; strongest three:")
lookup = {p.id: p for p in paragraphs}
for id_a, id_b, sim in result.evidence[:3]:
    print(f"\nsimilarity {sim:.4f}")
    print(f"  [{id_a}] {lookup[id_a].text[:140]}...")
    print(f"  [{id_b}] {lookup[id_b].text[:140]}...")
