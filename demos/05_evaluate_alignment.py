"""Evaluation harness: CAVDSR, alignment rho, the GICS baseline, and
retrieval metrics.

CAVDSR is the Pearson correlation of the absolute values of two firms'
daily returns (absolute, because one event can move exposed firms in
opposite directions). Alignment rho correlates RRS with CAVDSR across
firm pairs; the sector/industry taxonomy gives the human-defined binary
baseline. The fixture's planted firms load on a shared volatility factor,
so their absolute returns co-move.
"""

import tempfile
from pathlib import Path

from riskrel import corpus, evaluation, pairs, scoring, synthetic, training

with tempfile.TemporaryDirectory(prefix="riskrel_demo_") as tmp:
    manifest = synthetic.write_fixture(Path(tmp))
    paragraphs = corpus.ingest_directory(manifest.filings_dir)
    returns = evaluation.read_prices_dir(manifest.prices_dir)
    gics = evaluation.read_gics_file(manifest.gics_path)

print("=== CAVDSR on the fixture price series ===")
print(f"planted pair ACME/BOLT: {evaluation.cavdsr(returns['ACME'], returns['BOLT']):.4f}")
print(f"unrelated   CRUX/HALE: {evaluation.cavdsr(returns['CRUX'], returns['HALE']):.4f}\n")

by_view = {pairs.CHRONOLOGICAL: pairs.build_chronological_pairs(paragraphs),
           pairs.LEXICAL: pairs.build_lexical_pairs(paragraphs, rng_seed=7)}
train_pairs, val_pairs = pairs.split_train_val(by_view, 140, 25, rng_seed=7)
outcome = training.train(train_pairs, val_pairs, training.TrainConfig(seed=0))
index = scoring.embed_corpus(outcome.vocab, outcome.params, [paragraphs])
firms, matrix = scoring.rrs_matrix(index, threshold=0.75)

# evaluate's one exclusion rule: a pair without enough shared price dates,
# or with a constant absolute-return series, has no CAVDSR and is left out.
cells = scoring.pair_cells(firms, matrix)
co_movement = evaluation.pairwise_cavdsr(returns, cells)
kept = list(co_movement)  # the evaluated pairs, in matrix order
rrs_values = [cells[pair] for pair in kept]
cavdsr_values = list(co_movement.values())

print("=== alignment of RRS with return co-movement ===")
print(f"rho (pearson)  = {evaluation.alignment_rho(rrs_values, cavdsr_values):.4f}")
print(f"rho (spearman) = "
      f"{evaluation.alignment_rho(rrs_values, cavdsr_values, 'spearman'):.4f}")

for level in ("sector", "industry"):
    flags = [evaluation.gics_binary_rrs(gics, a, b, level) for a, b in kept]
    try:
        rho = f"{evaluation.alignment_rho(flags, cavdsr_values):.4f}"
    except evaluation.DegenerateInput:
        rho = "degenerate"
    print(f"rho (GICS {level} binary baseline) = {rho}")

print("\n=== retrieval metrics on a toy ranked list ===")
lists = [evaluation.RankedList("q1", ("d2", "d7", "d1", "d9"),
                               frozenset({"d7", "d1"})),
         evaluation.RankedList("q2", ("d1", "d3", "d4", "d2"),
                               frozenset({"d1"}))]
table = evaluation.retrieval_metrics(lists, [1, 3])
for metric in ("ndcg", "precision", "recall"):
    cells = "  ".join(f"@{k}={table[metric][k]:.4f}" for k in (1, 3))
    print(f"  {metric:<9} {cells}")
