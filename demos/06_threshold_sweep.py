"""Threshold sensitivity: sweep the similarity cutoff from 0.6 to 0.9.

MRP membership is threshold-exact, so raising the cutoff can only shrink
the mutual sets: total MRP counts and scores are non-increasing across
the grid. When return data is supplied the sweep also reports rho at each
threshold, showing how stable the alignment is to the choice of cutoff.
"""

import tempfile
from pathlib import Path

from riskrel import corpus, evaluation, pairs, scoring, synthetic, training

with tempfile.TemporaryDirectory(prefix="riskrel_demo_") as tmp:
    manifest = synthetic.write_fixture(Path(tmp))
    paragraphs = corpus.ingest_directory(manifest.filings_dir)
    returns = evaluation.read_prices_dir(manifest.prices_dir)

by_view = {pairs.CHRONOLOGICAL: pairs.build_chronological_pairs(paragraphs),
           pairs.LEXICAL: pairs.build_lexical_pairs(paragraphs, rng_seed=7)}
train_pairs, val_pairs = pairs.split_train_val(by_view, 140, 25, rng_seed=7)
outcome = training.train(train_pairs, val_pairs, training.TrainConfig(seed=0))
index = scoring.embed_corpus(outcome.vocab, outcome.params, [paragraphs])

grid = evaluation.make_grid(0.6, 0.9, 0.05)
table = scoring.max_similarity_table(index)
rows = evaluation.threshold_sweep(table, grid, returns=returns)

print(f"{'threshold':>9} {'mean RRS':>9} {'total MRPs':>11} {'rho':>8}")
for row in rows:
    rho = f"{row.rho:8.4f}" if row.rho is not None else "     n/a"
    print(f"{row.threshold:>9.2f} {row.mean_rrs:>9.4f} {row.total_mrps:>11} {rho}")

print("\nThe wider grid of the calibration procedure is also supported:")
wide = evaluation.make_grid(0.5, 0.9, 0.05)
print(f"  grid 0.5..0.9 step 0.05 -> {len(wide)} thresholds")
