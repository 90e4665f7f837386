"""Contrastive encoder training with InfoNCE and in-batch negatives.

Each batch of B positive pairs yields a B x B cosine matrix; the loss is
the negative log-softmax of the diagonal at temperature tau, so every
anchor is pulled toward its own positive and pushed from the other B-1.
Adam with linear warmup, L2 regularization, early stopping on validation
loss. Watch the positive-minus-negative margin grow epoch by epoch.
"""

import tempfile
from pathlib import Path

from riskrel import corpus, pairs, synthetic, training

with tempfile.TemporaryDirectory(prefix="riskrel_demo_") as tmp:
    manifest = synthetic.write_fixture(Path(tmp))
    paragraphs = corpus.ingest_directory(manifest.filings_dir)

by_view = {pairs.CHRONOLOGICAL: pairs.build_chronological_pairs(paragraphs),
           pairs.LEXICAL: pairs.build_lexical_pairs(paragraphs, rng_seed=7)}
train_pairs, val_pairs = pairs.split_train_val(by_view, 140, 25, rng_seed=7)

config = training.TrainConfig(seed=0)
print(f"config: B={config.batch_size} lr={config.learning_rate} "
      f"warmup={config.warmup_steps} tau={config.temperature} "
      f"l2={config.l2_coeff} d={config.embed_dim} max_len={config.max_len}")
print(f"training on {len(train_pairs)} merged pairs "
      f"(both views), validating on {len(val_pairs)}\n")

outcome = training.train(train_pairs, val_pairs, config)

print(f"{'epoch':>5} {'train':>9} {'val':>9} {'margin':>8}")
for e in outcome.report.epochs:
    marker = " <- best" if e.epoch == outcome.report.best_epoch else ""
    print(f"{e.epoch:>5} {e.train_loss:>9.4f} {e.val_loss:>9.4f} "
          f"{e.margin:>8.4f}{marker}")
print(f"\nstopped: {outcome.report.stop_reason}, "
      f"best val loss {outcome.report.best_val_loss:.4f} "
      f"at epoch {outcome.report.best_epoch}")
print(f"vocabulary size {len(outcome.vocab)}, "
      f"embedding width {outcome.params.d}")
