"""Positive-pair construction: the chronological and lexical views.

Chronological view: same-firm paragraphs sharing an identical calendar
date become a pair, and every date mention is deleted from both sides so
training cannot match on the date tokens themselves. One scanner,
``pairs.scan_tokens``, finds the dates in a paragraph's tokens, both for
pairing and for checking that none is left after deletion. Quarter-end
accounting dates (3/31, 6/30, 9/30, 12/31) never justify a pair.

Lexical view: two overlapping spans of one paragraph become a pair,
exploiting boilerplate phrasing reuse.
"""

import tempfile
from pathlib import Path

from riskrel import corpus, pairs, synthetic

with tempfile.TemporaryDirectory(prefix="riskrel_demo_") as tmp:
    manifest = synthetic.write_fixture(Path(tmp))
    paragraphs = corpus.ingest_directory(manifest.filings_dir)

print("=== date detection ===")
sample = next(p for p in paragraphs if pairs.scan_tokens(p.tokens))
for mention in pairs.scan_tokens(sample.tokens):
    span = sample.tokens[mention.token_span[0]:mention.token_span[1]]
    print(f"  {sample.id}: tokens {span} -> {mention.normalized}"
          f"{'  [accounting]' if mention.is_accounting else ''}")
print()

print("=== chronological pairs ===")
chrono = pairs.build_chronological_pairs(paragraphs)
print(f"{len(chrono)} pairs across the corpus")
pair = chrono[0]
print(f"example pair from {pair.provenance}")
print("left side starts:", " ".join(pair.left_tokens[:14]))
residue = pairs.scan_tokens(pair.left_tokens) + pairs.scan_tokens(pair.right_tokens)
print(f"date mentions remaining after removal: {len(residue)}\n")

print("=== lexical pairs ===")
stats = {}
lexical = pairs.build_lexical_pairs(paragraphs, rng_seed=7, stats=stats)
print(f"{len(lexical)} pairs, {stats['skipped_short']} paragraphs too short")
pair = lexical[0]
i, j = pair.seed_info
n = len(pair.right_tokens) + i - 1
print(f"source {pair.provenance[0]}: n={n} tokens, drew i={i}, j={j}")
print(f"left  = w_1..w_{j}   ({len(pair.left_tokens)} tokens)")
print(f"right = w_{i}..w_{n} ({len(pair.right_tokens)} tokens)")
print(f"overlap = w_{i}..w_{j}\n")

print("=== seeded train/validation split ===")
train, val = pairs.split_train_val({pairs.CHRONOLOGICAL: chrono, pairs.LEXICAL: lexical},
                                   140, 25, rng_seed=7)
print(f"train {len(train)} pairs, val {len(val)} pairs "
      f"(140 + 25 for each of the two views, paragraph-disjoint per view)")
