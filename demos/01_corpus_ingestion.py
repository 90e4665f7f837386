"""Corpus ingestion walkthrough: raw filing -> clean text -> risk paragraphs.

Generates the bundled synthetic filing corpus, then shows each ingestion
stage on one filing: markup stripping (tags, tables, entities), Item
1A/7A section extraction, and blank-line paragraph segmentation with
word-level tokenization.
"""

import tempfile
from pathlib import Path

from riskrel import corpus, synthetic

with tempfile.TemporaryDirectory(prefix="riskrel_demo_") as tmp:
    root = Path(tmp)
    manifest = synthetic.write_fixture(root)
    print(f"fixture written under {root}")
    print(f"firms: {', '.join(manifest.firms)}  years: {manifest.years}\n")

    raw_path = manifest.filings_dir / "ACME" / "2023.txt"
    raw = raw_path.read_text(encoding="utf-8")
    print("=== raw filing (first 400 chars) ===")
    print(raw[:400], "...\n")

    cleaned = corpus.strip_markup(raw)
    print("=== cleaned (first 400 chars) ===")
    print(cleaned[:400], "...\n")

    sections = corpus.extract_sections(cleaned)
    print("=== extracted sections ===")
    for label, body in sections.items():
        print(f"Item {label}: {len(body)} chars, starts: {body[:80]!r}")
    print()

    paragraphs = corpus.segment_paragraphs(sections["1A"], "ACME", 2023, "1A")
    print(f"=== Item 1A segments into {len(paragraphs)} paragraphs ===")
    p = paragraphs[0]
    print(f"first paragraph id {p.id}, {len(p.tokens)} tokens")
    print("tokens[:12]:", list(p.tokens[:12]), "\n")

    all_paragraphs = corpus.ingest_directory(manifest.filings_dir)
    by_firm = corpus.group_by_firm(all_paragraphs)
    print("=== full corpus ===")
    for firm, firm_paragraphs in by_firm.items():
        print(f"  {firm}: {len(firm_paragraphs)} risk paragraphs")
    print(f"total: {len(all_paragraphs)}")
