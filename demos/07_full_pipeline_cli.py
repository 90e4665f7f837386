"""The eight CLI subcommands, chained end to end on the bundled corpus.

ingest -> pairs -> train -> embed -> score -> evaluate -> sweep -> report.
Every step is deterministic given its flags (seeds are explicit), so
rerunning this script with the same temp layout reproduces every artifact
byte for byte.
"""

import tempfile
from pathlib import Path

from riskrel import cli, synthetic

with tempfile.TemporaryDirectory(prefix="riskrel_demo_") as tmp:
    root = Path(tmp)
    manifest = synthetic.write_fixture(root / "fixture")
    work = root / "work"
    work.mkdir()

    steps = [
        ["ingest", "--root", str(manifest.filings_dir),
         "--out", str(work / "paragraphs.jsonl")],
        ["pairs", "--in", str(work / "paragraphs.jsonl"), "--view", "both",
         "--seed", "7", "--train", "140", "--val", "25", "--out", str(work / "pairs")],
        ["train", "--pairs", str(work / "pairs"), "--seed", "0",
         "--out", str(work / "model.bin"), "--report", str(work / "train_report.jsonl")],
        ["embed", "--model", str(work / "model.bin"),
         "--in", str(work / "paragraphs.jsonl"), "--out", str(work / "embeddings.bin")],
        ["score", "--model", str(work / "model.bin"),
         "--paragraphs", str(work / "paragraphs.jsonl"), "--threshold", "0.75",
         "--out-matrix", str(work / "rrs.csv"), "--out-evidence", str(work / "evidence")],
        ["evaluate", "--rrs", str(work / "rrs.csv"),
         "--prices", str(manifest.prices_dir), "--gics", str(manifest.gics_path),
         "--out", str(work / "eval")],
        ["sweep", "--model", str(work / "model.bin"),
         "--paragraphs", str(work / "paragraphs.jsonl"), "--grid", "0.6:0.9:0.05",
         "--prices", str(manifest.prices_dir), "--out", str(work / "sweep.csv")],
        ["report", "--workdir", str(work)],
    ]

    for argv in steps:
        print(f"\n$ riskrel {' '.join(argv)}")
        code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"step {argv[0]} failed")

    print("\n=== artifact tree ===")
    for path in sorted(work.rglob("*")):
        if path.is_file():
            rel = path.relative_to(work)
            print(f"  {rel}  ({path.stat().st_size} bytes)")

    print("\n=== report.md ===")
    print((work / "report.md").read_text(encoding="utf-8"))
