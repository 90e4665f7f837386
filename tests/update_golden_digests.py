"""Rewrite tests/golden_digests.json: the SHA-256 of every artifact that the
fixture, wide and evidence benchmark workloads leave in their work
directories, keyed on what the bits depend on, and of each evidence
file's MRP ids.

    PYTHONPATH=src python3 tests/update_golden_digests.py

Run it only when a change moves an artifact on purpose, and list in
CHANGES.md each file whose digest moved, and why.
``tests/test_golden_digests.py`` compares a fresh run with the file.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import riskrel  # noqa: F401  (pins one BLAS thread before numpy loads)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
WORKLOADS = ("fixture", "wide", "evidence")


def blas_core() -> str:
    """The OpenBLAS kernel numpy's bundled library runs on this CPU
    (``SkylakeX``, say), or ``unknown`` where there is no such library."""
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*")):
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode("ascii")
    return "unknown"


def digest_key() -> str:
    """What the artifacts' bits are pinned to: numpy's version and the BLAS kernel."""
    import numpy as np

    return f"numpy {np.__version__}, openblas {blas_core()}"


def file_digests(work: Path) -> dict[str, str]:
    """Relative path -> SHA-256 of each file under ``work``, in sorted order."""
    return {path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(p for p in work.rglob("*") if p.is_file())}


def mrp_id_digests(work: Path) -> dict[str, str]:
    """Evidence file -> SHA-256 of its ``mrps_a`` and ``mrps_b`` id lists."""
    return {path.relative_to(work).as_posix(): hashlib.sha256(json.dumps(
                [doc["mrps_a"], doc["mrps_b"]]).encode("utf-8")).hexdigest()
            for path in sorted(work.glob("evidence/*.json"))
            for doc in [json.loads(path.read_text(encoding="utf-8"))]}


def run_workloads(root: Path) -> dict[str, Path]:
    """Run each workload's pipeline once, through bench/run.py, under ``root``;
    workload -> its kept work directory."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import run
    finally:
        sys.path.remove(str(ROOT / "bench"))
    works = {}
    for name in WORKLOADS:
        workload = run.WORKLOADS[name]
        inputs = run.make_inputs(workload, root / name / "inputs")
        work = root / name / "work"
        result = run.run_pipeline(workload, inputs, work, keep=True)
        if result.failed:
            raise RuntimeError(f"{name}: {result.failed}")
        works[name] = work
    return works


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        works = run_workloads(Path(tmp))
        golden = {"key": digest_key(),
                  "files": {name: file_digests(work) for name, work in works.items()},
                  "mrp_ids": {name: mrp_id_digests(work) for name, work in works.items()}}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.name}: {golden['key']}, "
          + ", ".join(f"{name} {len(golden['files'][name])} files" for name in WORKLOADS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
