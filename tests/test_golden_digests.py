"""Byte identity: every artifact of the fixture, wide and evidence benchmark
workloads against the SHA-256 pinned in tests/golden_digests.json.

The pins hold for one numpy version and one OpenBLAS kernel (the file's
``key``). Elsewhere only the six-decimal files and the evidence MRP ids are
compared, and a warning says that the full comparison did not run. A change
that moves an artifact on purpose rewrites the pins with
tests/update_golden_digests.py and says which files moved, and why.
"""

import importlib.util
import json
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("update_golden_digests",
                                               HERE / "update_golden_digests.py")
golden_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_digests)

GOLDEN = json.loads(golden_digests.GOLDEN.read_text())
# The files written with six decimals, whose bytes hold on any BLAS kernel
# that keeps each value within half a millionth.
SIX_DECIMALS = ("rrs.csv", "sweep.csv", "eval/")


@pytest.fixture(scope="module")
def works(tmp_path_factory):
    return golden_digests.run_workloads(tmp_path_factory.mktemp("golden"))


def differing(expected: dict, actual: dict) -> list[str]:
    return sorted(name for name in expected.keys() | actual.keys()
                  if expected.get(name) != actual.get(name))


@pytest.mark.parametrize("workload", golden_digests.WORKLOADS)
def test_every_artifact_matches_its_pinned_digest(works, workload):
    work = works[workload]
    files = golden_digests.file_digests(work)
    key = golden_digests.digest_key()
    if key == GOLDEN["key"]:
        assert differing(GOLDEN["files"][workload], files) == []
        return
    pinned = {name: digest for name, digest in GOLDEN["files"][workload].items()
              if name.startswith(SIX_DECIMALS)}
    assert differing(pinned, {name: files.get(name) for name in pinned}) == []
    assert differing(GOLDEN["mrp_ids"][workload], golden_digests.mrp_id_digests(work)) == []
    warnings.warn(f"{workload}: pinned on {GOLDEN['key']!r}, running on {key!r}; "
                  "compared only the six-decimal files and the MRP ids, "
                  "not the full byte comparison")
