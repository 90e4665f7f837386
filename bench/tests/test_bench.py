"""Tests of the benchmark's own parts: generator, output checks, oracle."""

import shutil
import time

import pytest

from checks import Oracle, failed_ratio, run_checks
from generate import CorpusSpec, generate, tree_digest
from run import (INPUT_SHA256, THRESHOLD, WORKLOADS, ReferenceClock, make_inputs,
                 run_pipeline)

SMALL = CorpusSpec(n_firms=4, n_groups=1, group_size=2)


def test_generator_digest_follows_the_seed(tmp_path):
    digests = {}
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        generate(tmp_path / name, SMALL, seed)
        digests[name] = tree_digest(tmp_path / name)
    assert digests["a"] == digests["b"]
    assert digests["a"] != digests["c"]


def test_inputs_match_the_pinned_digests(tmp_path):
    for name in WORKLOADS:
        make_inputs(WORKLOADS[name], tmp_path / name)
        assert tree_digest(tmp_path / name) == INPUT_SHA256[name]


def test_generator_plants_groups(tmp_path):
    manifest = generate(tmp_path, CorpusSpec(n_firms=6, n_groups=2, group_size=3), 1)
    assert len(manifest.planted_pairs) == 2 * 3
    assert sorted(p.name for p in manifest.filings_dir.iterdir()) == list(manifest.firms)
    assert len(list(manifest.prices_dir.glob("*.csv"))) == 6


@pytest.fixture(scope="module")
def fixture_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    inputs = make_inputs(WORKLOADS["fixture"], root / "inputs")
    run = run_pipeline(WORKLOADS["fixture"], inputs, root / "work", keep=True)
    assert not run.failed
    return root / "work"


def fixture_checks(workdir):
    return run_checks(workdir, THRESHOLD, evidence=True, sample_pairs=None, seed=0)


def test_checks_pass_on_a_clean_run(fixture_run):
    results = fixture_checks(fixture_run)
    assert failed_ratio(results) == 0.0, [r for r in results if not r.ok]


@pytest.fixture
def copy_of_run(fixture_run, tmp_path):
    return shutil.copytree(fixture_run, tmp_path / "work")


def test_flipped_rrs_cell_fails(copy_of_run):
    path = copy_of_run / "rrs.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[2] = "0.999999" if cells[2] != "0.999999" else "0.000000"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert failed_ratio(fixture_checks(copy_of_run)) > 0.0


def test_deleted_evidence_file_fails(copy_of_run):
    next((copy_of_run / "evidence").glob("*.json")).unlink()
    assert failed_ratio(fixture_checks(copy_of_run)) > 0.0


def test_oracle_agrees_with_find_mrps(fixture_run):
    from riskrel.corpus import group_by_firm, read_paragraphs
    from riskrel.encoder import load_model
    from riskrel.scoring import embed_corpus, find_mrps

    vocab, params, max_len = load_model(fixture_run / "model.bin")
    scored = [p for p in read_paragraphs(fixture_run / "paragraphs.jsonl")
              if p.section in ("1A", "7A")]
    index = embed_corpus(vocab, params, group_by_firm(scored).values(), max_len=max_len)
    oracle = Oracle(fixture_run)
    firms = sorted(oracle.firms)
    assert firms == index.firm_ids()
    for i, a in enumerate(firms):
        for b in firms[i + 1:]:
            got = find_mrps(index, a, b, THRESHOLD)
            ref = oracle.pair(a, b, THRESHOLD)
            assert ref["sure_a"] <= set(got.mrps_a) <= ref["possible_a"]
            assert ref["sure_b"] <= set(got.mrps_b) <= ref["possible_b"]
            pairs = {(x, y) for x, y, _ in got.evidence}
            assert ref["sure_pairs"] <= pairs <= ref["possible_pairs"]


def test_reference_clock_samples_the_speed():
    clock = ReferenceClock()
    clock.start()
    try:
        t0, w0 = clock.now(), time.perf_counter()
        while time.perf_counter() - w0 < 0.5:
            sum(range(1000))
        elapsed = clock.now() - t0
    finally:
        clock.stop()
    assert len(clock.speeds) >= 5
    # Reference seconds follow wall seconds within the machine's speed range.
    assert 0.5 * 0.25 < elapsed < 0.5 * 4
