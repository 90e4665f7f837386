"""Command-line contracts: error reporting, cleanup, config precedence, pipeline."""

import calendar
import hashlib
import importlib
import importlib.util
import json
import math
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from riskrel import cli, corpus, pairs as pairgen, scoring, training
from riskrel.encoder import load_model

ROOT = Path(__file__).resolve().parents[1]


_FIRM_RULE = ("must be non-empty, not '.' or '..', and hold no '/', '\\', ',', ':', '\"', "
              "'__', whitespace or control character")


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def pipeline_dir(fixture_manifest, tmp_path_factory):
    """Run the pipeline once (short training) and share the artifacts."""
    work = tmp_path_factory.mktemp("pipeline")
    steps = [
        ["ingest", "--root", str(fixture_manifest.filings_dir),
         "--out", str(work / "paragraphs.jsonl")],
        ["pairs", "--in", str(work / "paragraphs.jsonl"), "--view", "both",
         "--seed", "7", "--train", "140", "--val", "25",
         "--out", str(work / "pairs")],
        ["train", "--pairs", str(work / "pairs"), "--seed", "0",
         "--max-epochs", "3", "--out", str(work / "model.bin"),
         "--report", str(work / "train_report.jsonl")],
        ["embed", "--model", str(work / "model.bin"),
         "--in", str(work / "paragraphs.jsonl"),
         "--out", str(work / "embeddings.bin")],
        ["score", "--model", str(work / "model.bin"),
         "--paragraphs", str(work / "paragraphs.jsonl"),
         "--threshold", "0.75", "--out-matrix", str(work / "rrs.csv"),
         "--out-evidence", str(work / "evidence")],
        ["evaluate", "--rrs", str(work / "rrs.csv"),
         "--prices", str(fixture_manifest.prices_dir),
         "--gics", str(fixture_manifest.gics_path),
         "--out", str(work / "eval")],
        ["sweep", "--model", str(work / "model.bin"),
         "--paragraphs", str(work / "paragraphs.jsonl"),
         "--grid", "0.6:0.9:0.05", "--out", str(work / "sweep.csv")],
        ["report", "--workdir", str(work)],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv[0]
    return work


def test_missing_model_names_path(tmp_path, capsys):
    code, _, err = run(["score", "--model", str(tmp_path / "missing.bin"),
                        "--paragraphs", str(tmp_path / "p.jsonl"),
                        "--out-matrix", str(tmp_path / "rrs.csv")], capsys)
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith("error: FileNotFoundError:")
    assert "missing.bin" in err


def test_seed_required_for_pairs(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["pairs", "--in", str(tmp_path / "p.jsonl"),
                  "--out", str(tmp_path / "pairs")])
    assert exc.value.code == 2


def test_rrs_csv_shape_and_format(pipeline_dir):
    lines = (pipeline_dir / "rrs.csv").read_text().splitlines()
    assert lines[0].startswith("firm,")
    firms = lines[0].split(",")[1:]
    assert len(firms) == 8
    assert len(lines) == 9
    first_value = lines[1].split(",")[2]
    assert len(first_value.split(".")[1]) == 6  # six decimal places


def test_evidence_files_sorted_pair_names(pipeline_dir):
    for path in (pipeline_dir / "evidence").glob("*.json"):
        a, b = path.stem.split("__")
        assert a < b
        doc = json.loads(path.read_text())
        assert doc["threshold"] == 0.75
        assert all(e["similarity"] >= 0.75 for e in doc["evidence"])


def _pipeline_index(work):
    """The index and texts of a pipeline directory, read by the library."""
    vocab, params, max_len = load_model(work / "model.bin")
    paragraphs = corpus.read_paragraphs(work / "paragraphs.jsonl")
    index = scoring.embed_corpus(vocab, params, [paragraphs], max_len=max_len)
    return index, {p.id: p.text for p in paragraphs}


def test_evidence_files_equal_the_dict_view_byte_for_byte(pipeline_dir):
    index, texts = _pipeline_index(pipeline_dir)
    pairs = scoring.firm_pairs(index.firm_ids())
    evidence_dir = pipeline_dir / "evidence"
    assert sorted(evidence_dir.glob("*.json")) == \
        sorted(scoring.evidence_path(evidence_dir, a, b) for a, b in pairs)
    for a, b in pairs:
        doc = scoring.mrp_result_to_dict(scoring.find_mrps(index, a, b, 0.75), texts)
        expected = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
        assert scoring.evidence_path(evidence_dir, a, b).read_bytes() == expected.encode("utf-8")


def test_benchmark_hooks_count_what_score_writes(pipeline_dir, tmp_path):
    """bench/spans.py's find_mrps hook reads a result's n_a, n_b and evidence."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        assert cli.main(["score", "--model", str(pipeline_dir / "model.bin"),
                         "--paragraphs", str(pipeline_dir / "paragraphs.jsonl"),
                         "--threshold", "0.75", "--out-matrix", str(tmp_path / "rrs.csv"),
                         "--out-evidence", str(tmp_path / "evidence")]) == 0
    finally:
        recorder.uninstall()
    docs = [json.loads(path.read_text()) for path in (tmp_path / "evidence").glob("*.json")]
    metrics = recorder.run_metrics(0)
    assert len(docs) == 28
    assert metrics["scoring.find_mrps_calls"] == len(docs)
    assert metrics["scoring.evidence_pairs"] == sum(len(doc["evidence"]) for doc in docs) > 0
    assert metrics["scoring.sim_entries"] == sum(doc["n_a"] * doc["n_b"] for doc in docs)


def test_only_score_with_evidence_loads_the_texts(pipeline_dir):
    paths = (str(pipeline_dir / "model.bin"), str(pipeline_dir / "paragraphs.jsonl"))
    assert cli._load_index(*paths)[1] is None
    assert cli._load_index(*paths, texts=True)[1] == _pipeline_index(pipeline_dir)[1]


def test_report_contains_rho_from_evaluate(pipeline_dir):
    metrics = (pipeline_dir / "eval" / "metrics.csv").read_text()
    rho_line = [l for l in metrics.splitlines() if l.startswith("rho_pearson")][0]
    rho_value = rho_line.split(",")[1]
    report = (pipeline_dir / "report.md").read_text()
    assert rho_value in report
    assert "## Threshold sweep" in report
    assert "## Top risk relation scores" in report


def test_sweep_has_seven_rows_and_monotone_counts(pipeline_dir):
    lines = (pipeline_dir / "sweep.csv").read_text().splitlines()
    assert lines[0] == "threshold,mean_rrs,total_mrps,rho"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 7
    counts = [int(r[2]) for r in rows]
    assert counts == sorted(counts, reverse=True)


def test_train_report_is_jsonl(pipeline_dir):
    lines = (pipeline_dir / "train_report.jsonl").read_text().strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[-1]["record"] == "summary"
    assert all(r["record"] == "epoch" for r in records[:-1])


def test_failure_removes_partial_outputs(pipeline_dir, tmp_path, capsys):
    # The report path collides with an existing file used as a directory, so
    # the command fails after the model file was already written.
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    model_out = tmp_path / "model.bin"
    code, _, err = run(["train", "--pairs", str(pipeline_dir / "pairs"),
                        "--seed", "0", "--max-epochs", "1",
                        "--out", str(model_out),
                        "--report", str(blocker / "report.jsonl")], capsys)
    assert code == 1
    assert err.startswith("error:")
    assert not model_out.exists()


def test_train_rejects_one_path_for_model_and_report(pipeline_dir, tmp_path, capsys):
    """The report would be published over the model, which would be lost."""
    out = tmp_path / "model.bin"
    code, stdout, err = run(["train", "--pairs", str(pipeline_dir / "pairs"), "--seed", "0",
                             "--max-epochs", "1", "--out", str(out), "--report", str(out)],
                            capsys)
    assert (code, stdout) == (1, "")
    assert err == f"error: ValueError: {out} is given for two outputs\n"
    assert list(tmp_path.iterdir()) == []


def test_score_rejects_one_path_for_matrix_and_evidence(pipeline_dir, tmp_path, capsys):
    """The evidence directory would be published over the matrix."""
    out = tmp_path / "out"
    argv = _stage_argv(pipeline_dir, tmp_path, "score")
    argv[argv.index("--out-matrix") + 1] = str(out)
    code, stdout, err = run(argv + ["--out-evidence", str(out)], capsys)
    assert (code, stdout) == (1, "")
    assert err == f"error: ValueError: {out} is given for two outputs\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flag, target", [
    ("sweep", "--out", "model.bin"), ("score", "--out-matrix", "paragraphs.jsonl")])
def test_an_output_that_names_an_input_keeps_the_input(pipeline_dir, tmp_path, capsys,
                                                       command, flag, target):
    """Publishing the output would replace the file the command read."""
    for name in ("model.bin", "paragraphs.jsonl"):
        shutil.copy(pipeline_dir / name, tmp_path / name)
    before = _tree(tmp_path)
    argv = _stage_argv(tmp_path, tmp_path, command)
    argv[argv.index(flag) + 1] = str(tmp_path / target)
    code, stdout, err = run(argv, capsys)
    assert (code, stdout) == (1, "")
    assert err == (f"error: ValueError: {tmp_path / target} is an input of this command, "
                   "so it cannot be written\n")
    assert _tree(tmp_path) == before
    assert not list(tmp_path.rglob(".*"))


def test_single_view_pairs_leave_no_other_view_for_train(pipeline_dir, tmp_path, capsys):
    """pairs --view lexical over a --view both directory empties the
    chronological files, so train, which reads all four files, reads one view."""
    out = tmp_path / "pairs"
    shutil.copytree(pipeline_dir / "pairs", out)
    code, _, _ = run(["pairs", "--in", str(pipeline_dir / "paragraphs.jsonl"),
                      "--view", "lexical", "--seed", "7", "--train", "140", "--val", "25",
                      "--out", str(out)], capsys)
    assert code == 0
    assert sorted(path.name for path in out.iterdir()) == [
        f"{view}.{split}.jsonl" for view in ("chronological", "lexical")
        for split in ("train", "val")]
    views = {json.loads(line)["view"] for path in out.iterdir()
             for line in path.read_text().splitlines()}
    assert views == {"lexical"}


def test_benchmark_training_probe_runs_on_the_pipeline(pipeline_dir, monkeypatch):
    """bench/run.py's --trace 1 probe, the one caller of pad_batch, padded
    TrainingBatches, batch_objective and compute_gradients outside the tests,
    runs unchanged on a pipeline's work directory."""
    monkeypatch.setattr(sys, "path", [str(ROOT / "bench"), *sys.path])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        # run.py pins these on import; restore them after the test
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    probe = importlib.import_module("run").training_probe(pipeline_dir, time.perf_counter)
    assert probe["training.objective_s"] > 0 and probe["training.gradients_s"] > 0
    assert all(math.isfinite(value) for value in probe.values())


def test_failure_in_preexisting_dir_keeps_unrelated_files(tmp_path, capsys):
    # Two firms give a single pair: rho degenerates after pairs.csv
    # was written, and cleanup must not take the user's directory with it.
    (tmp_path / "rrs.csv").write_text(
        "firm,AAA,BBB\nAAA,1.000000,0.500000\nBBB,0.500000,1.000000\n")
    prices = tmp_path / "prices"
    prices.mkdir()
    for firm in ("AAA", "BBB"):
        rows = "".join(f"2023-01-{d:02d},{100 + d}.0\n" for d in range(1, 30))
        (prices / f"{firm}.csv").write_text("date,close\n" + rows
                                            + "2023-02-01,99.0\n"
                                            + "".join(f"2023-02-{d:02d},{101 + d}.0\n"
                                                      for d in range(2, 20)))
    out_dir = tmp_path / "eval"
    out_dir.mkdir()
    keep = out_dir / "keep.txt"
    keep.write_text("user data")
    code, _, err = run(["evaluate", "--rrs", str(tmp_path / "rrs.csv"),
                        "--prices", str(prices), "--out", str(out_dir)], capsys)
    assert code == 1
    assert err.startswith("error: DegenerateInput:")
    assert keep.read_text() == "user data"
    assert not (out_dir / "pairs.csv").exists()


def test_config_file_supplies_values(pipeline_dir, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("max_epochs = 1\nbatch_size = 8\n# comment\n")
    out = tmp_path / "model.bin"
    code, stdout, _ = run(["train", "--pairs", str(pipeline_dir / "pairs"),
                           "--seed", "1", "--config", str(config),
                           "--out", str(out)], capsys)
    assert code == 0
    assert "1 epochs" in stdout


def test_flag_overrides_config(pipeline_dir, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("max_epochs = 50\n")
    out = tmp_path / "model.bin"
    code, stdout, _ = run(["train", "--pairs", str(pipeline_dir / "pairs"),
                           "--seed", "1", "--config", str(config),
                           "--max-epochs", "1", "--out", str(out)], capsys)
    assert code == 0
    assert "1 epochs" in stdout


def test_bad_config_line_reports_error(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("this is not a key value line\n")
    code, _, err = run(["ingest", "--root", str(tmp_path), "--out",
                        str(tmp_path / "p.jsonl"), "--config", str(config)], capsys)
    assert code == 1
    assert err.startswith("error: ValueError:")


def test_ingest_rejects_missing_root(tmp_path, capsys):
    code, _, err = run(["ingest", "--root", str(tmp_path / "nowhere"),
                        "--out", str(tmp_path / "p.jsonl")], capsys)
    assert code == 1
    assert "nowhere" in err


@pytest.mark.parametrize("view", ["chronological", "both"])
def test_pairs_on_a_view_that_builds_no_pair_is_insufficient_pairs(pipeline_dir, tmp_path,
                                                                   capsys, view):
    """Without month names the fixture has no date to pair on: the empty view
    is an error before anything is staged, not empty files for train."""
    months = {name.lower() for name in calendar.month_name if name}
    paragraphs = tmp_path / "paragraphs.jsonl"
    records = [json.loads(line)
               for line in (pipeline_dir / "paragraphs.jsonl").read_text().splitlines()]
    for record in records:
        record["tokens"] = [token for token in record["tokens"] if token not in months]
    paragraphs.write_text("".join(json.dumps(record) + "\n" for record in records))
    code, out, err = run(["pairs", "--in", str(paragraphs), "--view", view, "--seed", "7",
                          "--train", "140", "--val", "25", "--out", str(tmp_path / "pairs")],
                         capsys)
    assert (code, out) == (1, "")
    assert err == ("error: InsufficientPairs: view chronological: 0 pairs available, "
                   "140+25 requested\n")
    assert [path.name for path in tmp_path.iterdir()] == ["paragraphs.jsonl"]


@pytest.mark.parametrize("flag, value", [("--overlap-cap", "0"), ("--overlap-cap", "-5"),
                                         ("--max-pairs-per-paragraph", "0"),
                                         ("--max-pairs-per-paragraph", "-1")])
def test_pairs_setting_that_can_make_no_lexical_pair_is_a_setting_error(
        pipeline_dir, tmp_path, capsys, flag, value):
    """Such a setting is named, not blamed on the data as 0 pairs available."""
    code, out, err = run(["pairs", "--in", str(pipeline_dir / "paragraphs.jsonl"),
                          "--seed", "7", "--out", str(tmp_path / "pairs"), flag, value], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: ValueError: {flag[2:].replace('-', '_')} must be >= 1\n"
    assert list(tmp_path.iterdir()) == []


def test_insufficient_pairs_is_clean_error(pipeline_dir, tmp_path, capsys):
    code, _, err = run(["pairs", "--in", str(pipeline_dir / "paragraphs.jsonl"),
                        "--seed", "3", "--train", "100000", "--val", "10",
                        "--out", str(tmp_path / "pairs")], capsys)
    assert code == 1
    assert err.startswith("error: InsufficientPairs:")
    assert not list((tmp_path / "pairs").glob("*.jsonl"))


def test_no_chronological_side_is_empty_at_min_tokens_zero(tmp_path, capsys):
    """A paragraph that is only its date keeps nothing once the date is
    deleted: it pairs with no paragraph, even where --min-tokens is 0."""
    for year in (2023, 2024):
        filing = tmp_path / "filings" / "ACME" / f"{year}.txt"
        filing.parent.mkdir(parents=True, exist_ok=True)
        filing.write_text("Item 1A. Risk Factors\n\nJuly 8, 2024\n\n"
                          "On July 8, 2024 the plant closed.\n\nItem 2. Properties\n")
    paragraphs = tmp_path / "paragraphs.jsonl"
    code, _, err = run(["ingest", "--root", str(tmp_path / "filings"), "--out", str(paragraphs),
                        "--min-tokens", "0"], capsys)
    assert (code, err) == (0, "")

    def pairs(train):
        return run(["pairs", "--in", str(paragraphs), "--view", "chronological",
                    "--min-tokens", "0", "--seed", "0", "--train", str(train), "--val", "0",
                    "--out", str(tmp_path / f"pairs{train}")], capsys)

    assert pairs(1)[0] == 0
    (pair,) = pairgen.read_pairs(pairgen.pair_file(tmp_path / "pairs1", "chronological",
                                                   "train"))
    assert pair.provenance == ("ACME:2023:1A:0002", "ACME:2024:1A:0002")
    assert pair.left_tokens == pair.right_tokens == ("on", "the", "plant", "closed", ".")
    assert pairs(2) == (1, "", "error: InsufficientPairs: view chronological: 1 pairs "
                               "available, 2+0 requested\n")


def _pairs_dir(tmp_path, texts=()):
    """A pairs directory holding the four files ``pairs`` writes: ``texts``
    maps a file name to its text, and every other file is empty."""
    pairs_dir = tmp_path / "pairs"
    pairs_dir.mkdir()
    for view in pairgen.VIEWS:
        for split in ("train", "val"):
            path = pairgen.pair_file(pairs_dir, view, split)
            path.write_text(dict(texts).get(path.name, ""))
    return pairs_dir


def test_train_without_train_files_is_file_not_found(tmp_path, capsys):
    pairs_dir = tmp_path / "pairs"
    pairs_dir.mkdir()
    (pairs_dir / "lexical.val.jsonl").write_text("")
    code, _, err = run(["train", "--pairs", str(pairs_dir), "--seed", "0",
                        "--out", str(tmp_path / "model.bin")], capsys)
    assert code == 1
    assert err == ("error: FileNotFoundError: pair file not found: "
                   f"{pairs_dir / 'chronological.train.jsonl'}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs"]


@pytest.mark.parametrize("name", ["chronological.train.jsonl", "lexical.train.jsonl",
                                  "chronological.val.jsonl", "lexical.val.jsonl"])
def test_train_names_a_missing_pair_file(pipeline_dir, tmp_path, capsys, name):
    pairs_dir = tmp_path / "pairs"
    shutil.copytree(pipeline_dir / "pairs", pairs_dir)
    (pairs_dir / name).unlink()
    code, stdout, err = run(["train", "--pairs", str(pairs_dir), "--seed", "0",
                             "--out", str(tmp_path / "model.bin")], capsys)
    assert (code, stdout) == (1, "")
    assert err == f"error: FileNotFoundError: pair file not found: {pairs_dir / name}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs"]


def test_train_reads_only_the_pair_files_pairs_writes(pipeline_dir, tmp_path, capsys):
    """A stray ``*.train.jsonl`` beside the four files is not read: the model
    is the pipeline's, byte for byte."""
    pairs_dir = tmp_path / "pairs"
    shutil.copytree(pipeline_dir / "pairs", pairs_dir)
    shutil.copy(pairs_dir / "lexical.train.jsonl", pairs_dir / "lexical-backup.train.jsonl")
    shutil.copy(pairs_dir / "lexical.val.jsonl", pairs_dir / "lexical-backup.val.jsonl")
    code, _, _ = run(["train", "--pairs", str(pairs_dir), "--seed", "0",
                      "--max-epochs", "3", "--out", str(tmp_path / "model.bin")], capsys)
    assert code == 0
    assert (tmp_path / "model.bin").read_bytes() == (pipeline_dir / "model.bin").read_bytes()


def test_train_files_without_pairs_are_insufficient_pairs(tmp_path, capsys):
    pairs_dir = _pairs_dir(tmp_path, {"lexical.train.jsonl": "\n"})
    code, _, err = run(["train", "--pairs", str(pairs_dir), "--seed", "0",
                        "--out", str(tmp_path / "model.bin")], capsys)
    assert code == 1
    assert err == ("error: InsufficientPairs: 0 training pairs < batch size "
                   f"{training.TrainConfig().batch_size}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs"]


@pytest.mark.parametrize("n_val", [0, 1])
def test_train_without_a_validation_batch_is_insufficient_pairs(pipeline_dir, tmp_path,
                                                               capsys, n_val):
    val_lines = (pipeline_dir / "pairs" / "lexical.val.jsonl").read_text().splitlines()
    pairs_dir = _pairs_dir(tmp_path, {"lexical.val.jsonl": val_lines[0] + "\n"} if n_val else {})
    for path in (pipeline_dir / "pairs").glob("*.train.jsonl"):
        shutil.copy(path, pairs_dir / path.name)
    code, stdout, err = run(["train", "--pairs", str(pairs_dir), "--seed", "0",
                             "--out", str(tmp_path / "model.bin"),
                             "--report", str(tmp_path / "report.jsonl")], capsys)
    assert (code, stdout) == (1, "")
    assert err == (f"error: InsufficientPairs: {n_val} validation pairs < 2 "
                   "(one in-batch negative)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs"]


def test_ingest_without_requested_sections_is_empty_corpus(fixture_manifest, tmp_path,
                                                            capsys):
    root = fixture_manifest.filings_dir
    out = tmp_path / "out" / "paragraphs.jsonl"
    code, stdout, err = run(["ingest", "--root", str(root), "--out", str(out),
                             "--sections", "9Z"], capsys)
    assert (code, stdout) == (1, "")
    assert err == f"error: EmptyCorpus: no paragraphs in sections 9Z under {root}\n"
    assert list(tmp_path.iterdir()) == []


def test_score_matrix_matches_evidence_files(pipeline_dir):
    lines = (pipeline_dir / "rrs.csv").read_text().splitlines()
    firms = lines[0].split(",")[1:]
    cells = [line.split(",")[1:] for line in lines[1:]]
    for i, a in enumerate(firms):
        for j in range(i + 1, len(firms)):
            doc = json.loads((pipeline_dir / "evidence" / f"{a}__{firms[j]}.json").read_text())
            assert cells[i][j] == cells[j][i] == f"{doc['rrs']:.6f}"


@pytest.mark.parametrize("relpath", ["eval/metrics.csv", "sweep.csv"])
def test_report_on_empty_csv_is_clean_error(tmp_path, capsys, relpath):
    empty = tmp_path / relpath
    empty.parent.mkdir(parents=True, exist_ok=True)
    empty.write_text("")
    code, _, err = run(["report", "--workdir", str(tmp_path)], capsys)
    assert code == 1
    assert err == f"error: ValueError: empty CSV file: {empty}\n"
    assert not (tmp_path / "report.md").exists()


def test_evaluate_rejects_asymmetric_matrix(tmp_path, capsys):
    rrs = tmp_path / "rrs.csv"
    rrs.write_text("firm,A,B\nA,1.000000,0.500000\nB,0.250000,1.000000\n")
    code, _, err = run(["evaluate", "--rrs", str(rrs), "--prices", str(tmp_path),
                        "--out", str(tmp_path / "eval")], capsys)
    assert code == 1
    assert err == f"error: ValueError: malformed RRS matrix in {rrs}: matrix is not symmetric\n"
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("text, line, detail", [
    (b"firm,A,A\nA,1.0,0.5\nA,0.5,1.0\n", 1, "firm 'A' appears twice in the header"),
    (b"firm,A,B\nA,1.0,nan\nB,nan,1.0\n", 2, "values must be finite numbers"),
    (b"firm,A,B\nA,1.0,0.5\nB,0.5,1.0\xff\n", 3,
     "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"),
    (b"firm,../x,y\n../x,1.0,0.5\ny,0.5,1.0\n", 1, f"firm_id '../x' {_FIRM_RULE}"),
    (b'firm,"X,y\n"X,1.0,0.5\ny,0.5,1.0\n', 1, f"firm_id '\"X' {_FIRM_RULE}"),
], ids=["repeated_firm", "nan", "undecodable", "path_firm_id", "quoted_firm_id"])
def test_evaluate_on_malformed_rrs_matrix_names_file_and_line(tmp_path, capsys, text,
                                                              line, detail):
    rrs = tmp_path / "rrs.csv"
    rrs.write_bytes(text)
    code, _, err = run(["evaluate", "--rrs", str(rrs), "--prices", str(tmp_path),
                        "--out", str(tmp_path / "eval")], capsys)
    assert code == 1
    assert err == f"error: ValueError: malformed RRS matrix in {rrs} line {line}: {detail}\n"
    assert not (tmp_path / "eval").exists()


def test_evaluate_reads_a_permuted_matrix_as_the_sorted_one(pipeline_dir, fixture_manifest,
                                                            tmp_path, capsys):
    header, *rows = (pipeline_dir / "rrs.csv").read_text().splitlines()
    firms = header.split(",")[1:]
    cells = [row.split(",")[1:] for row in rows]
    order = [3, 0, 7, 5, 1, 6, 2, 4]
    assert sorted(order) == list(range(len(firms)))
    permuted = tmp_path / "permuted.csv"
    permuted.write_text("firm," + ",".join(firms[k] for k in order) + "\n" + "".join(
        firms[i] + "," + ",".join(cells[i][j] for j in order) + "\n" for i in order))
    for name, rrs in (("sorted", pipeline_dir / "rrs.csv"), ("permuted", permuted)):
        code, _, err = run(["evaluate", "--rrs", str(rrs),
                            "--prices", str(fixture_manifest.prices_dir),
                            "--gics", str(fixture_manifest.gics_path),
                            "--out", str(tmp_path / name)], capsys)
        assert (code, err) == (0, "")
    for name in ("metrics.csv", "pairs.csv"):
        assert ((tmp_path / "permuted" / name).read_bytes()
                == (tmp_path / "sorted" / name).read_bytes()), name


def _prices_with_file(tmp_path, fixture_manifest, content="", name="ZZZZ.csv"):
    prices = tmp_path / "prices"
    prices.mkdir()
    for path in fixture_manifest.prices_dir.glob("*.csv"):
        (prices / path.name).write_bytes(path.read_bytes())
    added = prices / name
    added.write_text(content)
    return prices, added


def test_evaluate_on_empty_price_file_is_clean_error(pipeline_dir, fixture_manifest,
                                                     tmp_path, capsys):
    prices, empty = _prices_with_file(tmp_path, fixture_manifest)
    code, _, err = run(["evaluate", "--rrs", str(pipeline_dir / "rrs.csv"),
                        "--prices", str(prices), "--out", str(tmp_path / "eval")],
                       capsys)
    assert code == 1
    assert err == f"error: ValueError: empty CSV file: {empty}\n"
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("content, detail", [
    ("date,close\nd001,10\nd003,11\nd002,12\nd004,13\n",
     "dates must be strictly increasing: d002 after d003"),
    ("date,close\nd001,1e-308\nd002,1e308\n", "returns must be finite: inf on d002"),
    ("date,close\nd001,10\nd002,0\nd003,11\n", "close 0.0 on d002 is not positive"),
], ids=["out_of_order", "overflow", "zero_close"])
def test_evaluate_on_bad_price_series_names_file_and_date(pipeline_dir, fixture_manifest,
                                                          tmp_path, capsys, content, detail):
    prices, bad = _prices_with_file(tmp_path, fixture_manifest, content)
    code, _, err = run(["evaluate", "--rrs", str(pipeline_dir / "rrs.csv"),
                        "--prices", str(prices), "--out", str(tmp_path / "eval")],
                       capsys)
    assert code == 1
    assert err == f"error: ValueError: bad price series in {bad}: {detail}\n"
    assert not (tmp_path / "eval").exists()


def test_evaluate_on_empty_gics_file_is_clean_error(pipeline_dir, fixture_manifest,
                                                    tmp_path, capsys):
    gics = tmp_path / "gics.csv"
    gics.write_text("")
    code, _, err = run(["evaluate", "--rrs", str(pipeline_dir / "rrs.csv"),
                        "--prices", str(fixture_manifest.prices_dir),
                        "--gics", str(gics), "--out", str(tmp_path / "eval")],
                       capsys)
    assert code == 1
    assert err == f"error: ValueError: empty CSV file: {gics}\n"
    assert not (tmp_path / "eval").exists()


def test_sweep_on_empty_price_file_is_clean_error(pipeline_dir, fixture_manifest,
                                                  tmp_path, capsys):
    prices, empty = _prices_with_file(tmp_path, fixture_manifest)
    code, _, err = run(["sweep", "--model", str(pipeline_dir / "model.bin"),
                        "--paragraphs", str(pipeline_dir / "paragraphs.jsonl"),
                        "--prices", str(prices), "--out", str(tmp_path / "sweep.csv")],
                       capsys)
    assert code == 1
    assert err == f"error: ValueError: empty CSV file: {empty}\n"
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("name, content", [
    ("ZZZZ.csv", "date,close\n2023-01-03,10.0\n"),
    ("._ACME.csv", "\x00\x05\x16\x07\x00\x02\x00\x00Mac OS X"),
    (".ACME.csv", ""),
], ids=["one_row_unscored_firm", "appledouble", "hidden"])
@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_a_price_file_of_no_scored_firm_changes_no_output(pipeline_dir, fixture_manifest,
                                                          tmp_path, capsys, command, name,
                                                          content):
    """A one-row series of a firm outside rrs.csv leaves no pair to exclude,
    and a hidden file is no firm: either way the outputs are those without it."""
    prices, _ = _prices_with_file(tmp_path, fixture_manifest, content, name)
    argv = (["evaluate", "--rrs", str(pipeline_dir / "rrs.csv"),
             "--gics", str(fixture_manifest.gics_path)]
            if command == "evaluate" else
            ["sweep", "--model", str(pipeline_dir / "model.bin"),
             "--paragraphs", str(pipeline_dir / "paragraphs.jsonl")])
    outputs = []
    for prices_dir, out in ((fixture_manifest.prices_dir, tmp_path / "bare"),
                            (prices, tmp_path / "extra")):
        assert run(argv + ["--prices", str(prices_dir), "--out", str(out)], capsys)[0] == 0
        outputs.append(_tree(out) if out.is_dir() else out.read_bytes())
    assert outputs[0] == outputs[1]


def test_a_one_row_series_leaves_its_firms_pairs_out(pipeline_dir, fixture_manifest,
                                                      tmp_path, capsys):
    prices, _ = _prices_with_file(tmp_path, fixture_manifest,
                                  "date,close\n2023-01-03,10.0\n", "HALE.csv")
    out = tmp_path / "eval"
    assert run(["evaluate", "--rrs", str(pipeline_dir / "rrs.csv"), "--prices", str(prices),
                "--out", str(out)], capsys)[0] == 0
    metrics = dict(line.split(",") for line in (out / "metrics.csv").read_text().splitlines())
    assert (metrics["n_pairs"], metrics["n_excluded"]) == ("21", "7")
    assert "HALE" not in (out / "pairs.csv").read_text()


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_a_directory_named_like_a_price_file_names_it(pipeline_dir, fixture_manifest,
                                                      tmp_path, capsys, command):
    prices, _ = _prices_with_file(tmp_path, fixture_manifest)
    (prices / "ZZZZ.csv").unlink()
    (prices / "XX.csv").mkdir()
    argv = (["evaluate", "--rrs", str(pipeline_dir / "rrs.csv"), "--out", str(tmp_path / "eval")]
            if command == "evaluate" else _stage_argv(pipeline_dir, tmp_path, "sweep"))
    code, out, err = run(argv + ["--prices", str(prices)], capsys)
    assert (code, out) == (1, "")
    assert err == (f"error: ValueError: bad price series in {prices / 'XX.csv'}: "
                   "is a directory, not a file\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["prices"]


SHORT_PRICE_ROW = "date,close\n2020-01-02,10.0\n\n2020-01-02\n"


def test_evaluate_on_short_price_row_is_clean_error(pipeline_dir, fixture_manifest,
                                                    tmp_path, capsys):
    prices, bad = _prices_with_file(tmp_path, fixture_manifest, SHORT_PRICE_ROW)
    code, _, err = run(["evaluate", "--rrs", str(pipeline_dir / "rrs.csv"),
                        "--prices", str(prices), "--out", str(tmp_path / "eval")],
                       capsys)
    assert code == 1
    assert err == (f"error: ValueError: malformed CSV row in {bad} line 4: "
                   "expected 2 fields, got 1\n")
    assert not (tmp_path / "eval").exists()


def test_sweep_on_short_price_row_is_clean_error(pipeline_dir, fixture_manifest,
                                                 tmp_path, capsys):
    prices, bad = _prices_with_file(tmp_path, fixture_manifest, SHORT_PRICE_ROW)
    code, _, err = run(["sweep", "--model", str(pipeline_dir / "model.bin"),
                        "--paragraphs", str(pipeline_dir / "paragraphs.jsonl"),
                        "--prices", str(prices), "--out", str(tmp_path / "sweep.csv")],
                       capsys)
    assert code == 1
    assert err == (f"error: ValueError: malformed CSV row in {bad} line 4: "
                   "expected 2 fields, got 1\n")
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("content, detail", [
    ("\n\n", "empty CSV file: {path}"),
    ("ticker,sector,industry\nAAA,Tech\n",
     "malformed CSV row in {path} line 2: expected 3 fields, got 2"),
    ("ticker,sector,industry\nACME,Tech,Software\nBOLT,Tech,Hardware\nACME,Energy,Oil\n",
     "malformed CSV row in {path} line 4: ticker 'ACME' repeated"),
    ("ticker,sector,industry\n", "GICS file {path} has no row for firm 'ACME'"),
])
def test_evaluate_on_malformed_gics_file_is_clean_error(pipeline_dir, fixture_manifest,
                                                        tmp_path, capsys, content, detail):
    gics = tmp_path / "gics.csv"
    gics.write_text(content)
    code, _, err = run(["evaluate", "--rrs", str(pipeline_dir / "rrs.csv"),
                        "--prices", str(fixture_manifest.prices_dir),
                        "--gics", str(gics), "--out", str(tmp_path / "eval")],
                       capsys)
    assert code == 1
    assert err == f"error: ValueError: {detail.format(path=gics)}\n"
    assert not (tmp_path / "eval").exists()


def _undecodable_inputs(kind, pipeline_dir, fixture_manifest, tmp_path):
    """A command that reads one text input of this kind, the input's path, its
    record name in errors, and the valid bytes the input is made from."""
    def evaluate(rrs=pipeline_dir / "rrs.csv", prices=fixture_manifest.prices_dir):
        return ["evaluate", "--rrs", str(rrs), "--prices", str(prices),
                "--out", str(tmp_path / "eval")]

    if kind == "config":
        bad = tmp_path / "run.conf"
        return (["ingest", "--root", str(fixture_manifest.filings_dir), "--out",
                 str(tmp_path / "p.jsonl"), "--config", str(bad)],
                bad, "setting", b"min_tokens = 20\nsections = 1A,7A\n# sections to keep\n")
    if kind == "paragraphs":
        bad = tmp_path / "paragraphs.jsonl"
        return (["pairs", "--in", str(bad), "--seed", "7", "--out", str(tmp_path / "pairs")],
                bad, "record", (pipeline_dir / "paragraphs.jsonl").read_bytes())
    if kind == "pairs":
        pairs = tmp_path / "pairs"
        shutil.copytree(pipeline_dir / "pairs", pairs)
        bad = pairs / "lexical.train.jsonl"
        return (["train", "--pairs", str(pairs), "--seed", "0", "--max-epochs", "1",
                 "--out", str(tmp_path / "model.bin")], bad, "record", bad.read_bytes())
    if kind == "prices":
        shutil.copytree(fixture_manifest.prices_dir, tmp_path / "prices")
        bad = tmp_path / "prices" / "BOLT.csv"
        return evaluate(prices=bad.parent), bad, "CSV row", bad.read_bytes()
    if kind == "gics":
        bad = tmp_path / "gics.csv"
        return ([*evaluate(), "--gics", str(bad)], bad, "CSV row",
                fixture_manifest.gics_path.read_bytes())
    if kind == "rrs":
        bad = tmp_path / "rrs.csv"
        return evaluate(rrs=bad), bad, "RRS matrix", (pipeline_dir / "rrs.csv").read_bytes()
    bad = tmp_path / "eval" / "metrics.csv"
    bad.parent.mkdir()
    return (["report", "--workdir", str(tmp_path)], bad, "CSV row",
            (pipeline_dir / "eval" / "metrics.csv").read_bytes())


@pytest.mark.parametrize("end", [b"\n", b"\r", b"\r\n"], ids=["lf", "cr", "crlf"])
@pytest.mark.parametrize("kind", ["config", "paragraphs", "pairs", "prices", "gics", "rrs",
                                  "metrics"])
def test_undecodable_byte_names_the_input_and_its_line(pipeline_dir, fixture_manifest,
                                                       tmp_path, capsys, kind, end):
    argv, bad, record, valid = _undecodable_inputs(kind, pipeline_dir, fixture_manifest,
                                                   tmp_path)
    lines = valid.splitlines()
    lines[2] = b"\xff" + lines[2]
    bad.write_bytes(end.join(lines) + end)
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err == (f"error: ValueError: malformed {record} in {bad} line 3: 'utf-8' codec "
                   "can't decode byte 0xff in position 0: invalid start byte\n")


@pytest.mark.parametrize("d, size, max_len, detail", [
    (64, 0, 256, "vocabulary size 0 < 2"),
    (0, 3, 256, "width d 0 < 2"),
    (64, 3, 0, "max_len 0 < 1"),
], ids=["no_vocabulary", "d0", "max_len_0"])
def test_embed_on_untrainable_model_is_one_line_error(pipeline_dir, tmp_path, capsys, d, size,
                                                      max_len, detail):
    model = tmp_path / "model.bin"
    model.write_bytes(b"RRENC001" + struct.pack("<IIII", 1, d, size, max_len))
    code, _, err = run(["embed", "--model", str(model), "--in",
                        str(pipeline_dir / "paragraphs.jsonl"), "--out", str(tmp_path / "e.bin")],
                       capsys)
    assert (code, err) == (1, f"error: ValueError: malformed model file {model}: {detail}\n")


def test_python_dash_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "riskrel", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: riskrel ")


def test_outputs_do_not_depend_on_the_blas_thread_count(pipeline_dir, tmp_path):
    """riskrel pins one BLAS thread before numpy loads, so a caller's thread
    count changes no byte of what train and score write."""
    src = Path(cli.__file__).resolve().parents[1]
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": str(src), **dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)}
        for argv in (["train", "--pairs", str(pipeline_dir / "pairs"), "--seed", "0",
                      "--max-epochs", "3", "--out", str(out / "model.bin"),
                      "--report", str(out / "train_report.jsonl")],
                     ["score", "--model", str(out / "model.bin"),
                      "--paragraphs", str(pipeline_dir / "paragraphs.jsonl"),
                      "--out-matrix", str(out / "rrs.csv"), "--out-evidence", str(out / "evidence")]):
            proc = subprocess.run([sys.executable, "-m", "riskrel", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        digests.append({name: hashlib.sha256(data).hexdigest()
                        for name, data in _tree(out).items()})
    assert len(digests[0]) == 31  # model, report, rrs.csv and 28 evidence documents
    assert digests[0] == digests[1]


@pytest.mark.parametrize("close, detail", [
    ("abc", "could not convert string to float: 'abc'"),
    ("nan", "close price is not finite: 'nan'"),
], ids=["abc", "nan"])
@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_bad_close_price_names_file_and_line(pipeline_dir, fixture_manifest, tmp_path,
                                             capsys, command, close, detail):
    prices, bad = _prices_with_file(
        tmp_path, fixture_manifest, f"date,close\n2020-01-02,10.0\n\n2020-01-03,{close}\n")
    argv = (["evaluate", "--rrs", str(pipeline_dir / "rrs.csv"), "--out", str(tmp_path / "eval")]
            if command == "evaluate" else
            ["sweep", "--model", str(pipeline_dir / "model.bin"), "--out", str(tmp_path / "sweep.csv"),
             "--paragraphs", str(pipeline_dir / "paragraphs.jsonl")])
    code, _, err = run(argv + ["--prices", str(prices)], capsys)
    assert code == 1
    assert err == f"error: ValueError: malformed CSV row in {bad} line 4: {detail}\n"


@pytest.mark.parametrize("document, detail", [
    (b'{"rrs": 0.5,', "Expecting property name enclosed in double quotes: "
                     "line 1 column 13 (char 12)"),
    (b'{"threshold": 0.75, "evidence": []}', "missing key 'rrs'"),
    (b'{"rrs": "high", "threshold": 0.75, "evidence": []}',
     "Unknown format code 'f' for object of type 'str'"),
    (b'{"rrs": 0.5, "threshold": 0.75, "evidence": [\xff]}',
     "'utf-8' codec can't decode byte 0xff in position 45: invalid start byte"),
    (b'{"firm_a": "A", "firm_b": "B", "rrs": 0.5, "threshold": 0.75, "evidence": '
     b'[{"id_a": "A:0", "id_b": "B:0", "similarity": 0.9}], "texts": {"A:0": "risk"}}',
     "missing key 'B:0'"),
    (b'{"firm_a": "A", "firm_b": "B", "rrs": 0.5, "threshold": 0.75, "evidence": '
     b'[{"id_a": "A:0", "id_b": "B:0", "similarity": 0.9}], "texts": ["risk", "risk"]}',
     "list indices must be integers or slices, not str"),
    (b'{"firm_a": "A", "firm_b": "B", "rrs": 0.5, "threshold": 0.75, "evidence": []}',
     "missing key 'texts'"),
], ids=["not_json", "no_rrs", "rrs_not_a_number", "undecodable", "id_missing_from_texts",
        "texts_not_an_object", "no_texts"])
def test_report_on_malformed_evidence_document_names_it(tmp_path, capsys, document, detail):
    (tmp_path / "rrs.csv").write_text("firm,A,B\nA,1,0.5\nB,0.5,1\n")
    (tmp_path / "evidence").mkdir()
    doc = tmp_path / "evidence" / "A__B.json"
    doc.write_bytes(document)
    code, _, err = run(["report", "--workdir", str(tmp_path)], capsys)
    assert code == 1
    assert err == f"error: ValueError: malformed evidence document {doc}: {detail}\n"
    assert not (tmp_path / "report.md").exists()


def test_report_rejects_a_firm_id_that_names_a_path_outside_evidence(tmp_path, capsys):
    """A header firm ``../x`` would have report read ``evidence/../x__y.json``."""
    rrs = tmp_path / "rrs.csv"
    rrs.write_text("firm,../x,y\n../x,1.0,0.5\ny,0.5,1.0\n")
    code, out, err = run(["report", "--workdir", str(tmp_path)], capsys)
    assert (code, out) == (1, "")
    assert err == (f"error: ValueError: malformed RRS matrix in {rrs} line 1: "
                   f"firm_id '../x' {_FIRM_RULE}\n")
    assert list(tmp_path.iterdir()) == [rrs]


def test_report_on_evidence_left_from_another_threshold_is_stale(pipeline_dir, tmp_path,
                                                                   capsys):
    """rrs.csv scored at 0.9 beside evidence scored at 0.75 is one error line."""
    shutil.copytree(pipeline_dir / "evidence", tmp_path / "evidence")
    assert run(_stage_argv(pipeline_dir, tmp_path, "score") + ["--threshold", "0.9"],
               capsys)[0] == 0
    firms, matrix = scoring.read_rrs_csv(tmp_path / "rrs.csv")
    (a, b), top = max(scoring.pair_cells(firms, matrix).items(), key=lambda kv: kv[1])
    doc = tmp_path / "evidence" / f"{a}__{b}.json"
    stale = json.loads(doc.read_text())["rrs"]
    assert f"{stale:.6f}" != f"{top:.6f}"
    code, _, err = run(["report", "--workdir", str(tmp_path)], capsys)
    assert code == 1
    assert err == (f"error: ValueError: stale evidence document {doc}: RRS {stale:.6f}, "
                   f"but rrs.csv holds {top:.6f} for the pair\n")
    assert not (tmp_path / "report.md").exists()


def test_report_on_missing_work_directory_creates_nothing(tmp_path, capsys):
    workdir = tmp_path / "no" / "such" / "work"
    code, out, err = run(["report", "--workdir", str(workdir)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: FileNotFoundError: work directory not found: {workdir}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid, step, label", [("0.6:0.62:0.005", "0.005", "0.01"),
                                               ("0:1:1e-6", "1e-06", "0.00")],
                         ids=["half_steps", "million"])
def test_sweep_rejects_a_grid_that_prints_alike(pipeline_dir, tmp_path, capsys, grid, step,
                                                label):
    """A step finer than a hundredth is not a whole number of hundredths."""
    code, out, err = run(_stage_argv(pipeline_dir, tmp_path, "sweep") + ["--grid", grid], capsys)
    assert (code, out) == (1, "")
    assert err == (f"error: ValueError: grid value {step} prints as {label} in sweep.csv: "
                   "grid values must have at most two decimals\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("step", ["inf", "nan"])
def test_sweep_rejects_a_step_that_is_no_hundredth(pipeline_dir, tmp_path, capsys, step):
    argv = _stage_argv(pipeline_dir, tmp_path, "sweep") + ["--grid", f"0.6:0.9:{step}"]
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (1, "", f"error: ValueError: grid value {step} must lie in [0, 1]\n")
    assert list(tmp_path.iterdir()) == []


def test_sweep_grid_stops_at_its_last_hundredth_below_stop(pipeline_dir, tmp_path, capsys):
    code, _, _ = run(_stage_argv(pipeline_dir, tmp_path, "sweep") + ["--grid", "0.5:1:0.3"],
                     capsys)
    assert code == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0.50", "0.80"]


def test_sweep_rejects_a_grid_value_with_more_than_two_decimals(pipeline_dir, tmp_path,
                                                              capsys):
    argv = _stage_argv(pipeline_dir, tmp_path, "sweep") + ["--grid", "0.125:0.325:0.1"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == ("error: ValueError: grid value 0.125 prints as 0.12 in sweep.csv: "
                   "grid values must have at most two decimals\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid", ["0.6:0.9:abc", "0.6:0.9", "0.6:0.7:0.8:0.9"],
                         ids=["not_a_number", "two_parts", "four_parts"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_sweep_rejects_a_grid_that_is_not_three_numbers(pipeline_dir, tmp_path, capsys,
                                                        source, grid):
    config = tmp_path / "sweep.conf"
    config.write_text(f"grid = {grid}\n")
    argv = _stage_argv(pipeline_dir, tmp_path, "sweep")
    argv += ["--grid", grid] if source == "flag" else ["--config", str(config)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: ValueError: grid must be start:stop:step, got {grid!r}\n"
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_score_rejects_a_threshold_with_more_than_two_decimals(pipeline_dir, tmp_path,
                                                             capsys, source):
    """score and report.md print the threshold at two decimals, so 0.125
    would be reported as 0.12 beside evidence documents scored at 0.125."""
    config = tmp_path / "run.conf"
    config.write_text("threshold = 0.125\n")
    argv = _stage_argv(pipeline_dir, tmp_path / "out", "score") + (
        ["--threshold", "0.125"] if source == "flag" else ["--config", str(config)])
    code, out, err = run(argv + ["--out-evidence", str(tmp_path / "out" / "evidence")], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: ValueError: threshold 0.125 prints as 0.12 in score's summary line "
                   "and report.md: thresholds must have at most two decimals\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threshold", ["0.75", "0.8", "0.9"])
def test_score_prints_a_two_decimal_threshold(pipeline_dir, tmp_path, capsys, threshold):
    code, out, _ = run(_stage_argv(pipeline_dir, tmp_path, "score")
                       + ["--threshold", threshold], capsys)
    assert code == 0
    assert out == (f"score: threshold {float(threshold):.2f}, matrix for 8 firms "
                   f"-> {tmp_path / 'rrs.csv'}\n")


@pytest.mark.parametrize("damage", ["row_deleted", "pairs_missing"])
def test_report_on_a_half_published_evaluation_is_stale(pipeline_dir, tmp_path, capsys,
                                                        damage):
    """metrics.csv counts 28 pairs: a pairs.csv short of a row, or missing,
    is one error line and no report.md."""
    shutil.copytree(pipeline_dir / "eval", tmp_path / "eval")
    pairs_csv = tmp_path / "eval" / "pairs.csv"
    lines = pairs_csv.read_text().splitlines(True)
    assert len(lines) == 1 + 28
    if damage == "row_deleted":
        pairs_csv.write_text("".join(lines[:-1]))
        found = "pairs.csv has 27 data rows"
    else:
        pairs_csv.unlink()
        found = "pairs.csv is missing"
    code, out, err = run(["report", "--workdir", str(tmp_path)], capsys)
    assert (code, out) == (1, "")
    assert err == (f"error: ValueError: stale evaluation {tmp_path / 'eval'}: metrics.csv has "
                   f"n_pairs 28, but {found}\n")
    assert not (tmp_path / "report.md").exists()


# Every subcommand's option strings, so a new knob shows as a one-line diff.
_TRAIN_FLAGS = ("--batch-size --learning-rate --warmup-steps --max-epochs --patience "
                "--temperature --l2-coeff --max-len --embed-dim --vocab-min-freq")
_FLAGS = {
    "ingest": "--root --out --min-tokens --sections --config",
    "pairs": "--in --view --seed --out --train --val --min-tokens --min-span --overlap-cap "
             "--max-pairs-per-paragraph --config",
    "train": f"--pairs --seed --out --report {_TRAIN_FLAGS} --config",
    "embed": "--model --in --out",
    "score": "--model --paragraphs --out-matrix --out-evidence --threshold --config",
    "evaluate": "--rrs --prices --gics --out",
    "sweep": "--model --paragraphs --prices --out --grid --config",
    "report": "--workdir",
}

# The files one pipeline run leaves, so a new or dropped artifact shows as a
# one-line diff: pair files as <view>.<split>, evidence as a count of <A>__<B>.json.
_ARTIFACTS = {
    "files": "embeddings.bin eval/metrics.csv eval/pairs.csv model.bin paragraphs.jsonl "
             "report.md rrs.csv sweep.csv train_report.jsonl",
    "pairs": "chronological.train chronological.val lexical.train lexical.val",
    "evidence": 28,  # C(8, 2) firm pairs
}


def test_pipeline_writes_exactly_its_pinned_artifacts(pipeline_dir):
    files = [path.relative_to(pipeline_dir).as_posix()
             for path in sorted(pipeline_dir.rglob("*")) if path.is_file()]
    pairs = [name.removeprefix("pairs/").removesuffix(".jsonl")
             for name in files if name.startswith("pairs/")]
    evidence = [name for name in files if re.fullmatch(r"evidence/[A-Z]+__[A-Z]+\.json", name)]
    rest = [name for name in files if not name.startswith("pairs/") and name not in evidence]
    assert {"files": " ".join(rest), "pairs": " ".join(pairs),
            "evidence": len(evidence)} == _ARTIFACTS


def test_every_subcommand_takes_exactly_its_pinned_flags():
    [commands] = [action.choices for action in cli.build_parser()._actions
                  if isinstance(action.choices, dict)]
    assert list(commands) == list(_FLAGS)
    for name, parser in commands.items():
        flags = [flag for action in parser._actions for flag in action.option_strings
                 if action.dest != "help"]
        assert flags == _FLAGS[name].split(), name
        choices = {action.dest: action.choices for action in parser._actions
                   if action.choices}
        assert choices == ({"view": ["chronological", "lexical", "both"]}
                           if name == "pairs" else {}), name


DEEP_JSON = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"


def test_pairs_on_too_deeply_nested_record_names_file_and_line(tmp_path, capsys):
    paragraphs = tmp_path / "p.jsonl"
    paragraphs.write_text("[" * 100_000 + "\n")
    code, _, err = run(["pairs", "--in", str(paragraphs), "--seed", "7",
                        "--out", str(tmp_path / "pairs")], capsys)
    assert code == 1
    assert err == f"error: ValueError: malformed record in {paragraphs} line 1: {DEEP_JSON}\n"
    assert not (tmp_path / "pairs").exists()


def test_report_on_too_deeply_nested_evidence_document_names_it(tmp_path, capsys):
    (tmp_path / "rrs.csv").write_text("firm,A,B\nA,1,0.5\nB,0.5,1\n")
    (tmp_path / "evidence").mkdir()
    doc = tmp_path / "evidence" / "A__B.json"
    doc.write_text("[" * 100_000)
    code, _, err = run(["report", "--workdir", str(tmp_path)], capsys)
    assert code == 1
    assert err == f"error: ValueError: malformed evidence document {doc}: {DEEP_JSON}\n"
    assert not (tmp_path / "report.md").exists()


def test_report_on_metrics_row_without_value_names_file(tmp_path, capsys):
    metrics = tmp_path / "eval" / "metrics.csv"
    metrics.parent.mkdir()
    metrics.write_text("metric,value\nn_pairs,28\nrho_pearson\n")
    code, _, err = run(["report", "--workdir", str(tmp_path)], capsys)
    assert code == 1
    assert err == (f"error: ValueError: malformed CSV row in {metrics} line 3: "
                   "expected 2 fields, got 1\n")


def test_bad_config_value_names_key_and_file(pipeline_dir, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("max_epochs = abc\n")
    out = tmp_path / "model.bin"
    code, _, err = run(["train", "--pairs", str(pipeline_dir / "pairs"), "--seed", "1",
                        "--config", str(config), "--out", str(out)], capsys)
    assert code == 1
    assert err == (f"error: ValueError: bad value for max_epochs in config file {config}: "
                   "'abc' is not int\n")
    assert not list(tmp_path.glob("*model*"))


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _score_argv(pipeline_dir, out, *extra):
    return ["score", "--model", str(pipeline_dir / "model.bin"),
            "--paragraphs", str(pipeline_dir / "paragraphs.jsonl"),
            "--out-matrix", str(out / "rrs.csv"), "--out-evidence", str(out / "evidence"),
            *extra]


# No shrink phase: each shrink step reruns score, and shrinking a permutation
# of the whole file took minutes; the failing permutation is reported as drawn.
@settings(max_examples=20, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data())
def test_shuffled_paragraph_file_scores_byte_for_byte_alike(pipeline_dir, data):
    """Reordering paragraphs.jsonl, within a firm and across firms, changes no
    byte of embeddings.bin, rrs.csv or of any evidence file, for a fixed model.bin."""
    lines = (pipeline_dir / "paragraphs.jsonl").read_text().splitlines(True)
    shuffled = data.draw(st.permutations(lines))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        paragraphs = out / "paragraphs.jsonl"
        paragraphs.write_text("".join(shuffled))
        argv = _score_argv(pipeline_dir, out, "--threshold", "0.75")
        argv[argv.index("--paragraphs") + 1] = str(paragraphs)
        assert cli.main(argv) == 0
        assert cli.main(["embed", "--model", str(pipeline_dir / "model.bin"),
                         "--in", str(paragraphs), "--out", str(out / "embeddings.bin")]) == 0
        paragraphs.unlink()
        assert _tree(out) == {name: body for name, body in _tree(pipeline_dir).items()
                              if name in ("embeddings.bin", "rrs.csv")
                              or name.startswith("evidence/")}


def test_config_threshold_reaches_score(pipeline_dir, tmp_path, capsys):
    config = tmp_path / "score.conf"
    config.write_text("threshold = 0.8\n")
    by_config, by_flags, default = (tmp_path / name for name in ("c", "f", "d"))
    assert run(_score_argv(pipeline_dir, by_config, "--config", str(config)), capsys)[0] == 0
    assert run(_score_argv(pipeline_dir, by_flags, "--threshold", "0.8"), capsys)[0] == 0
    assert run(_score_argv(pipeline_dir, default), capsys)[0] == 0
    assert _tree(by_config) == _tree(by_flags) != _tree(default)
    doc = json.loads((by_config / "evidence" / "ACME__BOLT.json").read_text())
    assert doc["threshold"] == 0.8


def test_score_writes_a_threshold_of_minus_zero_as_zero(pipeline_dir, tmp_path, capsys):
    minus, zero = tmp_path / "minus", tmp_path / "zero"
    code, out, _ = run(_score_argv(pipeline_dir, minus, "--threshold", "-0.0"), capsys)
    assert code == 0 and "score: threshold 0.00," in out
    assert run(_score_argv(pipeline_dir, zero, "--threshold", "0"), capsys)[0] == 0
    assert _tree(minus) == _tree(zero)
    doc = (minus / "evidence" / "ACME__BOLT.json").read_text()
    assert '"threshold": 0.0,' in doc


def test_config_grid_reaches_sweep(pipeline_dir, tmp_path, capsys):
    config = tmp_path / "sweep.conf"
    config.write_text("grid = 0.7:0.8:0.05\n")
    argv = ["sweep", "--model", str(pipeline_dir / "model.bin"),
            "--paragraphs", str(pipeline_dir / "paragraphs.jsonl")]
    assert run(argv + ["--config", str(config), "--out", str(tmp_path / "c.csv")],
               capsys)[0] == 0
    assert run(argv + ["--grid", "0.7:0.8:0.05", "--out", str(tmp_path / "f.csv")],
               capsys)[0] == 0
    assert run(argv + ["--out", str(tmp_path / "d.csv")], capsys)[0] == 0
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0.70", "0.75", "0.80"]
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "f.csv").read_bytes()
    assert (tmp_path / "c.csv").read_bytes() != (tmp_path / "d.csv").read_bytes()


def _stage_argv(pipeline_dir, tmp_path, command):
    model = ["--model", str(pipeline_dir / "model.bin")]
    paragraphs = str(pipeline_dir / "paragraphs.jsonl")
    return {"embed": ["embed", *model, "--in", paragraphs,
                      "--out", str(tmp_path / "embeddings.bin")],
            "score": ["score", *model, "--paragraphs", paragraphs,
                      "--out-matrix", str(tmp_path / "rrs.csv")],
            "sweep": ["sweep", *model, "--paragraphs", paragraphs,
                      "--out", str(tmp_path / "sweep.csv")]}[command]


@pytest.mark.parametrize("command", ["score", "sweep"])
def test_only_embed_hashes_the_model(pipeline_dir, tmp_path, capsys, monkeypatch, command):
    def refuse(path):
        raise OSError(f"{command} hashed {path}")

    monkeypatch.setattr(cli, "model_fingerprint", refuse)
    code, out, err = run(_stage_argv(pipeline_dir, tmp_path, command), capsys)
    assert (code, err) == (0, "")
    assert out.startswith(f"{command}: ")


def test_ingest_sections_choose_the_corpus(tmp_path, capsys):
    filing = tmp_path / "filings" / "ACME" / "2020.txt"
    filing.parent.mkdir(parents=True)
    filing.write_text("<p>Item 1A. Risk Factors</p><p>" + "risk " * 25 + "</p>"
                      "<p>Item 1B. Unresolved Staff Comments</p><p>" + "staff " * 25 + "</p>"
                      "<p>Item 2. Properties</p>")
    out = tmp_path / "p.jsonl"
    assert run(["ingest", "--root", str(filing.parents[1]), "--out", str(out),
                "--sections", "1B"], capsys)[0] == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["id"], r["section"]) for r in records] == [("ACME:2020:1B:0000", "1B")]


def test_ingest_sections_in_lower_case_select_their_items(tmp_path, capsys):
    """"ITEM 1a" is heading code 1A, and "--sections 1a" asks for it."""
    filing = tmp_path / "filings" / "ACME" / "2020.txt"
    filing.parent.mkdir(parents=True)
    filing.write_text("<p>ITEM 1a. Risk Factors</p><p>" + "risk " * 25 + "</p>"
                      "<p>Item 2. Properties</p>")
    out = tmp_path / "p.jsonl"
    assert run(["ingest", "--root", str(filing.parents[1]), "--out", str(out),
                "--sections", "1a"], capsys) == (
        0, f"ingest: wrote 1 paragraphs from 1 firms to {out}\n", "")
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["id"], r["section"]) for r in records] == [("ACME:2020:1A:0000", "1A")]


@pytest.mark.parametrize("command, flag", [
    ("embed", "--sections"), ("score", "--sections"), ("sweep", "--sections"),
    ("embed", "--config")])
def test_later_stages_reject_removed_flags(pipeline_dir, tmp_path, command, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(_stage_argv(pipeline_dir, tmp_path, command) + [flag, "1A"])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("line", ["treshold = 0.9", "sections = 1A"])
def test_config_key_the_command_does_not_take_is_an_error(pipeline_dir, tmp_path,
                                                         capsys, line):
    config = tmp_path / "score.conf"
    config.write_text(f"threshold = 0.8\n{line}\n")
    code, out, err = run(_score_argv(pipeline_dir, tmp_path / "out", "--config", str(config)),
                         capsys)
    key = line.split()[0]
    assert (code, out) == (1, "")
    assert err == (f"error: ValueError: unknown setting {key} for score "
                   f"in config file {config}\n")
    assert not (tmp_path / "out").exists()


def test_gics_field_over_the_csv_limit_names_file_and_line(pipeline_dir, fixture_manifest,
                                                          tmp_path, capsys):
    gics = tmp_path / "gics.csv"
    gics.write_text("ticker,sector,industry\nACME," + "x" * 131_073 + ",Software\n")
    code, _, err = run(["evaluate", "--rrs", str(pipeline_dir / "rrs.csv"),
                        "--prices", str(fixture_manifest.prices_dir),
                        "--gics", str(gics), "--out", str(tmp_path / "eval")], capsys)
    assert code == 1
    assert err == (f"error: ValueError: malformed CSV row in {gics} line 2: "
                   "field larger than field limit (131072)\n")
    assert not (tmp_path / "eval").exists()


_PARAGRAPH = {"id": "ACME:2020:1A:0000", "firm": "ACME", "year": 2020, "section": "1A",
              "text": "risk", "tokens": ["risk"]}


@pytest.mark.parametrize("line, detail", [
    ("{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("[1]", "list indices must be integers or slices, not str"),
    (json.dumps({**_PARAGRAPH, "tokens": 5}), "tokens must be a list of strings"),
    (json.dumps({**_PARAGRAPH, "tokens": "risk"}), "tokens must be a list of strings"),
    (json.dumps({**_PARAGRAPH, "tokens": [1]}), "tokens must be a list of strings"),
    (json.dumps({**_PARAGRAPH, "tokens": ["risk", 1]}), "tokens must be a list of strings"),
    (json.dumps({**_PARAGRAPH, "tokens": ["risk", ["x"]]}), "tokens must be a list of strings"),
    (json.dumps({**_PARAGRAPH, "firm": 7}), "firm must be str"),
    (json.dumps({key: value for key, value in _PARAGRAPH.items() if key != "firm"}),
     "missing key 'firm'"),
    (json.dumps({**_PARAGRAPH, "year": True}), "fiscal_year True out of range [1990, 2100]"),
    (json.dumps({**_PARAGRAPH, "year": 1800}), "fiscal_year 1800 out of range [1990, 2100]"),
], ids=["not-json", "list", "tokens-int", "tokens-str", "token-int", "token-int-after-str",
        "token-list-after-str", "firm-int", "no-firm", "year-true", "year-1800"])
def test_malformed_paragraph_record_names_file_and_line(tmp_path, capsys, line, detail):
    paragraphs = tmp_path / "paragraphs.jsonl"
    paragraphs.write_text(json.dumps(_PARAGRAPH) + "\n\n" + line + "\n")
    code, _, err = run(["pairs", "--in", str(paragraphs), "--seed", "7",
                        "--out", str(tmp_path / "pairs")], capsys)
    assert code == 1
    assert err == f"error: ValueError: malformed record in {paragraphs} line 3: {detail}\n"
    assert not (tmp_path / "pairs").exists()


_PAIR = {"view": "lexical", "left_tokens": ["a"], "right_tokens": ["b"], "provenance": ["p"]}


@pytest.mark.parametrize("line, detail", [
    (json.dumps({**_PAIR, "left_tokens": None}), "left_tokens must be a list of strings"),
    (json.dumps({**_PAIR, "right_tokens": ["b", 2]}), "right_tokens must be a list of strings"),
    (json.dumps({key: value for key, value in _PAIR.items() if key != "right_tokens"}),
     "missing key 'right_tokens'"),
    ('"pair"', "string indices must be integers, not 'str'"),
], ids=["left-null", "right-int-after-str", "no-right", "string"])
def test_malformed_pair_record_names_file_and_line(tmp_path, capsys, line, detail):
    pairs_dir = _pairs_dir(tmp_path, {"lexical.train.jsonl": line + "\n"})
    bad = pairs_dir / "lexical.train.jsonl"
    code, _, err = run(["train", "--pairs", str(pairs_dir), "--seed", "0",
                        "--out", str(tmp_path / "model.bin")], capsys)
    assert code == 1
    assert err == f"error: ValueError: malformed record in {bad} line 1: {detail}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs"]


def test_readme_commands_parse():
    readme = (ROOT / "README.md").read_text()
    in_block, commands = False, []
    for line in readme.replace("\\\n", " ").splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("riskrel "):
            commands.append(shlex.split(line)[1:])
    assert [argv[0] for argv in commands] == [
        "ingest", "pairs", "train", "embed", "score", "evaluate", "sweep", "report"]
    for argv in commands:
        cli.build_parser().parse_args(argv)


def test_failed_score_rerun_keeps_previous_outputs(pipeline_dir, tmp_path, capsys,
                                                   monkeypatch):
    assert run(_score_argv(pipeline_dir, tmp_path), capsys)[0] == 0
    before = _tree(tmp_path)
    assert len(before) == 29  # rrs.csv and C(8, 2) evidence files

    build_document = scoring._evidence_document
    calls = []

    def fail_on_third(*args):
        calls.append(1)
        document = build_document(*args)
        if len(calls) == 3:
            raise OSError("disk full")
        return document

    monkeypatch.setattr(scoring, "_evidence_document", fail_on_third)
    code, _, err = run(_score_argv(pipeline_dir, tmp_path), capsys)
    assert code == 1
    assert err == "error: OSError: disk full\n"
    assert _tree(tmp_path) == before
    assert not list(tmp_path.rglob(".*"))


def test_score_onto_a_file_keeps_previous_outputs(pipeline_dir, tmp_path, capsys):
    assert run(_score_argv(pipeline_dir, tmp_path), capsys)[0] == 0
    (tmp_path / "F").write_text("not a directory")
    before = _tree(tmp_path)
    argv = _score_argv(pipeline_dir, tmp_path, "--threshold", "0.6")
    argv[argv.index("--out-evidence") + 1] = str(tmp_path / "F")
    code, _, err = run(argv, capsys)
    assert code == 1
    assert _tree(tmp_path) == before
    assert err == (f"error: NotADirectoryError: {tmp_path / 'F'} is a file, "
                   "so a directory cannot be written there\n")
    assert not list(tmp_path.rglob(".*"))


@pytest.mark.parametrize("evidence_exists, renames", [(False, 2), (True, 29)],
                         ids=["fresh", "rerun"])
def test_score_stages_the_evidence_directory_once(pipeline_dir, tmp_path, capsys,
                                                  monkeypatch, evidence_exists, renames):
    if evidence_exists:
        assert run(_score_argv(pipeline_dir, tmp_path), capsys)[0] == 0
    replace, targets = os.replace, []

    def counting(src, dst, **kwargs):
        targets.append(dst)
        replace(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", counting)
    assert run(_score_argv(pipeline_dir, tmp_path), capsys)[0] == 0
    # rrs.csv, then the evidence directory or each of its C(8, 2) files
    assert len(targets) == renames
    assert _tree(tmp_path) == {name: body for name, body in _tree(pipeline_dir).items()
                               if name == "rrs.csv" or name.startswith("evidence/")}


def test_failed_evaluate_rerun_keeps_previous_outputs(pipeline_dir, fixture_manifest,
                                                      tmp_path, capsys):
    argv = ["evaluate", "--rrs", str(pipeline_dir / "rrs.csv"),
            "--prices", str(fixture_manifest.prices_dir), "--out", str(tmp_path / "eval")]
    assert run(argv + ["--gics", str(fixture_manifest.gics_path)], capsys)[0] == 0
    before = _tree(tmp_path)
    assert sorted(before) == ["eval/metrics.csv", "eval/pairs.csv"]

    gics = tmp_path / "gics.csv"
    gics.write_text("".join(fixture_manifest.gics_path.read_text().splitlines(True)[:-1]))
    code, _, err = run(argv + ["--gics", str(gics)], capsys)
    assert code == 1
    assert err == f"error: ValueError: GICS file {gics} has no row for firm 'HALE'\n"
    gics.unlink()
    assert _tree(tmp_path) == before
    assert not list(tmp_path.rglob(".*"))


@pytest.mark.parametrize("command", ["score", "sweep"])
def test_one_firm_corpus_is_one_line_error(pipeline_dir, tmp_path, capsys, command):
    paragraphs = tmp_path / "acme.jsonl"
    paragraphs.write_text("".join(line for line in (pipeline_dir / "paragraphs.jsonl")
                                  .read_text().splitlines(True) if '"firm": "ACME"' in line))
    argv = _stage_argv(pipeline_dir, tmp_path / "out", command)
    argv[argv.index("--paragraphs") + 1] = str(paragraphs)
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == "error: ValueError: scoring needs at least two firms\n"
    assert not (tmp_path / "out").exists()


def test_report_without_rrs_names_it_as_the_missing_evidence_input(tmp_path, capsys):
    (tmp_path / "evidence").mkdir()
    assert run(["report", "--workdir", str(tmp_path)], capsys)[0] == 0
    report = (tmp_path / "report.md").read_text()
    assert "## Evidence highlights\n\n_No top pair: rrs.csv not found._\n" in report
    assert "_No evidence directory._" not in report


def test_report_on_one_firm_matrix_says_there_is_no_pair(tmp_path, capsys):
    (tmp_path / "rrs.csv").write_text("firm,A\nA,1\n")
    (tmp_path / "evidence").mkdir()
    assert run(["report", "--workdir", str(tmp_path)], capsys)[0] == 0
    report = (tmp_path / "report.md").read_text()
    assert "## Evidence highlights\n\n_No top pair: rrs.csv holds one firm._\n" in report


@pytest.mark.parametrize("evidence, note", [
    (False, "_No evidence directory._"),
    (True, "_No evidence document for the top pair._"),
], ids=["no_directory", "no_top_document"])
def test_report_says_what_evidence_is_missing(pipeline_dir, tmp_path, capsys, evidence, note):
    shutil.copy(pipeline_dir / "rrs.csv", tmp_path / "rrs.csv")
    if evidence:
        (tmp_path / "evidence").mkdir()
    assert run(["report", "--workdir", str(tmp_path)], capsys)[0] == 0
    report = (tmp_path / "report.md").read_text()
    assert f"## Evidence highlights\n\n{note}\n\n## Alignment" in report


@pytest.mark.parametrize("firm, name, raw, detail", [
    ("ACME", "2020.txt", b"Item 1A. \xff risk",
     "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"),
    ("ACME", "1800.txt", b"Item 1A. risk", "fiscal_year 1800 out of range [1990, 2100]"),
    ("AC,ME", "2020.txt", b"Item 1A. risk", f"firm_id 'AC,ME' {_FIRM_RULE}"),
    ("A__B", "2020.txt", b"Item 1A. risk", f"firm_id 'A__B' {_FIRM_RULE}"),
    ("ACME", "2020.txt", None, "is a directory, not a file"),
], ids=["not_utf8", "year_out_of_range", "firm_comma", "firm_pair_separator", "directory"])
def test_ingest_error_names_the_filing(tmp_path, capsys, firm, name, raw, detail):
    filing = tmp_path / "filings" / firm / name
    filing.parent.mkdir(parents=True)
    if raw is None:
        filing.mkdir()
    else:
        filing.write_bytes(raw)
    code, out, err = run(["ingest", "--root", str(tmp_path / "filings"),
                          "--out", str(tmp_path / "p.jsonl")], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: ValueError: bad filing {filing}: {detail}\n"
    assert not (tmp_path / "p.jsonl").exists()


def test_ingest_of_a_firm_id_with_a_quote_publishes_nothing(tmp_path, capsys):
    """A firm id is an unquoted cell of rrs.csv and eval/pairs.csv, where a
    leading '"' would open a quoted field for every CSV reader."""
    filings = tmp_path / "filings"
    for firm in ("ACME", '"X'):
        (filings / firm).mkdir(parents=True)
        (filings / firm / "2020.txt").write_text(
            "<p>Item 1A. Risk Factors</p><p>" + "risk " * 25 + "</p>")
    out = tmp_path / "p.jsonl"
    out.write_text("previous run\n")
    code, stdout, err = run(["ingest", "--root", str(filings), "--out", str(out)], capsys)
    assert (code, stdout) == (1, "")
    filing = filings / '"X' / "2020.txt"
    assert err == f"error: ValueError: bad filing {filing}: firm_id '\"X' {_FIRM_RULE}\n"
    assert out.read_text() == "previous run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["filings", "p.jsonl"]


@pytest.mark.parametrize("names", [["02020.txt", "2020.txt"], ["２０２０.txt"], ["020.txt"]],
                         ids=["leading-zero", "full-width", "three-digits"])
def test_ingest_filing_name_must_be_four_ascii_digits(tmp_path, capsys, names):
    """A year is four ASCII digits, so no two filings of a firm name one year."""
    firm = tmp_path / "filings" / "ACME"
    firm.mkdir(parents=True)
    for name in names:
        (firm / name).write_text("<p>Item 1A. Risk Factors</p><p>" + "risk " * 25 + "</p>")
    code, out, err = run(["ingest", "--root", str(firm.parent),
                          "--out", str(tmp_path / "p.jsonl")], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: ValueError: filing name must be <year>.txt, got: {firm / names[0]}\n"
    assert not (tmp_path / "p.jsonl").exists()


@pytest.mark.parametrize("flag, value, error", [
    ("--max-epochs", "0", "ValueError: max_epochs must be >= 1"),
    ("--l2-coeff", "-1", "ValueError: l2_coeff must be >= 0"),
    ("--learning-rate", "nan", "ValueError: learning_rate must be finite and >= 0"),
    ("--max-len", "0", "ValueError: max_len must be >= 1"),
    ("--max-len", "4294967296",
     "ValueError: max_len must be <= 4294967295, the model file's u32 bound"),
    ("--l2-coeff", "1e308", "NonFiniteGradient: step 0: invalid value encountered in multiply"),
    ("--temperature", "1e-300", "NonFiniteGradient: step 0: overflow encountered in square"),
    ("--warmup-steps", "-1", "ValueError: warmup_steps must be >= 0"),
], ids=["max_epochs", "l2_coeff", "learning_rate", "max_len", "max_len_u32",
        "l2_coeff_nan_gradient", "temperature_adam_overflow", "warmup_steps"])
def test_train_rejects_settings_no_training_can_use(pipeline_dir, tmp_path, capsys, flag,
                                                     value, error):
    """Each ends in one error line and writes nothing: a bound is checked before
    the first step, and an overflow or NaN in a step, in its gradient or in
    Adam's moments, stops training without a RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # else pytest would capture a warning
        code, out, err = run(["train", "--pairs", str(pipeline_dir / "pairs"), "--seed", "0",
                              flag, value, "--out", str(tmp_path / "model.bin"),
                              "--report", str(tmp_path / "report.jsonl")], capsys)
    assert (code, out, err) == (1, "", f"error: {error}\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, flag, value, detail", [
    ("pairs", "--val", "-3", "val_count must be >= 0"),
    ("pairs", "--train", "-5", "train_count must be >= 0"),
    ("train", "--temperature", "inf", "temperature must be finite and positive"),
], ids=["val_count", "train_count", "temperature"])
def test_out_of_range_count_or_temperature_is_one_line_error(pipeline_dir, tmp_path, capsys,
                                                             command, flag, value, detail):
    """A negative count never equals the pairs taken, so it took every pair
    left, and an infinite temperature makes every logit 0, so training
    learns nothing: each is an error that writes nothing."""
    inputs = {"pairs": ["--in", str(pipeline_dir / "paragraphs.jsonl"), "--seed", "7"],
              "train": ["--pairs", str(pipeline_dir / "pairs"), "--seed", "0"]}[command]
    code, out, err = run([command, *inputs, flag, value, "--out", str(tmp_path / "out")],
                         capsys)
    assert (code, out, err) == (1, "", f"error: ValueError: {detail}\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("firm", ["../../escaped", "AC,ME", "A__B", '"CRUX'],
                         ids=["path", "comma", "pair_separator", "quote"])
def test_score_rejects_a_firm_id_that_would_break_its_outputs(pipeline_dir, tmp_path, capsys,
                                                              firm):
    lines = (pipeline_dir / "paragraphs.jsonl").read_text().splitlines(True)
    paragraphs = tmp_path / "paragraphs.jsonl"
    paragraphs.write_text("".join(line.replace('"firm": "BOLT"', f'"firm": {json.dumps(firm)}')
                                  for line in lines))
    first = next(n for n, line in enumerate(lines, 1) if '"firm": "BOLT"' in line)
    out = tmp_path / "out" / "deep"
    code, stdout, err = run(["score", "--model", str(pipeline_dir / "model.bin"),
                             "--paragraphs", str(paragraphs),
                             "--out-matrix", str(out / "rrs.csv"),
                             "--out-evidence", str(out / "evidence")], capsys)
    assert (code, stdout) == (1, "")
    assert err == (f"error: ValueError: malformed record in {paragraphs} line {first}: "
                   f"firm_id {firm!r} {_FIRM_RULE}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["score", "pairs"])
def test_repeated_paragraph_id_is_one_line_error(pipeline_dir, tmp_path, capsys, command):
    lines = (pipeline_dir / "paragraphs.jsonl").read_text().splitlines(True)
    paragraphs = tmp_path / "paragraphs.jsonl"
    paragraphs.write_text("".join([lines[0], *lines]))
    out = tmp_path / "out"
    argv = {"score": _score_argv(pipeline_dir, out),
            "pairs": ["pairs", "--in", str(paragraphs), "--seed", "7",
                      "--out", str(out / "pairs")]}[command]
    if command == "score":
        argv[argv.index("--paragraphs") + 1] = str(paragraphs)
    code, stdout, err = run(argv, capsys)
    pid = json.loads(lines[0])["id"]
    assert (code, stdout) == (1, "")
    assert err == (f"error: ValueError: malformed record in {paragraphs} line 2: "
                   f"paragraph id {pid!r} repeated\n")
    assert not out.exists()
