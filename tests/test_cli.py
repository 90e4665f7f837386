"""Command-line contracts: error reporting, cleanup, config precedence, pipeline."""

import json

import pytest

from riskrel import cli


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


def test_pipeline_artifacts_exist(pipeline_dir):
    for name in ("paragraphs.jsonl", "model.bin", "embeddings.bin", "rrs.csv",
                 "sweep.csv", "report.md", "train_report.jsonl"):
        assert (pipeline_dir / name).is_file(), name
    assert (pipeline_dir / "pairs" / "chronological.train.jsonl").is_file()
    assert (pipeline_dir / "pairs" / "lexical.val.jsonl").is_file()
    assert (pipeline_dir / "eval" / "metrics.csv").is_file()
    evidence = sorted((pipeline_dir / "evidence").glob("*.json"))
    assert len(evidence) == 28  # C(8, 2) firm pairs


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


def test_failure_in_preexisting_dir_keeps_unrelated_files(tmp_path, capsys):
    # Two firms give a single pair record: rho degenerates after pairs.csv
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


def test_insufficient_pairs_is_clean_error(pipeline_dir, tmp_path, capsys):
    code, _, err = run(["pairs", "--in", str(pipeline_dir / "paragraphs.jsonl"),
                        "--seed", "3", "--train", "100000", "--val", "10",
                        "--out", str(tmp_path / "pairs")], capsys)
    assert code == 1
    assert err.startswith("error: InsufficientPairs:")
    assert not list((tmp_path / "pairs").glob("*.jsonl"))


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


def _prices_with_empty_file(tmp_path, fixture_manifest):
    prices = tmp_path / "prices"
    prices.mkdir()
    for path in fixture_manifest.prices_dir.glob("*.csv"):
        (prices / path.name).write_bytes(path.read_bytes())
    empty = prices / "ZZZZ.csv"
    empty.write_text("")
    return prices, empty


def test_evaluate_on_empty_price_file_is_clean_error(pipeline_dir, fixture_manifest,
                                                     tmp_path, capsys):
    prices, empty = _prices_with_empty_file(tmp_path, fixture_manifest)
    code, _, err = run(["evaluate", "--rrs", str(pipeline_dir / "rrs.csv"),
                        "--prices", str(prices), "--out", str(tmp_path / "eval")],
                       capsys)
    assert code == 1
    assert err == f"error: ValueError: empty CSV file: {empty}\n"
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
    prices, empty = _prices_with_empty_file(tmp_path, fixture_manifest)
    code, _, err = run(["sweep", "--model", str(pipeline_dir / "model.bin"),
                        "--paragraphs", str(pipeline_dir / "paragraphs.jsonl"),
                        "--prices", str(prices), "--out", str(tmp_path / "sweep.csv")],
                       capsys)
    assert code == 1
    assert err == f"error: ValueError: empty CSV file: {empty}\n"
    assert not (tmp_path / "sweep.csv").exists()
