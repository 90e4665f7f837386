"""Staged outputs: everything is published on success, nothing on failure."""

import pytest

from riskrel.outputs import Outputs


def hidden(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob(".*"))


def test_publishes_files_and_directories_on_success(tmp_path):
    with Outputs() as outputs:
        outputs(tmp_path / "a.txt").write_text("a")
        staged = outputs(tmp_path / "new" / "dir")
        staged.mkdir()
        (staged / "x.json").write_text("x")
        assert not (tmp_path / "a.txt").exists()
    assert (tmp_path / "a.txt").read_text() == "a"
    assert (tmp_path / "new" / "dir" / "x.json").read_text() == "x"
    assert hidden(tmp_path) == []


def test_staged_directory_moves_entries_into_an_existing_target(tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    (target / "keep.txt").write_text("user data")
    (target / "x.json").write_text("old")
    with Outputs() as outputs:
        staged = outputs(target)
        staged.mkdir()
        (staged / "x.json").write_text("new")
    assert (target / "keep.txt").read_text() == "user data"
    assert (target / "x.json").read_text() == "new"
    assert hidden(tmp_path) == []


def test_failure_keeps_previous_outputs_and_removes_only_made_directories(tmp_path):
    (tmp_path / "old.txt").write_text("previous run")
    existing = tmp_path / "existing"
    existing.mkdir()
    with pytest.raises(RuntimeError):
        with Outputs() as outputs:
            outputs(tmp_path / "old.txt").write_text("partial")
            outputs(existing / "made" / "deeper" / "f.txt").write_text("partial")
            staged = outputs(tmp_path / "dir")
            staged.mkdir()
            (staged / "x.json").write_text("partial")
            raise RuntimeError("boom")
    assert (tmp_path / "old.txt").read_text() == "previous run"
    assert existing.is_dir() and not list(existing.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing", "old.txt"]


def test_clears_stale_siblings_left_by_a_killed_run(tmp_path):
    (tmp_path / ".rrs.csv.tmp").write_text("half a matrix")
    stale_dir = tmp_path / ".evidence.tmp"
    stale_dir.mkdir()
    (stale_dir / "A__B.json").write_text("{}")
    (stale_dir / ".A__C.json.tmp").write_text("{")
    with Outputs() as outputs:
        matrix = outputs(tmp_path / "rrs.csv")
        evidence = outputs(tmp_path / "evidence")
        assert not matrix.exists() and not evidence.exists()
        matrix.write_text("matrix")
        evidence.mkdir()
    assert (tmp_path / "rrs.csv").read_text() == "matrix"
    assert not list((tmp_path / "evidence").iterdir())
    assert hidden(tmp_path) == []


def test_directory_over_a_file_publishes_nothing(tmp_path):
    (tmp_path / "rrs.csv").write_text("previous matrix")
    (tmp_path / "evidence").write_text("a file in the way")
    with pytest.raises(NotADirectoryError, match="evidence is a file"):
        with Outputs() as outputs:
            outputs(tmp_path / "rrs.csv").write_text("new matrix")
            staged = outputs(tmp_path / "evidence")
            staged.mkdir()
            (staged / "A__B.json").write_text("{}")
    assert (tmp_path / "rrs.csv").read_text() == "previous matrix"
    assert (tmp_path / "evidence").read_text() == "a file in the way"
    assert hidden(tmp_path) == []


def test_file_over_a_directory_publishes_nothing(tmp_path):
    (tmp_path / "a.txt").write_text("previous")
    (tmp_path / "model.bin").mkdir()
    with pytest.raises(IsADirectoryError, match="model.bin is a directory"):
        with Outputs() as outputs:
            outputs(tmp_path / "a.txt").write_text("new")
            outputs(tmp_path / "model.bin").write_text("weights")
    assert (tmp_path / "a.txt").read_text() == "previous"
    assert not list((tmp_path / "model.bin").iterdir())
    assert hidden(tmp_path) == []


def test_merge_checks_every_entry_before_moving_any(tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    (target / "a.json").write_text("old")
    (target / "b.json").mkdir()
    with pytest.raises(IsADirectoryError, match="b.json is a directory"):
        with Outputs() as outputs:
            staged = outputs(target)
            staged.mkdir()
            (staged / "a.json").write_text("new")
            (staged / "b.json").write_text("new")
    assert (target / "a.json").read_text() == "old"
    assert (target / "b.json").is_dir()
    assert hidden(tmp_path) == []
