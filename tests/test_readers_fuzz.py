"""Every input reader, fed arbitrary text through the command line, either
succeeds or ends in one ``error: <Kind>: <detail>`` line with exit status 1."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrel import cli

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4),
                                                                  inner, max_size=3),
    max_leaves=6)
_TOKENS = st.lists(st.text(max_size=6), min_size=1, max_size=6)


def _records(**typical):
    """JSON lines of records with these keys: all typical, or any mix of typical
    records, records with arbitrary JSON values and arbitrary lines."""
    valid = st.fixed_dictionaries(typical).map(json.dumps)
    mixed = st.fixed_dictionaries({key: value | _JSON for key, value in typical.items()})
    return (st.lists(valid, max_size=6)
            | st.lists(valid | mixed.map(json.dumps) | st.text(max_size=40), max_size=6)
            ).map("\n".join)


_GICS_ROW = st.tuples(st.sampled_from(["AAA", "BBB", "CCC", "x"]), st.text(max_size=8),
                      st.text(max_size=8)).map(",".join)

_TEXT = {
    "config": st.text(max_size=60) | st.lists(
        st.sampled_from(["min_tokens", "sections", "threshold", "seed", ""])
        .flatmap(lambda key: st.text(max_size=8).map(f"{key} = ".__add__)),
        max_size=3).map("\n".join),
    "gics": st.text(max_size=60) | st.lists(_GICS_ROW, max_size=6).map(
        lambda rows: "\n".join(["ticker,sector,industry", *rows])),
    "paragraphs": st.text(max_size=60) | _records(
        id=st.text(max_size=6), firm=st.sampled_from(["AAA", "BBB"]),
        year=st.integers(1990, 2030), section=st.sampled_from(["1A", "7A"]),
        text=st.text(max_size=20), tokens=_TOKENS),
    "pairs": st.text(max_size=60) | _records(
        view=st.sampled_from(["chronological", "lexical"]), left_tokens=_TOKENS,
        right_tokens=_TOKENS, provenance=st.lists(st.text(max_size=4), max_size=2)),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A one-filing corpus, a three-firm RRS matrix and price files."""
    root = tmp_path_factory.mktemp("fuzz-inputs")
    filing = root / "filings" / "AAA" / "2020.txt"
    filing.parent.mkdir(parents=True)
    filing.write_text("Item 1A. Risk Factors " + "supply risk " * 15 + "Item 2. Properties")
    (root / "rrs.csv").write_text("firm,AAA,BBB,CCC\nAAA,1.000000,0.500000,0.250000\n"
                                  "BBB,0.500000,1.000000,0.100000\n"
                                  "CCC,0.250000,0.100000,1.000000\n")
    (root / "prices").mkdir()
    for step, firm in enumerate(("AAA", "BBB", "CCC"), start=3):
        (root / "prices" / f"{firm}.csv").write_text("date,close\n" + "".join(
            f"2023-{1 + d // 28:02d}-{1 + d % 28:02d},{10 + d * step % 7}\n" for d in range(40)))
    return root


def _argv(kind: str, inputs: Path, fuzzed: Path, work: Path) -> list[str]:
    if kind == "config":
        return ["ingest", "--root", str(inputs / "filings"), "--out", str(work / "p.jsonl"),
                "--config", str(fuzzed)]
    if kind == "gics":
        return ["evaluate", "--rrs", str(inputs / "rrs.csv"), "--prices", str(inputs / "prices"),
                "--gics", str(fuzzed), "--out", str(work / "eval")]
    if kind == "paragraphs":
        return ["pairs", "--in", str(fuzzed), "--seed", "7", "--train", "1", "--val", "1",
                "--out", str(work / "pairs")]
    pairs_dir = fuzzed.parent / "pairs"
    pairs_dir.mkdir()
    shutil.copy(fuzzed, pairs_dir / "lexical.train.jsonl")
    shutil.copy(fuzzed, pairs_dir / "lexical.val.jsonl")
    return ["train", "--pairs", str(pairs_dir), "--seed", "0", "--max-epochs", "1",
            "--batch-size", "2", "--embed-dim", "4", "--out", str(work / "model.bin")]


@pytest.mark.parametrize("kind", sorted(_TEXT))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_reader_succeeds_or_reports_one_error_line(inputs, kind, data):
    text = data.draw(_TEXT[kind], label=kind)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        fuzzed = work / "input"
        fuzzed.write_text(text, encoding="utf-8")
        argv = _argv(kind, inputs, fuzzed, work)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
