"""Every input reader, fed arbitrary input through the command line, either
succeeds or ends in one ``error: <Kind>: <detail>`` line with exit status 1.

Text inputs are written as UTF-8 with LF, CR or CR LF line ends, now and then
with a byte that is not UTF-8; the model file is arbitrary bytes, or a model
header of random sizes with tokens and parameters of any value. A filing is
arbitrary bytes, or a run of markup, entities, Item headings and words, fed
through ``ingest`` (markup stripping, section extraction and segmentation)."""

import contextlib
import io
import json
import shutil
import struct
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrel import cli, corpus
from riskrel.pairs import pair_file

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4),
                                                                  inner, max_size=3),
    max_leaves=6)
_TOKENS = st.lists(st.text(max_size=6), min_size=1, max_size=6)
_SIDE = st.lists(st.text(max_size=6), max_size=6)  # now and then empty


def _records(**typical):
    """JSON lines of records with these keys: all typical, or any mix of typical
    records, records with arbitrary JSON values and arbitrary lines."""
    valid = st.fixed_dictionaries(typical).map(json.dumps)
    mixed = st.fixed_dictionaries({key: value | _JSON for key, value in typical.items()})
    return (st.lists(valid, max_size=6)
            | st.lists(valid | mixed.map(json.dumps) | st.text(max_size=40), max_size=6)
            ).map("\n".join)


_FIRMS = ["AAA", "BBB", "CCC", "DDD"]  # the firms of the fixture's RRS matrix
_GICS_NAME = st.sampled_from(["10", "20"]) | st.text(max_size=8)
_GICS_ROW = st.tuples(st.sampled_from([*_FIRMS, "x"]), _GICS_NAME, _GICS_NAME).map(",".join)


@st.composite
def _gics_files(draw):
    """A header and rows of tickers, sectors and industries; now and then with
    a row for every firm of the RRS matrix, so that evaluate can succeed."""
    rows = draw(st.lists(_GICS_ROW, max_size=6))
    if draw(st.booleans()):
        rows = draw(st.permutations(
            rows + [f"{firm},{draw(_GICS_NAME)},{draw(_GICS_NAME)}" for firm in _FIRMS]))
    return "\n".join(["ticker,sector,industry", *rows])


_CLOSE = st.sampled_from(["10", "11", "12.5", "9"])
_ODD_CLOSE = st.sampled_from(["0", "-1", "nan", "1e308", "1e-308", ""]) | st.text(max_size=6)


@st.composite
def _price_files(draw):
    """Closes on the other firms' trading days, so the firm shares their
    calendar; now and then odd closes, or one day replaced by the first, the
    last or a later one, so that dates repeat, go back or leave a gap."""
    closes = _CLOSE | _ODD_CLOSE if draw(st.booleans()) else _CLOSE
    days = list(range(draw(st.integers(0, 40))))
    if days and draw(st.booleans()):
        k = draw(st.integers(0, len(days) - 1))
        days[k] = draw(st.sampled_from([days[0], days[-1], days[k] + 40]))
    return "\n".join(["date,close", *(f"2023-{1 + d // 28:02d}-{1 + d % 28:02d},"
                                       f"{draw(closes)}" for d in days)])


_RRS_CELL = st.sampled_from(["1", "0.5", "0.25", "0"])
_ODD_RRS_CELL = st.sampled_from(["nan", "inf", ""]) | st.text(max_size=4)


@st.composite
def _rrs_matrices(draw):
    """A header of firms (one without prices) and symmetric rows of numbers;
    now and then odd cells, or one row cut short."""
    firms = draw(st.lists(st.sampled_from([*_FIRMS, "ZZZ"]),
                          min_size=2, max_size=4, unique=True))
    cell = _RRS_CELL | _ODD_RRS_CELL if draw(st.booleans()) else _RRS_CELL
    cells = {(i, j): draw(cell) for i in range(len(firms)) for j in range(i, len(firms))}
    rows = [",".join([firm, *(cells[min(i, j), max(i, j)] for j in range(len(firms)))])
            for i, firm in enumerate(firms)]
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(rows) - 1))
        rows[k] = rows[k][:draw(st.integers(0, len(rows[k])))]
    return "\n".join([",".join(["firm", *firms]), *rows])


# Pieces of a filing: markup that strip_markup removes or turns into paragraph
# breaks, entities that decode into more markup, and the headings that
# extract_sections splits on.
_FILING_PIECE = st.sampled_from([
    "Item 1A. Risk Factors", "ITEM 7A —", "Item 2.", "item 1a", "<p>", "</p>", "<br/>",
    "<table>", "</table>", "<table><tr><td>", "<div class=x>", "<?xml v?>", "<em", ">",
    "&lt;b&gt;", "&amp;", "&#160;", "\n\n", "\n", " \t ", "supply ", "risk ", "2023 ",
]) | st.text(max_size=8)
_FILINGS = st.lists(_FILING_PIECE, max_size=30).map("".join)

_TEXT = {
    "config": st.text(max_size=60) | st.lists(
        st.sampled_from(["min_tokens", "sections", "threshold", "seed", ""])
        .flatmap(lambda key: st.text(max_size=8).map(f"{key} = ".__add__)),
        max_size=3).map("\n".join),
    "gics": st.text(max_size=60) | _gics_files(),
    "paragraphs": st.text(max_size=60) | _records(
        id=st.text(max_size=6), firm=st.sampled_from(["AAA", "BBB"]),
        year=st.integers(1990, 2030), section=st.sampled_from(["1A", "7A"]),
        text=st.text(max_size=20), tokens=_TOKENS),
    "pairs": st.text(max_size=60) | _records(
        view=st.sampled_from(["chronological", "lexical"]),
        left_tokens=_SIDE, right_tokens=_SIDE,
        provenance=st.lists(st.text(max_size=4), max_size=2),
        seed_info=st.none() | st.lists(st.integers(1, 99), min_size=2, max_size=2)),
    "prices": st.text(max_size=60) | _price_files(),
    "rrs": st.text(max_size=60) | _rrs_matrices(),
}


_SIZE = st.integers(0, 4) | st.integers(0, 2**32 - 1)
_PARAMETER = st.floats(-1, 1) | st.floats()


@st.composite
def _model_files(draw):
    """A model file: its magic and version now and then wrong, its width and
    vocabulary size small or any u32, its tokens now and then not led by PAD and
    UNK or not UTF-8, its parameters now and then too few, too many or not finite."""
    tokens = [b"<pad>", b"<unk>"] if draw(st.integers(0, 3)) else []
    tokens += draw(st.lists(st.sampled_from([b"supply", b"risk", b"<pad>", b"\xff"])
                            | st.binary(max_size=4), max_size=4))
    d, size = draw(_SIZE), draw(st.just(len(tokens)) | _SIZE)
    header = struct.pack("<IIII", draw(st.sampled_from([1, 1, 1, 2])), d, size,
                         draw(st.integers(0, 300) | _SIZE))
    wanted = size * d + d * d + d
    count = wanted if wanted <= 64 and draw(st.integers(0, 3)) else draw(st.integers(0, 64))
    return (draw(st.sampled_from([b"RRENC001"] * 5 + [b"RREMB001"])) + header
            + b"".join(struct.pack("<I", len(t)) + t for t in tokens)
            + struct.pack(f"<{count}d", *draw(st.lists(_PARAMETER, min_size=count,
                                                      max_size=count))))


@st.composite
def _encoded(draw, text):
    """``text`` as UTF-8 with one kind of line end, now and then with a 0xff byte."""
    raw = draw(text).encode("utf-8").replace(b"\n", draw(st.sampled_from([b"\n", b"\r",
                                                                           b"\r\n"])))
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(raw)))
        raw = raw[:k] + b"\xff" + raw[k:]
    return raw


_INPUTS = {**{kind: _encoded(text) for kind, text in _TEXT.items()},
           "filing": _encoded(_FILINGS) | st.binary(max_size=120),
           "model": st.binary(max_size=80) | st.binary(max_size=80).map(b"RRENC001".__add__)
           | _model_files()}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A one-filing corpus and its paragraphs, a four-firm RRS matrix and price files."""
    root = tmp_path_factory.mktemp("fuzz-inputs")
    filing = root / "filings" / "AAA" / "2020.txt"
    filing.parent.mkdir(parents=True)
    filing.write_text("Item 1A. Risk Factors " + "supply risk " * 15 + "Item 2. Properties")
    corpus.write_paragraphs(corpus.ingest_directory(root / "filings"), root / "paragraphs.jsonl")
    (root / "rrs.csv").write_text("firm,AAA,BBB,CCC,DDD\nAAA,1,0.5,0.25,0.1\n"
                                  "BBB,0.5,1,0.1,0.2\nCCC,0.25,0.1,1,0.3\n"
                                  "DDD,0.1,0.2,0.3,1\n")
    (root / "prices").mkdir()
    for step, firm in enumerate(_FIRMS, start=3):
        (root / "prices" / f"{firm}.csv").write_text("date,close\n" + "".join(
            f"2023-{1 + d // 28:02d}-{1 + d % 28:02d},{10 + d * step % 7}\n" for d in range(40)))
    return root


def _argv(kind: str, inputs: Path, fuzzed: Path, work: Path) -> list[str]:
    if kind == "filing":
        filing = work / "filings" / "AAA" / "2020.txt"
        filing.parent.mkdir(parents=True)
        shutil.copy(fuzzed, filing)
        return ["ingest", "--root", str(work / "filings"), "--out", str(work / "p.jsonl"),
                "--min-tokens", "3"]
    if kind == "config":
        return ["ingest", "--root", str(inputs / "filings"), "--out", str(work / "p.jsonl"),
                "--config", str(fuzzed)]
    if kind == "gics":
        return ["evaluate", "--rrs", str(inputs / "rrs.csv"), "--prices", str(inputs / "prices"),
                "--gics", str(fuzzed), "--out", str(work / "eval")]
    if kind == "prices":
        prices = work / "prices"
        shutil.copytree(inputs / "prices", prices)
        shutil.copy(fuzzed, prices / "BBB.csv")
        return ["evaluate", "--rrs", str(inputs / "rrs.csv"), "--prices", str(prices),
                "--out", str(work / "eval")]
    if kind == "rrs":
        return ["evaluate", "--rrs", str(fuzzed), "--prices", str(inputs / "prices"),
                "--out", str(work / "eval")]
    if kind == "model":
        return ["embed", "--model", str(fuzzed), "--in", str(inputs / "paragraphs.jsonl"),
                "--out", str(work / "embeddings.bin")]
    if kind == "paragraphs":
        return ["pairs", "--in", str(fuzzed), "--seed", "7", "--train", "1", "--val", "1",
                "--out", str(work / "pairs")]
    pairs_dir = fuzzed.parent / "pairs"
    pairs_dir.mkdir()
    for split in ("train", "val"):
        shutil.copy(fuzzed, pair_file(pairs_dir, "lexical", split))
        pair_file(pairs_dir, "chronological", split).write_text("")
    return ["train", "--pairs", str(pairs_dir), "--seed", "0", "--max-epochs", "1",
            "--batch-size", "2", "--embed-dim", "4", "--out", str(work / "model.bin")]


@pytest.mark.parametrize("kind", sorted(_INPUTS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_reader_succeeds_or_reports_one_error_line(inputs, kind, data):
    raw = data.draw(_INPUTS[kind], label=kind)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        fuzzed = work / "input"
        fuzzed.write_bytes(raw)
        argv = _argv(kind, inputs, fuzzed, work)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a second stderr line
            code = cli.main(argv)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        if kind == "config" and err.getvalue().startswith("error: ValueError: "):
            assert str(fuzzed) in err.getvalue()
        if kind == "pairs":  # read_pairs rejects a side that trains on nothing
            assert not err.getvalue().startswith("error: EmptyParagraph: ")
