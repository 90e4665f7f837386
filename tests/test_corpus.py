"""Corpus module: markup stripping, section extraction, segmentation, tokenization."""

import csv
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrel import corpus
from riskrel.corpus import (
    extract_sections,
    segment_paragraphs,
    strip_markup,
    tokenize,
)
from riskrel.encoder import build_vocab, init_params, load_model, save_model
from riskrel.pairs import LEXICAL, PositivePair, read_pairs, write_pairs
from riskrel.scoring import read_rrs_csv, write_rrs_csv


# --- tokenize ---

def test_tokenize_splits_punctuation_and_keeps_digit_runs():
    assert tokenize("Net loss, 2023.") == ["net", "loss", ",", "2023", "."]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_hyphenated_term():
    assert tokenize("COVID-19") == ["covid", "-", "19"]


def test_tokenize_lowercases():
    assert tokenize("Supply CHAIN Risk") == ["supply", "chain", "risk"]


@pytest.mark.parametrize("text", [
    "Revenue fell 12.5% ($4,200) in Q3; see note 7(a).",
    "naïve café — résumé!",
    "a\tb\nc   d",
    "x<y & y>z",
    "",
    "ITEM 1A. Risk Factors: cyber-attacks, COVID-19, and more...",
])
def test_tokenize_idempotent_on_joined_output(text):
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


# tokenize as one regex over the whole text: the reference for its per-chunk form.
_TOKEN_ORACLE = re.compile(r"[^\W\d_]+|\d+|[^\w\s]|_")

# Separators that str.isspace accepts and ASCII does not, characters that
# are \w but neither letter nor \d (², ½), a non-ASCII \d (٣), "_", letters
# whose lowercase is not all letters (İ) and a zero-width space, which is
# no whitespace.
_TOKEN_CHARS = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000",
                "\u200b", "²", "½", "٣", "_", "İ", "ß", "a", "Z", "7", " ", "\t", "\n",
                ".", ",", "-", "\u0301"]


@pytest.mark.parametrize("text", [
    "abc123def", "x²y ½ ٣٤abc", "a_b __init__", "İstanbul Straße", "a\x1cb\x85c\xa0d",
    "zero\u200bwidth", "e\u0301 café", "COVID-19, 2023.",
])
def test_tokenize_is_the_regex_findall(text):
    assert tokenize(text) == _TOKEN_ORACLE.findall(text.lower())


@settings(max_examples=500, deadline=None)
@given(text=st.text(st.one_of(st.sampled_from(_TOKEN_CHARS), st.characters())))
def test_tokenize_is_the_regex_findall_on_any_text(text):
    assert tokenize(text) == _TOKEN_ORACLE.findall(text.lower())


@pytest.mark.parametrize("text", [
    "loss, loss. (loss) loss;", "q3 a5 a٣ a_", "a² a½ x², ½.",
    "ab́ İ. straße! İstanbul,", "a. .a 7. _a, ,",
])
def test_tokenize_splits_a_letter_run_and_its_last_character_as_the_regex_does(text):
    """A letter run and one last character outside every letter run ("loss,",
    "a5", "a_") are two tokens; "x²" is one, as "²" is a letter-run character."""
    assert tokenize(text) == _TOKEN_ORACLE.findall(text.lower())


# --- strip_markup ---

def test_strip_markup_removes_simple_tag():
    assert strip_markup("<p>Risk factors</p>") == "Risk factors"


def test_strip_markup_identity_on_plain_text():
    assert strip_markup("plain text") == "plain text"


def test_strip_markup_drops_table_contents():
    assert strip_markup("a<table><tr><td>1</td></tr></table>b") == "a b"


def test_strip_markup_drops_nested_tables():
    raw = "x<table><tr><td><table><tr><td>inner</td></tr></table></td></tr></table>y"
    assert strip_markup(raw) == "x y"


def test_strip_markup_decodes_entities():
    assert strip_markup("risk &amp; reward &mdash; both") == "risk & reward — both"


def test_strip_markup_no_tag_like_residue_after_entity_decoding():
    out = strip_markup("a &lt;b&gt; c &lt;table&gt;d&lt;/table&gt; e")
    assert re.search(r"<[A-Za-z]", out) is None


def test_strip_markup_handles_unterminated_tag():
    out = strip_markup("before <em unterminated")
    assert re.search(r"<[A-Za-z]", out) is None
    assert out.startswith("before")


def test_strip_markup_removes_xml_declaration_and_comments():
    raw = '<?xml version="1.0"?><!-- header --><p>body text</p>'
    assert strip_markup(raw) == "body text"


def test_strip_markup_preserves_paragraph_breaks():
    out = strip_markup("first block\n\n\nsecond   block\nsame paragraph")
    assert out == "first block\n\nsecond block same paragraph"


def test_strip_markup_block_tags_become_breaks():
    out = strip_markup("<p>one</p><p>two</p>")
    assert out == "one\n\ntwo"


@pytest.mark.parametrize("raw", [
    "<div>a</div><script>x<y</script>",
    "&amp;lt;tag&amp;gt;",
    "<table><tr><td>only table</td></tr></table>",
    "<p>text with 5 < 6 math</p>",
])
def test_strip_markup_invariant_no_open_angle_letter(raw):
    assert re.search(r"<[A-Za-z]", strip_markup(raw)) is None


def _oracle_paragraph_split(text):
    """The paragraph split of strip_markup before it walked lines."""
    paragraphs = [re.sub(r"\s+", " ", part).strip()
                  for part in re.split(r"\s*\n\s*\n\s*", text)]
    return "\n\n".join(p for p in paragraphs if p)


# Letters and whitespace only, so the markup steps leave the text as it is.
@settings(max_examples=400, deadline=None)
@given(text=st.text(st.sampled_from(
    ["a", "b", " ", "\n", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"])))
def test_strip_markup_splits_paragraphs_as_the_regex_split(text):
    assert strip_markup(text) == _oracle_paragraph_split(text)


# --- extract_sections ---

def test_extract_sections_basic_1a():
    text = "Item 1A. Risk Factors X Y Z Item 1B. Other"
    assert extract_sections(text) == {"1A": "Risk Factors X Y Z"}


def test_extract_sections_no_headings():
    assert extract_sections("no headings anywhere in this text") == {}


def test_extract_sections_case_insensitive_dash():
    text = "ITEM 7A — Market Risk body Item 8"
    assert extract_sections(text) == {"7A": "Market Risk body"}


def test_extract_sections_both_sections():
    text = ("Item 1. Business stuff Item 1A. Risk Factors risk body here "
            "Item 2. Properties Item 7A. Market Risk quant body Item 8. Financials")
    out = extract_sections(text)
    assert out["1A"] == "Risk Factors risk body here"
    assert out["7A"] == "Market Risk quant body"


def test_extract_sections_prefers_longest_duplicate():
    # Table-of-contents style repetition: the real section wins.
    text = "Item 1A. Item 2. Item 1A. Risk Factors full body of the section Item 2. rest"
    out = extract_sections(text)
    assert out["1A"] == "Risk Factors full body of the section"


def test_extract_sections_returns_only_requested_codes():
    text = ("Item 1A. Risk Factors alpha Item 1B. Unresolved staff comments beta "
            "Item 7A. Market gamma Item 8. done")
    assert extract_sections(text, ["1B"]) == {"1B": "Unresolved staff comments beta"}
    assert extract_sections(text, ()) == {}


def test_extract_sections_values_contain_no_item_headings():
    text = ("Item 1A. Risk Factors alpha beta Item 1B. unresolved Item 7A. "
            "Market gamma delta Item 8. done")
    for value in extract_sections(text).values():
        assert not re.search(r"\bitem\s+\d{1,2}[a-z]?\b", value, re.IGNORECASE)


# The heading pattern with "\b" in front: the reference for its literal-first form.
_HEADING_ORACLE = re.compile(r"\bitem\s+(\d{1,2})([a-z])?\b\s*[.:;\-–—]?\s*", re.IGNORECASE)


def _headings(pattern, text):
    return [(m.span(), m.groups()) for m in pattern.finditer(text)]


@pytest.mark.parametrize("text", [
    "Item 1A. at offset 0", "İtem 1A. Risk ıtem 7A — market", "xitem 1A _item 1A 9item 7A -item 8",
    "é item 1A.item 2 (item 7a) ITEM 12b:", "itemitem 1 iitem 2\nitem 3",
])
def test_item_heading_pattern_is_the_word_boundary_pattern(text):
    assert _headings(corpus._ITEM_HEADING_RE, text) == _headings(_HEADING_ORACLE, text)
    assert _headings(corpus._ITEM_HEADING_RE, text)


@settings(max_examples=500, deadline=None)
@given(text=st.lists(st.one_of(
    st.sampled_from(["item", "ITEM", "Item", "İtem", "ıtem", "iTem", "i", "tem", " ", "\n",
                     "\x85", "x", "_", "é", "1", "1A", "7a", "12", "123", ".", "—", "-"]),
    st.characters())).map("".join))
def test_item_heading_pattern_is_the_word_boundary_pattern_on_any_text(text):
    assert _headings(corpus._ITEM_HEADING_RE, text) == _headings(_HEADING_ORACLE, text)


# --- segment_paragraphs ---

def _words(n, prefix="tok"):
    return " ".join(f"{prefix}{chr(97 + i // 26)}{chr(97 + i % 26)}"
                    for i in range(n))


def test_segment_two_blocks():
    section = _words(25) + "\n\n" + _words(25, "other")
    paragraphs = segment_paragraphs(section, "ACME", 2023, "1A")
    assert [p.id for p in paragraphs] == ["ACME:2023:1A:0000", "ACME:2023:1A:0001"]


def test_segment_drops_short_fragment():
    assert segment_paragraphs(_words(5), "ACME", 2023, "1A") == []


def test_segment_tokens_match_tokenize():
    block = _words(40)
    (p,) = segment_paragraphs(block, "ACME", 2023, "1A")
    assert list(p.tokens) == tokenize(block)
    assert p.text == block


def test_segment_deterministic():
    section = _words(30) + "\n\n" + _words(30, "b")
    a = segment_paragraphs(section, "X", 2020, "7A")
    b = segment_paragraphs(section, "X", 2020, "7A")
    assert a == b


def test_segment_min_tokens_configurable():
    section = _words(10)
    assert len(segment_paragraphs(section, "X", 2020, "1A", min_tokens=10)) == 1
    assert len(segment_paragraphs(section, "X", 2020, "1A", min_tokens=11)) == 0


_TEXT_CHARS = st.one_of(st.sampled_from(_TOKEN_CHARS), st.characters())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_segment_gives_each_paragraph_its_interned_tokenize(data):
    """Sections drawn from a few shared pieces (upper-cased too) repeat their
    whitespace chunks. Each paragraph has tokenize(text) as its tokens, each
    token interned, and the kept blocks are the blocks with tokens."""
    pool = data.draw(st.lists(st.text(_TEXT_CHARS, max_size=8), min_size=1, max_size=6))
    piece = st.one_of(st.sampled_from(pool), st.sampled_from(pool).map(str.upper))
    sections = data.draw(st.lists(st.lists(piece, max_size=12).map("".join), max_size=6))
    for section in sections:
        paragraphs = segment_paragraphs(section, "X", 2020, "1A", min_tokens=1)
        blocks = [block.strip() for block in re.split(r"\n\s*\n", section)]
        assert [p.text for p in paragraphs] == [block for block in blocks if tokenize(block)]
        for p in paragraphs:
            assert p.tokens == tuple(tokenize(p.text))
            assert all(token is sys.intern(token) for token in p.tokens)


# --- fixture-level invariants ---

def test_fixture_paragraph_tokens_invariant(fixture_paragraphs):
    for p in fixture_paragraphs:
        assert list(p.tokens) == tokenize(p.text)


def test_fixture_paragraph_ids_unique(fixture_paragraphs):
    ids = [p.id for p in fixture_paragraphs]
    assert len(ids) == len(set(ids))


def test_fixture_only_risk_sections(fixture_paragraphs):
    assert {p.section for p in fixture_paragraphs} == {"1A", "7A"}


def test_ingest_directory_deterministic(fixture_manifest, fixture_paragraphs):
    again = corpus.ingest_directory(fixture_manifest.filings_dir)
    assert again == fixture_paragraphs


def test_ingest_filing_rejects_bad_year_and_empty_firm():
    with pytest.raises(ValueError, match="fiscal_year 1800"):
        corpus.ingest_filing("X", 1800, "t")
    with pytest.raises(ValueError, match="firm_id"):
        corpus.ingest_filing("", 2020, "t")
    for firm in (".", "..", "../../escaped", "A/B", "A\\B", "AC,ME", "AC:ME", "A__B",
                 "AC ME", "AC\tME", "AC\x00ME", "AC\x85ME", '"CRUX', 'AC"ME'):
        with pytest.raises(ValueError, match=f"^firm_id {re.escape(repr(firm))} must"):
            corpus.ingest_filing(firm, 2020, "t")


_FILING = ("<p>Item 1A. Risk Factors</p><p>" + " ".join(f"risk{i}" for i in range(25))
           + "</p><p>Item 1B. Unresolved Staff Comments</p><p>"
           + " ".join(f"staff{i}" for i in range(25)) + "</p><p>Item 2. Properties</p>")


def test_ingest_filing_segments_requested_sections_in_order():
    assert [p.section for p in corpus.ingest_filing("X", 2020, _FILING)] == ["1A"]
    assert [p.id for p in corpus.ingest_filing("X", 2020, _FILING, ["1B", "1A"])] == [
        "X:2020:1B:0000", "X:2020:1A:0000"]


def test_ingest_filing_repeated_section_yields_each_paragraph_once():
    paragraphs = corpus.ingest_filing("X", 2020, _FILING, ["1A", "1A"])
    assert [p.id for p in paragraphs] == ["X:2020:1A:0000"]


def test_ingest_filing_reads_section_labels_in_any_case():
    """Heading codes match in any case, and so do the requested labels: "1a"
    asks for Item 1A, and "1a" with "1A" asks for it once."""
    for sections in (["1a"], ["1a", "1A"]):
        paragraphs = corpus.ingest_filing("X", 2020, _FILING, sections)
        assert [(p.id, p.section) for p in paragraphs] == [("X:2020:1A:0000", "1A")]


def test_paragraph_roundtrip_jsonl(tmp_path, fixture_paragraphs):
    path = tmp_path / "paragraphs.jsonl"
    n = corpus.write_paragraphs(fixture_paragraphs, path)
    assert n == len(fixture_paragraphs)
    assert corpus.read_paragraphs(path) == list(fixture_paragraphs)


# Strings json.dumps escapes (quotes, backslashes, control characters), one
# it leaves raw (U+2028), non-ASCII and astral characters. A lone surrogate
# has no UTF-8 form, so no paragraph file can hold one.
_JSON_TEXT = st.text(st.one_of(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\r",
                                                "\t", "\u2028", "é", "\U0001f600"]),
                               st.characters(exclude_categories=("Cs",))), max_size=10)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_write_paragraphs_writes_the_json_dumps_lines(data):
    pool = [""] + data.draw(st.lists(_JSON_TEXT, min_size=1, max_size=5))
    paragraphs = data.draw(st.lists(st.builds(
        corpus.Paragraph, id=_JSON_TEXT, firm_id=_JSON_TEXT, year=st.integers(),
        section=_JSON_TEXT, text=_JSON_TEXT,
        tokens=st.lists(st.sampled_from(pool), max_size=8).map(tuple)), max_size=5))
    expected = "".join(json.dumps({"id": p.id, "firm": p.firm_id, "year": p.year,
                                   "section": p.section, "text": p.text,
                                   "tokens": list(p.tokens)}, ensure_ascii=False) + "\n"
                       for p in paragraphs)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "paragraphs.jsonl"
        assert corpus.write_paragraphs(paragraphs, path) == len(paragraphs)
        assert path.read_bytes() == expected.encode("utf-8")


def test_equal_tokens_are_one_object(tmp_path, fixture_paragraphs):
    """ingest_directory, read_paragraphs and read_pairs intern tokens: equal
    tokens of different records are one str."""
    paragraphs_path, pairs_path = tmp_path / "paragraphs.jsonl", tmp_path / "pairs.jsonl"
    corpus.write_paragraphs(fixture_paragraphs, paragraphs_path)
    read = corpus.read_paragraphs(paragraphs_path)
    write_pairs([PositivePair(LEXICAL, a.tokens, b.tokens, (a.id, b.id))
                 for a, b in zip(read, read[1:])], pairs_path)
    pairs = read_pairs(pairs_path)
    for rows in ([p.tokens for p in fixture_paragraphs], [p.tokens for p in read],
                 [t for pair in pairs for t in (pair.left_tokens, pair.right_tokens)]):
        # CPython shares strings of one character anyway.
        tokens = [token for row in rows for token in row if len(token) > 1]
        assert len(tokens) > 10 * len(set(tokens))
        assert len({id(token) for token in tokens}) == len(set(tokens))


def test_paragraph_tokens_are_the_vocabulary_keys(tmp_path, fixture_paragraphs):
    """load_model interns its vocabulary, so a token read from a paragraph
    file is the very key object of token_to_index."""
    vocab = build_vocab([tokenize(p.text) for p in fixture_paragraphs])
    save_model(tmp_path / "model.bin", vocab, init_params(len(vocab), d=4))
    corpus.write_paragraphs(fixture_paragraphs, tmp_path / "paragraphs.jsonl")
    read = corpus.read_paragraphs(tmp_path / "paragraphs.jsonl")
    keys = {token: token for token in load_model(tmp_path / "model.bin")[0].token_to_index}
    shared = [token for p in read for token in p.tokens if token in keys]
    assert len(shared) > len(keys)
    assert all(keys[token] is token for token in shared)


def _decoded(decode, line):
    """What ``decode(line)`` returns (by repr, so NaN equals NaN and 1 is not
    1.0) or raises."""
    try:
        return "value", repr(decode(line))
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("line", [
    '{"a": [1, 2.5, null, true]}\n', '{"a": 1}', '{"a": 1}\r', '{"a": 1}\r\n',
    '"x"\n', "NaN\n", "-0\n", " {\"a\": 1}\n", '\ufeff{"a": 1}\n', '{"a": 1} \n',
    '{"a": 1}\t\r\n', '{"a": 1}\n\n', '{"a": 1} {"b": 2}\n', '{"a": 1}x\n', "{not json\n",
    '{"a": 1\n', "", "\n", "[" * 500 + "]" * 500, "[" * 100_000 + "]" * 100_000 + "\n",
    '{"a": ' * 100_000,
], ids=["lf", "no-end", "cr", "crlf", "string", "nan", "minus-zero", "leading-space", "bom",
        "trailing-space", "tab-crlf", "two-lf", "extra-data", "extra-char", "not-json",
        "unclosed", "empty", "blank", "nested-500", "nested-100000", "open-objects-100000"])
def test_json_line_returns_or_raises_as_json_loads(line):
    assert _decoded(corpus._json_line, line) == _decoded(json.loads, line)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=500, deadline=None)
@given(value=_JSON, indent=st.sampled_from([None, 0, 2]),
       head=st.sampled_from(["", " ", "\t", "\ufeff", "\n", "x"]),
       tail=st.sampled_from(["", "\n", "\r", "\r\n", " ", " \n", "\n\r", "\x0b", "\xa0\n", ",", "}", "1"]))
def test_json_line_returns_or_raises_as_json_loads_on_any_line(value, indent, head, tail):
    line = head + json.dumps(value, indent=indent) + tail
    assert _decoded(corpus._json_line, line) == _decoded(json.loads, line)


@settings(max_examples=300, deadline=None)
@given(line=st.text())
def test_json_line_returns_or_raises_as_json_loads_on_any_text(line):
    assert _decoded(corpus._json_line, line) == _decoded(json.loads, line)


def test_read_paragraphs_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(corpus.EmptyCorpus):
        corpus.read_paragraphs(path)


def test_read_paragraphs_undecodable_line_names_file_and_line(tmp_path, fixture_paragraphs):
    path = tmp_path / "paragraphs.jsonl"
    corpus.write_paragraphs(fixture_paragraphs[:2], path)
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe{}\n")
    with pytest.raises(ValueError, match=re.escape(f"malformed record in {path} line 3: "
                                                   "'utf-8' codec can't decode byte 0xff")):
        corpus.read_paragraphs(path)


def test_ingest_rejects_non_year_filenames(tmp_path):
    (tmp_path / "ACME").mkdir()
    (tmp_path / "ACME" / "notes.txt").write_text("not a filing")
    with pytest.raises(ValueError, match="notes.txt"):
        corpus.ingest_directory(tmp_path)


@pytest.mark.parametrize("hidden, content", [
    (".ipynb_checkpoints/2020.txt", _FILING.encode()),
    ("ACME/._2021.txt", b"\x00\x05\x16\x07\x00\x02\x00\x00Mac OS X\xff"),
], ids=["firm", "filing"])
def test_ingest_skips_hidden_entries(tmp_path, hidden, content):
    """A notebook's checkpoint copy is no firm, and macOS metadata no filing."""
    (tmp_path / "ACME").mkdir()
    (tmp_path / "ACME" / "2020.txt").write_text(_FILING)
    path = tmp_path / hidden
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(content)
    assert [p.id for p in corpus.ingest_directory(tmp_path)] == ["ACME:2020:1A:0000"]


# --- CSV: one writer, one cell rule ---

def _accepted_firm_id(firm):
    try:
        return corpus.check_firm_id(firm) == firm
    except ValueError:
        return False


_FIRM_IDS = st.text(min_size=1, max_size=8).filter(_accepted_firm_id)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_CELLS = st.one_of(_FIRM_IDS, st.integers(), _FINITE, _FINITE.map(np.float64), st.none())


def _rule(value):
    """The cell the CSV rule gives: floats at six decimals, None empty, else str."""
    if isinstance(value, float):
        return f"{value:.6f}"
    return "" if value is None else str(value)


@settings(max_examples=300, deadline=None)
@given(width=st.integers(2, 5), data=st.data())
def test_csv_reader_splits_each_written_line_into_the_rule_cells(width, data):
    """A row of two or more cells (every CSV artifact has two or more columns)
    never needs quoting: a CSV reader gets back exactly the rule's cells."""
    header = data.draw(st.lists(_FIRM_IDS, min_size=width, max_size=width))
    rows = data.draw(st.lists(st.lists(_CELLS, min_size=width, max_size=width), max_size=5))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        corpus.write_csv(path, header, rows)
        with open(path, encoding="utf-8", newline="") as fh:
            read = list(csv.reader(fh))
        assert read == [header, *([_rule(v) for v in row] for row in rows)]
        assert corpus.read_csv_body(path) == read[1:]


@settings(max_examples=200, deadline=None)
@given(firms=st.lists(_FIRM_IDS, min_size=1, max_size=5, unique=True), data=st.data())
def test_rrs_csv_reads_back_sorted_at_six_decimals(firms, data):
    n = len(firms)
    upper = data.draw(st.lists(_FINITE, min_size=n * n, max_size=n * n))
    matrix = np.array(upper).reshape(n, n)
    matrix = np.triu(matrix) + np.triu(matrix, 1).T  # symmetric
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rrs.csv"
        write_rrs_csv(firms, matrix, path)
        read_firms, read_matrix = read_rrs_csv(path)
    order = sorted(range(n), key=firms.__getitem__)
    assert read_firms == sorted(firms)
    expected = [[float(f"{matrix[i, j]:.6f}") for j in order] for i in order]
    assert read_matrix.tolist() == expected
