"""Pair generation: date detection, chronological and lexical views, splits."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrel import pairs as pairgen
from riskrel.corpus import Paragraph, tokenize
from riskrel.errors import InsufficientPairs
from riskrel.pairs import (
    build_chronological_pairs,
    build_lexical_pairs,
    scan_tokens,
    split_train_val,
)


def make_paragraph(text, firm="ACME", year=2023, section="1A", ordinal=0):
    return Paragraph(
        id=Paragraph.make_id(firm, year, section, ordinal),
        firm_id=firm, year=year, section=section, text=text,
        tokens=tuple(tokenize(text)),
    )


# --- date detection ---

def test_detects_month_day_year():
    p = make_paragraph("On July 8, 2024, we signed the agreement")
    (m,) = scan_tokens(p.tokens)
    assert m.normalized == "2024-07-08"
    assert m.is_accounting is False
    # span covers exactly "july 8 , 2024"
    assert p.tokens[m.token_span[0]:m.token_span[1]] == ("july", "8", ",", "2024")


def test_bare_year_is_not_a_date():
    p = make_paragraph("growth in 2024 continued")
    assert scan_tokens(p.tokens) == []


def test_accounting_quarter_end_flagged():
    p = make_paragraph("the period ended December 31, 2023 as reported")
    (m,) = scan_tokens(p.tokens)
    assert m.normalized == "2023-12-31"
    assert m.is_accounting is True


@pytest.mark.parametrize("text,expected,accounting", [
    ("during March 2024 trading", "2024-03-01", False),
    ("filed on 06/30/2021 with the agency", "2021-06-30", True),
    ("effective 2024-07-08 per the order", "2024-07-08", False),
    ("as of September 30, 2022 the balance", "2022-09-30", True),
    ("On July \u0668, \u0662\u0660\u0662\u0664 it closed", "2024-07-08", False),
])
def test_date_formats(text, expected, accounting):
    (m,) = scan_tokens(make_paragraph(text).tokens)
    assert m.normalized == expected
    assert m.is_accounting is accounting


def test_invalid_calendar_date_ignored():
    assert scan_tokens(make_paragraph("on February 30, 2024 nothing").tokens) == []


@pytest.mark.parametrize("text", [
    "filed 13/05/2024 with the agency",   # month 13
    "filed 06/31/2021 with the agency",   # June has 30 days
    "effective 2024-02-30 per the order",
    "maybe 00/10/2024 happened",
    # str.isdigit holds for a superscript digit, which int() rejects.
    "On July \u00b2, 2024 the plant closed",
    "effective 2024-\u00b2-01 per the order",
    "filed \u00b2/3/2024 with the agency",
])
def test_invalid_calendar_components_ignored(text):
    assert scan_tokens(make_paragraph(text).tokens) == []


def test_multiple_mentions_scanned_left_to_right():
    p = make_paragraph("On July 8, 2024 and again on October 5, 2024 events occurred")
    mentions = scan_tokens(p.tokens)
    assert [m.normalized for m in mentions] == ["2024-07-08", "2024-10-05"]


def test_separator_at_token_zero_starts_no_mention():
    # Trying start -1 would read tokens[-1] == "2020" as a year.
    assert scan_tokens(["-", "12", "-", "05", "-", "2020"]) == []


def test_impossible_day_after_month_name_gives_no_mention():
    assert scan_tokens(["february", "30", ",", "2024"]) == []


def test_strip_rescans_tokens_juxtaposed_by_a_deletion():
    tokens = ("in", "december", "july", "8", ",", "2024", "2030", "units")
    (mention,) = scan_tokens(tokens)
    assert mention.token_span == (2, 6)
    assert pairgen._strip_date_tokens(tokens, [mention]) == ("in", "units")


def _oracle_scan(tokens):
    """The scanner before start positions: every token is tried in turn."""
    mentions = []
    n = len(tokens)
    i = 0
    while i < n:
        tok = tokens[i]
        hit = None
        if tok in pairgen._MONTHS:
            month = pairgen._MONTHS[tok]
            if (i + 3 < n and tokens[i + 1].isdecimal() and len(tokens[i + 1]) <= 2
                    and tokens[i + 2] == "," and pairgen._is_year(tokens[i + 3])):
                iso = pairgen._valid_date(int(tokens[i + 3]), month, int(tokens[i + 1]))
                if iso:
                    hit = (i + 4, iso)
            if hit is None and i + 1 < n and pairgen._is_year(tokens[i + 1]):
                iso = pairgen._valid_date(int(tokens[i + 1]), month, 1)
                if iso:
                    hit = (i + 2, iso)
        elif (tok.isdecimal() and len(tok) <= 2 and i + 4 < n
                and tokens[i + 1] == "/" and tokens[i + 2].isdecimal()
                and len(tokens[i + 2]) <= 2 and tokens[i + 3] == "/"
                and pairgen._is_year(tokens[i + 4])):
            iso = pairgen._valid_date(int(tokens[i + 4]), int(tok), int(tokens[i + 2]))
            if iso:
                hit = (i + 5, iso)
        elif (pairgen._is_year(tok) and i + 4 < n
                and tokens[i + 1] == "-" and tokens[i + 2].isdecimal()
                and len(tokens[i + 2]) <= 2 and tokens[i + 3] == "-"
                and tokens[i + 4].isdecimal() and len(tokens[i + 4]) <= 2):
            iso = pairgen._valid_date(int(tok), int(tokens[i + 2]), int(tokens[i + 4]))
            if iso:
                hit = (i + 5, iso)
        if hit is None:
            i += 1
            continue
        end, iso = hit
        mentions.append(pairgen.DateMention(
            token_span=(i, end), normalized=iso,
            is_accounting=(int(iso[5:7]), int(iso[8:10])) in pairgen.ACCOUNTING_DATES))
        i = end
    return mentions


def _oracle_strip(tokens):
    """Date deletion before mentions were passed in: scan, filter, repeat."""
    current = tuple(tokens)
    while True:
        mentions = _oracle_scan(current)
        if not mentions:
            return current
        drop = set()
        for m in mentions:
            drop.update(range(*m.token_span))
        current = tuple(t for k, t in enumerate(current) if k not in drop)


_MONTH = st.sampled_from(["january", "february", "may", "june", "september", "december"])
_DAY = st.one_of(st.integers(0, 99).map(str), st.integers(0, 99).map("{:02d}".format))
_YEAR = st.integers(0, 9999).map("{:04d}".format)
_TOKEN = st.one_of(_MONTH, _DAY, _YEAR,
                   st.sampled_from(["/", "-", ",", "the", "risk", "\u00b2", "\u00b2\u00b3"]))
# Whole date shapes, valid or not, so that hits and near misses are common.
_CHUNK = st.one_of(
    _TOKEN.map(lambda t: (t,)),
    st.tuples(_MONTH, _DAY, st.just(","), _YEAR),
    st.tuples(_MONTH, _YEAR),
    st.tuples(_DAY, st.just("/"), _DAY, st.just("/"), _YEAR),
    st.tuples(_YEAR, st.just("-"), _DAY, st.just("-"), _DAY),
)
_TOKEN_STREAMS = st.lists(_CHUNK, max_size=10).map(
    lambda chunks: tuple(t for chunk in chunks for t in chunk))


@settings(max_examples=400, deadline=None)
@given(tokens=_TOKEN_STREAMS)
def test_scan_and_strip_match_the_every_position_scanner(tokens):
    mentions = scan_tokens(tokens)
    assert mentions == _oracle_scan(tokens)
    assert pairgen._strip_date_tokens(tokens, mentions) == _oracle_strip(tokens)


# --- chronological view ---

def _filler(n, tag="w"):
    return " ".join(f"{tag}{chr(97 + i // 26)}{chr(97 + i % 26)}"
                    for i in range(n))


def test_chronological_pair_shares_date_and_strips_it():
    a = make_paragraph(f"On July 8, 2024 supply halted. {_filler(30, 'a')}", ordinal=0)
    b = make_paragraph(f"Shipping stopped on July 8, 2024 entirely. {_filler(30, 'b')}",
                       ordinal=1)
    (pair,) = build_chronological_pairs([a, b])
    assert pair.view == pairgen.CHRONOLOGICAL
    assert pair.provenance == (a.id, b.id)
    for side in (pair.left_tokens, pair.right_tokens):
        assert "july" not in side
        assert "2024" not in side
        assert scan_tokens(side) == []


def test_accounting_only_overlap_yields_no_pair():
    a = make_paragraph(f"ended December 31, 2023 quarter. {_filler(30, 'a')}", ordinal=0)
    b = make_paragraph(f"as of December 31, 2023 totals. {_filler(30, 'b')}", ordinal=1)
    assert build_chronological_pairs([a, b]) == []


def test_cross_firm_dates_never_pair():
    a = make_paragraph(f"On July 8, 2024 outage. {_filler(30, 'a')}", firm="ACME")
    b = make_paragraph(f"On July 8, 2024 outage. {_filler(30, 'b')}", firm="BOLT")
    assert build_chronological_pairs([a, b]) == []


def test_chronological_pairs_come_firm_by_firm_in_sorted_order():
    def para(firm, day, ordinal):
        return make_paragraph(f"On July {day}, 2024 {firm} outage. {_filler(30, firm)}",
                              firm=firm, ordinal=ordinal)

    zulu = [para("ZULU", 8, k) for k in range(2)]
    acme = [para("ACME", day, k) for k, day in enumerate((9, 8, 9, 8))]
    pairs = build_chronological_pairs([zulu[0], acme[0], acme[1], zulu[1], acme[2], acme[3]])
    # ACME before ZULU; within ACME, July 8 before July 9, each in paragraph order.
    assert [pair.provenance for pair in pairs] == [
        (acme[1].id, acme[3].id), (acme[0].id, acme[2].id), (zulu[0].id, zulu[1].id)]


def test_pair_dropped_when_too_short_after_removal():
    a = make_paragraph(f"On July 8, 2024 fail. {_filler(10, 'a')}", ordinal=0)
    b = make_paragraph(f"On July 8, 2024 fail. {_filler(30, 'b')}", ordinal=1)
    assert build_chronological_pairs([a, b], min_tokens=20) == []


def test_one_pair_per_unordered_pair_even_with_two_shared_dates():
    text_a = f"On July 8, 2024 and October 5, 2024 events. {_filler(30, 'a')}"
    text_b = f"Both July 8, 2024 and October 5, 2024 hit us. {_filler(30, 'b')}"
    a = make_paragraph(text_a, ordinal=0)
    b = make_paragraph(text_b, ordinal=1)
    result = build_chronological_pairs([a, b])
    assert len(result) == 1


def test_date_removal_reaches_fixpoint_on_juxtaposed_tokens():
    # Removing "july 8 , 2024" juxtaposes "december" with "2030": the scan
    # must run again so no date survives in the emitted pair.
    text = f"in december July 8, 2024 2030 units failed. {_filler(30, 'a')}"
    other = f"seen July 8, 2024 at the plant. {_filler(30, 'b')}"
    a = make_paragraph(text, ordinal=0)
    b = make_paragraph(other, ordinal=1)
    (pair,) = build_chronological_pairs([a, b])
    assert scan_tokens(pair.left_tokens) == []
    assert scan_tokens(pair.right_tokens) == []


# --- lexical view ---

@pytest.fixture()
def long_paragraphs():
    return [make_paragraph(_filler(80 + 7 * k, f"p{k}"), ordinal=k)
            for k in range(12)]


def test_lexical_pair_structure(long_paragraphs):
    result = build_lexical_pairs(long_paragraphs, rng_seed=5, min_span=8)
    assert len(result) == len(long_paragraphs)
    by_id = {p.id: p for p in long_paragraphs}
    for pair in result:
        source = by_id[pair.provenance[0]].tokens
        i, j = pair.seed_info
        n = len(source)
        assert 8 <= i < j <= n - 1
        assert pair.left_tokens == source[:j]
        assert pair.right_tokens == source[i - 1:]
        # spans overlap on [w_i .. w_j] and both meet the span floor
        assert len(pair.left_tokens) >= 8
        assert len(pair.right_tokens) >= 8
        assert len(pair.left_tokens) + len(pair.right_tokens) > n


def test_lexical_skips_short_paragraphs_and_counts():
    short = make_paragraph(_filler(10), ordinal=0)
    stats = {}
    assert build_lexical_pairs([short], rng_seed=1, min_span=32, stats=stats) == []
    assert stats["skipped_short"] == 1


def test_lexical_deterministic_given_seed(tmp_path, long_paragraphs):
    first = build_lexical_pairs(long_paragraphs, rng_seed=42, min_span=8)
    second = build_lexical_pairs(long_paragraphs, rng_seed=42, min_span=8)
    assert first == second
    f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    pairgen.write_pairs(first, f1)
    pairgen.write_pairs(second, f2)
    assert f1.read_bytes() == f2.read_bytes()


def test_lexical_different_seed_differs(long_paragraphs):
    a = build_lexical_pairs(long_paragraphs, rng_seed=1, min_span=8)
    b = build_lexical_pairs(long_paragraphs, rng_seed=2, min_span=8)
    assert a != b


def test_lexical_overlap_cap_bounds_j(long_paragraphs):
    result = build_lexical_pairs(long_paragraphs, rng_seed=3, min_span=8,
                                 overlap_cap=4)
    for pair in result:
        i, j = pair.seed_info
        assert j <= i + 4


def test_lexical_rejects_min_span_below_two(long_paragraphs):
    with pytest.raises(ValueError):
        build_lexical_pairs(long_paragraphs, rng_seed=0, min_span=1)


# --- split ---

def _distinct_pairs(n, view=pairgen.LEXICAL):
    out = []
    for k in range(n):
        out.append(pairgen.PositivePair(
            view=view, left_tokens=(f"l{k}", "x"), right_tokens=(f"r{k}", "y"),
            provenance=(f"P:{view}:{k}",)))
    return out


def _lexical(n):
    """``n`` distinct lexical pairs, grouped by view as split_train_val takes them."""
    return {pairgen.LEXICAL: _distinct_pairs(n)}


def test_split_disjoint_counts():
    train, val = split_train_val(_lexical(100), 80, 20, rng_seed=0)
    assert len(train) == 80 and len(val) == 20
    assert set(map(id, train)).isdisjoint(map(id, val))
    train_ids = {pid for p in train for pid in p.provenance}
    val_ids = {pid for p in val for pid in p.provenance}
    assert train_ids.isdisjoint(val_ids)


def test_split_insufficient():
    with pytest.raises(InsufficientPairs):
        split_train_val(_lexical(50), 80, 20, rng_seed=0)


@pytest.mark.parametrize("counts, name", [((-5, 20), "train_count"), ((80, -3), "val_count")],
                         ids=["train", "val"])
def test_split_rejects_a_negative_count(counts, name):
    """A negative val count never equals the validation pairs taken, so it took them all."""
    with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
        split_train_val(_lexical(100), *counts, rng_seed=0)


def test_split_accepts_production_scale_counts():
    train, val = split_train_val(_lexical(9600), 8500, 1000, rng_seed=1)
    assert len(train) == 8500 and len(val) == 1000


def test_split_is_per_view():
    both = {view: _distinct_pairs(30, view) for view in pairgen.VIEWS}
    train, val = split_train_val(both, 20, 5, rng_seed=2)
    for view in pairgen.VIEWS:
        assert sum(p.view == view for p in train) == 20
        assert sum(p.view == view for p in val) == 5


def test_split_respects_provenance_overlap():
    # Three pairs all touching paragraph P0: at most one split may hold them.
    shared = [pairgen.PositivePair(pairgen.CHRONOLOGICAL, ("a", "b"), ("c", "d"),
                                   ("P0", f"Q{k}")) for k in range(3)]
    fillers = _distinct_pairs(20, pairgen.CHRONOLOGICAL)
    train, val = split_train_val({pairgen.CHRONOLOGICAL: shared + fillers}, 10, 5, rng_seed=3)
    train_ids = {pid for p in train for pid in p.provenance}
    val_ids = {pid for p in val for pid in p.provenance}
    assert train_ids.isdisjoint(val_ids)


def test_split_deterministic():
    by_view = _lexical(60)
    a = split_train_val(by_view, 40, 10, rng_seed=9)
    b = split_train_val(by_view, 40, 10, rng_seed=9)
    assert a == b


def test_split_checks_every_view_it_is_given_in_any_order():
    """A requested view whose builder made no pair is too few pairs, and the
    views split in one order however the mapping lists them."""
    lexical = _distinct_pairs(30)
    with pytest.raises(InsufficientPairs,
                       match="^view chronological: 0 pairs available, 20\\+5 requested$"):
        split_train_val({pairgen.LEXICAL: lexical, pairgen.CHRONOLOGICAL: []}, 20, 5,
                        rng_seed=4)
    chronological = _distinct_pairs(30, pairgen.CHRONOLOGICAL)
    forward = split_train_val({pairgen.CHRONOLOGICAL: chronological, pairgen.LEXICAL: lexical},
                              20, 5, rng_seed=4)
    backward = split_train_val({pairgen.LEXICAL: lexical, pairgen.CHRONOLOGICAL: chronological},
                               20, 5, rng_seed=4)
    assert forward == backward


# --- round trip ---

def test_pairs_jsonl_roundtrip(tmp_path, long_paragraphs):
    generated = build_lexical_pairs(long_paragraphs, rng_seed=4, min_span=8)
    path = tmp_path / "pairs.jsonl"
    pairgen.write_pairs(generated, path)
    assert pairgen.read_pairs(path) == generated


def test_read_pairs_undecodable_line_names_file_and_line(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_bytes(b"\xff\xfe\n")
    with pytest.raises(ValueError, match=f"malformed record in {path} line 1: "
                                         "'utf-8' codec can't decode byte 0xff"):
        pairgen.read_pairs(path)


_PAIR = {"view": "lexical", "left_tokens": ["a", "b"], "right_tokens": ["b", "c"],
         "provenance": ["ACME:2023:1A:0000"]}


@pytest.mark.parametrize("field, value, detail", [
    ("view", "nonsense", "view must be one of chronological, lexical"),
    ("left_tokens", [], "left_tokens and right_tokens must not be empty"),
    ("right_tokens", [], "left_tokens and right_tokens must not be empty"),
    ("seed_info", "ab", "seed_info must be null or a list of two ints"),
    ("seed_info", [1.5, None], "seed_info must be null or a list of two ints"),
    ("seed_info", [1, 2, 3], "seed_info must be null or a list of two ints"),
    ("seed_info", [True, 2], "seed_info must be null or a list of two ints"),
], ids=["view", "empty_left", "empty_right", "seed_info_str",
        "seed_info_floats", "seed_info_three", "seed_info_bool"])
def test_read_pairs_rejects_a_field_write_pairs_never_writes(tmp_path, field, value, detail):
    path = tmp_path / "pairs.jsonl"
    path.write_text(json.dumps(_PAIR) + "\n" + json.dumps({**_PAIR, field: value}) + "\n")
    with pytest.raises(ValueError) as info:
        pairgen.read_pairs(path)
    assert str(info.value) == f"malformed record in {path} line 2: {detail}"
