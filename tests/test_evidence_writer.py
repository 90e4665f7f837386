"""Evidence files: the writer and its number formatter against json.dumps,
and what an error leaves."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrel.scoring import (
    _VECTOR_MIN,
    MrpResult,
    _json_number,
    _json_numbers,
    _shortest_reprs,
    mrp_result_to_dict,
    write_evidence_files,
)

# Characters json escapes, or that a careless writer might: quotes,
# backslashes, control characters, the JS line separators, non-BMP.
SPECIAL = ['"', "\\", "\x00", "\x08", "\t", "\n", "\r", "\x1f", "\x7f",
           "\u2028", "\u2029", "\U0001F600", "\U00010000", "\u00e9", "/"]
texts = st.lists(st.one_of(st.sampled_from(SPECIAL),
                           st.characters(exclude_categories=("Cs",))),
                 max_size=12).map("".join)
# Firm names also name the file, so no path separator or NUL.
firm_names = texts.map(lambda s: s.replace("/", "|").replace("\x00", "0"))
special_floats = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 5e-324, 2.2e-308,
                                  float("nan"), float("inf"), -float("inf")])
# A result holds its similarities as float64, whatever float type they came
# as: a document may mix them, or hold finite floats only.
similarities = st.one_of(st.floats(-1, 1), special_floats,
                         st.one_of(st.floats(-1, 1), special_floats).map(np.float64))
thresholds = st.one_of(st.sampled_from([0, 1]), st.floats(0, 1),
                       st.floats(0, 1).map(np.float64))


def oracle(result, paragraph_texts):
    doc = mrp_result_to_dict(result, paragraph_texts)
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


@st.composite
def results(draw):
    firm_a, firm_b = draw(firm_names), draw(firm_names)
    ids_a = draw(st.lists(texts, unique=True, min_size=1, max_size=6))
    ids_b = draw(st.lists(texts, unique=True, min_size=1, max_size=6))
    entries = draw(st.lists(st.tuples(st.integers(0, len(ids_a) - 1),
                                      st.integers(0, len(ids_b) - 1), similarities),
                            max_size=8))
    rows, cols, sims = zip(*entries) if entries else ((), (), ())
    result = MrpResult(firm_a, firm_b, draw(thresholds), ids_a, ids_b, rows, cols, sims)
    return result, {pid: draw(texts) for pid in ids_a + ids_b}


@settings(max_examples=300, deadline=None)
@given(case=results())
def test_writer_matches_json_dumps_byte_for_byte(case):
    result, paragraph_texts = case
    with tempfile.TemporaryDirectory() as tmp:
        [path] = write_evidence_files([result], tmp, paragraph_texts)
        assert path.read_bytes() == oracle(result, paragraph_texts)
        assert [p.name for p in Path(tmp).iterdir()] == [path.name]


@st.composite
def long_results(draw):
    """A result whose evidence holds more than ``_VECTOR_MIN`` entries: seeded
    rows, columns and similarities in [0.1, 1), with drawn ones put in."""
    result, paragraph_texts = draw(results())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    count = draw(st.integers(_VECTOR_MIN + 1, 2 * _VECTOR_MIN))
    sims = rng.uniform(0.1, 1.0, count)
    for position, value in draw(st.lists(st.tuples(st.integers(0, count - 1), similarities),
                                         max_size=12)):
        sims[position] = value
    long = MrpResult(result.firm_a, result.firm_b, result.threshold, result.ids_a,
                     result.ids_b, rng.integers(0, result.n_a, count),
                     rng.integers(0, result.n_b, count), sims)
    return long, paragraph_texts


@settings(max_examples=40, deadline=None)
@given(case=long_results())
def test_long_document_matches_json_dumps_byte_for_byte(case):
    result, paragraph_texts = case
    with tempfile.TemporaryDirectory() as tmp:
        [path] = write_evidence_files([result], tmp, paragraph_texts)
        assert path.read_bytes() == oracle(result, paragraph_texts)


def reprs(values):
    return [_json_number(value).encode("ascii") for value in values.tolist()]


def test_formatter_equals_repr_on_a_million_values_and_their_neighbours():
    drawn = np.random.default_rng(36).uniform(0.1, 1.0, 10 ** 6)
    by_kernel = 0
    for values in (drawn, np.nextafter(drawn, 0.0), np.nextafter(drawn, 1.0)):
        for document in np.split(values, 200):
            # Every value here is finite, so float.__repr__ is _json_number.
            expected = ",".join(map(float.__repr__, document.tolist())).encode().split(b",")
            assert _json_numbers(document) == expected
            by_kernel += int(_shortest_reprs(document)[1].sum())
    assert by_kernel >= 10 ** 6


# Values at the edges of the kernel's domain and of its arithmetic.
DIGITS_14_TO_17 = [0.12345678901234, 0.987654321098765, 0.7071067811865476,
                   0.30000000000000004, 0.12345678901234566]
# Halfway between two 17- or 16-digit decimals, where repr's tie rule decides.
TIES = [(2 ** 15 + 1) / 2 ** 18, (2 ** 15 + 3) / 2 ** 18, 26215 / 2 ** 18,
        (2 ** 16 + 1) / 2 ** 17, (2 ** 17 - 1) / 2 ** 17]
BOUNDARY = [0.1, np.nextafter(0.1, 0.0), np.nextafter(0.1, 1.0), 0.125, 0.25, 0.5, 0.75,
            0.8, 1.0, np.nextafter(1.0, 0.0), *DIGITS_14_TO_17, *TIES,
            float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, 2.2250738585072014e-308,
            1e-310, -0.5, -0.30000000000000004, 1.5, 12345.678, 1e300, 0.099999, 0.0625]


def test_boundary_values_have_the_lengths_they_stand_for():
    assert sorted(len(repr(value)) - 2 for value in DIGITS_14_TO_17) == [14, 15, 16, 17, 17]
    assert all(len(repr(value)) in (18, 19) for value in TIES[:4])


@pytest.mark.parametrize("size", [len(BOUNDARY), _VECTOR_MIN - 1, _VECTOR_MIN,
                                  3 * _VECTOR_MIN + 7])
def test_formatter_equals_repr_at_the_boundaries(size):
    rng = np.random.default_rng(size)
    values = np.resize(np.array(BOUNDARY), size)
    rng.shuffle(values)
    assert _json_numbers(values) == reprs(values)
    mixed = np.concatenate([BOUNDARY, rng.uniform(0.1, 1.0, size)])
    assert _json_numbers(mixed) == reprs(mixed)


def test_kernel_leaves_out_what_it_cannot_write():
    values = np.array(BOUNDARY)
    written = dict(zip(values.tolist(), _shortest_reprs(values)[1].tolist()))
    assert not any(written[value] for value in [0.1, 0.125, 0.25, 0.5, 0.75, 0.8, 1.0,
                                                 0.12345678901234, *TIES, -0.5, 1.5])
    assert all(written[value] for value in [np.nextafter(0.1, 1.0), np.nextafter(1.0, 0.0),
                                             *DIGITS_14_TO_17[1:]])


def test_empty_mrps_and_evidence(tmp_path):
    result = MrpResult("B", "A", 0.75, ["B:0", "B:1", "B:2"], ["A:0", "A:1", "A:2", "A:3"],
                       [], [], [])
    [path] = write_evidence_files([result], tmp_path, {})
    assert path.name == "A__B.json"
    assert path.read_bytes() == oracle(result, {})
    assert path.read_bytes().endswith(b'"evidence": [],\n  "texts": {}\n}\n')


def _shared_paragraph_results():
    paragraph_texts = {"A:0": 'shared "risk" \\ text\u2028\U0001F600'}
    results = []
    for firm in ("B", "C", "D"):
        other = f"{firm}:0"
        paragraph_texts[other] = f"{firm} text"
        results.append(MrpResult("A", firm, 0.5, ["A:0"], [other], [0, 0], [0, 0], [0.75, 0.5]))
    return results, paragraph_texts


def test_paragraph_shared_across_files_is_escaped_alike(tmp_path):
    results, paragraph_texts = _shared_paragraph_results()
    paths = write_evidence_files(results, tmp_path, paragraph_texts)
    escaped = json.dumps(paragraph_texts["A:0"], ensure_ascii=False)
    for result, path in zip(results, paths):
        body = path.read_bytes()
        assert body == oracle(result, paragraph_texts)
        assert body.count(escaped.encode("utf-8")) == 1
        assert body.count(f'"A:0": {escaped}'.encode("utf-8")) == 1


@pytest.mark.parametrize("bad_text", [None, "lone \ud800 surrogate"])
def test_failed_pair_leaves_earlier_files_and_no_partial_file(tmp_path, bad_text):
    results, paragraph_texts = _shared_paragraph_results()
    if bad_text is None:
        # The id without a text comes after a good entry, so the document was begun.
        results[2] = MrpResult("A", "D", 0.5, ["A:0"], ["D:0", "D:missing"],
                               [0, 0, 0], [0, 0, 1], [0.75, 0.5, 0.25])
        error = KeyError
    else:
        paragraph_texts["D:0"] = bad_text
        error = UnicodeEncodeError
    with pytest.raises(error):
        write_evidence_files(results, tmp_path, paragraph_texts)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["A__B.json", "A__C.json"]
    for result in results[:2]:
        path = tmp_path / f"A__{result.firm_b}.json"
        assert path.read_bytes() == oracle(result, paragraph_texts)


def test_rewrite_replaces_existing_file(tmp_path):
    results, paragraph_texts = _shared_paragraph_results()
    (tmp_path / "A__B.json").write_text("stale " * 1000)
    write_evidence_files(results[:1], tmp_path, paragraph_texts)
    assert (tmp_path / "A__B.json").read_bytes() == oracle(results[0], paragraph_texts)
    assert [p.name for p in tmp_path.iterdir()] == ["A__B.json"]


def test_firm_that_comes_again_with_other_ids_is_written_with_them(tmp_path):
    paragraph_texts = {pid: f"text of {pid}"
                       for pid in ["A:0", "A:1", "A:2", "B:0", "B:1", "C:0"]}

    def results():
        # Firm A on side a with one id list, then with that list changed in
        # place, then with another; firm B on side b with two lists.
        ids = ["A:0", "A:1"]
        yield MrpResult("A", "B", 0.5, ids, ["B:0"], [1, 0], [0, 0], [0.9, 0.8])
        ids[1] = "A:2"
        yield MrpResult("A", "D", 0.5, ids, ["B:1"], [1], [0], [0.55])
        yield MrpResult("A", "C", 0.5, ["A:2", "A:1"], ["C:0"], [0, 1], [0, 0], [0.9, 0.8])
        yield MrpResult("C", "B", 0.5, ["C:0"], ["B:1", "B:0"], [0, 0], [0, 1], [0.7, 0.6])

    expected = []

    def taken(results):
        """Each result, its document's oracle kept as the writer takes it."""
        for result in results:
            expected.append(oracle(result, paragraph_texts))
            yield result

    paths = write_evidence_files(taken(results()), tmp_path, paragraph_texts)
    assert [path.read_bytes() for path in paths] == expected
    assert b'"id_a": "A:2"' in expected[1]
