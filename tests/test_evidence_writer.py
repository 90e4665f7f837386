"""Evidence files: the writer against json.dumps, and what an error leaves."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrel.scoring import MrpResult, mrp_result_to_dict, write_evidence_files

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
# Every number type the dict view passes through to json.dumps: a document
# may mix them, or hold finite floats only.
similarities = st.one_of(st.floats(-1, 1), special_floats, st.integers(-2, 2),
                         st.one_of(st.floats(-1, 1), special_floats).map(np.float64))
thresholds = st.one_of(st.sampled_from([0, 1]), st.floats(0, 1),
                       st.floats(0, 1).map(np.float64))


def oracle(result, paragraph_texts):
    doc = mrp_result_to_dict(result, paragraph_texts)
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


@st.composite
def results(draw):
    firm_a, firm_b = draw(firm_names), draw(firm_names)
    ids_a = draw(st.lists(texts, unique=True, max_size=5))
    ids_b = draw(st.lists(texts, unique=True, max_size=5))
    evidence = []
    if ids_a and ids_b:
        evidence = draw(st.lists(st.tuples(st.sampled_from(ids_a),
                                           st.sampled_from(ids_b), similarities),
                                 max_size=8))
    result = MrpResult(
        firm_a=firm_a, firm_b=firm_b, threshold=draw(thresholds),
        n_a=len(ids_a) + draw(st.integers(1, 3)),
        n_b=len(ids_b) + draw(st.integers(1, 3)),
        mrps_a=tuple(sorted(draw(st.sets(st.sampled_from(ids_a)))) if ids_a else ()),
        mrps_b=tuple(sorted(draw(st.sets(st.sampled_from(ids_b)))) if ids_b else ()),
        evidence=evidence)
    return result, {pid: draw(texts) for pid in ids_a + ids_b}


@settings(max_examples=300, deadline=None)
@given(case=results())
def test_writer_matches_json_dumps_byte_for_byte(case):
    result, paragraph_texts = case
    with tempfile.TemporaryDirectory() as tmp:
        [path] = write_evidence_files([result], tmp, paragraph_texts)
        assert path.read_bytes() == oracle(result, paragraph_texts)
        assert [p.name for p in Path(tmp).iterdir()] == [path.name]


def test_empty_mrps_and_evidence(tmp_path):
    result = MrpResult("B", "A", 0.75, 3, 4, (), (), [])
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
        results.append(MrpResult("A", firm, 0.5, 1, 1, ("A:0",), (other,),
                                 [("A:0", other, 0.75), ("A:0", other, 0.5)]))
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
        # The unknown id comes after a good entry, so the document was begun.
        results[2].evidence.append(("A:0", "D:missing", 0.25))
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
