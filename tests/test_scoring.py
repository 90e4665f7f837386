"""Scoring: MRP search vs brute force, RRS arithmetic, matrices, evidence."""

import dataclasses
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrel import scoring
from riskrel.corpus import Paragraph, check_firm_id, group_by_firm, tokenize
from riskrel.encoder import build_vocab, init_params
from riskrel.errors import EmptyParagraph
from riskrel.scoring import (
    DEFAULT_THRESHOLD,
    EmbeddingIndex,
    embed_corpus,
    evidence_path,
    find_mrps,
    hundredths,
    load_embeddings,
    mrp_result_to_dict,
    read_rrs_csv,
    render_evidence,
    rrs,
    rrs_matrix,
    save_embeddings,
    write_evidence_files,
    write_rrs_csv,
)


def make_index(vectors_by_firm, fingerprint="test"):
    firms = {}
    for firm, vectors in vectors_by_firm.items():
        arr = np.asarray(vectors, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        ids = [f"{firm}:2023:1A:{k:04d}" for k in range(arr.shape[0])]
        firms[firm] = (ids, arr)
    return EmbeddingIndex(firms=firms, model_fingerprint=fingerprint)


def brute_force_mrps(index, firm_a, firm_b, threshold):
    """Independent O(N_A * N_B) double loop with its own cosine."""
    ids_a, va = index.firms[firm_a]
    ids_b, vb = index.firms[firm_b]
    mrps_a, mrps_b, evidence = set(), set(), set()
    for i, ua in enumerate(va):
        for j, ub in enumerate(vb):
            dot = sum(float(x) * float(y) for x, y in zip(ua, ub))
            na = math.sqrt(sum(float(x) ** 2 for x in ua))
            nb = math.sqrt(sum(float(y) ** 2 for y in ub))
            if dot / (na * nb) >= threshold:
                mrps_a.add(ids_a[i])
                mrps_b.add(ids_b[j])
                evidence.add((ids_a[i], ids_b[j]))
    return mrps_a, mrps_b, evidence


# --- rrs arithmetic ---

def test_rrs_fraction():
    assert rrs(3, 4, 2) == 0.5


def test_rrs_bounds():
    assert rrs(0, 5, 5) == 0.0
    assert rrs(10, 5, 5) == 1.0


def test_rrs_empty_firm():
    with pytest.raises(ValueError, match=r"^both firms need paragraphs \(N_A=0, N_B=0\)$"):
        rrs(0, 0, 0)
    with pytest.raises(ValueError, match=r"^both firms need paragraphs \(N_A=0, N_B=3\)$"):
        rrs(0, 0, 3)


def test_score_config_validates():
    """score's threshold goes through the one check that sweep's grid values
    do: a whole number of hundredths in [0, 1], NaN not."""
    assert hundredths(DEFAULT_THRESHOLD, "threshold", "score") == 75
    assert [hundredths(v, "threshold", "score") for v in (0.0, -0.0, 0.07, 1.0)] == [0, 0, 7, 100]
    for threshold, message in [
        (1.5, "threshold 1.5 must lie in [0, 1]"),
        (-0.25, "threshold -0.25 must lie in [0, 1]"),
        (math.nan, "threshold nan must lie in [0, 1]"),
        (0.125, "threshold 0.125 prints as 0.12 in score: "
                "thresholds must have at most two decimals"),
    ]:
        with pytest.raises(ValueError) as exc:
            hundredths(threshold, "threshold", "score")
        assert str(exc.value) == message


# --- find_mrps ---

def test_single_pair_above_threshold():
    # cos([1,0],[0.8,0.6]) = 0.8 exactly
    index = make_index({"A": [[1.0, 0.0]], "B": [[0.8, 0.6]]})
    result = find_mrps(index, "A", "B", 0.75)
    assert len(result.mrps_a) == 1 and len(result.mrps_b) == 1
    assert result.rrs == 1.0
    assert result.evidence[0][2] == pytest.approx(0.8, abs=1e-12)


def test_single_pair_below_threshold():
    index = make_index({"A": [[1.0, 0.0]], "B": [[0.7, math.sqrt(0.51)]]})
    result = find_mrps(index, "A", "B", 0.75)
    assert result.mrps_a == () and result.mrps_b == ()
    assert result.rrs == 0.0
    assert result.evidence == []


def test_matches_brute_force_on_fixed_table():
    rng = np.random.default_rng(7)
    index = make_index({"A": rng.normal(size=(3, 5)), "B": rng.normal(size=(2, 5))})
    result = find_mrps(index, "A", "B", 0.2)
    oracle_a, oracle_b, oracle_ev = brute_force_mrps(index, "A", "B", 0.2)
    assert set(result.mrps_a) == oracle_a
    assert set(result.mrps_b) == oracle_b
    assert {(e[0], e[1]) for e in result.evidence} == oracle_ev


def test_symmetry_exact_under_argument_swap():
    rng = np.random.default_rng(8)
    index = make_index({"A": rng.normal(size=(7, 6)), "B": rng.normal(size=(5, 6))})
    ab = find_mrps(index, "A", "B", 0.3)
    ba = find_mrps(index, "B", "A", 0.3)
    assert ab.rrs == ba.rrs
    assert set(ab.mrps_a) == set(ba.mrps_b)
    assert {(a, b, s) for a, b, s in ab.evidence} == {(b, a, s) for a, b, s in ba.evidence}


def test_evidence_sorted_by_similarity_then_ids():
    index = make_index({"A": [[1.0, 0.0], [0.8, 0.6]], "B": [[1.0, 0.0]]})
    result = find_mrps(index, "A", "B", 0.5)
    sims = [e[2] for e in result.evidence]
    assert sims == sorted(sims, reverse=True)
    assert result.evidence[0][0] == "A:2023:1A:0000"  # similarity 1.0 first


def sorted_evidence_oracle(index, firm_a, firm_b, threshold):
    """Evidence built in block order, then sorted by (-similarity, id_a, id_b)."""
    ids_a, ids_b, sims = scoring._similarities(index, firm_a, firm_b)
    evidence = [(ids_a[i], ids_b[j], float(sims[i, j]))
                for i, j in zip(*np.nonzero(sims >= threshold))]
    evidence.sort(key=lambda e: (-e[2], e[0], e[1]))
    return evidence


# Distinct ids, each firm's under its own prefix; "x\0" sorts after "x", but a
# numpy U array would read it as "x".
TIED_IDS = ["a", "x", "x\0", "z"]


@st.composite
def tied_firm(draw, d, prefix):
    ids = sorted(draw(st.lists(st.sampled_from([prefix + pid for pid in TIED_IDS]),
                               min_size=1, max_size=len(TIED_IDS), unique=True)))
    n = len(ids)
    vectors = draw(st.lists(st.integers(-2, 2), min_size=n * d, max_size=n * d))
    return ids, np.array(vectors, dtype=np.float64).reshape(n, d)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_evidence_order_matches_a_sort_by_similarity_then_ids(data):
    d = data.draw(st.integers(1, 3))
    index = EmbeddingIndex(firms={"A": data.draw(tied_firm(d, "")),
                                  "B": data.draw(tied_firm(d, "b"))})
    firm_a, firm_b = data.draw(st.permutations(["A", "B"]))
    sims = scoring._similarities(index, firm_a, firm_b)[2]
    threshold = data.draw(st.sampled_from([0.0, 1.0]) | st.sampled_from(sims.ravel().tolist()))
    expected = sorted_evidence_oracle(index, firm_a, firm_b, threshold)
    evidence = find_mrps(index, firm_a, firm_b, threshold).evidence
    assert [(a, b, s.hex()) for a, b, s in evidence] == \
        [(a, b, s.hex()) for a, b, s in expected]


# Vectors whose cosines all lie 0.03 or more from RANKED_THRESHOLDS, so the
# brute force's own cosine and the GEMM agree on every hit; a row may repeat
# one, which ties its similarities.
RANKED_POOL = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [3.0, 4.0], [-1.0, 2.0]]
RANKED_THRESHOLDS = [0.5, 0.65, 0.75, 0.85, 0.95]


@st.composite
def ranked_firm(draw, firm):
    """Ids in str order from sections drawn from 7A and 1A, ordinals counting
    down, so a firm's str order is neither its section order nor its ordinal
    order."""
    sections = draw(st.lists(st.sampled_from(["7A", "1A"]), min_size=1, max_size=6))
    n = len(sections)
    ids = sorted(f"{firm}:2023:{section}:{n - k:04d}" for k, section in enumerate(sections))
    rows = draw(st.lists(st.sampled_from(RANKED_POOL), min_size=n, max_size=n))
    return ids, np.array(rows)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ranked_ids_and_tied_similarities_against_brute_force(data):
    index = EmbeddingIndex(firms={firm: data.draw(ranked_firm(firm)) for firm in "ABC"})
    pairs = st.permutations("ABC").map(lambda firms: firms[:2])
    for firm_a, firm_b in data.draw(st.lists(pairs, min_size=1, max_size=4)):
        threshold = data.draw(st.sampled_from(RANKED_THRESHOLDS))
        result = find_mrps(index, firm_a, firm_b, threshold)
        evidence = result.evidence
        assert evidence == sorted(evidence, key=lambda e: (-e[2], e[0], e[1]))
        oracle_a, oracle_b, oracle_ev = brute_force_mrps(index, firm_a, firm_b, threshold)
        assert (set(result.mrps_a), set(result.mrps_b)) == (oracle_a, oracle_b)
        assert {(a, b) for a, b, _ in evidence} == oracle_ev
        n_a, n_b = (len(index.firms[firm][0]) for firm in (firm_a, firm_b))
        assert (result.n_a, result.n_b) == (n_a, n_b)
        assert result.rrs == (len(oracle_a) + len(oracle_b)) / (n_a + n_b)


def test_every_mrp_member_appears_in_evidence():
    rng = np.random.default_rng(9)
    index = make_index({"A": rng.normal(size=(6, 4)), "B": rng.normal(size=(6, 4))})
    result = find_mrps(index, "A", "B", 0.4)
    in_evidence_a = {e[0] for e in result.evidence}
    in_evidence_b = {e[1] for e in result.evidence}
    assert set(result.mrps_a) == in_evidence_a
    assert set(result.mrps_b) == in_evidence_b
    assert all(e[2] >= 0.4 for e in result.evidence)


def test_monotone_in_threshold():
    rng = np.random.default_rng(10)
    index = make_index({"A": rng.normal(size=(8, 4)), "B": rng.normal(size=(8, 4))})
    lo = find_mrps(index, "A", "B", 0.3)
    hi = find_mrps(index, "A", "B", 0.6)
    assert set(hi.mrps_a) <= set(lo.mrps_a)
    assert set(hi.mrps_b) <= set(lo.mrps_b)
    assert hi.rrs <= lo.rrs


def test_empty_firm_errors():
    """A firm the index lacks has no paragraphs in it; an index cannot hold a
    firm without paragraphs (test_index_needs_each_firms_ids_in_str_order)."""
    index = make_index({"A": [[1.0, 0.0]], "B": [[0.0, 1.0]]})
    with pytest.raises(ValueError, match="^firm 'MISSING' has no paragraphs in the embedding "
                                         "index$"):
        find_mrps(index, "A", "MISSING", 0.5)


@pytest.mark.parametrize("ids", [
    [],
    ["B:1", "B:0"],
    ["B:9", "B:10"],
    ["B:x\0", "B:x"],
], ids=["empty", "descending", "numeric_order", "nul_after_prefix"])
def test_index_needs_each_firms_ids_in_str_order(ids):
    with pytest.raises(ValueError) as exc:
        EmbeddingIndex(firms={"A": (["A:0"], np.ones((1, 2))),
                              "B": (ids, np.ones((len(ids), 2)))})
    assert str(exc.value) == "firm 'B' needs one or more paragraph ids, in str order"


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="^firm 'B' has vectors of width 3, not 2$"):
        make_index({"A": [[1.0, 0.0]], "B": [[1.0, 0.0, 0.0]], "C": np.ones((1, 4))})


@pytest.mark.parametrize("ids, vectors", [
    (["A:0", "A:1"], np.ones((1, 2))),
    (["A:0"], np.ones((2, 2))),
    (["A:0"], np.ones(2)),
], ids=["fewer_rows", "more_rows", "one_dimensional"])
def test_index_needs_one_vector_row_per_id(ids, vectors):
    with pytest.raises(ValueError, match="^firm 'A' needs one vector row per id"):
        EmbeddingIndex(firms={"A": (ids, vectors), "B": (["B:0"], np.ones((1, 2)))})


def test_index_is_checked_and_sized_once_when_made():
    index = make_index({"A": np.ones((2, 3)), "B": np.ones((1, 3))})
    assert index.d == 3 and EmbeddingIndex(firms={}).d == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        index.d = 4
    refit = dataclasses.replace(index, model_fingerprint="other")
    assert (refit.d, refit.model_fingerprint, refit.firms) == (3, "other", index.firms)


def test_self_pair_is_a_value_error():
    index = make_index({"A": [[1.0, 0.0]], "B": [[0.0, 1.0]]})
    with pytest.raises(ValueError, match="^firm 'A' cannot be scored against itself$"):
        find_mrps(index, "A", "A", 0.5)


# --- rrs_matrix ---

def test_matrix_symmetric_with_unit_diagonal():
    rng = np.random.default_rng(11)
    index = make_index({f"F{k}": rng.normal(size=(4, 5)) for k in range(4)})
    firms, matrix = rrs_matrix(index, threshold=0.3)
    assert firms == sorted(firms)
    assert np.array_equal(matrix, matrix.T)
    assert np.array_equal(np.diag(matrix), np.ones(4))


def test_matrix_two_firms_equals_find_mrps():
    rng = np.random.default_rng(12)
    index = make_index({"A": rng.normal(size=(3, 4)), "B": rng.normal(size=(5, 4))})
    firms, matrix = rrs_matrix(index, threshold=0.3)
    assert matrix[0, 1] == find_mrps(index, "A", "B", 0.3).rrs


def test_matrix_planted_pair_dominates():
    rng = np.random.default_rng(13)
    shared = rng.normal(size=(4, 6))
    index = make_index({
        "F0": np.vstack([shared, rng.normal(size=(2, 6))]),
        "F1": np.vstack([shared * 1.5, rng.normal(size=(2, 6))]),  # same directions
        "F2": rng.normal(size=(6, 6)),
        "F3": rng.normal(size=(6, 6)),
    })
    firms, matrix = rrs_matrix(index, threshold=0.95)
    off = {(firms[i], firms[j]): matrix[i, j]
           for i in range(4) for j in range(i + 1, 4)}
    top = max(off, key=off.get)
    assert top == ("F0", "F1")
    assert off[top] > max(v for k, v in off.items() if k != top)


def test_matrix_needs_two_firms():
    index = make_index({"A": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        rrs_matrix(index)


# --- embed_corpus ---

def _corpus_of(firm, texts, start=0):
    """One firm's paragraphs of ``texts``, ordinals from ``start``."""
    return [Paragraph(id=Paragraph.make_id(firm, 2023, "1A", k), firm_id=firm,
                      year=2023, section="1A", text=t, tokens=tuple(tokenize(t)))
            for k, t in enumerate(texts, start)]


def test_embed_corpus_shapes_and_determinism():
    texts = ["supply chain risk persists here", "cyber incident response plan ready",
             "interest rate exposure remains high"]
    corpora = [_corpus_of("A", texts), _corpus_of("B", texts[:2] + ["extra words appear"])]
    vocab = build_vocab([tokenize(t) for t in texts] + [tokenize("extra words appear")],
                        min_freq=1)
    params = init_params(len(vocab), d=8, rng=3)
    index = embed_corpus(vocab, params, corpora)
    assert sum(v.shape[0] for _, v in index.firms.values()) == 6
    assert all(v.shape[1] == 8 for _, v in index.firms.values())
    again = embed_corpus(vocab, params, corpora)
    for firm in index.firms:
        assert np.array_equal(index.firms[firm][1], again.firms[firm][1])


def test_embed_corpus_attaches_paragraph_id_on_failure():
    vocab = build_vocab([["a", "a"]], min_freq=1)
    params = init_params(len(vocab), d=4, rng=0)
    corpora = [_corpus_of("A", ["a a a a a"])]
    with pytest.raises(EmptyParagraph, match="A:2023:1A:0000"):
        embed_corpus(vocab, params, corpora, max_len=0)


def test_embed_corpus_names_empty_paragraph_mid_firm():
    vocab = build_vocab([["a", "a"]], min_freq=1)
    params = init_params(len(vocab), d=4, rng=0)
    corpora = [_corpus_of("A", ["a a", "a a a"]),
               _corpus_of("B", ["a", "a a", "", "a"])]
    with pytest.raises(EmptyParagraph, match=r"paragraph B:2023:1A:0002: row 2 "):
        embed_corpus(vocab, params, corpora)


def test_embed_corpus_matches_per_paragraph_reference(fixture_paragraphs):
    """The batched forward against the per-paragraph loop it replaced.

    The reference is the old path: a mean pool of each paragraph's own
    embedding rows, then the GEMV ``proj_w @ h``. The batched GEMM rounds
    differently; float64 keeps the two within 1e-15 (7e-17 observed).
    """
    vocab = build_vocab((p.tokens for p in fixture_paragraphs), min_freq=2)
    params = init_params(len(vocab), d=64, rng=5)
    index = embed_corpus(vocab, params, [fixture_paragraphs], max_len=256)
    for firm, paragraphs in group_by_firm(fixture_paragraphs).items():
        ids, vectors = index.firms[firm]
        assert ids == [p.id for p in paragraphs]
        for paragraph, vector in zip(paragraphs, vectors):
            token_ids = vocab.indices(paragraph.tokens, 256)
            h = params.embed[token_ids].sum(axis=0) / len(token_ids)
            reference = np.tanh(params.proj_w @ h + params.proj_b)
            assert np.max(np.abs(vector - reference)) <= 1e-15


@pytest.mark.parametrize("old, new, detail", [
    (b"\x02\0\0\0fp", b"\x02\0\0\0f\xff",
     "'ascii' codec can't decode byte 0xff in position 1: ordinal not in range(128)"),
    (b"QQ\x01\0\0\0", b"\xffQ\x01\0\0\0",
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b"QQ:2023", b"QQ:\xff023",
     "'utf-8' codec can't decode byte 0xff in position 3: invalid start byte"),
], ids=["fingerprint", "firm", "paragraph_id"])
def test_embeddings_undecodable_text_names_the_file(tmp_path, old, new, detail):
    path = tmp_path / "emb.bin"
    save_embeddings(make_index({"QQ": np.zeros((1, 2))}, fingerprint="fp"), path)
    raw = path.read_bytes()
    assert raw.count(old) == 1
    path.write_bytes(raw.replace(old, new))
    with pytest.raises(ValueError) as exc:
        load_embeddings(path)
    assert str(exc.value) == f"malformed embeddings file {path}: {detail}"


def embeddings_bytes(firms, d=2, n_firms=None, fingerprint=b"fp", max_len=256):
    """A hand-built embeddings file: ``firms`` is a list of (name, ids, count)."""
    raw = scoring._EMB_MAGIC + struct.pack(
        "<IIIII", 1, d, max_len, len(firms) if n_firms is None else n_firms, len(fingerprint))
    raw += fingerprint
    for firm, ids, count in firms:
        raw += struct.pack("<I", len(firm)) + firm + struct.pack("<I", count)
        for pid in ids:
            raw += struct.pack("<I", len(pid)) + pid + bytes(8 * d)
    return raw


_EMB_FILE = embeddings_bytes([(b"A", [b"A:2023:1A:0000", b"A:2023:1A:0001"], 2),
                              (b"B", [b"B:2023:1A:0000"], 1)], d=3, fingerprint=b"test")


def test_embeddings_bytes_helper_writes_what_save_embeddings_writes(tmp_path):
    path = tmp_path / "emb.bin"
    save_embeddings(make_index({"A": np.zeros((2, 3)), "B": np.zeros((1, 3))}), path)
    assert path.read_bytes() == _EMB_FILE


@pytest.mark.parametrize("cut", range(len(_EMB_FILE)))
def test_embeddings_rejects_truncated_file(tmp_path, cut):
    """Every proper prefix: no magic below 8 bytes, then the one truncation error."""
    path = tmp_path / "clipped.bin"
    path.write_bytes(_EMB_FILE[:cut])
    with pytest.raises(ValueError) as exc:
        load_embeddings(path)
    expected = "not a riskrel embeddings file" if cut < 8 else "truncated riskrel binary file"
    assert str(exc.value) == f"{expected}: {path}"


def test_save_embeddings_rejects_mixed_widths_before_writing(tmp_path):
    path = tmp_path / "emb.bin"
    with pytest.raises(ValueError, match="^firm 'B' has vectors of width 3, not 2$"):
        save_embeddings(make_index({"A": np.ones((1, 2)), "B": np.ones((1, 3))}), path)
    assert not path.exists()


_FIRM_RULE = ("must be non-empty, not '.' or '..', and hold no '/', '\\', ',', ':', '\"', "
              "'__', whitespace or control character")


@pytest.mark.parametrize("raw, detail", [
    (embeddings_bytes([(b"A", [b"A:0"], 1), (b"A", [b"A:1"], 1)]), "firm 'A' repeated"),
    (embeddings_bytes([(b"a/b", [b"a/b:0"], 1)]), f"firm_id 'a/b' {_FIRM_RULE}"),
    (embeddings_bytes([(b'"X', [b'"X:0'], 1)]), f"firm_id '\"X' {_FIRM_RULE}"),
    (embeddings_bytes([(b"A", [b"A:0"], 1)]) + b"\0", "bytes after the last vector"),
    (embeddings_bytes([(b"A", [b"A:0", b"A:0"], 2)]), "paragraph id 'A:0' repeated"),
    (embeddings_bytes([(b"A", [b"X:0"], 1), (b"B", [b"X:0"], 1)]),
     "paragraph id 'X:0' repeated"),
    (embeddings_bytes([(b"A", [b"A:0"], 1)], d=1), "firm 'A' has vectors of width 1, below 2"),
    (embeddings_bytes([(b"A", [b"A:0"], 1)])[:-8] + struct.pack("<d", math.nan),
     "firm 'A' has a value that is not finite"),
    (embeddings_bytes([(b"A", [b"A:0"], 1)], max_len=0), "max_len 0 < 1"),
    (embeddings_bytes([(b"A", [b"A:0"], 1), (b"B", [], 0)]),
     "firm 'B' needs one or more paragraph ids, in str order"),
    (embeddings_bytes([(b"A", [b"A:1", b"A:0"], 2)]),
     "firm 'A' needs one or more paragraph ids, in str order"),
], ids=["repeated_firm", "firm_with_slash", "firm_with_quote", "trailing_byte", "repeated_id",
        "id_in_two_firms", "width_1", "nan", "max_len_0", "empty_firm", "ids_out_of_order"])
def test_embeddings_that_embed_never_writes_are_malformed(tmp_path, raw, detail):
    path = tmp_path / "emb.bin"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as exc:
        load_embeddings(path)
    assert str(exc.value) == f"malformed embeddings file {path}: {detail}"


_HUGE = 2 ** 32 - 1


@st.composite
def embeddings_files(draw):
    """A valid header, then firm records whose counts need not match what follows."""
    d = draw(st.integers(0, 3) | st.just(_HUGE))
    firms = draw(st.lists(st.tuples(
        st.sampled_from([b"A", b"B", b"a/b", b"", b"\xff"]),
        st.lists(st.sampled_from([b"A:0", b"A:1", b"B:0", b"\xff"]), max_size=3),
        st.integers(0, 3) | st.just(_HUGE)), max_size=3))
    n_firms = draw(st.none() | st.integers(0, 4) | st.just(_HUGE))
    if d == _HUGE:
        firms = [(firm, [], count) for firm, _, count in firms]
    return embeddings_bytes(firms, d, n_firms) + draw(st.binary(max_size=9))


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=80) | st.binary(max_size=60).map(scoring._EMB_MAGIC.__add__)
       | embeddings_files())
def test_load_embeddings_returns_an_index_or_raises_value_error(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "emb.bin"
        path.write_bytes(raw)
        try:
            index = load_embeddings(path)
        except ValueError:
            return
    ids = [pid for firm_ids, _ in index.firms.values() for pid in firm_ids]
    assert len(set(ids)) == len(ids)
    for firm, (firm_ids, vectors) in index.firms.items():
        assert check_firm_id(firm) == firm
        assert vectors.dtype == np.float64 and vectors.shape[0] == len(firm_ids)
        assert not firm_ids or vectors.shape[1] >= 2
        assert np.isfinite(vectors).all()


_TEXTS = ["supply chain risk persists here", "cyber incident response plan ready",
          "interest rate exposure remains high", "extra words appear"]


def _embed(groups):
    vocab = build_vocab([tokenize(t) for t in _TEXTS], min_freq=1)
    return embed_corpus(vocab, init_params(len(vocab), d=8, rng=3), groups)


def test_embed_corpus_files_each_paragraph_under_its_own_firm():
    a, b = _corpus_of("A", _TEXTS[:2]), _corpus_of("B", _TEXTS[2:])
    by_firm = _embed([a, b])
    for groups in ([b, a], [a + b], [[b[0], a[0]], [a[1], b[1]]], [[p] for p in b + a]):
        index = _embed(groups)
        assert {firm: ids for firm, (ids, _) in index.firms.items()} == {
            "A": [p.id for p in a], "B": [p.id for p in b]}
        for firm, (_, vectors) in index.firms.items():
            assert vectors.tobytes() == by_firm.firms[firm][1].tobytes()


def test_embed_corpus_makes_one_firm_of_two_groups_in_input_order():
    first, second = _corpus_of("A", _TEXTS[:2]), _corpus_of("A", _TEXTS[2:], start=2)
    index = _embed([first, _corpus_of("B", _TEXTS[:1]), second])
    assert index.firm_ids() == ["A", "B"]
    ids, vectors = index.firms["A"]
    assert ids == [p.id for p in first + second]
    assert vectors.tobytes() == _embed([first + second]).firms["A"][1].tobytes()


@pytest.mark.parametrize("firms", [
    {"A": (["A:0", "A:0"], np.ones((2, 2)))},
    {"A": (["X:0"], np.ones((1, 2))), "B": (["B:0", "X:0"], np.ones((2, 2)))},
], ids=["in_one_firm", "across_two_firms"])
def test_index_with_a_repeated_paragraph_id_raises_when_made(firms):
    repeated = "A:0" if len(firms) == 1 else "X:0"
    with pytest.raises(ValueError, match=f"^paragraph id '{repeated}' repeated$"):
        EmbeddingIndex(firms=firms)


def test_index_computes_each_firms_unit_rows_once():
    index = make_index({"A": [[3.0, 4.0], [0.0, 2.0]], "B": [[1.0, 0.0]]})
    units = index.units
    assert units is index.units
    assert units["A"].tolist() == [[0.6, 0.8], [0.0, 1.0]]
    find_mrps(index, "A", "B", 0.5)
    rrs_matrix(index, 0.5)
    assert index.units is units


# --- evidence ---

def test_render_evidence_shows_top_three_pairs_with_texts_cut():
    texts = {f"{firm}:{k}": f"{firm} risk {k} " + "x" * 300
             for firm in "AB" for k in range(4)}
    result = scoring.MrpResult("A", "B", 0.75, ["A:0", "A:1", "A:2", "A:3"],
                               ["B:0", "B:1", "B:2", "B:3"], range(4), range(4),
                               [0.99 - k / 100 for k in range(4)])
    lines = render_evidence(mrp_result_to_dict(result, texts)).split("\n")
    assert lines[:3] == ["Strongest pair A - B: RRS 1.000000 at threshold 0.75, "
                         "4 evidence pairs.", "", "- similarity 0.9900: `A:0` / `B:0`"]
    assert lines[3:5] == [f"    - {texts['A:0'][:220]}", f"    - {texts['B:0'][:220]}"]
    assert len(lines) == 2 + 3 * 3 + 1 and lines[-1] == ""
    assert "`A:3`" not in "\n".join(lines)


def test_render_evidence_without_evidence_pairs():
    result = scoring.MrpResult("A", "B", 0.75, ["A:0", "A:1"], ["B:0", "B:1", "B:2"],
                               [], [], [])
    assert render_evidence(mrp_result_to_dict(result, {})) == (
        "Strongest pair A - B: RRS 0.000000 at threshold 0.75, 0 evidence pairs.\n\n")


def test_evidence_files_named_lexicographically(tmp_path):
    index = make_index({"ZZZ": [[1.0, 0.0]], "AAA": [[1.0, 0.0]]})
    result = find_mrps(index, "ZZZ", "AAA", 0.5)
    paths = write_evidence_files([result], tmp_path, {"AAA:2023:1A:0000": "risk a",
                                                      "ZZZ:2023:1A:0000": "risk z"})
    assert paths == [evidence_path(tmp_path, "ZZZ", "AAA")]
    assert [p.name for p in paths] == ["AAA__ZZZ.json"]
    doc = json.loads(paths[0].read_text())
    assert doc["rrs"] == 1.0
    assert doc["threshold"] == 0.5


def test_mrp_result_to_dict_includes_texts():
    result = scoring.MrpResult("A", "B", 0.75, ["A:0", "A:1"], ["B:1"],
                               [1, 0], [0, 0], [0.9, 0.8])
    doc = mrp_result_to_dict(result, {"A:1": "text a", "B:1": "text b", "A:0": "text a0"})
    # Each text once, keyed by id, ids sorted rather than in evidence order.
    assert list(doc["texts"].items()) == [("A:0", "text a0"), ("A:1", "text a"),
                                          ("B:1", "text b")]
    assert list(doc) == ["firm_a", "firm_b", "threshold", "n_a", "n_b", "rrs",
                         "mrps_a", "mrps_b", "evidence", "texts"]
    assert doc["evidence"] == [{"id_a": "A:1", "id_b": "B:1", "similarity": 0.9},
                               {"id_a": "A:0", "id_b": "B:1", "similarity": 0.8}]
    with pytest.raises(KeyError, match="A:0"):
        mrp_result_to_dict(result, {"A:1": "text a"})


# --- file round trips ---

def test_rrs_csv_roundtrip(tmp_path):
    firms = ["AAA", "BBB", "CCC"]
    matrix = np.array([[1.0, 0.25, 0.0], [0.25, 1.0, 0.5], [0.0, 0.5, 1.0]])
    path = tmp_path / "rrs.csv"
    write_rrs_csv(firms, matrix, path)
    firms2, matrix2 = read_rrs_csv(path)
    assert firms2 == firms
    assert np.array_equal(matrix2, matrix)
    header = path.read_text().splitlines()[0]
    assert header == "firm,AAA,BBB,CCC"


def test_embeddings_roundtrip(tmp_path):
    rng = np.random.default_rng(14)
    index = make_index({"A": rng.normal(size=(3, 4)), "B": rng.normal(size=(2, 4))},
                       fingerprint="f" * 64)
    path = tmp_path / "emb.bin"
    save_embeddings(index, path)
    loaded = load_embeddings(path)
    assert loaded.model_fingerprint == "f" * 64
    assert set(loaded.firms) == {"A", "B"}
    for firm in index.firms:
        assert loaded.firms[firm][0] == index.firms[firm][0]
        assert np.array_equal(loaded.firms[firm][1], index.firms[firm][1])


def test_rrs_csv_roundtrip_at_six_decimals(tmp_path):
    rng = np.random.default_rng(15)
    firms = ["AAA", "BBB", "CCC", "DDD"]
    upper = np.triu(rng.random((4, 4)), 1)
    matrix = upper + upper.T + np.eye(4)
    path = tmp_path / "rrs.csv"
    write_rrs_csv(firms, matrix, path)
    firms2, matrix2 = read_rrs_csv(path)
    assert firms2 == firms
    assert np.array_equal(matrix2, np.array([[float(f"{v:.6f}") for v in row]
                                             for row in matrix]))
    write_rrs_csv(firms2, matrix2, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_rrs_csv_reads_any_header_order_as_sorted(tmp_path):
    path = tmp_path / "rrs.csv"
    path.write_text("firm,BBB,AAA,CCC\nBBB,1,0.25,0.5\nAAA,0.25,1,0\nCCC,0.5,0,1\n")
    firms, matrix = read_rrs_csv(path)
    assert firms == ["AAA", "BBB", "CCC"]
    assert np.array_equal(matrix, [[1.0, 0.25, 0.0], [0.25, 1.0, 0.5], [0.0, 0.5, 1.0]])


@pytest.mark.parametrize("text, message", [
    ("firm,A,B\nA,1.0,0.5\nB,0.25,1.0\n", "{path}: matrix is not symmetric"),
    ("firm,A,B\nB,1.0,0.5\nA,0.5,1.0\n", "{path}: row labels do not match the header"),
    ("firm,A,B\nA,1.0,0.5\nB,0.5\n", "{path} line 3: row has 1 values for 2 firms"),
], ids=["asymmetric", "swapped_rows", "ragged"])
def test_rrs_csv_rejects_malformed(tmp_path, text, message):
    path = tmp_path / "rrs.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_rrs_csv(path)
    assert str(exc.value) == "malformed RRS matrix in " + message.format(path=path)
