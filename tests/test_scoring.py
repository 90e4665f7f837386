"""Scoring: MRP search vs brute force, RRS arithmetic, matrices, evidence."""

import json
import math

import numpy as np
import pytest

from riskrel import scoring
from riskrel.corpus import FirmCorpus, Paragraph, group_by_firm, tokenize
from riskrel.encoder import build_vocab, init_params
from riskrel.errors import (
    DimensionMismatch,
    EmptyFirm,
    EmptyParagraph,
    UnknownParagraphId,
)
from riskrel.scoring import (
    EmbeddingIndex,
    ScoreConfig,
    embed_corpus,
    evidence_report,
    find_mrps,
    load_embeddings,
    mrp_result_to_dict,
    read_rrs_csv,
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
            arr = arr.reshape(0, 2) if arr.size == 0 else arr.reshape(1, -1)
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
    with pytest.raises(EmptyFirm):
        rrs(0, 0, 0)
    with pytest.raises(EmptyFirm):
        rrs(0, 0, 3)


def test_score_config_validates():
    assert ScoreConfig().threshold == 0.75
    with pytest.raises(ValueError):
        ScoreConfig(threshold=1.5)


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
    index = make_index({"A": [[1.0, 0.0]], "B": np.empty((0, 2))})
    with pytest.raises(EmptyFirm):
        find_mrps(index, "A", "B", 0.5)
    with pytest.raises(EmptyFirm):
        find_mrps(index, "A", "MISSING", 0.5)


def test_dimension_mismatch():
    index = make_index({"A": [[1.0, 0.0]], "B": [[1.0, 0.0, 0.0]]})
    with pytest.raises(DimensionMismatch):
        find_mrps(index, "A", "B", 0.5)


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

def _corpus_of(firm, texts):
    paragraphs = [
        Paragraph(id=Paragraph.make_id(firm, 2023, "1A", k), firm_id=firm,
                  year=2023, section="1A", text=t, tokens=tuple(tokenize(t)))
        for k, t in enumerate(texts)]
    return FirmCorpus(firm_id=firm, paragraphs=paragraphs)


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
    corpora = group_by_firm(fixture_paragraphs).values()
    index = embed_corpus(vocab, params, corpora, max_len=256)
    for corpus in corpora:
        ids, vectors = index.firms[corpus.firm_id]
        assert ids == [p.id for p in corpus.paragraphs]
        for paragraph, vector in zip(corpus.paragraphs, vectors):
            token_ids = vocab.indices(paragraph.tokens, 256)
            h = params.embed[token_ids].sum(axis=0) / len(token_ids)
            reference = np.tanh(params.proj_w @ h + params.proj_b)
            assert np.max(np.abs(vector - reference)) <= 1e-15


def test_embeddings_rejects_truncated_file(tmp_path):
    rng = np.random.default_rng(15)
    index = make_index({"A": rng.normal(size=(3, 4))})
    path = tmp_path / "emb.bin"
    save_embeddings(index, path)
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(path.read_bytes()[:30])
    with pytest.raises(ValueError, match="truncated"):
        load_embeddings(clipped)


def test_embed_corpus_keeps_empty_firm():
    vocab = build_vocab([["a", "a"]], min_freq=1)
    params = init_params(len(vocab), d=4, rng=0)
    index = embed_corpus(vocab, params, [FirmCorpus("EMPTY", []),
                                         _corpus_of("B", ["a a a a a"])])
    assert "EMPTY" in index.firms
    assert index.firms["EMPTY"][1].shape[0] == 0
    with pytest.raises(EmptyFirm):
        find_mrps(index, "EMPTY", "B", 0.5)


# --- evidence ---

def test_evidence_report_contains_texts():
    para_a = Paragraph("A:2023:1A:0000", "A", 2023, "1A",
                       "supply chain disruption text", ("supply",))
    para_b = Paragraph("B:2023:1A:0000", "B", 2023, "1A",
                       "logistics shortage text", ("logistics",))
    result = scoring.MrpResult("A", "B", 0.75, 1, 1,
                               (para_a.id,), (para_b.id,),
                               [(para_a.id, para_b.id, 0.91)])
    doc = evidence_report(result, [para_a, para_b])
    assert "supply chain disruption text" in doc
    assert "logistics shortage text" in doc
    assert "0.91" in doc
    assert "A 2023 Item 1A" in doc


def test_evidence_report_zero_mrps():
    result = scoring.MrpResult("A", "B", 0.75, 2, 3, (), (), [])
    doc = evidence_report(result, [])
    assert "No mutual risk paragraphs" in doc


def test_evidence_report_unknown_id():
    result = scoring.MrpResult("A", "B", 0.75, 1, 1, ("A:x",), ("B:x",),
                               [("A:x", "B:x", 0.8)])
    with pytest.raises(UnknownParagraphId):
        evidence_report(result, [])


def test_evidence_files_named_lexicographically(tmp_path):
    index = make_index({"ZZZ": [[1.0, 0.0]], "AAA": [[1.0, 0.0]]})
    result = find_mrps(index, "ZZZ", "AAA", 0.5)
    paths = write_evidence_files([result], tmp_path)
    assert [p.name for p in paths] == ["AAA__ZZZ.json"]
    doc = json.loads(paths[0].read_text())
    assert doc["rrs"] == 1.0
    assert doc["threshold"] == 0.5


def test_mrp_result_to_dict_includes_texts():
    para_a = Paragraph("A:1", "A", 2023, "1A", "text a", ("text", "a"))
    para_b = Paragraph("B:1", "B", 2023, "1A", "text b", ("text", "b"))
    result = scoring.MrpResult("A", "B", 0.75, 1, 1, ("A:1",), ("B:1",),
                               [("A:1", "B:1", 0.9)])
    doc = mrp_result_to_dict(result, {"A:1": para_a, "B:1": para_b})
    assert doc["evidence"][0]["text_a"] == "text a"
    with pytest.raises(UnknownParagraphId):
        mrp_result_to_dict(result, {"A:1": para_a})


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
    index = make_index({"A": rng.normal(size=(3, 4)), "B": rng.normal(size=(2, 4)),
                        "EMPTY": np.empty((0, 4))}, fingerprint="f" * 64)
    path = tmp_path / "emb.bin"
    save_embeddings(index, path)
    loaded = load_embeddings(path)
    assert loaded.model_fingerprint == "f" * 64
    assert set(loaded.firms) == {"A", "B", "EMPTY"}
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


@pytest.mark.parametrize("text, detail", [
    ("firm,A,B\nA,1.0,0.5\nB,0.25,1.0\n", "matrix is not symmetric"),
    ("firm,A,B\nB,1.0,0.5\nA,0.5,1.0\n", "row labels do not match the header"),
    ("firm,A,B\nA,1.0,0.5\nB,0.5\n", "line 3 has 1 values for 2 firms"),
], ids=["asymmetric", "swapped_rows", "ragged"])
def test_rrs_csv_rejects_malformed(tmp_path, text, detail):
    path = tmp_path / "rrs.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_rrs_csv(path)
    assert str(exc.value) == f"malformed RRS matrix in {path}: {detail}"
