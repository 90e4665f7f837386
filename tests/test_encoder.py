"""Encoder: vocabulary, forward pass, cosine similarity, model file format."""

import math

import numpy as np
import pytest

from riskrel import encoder
from riskrel.encoder import (
    PAD_INDEX,
    UNK_INDEX,
    EncoderParams,
    build_vocab,
    encode,
    forward,
    init_params,
    load_model,
    model_fingerprint,
    pad_batch,
    save_model,
    similarity,
)
from riskrel.errors import EmptyCorpus, EmptyParagraph, ZeroVector


# --- vocabulary ---

def test_vocab_frequency_floor():
    vocab = build_vocab([["a", "a", "b"]], min_freq=2)
    assert "a" in vocab.token_to_index
    assert "b" not in vocab.token_to_index
    assert vocab.indices(["b"]).tolist() == [UNK_INDEX]


def test_vocab_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_vocab([], min_freq=1)


def test_vocab_deterministic():
    docs = [["risk", "supply", "risk"], ["supply", "chain", "chain", "risk"]]
    assert build_vocab(docs, 1).index_to_token == build_vocab(docs, 1).index_to_token


def test_vocab_ordering_freq_desc_then_token_asc():
    vocab = build_vocab([["b", "b", "a", "a", "c"]], min_freq=1)
    # PAD, UNK, then a/b tied at 2 sorted ascending, then c
    assert vocab.index_to_token == ("<pad>", "<unk>", "a", "b", "c")


def test_vocab_indices_truncate():
    vocab = build_vocab([["a", "a"]], min_freq=1)
    assert len(vocab.indices(["a"] * 10, max_len=4)) == 4


# --- encode ---

def _tiny_params():
    # d=2, one real token at index 2 with embedding [1, 0], identity head
    embed = np.zeros((3, 2))
    embed[2] = [1.0, 0.0]
    embed[UNK_INDEX] = [0.25, -0.5]
    return EncoderParams(embed=embed, proj_w=np.eye(2), proj_b=np.zeros(2))


def test_encode_single_token_identity_head():
    out = encode(_tiny_params(), [2])
    assert out == pytest.approx([math.tanh(1.0), 0.0], abs=1e-15)
    assert out[0] == pytest.approx(0.7615941559557649, abs=1e-15)


def test_encode_identical_tokens_mean_is_row():
    params = _tiny_params()
    assert np.array_equal(encode(params, [2, 2, 2]), encode(params, [2]))


def test_encode_empty_errors():
    with pytest.raises(EmptyParagraph):
        encode(_tiny_params(), [])
    with pytest.raises(EmptyParagraph):
        encode(_tiny_params(), [PAD_INDEX, PAD_INDEX])


def test_encode_trailing_pad_invariant():
    params = init_params(vocab_size=20, d=8, rng=1)
    ids = [3, 5, 7, 11]
    with_pad = ids + [PAD_INDEX] * 6
    assert np.array_equal(encode(params, ids), encode(params, with_pad))


def test_encode_truncation_contract():
    params = init_params(vocab_size=20, d=8, rng=2)
    ids = list(range(2, 14))
    assert np.array_equal(encode(params, ids, max_len=5),
                          encode(params, ids[:5], max_len=5))


def test_encode_output_within_tanh_range():
    params = init_params(vocab_size=50, d=16, rng=3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        ids = rng.integers(1, 50, size=rng.integers(1, 40))
        out = encode(params, ids)
        assert np.all(out > -1.0) and np.all(out < 1.0)


def test_encode_batch_matches_single():
    params = init_params(vocab_size=30, d=8, rng=4)
    rows = [np.array([2, 3, 4]), np.array([5, 6]), np.array([7, 8, 9, 10])]
    h, batch_out = forward(params, pad_batch(rows))
    for k, ids in enumerate(rows):
        assert batch_out[k] == pytest.approx(encode(params, ids), abs=1e-15)
        assert h[k] == pytest.approx(params.embed[ids].mean(axis=0), abs=1e-15)


# --- similarity ---

def test_similarity_self_is_one():
    u = np.array([0.3, -1.2, 0.5])
    assert similarity(u, u) == 1.0


def test_similarity_self_exactly_one_on_random_vectors():
    # sqrt(s)**2 != s for roughly half of all doubles; the implementation
    # must use the sqrt(s*s) form so the identity case is exact.
    rng = np.random.default_rng(42)
    for _ in range(500):
        u = rng.normal(size=int(rng.integers(2, 12)))
        assert similarity(u, u) == 1.0
        assert similarity(u, -u) == -1.0


def test_similarity_antipodal():
    u = np.array([0.3, -1.2, 0.5])
    assert similarity(u, -u) == -1.0


def test_similarity_orthogonal():
    assert similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_similarity_symmetric_exact():
    rng = np.random.default_rng(5)
    for _ in range(200):
        u, v = rng.normal(size=(2, 12))
        assert similarity(u, v) == similarity(v, u)


def test_similarity_scale_invariant():
    rng = np.random.default_rng(6)
    for _ in range(100):
        u, v = rng.normal(size=(2, 6))
        c = float(rng.uniform(0.01, 100.0))
        assert abs(similarity(c * u, v) - similarity(u, v)) <= 1e-12


def test_similarity_zero_vector_errors():
    with pytest.raises(ZeroVector):
        similarity(np.zeros(4), np.ones(4))


# --- model file ---

def test_model_roundtrip(tmp_path):
    vocab = build_vocab([["alpha", "beta", "alpha", "gamma", "beta"]], min_freq=1)
    params = init_params(len(vocab), d=6, rng=7)
    path = tmp_path / "model.bin"
    save_model(path, vocab, params, max_len=128)
    vocab2, params2, max_len = load_model(path)
    assert vocab2.index_to_token == vocab.index_to_token
    assert max_len == 128
    assert np.array_equal(params2.embed, params.embed)
    assert np.array_equal(params2.proj_w, params.proj_w)
    assert np.array_equal(params2.proj_b, params.proj_b)


def test_model_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a model at all")
    with pytest.raises(ValueError):
        load_model(path)


def test_model_rejects_truncated_file(tmp_path):
    vocab = build_vocab([["a", "a", "b", "b"]], min_freq=1)
    path = tmp_path / "model.bin"
    save_model(path, vocab, init_params(len(vocab), d=4, rng=0))
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(path.read_bytes()[:40])
    with pytest.raises(ValueError, match="truncated"):
        load_model(clipped)


def test_model_fingerprint_tracks_content(tmp_path):
    vocab = build_vocab([["a", "a", "b", "b"]], min_freq=1)
    p1, p2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
    save_model(p1, vocab, init_params(len(vocab), d=4, rng=0))
    save_model(p2, vocab, init_params(len(vocab), d=4, rng=1))
    assert model_fingerprint(p1) != model_fingerprint(p2)
    p3 = tmp_path / "m3.bin"
    save_model(p3, vocab, init_params(len(vocab), d=4, rng=0))
    assert model_fingerprint(p1) == model_fingerprint(p3)


def test_pad_row_zero_after_init():
    params = init_params(vocab_size=10, d=4, rng=8)
    assert np.array_equal(params.embed[PAD_INDEX], np.zeros(4))


def test_init_rejects_tiny_width():
    with pytest.raises(ValueError):
        init_params(vocab_size=4, d=1)
