"""Encoder: vocabulary, forward pass, row norms, model file format."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskrel import encoder
from riskrel.corpus import Paragraph
from riskrel.encoder import (
    PAD_INDEX,
    UNK_INDEX,
    EncoderParams,
    build_vocab,
    forward,
    init_params,
    load_model,
    model_fingerprint,
    pad_batch,
    save_model,
)
from riskrel.errors import EmptyCorpus, EmptyParagraph
from riskrel.scoring import embed_corpus


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


def test_vocab_keeps_no_special_token_as_a_training_token():
    vocab = build_vocab([["<pad>", "<unk>", "a"], ["<unk>", "<pad>", "a"]], min_freq=1)
    assert vocab.index_to_token == ("<pad>", "<unk>", "a")
    assert vocab.token_to_index == {"<unk>": UNK_INDEX, "a": 2}


def test_vocab_derives_its_lookup_and_reads_a_pad_token_as_unknown():
    vocab = encoder.Vocabulary(("<pad>", "<unk>", "risk"))
    assert vocab.token_to_index == {"<unk>": UNK_INDEX, "risk": 2}
    assert vocab.indices(["<pad>"]).tolist() == [UNK_INDEX]
    assert vocab.indices(["<pad>", "risk", "<unk>"]).tolist() == [UNK_INDEX, 2, UNK_INDEX]
    with pytest.raises(TypeError):
        encoder.Vocabulary(("<pad>", "<unk>"), token_to_index={"<pad>": PAD_INDEX})


def test_all_pad_paragraph_embeds_as_an_all_unk_one():
    vocab = build_vocab([["risk", "risk"]], min_freq=1)
    params = init_params(len(vocab), d=8, rng=2)
    firm = [Paragraph(f"A:2023:1A:000{k}", "A", 2023, "1A", "", tokens)
            for k, tokens in enumerate([("<pad>",) * 3, ("<unk>",) * 3,
                                        ("<pad>", "risk"), ("risk", "<unk>")])]
    all_pad, all_unk, pad_risk, risk_unk = embed_corpus(vocab, params, [firm]).firms["A"][1]
    assert all_pad.tobytes() == all_unk.tobytes()
    assert pad_risk.tobytes() == risk_unk.tobytes()


def test_vocab_indices_truncate():
    vocab = build_vocab([["a", "a"]], min_freq=1)
    assert len(vocab.indices(["a"] * 10, max_len=4)) == 4


# --- encoding: forward ---

def _one_row(params, ids):
    """The encoded vector of a batch of one row of ids."""
    return forward(params, encoder.TokenCounts.of([np.asarray(ids, dtype=np.int64)]))[1][0]


def _tiny_params():
    # d=2, one real token at index 2 with embedding [1, 0], identity head
    embed = np.zeros((3, 2))
    embed[2] = [1.0, 0.0]
    embed[UNK_INDEX] = [0.25, -0.5]
    return EncoderParams(embed=embed, proj_w=np.eye(2), proj_b=np.zeros(2))


def test_encode_single_token_identity_head():
    out = _one_row(_tiny_params(), [2])
    assert out == pytest.approx([math.tanh(1.0), 0.0], abs=1e-15)
    assert out[0] == pytest.approx(0.7615941559557649, abs=1e-15)


def test_encode_identical_tokens_mean_is_row():
    params = _tiny_params()
    assert np.array_equal(_one_row(params, [2, 2, 2]), _one_row(params, [2]))


def test_encode_empty_errors():
    with pytest.raises(EmptyParagraph):
        _one_row(_tiny_params(), [])
    with pytest.raises(EmptyParagraph):
        _one_row(_tiny_params(), [PAD_INDEX, PAD_INDEX])


def test_encode_trailing_pad_invariant():
    params = init_params(vocab_size=20, d=8, rng=1)
    ids = [3, 5, 7, 11]
    with_pad = ids + [PAD_INDEX] * 6
    assert np.array_equal(_one_row(params, ids), _one_row(params, with_pad))


def test_encode_truncation_contract():
    """Vocabulary.indices is the one truncation: at max_len 5, embedding
    encodes a paragraph as its first 5 tokens, to the bit."""
    tokens = tuple("abcdefghijkl")
    vocab = build_vocab([tokens], min_freq=1)
    firm = [Paragraph(f"A:2023:1A:000{k}", "A", 2023, "1A", "", side)
            for k, side in enumerate((tokens, tokens[:5]))]
    index = embed_corpus(vocab, init_params(len(vocab), d=8, rng=2), [firm], max_len=5)
    full, first_five = index.firms["A"][1]
    assert full.tobytes() == first_five.tobytes()


def test_encode_output_within_tanh_range():
    params = init_params(vocab_size=50, d=16, rng=3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        ids = rng.integers(1, 50, size=rng.integers(1, 40))
        out = _one_row(params, ids)
        assert np.all(out > -1.0) and np.all(out < 1.0)


def test_encode_batch_matches_single():
    params = init_params(vocab_size=30, d=8, rng=4)
    rows = [np.array([2, 3, 4]), np.array([5, 6]), np.array([7, 8, 9, 10])]
    h, batch_out = forward(params, encoder.TokenCounts.of(pad_batch(rows)))
    for k, ids in enumerate(rows):
        assert batch_out[k] == pytest.approx(_one_row(params, ids), abs=1e-15)
        assert h[k] == pytest.approx(params.embed[ids].mean(axis=0), abs=1e-15)


def test_token_counts_of_a_padded_matrix():
    tokens = encoder.TokenCounts.of(np.array([[4, 2, 4, PAD_INDEX], [2, PAD_INDEX, 7, 7]]))
    assert tokens.rows.tolist() == [2, 4, 7]
    assert tokens.counts.tolist() == [[1.0, 1.0], [2.0, 0.0], [0.0, 2.0]]
    assert tokens.lengths.tolist() == [3, 3]
    with pytest.raises(EmptyParagraph, match="^row 1 has no non-padding tokens$") as exc:
        encoder.TokenCounts.of(np.array([[3, PAD_INDEX], [PAD_INDEX, PAD_INDEX]]))
    assert exc.value.row == 1


def _unique_token_counts(id_matrix):
    """The sorting count of a padded matrix that TokenCounts.of replaced:
    (rows, counts, lengths), or the EmptyParagraph it raised."""
    b = id_matrix.shape[0]
    row, col = np.nonzero(id_matrix != PAD_INDEX)
    rows, inverse = np.unique(id_matrix[row, col], return_inverse=True)
    tally = np.bincount(inverse * b + row,
                        minlength=len(rows) * b).reshape(len(rows), b)
    lengths = tally.sum(axis=0)
    empty = np.flatnonzero(lengths == 0)
    if empty.size:
        return EmptyParagraph(f"row {empty[0]} has no non-padding tokens", row=int(empty[0]))
    return rows, tally.astype(np.float64), lengths


def _counted(id_rows):
    try:
        tokens = encoder.TokenCounts.of(id_rows)
    except EmptyParagraph as exc:
        return exc
    return tokens.rows, tokens.counts, tokens.lengths


def _same(got, want):
    if isinstance(want, EmptyParagraph):
        return (isinstance(got, EmptyParagraph) and str(got) == str(want)
                and got.row == want.row)
    return not isinstance(got, EmptyParagraph) and all(
        (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())
        for g, w in zip(got, want))


# Ids that are PAD, repeat within and across rows, or reach a few thousand;
# a row may be empty or all PAD.
_ID = st.one_of(st.just(PAD_INDEX), st.integers(1, 8), st.integers(1, 3000))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(_ID, max_size=30), max_size=8))
@example(rows=[])
@example(rows=[[5, PAD_INDEX, 2999, 5], [PAD_INDEX, PAD_INDEX], [7]])
def test_token_counts_equal_the_sorting_count_bit_for_bit(rows):
    """Unpadded rows and their padded matrix count exactly as np.unique
    counted the padded matrix, including B = 0 and the first empty row."""
    id_rows = [np.array(row, dtype=np.int64) for row in rows]
    want = _unique_token_counts(pad_batch(id_rows))
    assert _same(_counted(id_rows), want)
    assert _same(_counted(pad_batch(id_rows)), want)


@pytest.mark.parametrize("id_rows, message", [
    ([np.array([3, 4]), np.array([2, -1, 5])], "^row 1 holds negative token id -1$"),
    (np.array([[-7, 2], [3, PAD_INDEX]]), "^row 0 holds negative token id -7$"),
])
def test_token_counts_reject_a_negative_id_naming_its_row(id_rows, message):
    with pytest.raises(ValueError, match=message):
        encoder.TokenCounts.of(id_rows)


def test_encode_rejects_a_negative_id():
    """Numpy would read a negative id from the end of the embedding table."""
    with pytest.raises(ValueError, match="^row 0 holds negative token id -1$"):
        _one_row(init_params(vocab_size=10, d=4, rng=0), [-1])


def test_encode_rejects_an_id_outside_the_vocabulary():
    """Numpy would end in a bare IndexError naming neither the row nor the model."""
    with pytest.raises(ValueError,
                       match="^row 0 holds token id 10, outside the vocabulary of 10$"):
        _one_row(init_params(vocab_size=10, d=4, rng=0), [3, 10])


def test_forward_names_the_largest_id_outside_the_vocabulary_and_its_row():
    tokens = encoder.TokenCounts.of([np.array([3, 9]), np.array([2, 12, 11]),
                                     np.array([12, 1])])
    with pytest.raises(ValueError,
                       match="^row 1 holds token id 12, outside the vocabulary of 10$"):
        forward(init_params(vocab_size=10, d=4, rng=0), tokens)


# Paragraphs over a small vocabulary, so tokens repeat; PAD (0) may sit
# anywhere, but every paragraph keeps at least one real token.
_VOCAB = 12
_PARAGRAPH = st.lists(st.integers(0, _VOCAB - 1), min_size=1, max_size=40).filter(any)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.integers(2, 16), seed=st.integers(0, 2 ** 32 - 1))
def test_encode_is_order_invariant_bit_for_bit(data, d, seed):
    params = init_params(_VOCAB, d=d, rng=seed)
    ids = data.draw(_PARAGRAPH, label="ids")
    shuffled = data.draw(st.permutations(ids), label="shuffled")
    assert _one_row(params, shuffled).tobytes() == _one_row(params, ids).tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.integers(2, 16), seed=st.integers(0, 2 ** 32 - 1))
def test_rows_of_one_token_multiset_forward_alike_bit_for_bit(data, d, seed):
    """Two rows of one batch holding the same tokens in different orders
    get the same pooled and encoded bits, wherever they sit in the batch."""
    params = init_params(_VOCAB, d=d, rng=seed)
    rows = data.draw(st.lists(_PARAGRAPH, min_size=1, max_size=8), label="rows")
    k = data.draw(st.integers(0, len(rows) - 1), label="k")
    j = data.draw(st.integers(0, len(rows)), label="j")
    rows.insert(j, data.draw(st.permutations(rows[k]), label="shuffled"))
    k += k >= j
    h, u = forward(params, encoder.TokenCounts.of(pad_batch([np.array(r) for r in rows])))
    assert h[j].tobytes() == h[k].tobytes()
    assert u[j].tobytes() == u[k].tobytes()


# --- cosine ---

def test_unit_rows_floor_a_zero_row_at_norm_eps():
    vectors = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert encoder.row_norms(vectors).tolist() == [[5.0], [encoder.NORM_EPS]]
    assert encoder.unit_rows(vectors).tolist() == [[0.6, 0.8], [0.0, 0.0]]


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


def _model_bytes(d, tokens, value=0.5, vocab_size=None, max_len=256):
    """A model file of these tokens whose every parameter is ``value``."""
    size = len(tokens) if vocab_size is None else vocab_size
    return (b"RRENC001" + struct.pack("<IIII", 1, d, size, max_len)
            + b"".join(struct.pack("<I", len(t)) + t for t in tokens)
            + np.full(len(tokens) * d + d * d + d, value, dtype="<f8").tobytes())


_MODEL_FILE = _model_bytes(4, [b"<pad>", b"<unk>", b"a", b"b"])


@pytest.mark.parametrize("cut", range(len(_MODEL_FILE)))
def test_model_rejects_truncated_file(tmp_path, cut):
    """Every proper prefix: no magic below 8 bytes, then the one truncation error."""
    path = tmp_path / "clipped.bin"
    path.write_bytes(_MODEL_FILE[:cut])
    with pytest.raises(ValueError) as exc:
        load_model(path)
    expected = "not a riskrel model file" if cut < 8 else "truncated riskrel binary file"
    assert str(exc.value) == f"{expected}: {path}"


def test_model_bytes_helper_writes_what_save_model_writes(tmp_path):
    vocab = build_vocab([["a", "a"]], min_freq=1)
    params = init_params(len(vocab), d=2, rng=0)
    for block in (params.embed, params.proj_w, params.proj_b):
        block[...] = 0.5
    save_model(tmp_path / "model.bin", vocab, params)
    assert (tmp_path / "model.bin").read_bytes() == _model_bytes(2, [b"<pad>", b"<unk>", b"a"])


@pytest.mark.parametrize("raw, detail", [
    (_model_bytes(4, [], vocab_size=0), "vocabulary size 0 < 2"),
    (_model_bytes(4, [b"<pad>"]), "vocabulary size 1 < 2"),
    (_model_bytes(0, [b"<pad>", b"<unk>", b"a"]), "width d 0 < 2"),
    (_model_bytes(1, [b"<pad>", b"<unk>", b"a"]), "width d 1 < 2"),
    (_model_bytes(2, [b"<pad>", b"<unk>", b"a"], max_len=0), "max_len 0 < 1"),
    (_model_bytes(2, [b"<unk>", b"<pad>", b"a"]),
     "first tokens ['<unk>', '<pad>'] are not ['<pad>', '<unk>']"),
    (_model_bytes(2, [b"<pad>", b"<unk>", b"\xff"]),
     "token 2: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (_model_bytes(2, [b"<pad>", b"<unk>", b"<pad>", b"a"]), "token '<pad>' repeated"),
    (_model_bytes(2, [b"<pad>", b"<unk>", b"a", b"b", b"b", b"a"]), "token 'a' repeated"),
    (_model_bytes(2, [b"<pad>", b"<unk>"], value=math.inf), "parameters must be finite"),
    (_model_bytes(2, [b"<pad>", b"<unk>"], value=math.nan), "parameters must be finite"),
    (_model_bytes(2, [b"<pad>", b"<unk>"]) + b"\0", "bytes after the last parameter"),
], ids=["no_tokens", "one_token", "d0", "d1", "max_len_0", "specials_swapped",
        "undecodable_token", "repeated_special", "repeated_token", "inf", "nan", "trailing_bytes"])
def test_model_rejects_what_no_training_writes(tmp_path, raw, detail):
    path = tmp_path / "model.bin"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as exc:
        load_model(path)
    assert str(exc.value) == f"malformed model file {path}: {detail}"


def test_model_length_past_the_end_is_truncated_not_allocated(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"RRENC001" + struct.pack("<IIII", 1, 2**32 - 1, 2, 256)
                     + b"\x05\0\0\0<pad>\x05\0\0\0<unk>" + bytes(200))
    with pytest.raises(ValueError, match="^truncated riskrel binary file"):
        load_model(path)


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
