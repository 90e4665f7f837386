"""Desk-scale trainable paragraph encoder.

A paragraph is encoded as tanh(W @ mean(token embeddings) + b): an
embedding lookup, a masked mean pool over non-padding positions, and a
single affine layer squashed through tanh, all in one batched
:func:`forward` that training and embedding share. Relevance between
paragraphs is the cosine of their vectors. The architecture is small
enough that every gradient is hand-verifiable, while keeping the contract
the rest of the pipeline depends on (paragraph -> d-vector, cosine
similarity, 256-token truncation).
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyCorpus, EmptyParagraph, ZeroVector

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1

DEFAULT_EMBED_DIM = 64
DEFAULT_MIN_FREQ = 2
DEFAULT_MAX_LEN = 256

NORM_EPS = 1e-12

_MODEL_MAGIC = b"RRENC001"
_MODEL_VERSION = 1


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-index mapping with PAD (0) and UNK (1) specials."""

    index_to_token: tuple[str, ...]
    token_to_index: dict[str, int]

    def __len__(self) -> int:
        return len(self.index_to_token)

    def indices(self, tokens: Sequence[str], max_len: int | None = None) -> np.ndarray:
        """Map tokens to vocabulary indices (unknown -> UNK), truncating."""
        if max_len is not None:
            tokens = tokens[:max_len]
        return np.array([self.token_to_index.get(t, UNK_INDEX) for t in tokens],
                        dtype=np.int64)


@dataclass
class EncoderParams:
    """Trainable parameters: token embeddings plus one affine layer.

    The PAD row of ``embed`` is all-zero and is never updated.
    """

    embed: np.ndarray   # (|V|, d)
    proj_w: np.ndarray  # (d, d)
    proj_b: np.ndarray  # (d,)

    @property
    def d(self) -> int:
        return self.embed.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.embed.shape[0]

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.embed.copy(), self.proj_w.copy(),
                             self.proj_b.copy())


def build_vocab(train_paragraphs: Iterable[Sequence[str]],
                min_freq: int = DEFAULT_MIN_FREQ) -> Vocabulary:
    """Build a vocabulary from training-split token sequences.

    Tokens below ``min_freq`` corpus frequency map to UNK. Ordering is
    deterministic: frequency descending, then token ascending.
    """
    counts: Counter[str] = Counter()
    n_sequences = 0
    for tokens in train_paragraphs:
        counts.update(tokens)
        n_sequences += 1
    if n_sequences == 0:
        raise EmptyCorpus("no training paragraphs supplied to build_vocab")
    kept = sorted((t for t, c in counts.items() if c >= min_freq),
                  key=lambda t: (-counts[t], t))
    index_to_token = (PAD_TOKEN, UNK_TOKEN) + tuple(kept)
    token_to_index = {t: i for i, t in enumerate(index_to_token)}
    return Vocabulary(index_to_token=index_to_token, token_to_index=token_to_index)


def init_params(vocab_size: int, d: int = DEFAULT_EMBED_DIM,
                rng: np.random.Generator | int | None = 0) -> EncoderParams:
    """Seeded parameter initialization; PAD embedding row stays zero."""
    if d < 2:
        raise ValueError("embedding width d must be >= 2")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    embed = rng.normal(0.0, 0.1, size=(vocab_size, d))
    embed[PAD_INDEX] = 0.0
    proj_w = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, d))
    proj_b = np.zeros(d)
    return EncoderParams(embed=embed, proj_w=proj_w, proj_b=proj_b)


def forward(params: EncoderParams,
            id_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pooled embeddings h and encoded vectors u of a (B, L) PAD-padded matrix.

    A row with no non-PAD position raises :class:`EmptyParagraph` with its
    index as ``row``.
    """
    mask = id_matrix != PAD_INDEX
    counts = mask.sum(axis=1)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise EmptyParagraph(f"row {empty[0]} has no non-padding tokens",
                             row=int(empty[0]))
    pooled = np.einsum("bl,bld->bd", mask.astype(np.float64),
                       params.embed[id_matrix])
    h = pooled / counts[:, None]
    return h, np.tanh(h @ params.proj_w.T + params.proj_b)


def encode(params: EncoderParams, token_ids: Sequence[int] | np.ndarray,
           max_len: int = DEFAULT_MAX_LEN) -> np.ndarray:
    """Encode one paragraph of vocabulary indices into a d-vector.

    A one-row :func:`forward` of the first ``max_len`` indices. Padding
    positions never influence the output.
    """
    ids = np.asarray(token_ids, dtype=np.int64)[:max_len]
    return forward(params, ids[None, :])[1][0]


def unit_rows(vectors: np.ndarray) -> np.ndarray:
    """Rows over their norms floored at NORM_EPS: cosines are unit @ unit.T."""
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    return vectors / np.maximum(norms, NORM_EPS)


def similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity of two embedding vectors, in [-1, 1].

    The denominator is sqrt(|u|^2 * |v|^2) rather than a product of two
    rounded square roots: sqrt(s*s) == s holds in IEEE-754 binary64, so
    similarity(u, u) is exactly 1.0 and similarity(u, -u) exactly -1.0.
    """
    su = float(np.dot(u, u))
    sv = float(np.dot(v, v))
    if su < NORM_EPS ** 2 or sv < NORM_EPS ** 2:
        raise ZeroVector(
            f"cosine undefined for near-zero norm ({np.sqrt(su):.3e}, {np.sqrt(sv):.3e})")
    r = float(np.dot(u, v)) / np.sqrt(su * sv)
    return max(-1.0, min(1.0, r))


def pad_batch(id_lists: Sequence[np.ndarray]) -> np.ndarray:
    """Stack variable-length index arrays into a PAD-padded matrix."""
    width = max((len(ids) for ids in id_lists), default=0)
    out = np.full((len(id_lists), width), PAD_INDEX, dtype=np.int64)
    for i, ids in enumerate(id_lists):
        out[i, :len(ids)] = ids
    return out


# --- model file format ---
#
#   offset 0   8 bytes   magic "RRENC001"
#   offset 8   u32 LE    format version (1)
#   offset 12  u32 LE    embedding width d
#   offset 16  u32 LE    vocabulary size |V|
#   offset 20  u32 LE    max_len the model was trained with
#   then |V| vocabulary entries, each: u32 LE byte length + UTF-8 token
#   then embed  (|V| x d) float64 LE, row-major
#   then proj_w (d x d)   float64 LE, row-major
#   then proj_b (d,)      float64 LE

def save_model(path: str | Path, vocab: Vocabulary, params: EncoderParams,
               max_len: int = DEFAULT_MAX_LEN) -> None:
    """Write vocabulary and parameters in the binary model format."""
    if len(vocab) != params.vocab_size:
        raise ValueError("vocabulary and embedding row count disagree")
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack("<III", _MODEL_VERSION, params.d, params.vocab_size))
        fh.write(struct.pack("<I", max_len))
        for token in vocab.index_to_token:
            raw = token.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        fh.write(np.ascontiguousarray(params.embed, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(params.proj_w, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(params.proj_b, dtype="<f8").tobytes())


def read_exact(fh, n: int, path: str | Path) -> bytes:
    """Read exactly n bytes or fail with a clear truncation error."""
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"truncated riskrel binary file: {path}")
    return data


def load_model(path: str | Path) -> tuple[Vocabulary, EncoderParams, int]:
    """Read a model file; returns (vocabulary, params, max_len)."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MODEL_MAGIC:
            raise ValueError(f"not a riskrel model file: {path}")
        version, d, vocab_size = struct.unpack("<III", read_exact(fh, 12, path))
        if version != _MODEL_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        (max_len,) = struct.unpack("<I", read_exact(fh, 4, path))
        tokens = []
        for _ in range(vocab_size):
            (length,) = struct.unpack("<I", read_exact(fh, 4, path))
            tokens.append(read_exact(fh, length, path).decode("utf-8"))
        embed = np.frombuffer(read_exact(fh, 8 * vocab_size * d, path), dtype="<f8")
        proj_w = np.frombuffer(read_exact(fh, 8 * d * d, path), dtype="<f8")
        proj_b = np.frombuffer(read_exact(fh, 8 * d, path), dtype="<f8")
    vocab = Vocabulary(index_to_token=tuple(tokens),
                       token_to_index={t: i for i, t in enumerate(tokens)})
    params = EncoderParams(
        embed=embed.reshape(vocab_size, d).astype(np.float64),
        proj_w=proj_w.reshape(d, d).astype(np.float64),
        proj_b=proj_b.astype(np.float64),
    )
    return vocab, params, max_len


def model_fingerprint(path: str | Path) -> str:
    """SHA-256 of the model file, used to tie embeddings to their model."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
