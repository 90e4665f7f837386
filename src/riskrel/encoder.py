"""Desk-scale trainable paragraph encoder.

A paragraph is encoded as tanh(W @ mean(token embeddings) + b): an
embedding lookup, a mean pool over non-padding positions, and a single
affine layer squashed through tanh, all in one batched :func:`forward` that
training and embedding share. It is the only way to encode: the vectors
``embed`` writes are those of one firm's batch
(:func:`riskrel.scoring.embed_corpus`). Relevance between paragraphs is the
cosine of their vectors. The architecture is small enough that every
gradient is hand-verifiable, while keeping the contract the rest of the
pipeline depends on (paragraph -> d-vector, cosine similarity, 256-token
truncation, which :meth:`Vocabulary.indices` alone applies).

The forward reads a batch as its token-count matrix (:class:`TokenCounts`):
the R distinct non-PAD tokens of the batch in sorted order, times how often
each occurs in each row. The rows may have any lengths, so no batch is
padded, and the matrix is counted without a sort: two bincounts over the
batch's ids cost O(max id + tokens). The pooled vectors are one product,
counts.T @ embed[rows] / lengths, and training's backward reuses the same
matrix. A row's pooled sum thus runs over its distinct tokens in vocabulary
order, a token repeated k times contributing k * x once, so the encoder is
order-invariant bit for bit: permuting a paragraph's tokens, or two rows
holding the same token multiset, gives the same bits.

The product costs B x R x d multiply-adds for the batch's R distinct
tokens, where a (B, L, d) gather-and-sum costs B x L x d, so it pays while
R stays within a few times the padded width L; its two (R, B) count
matrices stay below the gather's memory roughly while R < L x d / 2.
Measured at d = 64 over 256-token rows of Zipf tokens (one BLAS thread):
with 32-60 rows it was 1.2-1.5x faster at R = 700 and 0.5-0.8x as fast at
R = 2,000-4,600; with 500 rows it was 4.4x faster at R = 700, 0.85x at
R = 5,000 and 0.26x at R = 20,700, where it also took 160 MiB against the
gather's 64. Here a training step is 2 x 16 rows (R = 551 on average on
the bundled fixture), and a firm's batch in embedding is 60 paragraphs
over R = 51-345 tokens.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import struct
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyCorpus, EmptyParagraph

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
    """Token-to-index mapping with PAD (0) and UNK (1) specials.

    A vocabulary read by :func:`load_model` holds interned tokens, like the
    paragraphs and pairs the corpus readers return, so a token looked up in
    ``token_to_index`` is usually the very key object: its hash is cached
    and the match is by identity.
    """

    index_to_token: tuple[str, ...]
    token_to_index: dict[str, int]

    def __len__(self) -> int:
        return len(self.index_to_token)

    def indices(self, tokens: Sequence[str], max_len: int | None = None) -> np.ndarray:
        """Map tokens to vocabulary indices (unknown -> UNK), truncating."""
        if max_len is not None:
            tokens = tokens[:max_len]
        return np.fromiter(map(self.token_to_index.get, tokens, repeat(UNK_INDEX)),
                           dtype=np.int64, count=len(tokens))


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

    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The parameter blocks in field, file and optimizer order."""
        return self.embed, self.proj_w, self.proj_b

    def copy(self) -> "EncoderParams":
        return EncoderParams(*(block.copy() for block in self.blocks()))


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


@dataclass(frozen=True)
class TokenCounts:
    """The token-count matrix of B rows of vocabulary indices.

    The rows may have any lengths: a list of unpadded index arrays, or a
    PAD-padded (B, L) matrix, which iterates as its rows. ``rows`` holds the
    R distinct non-PAD vocabulary rows they read, sorted; ``counts`` (R, B)
    how often each occurs in each row, as float64; ``lengths`` (B,) each
    row's number of non-PAD entries.
    """

    rows: np.ndarray
    counts: np.ndarray
    lengths: np.ndarray

    @classmethod
    def of(cls, id_rows: Sequence[np.ndarray] | np.ndarray) -> "TokenCounts":
        """Count each row's tokens, without sorting: O(max id + tokens).

        One ``bincount`` over all the rows' ids marks the present ids, their
        running count gives each id its slot among ``rows``, and a second
        ``bincount`` over (slot, row) fills the tally. PAD (id 0) takes slot
        0, whose tally row is each row's PAD count and is then dropped. A
        row with no non-PAD entry raises :class:`EmptyParagraph` with its
        index as ``row``; a negative id is a ``ValueError`` naming it and
        its row.
        """
        b = len(id_rows)
        sizes = np.fromiter(map(len, id_rows), dtype=np.int64, count=b)
        ids = np.concatenate(id_rows) if b else np.zeros(0, dtype=np.int64)
        owner = np.repeat(np.arange(b), sizes)
        if ids.size and ids.min() < 0:
            first = int(np.argmax(ids < 0))
            raise ValueError(f"row {owner[first]} holds negative token id {ids[first]}")
        present = np.bincount(ids, minlength=1) > 0
        present[PAD_INDEX] = False
        rows = np.flatnonzero(present)
        slot = np.cumsum(present)
        tally = np.bincount(slot[ids] * b + owner,
                            minlength=(len(rows) + 1) * b).reshape(len(rows) + 1, b)
        lengths = sizes - tally[0]
        empty = np.flatnonzero(lengths == 0)
        if empty.size:
            raise EmptyParagraph(f"row {empty[0]} has no non-padding tokens",
                                 row=int(empty[0]))
        return cls(rows, tally[1:].astype(np.float64), lengths)


def forward(params: EncoderParams,
            tokens: TokenCounts) -> tuple[np.ndarray, np.ndarray]:
    """Pooled embeddings h and encoded vectors u of a batch's token counts.

    A token id at or past the vocabulary size is a ``ValueError`` naming the
    largest such id, the first row holding it and the vocabulary size.
    """
    if tokens.rows.size and tokens.rows[-1] >= params.vocab_size:
        token = tokens.rows[-1]
        row = np.flatnonzero(tokens.counts[-1])[0]
        raise ValueError(f"row {row} holds token id {token}, outside the vocabulary "
                         f"of {params.vocab_size}")
    h = tokens.counts.T @ params.embed[tokens.rows] / tokens.lengths[:, None]
    # tanh saturates: a product that overflows still encodes to +-1, and an
    # undefined one (inf - inf) to NaN, which training rejects as non-finite
    # and which never clears a scoring threshold.
    with np.errstate(over="ignore", invalid="ignore"):
        return h, np.tanh(h @ params.proj_w.T + params.proj_b)


def row_norms(vectors: np.ndarray) -> np.ndarray:
    """(n, 1) row norms floored at NORM_EPS: the one norm behind every cosine."""
    return np.maximum(np.linalg.norm(vectors, axis=1, keepdims=True), NORM_EPS)


def unit_rows(vectors: np.ndarray) -> np.ndarray:
    """Rows over their :func:`row_norms`: cosines are unit @ unit.T."""
    return vectors / row_norms(vectors)


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
        for block in params.blocks():
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def read_exact(fh, n: int, path: str | Path) -> bytes:
    """Read exactly n bytes or fail with a clear truncation error.

    A read allocates all n bytes first, so a length over the buffer size is
    checked against the rest of the file before it is read.
    """
    past_end = n > io.DEFAULT_BUFFER_SIZE and n > os.fstat(fh.fileno()).st_size - fh.tell()
    data = b"" if past_end else fh.read(n)
    if len(data) != n:
        raise ValueError(f"truncated riskrel binary file: {path}")
    return data


def load_model(path: str | Path) -> tuple[Vocabulary, EncoderParams, int]:
    """Read a model file; returns (vocabulary, params, max_len).

    Besides a wrong magic, version or length, a file no training writes is a
    ``ValueError`` naming it: fewer than two tokens, a width d below 2, a
    max_len below 1, first tokens other than PAD and UNK, an undecodable
    token, bytes after the last parameter or a non-finite parameter.
    """
    def malformed(detail: object) -> ValueError:
        return ValueError(f"malformed model file {path}: {detail}")

    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MODEL_MAGIC:
            raise ValueError(f"not a riskrel model file: {path}")
        version, d, vocab_size = struct.unpack("<III", read_exact(fh, 12, path))
        if version != _MODEL_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        for name, value in (("vocabulary size", vocab_size), ("width d", d)):
            if value < 2:
                raise malformed(f"{name} {value} < 2")
        (max_len,) = struct.unpack("<I", read_exact(fh, 4, path))
        if max_len < 1:
            raise malformed(f"max_len {max_len} < 1")
        tokens = []
        for _ in range(vocab_size):
            (length,) = struct.unpack("<I", read_exact(fh, 4, path))
            try:
                tokens.append(sys.intern(read_exact(fh, length, path).decode("utf-8")))
            except UnicodeDecodeError as exc:
                raise malformed(f"token {len(tokens)}: {exc}") from None
        if tokens[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise malformed(f"first tokens {tokens[:2]} are not {[PAD_TOKEN, UNK_TOKEN]}")
        blocks = [np.frombuffer(read_exact(fh, 8 * math.prod(shape), path), dtype="<f8")
                  .reshape(shape).astype(np.float64)
                  for shape in ((vocab_size, d), (d, d), (d,))]
        if fh.read(1):
            raise malformed("bytes after the last parameter")
    if not all(np.isfinite(block).all() for block in blocks):
        raise malformed("parameters must be finite")
    vocab = Vocabulary(index_to_token=tuple(tokens),
                       token_to_index={t: i for i, t in enumerate(tokens)})
    return vocab, EncoderParams(*blocks), max_len


def model_fingerprint(path: str | Path) -> str:
    """SHA-256 of the model file, used to tie embeddings to their model."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
