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
import math
import struct
import sys
from collections import Counter
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-index mapping with PAD (0) and UNK (1) specials.

    The derived ``token_to_index`` maps every token but PAD: a PAD id in a
    row is padding, a text token ``<pad>`` is UNK. Tokens read by
    :func:`load_model` are interned, like the corpus readers' tokens, so a
    looked-up token is usually the very key object: its hash is cached and
    the match is by identity.
    """

    index_to_token: tuple[str, ...]
    token_to_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "token_to_index", {
            token: i for i, token in enumerate(self.index_to_token) if i != PAD_INDEX})

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

    Tokens below ``min_freq`` corpus frequency map to UNK, and so do a
    ``<pad>`` and an ``<unk>`` in the text, never entries of their own.
    Ordering is deterministic: frequency descending, then token ascending.
    """
    counts: Counter[str] = Counter()
    n_sequences = 0
    for tokens in train_paragraphs:
        counts.update(tokens)
        n_sequences += 1
    if n_sequences == 0:
        raise EmptyCorpus("no training paragraphs supplied to build_vocab")
    kept = sorted((t for t, c in counts.items()
                   if c >= min_freq and t not in (PAD_TOKEN, UNK_TOKEN)),
                  key=lambda t: (-counts[t], t))
    return Vocabulary(index_to_token=(PAD_TOKEN, UNK_TOKEN) + tuple(kept))


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


# --- the riskrel binary container: model.bin and embeddings.bin ---
#
# An 8-byte magic ("RRENC001" model, "RREMB001" embeddings), the u32 LE format
# version (1), then the kind's u32 LE fields, texts (u32 LE byte length +
# encoded bytes) and row-major float64 LE blocks, read and written only here:
#
#   model       d, |V|, max_len; |V| UTF-8 tokens; embed (|V| x d), proj_w
#               (d x d), proj_b (d,)
#   embeddings  d, max_len, firm count; the model fingerprint (ASCII); per
#               firm, sorted, its id, a u32 LE paragraph count (at least 1)
#               and per paragraph, in id order, its id and d values (riskrel.scoring)

_VERSION = 1
U32_MAX = 2 ** 32 - 1  # the largest value of a u32 field, such as max_len


def _pack_header(magic: bytes, *fields: int) -> bytes:
    return magic + struct.pack(f"<{len(fields) + 1}I", _VERSION, *fields)


def _pack_text(value: str, encoding: str = "utf-8") -> bytes:
    raw = value.encode(encoding)
    return len(raw).to_bytes(4, "little") + raw


class _Reader:
    """A riskrel binary file of one kind, read whole once its magic matches.

    A field past the end is the one truncation error; a text that does not
    decode raises ``UnicodeDecodeError``."""

    def __init__(self, path: str | Path, kind: str, magic: bytes) -> None:
        self.path, self.kind = path, kind
        with open(path, "rb") as fh:
            if fh.read(8) != magic:
                raise ValueError(f"not a riskrel {kind} file: {path}")
            self.data = fh.read()
        self.pos = 0
        (version,) = self.u32s(1)
        if version != _VERSION:
            raise ValueError(f"unsupported {kind} format version {version}")

    def malformed(self, detail: object) -> ValueError:
        return ValueError(f"malformed {self.kind} file {self.path}: {detail}")

    def truncated(self) -> ValueError:
        return ValueError(f"truncated riskrel binary file: {self.path}")

    def take(self, n: int) -> bytes:
        start = self.pos
        self.pos += n
        if self.pos > len(self.data):
            raise self.truncated()
        return self.data[start:self.pos]

    def u32s(self, n: int) -> tuple[int, ...]:
        return struct.unpack(f"<{n}I", self.take(4 * n))

    def text(self, encoding: str = "utf-8") -> str:
        # Self-contained, not a take() per field: load_model reads a text per token.
        start = self.pos + 4
        self.pos = start + int.from_bytes(self.data[start - 4:start], "little")
        if self.pos > len(self.data):
            raise self.truncated()
        return self.data[start:self.pos].decode(encoding)

    def floats(self, *shape: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * math.prod(shape)), "<f8").reshape(shape).astype(float)

    def end(self, last: str) -> None:
        if self.pos != len(self.data):
            raise self.malformed(f"bytes after the last {last}")


def save_model(path: str | Path, vocab: Vocabulary, params: EncoderParams,
               max_len: int = DEFAULT_MAX_LEN) -> None:
    """Write vocabulary and parameters in the binary model format."""
    if len(vocab) != params.vocab_size:
        raise ValueError("vocabulary and embedding row count disagree")
    Path(path).write_bytes(b"".join([
        _pack_header(_MODEL_MAGIC, params.d, params.vocab_size, max_len),
        *map(_pack_text, vocab.index_to_token),
        *(np.ascontiguousarray(block, dtype="<f8") for block in params.blocks())]))


def load_model(path: str | Path) -> tuple[Vocabulary, EncoderParams, int]:
    """Read a model file; returns (vocabulary, params, max_len).

    Besides a wrong magic, version or length, a file no training writes is a
    ``ValueError`` naming it: fewer than two tokens, a width d below 2, a
    max_len below 1, first tokens other than PAD and UNK, a repeated or
    undecodable token, bytes after the last parameter or a non-finite
    parameter.
    """
    r = _Reader(path, "model", _MODEL_MAGIC)
    d, vocab_size, max_len = r.u32s(3)
    for name, value, least in (("vocabulary size", vocab_size, 2), ("width d", d, 2),
                               ("max_len", max_len, 1)):
        if value < least:
            raise r.malformed(f"{name} {value} < {least}")
    tokens: list[str] = []
    try:
        for _ in range(vocab_size):
            tokens.append(sys.intern(r.text()))
    except UnicodeDecodeError as exc:
        raise r.malformed(f"token {len(tokens)}: {exc}") from None
    if tokens[:2] != [PAD_TOKEN, UNK_TOKEN]:
        raise r.malformed(f"first tokens {tokens[:2]} are not {[PAD_TOKEN, UNK_TOKEN]}")
    repeated = [t for t, n in Counter(tokens).items() if n > 1]
    if repeated:
        raise r.malformed(f"token {repeated[0]!r} repeated")
    blocks = [r.floats(vocab_size, d), r.floats(d, d), r.floats(d)]
    r.end("parameter")
    if not all(np.isfinite(block).all() for block in blocks):
        raise r.malformed("parameters must be finite")
    return Vocabulary(index_to_token=tuple(tokens)), EncoderParams(*blocks), max_len


def model_fingerprint(path: str | Path) -> str:
    """SHA-256 of the model file, used to tie embeddings to their model."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
