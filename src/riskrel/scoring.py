"""Risk relation scoring: mutual risk paragraphs and the RRS.

Two paragraphs discuss similar risk content when the cosine of their
encoder vectors meets a threshold. A paragraph of firm A is a mutual risk
paragraph (MRP) when at least one paragraph of firm B clears the
threshold with it, and vice versa; the risk relation score is the
fraction of both firms' paragraphs that are MRPs:

    rrs(A, B) = (|MRPs_A| + |MRPs_B|) / (N_A + N_B)

The score is symmetric, lives in [0, 1], and every contributing paragraph
pair is retained as inspectable evidence. A threshold is a whole number of
hundredths in [0, 1] (:func:`hundredths`), so its two-decimal label
(:func:`threshold_label`) names it exactly wherever it is printed.

Search is exact all-pairs, one similarity block per pair of an index's
sorted firms, in one order (:func:`firm_pairs`). Whether a paragraph is an
MRP at threshold t depends only on its maximum cosine to the other firm, so
the matrix and the threshold sweep compute each block once and keep just
those maxima, one flat array for all pairs (:class:`MaxSimTable`); a pair's
MRP count at any threshold is then the number of its maxima that reach it,
one ``np.add.reduceat`` over all pairs. Exactness is the contract: every
block is the same ``unit(A) @ unit(B).T`` product, firms in sorted order,
that :func:`find_mrps` uses, so the table's counts and RRS values equal
find_mrps's bit for bit, ties at the threshold included.

A pair's evidence stays as positions from the similarity block to the file:
:func:`find_mrps` returns each qualifying cross pair as its row in the first
firm, its column in the second and its similarity, three aligned arrays of an
:class:`MrpResult`, whose MRP sets, RRS and ``(id_a, id_b, similarity)``
tuples are views of them.

Evidence files are JSON in ``json.dumps(..., indent=2, ensure_ascii=False)``
layout, but not written by ``json``: CPython serves ``indent`` only from its
pure-Python encoder, which was most of ``score``'s time. Entries hold ids and
the similarity only; a paragraph's text is written once per document, in a
``texts`` object after the evidence, however many entries name it. The
writer (:func:`write_evidence_files`) gives the same bytes with ``json``'s
own string escaping and float ``repr``: each id's and text's JSON literal is
escaped and UTF-8 encoded once per run into a byte cache, each firm's ids
become entry literals with the entry's fixed keys joined on once per run, and a
document's entries are those literals indexed by its rows and columns and
interleaved with the similarities by ``zip``, with no Python loop over entries,
in one ``b"".join`` written at once. A document's similarities are written by
:func:`_json_numbers`: from ``_VECTOR_MIN`` values up, an exact integer kernel
(:func:`_shortest_reprs`) writes ``float.__repr__``'s digits for those in
[0.1, 1) with 15 to 17 of them, and :func:`_json_number`, the one scalar
formatter, writes the rest; a shorter document takes one ``float.__repr__``
map. :func:`mrp_result_to_dict` stays the dict view and the writer's test oracle.
The writer makes each document whole before it opens the file, and stages
nothing itself: ``score`` stages the evidence directory
(:mod:`riskrel.outputs`), so a failed ``score`` publishes no document. This
module alone names (:func:`evidence_path`), reads (:func:`read_evidence`)
and renders (:func:`render_evidence`) evidence documents.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import Paragraph, _csv_cell, check_firm_id, group_by_firm, read_lines, write_csv
from .encoder import (
    DEFAULT_MAX_LEN,
    EncoderParams,
    TokenCounts,
    Vocabulary,
    _pack_header,
    _pack_text,
    _Reader,
    forward,
    unit_rows,
)
from .errors import EmptyParagraph

DEFAULT_THRESHOLD = 0.75

_EMB_MAGIC = b"RREMB001"


@dataclass(frozen=True)
class EmbeddingIndex:
    """Per-firm paragraph ids and embedding matrices from one model, checked
    once, when made: a firm's vectors have one row per id, and every firm with
    rows has one width :attr:`d` (0 if none has rows), else a ``ValueError``
    naming the first such firm in sorted order.
    No paragraph id appears twice, in one firm or across two, else a ``ValueError``
    (``paragraph id 'A:1' repeated``). :attr:`units` and :attr:`ranks` are made
    on first use."""

    firms: dict[str, tuple[list[str], np.ndarray]]
    model_fingerprint: str = ""
    max_len: int = DEFAULT_MAX_LEN
    d: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        d = None  # until a firm with rows is seen
        seen: set[str] = set()
        for firm in self.firm_ids():
            ids, vectors = self.firms[firm]
            if vectors.ndim != 2 or vectors.shape[0] != len(ids):
                raise ValueError(f"firm {firm!r} needs one vector row per id: "
                                 f"{len(ids)} ids, vectors of shape {vectors.shape}")
            if ids and d is None:
                d = vectors.shape[1]
            elif ids and vectors.shape[1] != d:
                raise ValueError(f"firm {firm!r} has vectors of width "
                                 f"{vectors.shape[1]}, not {d}")
            for pid in ids:
                if pid in seen:
                    raise ValueError(f"paragraph id {pid!r} repeated")
                seen.add(pid)
        object.__setattr__(self, "d", d or 0)

    def firm_ids(self) -> list[str]:
        return sorted(self.firms)

    @cached_property
    def units(self) -> dict[str, np.ndarray]:
        """Each firm's vectors over their row norms (:func:`unit_rows`)."""
        return {firm: unit_rows(vectors) for firm, (_, vectors) in self.firms.items()}

    @cached_property
    def ranks(self) -> dict[str, np.ndarray]:
        """Each firm's ids' ranks among its ids in str order, one per row."""
        return {firm: _id_ranks(ids) for firm, (ids, _) in self.firms.items()}


@dataclass(frozen=True, eq=False)
class MrpResult:
    """One firm pair's evidence as hit positions, and the views derived from them.

    Entry k of the evidence is the paragraph pair ``(ids_a[rows[k]],
    ids_b[cols[k]])`` with cosine ``sims[k]``; ``rows`` and ``cols`` are made
    ``intp`` arrays and ``sims`` a float64 array. The counts, the MRP sets, the
    RRS and the :attr:`evidence` tuples are read from these alone, so they
    cannot disagree. (``eq=False``: ``==`` of two arrays has no one truth value.)
    """

    firm_a: str
    firm_b: str
    threshold: float
    ids_a: Sequence[str]
    ids_b: Sequence[str]
    rows: np.ndarray
    cols: np.ndarray
    sims: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("rows", np.intp), ("cols", np.intp), ("sims", np.float64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))

    @property
    def n_a(self) -> int:
        return len(self.ids_a)

    @property
    def n_b(self) -> int:
        return len(self.ids_b)

    @cached_property
    def mrps_a(self) -> tuple[str, ...]:
        """The ids of ``firm_a`` that the evidence names, sorted."""
        hit = np.flatnonzero(np.bincount(self.rows, minlength=self.n_a))
        return tuple(sorted(map(self.ids_a.__getitem__, hit.tolist())))

    @cached_property
    def mrps_b(self) -> tuple[str, ...]:
        """The ids of ``firm_b`` that the evidence names, sorted."""
        hit = np.flatnonzero(np.bincount(self.cols, minlength=self.n_b))
        return tuple(sorted(map(self.ids_b.__getitem__, hit.tolist())))

    @property
    def rrs(self) -> float:
        return rrs(len(self.mrps_a) + len(self.mrps_b), self.n_a, self.n_b)

    @property
    def evidence(self) -> list[tuple[str, str, float]]:
        """A new list of ``(id_a, id_b, similarity)``, one per entry, in order."""
        return list(zip(map(self.ids_a.__getitem__, self.rows.tolist()),
                        map(self.ids_b.__getitem__, self.cols.tolist()), self.sims.tolist()))


def rrs(mrp_count: int | np.ndarray, n_a: int | np.ndarray,
        n_b: int | np.ndarray) -> float | np.ndarray:
    """Proportion of mutual risk paragraphs over both firms' paragraphs.

    Ints give a float; integer arrays of one shape, one entry per pair, give
    the array of those floats, bit for bit (every operand is exact as float64).
    """
    if np.any(np.less(n_a, 1)) or np.any(np.less(n_b, 1)):
        raise ValueError(f"both firms need paragraphs (N_A={n_a}, N_B={n_b})")
    return mrp_count / (n_a + n_b)


def threshold_label(threshold: float) -> str:
    """The two-decimal label a threshold prints as."""
    return f"{threshold:.2f}"


def hundredths(value: float, what: str, where: str) -> int:
    """The whole number k in [0, 100] with ``k / 100 == value``: the one rule
    for a threshold, whose label ``where`` prints. NaN is not in [0, 1], and
    another value would print as a threshold it is not. ``what`` names the
    value."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} {value} must lie in [0, 1]")
    if (k := round(value * 100)) / 100 != value:
        raise ValueError(f"{what} {value} prints as {threshold_label(value)} in {where}: "
                         f"{what}s must have at most two decimals")
    return k


def embed_corpus(vocab: Vocabulary, params: EncoderParams,
                 groups: Iterable[Iterable[Paragraph]],
                 max_len: int = DEFAULT_MAX_LEN) -> EmbeddingIndex:
    """Encode the paragraphs of ``groups``, each under its own firm however they
    are grouped (:func:`~riskrel.corpus.group_by_firm`), a firm per batch."""
    firms: dict[str, tuple[list[str], np.ndarray]] = {}
    for firm, paragraphs in group_by_firm(chain.from_iterable(groups)).items():
        ids = [paragraph.id for paragraph in paragraphs]
        batch = [vocab.indices(paragraph.tokens, max_len) for paragraph in paragraphs]
        try:
            _, rows = forward(params, TokenCounts.of(batch))
        except EmptyParagraph as exc:
            raise EmptyParagraph(f"paragraph {ids[exc.row]}: {exc}") from exc
        firms[firm] = (ids, rows)
    return EmbeddingIndex(firms=firms, max_len=max_len)


def _similarities(index: EmbeddingIndex, firm_a: str, firm_b: str
                  ) -> tuple[list[str], list[str], np.ndarray]:
    """Both firms' ids and their cosine block, rows for ``firm_a``.

    The product of the index's :attr:`~EmbeddingIndex.units` is always taken
    with the firms in sorted order, so the block of (B, A) is the exact
    transpose of the block of (A, B). A firm paired with itself, or one that the
    index lacks or holds without paragraphs, is a ``ValueError``.
    """
    if firm_a == firm_b:
        raise ValueError(f"firm {firm_a!r} cannot be scored against itself")
    for firm in (firm_a, firm_b):
        if firm not in index.firms or not index.firms[firm][0]:
            raise ValueError(f"firm {firm!r} has no paragraphs in the embedding index")
    ids_a, ids_b = index.firms[firm_a][0], index.firms[firm_b][0]
    if firm_a < firm_b:
        sims = index.units[firm_a] @ index.units[firm_b].T
    else:
        sims = (index.units[firm_b] @ index.units[firm_a].T).T
    return ids_a, ids_b, sims


def find_mrps(index: EmbeddingIndex, firm_a: str, firm_b: str,
              threshold: float = DEFAULT_THRESHOLD) -> MrpResult:
    """Exact all-pairs MRP search for one firm pair.

    The similarity matrix is always computed with the firms in sorted
    order internally, so rrs(A, B) == rrs(B, A) bit-exactly regardless of
    argument order. The result holds every qualifying cross pair as row and
    column positions and its similarity, sorted by similarity descending
    with (id_a, id_b) breaking ties: one ``np.lexsort`` over the similarity
    and the index's :attr:`~EmbeddingIndex.ranks` of both firms.
    """
    ids_a, ids_b, sims = _similarities(index, firm_a, firm_b)
    rows, cols = np.nonzero(sims >= threshold)
    values = sims[rows, cols]
    order = np.lexsort((index.ranks[firm_b][cols], index.ranks[firm_a][rows], -values))
    return MrpResult(firm_a, firm_b, threshold, ids_a, ids_b,
                     rows[order], cols[order], values[order])


def _id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Each id's rank among ``ids`` in str order."""
    rank = {pid: r for r, pid in enumerate(sorted(ids))}
    return np.array([rank[pid] for pid in ids], dtype=np.intp)


def firm_pairs(firms: Sequence[str]) -> list[tuple[str, str]]:
    """Every pair of distinct positions in ``firms``, in upper-triangle order:
    the k-th pair is the k-th cell of ``np.triu_indices(len(firms), 1)``."""
    return [(a, b) for i, a in enumerate(firms) for b in firms[i + 1:]]


def pair_cells(firms: Sequence[str], matrix: np.ndarray) -> dict[tuple[str, str], float]:
    """The upper triangle of a matrix over distinct ``firms``, keyed by
    :func:`firm_pairs` and in that order."""
    return dict(zip(firm_pairs(firms), matrix[np.triu_indices(len(firms), 1)].tolist()))


@dataclass
class MaxSimTable:
    """Each paragraph's maximum cosine to the other firm, per firm pair.

    ``sizes[k]`` holds the two firms' paragraph counts of ``pairs[k]``, and
    ``maxima`` holds, pair after pair, the row maxima and then the column
    maxima of each pair's block, unsorted. A paragraph is an MRP at
    threshold t exactly when its maximum is >= t, so a pair's MRP count is
    the sum of ``maxima >= t`` over its segment. A NaN maximum (a paragraph
    whose every similarity is NaN) never clears a threshold.
    """

    pairs: list[tuple[str, str]]
    sizes: np.ndarray
    maxima: np.ndarray

    def mrp_counts(self, thresholds: Sequence[float]) -> np.ndarray:
        """MRP counts, one row per threshold and one column per pair."""
        lengths = self.sizes.sum(axis=1)
        starts = np.cumsum(lengths) - lengths
        grid = np.asarray(thresholds, dtype=np.float64)
        counts = np.empty((len(grid), len(self.pairs)), dtype=np.int64)
        # A threshold at a time: reducing a (G, total) hit matrix at once
        # would cast all of it to int64.
        for t, row in zip(grid, counts):
            np.add.reduceat(self.maxima >= t, starts, dtype=np.int64, out=row)
        return counts

    def scores(self, counts: Sequence[int]) -> np.ndarray:
        """Per-pair RRS from one threshold's row of MRP counts (see :func:`rrs`)."""
        n_a, n_b = self.sizes.T
        return rrs(np.asarray(counts, dtype=np.int64), n_a, n_b)


def max_similarity_table(index: EmbeddingIndex) -> MaxSimTable:
    """One similarity block per pair of the index's firms, in :func:`firm_pairs`
    order, reduced to its row and column maxima.

    Fewer than two firms, or a firm without paragraphs, is a ``ValueError``.
    """
    pairs = firm_pairs(index.firm_ids())
    if not pairs:
        raise ValueError("scoring needs at least two firms")
    sizes, maxima = [], []
    for a, b in pairs:
        ids_a, ids_b, sims = _similarities(index, a, b)
        sizes.append((len(ids_a), len(ids_b)))
        maxima += [np.fmax.reduce(sims, axis=1), np.fmax.reduce(sims, axis=0)]
    return MaxSimTable(pairs=pairs, sizes=np.array(sizes, dtype=np.int64),
                       maxima=np.concatenate(maxima))


def rrs_matrix(index: EmbeddingIndex,
               threshold: float = DEFAULT_THRESHOLD) -> tuple[list[str], np.ndarray]:
    """The index's sorted firms and their symmetric RRS matrix (diagonal fixed at 1).

    The diagonal is a convention, not a measurement, and is excluded from
    every correlation computed downstream.
    """
    firms = index.firm_ids()
    table = max_similarity_table(index)
    upper = np.triu_indices(len(firms), 1)
    matrix = np.eye(len(firms))
    matrix[upper] = matrix.T[upper] = table.scores(table.mrp_counts([threshold])[0])
    return firms, matrix


def mrp_result_to_dict(result: MrpResult, texts: Mapping[str, str]) -> dict:
    """JSON-ready view of an MRP result.

    Each evidence entry holds ``id_a``, ``id_b`` and ``similarity``. A last
    key ``texts`` maps each id the evidence names to its text in ``texts``,
    ids sorted; an id missing from ``texts`` raises ``KeyError``.
    """
    return {
        "firm_a": result.firm_a,
        "firm_b": result.firm_b,
        "threshold": result.threshold,
        "n_a": result.n_a,
        "n_b": result.n_b,
        "rrs": result.rrs,
        "mrps_a": list(result.mrps_a),
        "mrps_b": list(result.mrps_b),
        "evidence": [
            {"id_a": id_a, "id_b": id_b, "similarity": sim}
            for id_a, id_b, sim in result.evidence
        ],
        "texts": {pid: texts[pid] for pid in _evidence_ids(result)},
    }


def _evidence_ids(result: MrpResult) -> list[str]:
    """The distinct paragraph ids the evidence names, sorted."""
    return sorted(set(result.mrps_a).union(result.mrps_b))


def evidence_path(evidence_dir: str | Path, firm_a: str, firm_b: str) -> Path:
    """The pair's evidence document: ``<A>__<B>.json``, A before B lexicographically."""
    a, b = sorted((firm_a, firm_b))
    return Path(evidence_dir) / f"{a}__{b}.json"


def render_evidence(doc: Mapping) -> str:
    """Highlights of an evidence document, as :func:`mrp_result_to_dict` gives
    it: a header with the pair, RRS, threshold and evidence count, then the top
    3 evidence pairs, each with both texts from ``doc["texts"]`` cut at 220
    characters. A document without the fields, ``texts`` included, or whose
    ``texts`` lacks an id of a top pair, raises ``KeyError``, ``TypeError`` or
    ``ValueError``."""
    score, threshold = f"{doc['rrs']:.6f}", threshold_label(doc["threshold"])
    evidence, texts = doc["evidence"], doc["texts"]
    lines = [f"Strongest pair {doc['firm_a']} - {doc['firm_b']}: RRS {score} at threshold "
             f"{threshold}, {len(evidence)} evidence pairs.", ""]
    for entry in evidence[:3]:
        lines.append(f"- similarity {entry['similarity']:.4f}: "
                     f"`{entry['id_a']}` / `{entry['id_b']}`")
        lines.append(f"    - {texts[entry['id_a']][:220]}")
        lines.append(f"    - {texts[entry['id_b']][:220]}")
    return "\n".join(lines + [""])


def read_evidence(path: str | Path, rrs_cell: float) -> str:
    """:func:`render_evidence` of the document at ``path``, for a pair whose
    ``rrs.csv`` cell is ``rrs_cell``. A ``ValueError`` names a document that is
    not UTF-8 JSON with the rendered fields (``malformed evidence document
    <path>: …``), or whose RRS at rrs.csv's six decimals is not ``rrs_cell``,
    as one left from another threshold (``stale evidence document <path>: …``).
    """
    try:
        doc = json.loads(Path(path).read_bytes().decode("utf-8"))
        highlights = render_evidence(doc)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"malformed evidence document {path}: {detail}") from None
    if (held := _csv_cell(float(doc["rrs"]))) != (cell := _csv_cell(float(rrs_cell))):
        raise ValueError(f"stale evidence document {path}: RRS {held}, "
                         f"but rrs.csv holds {cell} for the pair")
    return highlights


def write_evidence_files(results: Iterable[MrpResult], out_dir: str | Path,
                         texts: Mapping[str, str]) -> list[Path]:
    """One ``<A>__<B>.json`` per firm pair, A before B lexicographically.

    Each file holds exactly the bytes of ``json.dumps(mrp_result_to_dict(
    result, texts), indent=2, ensure_ascii=False) + "\\n"``, built as one
    ``bytes`` object (:func:`_evidence_document`) and then written at once
    into ``out_dir``. Each paragraph's id and text are escaped and UTF-8
    encoded once per call, however many entries and files repeat them; each
    firm's ids become entry literals once per call (:class:`_EntryLiterals`),
    which a document indexes by its result's positions; a document's
    similarities are formatted together (:func:`_json_numbers`: an exact
    vectorized repr from ``_VECTOR_MIN`` of them up, :func:`_json_number` for
    what it leaves out); and a text is joined once per file, in its ``texts``
    object. An id missing from
    ``texts`` (``KeyError``) or a text that cannot be encoded raises before the
    pair's file is opened, so it leaves no file; the files of earlier pairs stay.
    Files are not staged one by one: to publish none of them on failure, stage
    ``out_dir`` with :class:`riskrel.outputs.Outputs`, as ``score`` does.
    """
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    ids = _EscapeCache(str)
    literals = _EscapeCache(texts.__getitem__)
    entries = (_EntryLiterals(ids, _ID_A_KEY, _ID_B_KEY),
               _EntryLiterals(ids, b"", _SIMILARITY_KEY))
    written = []
    for result in results:
        document = _evidence_document(result, ids, literals, entries)
        path = evidence_path(out_dir, result.firm_a, result.firm_b)
        path.write_bytes(document)
        written.append(path)
    return written


class _EscapeCache(dict):
    """Paragraph id -> UTF-8 bytes of the JSON string literal of ``source(id)``,
    made on first use."""

    def __init__(self, source: Callable[[str], str]) -> None:
        super().__init__()
        self._source = source

    def __missing__(self, pid: str) -> bytes:
        literal = self[pid] = encode_basestring(self._source(pid)).encode("utf-8")
        return literal


def _json_number(value) -> str:
    """A number as json.dumps writes it: ``float.__repr__`` for finite floats."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def _json_numbers(values: np.ndarray) -> list[bytes]:
    """:func:`_json_number` of each of the float64 ``values`` (at least one),
    ASCII-encoded.

    A run of at least ``_VECTOR_MIN`` values goes through
    :func:`_shortest_reprs`, and :func:`_json_number` writes each value outside
    its domain. A shorter run takes one ``float.__repr__`` map if every value
    is finite; ``nan`` or ``inf`` put an ``n`` in its text, which a finite
    float's repr never holds, and send every value through :func:`_json_number`.
    """
    floats = values.tolist()
    if len(floats) >= _VECTOR_MIN:
        reprs, exact = _shortest_reprs(values)
        for i in np.flatnonzero(~exact).tolist():
            reprs[i] = _json_number(floats[i]).encode("ascii")
        return reprs
    text = ",".join(map(float.__repr__, floats))
    if "n" in text:
        text = ",".join(map(_json_number, floats))
    return text.encode("ascii").split(b",")


# The kernel costs about 80 us a call plus 0.2 us a value, against
# float.__repr__'s 0.7 us a value: on 2 vCPUs with numpy 2.4.6 the two broke
# even at 150-200 values (at 200, 120 against 136 us), and 300 leaves a margin.
# The evidence workload's 120 documents (85,959 values, 716 a document on
# average) took 15-17 ms through the kernel against 56-60 ms through repr.
_VECTOR_MIN = 300

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_FIVE17 = 5 ** 17
_FIVE17_HIGH, _FIVE17_LOW = _U64(_FIVE17 >> 32), _U64(_FIVE17 & 0xFFFFFFFF)
_HALF_FIVE17 = _U64(_FIVE17 // 2)
# 10 ** (17 - n) for n = 14, 15, 16 and 17 digits, one row each.
_CUTS = (_U64(10) ** np.arange(3, -1, -1, dtype=_U64))[:, None]
_DIGIT_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode("ascii"), "<u2")
_ZERO_POINT = np.frombuffer(b"0.", "<u2")[0]
# For n = 14..17 digits, a mask over bytes 16-19 of "0." and the digits
# that keeps the first 2 + n bytes and NULs the rest.
_TAILS = np.array([[0xFF] * row + [0] * (4 - row) for row in range(4)],
                  dtype=np.uint8).view("<u4")[:, 0]


def _shortest_reprs(values: np.ndarray) -> tuple[list[bytes], np.ndarray]:
    """``float.__repr__`` of each of the float64 ``values`` in [0.1, 1) whose
    repr has 15, 16 or 17 digits, in exact integer arithmetic, and a mask of
    the values so written; every other entry of the list is to be replaced.

    repr is the shortest decimal that reads back as the float, and of those
    the closest (Gay's dtoa, mode 0). For ``x = m / 2**k`` with a 53-bit
    significand ``m``, ``x * 10**17 = m * 5**17 / 2**s`` with ``s = k - 17`` in
    [36, 39]; the product is formed from 32-bit halves in two uint64 words,
    giving its floor ``F`` and remainder ``r``. For n digits and
    ``q = 10**(17 - n)``, the nearest n-digit decimal is ``F // q``, one more
    when ``R = (F % q) * 2**s + r`` passes half of ``q * 2**s``, and it reads
    back as x when it lies within half an ulp of x:
    ``2 * min(R, q * 2**s - R) < 5**17``. A fit at n is a fit at n + 1 and 17
    digits always fit, so the smallest n that fits is a count. Its last digit
    is not 0 (n - 1 would fit), so rounding up carries into no other digit. A
    bound of x's interval has k + 1 > 17 decimals, so no n-digit decimal lies
    on one. Left out: values that fit at 14 digits, whose repr may be shorter
    (0.125, 0.25 and 0.5, whose intervals are lopsided, among them), and values
    halfway between two n-digit decimals, where repr's tie rule picks.
    """
    count = len(values)
    domain = (values >= 0.1) & (values < 1.0)
    # A value outside the domain is worked as 0.5, which fits at 14 digits.
    bits = np.where(domain, values, 0.5).view(_U64)
    m = (bits & _U64((1 << 52) - 1)) | _U64(1 << 52)
    s = _U64(1075 - 17) - (bits >> _U64(52))
    m_high, m_low = m >> _U64(32), m & _LOW32
    low = m_low * _FIVE17_LOW
    middle = (low >> _U64(32)) + m_high * _FIVE17_LOW + m_low * _FIVE17_HIGH
    high = m_high * _FIVE17_HIGH + (middle >> _U64(32))
    low = (low & _LOW32) | (middle << _U64(32))
    floor = (high << (_U64(64) - s)) | (low >> s)
    cut = floor % _CUTS
    rest = (cut << s) | (low & ((_U64(1) << s) - _U64(1)))
    unit = _CUTS << s
    half = unit >> _U64(1)
    fits = (rest <= _HALF_FIVE17) | (rest >= unit - _HALF_FIVE17)
    row = 4 - fits[1:].sum(axis=0)
    pick = row * count + np.arange(count)
    exact = domain & ~fits[0] & (rest.ravel()[pick] != half.ravel()[pick])
    # The chosen digits padded with zeros to 18: "0." and 9 digit pairs.
    digits = (floor - cut + (rest > half) * _CUTS).ravel()[pick] * _U64(10)
    out = np.empty((count, 10), "<u2")
    out[:, 0] = _ZERO_POINT
    lead = digits // _U64(10 ** 16)
    out[:, 1] = _DIGIT_PAIRS[lead.astype(np.intp)]
    pairs = _split(_split(_split(digits - lead * _U64(10 ** 16), 10 ** 8), 10 ** 4), 100)
    out[:, 2:] = _DIGIT_PAIRS[pairs.reshape(count, 8).astype(np.intp)]
    out.view("<u4")[:, 4] &= _TAILS[row]
    return out.view("S20").ravel().tolist(), exact


def _split(values: np.ndarray, unit: int) -> np.ndarray:
    """Each of ``values`` as its quotient and remainder by ``unit``, on a new last axis."""
    quotient = values // _U64(unit)
    return np.stack((quotient, values - quotient * _U64(unit)), -1)


# An evidence entry is three literals: its id_a's, which closes the entry
# before it and opens its own, its id_b's and its similarity's.
_ENTRY_CLOSE = b"\n    },"
_ID_A_KEY = _ENTRY_CLOSE + b'\n    {\n      "id_a": '
_ID_B_KEY = b',\n      "id_b": '
_SIMILARITY_KEY = b',\n      "similarity": '


class _EntryLiterals(dict):
    """Firm -> its ids and, as an object array in their order, each id's
    literal between ``before`` and ``after``. Made on first use, and again
    when the firm comes with another id list."""

    def __init__(self, ids: _EscapeCache, before: bytes, after: bytes) -> None:
        super().__init__()
        self._ids, self._before, self._after = ids, before, after

    def of(self, firm: str, pids: Sequence[str]) -> np.ndarray:
        held = self.get(firm)
        if held is None or held[0] != list(pids):
            held = self[firm] = (list(pids), np.array(
                [self._before + self._ids[pid] + self._after for pid in pids], dtype=object))
        return held[1]


def _json_id_list(pids: Sequence[str], ids: _EscapeCache) -> bytes:
    if not pids:
        return b"[]"
    return b"[\n    " + b",\n    ".join([ids[pid] for pid in pids]) + b"\n  ]"


def _joined(parts: list[bytes], columns: Iterable[Iterable[bytes]], end: bytes) -> None:
    """Append the items of ``columns`` to ``parts`` row by row, with ``end``
    in place of the last row's last item (the separator to the next row)."""
    parts += chain.from_iterable(zip(*columns))
    parts[-1] = end


def _evidence_document(result: MrpResult, ids: _EscapeCache, texts: _EscapeCache,
                       entries: tuple[_EntryLiterals, _EntryLiterals]) -> bytes:
    """:func:`mrp_result_to_dict`'s document in json.dumps's indent=2 layout,
    UTF-8 encoded, without a Python loop over its entries; ``entries`` gives
    the literals of an entry's ``id_a`` and of its ``id_b``."""
    head = (f'{{\n  "firm_a": {encode_basestring(result.firm_a)},\n'
            f'  "firm_b": {encode_basestring(result.firm_b)},\n'
            f'  "threshold": {_json_number(result.threshold)},\n'
            f'  "n_a": {_json_number(result.n_a)},\n'
            f'  "n_b": {_json_number(result.n_b)},\n'
            f'  "rrs": {_json_number(result.rrs)},\n')
    parts = [head.encode("utf-8"),
             b'  "mrps_a": ', _json_id_list(result.mrps_a, ids),
             b',\n  "mrps_b": ', _json_id_list(result.mrps_b, ids),
             b',\n  "evidence": ']
    if not len(result.sims):
        parts.append(b"[]")
    else:
        a_literals, b_literals = entries
        id_a = a_literals.of(result.firm_a, result.ids_a)[result.rows].tolist()
        id_b = b_literals.of(result.firm_b, result.ids_b)[result.cols].tolist()
        first = len(parts)
        parts += chain.from_iterable(zip(id_a, id_b, _json_numbers(result.sims)))
        parts[first] = b"[" + parts[first][len(_ENTRY_CLOSE):]  # closes no entry
        parts.append(b"\n    }\n  ]")
    pids = _evidence_ids(result)
    if not pids:
        parts.append(b',\n  "texts": {}')
    else:
        parts.append(b',\n  "texts": {\n    ')
        _joined(parts, (map(ids.__getitem__, pids), repeat(b": "),
                        map(texts.__getitem__, pids), repeat(b",\n    ")),
                b"\n  }")
    parts.append(b"\n}\n")
    return b"".join(parts)


def write_rrs_csv(firms: Sequence[str], matrix: np.ndarray, path: str | Path) -> None:
    """Symmetric RRS matrix as CSV: a firm-id header, then a labelled row per firm."""
    write_csv(path, ["firm", *firms],
              ([firm, *row] for firm, row in zip(firms, matrix.tolist())))


def read_rrs_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Read a matrix written by :func:`write_rrs_csv`, its firms sorted.

    The header's firms must be distinct ids that
    :func:`~riskrel.corpus.check_firm_id` accepts and every row needs one
    finite number per firm (else a ``malformed RRS matrix`` error of
    :func:`read_lines`); the header needs a firm, the row labels must repeat
    it and the matrix must be symmetric (else a ``ValueError`` naming the
    file). A header in any order is read into sorted order, the matrix
    permuted to match.
    """
    def rows(lines: Iterator[str]) -> Iterator[tuple[str, list[float]]]:
        firms = None  # until the header is read
        for line in lines:
            label, *cells = line.strip().split(",")
            if firms is None:
                firms = [check_firm_id(firm) for firm in cells]
                repeated = [firm for k, firm in enumerate(firms) if firm in firms[:k]]
                if repeated:
                    raise ValueError(f"firm {repeated[0]!r} appears twice in the header")
            elif len(cells) != len(firms):
                raise ValueError(f"row has {len(cells)} values for {len(firms)} firms")
            else:
                cells = [float(c) for c in cells]
                if not np.isfinite(cells).all():
                    raise ValueError("values must be finite numbers")
            yield label, cells

    def malformed(detail: str) -> ValueError:
        return ValueError(f"malformed RRS matrix in {path}: {detail}")

    (_, firms), *labelled = read_lines(path, "RRS matrix", rows) or [("", [])]
    if not firms:
        raise malformed("no firms in the header")
    if [label for label, _ in labelled] != firms:
        raise malformed("row labels do not match the header")
    matrix = np.array([cells for _, cells in labelled])
    if not np.array_equal(matrix, matrix.T):
        raise malformed("matrix is not symmetric")
    order = sorted(range(len(firms)), key=firms.__getitem__)
    return [firms[k] for k in order], matrix[np.ix_(order, order)]


def save_embeddings(index: EmbeddingIndex, path: str | Path) -> None:
    """Write an embedding index in the binary embeddings format, its one
    width :attr:`EmbeddingIndex.d` in the header."""
    parts = [_pack_header(_EMB_MAGIC, index.d, index.max_len, len(index.firms)),
             _pack_text(index.model_fingerprint, "ascii")]
    for firm in index.firm_ids():
        ids, vectors = index.firms[firm]
        parts += (_pack_text(firm), len(ids).to_bytes(4, "little"))
        parts += chain.from_iterable(zip(map(_pack_text, ids),
                                         np.ascontiguousarray(vectors, dtype="<f8")))
    Path(path).write_bytes(b"".join(parts))


def load_embeddings(path: str | Path) -> EmbeddingIndex:
    """Read an index written by :func:`save_embeddings`.

    A truncated file is a ``ValueError`` naming it, and so is, as
    ``malformed embeddings file <path>: …``, what ``embed`` never writes: a
    max_len below 1, an undecodable fingerprint, firm or paragraph id, a
    firm id that :func:`~riskrel.corpus.check_firm_id` rejects, a repeated
    firm or paragraph id, vectors narrower than 2 or holding a value that is
    not finite, or bytes after the last vector.
    """
    r = _Reader(path, "embeddings", _EMB_MAGIC)
    d, max_len, n_firms = r.u32s(3)
    if max_len < 1:
        raise r.malformed(f"max_len {max_len} < 1")
    firms: dict[str, tuple[list[str], np.ndarray]] = {}
    try:
        fingerprint = r.text("ascii")
        for _ in range(n_firms):
            firm = r.text()
            try:
                check_firm_id(firm)
            except ValueError as exc:
                raise r.malformed(exc) from None
            if firm in firms:
                raise r.malformed(f"firm {firm!r} repeated")
            (count,) = r.u32s(1)
            ids, rows = [], []
            for _ in range(count):
                ids.append(r.text())
                rows.append(r.take(8 * d))
            vectors = np.frombuffer(b"".join(rows), dtype="<f8").reshape(count, d)
            if ids and d < 2:
                raise r.malformed(f"firm {firm!r} has vectors of width {d}, below 2")
            if not np.isfinite(vectors).all():
                raise r.malformed(f"firm {firm!r} has a value that is not finite")
            firms[firm] = (ids, vectors.astype(np.float64))
    except UnicodeDecodeError as exc:
        raise r.malformed(exc) from None
    r.end("vector")
    try:
        return EmbeddingIndex(firms=firms, model_fingerprint=fingerprint, max_len=max_len)
    except ValueError as exc:  # a repeated paragraph id
        raise r.malformed(exc) from None
