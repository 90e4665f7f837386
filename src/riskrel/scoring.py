"""Risk relation scoring: mutual risk paragraphs and the RRS.

Two paragraphs discuss similar risk content when the cosine of their
encoder vectors meets a threshold. A paragraph of firm A is a mutual risk
paragraph (MRP) when at least one paragraph of firm B clears the
threshold with it, and vice versa; the risk relation score is the
fraction of both firms' paragraphs that are MRPs:

    rrs(A, B) = (|MRPs_A| + |MRPs_B|) / (N_A + N_B)

The score is symmetric, lives in [0, 1], and every contributing paragraph
pair is retained as inspectable evidence.

Search is exact all-pairs, one similarity block per firm pair. Whether a
paragraph is an MRP at threshold t depends only on its maximum cosine to
the other firm, so the matrix and the threshold sweep compute each block
once and keep just those maxima (:class:`MaxSimTable`); the MRP count at
any threshold is then a ``searchsorted`` over them. Exactness is the
contract: every block is the same ``unit(A) @ unit(B).T`` product, firms in
sorted order, that :func:`find_mrps` uses, so the table's counts and RRS
values equal find_mrps's bit for bit, ties at the threshold included.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import FirmCorpus, Paragraph
from .encoder import (
    DEFAULT_MAX_LEN,
    EncoderParams,
    Vocabulary,
    forward,
    pad_batch,
    read_exact,
    unit_rows,
)
from .errors import DimensionMismatch, EmptyFirm, EmptyParagraph, UnknownParagraphId

DEFAULT_THRESHOLD = 0.75

_EMB_MAGIC = b"RREMB001"
_EMB_VERSION = 1


@dataclass
class ScoreConfig:
    """Similarity threshold gating MRP membership."""

    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")


@dataclass
class EmbeddingIndex:
    """Per-firm paragraph ids and embedding matrices from one model."""

    firms: dict[str, tuple[list[str], np.ndarray]]
    model_fingerprint: str = ""
    max_len: int = DEFAULT_MAX_LEN

    def firm_ids(self) -> list[str]:
        return sorted(self.firms)

    def get(self, firm: str) -> tuple[list[str], np.ndarray]:
        if firm not in self.firms:
            raise EmptyFirm(f"firm {firm!r} not in embedding index")
        return self.firms[firm]

    @property
    def d(self) -> int:
        for _, vectors in self.firms.values():
            if vectors.size:
                return vectors.shape[1]
        return 0


@dataclass
class MrpResult:
    """Mutual risk paragraph sets and the RRS for one firm pair."""

    firm_a: str
    firm_b: str
    threshold: float
    n_a: int
    n_b: int
    mrps_a: tuple[str, ...]
    mrps_b: tuple[str, ...]
    evidence: list[tuple[str, str, float]] = field(default_factory=list)

    @property
    def rrs(self) -> float:
        return rrs(len(self.mrps_a) + len(self.mrps_b), self.n_a, self.n_b)


def rrs(mrp_count: int, n_a: int, n_b: int) -> float:
    """Proportion of mutual risk paragraphs over both firms' paragraphs."""
    if n_a < 1 or n_b < 1:
        raise EmptyFirm(f"both firms need paragraphs (N_A={n_a}, N_B={n_b})")
    return mrp_count / (n_a + n_b)


def embed_corpus(vocab: Vocabulary, params: EncoderParams,
                 firm_corpora: Iterable[FirmCorpus],
                 max_len: int = DEFAULT_MAX_LEN,
                 model_fingerprint: str = "") -> EmbeddingIndex:
    """Encode every paragraph of every firm, order preserved, a firm per batch."""
    firms: dict[str, tuple[list[str], np.ndarray]] = {}
    for corpus in firm_corpora:
        ids = [paragraph.id for paragraph in corpus.paragraphs]
        batch = pad_batch([vocab.indices(paragraph.tokens, max_len)
                           for paragraph in corpus.paragraphs])
        try:
            _, rows = forward(params, batch)
        except EmptyParagraph as exc:
            raise EmptyParagraph(f"paragraph {ids[exc.row]}: {exc}") from exc
        firms[corpus.firm_id] = (ids, rows)
    return EmbeddingIndex(firms=firms, model_fingerprint=model_fingerprint,
                          max_len=max_len)


def _similarities(index: EmbeddingIndex, firm_a: str, firm_b: str,
                  units: dict[str, np.ndarray]
                  ) -> tuple[list[str], list[str], np.ndarray]:
    """Both firms' ids and their cosine block, rows for ``firm_a``.

    The product is always taken with the firms in sorted order, so the
    block of (B, A) is the exact transpose of the block of (A, B). Each
    firm's vectors are normalized once per ``units`` cache.
    """
    ids_a, vec_a = index.get(firm_a)
    ids_b, vec_b = index.get(firm_b)
    if not ids_a:
        raise EmptyFirm(f"firm {firm_a!r} has no paragraphs")
    if not ids_b:
        raise EmptyFirm(f"firm {firm_b!r} has no paragraphs")
    if vec_a.shape[1] != vec_b.shape[1]:
        raise DimensionMismatch(
            f"embedding widths differ: {vec_a.shape[1]} vs {vec_b.shape[1]}")
    for firm, vectors in ((firm_a, vec_a), (firm_b, vec_b)):
        if firm not in units:
            units[firm] = unit_rows(vectors)
    if firm_a == firm_b:
        # A copy keeps numpy off its X @ X.T shortcut (syrk), whose
        # rounding can differ from the general product's.
        sims = units[firm_a] @ units[firm_a].copy().T
    elif firm_a < firm_b:
        sims = units[firm_a] @ units[firm_b].T
    else:
        sims = (units[firm_b] @ units[firm_a].T).T
    return ids_a, ids_b, sims


def find_mrps(index: EmbeddingIndex, firm_a: str, firm_b: str,
              threshold: float = DEFAULT_THRESHOLD) -> MrpResult:
    """Exact all-pairs MRP search for one firm pair.

    The similarity matrix is always computed with the firms in sorted
    order internally, so rrs(A, B) == rrs(B, A) bit-exactly regardless of
    argument order. Evidence lists every qualifying cross pair, sorted by
    similarity descending with (id_a, id_b) breaking ties.
    """
    ids_a, ids_b, sims = _similarities(index, firm_a, firm_b, {})
    hits = sims >= threshold
    mrps_a = tuple(sorted(ids_a[i] for i in np.flatnonzero(hits.any(axis=1))))
    mrps_b = tuple(sorted(ids_b[j] for j in np.flatnonzero(hits.any(axis=0))))
    evidence = [(ids_a[i], ids_b[j], float(sims[i, j]))
                for i, j in zip(*np.nonzero(hits))]
    evidence.sort(key=lambda e: (-e[2], e[0], e[1]))
    return MrpResult(firm_a=firm_a, firm_b=firm_b, threshold=threshold,
                     n_a=len(ids_a), n_b=len(ids_b),
                     mrps_a=mrps_a, mrps_b=mrps_b, evidence=evidence)


@dataclass
class MaxSimTable:
    """Each paragraph's maximum cosine to the other firm, per firm pair.

    ``maxima[k]`` holds both firms' maxima for the k-th pair scored, in one
    ascending array, and ``sizes[k]`` the two firms' paragraph counts. A
    paragraph is an MRP at threshold t exactly when its maximum is >= t, so
    a pair's MRP count is its array's length minus a ``searchsorted``. NaN
    maxima (a paragraph whose every similarity is NaN) are dropped: such a
    paragraph never clears a threshold.
    """

    sizes: list[tuple[int, int]]
    maxima: list[np.ndarray]

    def mrp_counts(self, thresholds: Sequence[float]) -> np.ndarray:
        """MRP counts, one row per threshold and one column per pair."""
        grid = np.asarray(thresholds, dtype=np.float64)
        counts = np.empty((len(grid), len(self.maxima)), dtype=np.int64)
        for k, maxima in enumerate(self.maxima):
            counts[:, k] = len(maxima) - np.searchsorted(maxima, grid, side="left")
        return counts

    def scores(self, counts: Sequence[int]) -> list[float]:
        """Per-pair RRS from one threshold's row of MRP counts."""
        return [rrs(int(count), n_a, n_b)
                for count, (n_a, n_b) in zip(counts, self.sizes)]


def max_similarity_table(index: EmbeddingIndex,
                         pairs: Sequence[tuple[str, str]]) -> MaxSimTable:
    """One similarity block per firm pair, reduced to sorted maxima.

    Raises like :func:`find_mrps` on the first pair, in order, that has an
    empty or missing firm or mixed embedding widths.
    """
    units: dict[str, np.ndarray] = {}
    sizes, maxima = [], []
    for a, b in pairs:
        ids_a, ids_b, sims = _similarities(index, a, b, units)
        both = np.concatenate((np.fmax.reduce(sims, axis=1),
                               np.fmax.reduce(sims, axis=0)))
        sizes.append((len(ids_a), len(ids_b)))
        maxima.append(np.sort(both[~np.isnan(both)]))
    return MaxSimTable(sizes=sizes, maxima=maxima)


def rrs_matrix(index: EmbeddingIndex, firms: Sequence[str] | None = None,
               threshold: float = DEFAULT_THRESHOLD) -> tuple[list[str], np.ndarray]:
    """Symmetric RRS matrix over the given firms (diagonal fixed at 1).

    The diagonal is a convention, not a measurement, and is excluded from
    every correlation computed downstream.
    """
    firm_list = list(firms) if firms is not None else index.firm_ids()
    if len(firm_list) < 2:
        raise ValueError("rrs_matrix needs at least two firms")
    n = len(firm_list)
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    table = max_similarity_table(
        index, [(firm_list[i], firm_list[j]) for i, j in cells])
    values = table.scores(table.mrp_counts([threshold])[0])
    matrix = np.eye(n)
    for (i, j), value in zip(cells, values):
        matrix[i, j] = value
        matrix[j, i] = value
    return firm_list, matrix


def evidence_report(result: MrpResult,
                    paragraphs: Mapping[str, Paragraph] | Iterable[Paragraph]) -> str:
    """Render an MRP result as a human-readable document.

    Lists every evidence pair with both paragraph texts, firms, years and
    section labels so the score can be inspected directly.
    """
    lookup = (paragraphs if isinstance(paragraphs, Mapping)
              else {p.id: p for p in paragraphs})
    lines = [
        f"Risk relation evidence: {result.firm_a} vs {result.firm_b}",
        f"threshold: {result.threshold:.2f}   "
        f"RRS: {result.rrs:.6f}   "
        f"paragraphs: {result.n_a} + {result.n_b}   "
        f"MRPs: {len(result.mrps_a)} + {len(result.mrps_b)}",
        "",
    ]
    if not result.evidence:
        lines.append("No mutual risk paragraphs at this threshold.")
        return "\n".join(lines) + "\n"
    for rank, (id_a, id_b, sim) in enumerate(result.evidence, start=1):
        for pid in (id_a, id_b):
            if pid not in lookup:
                raise UnknownParagraphId(f"evidence references unknown paragraph {pid}")
        pa, pb = lookup[id_a], lookup[id_b]
        lines.append(f"[{rank}] similarity {sim:.6f}")
        lines.append(f"  {pa.firm_id} {pa.year} Item {pa.section} ({pa.id}):")
        lines.append(f"    {pa.text}")
        lines.append(f"  {pb.firm_id} {pb.year} Item {pb.section} ({pb.id}):")
        lines.append(f"    {pb.text}")
        lines.append("")
    return "\n".join(lines)


def mrp_result_to_dict(result: MrpResult,
                       paragraphs: Mapping[str, Paragraph] | None = None) -> dict:
    """JSON-ready view of an MRP result, optionally with paragraph texts."""
    doc = {
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
    }
    if paragraphs is not None:
        for entry in doc["evidence"]:
            for side in ("a", "b"):
                pid = entry[f"id_{side}"]
                if pid not in paragraphs:
                    raise UnknownParagraphId(
                        f"evidence references unknown paragraph {pid}")
                entry[f"text_{side}"] = paragraphs[pid].text
    return doc


def write_evidence_files(results: Iterable[MrpResult], out_dir: str | Path,
                         paragraphs: Mapping[str, Paragraph] | None = None) -> list[Path]:
    """One ``<A>__<B>.json`` per firm pair, A before B lexicographically."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for result in results:
        a, b = sorted((result.firm_a, result.firm_b))
        path = out_dir / f"{a}__{b}.json"
        doc = mrp_result_to_dict(result, paragraphs)
        path.write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n",
                        encoding="utf-8")
        written.append(path)
    return written


def write_rrs_csv(firms: Sequence[str], matrix: np.ndarray,
                  path: str | Path) -> None:
    """Symmetric RRS matrix as CSV: firm-id header, 6 decimal places."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("firm," + ",".join(firms) + "\n")
        for i, firm in enumerate(firms):
            fh.write(firm + "," + ",".join(f"{v:.6f}" for v in matrix[i]) + "\n")


def read_rrs_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Read a matrix written by :func:`write_rrs_csv`.

    The row labels must repeat the header's firms in order, every row needs
    one number per firm, and the matrix must be symmetric; anything else is
    a ``ValueError`` naming the file.
    """
    def malformed(detail: str) -> ValueError:
        return ValueError(f"malformed RRS matrix in {path}: {detail}")

    with open(path, "r", encoding="utf-8") as fh:
        firms = fh.readline().strip().split(",")[1:]
        labels, rows = [], []
        for number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            label, *cells = line.strip().split(",")
            if len(cells) != len(firms):
                raise malformed(f"line {number} has {len(cells)} values "
                                f"for {len(firms)} firms")
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise malformed(f"line {number}: {exc}") from exc
            labels.append(label)
    if not firms:
        raise malformed("no firms in the header")
    if labels != firms:
        raise malformed("row labels do not match the header")
    matrix = np.array(rows)
    if not np.array_equal(matrix, matrix.T):
        raise malformed("matrix is not symmetric")
    return firms, matrix


def save_embeddings(index: EmbeddingIndex, path: str | Path) -> None:
    """Write an embedding index in the binary embeddings format."""
    d = index.d
    with open(path, "wb") as fh:
        fh.write(_EMB_MAGIC)
        fingerprint = index.model_fingerprint.encode("ascii")
        fh.write(struct.pack("<IIII", _EMB_VERSION, d, index.max_len,
                             len(index.firms)))
        fh.write(struct.pack("<I", len(fingerprint)))
        fh.write(fingerprint)
        for firm in sorted(index.firms):
            ids, vectors = index.firms[firm]
            raw_firm = firm.encode("utf-8")
            fh.write(struct.pack("<I", len(raw_firm)))
            fh.write(raw_firm)
            fh.write(struct.pack("<I", len(ids)))
            for pid, row in zip(ids, vectors):
                raw_id = pid.encode("utf-8")
                fh.write(struct.pack("<I", len(raw_id)))
                fh.write(raw_id)
                fh.write(np.ascontiguousarray(row, dtype="<f8").tobytes())


def load_embeddings(path: str | Path) -> EmbeddingIndex:
    """Read an index written by :func:`save_embeddings`."""
    with open(path, "rb") as fh:
        if fh.read(8) != _EMB_MAGIC:
            raise ValueError(f"not a riskrel embeddings file: {path}")
        version, d, max_len, n_firms = struct.unpack("<IIII", read_exact(fh, 16, path))
        if version != _EMB_VERSION:
            raise ValueError(f"unsupported embeddings format version {version}")
        (fp_len,) = struct.unpack("<I", read_exact(fh, 4, path))
        fingerprint = read_exact(fh, fp_len, path).decode("ascii")
        firms: dict[str, tuple[list[str], np.ndarray]] = {}
        for _ in range(n_firms):
            (firm_len,) = struct.unpack("<I", read_exact(fh, 4, path))
            firm = read_exact(fh, firm_len, path).decode("utf-8")
            (count,) = struct.unpack("<I", read_exact(fh, 4, path))
            ids = []
            vectors = np.empty((count, d))
            for k in range(count):
                (id_len,) = struct.unpack("<I", read_exact(fh, 4, path))
                ids.append(read_exact(fh, id_len, path).decode("utf-8"))
                vectors[k] = np.frombuffer(read_exact(fh, 8 * d, path), dtype="<f8")
            firms[firm] = (ids, vectors)
    return EmbeddingIndex(firms=firms, model_fingerprint=fingerprint,
                          max_len=max_len)
