"""Evaluation harness for risk relation scores.

Alignment with market co-movement: for each firm pair the RRS is compared
against CAVDSR, the Pearson correlation of the absolute values of the two
firms' daily stock returns (absolute values, because one event can move
two exposed firms in opposite directions). The headline metric is

    rho = corr(RRS, CAVDSR)

across firm pairs. A sector/industry taxonomy provides the human-defined
binary baseline. Standalone retrieval quality is measured with NDCG,
precision and recall at top-k cutoffs, and a threshold sweep reports how
MRP counts and scores respond to the similarity cutoff.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateInput,
    EmptyRelevanceSet,
    InsufficientOverlap,
    NonPositivePrice,
    TooShort,
    UnknownFirm,
    ZeroVariance,
)
from .scoring import EmbeddingIndex, max_similarity_table

MIN_OVERLAP = 30
DEFAULT_GRID_START = 0.60
DEFAULT_GRID_STOP = 0.90
DEFAULT_GRID_STEP = 0.05


@dataclass(frozen=True)
class ReturnSeries:
    """Daily simple returns for one firm, aligned to trading dates."""

    firm_id: str
    dates: tuple[str, ...]      # ISO dates, strictly increasing
    returns: np.ndarray

    def __post_init__(self) -> None:
        if len(self.dates) != len(self.returns):
            raise ValueError("dates and returns must align")
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")
        if not np.all(np.isfinite(self.returns)):
            raise ValueError("returns must be finite")

    @cached_property
    def date_index(self) -> np.ndarray:
        """The dates as an array, built on first use and kept for joins."""
        return np.array(self.dates, dtype=str)


@dataclass(frozen=True)
class PairRecord:
    """One observation behind rho: a firm pair's RRS and CAVDSR."""

    firm_a: str
    firm_b: str
    rrs: float
    cavdsr: float

    def __post_init__(self) -> None:
        if self.firm_a >= self.firm_b:
            raise ValueError("pair records require firm_a < firm_b")


@dataclass(frozen=True)
class RankedList:
    """A retrieval result: ranked doc ids plus the relevant ground truth."""

    query_id: str
    ranked: tuple[str, ...]
    relevant: frozenset[str]

    def __post_init__(self) -> None:
        if len(set(self.ranked)) != len(self.ranked):
            raise ValueError(f"ranked list for {self.query_id} has duplicates")
        if not self.relevant:
            raise EmptyRelevanceSet(f"query {self.query_id} has no relevant docs")


@dataclass(frozen=True)
class SweepRow:
    threshold: float
    mean_rrs: float
    total_mrps: int
    rho: float | None = None


def daily_returns(prices: Sequence[tuple[str, float]], firm_id: str = "") -> ReturnSeries:
    """Simple returns p_t/p_{t-1} - 1 over consecutive trading days."""
    if len(prices) < 2:
        raise TooShort(f"need >= 2 price points for {firm_id or 'series'}")
    dates = []
    closes = []
    for date, close in prices:
        if close <= 0:
            raise NonPositivePrice(f"{firm_id or 'series'} close {close} on {date}")
        dates.append(date)
        closes.append(float(close))
    closes_arr = np.array(closes)
    returns = closes_arr[1:] / closes_arr[:-1] - 1.0
    return ReturnSeries(firm_id=firm_id, dates=tuple(dates[1:]), returns=returns)


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation; exact 1.0 for identical inputs.

    Computed as cov / sqrt(var_x * var_y); when x and y are bit-identical
    the numerator equals both variances, and sqrt(s*s) == s in IEEE-754
    binary64, so corr(x, x) is exactly 1.0.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("pearson needs two equal-length vectors of >= 2 values")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.dot(dx, dx))
    sy = float(np.dot(dy, dy))
    if sx == 0.0 or sy == 0.0:
        raise ZeroVariance("correlation input is constant")
    r = float(np.dot(dx, dy)) / math.sqrt(sx * sy)
    return max(-1.0, min(1.0, r))


def _ranks(x: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their mean rank."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation (Pearson on average ranks)."""
    return pearson(_ranks(np.asarray(x, dtype=np.float64)),
                   _ranks(np.asarray(y, dtype=np.float64)))


def cavdsr(a: ReturnSeries, b: ReturnSeries,
           min_overlap: int = MIN_OVERLAP) -> float:
    """Correlation of the absolute values of two firms' daily returns.

    Series are inner-joined on common trading dates; fewer than
    ``min_overlap`` shared observations is an error, as is a constant
    absolute-return series.
    """
    common, pos_a, pos_b = np.intersect1d(a.date_index, b.date_index,
                                          assume_unique=True, return_indices=True)
    if len(common) < min_overlap:
        raise InsufficientOverlap(
            f"{a.firm_id}/{b.firm_id}: {len(common)} common dates < {min_overlap}")
    return pearson(np.abs(a.returns[pos_a]), np.abs(b.returns[pos_b]))


def pairwise_cavdsr(returns: Mapping[str, ReturnSeries],
                    pairs: Iterable[tuple[str, str]],
                    min_overlap: int = MIN_OVERLAP) -> dict[tuple[str, str], float]:
    """CAVDSR of every pair whose firms both have return series.

    A pair is left out when a firm has no series, the two share fewer than
    ``min_overlap`` dates, or an absolute-return series is constant.
    """
    out: dict[tuple[str, str], float] = {}
    for a, b in pairs:
        if a in returns and b in returns:
            try:
                out[(a, b)] = cavdsr(returns[a], returns[b], min_overlap)
            except (InsufficientOverlap, ZeroVariance):
                continue
    return out


def alignment_rho(records: Sequence[PairRecord], method: str = "pearson") -> float:
    """Correlation between RRS and CAVDSR across firm pairs."""
    if len(records) < 2:
        raise DegenerateInput(f"need >= 2 pair records, got {len(records)}")
    x = np.array([r.rrs for r in records])
    y = np.array([r.cavdsr for r in records])
    corr = {"pearson": pearson, "spearman": spearman}[method]
    try:
        return corr(x, y)
    except ZeroVariance as exc:
        raise DegenerateInput(str(exc)) from exc


def gics_binary_rrs(mapping: Mapping[str, tuple[str, str]], firm_a: str,
                    firm_b: str, level: str = "sector") -> int:
    """Human-taxonomy baseline: 1 iff both firms share the group."""
    if level not in ("sector", "industry"):
        raise ValueError(f"level must be 'sector' or 'industry', got {level!r}")
    for firm in (firm_a, firm_b):
        if firm not in mapping:
            raise UnknownFirm(f"firm {firm!r} missing from GICS mapping")
    idx = 0 if level == "sector" else 1
    return int(mapping[firm_a][idx] == mapping[firm_b][idx])


def retrieval_metrics(lists: Sequence[RankedList],
                      ks: Sequence[int]) -> dict[str, dict[int, float]]:
    """NDCG@k, P@k and R@k under binary relevance, averaged over queries.

    A relevant document at rank r contributes 1/log2(r+1) to DCG; the
    ideal ordering places min(k, |relevant|) relevant documents first.
    """
    if not lists:
        raise ValueError("no ranked lists supplied")
    for k in ks:
        if k < 1:
            raise ValueError(f"cutoff k must be >= 1, got {k}")
    table: dict[str, dict[int, float]] = {m: {k: 0.0 for k in ks}
                                          for m in ("ndcg", "precision", "recall")}
    for ranked_list in lists:
        gains = [1.0 if doc in ranked_list.relevant else 0.0
                 for doc in ranked_list.ranked]
        n_rel = len(ranked_list.relevant)
        for k in ks:
            top = gains[:k]
            hits = sum(top)
            dcg = sum(g / math.log2(rank + 1)
                      for rank, g in enumerate(top, start=1))
            ideal = min(k, n_rel)
            idcg = sum(1.0 / math.log2(rank + 1)
                       for rank in range(1, ideal + 1))
            table["ndcg"][k] += dcg / idcg
            table["precision"][k] += hits / k
            table["recall"][k] += hits / n_rel
    n_queries = len(lists)
    for metric in table.values():
        for k in ks:
            metric[k] /= n_queries
    return table


def make_grid(start: float = DEFAULT_GRID_START, stop: float = DEFAULT_GRID_STOP,
              step: float = DEFAULT_GRID_STEP) -> list[float]:
    """Inclusive ascending threshold grid with clean decimal values."""
    if step <= 0 or stop < start:
        raise ValueError(f"bad grid range {start}:{stop}:{step}")
    count = int(round((stop - start) / step)) + 1
    grid = [round(start + i * step, 10) for i in range(count)]
    if any(not 0.0 <= g <= 1.0 for g in grid):
        raise ValueError("grid values must lie in [0, 1]")
    return grid


def threshold_sweep(index: EmbeddingIndex, firms: Sequence[str],
                    grid: Sequence[float],
                    returns: Mapping[str, ReturnSeries] | None = None,
                    min_overlap: int = MIN_OVERLAP) -> list[SweepRow]:
    """Score every firm pair at each threshold in the ascending grid.

    Each pair's similarities are computed once (see
    :func:`~riskrel.scoring.max_similarity_table`) and counted at every
    threshold. Reports the mean off-diagonal RRS and total MRP count per
    threshold; when return series are supplied, rho is reported too (None
    when the scores degenerate, e.g. all zero at a high threshold).
    """
    if list(grid) != sorted(grid):
        raise ValueError("grid must be ascending")
    pairs = [(a, b) for i, a in enumerate(firms) for b in firms[i + 1:]]
    pair_cavdsr = (pairwise_cavdsr(returns, pairs, min_overlap)
                   if returns is not None else {})
    rows: list[SweepRow] = []
    table = max_similarity_table(index, pairs)
    for threshold, counts in zip(grid, table.mrp_counts(grid)):
        scores = table.scores(counts)
        mean_rrs = float(np.mean(scores))
        total = int(counts.sum())
        rho = None
        if returns is not None:
            records = [PairRecord(a, b, score, pair_cavdsr[(a, b)])
                       for (a, b), score in zip(pairs, scores)
                       if (a, b) in pair_cavdsr]
            try:
                rho = alignment_rho(records)
            except DegenerateInput:
                rho = None
        rows.append(SweepRow(threshold=threshold, mean_rrs=mean_rrs,
                             total_mrps=total, rho=rho))
    return rows


def read_prices_dir(prices_dir: str | Path) -> dict[str, ReturnSeries]:
    """Load per-firm ``<ticker>.csv`` files of (date, close) rows.

    A header line is required; rows must be in ascending date order.
    """
    prices_dir = Path(prices_dir)
    if not prices_dir.is_dir():
        raise FileNotFoundError(f"prices directory not found: {prices_dir}")
    series = {}
    for path in sorted(prices_dir.glob("*.csv")):
        rows = [(date, float(close)) for date, close in _csv_body(path)]
        series[path.stem] = daily_returns(rows, firm_id=path.stem)
    return series


def read_gics_file(path: str | Path) -> dict[str, tuple[str, str]]:
    """Load a (ticker, sector, industry) mapping; header line required."""
    return {ticker: (sector, industry)
            for ticker, sector, industry in _csv_body(path)}


def _csv_body(path: str | Path) -> list[list[str]]:
    """The rows of a CSV file after its header line; no header is an error."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"empty CSV file: {path}")
    return rows[1:]
