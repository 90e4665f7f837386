"""Evaluation harness for risk relation scores.

Alignment with market co-movement: for each firm pair the RRS is compared
against CAVDSR, the Pearson correlation of the absolute values of the two
firms' daily stock returns (absolute values, because one event can move
two exposed firms in opposite directions). The headline metric is

    rho = corr(RRS, CAVDSR)

across firm pairs, taken by :func:`alignment_rho` from two arrays of one
value per pair. A pair has a CAVDSR when its firms share at least
:data:`MIN_OVERLAP` trading dates and neither absolute-return series is
constant; every other pair is left out and counted. An undefined
correlation, of one pair or across pairs, is :class:`DegenerateInput`.
Two firms on the same trading calendar need no date join: across many
pairs each firm's absolute returns are centred once and a pair costs one
dot product, with exactly the arithmetic of the join (see
:func:`pairwise_cavdsr`). A sector/industry taxonomy provides the
human-defined binary baseline. Standalone retrieval quality is measured with NDCG,
precision and recall at top-k cutoffs, and a threshold sweep reports how
MRP counts and scores respond to the similarity cutoff, over a grid of whole
hundredths (:func:`make_grid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import _hidden, read_csv_body
from .errors import DegenerateInput, InsufficientOverlap
from .scoring import MaxSimTable, hundredths

MIN_OVERLAP = 30
DEFAULT_GRID = "0.6:0.9:0.05"


@dataclass(frozen=True)
class ReturnSeries:
    """Daily simple returns for one firm, aligned to trading dates."""

    firm_id: str
    dates: tuple[str, ...]      # ISO dates, strictly increasing
    returns: np.ndarray

    def __post_init__(self) -> None:
        if len(self.dates) != len(self.returns):
            raise ValueError("dates and returns must align")
        for earlier, date in zip(self.dates, self.dates[1:]):
            if earlier >= date:
                raise ValueError(f"dates must be strictly increasing: {date} after {earlier}")
        infinite = np.flatnonzero(~np.isfinite(self.returns))
        if infinite.size:
            raise ValueError(f"returns must be finite: {self.returns[infinite[0]]} "
                             f"on {self.dates[infinite[0]]}")

    @cached_property
    def date_index(self) -> np.ndarray:
        """The dates as an array, built on first use and kept for joins."""
        return np.array(self.dates, dtype=str)


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
            raise ValueError(f"query {self.query_id} has no relevant docs")


@dataclass(frozen=True)
class SweepRow:
    threshold: float
    mean_rrs: float
    total_mrps: int
    rho: float | None = None


def daily_returns(prices: Sequence[tuple[str, float]], firm_id: str = "") -> ReturnSeries:
    """Simple returns p_t/p_{t-1} - 1 over consecutive trading days.

    Fewer than two prices give no returns: such a firm shares too few dates
    with any other, and :func:`pairwise_cavdsr` leaves its pairs out. The
    price dates must be strictly increasing: ReturnSeries checks the dates
    it keeps, those of ``prices[1:]``, and the first is checked here. A
    close of zero or below is a ``ValueError`` too.
    """
    if len(prices) >= 2 and prices[0][0] >= prices[1][0]:
        raise ValueError("dates must be strictly increasing: "
                         f"{prices[1][0]} after {prices[0][0]}")
    closes = np.array([close for _, close in prices], dtype=float)
    nonpositive = np.flatnonzero(closes <= 0)
    if nonpositive.size:
        date, close = prices[nonpositive[0]]
        raise ValueError(f"close {close} on {date} is not positive")
    with np.errstate(over="ignore"):  # an overflow is ReturnSeries' non-finite error
        returns = closes[1:] / closes[:-1] - 1.0
    return ReturnSeries(firm_id, tuple(date for date, _ in prices[1:]), returns)


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation; exact 1.0 for identical inputs. A constant
    input has none: that is :class:`DegenerateInput`.

    Computed as cov / sqrt(var_x * var_y); when x and y are bit-identical
    the numerator equals both variances, and sqrt(s*s) == s in IEEE-754
    binary64, so corr(x, x) is exactly 1.0.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("pearson needs two equal-length vectors of >= 2 values")
    return _correlate(_centred(x), _centred(y))


def _centred(x: np.ndarray) -> tuple[np.ndarray, float]:
    """``x`` minus its mean, and that vector's sum of squares: the half of
    :func:`pearson` that one input needs, so a vector met in many
    correlations is centred once. The sum of squares of a constant ``x`` is
    exactly 0.0, though a rounded mean can leave noise in its ``dx``."""
    x = np.asarray(x, dtype=np.float64)
    dx = x - x.mean()
    if x.min() == x.max():
        return dx, 0.0
    return dx, float(np.dot(dx, dx))


def _correlate(x: tuple[np.ndarray, float], y: tuple[np.ndarray, float]) -> float:
    """The Pearson correlation of two :func:`_centred` vectors, clamped to [-1, 1]."""
    (dx, sx), (dy, sy) = x, y
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInput("correlation input is constant")
    dot = float(np.dot(dx, dy))
    denom = math.sqrt(sx * sy)
    if not 0.0 < denom < math.inf:
        # sx * sy left the float range (tiny or huge returns). Scaling sx
        # and sy by even powers of two, and dot by the root of their
        # product, changes no bit of r.
        kx, ky = math.frexp(sx)[1] // 2, math.frexp(sy)[1] // 2
        dot = math.ldexp(dot, -kx - ky)
        denom = math.sqrt(math.ldexp(sx, -2 * kx) * math.ldexp(sy, -2 * ky))
    return max(-1.0, min(1.0, dot / denom))


def _ranks(x: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their mean rank."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # one past each tie group's last 0-based position
    return ((2 * ends - counts + 1) / 2)[inverse]


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation (Pearson on average ranks). The input must
    be finite: a NaN has no rank."""
    return pearson(_ranks(np.asarray(x, dtype=np.float64)),
                   _ranks(np.asarray(y, dtype=np.float64)))


def cavdsr(a: ReturnSeries, b: ReturnSeries) -> float:
    """Correlation of the absolute values of two firms' daily returns.

    Series are inner-joined on common trading dates; fewer than
    :data:`MIN_OVERLAP` shared observations is :class:`InsufficientOverlap`,
    and a constant absolute-return series is :class:`DegenerateInput`.
    """
    common, pos_a, pos_b = np.intersect1d(a.date_index, b.date_index,
                                          assume_unique=True, return_indices=True)
    if len(common) < MIN_OVERLAP:
        raise InsufficientOverlap(
            f"{a.firm_id}/{b.firm_id}: {len(common)} common dates < {MIN_OVERLAP}")
    return pearson(np.abs(a.returns[pos_a]), np.abs(b.returns[pos_b]))


def pairwise_cavdsr(returns: Mapping[str, ReturnSeries],
                    pairs: Iterable[tuple[str, str]]) -> dict[tuple[str, str], float]:
    """CAVDSR of every pair whose firms both have return series.

    One rule says which pairs cannot be scored: a pair is left out when a
    firm has no series, the two share fewer than :data:`MIN_OVERLAP` dates
    (a firm with fewer than two prices shares none), or an absolute-return
    series is constant.

    Firms are grouped by identical ``dates`` first. When both firms of a
    pair share one calendar of at least :data:`MIN_OVERLAP` dates, the
    date join would keep every date in order, so each firm's absolute
    returns are centred once, on first use, and the pair costs one dot
    product: the arithmetic :func:`cavdsr` does after that join, so the
    value is bit-identical to it (corr(x, x) stays exactly 1.0). Every
    other pair goes through :func:`cavdsr`. Either way, the rule's
    exclusions are its two error kinds, :class:`InsufficientOverlap` and
    :class:`DegenerateInput`.
    """
    calendars: dict[tuple[str, ...], int] = {}
    calendar = {firm: calendars.setdefault(series.dates, len(calendars))
                for firm, series in returns.items()}
    centred: dict[str, tuple[np.ndarray, float]] = {}

    def abs_centred(firm: str) -> tuple[np.ndarray, float]:
        if firm not in centred:
            centred[firm] = _centred(np.abs(returns[firm].returns))
        return centred[firm]

    out: dict[tuple[str, str], float] = {}
    for a, b in pairs:
        if a in returns and b in returns:
            try:
                if calendar[a] == calendar[b] and len(returns[a].dates) >= MIN_OVERLAP:
                    out[(a, b)] = _correlate(abs_centred(a), abs_centred(b))
                else:
                    out[(a, b)] = cavdsr(returns[a], returns[b])
            except (InsufficientOverlap, DegenerateInput):
                continue
    return out


def alignment_rho(rrs: Sequence[float], cavdsr: Sequence[float],
                  method: str = "pearson") -> float:
    """Correlation between RRS and CAVDSR across firm pairs: ``rrs[k]`` and
    ``cavdsr[k]`` belong to pair k. Fewer than two pairs or a constant side
    is :class:`DegenerateInput`; sequences of unequal length, a ``ValueError``."""
    x = np.asarray(rrs, dtype=np.float64)
    y = np.asarray(cavdsr, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"rho needs two equal-length 1-D sequences, "
                         f"got {x.shape} and {y.shape}")
    if len(x) < 2:
        raise DegenerateInput(f"need >= 2 firm pairs, got {len(x)}")
    return {"pearson": pearson, "spearman": spearman}[method](x, y)


def gics_binary_rrs(mapping: Mapping[str, tuple[str, str]], firm_a: str,
                    firm_b: str, level: str = "sector") -> int:
    """Human-taxonomy baseline: 1 iff both firms share the group. A firm
    missing from ``mapping`` is a ``KeyError``."""
    if level not in ("sector", "industry"):
        raise ValueError(f"level must be 'sector' or 'industry', got {level!r}")
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


def make_grid(start: float, stop: float, step: float) -> list[float]:
    """The thresholds k / 100 for k in the ``range`` of hundredths from
    ``start`` up to ``stop`` by ``step``, each of the three a whole number of
    hundredths (:func:`~riskrel.scoring.hundredths`): each value has its own
    two-decimal label, and the grid never passes ``stop``."""
    lo, hi, by = (hundredths(value, "grid value", "sweep.csv") for value in (start, stop, step))
    if by == 0 or hi < lo:
        raise ValueError(f"bad grid range {start}:{stop}:{step}")
    return [k / 100 for k in range(lo, hi + 1, by)]


def threshold_sweep(table: MaxSimTable, grid: Sequence[float],
                    returns: Mapping[str, ReturnSeries] | None = None) -> list[SweepRow]:
    """Score every pair of the table at each threshold in the ascending grid.

    Each pair's similarities were reduced once, to the table's maxima (see
    :func:`~riskrel.scoring.max_similarity_table`), and are counted at every
    threshold. Reports the mean RRS over the table's pairs and the total MRP
    count per threshold; when return series are supplied, rho is reported
    too: :func:`alignment_rho` over the pairs that have a CAVDSR, or None
    when it degenerates (fewer than two such pairs, or all scores equal, e.g.
    all zero at a high threshold). The CAVDSR array is built once.
    """
    if list(grid) != sorted(grid):
        raise ValueError("grid must be ascending")
    pairs = table.pairs
    if returns is not None:
        pair_cavdsr = pairwise_cavdsr(returns, pairs)
        kept = np.array([pair in pair_cavdsr for pair in pairs], dtype=bool)
        cavdsr_vec = np.array([pair_cavdsr[pair] for pair in pairs if pair in pair_cavdsr])
    rows: list[SweepRow] = []
    for threshold, counts in zip(grid, table.mrp_counts(grid)):
        scores = table.scores(counts)
        try:
            rho = None if returns is None else alignment_rho(scores[kept], cavdsr_vec)
        except DegenerateInput:
            rho = None
        rows.append(SweepRow(threshold=threshold, mean_rrs=float(np.mean(scores)),
                             total_mrps=int(counts.sum()), rho=rho))
    return rows


def read_prices_dir(prices_dir: str | Path) -> dict[str, ReturnSeries]:
    """Load per-firm ``<ticker>.csv`` files of (date, close) rows.

    A header line is required; rows must be in ascending date order, and
    every close above zero. Hidden files (``._ACME.csv``) are skipped, and a
    directory named like a price file is a ``ValueError`` naming it, as
    :func:`~riskrel.corpus.ingest_directory` treats filings.
    """
    prices_dir = Path(prices_dir)
    if not prices_dir.is_dir():
        raise FileNotFoundError(f"prices directory not found: {prices_dir}")
    series = {}
    for path in sorted(filterfalse(_hidden, prices_dir.glob("*.csv"))):
        if path.is_dir():
            raise ValueError(f"bad price series in {path}: is a directory, not a file")
        prices = read_csv_body(path, 2, _price_row)
        try:
            series[path.stem] = daily_returns(prices, firm_id=path.stem)
        except ValueError as exc:  # the series' checks, which know no file
            raise ValueError(f"bad price series in {path}: {exc}") from None
    return series


def _price_row(row: list[str]) -> tuple[str, float]:
    value = float(row[1])
    if not math.isfinite(value):
        raise ValueError(f"close price is not finite: {row[1]!r}")
    return row[0], value


def read_gics_file(path: str | Path) -> dict[str, tuple[str, str]]:
    """Load a (ticker, sector, industry) mapping; header line required. A
    repeated ticker is a ``malformed CSV row`` error of :func:`read_csv_body`."""
    gics: dict[str, tuple[str, str]] = {}

    def add(row: list[str]) -> None:
        ticker, sector, industry = row
        if ticker in gics:
            raise ValueError(f"ticker {ticker!r} repeated")
        gics[ticker] = (sector, industry)

    read_csv_body(path, 3, add)
    return gics
