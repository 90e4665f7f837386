"""CAVDSR once per firm: ``pairwise_cavdsr`` and the sweep's rho must agree
bit for bit with per-pair ``cavdsr`` and with ``pearson`` over the kept pairs.
Calendars are drawn on both sides of the ``MIN_OVERLAP`` floor, so the
shared-calendar path, the date join and the exclusion all run."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrel.errors import DegenerateInput, InsufficientOverlap
from riskrel.evaluation import (
    MIN_OVERLAP,
    ReturnSeries,
    cavdsr,
    pairwise_cavdsr,
    pearson,
    threshold_sweep,
)
from riskrel.scoring import EmbeddingIndex, max_similarity_table, rrs

DATES = tuple(f"2023-{m:02d}-{d:02d}" for m in (1, 2) for d in range(1, 21))
assert MIN_OVERLAP < len(DATES)
FIRMS = [f"F{k}" for k in range(5)]
# A few repeated magnitudes give constant absolute-return series and ties.
RETURN = st.one_of(st.sampled_from([0.0, 0.01, -0.01, 0.02]),
                   st.floats(-0.1, 0.1, allow_nan=False, allow_infinity=False))


@st.composite
def calendars(draw, length):
    """The shared calendar of ``length`` dates, a shifted copy of it, or a
    subset of the dates of any size; a near-full subset is drawn often
    enough that two of them share at least ``MIN_OVERLAP`` dates."""
    kind = draw(st.sampled_from(["shared", "shifted", "subset"]))
    if kind == "subset":
        order = draw(st.permutations(range(len(DATES))))
        size = draw(st.integers(0, len(DATES)) | st.integers(len(DATES) - 4, len(DATES)))
        return tuple(DATES[k] for k in sorted(order[:size]))
    start = draw(st.integers(1, len(DATES) - length)) \
        if kind == "shifted" and length < len(DATES) else 0
    # A fresh tuple each time: firms share a calendar by value, not by identity.
    return tuple(d for d in DATES[start:start + length])


@st.composite
def return_maps(draw, firms=FIRMS):
    """Series for some of the firms; the others are missing from the map.
    Some series are constant, which leaves their pairs out."""
    length = draw(st.integers(0, len(DATES)))
    out = {}
    for firm in firms:
        if draw(st.booleans()) or draw(st.booleans()):
            dates = draw(calendars(length))
            n = len(dates)
            values = ([draw(RETURN)] * n if draw(st.integers(0, 3)) == 0
                      else draw(st.lists(RETURN, min_size=n, max_size=n)))
            out[firm] = ReturnSeries(firm, dates, np.array(values, dtype=np.float64))
    return out


def per_pair(returns, pairs):
    """The reference: ``cavdsr`` on every pair, unusable pairs left out."""
    out = {}
    for a, b in pairs:
        if a in returns and b in returns:
            try:
                out[(a, b)] = cavdsr(returns[a], returns[b])
            except (InsufficientOverlap, DegenerateInput):
                continue
    return out


def exact(values):
    """Keys in order with each float's exact bits (so -0.0 != 0.0)."""
    return [(key, value.hex()) for key, value in values.items()]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pairwise_cavdsr_equals_per_pair_cavdsr(data):
    returns = data.draw(return_maps())
    names = st.sampled_from(FIRMS)
    pairs = data.draw(st.lists(st.tuples(names, names), max_size=12))
    assert exact(pairwise_cavdsr(returns, pairs)) == exact(per_pair(returns, pairs))


def test_shared_calendar_keeps_self_correlation_and_skips_the_date_join(monkeypatch):
    rng = np.random.default_rng(4)
    returns = {firm: ReturnSeries(firm, tuple(d for d in DATES),
                                  rng.normal(0, 0.02, size=len(DATES)))
               for firm in ("A", "B")}
    returns["C"] = ReturnSeries("C", DATES, np.full(len(DATES), -0.25))
    pairs = [("A", "A"), ("A", "B"), ("A", "C"), ("B", "C")]
    expected = per_pair(returns, pairs)
    monkeypatch.setattr(np, "intersect1d", None)  # any date join would now fail
    got = pairwise_cavdsr(returns, pairs)
    assert exact(got) == exact(expected)
    assert got[("A", "A")] == 1.0
    assert ("A", "C") not in got          # a constant series has no correlation


def test_constant_series_with_an_inexact_value_is_left_out():
    # 0.01 is not exact in binary: the mean rounds, and the centred vector
    # would hold ~1e-18 noise that an exact zero-variance test lets through.
    rng = np.random.default_rng(5)
    returns = {firm: ReturnSeries(firm, DATES, rng.normal(0, 0.02, size=len(DATES)))
               for firm in ("A", "B")}
    returns["C"] = ReturnSeries("C", DATES, np.full(len(DATES), 0.01))
    for other in ("A", "B"):
        with pytest.raises(DegenerateInput):
            cavdsr(returns[other], returns["C"])
    got = pairwise_cavdsr(returns, [("A", "B"), ("A", "C"), ("B", "C")])
    assert list(got) == [("A", "B")]


@st.composite
def indices(draw):
    """Small indices; integer components give zero vectors and tied cosines."""
    d = draw(st.integers(1, 3))
    component = st.one_of(st.integers(-2, 2).map(float), st.floats(-2.0, 2.0))
    firms = {}
    for firm in FIRMS[:draw(st.integers(2, len(FIRMS)))]:
        n = draw(st.integers(1, 3))
        values = draw(st.lists(component, min_size=n * d, max_size=n * d))
        firms[firm] = ([f"{firm}:{i}" for i in range(n)], np.array(values).reshape(n, d))
    return EmbeddingIndex(firms=firms)


def reference_sweep(index, firms, grid, returns):
    """Per threshold: (mean RRS, rho) pair by pair, from ``rrs`` and ``pearson``
    over the pairs that have a CAVDSR (None when that is undefined)."""
    pairs = list(combinations(firms, 2))
    pair_cavdsr = per_pair(returns, pairs)
    table = max_similarity_table(index)
    assert table.pairs == pairs
    out = []
    for counts in table.mrp_counts(grid):
        scores = [rrs(int(count), n_a, n_b) for count, (n_a, n_b) in zip(counts, table.sizes)]
        kept = [(score, pair_cavdsr[pair]) for pair, score in zip(pairs, scores)
                if pair in pair_cavdsr]
        try:
            rho = pearson(*zip(*kept)) if len(kept) >= 2 else None
        except DegenerateInput:
            rho = None
        out.append((float(np.mean(scores)), rho))
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sweep_rho_equals_pearson_over_kept_pairs(data):
    index = data.draw(indices())
    firms = index.firm_ids()
    returns = data.draw(return_maps(firms))
    grid = sorted(data.draw(st.lists(st.floats(-1.1, 1.1), max_size=3))) + [2.0]
    expected = reference_sweep(index, firms, grid, returns)
    rows = threshold_sweep(max_similarity_table(index), grid, returns=returns)
    assert [(row.mean_rrs, row.rho) for row in rows] == expected
    assert rows[-1].rho is None           # nothing clears 2.0: all-zero RRS
