"""One similarity pass per firm pair: the max-similarity table used by
rrs_matrix and threshold_sweep must agree exactly with per-pair find_mrps."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrel.evaluation import threshold_sweep
from riskrel.scoring import (
    EmbeddingIndex,
    find_mrps,
    max_similarity_table,
    rrs_matrix,
)

# Small integers give zero vectors, parallel rows and exactly repeated cosines.
COMPONENT = st.one_of(st.integers(-2, 2).map(float),
                      st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False))


@st.composite
def indices(draw):
    d = draw(st.integers(1, 3))
    firms = {}
    for k in range(draw(st.integers(2, 4))):
        n = draw(st.integers(1, 4))
        values = draw(st.lists(COMPONENT, min_size=n * d, max_size=n * d))
        firms[f"F{k}"] = ([f"F{k}:{i}" for i in range(n)],
                          np.array(values).reshape(n, d))
    return EmbeddingIndex(firms=firms)


def similarities(index):
    """Every cross-firm cosine, exactly as find_mrps computes it."""
    return sorted({e[2] for a, b in combinations(index.firm_ids(), 2)
                   for e in find_mrps(index, a, b, -math.inf).evidence})


def thresholds(index):
    """Half the draws hit a similarity of the index, so ties at >= are tested."""
    return st.one_of(st.sampled_from(similarities(index)),
                     st.floats(-1.1, 1.1, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matrix_equals_per_pair_search(data):
    index = data.draw(indices())
    threshold = data.draw(thresholds(index))
    firms, matrix = rrs_matrix(index, threshold)
    assert firms == sorted(index.firms)
    for i, j in combinations(range(len(firms)), 2):
        expected = find_mrps(index, firms[i], firms[j], threshold).rrs
        assert matrix[i, j] == expected
        assert matrix[j, i] == expected


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sweep_rows_equal_per_threshold_search(data):
    index = data.draw(indices())
    firms = index.firm_ids()
    grid = sorted(data.draw(st.lists(thresholds(index), min_size=1, max_size=4)))
    rows = threshold_sweep(max_similarity_table(index), grid)
    assert [row.threshold for row in rows] == grid
    for row in rows:
        results = [find_mrps(index, a, b, row.threshold)
                   for a, b in combinations(firms, 2)]
        assert row.mean_rrs == float(np.mean([r.rrs for r in results]))
        assert row.total_mrps == sum(len(r.mrps_a) + len(r.mrps_b) for r in results)


def test_table_counts_ties_at_the_threshold():
    index = EmbeddingIndex(firms={"A": (["A:0", "A:1"], np.array([[1.0, 0.0], [0.0, 1.0]])),
                                  "B": (["B:0"], np.array([[3.0, 4.0]]))})
    table = max_similarity_table(index)
    # cos(A:0, B:0) = 0.6, cos(A:1, B:0) = 0.8; B:0's maximum is 0.8.
    assert table.mrp_counts([0.6, 0.8, 0.9]).tolist() == [[3], [2], [0]]


def test_nan_vectors_agree_with_find_mrps():
    index = EmbeddingIndex(firms={
        "A": (["A:0", "A:1"], np.array([[1.0, 0.0], [np.nan, 1.0]])),
        "B": (["B:0", "B:1"], np.array([[1.0, 0.1], [0.2, 1.0]])),
        "C": (["C:0"], np.array([[np.nan, np.nan]])),
    })
    for threshold in (-math.inf, 0.0, 0.5, 0.99):
        firms, matrix = rrs_matrix(index, threshold=threshold)
        for i, j in combinations(range(3), 2):
            assert matrix[i, j] == find_mrps(index, firms[i], firms[j], threshold).rrs


@pytest.mark.parametrize("score", [
    lambda index: rrs_matrix(index, 0.5),
    lambda index: threshold_sweep(max_similarity_table(index), [0.5]),
], ids=["rrs_matrix", "threshold_sweep"])
def test_one_pass_keeps_error_kinds(score):
    a, b = (["A:0"], np.array([[1.0, 0.0]])), (["B:0"], np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError, match="^firm 'EMPTY' has no paragraphs"):
        score(EmbeddingIndex(firms={"A": a, "B": b, "EMPTY": ([], np.empty((0, 2)))}))
    with pytest.raises(ValueError, match="at least two firms"):
        score(EmbeddingIndex(firms={"A": a}))

