"""Evaluation: returns, CAVDSR, alignment rho, GICS baseline, NDCG, sweep."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrel import evaluation
from riskrel.errors import DegenerateInput, InsufficientOverlap
from riskrel.evaluation import (
    RankedList,
    ReturnSeries,
    alignment_rho,
    cavdsr,
    daily_returns,
    gics_binary_rrs,
    make_grid,
    pairwise_cavdsr,
    pearson,
    read_gics_file,
    read_prices_dir,
    retrieval_metrics,
    spearman,
    threshold_sweep,
)
from riskrel.scoring import EmbeddingIndex, max_similarity_table


def series(returns, firm="X", start=0):
    dates = tuple(f"2023-01-{d + 2 + start:02d}" for d in range(len(returns)))
    return ReturnSeries(firm_id=firm, dates=dates,
                        returns=np.asarray(returns, dtype=np.float64))


# --- daily returns ---

def test_daily_returns_basic():
    rs = daily_returns([("2023-01-02", 100.0), ("2023-01-03", 110.0)])
    assert rs.returns == pytest.approx([0.10], abs=1e-15)
    assert rs.dates == ("2023-01-03",)


def test_daily_returns_flat():
    rs = daily_returns([("d1", 100.0), ("d2", 100.0), ("d3", 100.0)])
    assert rs.returns == pytest.approx([0.0, 0.0], abs=0)


def test_daily_returns_rejects_nonpositive():
    with pytest.raises(ValueError, match="^close 0.0 on d2 is not positive$"):
        daily_returns([("d1", 100.0), ("d2", 0.0)])
    with pytest.raises(ValueError, match="^close -1.0 on d1 is not positive$"):
        daily_returns([("d1", -1.0)])


def test_daily_returns_overflow_is_an_error_not_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="returns must be finite"):
            daily_returns([("2023-01-02", 1e-308), ("2023-01-03", 1e308)])


def test_return_series_errors_name_the_first_bad_date():
    with pytest.raises(ValueError, match="^dates must be strictly increasing: d2 after d3$"):
        ReturnSeries("X", ("d1", "d3", "d2", "d4"), np.zeros(4))
    with pytest.raises(ValueError, match="^returns must be finite: inf on d3$"):
        ReturnSeries("X", ("d1", "d2", "d3"), np.array([0.0, 0.1, np.inf]))


def test_daily_returns_too_short():
    for prices in ([], [("d1", 100.0)]):
        rs = daily_returns(prices, "X")
        assert (rs.firm_id, rs.dates, rs.returns.shape) == ("X", (), (0,))


@pytest.mark.parametrize("prices, detail", [
    ([("d002", 10.0), ("d001", 11.0), ("d003", 12.0)], "d001 after d002"),
    ([("d001", 10.0), ("d001", 11.0)], "d001 after d001"),
], ids=["first_two_swapped", "first_date_repeated"])
def test_daily_returns_checks_the_first_date_too(prices, detail):
    with pytest.raises(ValueError, match=f"^dates must be strictly increasing: {detail}$"):
        daily_returns(prices)


# --- pearson / spearman ---

def test_pearson_self_exact_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(size=40)
        assert pearson(x, x) == 1.0
        assert pearson(x, -x) == -1.0


def test_pearson_bounds_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x, y = rng.normal(size=(2, 20))
        assert -1.0 <= pearson(x, y) <= 1.0


def test_pearson_zero_variance():
    with pytest.raises(DegenerateInput, match="^correlation input is constant$"):
        pearson(np.ones(10), np.arange(10.0))


@pytest.mark.parametrize("scale", [1e-121, 1e100], ids=["underflow", "overflow"])
def test_pearson_when_the_variance_product_leaves_the_float_range(scale):
    # Each sum of squares is a normal float, their product is not.
    x = np.array([0.0, 1.0, 3.0]) * scale
    y = np.array([0.0, 2.0, 1.0]) * scale
    assert pearson(x, x) == 1.0
    assert pearson(x, y) == pytest.approx(pearson(x / scale, y / scale), abs=1e-12)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(2, 30))
    assert pearson(3.0 * x + 2.0, y) == pytest.approx(pearson(x, y), abs=1e-12)


def test_spearman_monotone_nonlinear():
    x = np.arange(1.0, 20.0)
    assert spearman(x, x ** 3) == 1.0
    assert spearman(x, -np.exp(x / 10)) == -1.0


def test_spearman_handles_ties():
    assert abs(spearman(np.array([1.0, 1.0, 2.0, 3.0]),
                        np.array([1.0, 1.0, 2.0, 3.0])) - 1.0) <= 1e-12


def _loop_ranks(x):
    """Average ranks as a walk over each run of ties in stable sort order."""
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


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.sampled_from([-0.0, 0.0, 1.0, -2.5, 1e-300, 5e-324, 1e308, -1e308])
                       | st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_ranks_are_the_tie_walk_bit_for_bit(values):
    """Finite ties, signed zeros included, rank as the loop ranks them."""
    x = np.array(values, dtype=np.float64)
    assert evaluation._ranks(x).tobytes() == _loop_ranks(x).tobytes()


# --- cavdsr ---

def _long(returns):
    reps = -(-40 // len(returns))
    return series((list(returns) * reps)[:40])  # pad past the 30-observation floor


def test_cavdsr_identical_series():
    a = _long([0.01, -0.02, 0.015, 0.03])
    assert cavdsr(a, a) == 1.0


def test_cavdsr_sign_flip_exactly_one():
    rng = np.random.default_rng(3)
    r = rng.normal(0, 0.02, size=60)
    a = series(r, "A")
    b = series(-r, "B")
    assert cavdsr(a, b) == 1.0


def test_cavdsr_symmetric():
    rng = np.random.default_rng(4)
    a = series(rng.normal(0, 0.02, size=60), "A")
    b = series(rng.normal(0, 0.02, size=60), "B")
    assert cavdsr(a, b) == cavdsr(b, a)


def test_cavdsr_sign_flip_invariance():
    rng = np.random.default_rng(5)
    ra = rng.normal(0, 0.02, size=60)
    rb = rng.normal(0, 0.02, size=60)
    assert cavdsr(series(ra, "A"), series(rb, "B")) == \
        cavdsr(series(-ra, "A"), series(rb, "B"))


def test_cavdsr_constant_series():
    with pytest.raises(DegenerateInput):
        cavdsr(_long([0.01, 0.01]), _long([0.01, -0.02]))


def test_cavdsr_insufficient_overlap():
    a = series([0.01] * 10, "A", start=0)
    b = series([0.01] * 10, "B", start=40)
    with pytest.raises(InsufficientOverlap):
        cavdsr(a, b)


def test_cavdsr_inner_join_on_dates():
    rng = np.random.default_rng(6)
    r = rng.normal(0, 0.02, size=80)
    a = ReturnSeries("A", tuple(f"d{k:03d}" for k in range(80)), r)
    # b sees only the even dates, with identical values there
    b = ReturnSeries("B", tuple(f"d{k:03d}" for k in range(0, 80, 2)), r[::2])
    assert cavdsr(a, b) == 1.0


def test_cavdsr_matches_set_join_on_shifted_calendars():
    rng = np.random.default_rng(8)
    days = [f"2023-{m:02d}-{d:02d}" for m in range(1, 13) for d in range(1, 29)]
    a_days = sorted(rng.choice(days, size=200, replace=False))
    b_days = sorted(rng.choice(days, size=150, replace=False))
    a = ReturnSeries("A", tuple(a_days), rng.normal(0, 0.02, size=200))
    b = ReturnSeries("B", tuple(b_days), rng.normal(0, 0.02, size=150))
    common = sorted(set(a_days) & set(b_days))
    expected = pearson(np.abs(a.returns[[a_days.index(d) for d in common]]),
                       np.abs(b.returns[[b_days.index(d) for d in common]]))
    assert cavdsr(a, b) == expected


def test_pairwise_cavdsr_leaves_out_unusable_pairs():
    rng = np.random.default_rng(9)
    returns = {"A": _long(list(rng.normal(0, 0.02, size=40))),
               "B": _long(list(rng.normal(0, 0.02, size=40))),
               "C": series(list(rng.normal(0, 0.02, size=30)), "C", start=10),
               "C29": series(list(rng.normal(0, 0.02, size=30)), "C29", start=11),
               "D": _long([0.01, 0.01]),
               "F": daily_returns([("2023-01-02", 10.0)], "F")}
    pairs = [("A", "B"), ("A", "C"), ("A", "C29"), ("A", "D"), ("A", "E"), ("B", "D"),
             ("A", "F"), ("F", "F")]
    assert pairwise_cavdsr(returns, pairs) == {
        ("A", "B"): cavdsr(returns["A"], returns["B"]),
        ("A", "C"): cavdsr(returns["A"], returns["C"])}
    for other, kind in (("C29", InsufficientOverlap), ("D", DegenerateInput),
                        ("F", InsufficientOverlap)):
        with pytest.raises(kind):
            cavdsr(returns["A"], returns[other])


# --- alignment rho ---

def test_rho_identical_vectors():
    assert alignment_rho([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]) == 1.0


def test_rho_single_record_degenerate():
    with pytest.raises(DegenerateInput):
        alignment_rho([0.1], [0.2])


def test_rho_exact_linear_relation():
    assert abs(alignment_rho([0.1, 0.2, 0.3], [0.2, 0.4, 0.6]) - 1.0) <= 1e-12


def test_rho_constant_rrs_degenerate():
    with pytest.raises(DegenerateInput):
        alignment_rho([0.5, 0.5], [0.2, 0.4])


def test_rho_spearman_flag():
    assert alignment_rho([0.1, 0.2, 0.3], [0.01, 0.4, 0.41], "spearman") == 1.0


def test_rho_scale_invariance():
    rng = np.random.default_rng(7)
    rrs_values = rng.uniform(0, 1, size=12)
    cav = rng.uniform(-0.2, 0.9, size=12)
    assert alignment_rho(rrs_values, cav) == pytest.approx(
        alignment_rho(7.0 * rrs_values + 0.3, cav), abs=1e-12)


@pytest.mark.parametrize("rrs_values, cav", [
    ([0.1, 0.2, 0.3], [0.2, 0.4]),
    ([[0.1, 0.2], [0.3, 0.4]], [[0.2, 0.4], [0.6, 0.8]]),
], ids=["lengths", "two_d"])
def test_rho_needs_equal_length_pair_arrays(rrs_values, cav):
    with pytest.raises(ValueError, match="equal-length 1-D"):
        alignment_rho(rrs_values, cav)


# --- GICS baseline ---

GICS = {"AAA": ("Tech", "Software"), "BBB": ("Tech", "Hardware"),
        "CCC": ("Energy", "Oil")}


def test_gics_same_sector():
    assert gics_binary_rrs(GICS, "AAA", "BBB", "sector") == 1


def test_gics_different_sector():
    assert gics_binary_rrs(GICS, "AAA", "CCC", "sector") == 0


def test_gics_industry_level():
    assert gics_binary_rrs(GICS, "AAA", "BBB", "industry") == 0
    assert gics_binary_rrs(GICS, "AAA", "AAA", "industry") == 1


def test_gics_unknown_firm():
    with pytest.raises(KeyError, match="ZZZ"):
        gics_binary_rrs(GICS, "AAA", "ZZZ", "sector")


def test_gics_bad_level():
    with pytest.raises(ValueError):
        gics_binary_rrs(GICS, "AAA", "BBB", "subsector")


# --- retrieval metrics ---

def test_metrics_perfect_rank_one():
    lists = [RankedList("q", ("d1", "d2"), frozenset({"d1"}))]
    table = retrieval_metrics(lists, [1])
    assert table["ndcg"][1] == 1.0
    assert table["precision"][1] == 1.0
    assert table["recall"][1] == 1.0


def test_metrics_no_relevant_in_top_k():
    lists = [RankedList("q", ("d1", "d2", "d3"), frozenset({"d9"}))]
    table = retrieval_metrics(lists, [3])
    assert table["ndcg"][3] == 0.0
    assert table["precision"][3] == 0.0
    assert table["recall"][3] == 0.0


def test_metrics_hand_case_ranks_two_three():
    # 2 relevant docs at ranks 2 and 3 of k=3: DCG = 1/log2(3) + 1/log2(4),
    # IDCG = 1 + 1/log2(3); all three expected values derived by hand.
    expected_ndcg = (1 / math.log2(3) + 1 / math.log2(4)) / (1 + 1 / math.log2(3))
    lists = [RankedList("q", ("miss", "hit1", "hit2"), frozenset({"hit1", "hit2"}))]
    table = retrieval_metrics(lists, [3])
    assert table["ndcg"][3] == pytest.approx(expected_ndcg, abs=1e-12)
    assert table["ndcg"][3] == pytest.approx(0.6934264036172708, abs=1e-6)
    assert table["precision"][3] == pytest.approx(2 / 3, abs=1e-12)
    assert table["recall"][3] == 1.0


def test_metrics_hit_count_consistency():
    rng = np.random.default_rng(8)
    docs = [f"d{k}" for k in range(30)]
    for _ in range(20):
        ranked = tuple(rng.permutation(docs))
        relevant = frozenset(rng.choice(docs, size=int(rng.integers(1, 10)),
                                        replace=False))
        table = retrieval_metrics([RankedList("q", ranked, relevant)], [5])
        hits_p = table["precision"][5] * 5
        hits_r = table["recall"][5] * len(relevant)
        assert round(hits_p, 9) == round(hits_r, 9)
        assert abs(hits_p - round(hits_p)) < 1e-9


def test_metrics_ndcg_one_iff_top_slots_relevant():
    lists = [RankedList("q", ("a", "b", "c", "d"), frozenset({"a", "b"}))]
    assert retrieval_metrics(lists, [2])["ndcg"][2] == 1.0
    lists = [RankedList("q", ("a", "c", "b", "d"), frozenset({"a", "b"}))]
    assert retrieval_metrics(lists, [2])["ndcg"][2] < 1.0


def test_metrics_ndcg_one_iff_property_randomized():
    rng = np.random.default_rng(11)
    docs = [f"d{k}" for k in range(12)]
    for _ in range(100):
        ranked = tuple(rng.permutation(docs))
        relevant = frozenset(rng.choice(docs, size=int(rng.integers(1, 6)),
                                        replace=False))
        k = int(rng.integers(1, 12))
        ndcg = retrieval_metrics([RankedList("q", ranked, relevant)], [k])["ndcg"][k]
        assert 0.0 <= ndcg <= 1.0
        top_slots_all_relevant = all(
            doc in relevant for doc in ranked[:min(k, len(relevant))])
        assert (ndcg == 1.0) == top_slots_all_relevant


def test_metrics_average_over_queries():
    lists = [RankedList("q1", ("d1",), frozenset({"d1"})),
             RankedList("q2", ("d1",), frozenset({"d2"}))]
    table = retrieval_metrics(lists, [1])
    assert table["ndcg"][1] == 0.5


def test_empty_relevance_set_rejected():
    with pytest.raises(ValueError, match="^query q has no relevant docs$"):
        RankedList("q", ("d1",), frozenset())


def test_duplicate_doc_ids_rejected():
    with pytest.raises(ValueError):
        RankedList("q", ("d1", "d1"), frozenset({"d1"}))


# --- grid and sweep ---

def test_grid_appendix_default_has_seven_rows():
    grid = make_grid(0.6, 0.9, 0.05)
    assert grid == [0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9]


def test_grid_wide_variant_has_nine_rows():
    assert len(make_grid(0.5, 0.9, 0.05)) == 9


def test_grid_rejects_bad_range():
    with pytest.raises(ValueError):
        make_grid(0.9, 0.6, 0.05)
    with pytest.raises(ValueError):
        make_grid(0.6, 1.4, 0.2)


@pytest.mark.parametrize("start, stop, step, value, label", [
    (0.6, 0.62, 0.005, "0.005", "0.01"),   # 0.605 would print as 0.60
    (0.465, 0.53, 0.01, "0.465", "0.47"),  # 0.465 and 0.475 would both print as 0.47
    (0.0, 1.0, 1e-6, "1e-06", "0.00"),     # no list of a million values is built
    (0.0, 1.0, 5e-324, "5e-324", "0.00"),
], ids=["0.6-0.62-0.005", "0.465-0.53-0.01", "0.0-1.0-1e-06", "0.0-1.0-5e-324"])
def test_grid_rejects_thresholds_that_print_alike(start, stop, step, value, label):
    """Values that would share a two-decimal label need a start, stop or step
    that is not a whole number of hundredths: the first such is the error."""
    with pytest.raises(ValueError) as exc:
        make_grid(start, stop, step)
    assert str(exc.value) == (f"grid value {value} prints as {label} in sweep.csv: "
                              "grid values must have at most two decimals")


def test_grid_rejects_a_value_its_label_does_not_read_back_as():
    """0.125, 0.225 and 0.325 would print as 0.12, 0.23 and 0.33."""
    with pytest.raises(ValueError) as exc:
        make_grid(0.125, 0.325, 0.1)
    assert str(exc.value) == ("grid value 0.125 prints as 0.12 in sweep.csv: "
                              "grid values must have at most two decimals")


def test_grid_of_every_two_decimal_threshold():
    grid = make_grid(0.0, 1.0, 0.01)
    assert len({f"{g:.2f}" for g in grid}) == len(grid) == 101


def test_grid_never_passes_its_stop():
    assert make_grid(0.6, 0.93, 0.05) == [0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9]
    assert make_grid(0.5, 1.0, 0.3) == [0.5, 0.8]
    assert make_grid(0.6, 0.6, 0.05) == [0.6]


@pytest.mark.parametrize("step, message", [
    (0.0, "bad grid range 0.6:0.9:0.0"),
    (-0.0, "bad grid range 0.6:0.9:-0.0"),
    (math.inf, "grid value inf must lie in [0, 1]"),
    (-0.05, "grid value -0.05 must lie in [0, 1]"),
    (math.nan, "grid value nan must lie in [0, 1]"),
], ids=["zero", "minus_zero", "inf", "negative", "nan"])
def test_grid_rejects_a_step_that_is_not_a_positive_hundredth(step, message):
    with pytest.raises(ValueError) as exc:
        make_grid(0.6, 0.9, step)
    assert str(exc.value) == message


def test_grid_values_are_the_sums_the_grid_printed_before():
    """k / 100 is bit for bit the rounded ``start + i * step`` that the grid
    held when it was built from a float span, so sweep.csv keeps its bytes."""
    for lo in range(101):
        for by in range(1, 101):
            start, step = lo / 100, by / 100
            expected = [round(start + i * step, 10) for i in range((100 - lo) // by + 1)]
            assert make_grid(start, 1.0, step) == expected, (lo, by)


def _two_firm_index(cosine):
    vectors = {"A": np.array([[1.0, 0.0]]),
               "B": np.array([[cosine, math.sqrt(1 - cosine ** 2)]])}
    return EmbeddingIndex(firms={f: ([f"{f}:0"], v) for f, v in vectors.items()})


def test_sweep_threshold_cut():
    index = _two_firm_index(0.72)
    rows = threshold_sweep(max_similarity_table(index), make_grid(0.6, 0.9, 0.05))
    assert len(rows) == 7
    included = {r.threshold: r.total_mrps for r in rows}
    assert included[0.6] == 2 and included[0.65] == 2 and included[0.7] == 2
    assert included[0.75] == 0 and included[0.9] == 0


def test_sweep_monotone_counts():
    rng = np.random.default_rng(9)
    index = EmbeddingIndex(firms={
        f"F{k}": ([f"F{k}:{i}" for i in range(5)], rng.normal(size=(5, 4)))
        for k in range(4)})
    rows = threshold_sweep(max_similarity_table(index), make_grid(0.0, 0.9, 0.1))
    counts = [r.total_mrps for r in rows]
    assert counts == sorted(counts, reverse=True)
    mean_rrs = [r.mean_rrs for r in rows]
    assert mean_rrs == sorted(mean_rrs, reverse=True)


def test_sweep_reports_rho_with_returns():
    rng = np.random.default_rng(10)
    index = EmbeddingIndex(firms={
        "F0": (["F0:0", "F0:1"], np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])),
        "F1": (["F1:0"], np.array([[0.9, math.sqrt(1 - 0.81), 0.0]])),
        "F2": (["F2:0"], np.array([[0.0, 0.0, 1.0]])),
    })
    returns = {f"F{k}": series(rng.normal(0, 0.02, size=60), f"F{k}")
               for k in range(3)}
    rows = threshold_sweep(max_similarity_table(index), [0.5, 0.95], returns=returns)
    assert rows[0].rho is not None          # RRS varies across pairs at 0.5
    assert rows[1].rho is None              # all-zero RRS degenerates at 0.95


def test_sweep_requires_ascending_grid():
    index = _two_firm_index(0.5)
    with pytest.raises(ValueError):
        threshold_sweep(max_similarity_table(index), [0.9, 0.6])


# --- file readers ---

def test_read_prices_dir(tmp_path):
    d = tmp_path / "prices"
    d.mkdir()
    (d / "AAA.csv").write_text("date,close\n2023-01-02,100\n2023-01-03,110\n")
    out = read_prices_dir(d)
    assert out["AAA"].returns == pytest.approx([0.10], abs=1e-15)


def test_read_prices_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_prices_dir(tmp_path / "nope")


def test_read_gics_file(tmp_path):
    path = tmp_path / "gics.csv"
    path.write_text("ticker,sector,industry\nAAA,Tech,Software\nBBB,Energy,Oil\n")
    mapping = read_gics_file(path)
    assert mapping["AAA"] == ("Tech", "Software")
    assert gics_binary_rrs(mapping, "AAA", "BBB", "sector") == 0


def test_csv_readers_skip_blank_rows(tmp_path):
    path = tmp_path / "gics.csv"
    path.write_text("\nticker,sector,industry\n\nAAA,Tech,Software\n  \r\nBBB,Energy,Oil\n\n")
    assert read_gics_file(path) == {"AAA": ("Tech", "Software"), "BBB": ("Energy", "Oil")}
    d = tmp_path / "prices"
    d.mkdir()
    (d / "AAA.csv").write_text("date,close\n\n2023-01-02,100\n\n2023-01-03,110\n")
    assert read_prices_dir(d)["AAA"].returns == pytest.approx([0.10], abs=1e-15)


def test_a_quoted_empty_row_is_a_row_of_one_field(tmp_path):
    """Only a whitespace-only line is blank: ``""`` is a row of one empty field."""
    d = tmp_path / "prices"
    d.mkdir()
    (d / "AAA.csv").write_text('date,close\n2023-01-02,100\n""\n2023-01-03,110\n')
    with pytest.raises(ValueError) as exc:
        read_prices_dir(d)
    assert str(exc.value) == (f"malformed CSV row in {d / 'AAA.csv'} line 3: "
                              "expected 2 fields, got 1")
    path = tmp_path / "gics.csv"
    path.write_text('ticker,sector,industry\n""\nAAA,Tech,Software\n')
    with pytest.raises(ValueError, match=r"gics\.csv line 2: expected 3 fields, got 1$"):
        read_gics_file(path)


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_undecodable_byte_names_its_line(tmp_path, end):
    d = tmp_path / "prices"
    d.mkdir()
    (d / "AAA.csv").write_bytes(end.join([b"date,close", b"2023-01-02,100",
                                          b"\xff\xfe2023-01-03,110", b""]))
    with pytest.raises(ValueError, match=r"AAA\.csv line 3: 'utf-8' codec can't decode "
                                         r"byte 0xff in position 0"):
        read_prices_dir(d)
