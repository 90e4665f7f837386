"""Metamorphic relations: changes to the inputs that the RRS matrix and the
evaluation must not notice, or must answer in a known way.

The table relations run on small drawn embedding indexes; the evaluation
relations run ``evaluate`` through ``cli.main`` on the fixture's prices and
GICS file and compare the bytes of ``eval/*``."""

import contextlib
import io
import math
import shutil

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riskrel import cli
from riskrel.evaluation import read_prices_dir
from riskrel.scoring import EmbeddingIndex, find_mrps, rrs_matrix

# Small integers give zero vectors, parallel rows and exactly repeated cosines.
COMPONENT = st.one_of(st.integers(-2, 2).map(float),
                      st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False))
NAMES = ["AA", "BB", "CC", "DD", "EE"]


@st.composite
def firm_vectors(draw, d):
    n = draw(st.integers(1, 4))
    return np.array(draw(st.lists(COMPONENT, min_size=n * d, max_size=n * d))).reshape(n, d)


@st.composite
def indices(draw):
    """An index over 2 to 4 of the first four ``NAMES``, each firm with 1 to 4 vectors."""
    d = draw(st.integers(1, 3))
    firms = NAMES[:draw(st.integers(2, 4))]
    return EmbeddingIndex(firms={firm: ([f"{firm}:{i}" for i in range(len(vectors))], vectors)
                                 for firm in firms
                                 for vectors in [draw(firm_vectors(d))]})


def thresholds():
    return st.sampled_from([-1.0, 0.0, 0.5, 0.75, 1.0]) | st.floats(-1.1, 1.1)


def renamed(index, names):
    return EmbeddingIndex(firms={names[firm]: index.firms[firm] for firm in index.firms})


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_renaming_firms_permutes_the_matrix_bit_for_bit(data):
    index = data.draw(indices())
    firms = index.firm_ids()
    new_names = data.draw(st.permutations(NAMES[:len(firms)]))
    assume(new_names != firms)  # the sorted order changes
    names = dict(zip(firms, new_names))
    threshold = data.draw(thresholds())
    _, matrix = rrs_matrix(index, threshold=threshold)
    new_firms, new_matrix = rrs_matrix(renamed(index, names), threshold=threshold)
    order = [new_firms.index(names[firm]) for firm in firms]
    assert new_matrix[np.ix_(order, order)].tobytes() == matrix.tobytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_adding_a_firm_keeps_every_other_cell(data):
    index = data.draw(indices())
    firms = index.firm_ids()
    added = data.draw(st.sampled_from(["A0", "CA", "ZZ"]))  # first, middle or last
    vectors = data.draw(firm_vectors(index.d))
    grown = EmbeddingIndex(firms={**index.firms,
                                  added: ([f"{added}:{i}" for i in range(len(vectors))],
                                          vectors)})
    threshold = data.draw(thresholds())
    _, matrix = rrs_matrix(index, threshold=threshold)
    grown_firms, grown_matrix = rrs_matrix(grown, threshold=threshold)
    kept = [grown_firms.index(firm) for firm in firms]
    assert grown_matrix[np.ix_(kept, kept)].tobytes() == matrix.tobytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_firm_and_its_twin_score_one_up_to_its_smallest_self_similarity(data):
    index = data.draw(indices())
    firm = data.draw(st.sampled_from(index.firm_ids()))
    twin = data.draw(st.sampled_from(["A0", "CA", "ZZ"]))
    ids, vectors = index.firms[firm]
    with_twin = EmbeddingIndex(firms={**index.firms,
                                      twin: ([pid.replace(firm, twin) for pid in ids],
                                             vectors.copy())})
    self_similarities = [sim for id_a, id_b, sim in
                         find_mrps(with_twin, firm, twin, -math.inf).evidence
                         if id_b == id_a.replace(firm, twin)]
    assert len(self_similarities) == len(ids)
    threshold = min(self_similarities) - data.draw(st.just(0.0) | st.floats(0.0, 2.0))
    firms, matrix = rrs_matrix(with_twin, threshold=threshold)
    assert matrix[firms.index(firm), firms.index(twin)] == 1.0


def _evaluate(rrs, prices, gics, out):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["evaluate", "--rrs", str(rrs), "--prices", str(prices),
                         "--gics", str(gics), "--out", str(out)]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_evaluate_ignores_gics_row_order_and_scaled_closes(fixture_manifest, tmp_path_factory,
                                                           data):
    """Permuting the GICS file's rows, or scaling one firm's closes by 2**k,
    leaves ``eval/*`` byte-identical: returns are ratios of closes, so the
    scaling is exact, which the returns show bit for bit below the six
    decimals that ``eval/*`` keeps."""
    work = tmp_path_factory.mktemp("metamorphic")
    firms = sorted(path.stem for path in fixture_manifest.prices_dir.glob("*.csv"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((len(firms), len(firms))), 1)
    matrix = upper + upper.T + np.eye(len(firms))
    rrs = work / "rrs.csv"
    rrs.write_text("firm," + ",".join(firms) + "\n" + "".join(
        firm + "," + ",".join(f"{v:.6f}" for v in row) + "\n"
        for firm, row in zip(firms, matrix)))
    expected = _evaluate(rrs, fixture_manifest.prices_dir, fixture_manifest.gics_path,
                         work / "expected")

    header, *rows = fixture_manifest.gics_path.read_text().splitlines()
    gics = work / "gics.csv"
    gics.write_text("\n".join([header, *data.draw(st.permutations(rows))]) + "\n")

    prices = work / "prices"
    shutil.copytree(fixture_manifest.prices_dir, prices)
    scaled = prices / f"{data.draw(st.sampled_from(firms))}.csv"
    k = data.draw(st.integers(-40, 40))
    head, *lines = scaled.read_text().splitlines()
    scaled.write_text(head + "\n" + "".join(
        f"{date},{float(close) * 2.0 ** k!r}\n"
        for date, close in (line.split(",") for line in lines)))

    assert ({firm: series.returns.tobytes() for firm, series in read_prices_dir(prices).items()}
            == {firm: series.returns.tobytes()
                for firm, series in read_prices_dir(fixture_manifest.prices_dir).items()})
    assert _evaluate(rrs, prices, gics, work / "permuted") == expected
    assert _evaluate(rrs, fixture_manifest.prices_dir, gics, work / "gics") == expected
    assert _evaluate(rrs, prices, fixture_manifest.gics_path, work / "scaled") == expected
