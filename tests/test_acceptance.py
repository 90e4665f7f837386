"""Acceptance criteria, one test per criterion at its stated tolerance.

The conftest terminal-summary hook prints one PASS/FAIL line per test in
this module. Full-market results would need the complete filing and
return universe plus large pretrained encoders, so acceptance is
property-based plus planted-signal experiments on the bundled synthetic
corpus.
"""

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from riskrel import cli, corpus, evaluation, pairs as pairgen, scoring, synthetic, training
from riskrel.encoder import TokenCounts, forward, init_params, pad_batch, unit_rows
from riskrel.evaluation import (
    RankedList,
    ReturnSeries,
    alignment_rho,
    cavdsr,
    gics_binary_rrs,
    make_grid,
    retrieval_metrics,
    threshold_sweep,
)
from riskrel.scoring import (
    EmbeddingIndex,
    find_mrps,
    max_similarity_table,
    rrs_matrix,
)
from riskrel.training import TrainConfig, TrainingBatch, batch_objective, compute_gradients, info_nce_loss

SEED = 7


def random_index(rng, n_firms=None, max_paragraphs=20, d=8):
    n_firms = n_firms or int(rng.integers(2, 7))
    firms = {}
    for k in range(n_firms):
        n = int(rng.integers(1, max_paragraphs + 1))
        firms[f"F{k}"] = ([f"F{k}:2023:1A:{i:04d}" for i in range(n)],
                          rng.normal(size=(n, d)))
    return EmbeddingIndex(firms=firms)


@dataclass
class Pipeline:
    manifest: synthetic.FixtureManifest
    paragraphs: list
    outcome: training.TrainOutcome
    train_pairs: list
    val_pairs: list
    train_seconds: float


@pytest.fixture(scope="module")
def pipeline(fixture_manifest, fixture_paragraphs):
    """Desk-default pairs + training on the bundled corpus, timed."""
    by_view = {pairgen.CHRONOLOGICAL: pairgen.build_chronological_pairs(fixture_paragraphs),
               pairgen.LEXICAL: pairgen.build_lexical_pairs(fixture_paragraphs, rng_seed=SEED)}
    train_pairs, val_pairs = pairgen.split_train_val(by_view, 140, 25, rng_seed=SEED)
    start = time.perf_counter()
    outcome = training.train(train_pairs, val_pairs, TrainConfig(seed=0))
    elapsed = time.perf_counter() - start
    return Pipeline(fixture_manifest, list(fixture_paragraphs), outcome,
                    train_pairs, val_pairs, elapsed)


def test_criterion_1_rrs_symmetry_and_bounds():
    """>= 1000 randomized corpora: rrs(A,B) == rrs(B,A) exactly, in [0,1], < 10 s."""
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    checked = 0
    for _ in range(1000):
        index = random_index(rng)
        threshold = float(rng.uniform(0.2, 0.9))
        firms = sorted(index.firms)
        for i, a in enumerate(firms):
            for b in firms[i + 1:]:
                ab = find_mrps(index, a, b, threshold).rrs
                ba = find_mrps(index, b, a, threshold).rrs
                assert ab == ba
                assert 0.0 <= ab <= 1.0
                checked += 1
        _, matrix = rrs_matrix(index, threshold)
        assert np.array_equal(matrix, matrix.T)
    elapsed = time.perf_counter() - start
    assert checked >= 1000
    assert elapsed < 10.0, f"{elapsed:.1f}s"


def _brute_force(index, firm_a, firm_b, threshold):
    ids_a, va = index.firms[firm_a]
    ids_b, vb = index.firms[firm_b]
    mrps_a, mrps_b, evidence = set(), set(), set()
    for i, ua in enumerate(va):
        for j, ub in enumerate(vb):
            dot = sum(float(x) * float(y) for x, y in zip(ua, ub))
            na = math.sqrt(sum(float(x) ** 2 for x in ua))
            nb = math.sqrt(sum(float(y) ** 2 for y in ub))
            if dot / (na * nb) >= threshold:
                mrps_a.add(ids_a[i])
                mrps_b.add(ids_b[j])
                evidence.add((ids_a[i], ids_b[j]))
    return mrps_a, mrps_b, evidence


def test_criterion_2_mrp_oracle_equivalence():
    """200 random instances: find_mrps equals the double-loop oracle, < 10 s."""
    rng = np.random.default_rng(200)
    start = time.perf_counter()
    for _ in range(200):
        index = random_index(rng, n_firms=2)
        threshold = float(rng.uniform(0.1, 0.9))
        result = find_mrps(index, "F0", "F1", threshold)
        oracle_a, oracle_b, oracle_ev = _brute_force(index, "F0", "F1", threshold)
        assert set(result.mrps_a) == oracle_a
        assert set(result.mrps_b) == oracle_b
        assert {(a, b) for a, b, _ in result.evidence} == oracle_ev
        assert result.rrs == (len(oracle_a) + len(oracle_b)) / (
            len(index.firms["F0"][0]) + len(index.firms["F1"][0]))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.1f}s"


def test_criterion_3_threshold_monotonicity():
    """Grid 0.6..0.9 step 0.05: 7 rows, MRP count and RRS non-increasing."""
    rng = np.random.default_rng(300)
    grid = make_grid(0.6, 0.9, 0.05)
    assert len(grid) == 7
    for _ in range(200):
        index = random_index(rng)
        firms = sorted(index.firms)
        rows = threshold_sweep(max_similarity_table(index), grid)
        assert len(rows) == 7
        counts = [r.total_mrps for r in rows]
        mean_scores = [r.mean_rrs for r in rows]
        assert counts == sorted(counts, reverse=True)
        assert all(mean_scores[k + 1] <= mean_scores[k] + 1e-15
                   for k in range(len(mean_scores) - 1))
        # per-pair RRS non-increasing too
        for i, a in enumerate(firms):
            for b in firms[i + 1:]:
                per_pair = [find_mrps(index, a, b, t).rrs for t in grid]
                assert per_pair == sorted(per_pair, reverse=True)


def test_criterion_4_info_nce_correctness():
    """ln B and closed-form cases within 1e-12; gradcheck <= 1e-4; < 30 s."""
    start = time.perf_counter()
    for b in (2, 4, 16, 64):
        sims = np.full((b, b), 0.3)
        assert abs(info_nce_loss(sims, 0.05) - math.log(b)) <= 1e-12

    expected = math.log1p(math.exp(-16.0))
    sims = np.array([[0.9, 0.1], [0.1, 0.9]])
    assert abs(info_nce_loss(sims, 0.05) - expected) <= 1e-12

    rng = np.random.default_rng(400)
    config = TrainConfig(batch_size=4, seed=0, temperature=0.1, l2_coeff=1e-3)
    h = 1e-5
    for _ in range(3):
        params = init_params(12, d=8, rng=rng)
        anchors = [rng.integers(1, 12, size=int(rng.integers(2, 9)))
                   for _ in range(4)]
        positives = [rng.integers(1, 12, size=int(rng.integers(2, 9)))
                     for _ in range(4)]
        batch = TrainingBatch(pad_batch(anchors), pad_batch(positives))
        analytic = compute_gradients(params, batch, config)
        for name in ("embed", "proj_w", "proj_b"):
            block = getattr(params, name)
            grad = getattr(analytic, name)
            it = np.nditer(block, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = block[idx]
                block[idx] = orig + h
                up = batch_objective(params, batch, config)
                block[idx] = orig - h
                down = batch_objective(params, batch, config)
                block[idx] = orig
                numeric = (up - down) / (2 * h)
                scale = max(abs(grad[idx]) + abs(numeric), 1e-8)
                assert abs(grad[idx] - numeric) / scale <= 1e-4, (name, idx)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"{elapsed:.1f}s"


def test_criterion_5_training_efficacy(pipeline):
    """Best-model val loss < 50% of epoch-1; positive-vs-random gap >= 0.2; < 2 min."""
    report = pipeline.outcome.report
    assert pipeline.train_seconds < 120.0, f"{pipeline.train_seconds:.1f}s"
    assert len(report.epochs) <= 50
    epoch1 = report.epochs[0].val_loss
    # "final" loss = the returned best-snapshot model's validation loss
    assert report.best_val_loss < 0.5 * epoch1, (report.best_val_loss, epoch1)

    vocab, params = pipeline.outcome.vocab, pipeline.outcome.params

    # Pair vectors from one forward over the validation pairs' left rows,
    # then their right rows, as training batches them.
    pairs = pipeline.val_pairs
    rows = ([vocab.indices(p.left_tokens, 256) for p in pairs]
            + [vocab.indices(p.right_tokens, 256) for p in pairs])
    units = unit_rows(forward(params, TokenCounts.of(rows))[1])
    positive = np.sum(units[:len(pairs)] * units[len(pairs):], axis=1)

    # Paragraph vectors as embed writes them.
    index = scoring.embed_corpus(vocab, params, [pipeline.paragraphs])
    unit_of = {pid: u for ids, vectors in index.firms.values()
               for pid, u in zip(ids, unit_rows(vectors))}
    theme_of = pipeline.manifest.theme_by_paragraph
    ids = sorted(unit_of)
    rng = np.random.default_rng(500)
    cross = []
    while len(cross) < 300:
        i, j = rng.integers(0, len(ids), size=2)
        if theme_of[ids[i]] == theme_of[ids[j]]:
            continue
        cross.append(float(unit_of[ids[i]] @ unit_of[ids[j]]))
    gap = float(np.mean(positive) - np.mean(cross))
    assert gap >= 0.2, gap


def test_criterion_6_planted_risk_recovery(pipeline):
    """Planted pair ranks strictly highest at xi = 0.75 with planted evidence."""
    start = time.perf_counter()
    vocab, params = pipeline.outcome.vocab, pipeline.outcome.params
    index = scoring.embed_corpus(vocab, params, [pipeline.paragraphs])
    firms, matrix = rrs_matrix(index, threshold=0.75)
    elapsed = pipeline.train_seconds + (time.perf_counter() - start)
    assert elapsed < 120.0, f"{elapsed:.1f}s"

    off_diag = {(firms[i], firms[j]): matrix[i, j]
                for i in range(len(firms)) for j in range(i + 1, len(firms))}
    planted = tuple(sorted(pipeline.manifest.planted_pair))
    top_value = off_diag.pop(planted)
    assert top_value > max(off_diag.values()), (top_value, max(off_diag.values()))

    result = find_mrps(index, *planted, 0.75)
    planted_ids = pipeline.manifest.planted_ids
    planted_evidence = [(a, b) for a, b, _ in result.evidence
                        if a in planted_ids and b in planted_ids]
    assert len(planted_evidence) >= 1
    report_doc = scoring.render_evidence(scoring.mrp_result_to_dict(
        result, {p.id: p.text for p in pipeline.paragraphs}))
    assert planted_evidence[0][0] in report_doc


def test_criterion_7_pair_construction_contracts(fixture_paragraphs):
    """No date tokens in chronological outputs; accounting-only overlaps give
    nothing; lexical structure holds on 100% of outputs; regeneration is
    byte-identical under a fixed seed."""
    chrono = pairgen.build_chronological_pairs(fixture_paragraphs)
    assert chrono
    for pair in chrono:
        assert pairgen.scan_tokens(pair.left_tokens) == []
        assert pairgen.scan_tokens(pair.right_tokens) == []

    filler = " ".join(f"w{chr(97 + i % 26)}{chr(97 + i // 26)}" for i in range(40))
    acct_a = corpus.Paragraph("X:2023:1A:0000", "X", 2023, "1A", "",
                              tuple(corpus.tokenize(
                                  f"year ended December 31, 2023 {filler}")))
    acct_b = corpus.Paragraph("X:2023:1A:0001", "X", 2023, "1A", "",
                              tuple(corpus.tokenize(
                                  f"as of December 31, 2023 we saw {filler}")))
    assert pairgen.build_chronological_pairs([acct_a, acct_b]) == []

    lexical = pairgen.build_lexical_pairs(fixture_paragraphs, rng_seed=SEED)
    assert lexical
    by_id = {p.id: p for p in fixture_paragraphs}
    for pair in lexical:
        source = by_id[pair.provenance[0]].tokens
        assert pair.left_tokens == source[:len(pair.left_tokens)]
        assert pair.right_tokens == source[len(source) - len(pair.right_tokens):]
        assert len(pair.left_tokens) + len(pair.right_tokens) > len(source)

    again = pairgen.build_lexical_pairs(fixture_paragraphs, rng_seed=SEED)
    assert again == lexical
    assert pairgen.build_chronological_pairs(fixture_paragraphs) == chrono


def test_criterion_8_metric_correctness():
    """cavdsr(a,-a) == 1.0 exactly; NDCG hand case 1e-6; linear rho 1e-12;
    GICS rule on a 10-firm fixture."""
    rng = np.random.default_rng(800)
    r = rng.normal(0.0, 0.02, size=50)
    dates = tuple(f"d{k:03d}" for k in range(50))
    a = ReturnSeries("A", dates, r)
    b = ReturnSeries("B", dates, -r)
    assert cavdsr(a, b) == 1.0

    expected_ndcg = (1 / math.log2(3) + 1 / math.log2(4)) / (1 + 1 / math.log2(3))
    lists = [RankedList("q", ("miss", "hit1", "hit2"), frozenset({"hit1", "hit2"}))]
    table = retrieval_metrics(lists, [3])
    assert abs(table["ndcg"][3] - expected_ndcg) <= 1e-6
    assert abs(table["ndcg"][3] - 0.6934264036172708) <= 1e-6

    assert abs(alignment_rho([0.1, 0.2, 0.3], [0.2, 0.4, 0.6]) - 1.0) <= 1e-12

    sectors = ["Tech", "Tech", "Tech", "Energy", "Energy", "Health", "Health",
               "Utilities", "Financials", "Financials"]
    industries = ["Software", "Hardware", "Software", "Oil", "Solar", "Pharma",
                  "Pharma", "Electric", "Banks", "Insurance"]
    mapping = {f"T{k:02d}": (sectors[k], industries[k]) for k in range(10)}
    firms = sorted(mapping)
    for i in range(10):
        for j in range(i + 1, 10):
            a_id, b_id = firms[i], firms[j]
            assert gics_binary_rrs(mapping, a_id, b_id, "sector") == \
                int(mapping[a_id][0] == mapping[b_id][0])
            assert gics_binary_rrs(mapping, a_id, b_id, "industry") == \
                int(mapping[a_id][1] == mapping[b_id][1])


def _run_pipeline(fixture, work: Path) -> None:
    steps = [
        ["ingest", "--root", str(fixture.filings_dir),
         "--out", str(work / "paragraphs.jsonl")],
        ["pairs", "--in", str(work / "paragraphs.jsonl"), "--view", "both",
         "--seed", str(SEED), "--train", "140", "--val", "25",
         "--out", str(work / "pairs")],
        ["train", "--pairs", str(work / "pairs"), "--seed", "0",
         "--out", str(work / "model.bin"),
         "--report", str(work / "train_report.jsonl")],
        ["embed", "--model", str(work / "model.bin"),
         "--in", str(work / "paragraphs.jsonl"),
         "--out", str(work / "embeddings.bin")],
        ["score", "--model", str(work / "model.bin"),
         "--paragraphs", str(work / "paragraphs.jsonl"), "--threshold", "0.75",
         "--out-matrix", str(work / "rrs.csv"),
         "--out-evidence", str(work / "evidence")],
        ["evaluate", "--rrs", str(work / "rrs.csv"),
         "--prices", str(fixture.prices_dir), "--gics", str(fixture.gics_path),
         "--out", str(work / "eval")],
        ["sweep", "--model", str(work / "model.bin"),
         "--paragraphs", str(work / "paragraphs.jsonl"),
         "--grid", "0.6:0.9:0.05", "--prices", str(fixture.prices_dir),
         "--out", str(work / "sweep.csv")],
        ["report", "--workdir", str(work)],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv[0]


def test_criterion_9_pipeline_determinism(fixture_manifest, tmp_path):
    """Two full ingest->report runs produce byte-identical artifact trees."""
    run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
    run_a.mkdir()
    run_b.mkdir()
    _run_pipeline(fixture_manifest, run_a)
    _run_pipeline(fixture_manifest, run_b)

    files_a = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
    assert files_a == files_b
    assert len(files_a) > 30  # evidence files plus the top-level artifacts
    for rel in files_a:
        assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel
