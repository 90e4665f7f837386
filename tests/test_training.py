"""Training: InfoNCE values, analytic-vs-numeric gradients, Adam, the loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrel import training
from riskrel.encoder import PAD_INDEX, EncoderParams, init_params, pad_batch
from riskrel.errors import (EmptyParagraph, InsufficientPairs, NonFiniteGradient,
                            NonFiniteSimilarity)
from riskrel.pairs import CHRONOLOGICAL, LEXICAL, PositivePair
from riskrel.training import (
    AdamState,
    TrainConfig,
    TrainingBatch,
    adam_step,
    batch_objective,
    compute_gradients,
    info_nce_loss,
    train,
    warmup_factor,
)


def _config(**kwargs):
    defaults = dict(batch_size=4, seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


# --- InfoNCE ---

def test_uniform_similarity_gives_ln2():
    sims = np.full((2, 2), 0.37)
    assert abs(info_nce_loss(sims, temperature=0.1) - math.log(2.0)) <= 1e-12


@pytest.mark.parametrize("b", [2, 3, 8, 17])
def test_uniform_similarity_gives_ln_b(b):
    sims = np.full((b, b), -0.2)
    assert abs(info_nce_loss(sims, temperature=0.05) - math.log(b)) <= 1e-12


def test_closed_form_two_pair_case():
    # s+ = 0.9, s- = 0.1, tau = 0.05: per-anchor loss is ln(1 + e^-16),
    # evaluated here independently of the softmax code path.
    expected = math.log1p(math.exp(-16.0))
    sims = np.array([[0.9, 0.1], [0.1, 0.9]])
    assert abs(info_nce_loss(sims, temperature=0.05) - expected) <= 1e-12


def test_loss_vanishes_in_large_margin_limit():
    sims = np.array([[1000.0, 0.1], [0.1, 1000.0]])
    assert info_nce_loss(sims, temperature=0.05) < 1e-12


def test_loss_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        b = int(rng.integers(2, 9))
        sims = rng.uniform(-1, 1, size=(b, b))
        assert info_nce_loss(sims, rng.uniform(0.01, 1.0)) >= 0.0


def test_loss_matches_direct_softmax_oracle():
    rng = np.random.default_rng(1)
    sims = rng.uniform(-1, 1, size=(5, 5))
    tau = 0.07
    # independent evaluation: plain python softmax per row, all B terms
    per_anchor = []
    for i in range(5):
        denom = sum(math.exp(sims[i, j] / tau) for j in range(5))
        per_anchor.append(-math.log(math.exp(sims[i, i] / tau) / denom))
    assert info_nce_loss(sims, tau) == pytest.approx(np.mean(per_anchor), abs=1e-9)


def test_monotone_response_in_diagonal():
    sims = np.array([[0.2, 0.1, 0.0],
                     [0.1, 0.3, 0.2],
                     [0.0, 0.2, 0.1]])
    base = info_nce_loss(sims, 0.1)
    boosted = sims.copy()
    boosted[0, 0] += 0.05
    assert info_nce_loss(boosted, 0.1) < base


def test_non_finite_similarity_rejected():
    sims = np.array([[0.5, np.nan], [0.1, 0.5]])
    with pytest.raises(NonFiniteSimilarity):
        info_nce_loss(sims, 0.1)


# --- gradients ---

def _random_batch(rng, vocab_size, b=4, max_tokens=9):
    anchors, positives = [], []
    for _ in range(b):
        la = int(rng.integers(2, max_tokens))
        lp = int(rng.integers(2, max_tokens))
        anchors.append(rng.integers(1, vocab_size, size=la))
        positives.append(rng.integers(1, vocab_size, size=lp))
    return TrainingBatch(pad_batch(anchors), pad_batch(positives))


def test_all_pad_row_raises_empty_paragraph():
    """An all-PAD row is an empty paragraph, not a NaN cosine."""
    rng = np.random.default_rng(11)
    params = init_params(vocab_size=20, d=6, rng=11)
    batch = _random_batch(rng, 20)
    batch.positives[2] = PAD_INDEX
    for objective in (training.batch_objective, training.compute_gradients):
        with pytest.raises(EmptyParagraph, match="row 2"):
            objective(params, batch, _config())


def test_gradients_that_overflow_are_non_finite_gradient():
    """An L2 term of 1e308 overflows the gradient blocks to inf: the check
    after the backward pass names it, whatever a step's errstate would do."""
    params = init_params(vocab_size=20, d=6, rng=11)
    batch = _random_batch(np.random.default_rng(11), 20)
    with pytest.warns(RuntimeWarning), \
            pytest.raises(NonFiniteGradient, match="^gradient contains NaN or inf$"):
        compute_gradients(params, batch, _config(l2_coeff=1e308))


@pytest.mark.parametrize("side, row", [("anchors", 0), ("anchors", 3), ("positives", 1)])
def test_all_pad_row_error_names_its_side(side, row):
    """Anchors and positives share one stacked count matrix, but an all-PAD
    row is reported by its side and its row within that side."""
    params = init_params(vocab_size=20, d=6, rng=11)
    batch = _random_batch(np.random.default_rng(12), 20)
    getattr(batch, side)[row] = PAD_INDEX
    message = f"^{side[:-1]} row {row} has no non-padding tokens$"
    for objective in (training.batch_objective, training.compute_gradients):
        with pytest.raises(EmptyParagraph, match=message) as exc:
            objective(params, batch, _config())
        assert exc.value.row == row


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_objective_and_validation_see_one_cosine_matrix(seed):
    """The step, the objective and validation take their InfoNCE loss from
    one batch pass, so on one batch the three agree bit for bit."""
    rng = np.random.default_rng(seed)
    params = init_params(20, d=8, rng=rng)
    anchors = [rng.integers(1, 20, size=int(rng.integers(2, 9))) for _ in range(5)]
    positives = [rng.integers(1, 20, size=int(rng.integers(2, 9))) for _ in range(5)]
    batch = TrainingBatch(pad_batch(anchors), pad_batch(positives))
    config = _config(batch_size=5, l2_coeff=0.0)
    step_loss = training._loss_and_gradients(params, batch, config)[1]
    val_loss, _ = training._evaluate(params, [training._token_counts(batch)], config)
    assert step_loss == batch_objective(params, batch, config) == val_loss


def _central_difference(params, batch, config, h=1e-5):
    """Finite-difference oracle for every parameter block."""
    grads = {"embed": np.zeros_like(params.embed),
             "proj_w": np.zeros_like(params.proj_w),
             "proj_b": np.zeros_like(params.proj_b)}
    for name in grads:
        block = getattr(params, name)
        it = np.nditer(block, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = block[idx]
            block[idx] = original + h
            up = batch_objective(params, batch, config)
            block[idx] = original - h
            down = batch_objective(params, batch, config)
            block[idx] = original
            grads[name][idx] = (up - down) / (2 * h)
    return grads


def _max_rel_err(analytic, numeric):
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / scale))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("l2", [0.0, 1e-3])
def test_gradients_match_central_differences(seed, l2):
    rng = np.random.default_rng(seed)
    vocab_size = 12
    params = init_params(vocab_size, d=8, rng=rng)
    batch = _random_batch(rng, vocab_size)
    config = _config(l2_coeff=l2, temperature=0.1)
    analytic = compute_gradients(params, batch, config)
    numeric = _central_difference(params, batch, config)
    assert _max_rel_err(analytic.proj_w, numeric["proj_w"]) <= 1e-4
    assert _max_rel_err(analytic.proj_b, numeric["proj_b"]) <= 1e-4
    assert _max_rel_err(analytic.embed, numeric["embed"]) <= 1e-4


def test_untouched_rows_have_exactly_zero_gradient():
    rng = np.random.default_rng(3)
    params = init_params(30, d=8, rng=rng)
    batch = TrainingBatch(pad_batch([np.array([2, 3]), np.array([4, 5])]),
                          pad_batch([np.array([6]), np.array([7, 8])]))
    grads = compute_gradients(params, batch, _config(batch_size=2))
    touched = {2, 3, 4, 5, 6, 7, 8}
    for row in range(30):
        if row not in touched:
            assert np.array_equal(grads.embed[row], np.zeros(8)), row


def test_pad_row_gradient_forced_zero():
    rng = np.random.default_rng(4)
    params = init_params(10, d=4, rng=rng)
    batch = _random_batch(rng, 10, b=3, max_tokens=6)
    grads = compute_gradients(params, batch, _config(batch_size=3))
    assert np.array_equal(grads.embed[PAD_INDEX], np.zeros(4))


def _add_at_scatter(batch, d_h, vocab_size):
    """Position-by-position oracle for the pooled scatter, and its scale:
    the same scatter of absolute values, which bounds the rounding error."""
    b, d = batch.size, d_h.shape[1]
    out = np.zeros((vocab_size, d))
    scale = np.zeros((vocab_size, d))
    for ids, rows in ((batch.anchors, d_h[:b]), (batch.positives, d_h[b:])):
        mask = ids != PAD_INDEX
        per_pos = np.broadcast_to((rows / mask.sum(axis=1)[:, None])[:, None, :],
                                  (*ids.shape, d))
        np.add.at(out, ids[mask], per_pos[mask])
        np.add.at(scale, ids[mask], np.abs(per_pos[mask]))
    return out, scale


# Token rows over a small vocabulary, so ids repeat within and across rows;
# PAD (0) may sit anywhere but every row keeps at least one real token.
_TOKEN_ROW = st.lists(st.integers(0, 6), min_size=1, max_size=9).filter(
    lambda row: any(row))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), b=st.integers(2, 6), d=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pool_backward_matches_add_at_oracle(data, b, d, seed):
    anchors = data.draw(st.lists(_TOKEN_ROW, min_size=b, max_size=b), label="anchors")
    positives = data.draw(st.lists(_TOKEN_ROW, min_size=b, max_size=b), label="positives")
    batch = TrainingBatch(pad_batch([np.array(r) for r in anchors]),
                          pad_batch([np.array(r) for r in positives]))
    rng = np.random.default_rng(seed)
    d_h = rng.standard_normal((2 * b, d)) * 10.0 ** rng.integers(-3, 4, size=(2 * b, 1))
    tokens = training._token_counts(batch)
    rows, d_rows = tokens.rows, training._pool_backward(tokens, d_h)
    oracle, scale = _add_at_scatter(batch, d_h, vocab_size=7)
    touched = sorted({t for row in anchors + positives for t in row} - {PAD_INDEX})
    assert rows.tolist() == touched
    assert np.all(np.abs(d_rows - oracle[rows]) <= 1e-14 * scale[rows])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), b=st.integers(2, 6), d=st.integers(2, 6),
       l2=st.sampled_from([0.0, 1e-3]), seed=st.integers(0, 2 ** 32 - 1))
def test_padded_and_unpadded_batches_give_identical_bits(data, b, d, l2, seed):
    """The benchmark's probe passes padded matrices and training passes
    unpadded rows: the objective and every gradient block agree bit for bit."""
    anchors = [np.array(r) for r in data.draw(st.lists(_TOKEN_ROW, min_size=b, max_size=b),
                                              label="anchors")]
    positives = [np.array(r) for r in data.draw(st.lists(_TOKEN_ROW, min_size=b, max_size=b),
                                                label="positives")]
    params = init_params(7, d=d, rng=seed)
    config = _config(batch_size=b, l2_coeff=l2)
    padded = TrainingBatch(pad_batch(anchors), pad_batch(positives))
    unpadded = TrainingBatch(anchors, positives)
    assert (batch_objective(params, padded, config).hex()
            == batch_objective(params, unpadded, config).hex())
    for got, want in zip(compute_gradients(params, unpadded, config).blocks(),
                         compute_gradients(params, padded, config).blocks()):
        assert got.tobytes() == want.tobytes()


def test_gradient_near_zero_at_orthogonal_optimum():
    # One distinct token per pair, each embedded on its own axis, identity
    # head: anchors equal their positives (s_ii = 1) and cross pairs are
    # orthogonal (s_ij = 0), the structural optimum of the loss.
    b, d = 4, 8
    embed = np.zeros((2 + b, d))
    for k in range(b):
        embed[2 + k, k] = 2.0
    params = EncoderParams(embed=embed, proj_w=np.eye(d), proj_b=np.zeros(d))
    ids = [np.array([2 + k]) for k in range(b)]
    batch = TrainingBatch(pad_batch(ids), pad_batch(ids))
    grads = compute_gradients(params, batch, _config(l2_coeff=0.0, temperature=0.05))
    total = math.sqrt(sum(float(np.sum(g ** 2)) for g in
                          (grads.embed, grads.proj_w, grads.proj_b)))
    assert total < 1e-6


# --- Adam ---

def test_warmup_factor_edges():
    assert warmup_factor(0, 100) == 0.0
    assert warmup_factor(50, 100) == 0.5
    assert warmup_factor(100, 100) == 1.0
    assert warmup_factor(250, 100) == 1.0
    assert warmup_factor(0, 0) == 1.0


def test_adam_step_zero_rate_moves_nothing():
    params = init_params(6, d=4, rng=0)
    before = params.copy()
    grads = EncoderParams(np.ones_like(params.embed),
                          np.ones_like(params.proj_w),
                          np.ones_like(params.proj_b))
    state = AdamState.zeros_like(params)
    adam_step(params, grads, state, step=0, config=_config(warmup_steps=100))
    assert np.array_equal(params.embed, before.embed)
    assert np.array_equal(params.proj_w, before.proj_w)
    assert np.array_equal(params.proj_b, before.proj_b)
    # moments still accumulate during warmup
    assert not np.array_equal(state.m[1], np.zeros_like(state.m[1]))


def test_adam_first_full_rate_step_is_unit_update():
    # Hand evaluation of the recurrence for g = 1 at t = 1:
    # m_hat = v_hat = 1, so the step is -lr / (1 + eps).
    lr = 0.01
    expected_delta = -lr * 1.0 / (1.0 + 1e-8)
    params = init_params(6, d=4, rng=1)
    before = params.proj_b.copy()
    grads = EncoderParams(np.zeros_like(params.embed),
                          np.zeros_like(params.proj_w),
                          np.ones_like(params.proj_b))
    state = AdamState.zeros_like(params)
    adam_step(params, grads, state, step=0,
              config=_config(warmup_steps=0, learning_rate=lr))
    assert params.proj_b - before == pytest.approx(expected_delta, abs=1e-18)


def test_adam_in_place_matches_reference_expression_bitwise():
    rng = np.random.default_rng(9)
    params = init_params(15, d=6, rng=rng)
    state = AdamState.zeros_like(params)
    config = _config(warmup_steps=3, learning_rate=0.02)
    ref = params.copy()
    moments = {name: (np.zeros_like(getattr(ref, name)), np.zeros_like(getattr(ref, name)))
               for name in ("embed", "proj_w", "proj_b")}
    for step in range(6):
        grads = EncoderParams(*(rng.standard_normal(a.shape) * 10.0 ** (step - 3)
                                for a in (params.embed, params.proj_w, params.proj_b)))
        adam_step(params, grads, state, step, config)
        lr = config.learning_rate * warmup_factor(step, config.warmup_steps)
        bc1 = 1.0 - training.ADAM_BETA1 ** (step + 1)
        bc2 = 1.0 - training.ADAM_BETA2 ** (step + 1)
        for name, (m, v) in moments.items():
            grad = getattr(grads, name)
            m[...] = training.ADAM_BETA1 * m + (1.0 - training.ADAM_BETA1) * grad
            v[...] = training.ADAM_BETA2 * v + (1.0 - training.ADAM_BETA2) * grad ** 2
            getattr(ref, name)[...] -= (lr * (m / bc1)
                                        / (np.sqrt(v / bc2) + training.ADAM_EPS))
        ref.embed[PAD_INDEX] = 0.0
        for k, (name, (m, v)) in enumerate(moments.items()):
            assert np.array_equal(getattr(params, name), getattr(ref, name)), (step, name)
            assert np.array_equal(state.m[k], m), (step, name)
            assert np.array_equal(state.v[k], v), (step, name)


def test_adam_never_mutates_pad_row():
    rng = np.random.default_rng(5)
    params = init_params(12, d=4, rng=rng)
    state = AdamState.zeros_like(params)
    config = _config(batch_size=3, warmup_steps=0)
    for step in range(10):
        batch = _random_batch(rng, 12, b=3, max_tokens=5)
        grads = compute_gradients(params, batch, config)
        adam_step(params, grads, state, step, config)
    assert np.array_equal(params.embed[PAD_INDEX], np.zeros(4))


# --- training loop ---

def _cluster_pairs(n_clusters=4, per_cluster=12, tokens_per_side=6, seed=0):
    """Planted clusters: positives share a cluster vocabulary."""
    rng = np.random.default_rng(seed)
    vocab = {c: [f"c{c}_w{k}" for k in range(12)] for c in range(n_clusters)}
    pairs = []
    for c in range(n_clusters):
        for k in range(per_cluster):
            left = tuple(rng.choice(vocab[c], size=tokens_per_side))
            right = tuple(rng.choice(vocab[c], size=tokens_per_side))
            view = LEXICAL if k % 2 else CHRONOLOGICAL
            pairs.append(PositivePair(view, left, right, (f"P:{c}:{k}",)))
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]


def test_train_improves_validation_loss():
    pairs = _cluster_pairs()
    config = TrainConfig(batch_size=8, max_epochs=12, patience=12, seed=1,
                         embed_dim=16, vocab_min_freq=1, warmup_steps=5)
    outcome = train(pairs[:36], pairs[36:], config)
    first = outcome.report.epochs[0].val_loss
    assert outcome.report.best_val_loss < first
    assert outcome.report.epochs[-1].margin > outcome.report.epochs[0].margin


def test_train_requires_enough_pairs():
    pairs = _cluster_pairs(per_cluster=2)
    with pytest.raises(InsufficientPairs):
        train(pairs[:4], pairs[4:6], TrainConfig(batch_size=16, seed=0))


@pytest.mark.parametrize("n_val", [0, 1])
def test_train_rejects_a_validation_set_without_a_batch_before_any_step(monkeypatch, n_val):
    steps = []
    monkeypatch.setattr(training, "adam_step", lambda *args: steps.append(args))
    pairs = _cluster_pairs()
    with pytest.raises(InsufficientPairs,
                       match=rf"^{n_val} validation pairs < 2 \(one in-batch negative\)$"):
        train(pairs[:32], pairs[32:32 + n_val], TrainConfig(batch_size=8, seed=0))
    assert steps == []


def test_train_early_stopping_rule(monkeypatch):
    # Scripted validation losses strictly increasing from epoch 1: with
    # patience=2 the loop must stop at epoch 3 and keep epoch 1.
    losses = iter([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0), (5.0, 0.0)])
    monkeypatch.setattr(training, "_evaluate",
                        lambda params, batches, config: next(losses))
    pairs = _cluster_pairs()
    config = TrainConfig(batch_size=8, max_epochs=10, patience=2, seed=2,
                         embed_dim=8, vocab_min_freq=1)
    outcome = train(pairs[:32], pairs[32:40], config)
    assert len(outcome.report.epochs) == 3
    assert outcome.report.best_epoch == 1
    assert outcome.report.stop_reason == "early_stopping"


def test_train_runs_to_max_epochs_when_improving(monkeypatch):
    losses = iter([(1.0 / (k + 1), 0.0) for k in range(4)])
    monkeypatch.setattr(training, "_evaluate",
                        lambda params, batches, config: next(losses))
    pairs = _cluster_pairs()
    config = TrainConfig(batch_size=8, max_epochs=4, patience=2, seed=3,
                         embed_dim=8, vocab_min_freq=1)
    outcome = train(pairs[:32], pairs[32:40], config)
    assert outcome.report.stop_reason == "max_epochs"
    assert outcome.report.best_epoch == 4


def test_train_deterministic():
    pairs = _cluster_pairs()
    config = TrainConfig(batch_size=8, max_epochs=6, patience=6, seed=4,
                         embed_dim=8, vocab_min_freq=1)
    first = train(pairs[:36], pairs[36:], config)
    second = train(pairs[:36], pairs[36:], config)
    assert first.report == second.report
    assert np.array_equal(first.params.embed, second.params.embed)
    assert np.array_equal(first.params.proj_w, second.params.proj_w)


def test_train_vocab_from_training_split_only():
    pairs = _cluster_pairs()
    config = TrainConfig(batch_size=8, max_epochs=1, patience=1, seed=5,
                         embed_dim=8, vocab_min_freq=1)
    val_only_token = "zzz_only_in_val"
    val = [PositivePair(LEXICAL, (val_only_token,) * 6, (val_only_token,) * 6,
                        ("P:val",))] + pairs[36:44]
    outcome = train(pairs[:36], val, config)
    assert val_only_token not in outcome.vocab.token_to_index


def test_report_jsonl_has_epoch_and_summary_records():
    pairs = _cluster_pairs()
    config = TrainConfig(batch_size=8, max_epochs=2, patience=2, seed=6,
                         embed_dim=8, vocab_min_freq=1)
    outcome = train(pairs[:32], pairs[32:40], config)
    records = outcome.report.records()
    assert len(records) == len(outcome.report.epochs) + 1
    assert records[-1]["record"] == "summary"


def test_config_temperature_must_be_finite():
    """At an infinite temperature every logit is 0, so the loss is ln B and nothing is learned."""
    with pytest.raises(ValueError, match="^temperature must be finite and positive$"):
        TrainConfig(temperature=math.inf)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1)
    with pytest.raises(ValueError):
        TrainConfig(temperature=0.0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    for setting in ({"temperature": math.nan}, {"max_epochs": 0}, {"max_len": 0},
                    {"l2_coeff": -1.0}, {"l2_coeff": math.nan}, {"learning_rate": math.nan},
                    {"learning_rate": math.inf}, {"learning_rate": -1e-3}):
        with pytest.raises(ValueError, match=f"^{next(iter(setting))} must be"):
            TrainConfig(**setting)
