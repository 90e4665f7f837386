"""Contrastive training of the paragraph encoder.

InfoNCE with in-batch negatives: a batch of B positive pairs yields a
B x B cosine matrix whose diagonal holds the positives; every anchor sees
the other B-1 positives as negatives. Optimization is Adam with a linear
warmup on the learning rate, L2 regularization on the touched parameters,
and early stopping on validation loss. Gradients are exact and analytic;
tests verify them against central differences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .encoder import (
    DEFAULT_EMBED_DIM,
    DEFAULT_MAX_LEN,
    DEFAULT_MIN_FREQ,
    PAD_INDEX,
    EncoderParams,
    Vocabulary,
    build_vocab,
    forward,
    init_params,
    pad_batch,
    unit_rows,
)
from .errors import InsufficientPairs, NonFiniteGradient, NonFiniteSimilarity
from .pairs import PositivePair

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Training hyperparameters; defaults are desk-scale."""

    batch_size: int = 16
    learning_rate: float = 1e-3
    warmup_steps: int = 50
    max_epochs: int = 50
    patience: int = 5
    temperature: float = 0.05
    l2_coeff: float = 1e-4
    seed: int = 0
    max_len: int = DEFAULT_MAX_LEN
    embed_dim: int = DEFAULT_EMBED_DIM
    vocab_min_freq: int = DEFAULT_MIN_FREQ

    def __post_init__(self) -> None:
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (in-batch negatives)")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class TrainingBatch:
    """Aligned anchor/positive index matrices, PAD-padded, one row per pair."""

    anchors: np.ndarray    # (B, La) int64
    positives: np.ndarray  # (B, Lp) int64

    @property
    def size(self) -> int:
        return self.anchors.shape[0]


@dataclass
class Gradients:
    """Gradient blocks matching EncoderParams."""

    embed: np.ndarray
    proj_w: np.ndarray
    proj_b: np.ndarray


@dataclass
class AdamState:
    """First/second moment accumulators, zero-initialized."""

    m_embed: np.ndarray
    v_embed: np.ndarray
    m_proj_w: np.ndarray
    v_proj_w: np.ndarray
    m_proj_b: np.ndarray
    v_proj_b: np.ndarray

    @classmethod
    def zeros_like(cls, params: EncoderParams) -> "AdamState":
        return cls(*(np.zeros_like(a) for a in
                     (params.embed, params.embed, params.proj_w,
                      params.proj_w, params.proj_b, params.proj_b)))


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    margin: float  # mean positive similarity minus mean in-batch negative similarity


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = float("inf")
    stop_reason: str = ""

    def to_jsonl(self) -> str:
        """One record per epoch plus a summary record."""
        lines = [json.dumps({"record": "epoch", "epoch": e.epoch,
                             "train_loss": e.train_loss, "val_loss": e.val_loss,
                             "margin": e.margin})
                 for e in self.epochs]
        lines.append(json.dumps({"record": "summary",
                                 "epochs_run": len(self.epochs),
                                 "best_epoch": self.best_epoch,
                                 "best_val_loss": self.best_val_loss,
                                 "stop_reason": self.stop_reason}))
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")


@dataclass
class TrainOutcome:
    """Best-validation snapshot plus the vocabulary it indexes."""

    vocab: Vocabulary
    params: EncoderParams
    report: TrainReport


def info_nce_loss(sim_matrix: np.ndarray, temperature: float) -> float:
    """Mean InfoNCE loss over a B x B similarity matrix.

    Entry (i, j) is the similarity of anchor i with positive j; the
    diagonal holds each anchor's own positive. Computed as negative
    log-softmax of the diagonal with max-subtraction for stability.
    """
    return float(np.mean(_per_anchor_loss(sim_matrix, temperature)))


def _per_anchor_loss(sim_matrix: np.ndarray, temperature: float) -> np.ndarray:
    s = np.asarray(sim_matrix, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 2:
        raise ValueError(f"similarity matrix must be B x B with B >= 2, got {s.shape}")
    if not np.all(np.isfinite(s)):
        raise NonFiniteSimilarity("similarity matrix contains NaN or inf")
    z = s / temperature
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    return lse - np.diag(z)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    return e / e.sum(axis=1, keepdims=True)


def _touched_rows(batch: TrainingBatch) -> np.ndarray:
    ids = np.unique(np.concatenate([batch.anchors.ravel(), batch.positives.ravel()]))
    return ids[ids != PAD_INDEX]


def batch_objective(params: EncoderParams, batch: TrainingBatch,
                    config: TrainConfig) -> float:
    """InfoNCE plus L2 on the parameters the batch touches.

    The regularizer covers the affine head and the embedding rows looked
    up by this batch, so untouched vocabulary rows keep exactly zero
    gradient. This is the objective the analytic gradients differentiate.
    """
    _, u = forward(params, batch.anchors)
    _, v = forward(params, batch.positives)
    loss = info_nce_loss(unit_rows(u) @ unit_rows(v).T, config.temperature)
    if config.l2_coeff:
        rows = _touched_rows(batch)
        reg = (np.sum(params.proj_w ** 2) + np.sum(params.proj_b ** 2)
               + np.sum(params.embed[rows] ** 2))
        loss += config.l2_coeff * reg
    return float(loss)


def compute_gradients(params: EncoderParams, batch: TrainingBatch,
                      config: TrainConfig) -> Gradients:
    """Exact analytic gradients of :func:`batch_objective`."""
    grads, _, _ = _loss_and_gradients(params, batch, config)
    return grads


def _loss_and_gradients(params: EncoderParams, batch: TrainingBatch,
                        config: TrainConfig) -> tuple[Gradients, float, np.ndarray]:
    """Shared forward/backward pass; returns (grads, info_nce loss, sims)."""
    b = batch.size
    tau = config.temperature

    h_a, u = forward(params, batch.anchors)
    h_p, v = forward(params, batch.positives)
    nu = np.linalg.norm(u, axis=1, keepdims=True)
    nv = np.linalg.norm(v, axis=1, keepdims=True)
    u_hat = u / nu
    v_hat = v / nv
    sims = u_hat @ v_hat.T
    loss = info_nce_loss(sims, tau)

    # dL/dS: softmax rows minus identity, scaled by 1/(B*tau)
    g_s = (_softmax_rows(sims / tau) - np.eye(b)) / (b * tau)

    # back through cosine: s_ij = u_hat_i . v_hat_j
    row_dot = (g_s * sims).sum(axis=1, keepdims=True)
    col_dot = (g_s * sims).sum(axis=0)[:, None]
    d_u = (g_s @ v_hat - row_dot * u_hat) / nu
    d_v = (g_s.T @ u_hat - col_dot * v_hat) / nv

    # back through tanh and the affine head
    g_u = d_u * (1.0 - u ** 2)
    g_v = d_v * (1.0 - v ** 2)
    d_proj_w = g_u.T @ h_a + g_v.T @ h_p
    d_proj_b = g_u.sum(axis=0) + g_v.sum(axis=0)
    d_h_a = g_u @ params.proj_w
    d_h_p = g_v @ params.proj_w

    # back through the masked mean into the touched embedding rows
    d_embed = np.zeros_like(params.embed)
    for ids, d_h in ((batch.anchors, d_h_a), (batch.positives, d_h_p)):
        mask = ids != PAD_INDEX
        counts = mask.sum(axis=1)
        per_pos = np.broadcast_to((d_h / counts[:, None])[:, None, :],
                                  (*ids.shape, params.d))
        np.add.at(d_embed, ids[mask], per_pos[mask])
    d_embed[PAD_INDEX] = 0.0

    if config.l2_coeff:
        lam2 = 2.0 * config.l2_coeff
        d_proj_w += lam2 * params.proj_w
        d_proj_b += lam2 * params.proj_b
        rows = _touched_rows(batch)
        d_embed[rows] += lam2 * params.embed[rows]

    for block in (d_embed, d_proj_w, d_proj_b):
        if not np.all(np.isfinite(block)):
            raise NonFiniteGradient("gradient contains NaN or inf")
    return Gradients(d_embed, d_proj_w, d_proj_b), loss, sims


def warmup_factor(step: int, warmup_steps: int) -> float:
    """Linear warmup multiplier: step/warmup_steps, capped at 1."""
    if warmup_steps <= 0:
        return 1.0
    return min(1.0, step / warmup_steps)


def adam_step(params: EncoderParams, grads: Gradients, state: AdamState,
              step: int, config: TrainConfig) -> tuple[EncoderParams, AdamState]:
    """One Adam update with bias correction and linear warmup.

    ``step`` counts from 0; the effective learning rate is
    learning_rate * min(1, step/warmup_steps), so the very first warmup
    step moves nothing while still accumulating moments. Updates are
    in-place.
    """
    lr = config.learning_rate * warmup_factor(step, config.warmup_steps)
    t = step + 1
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for value, grad, m, v in (
            (params.embed, grads.embed, state.m_embed, state.v_embed),
            (params.proj_w, grads.proj_w, state.m_proj_w, state.v_proj_w),
            (params.proj_b, grads.proj_b, state.m_proj_b, state.v_proj_b)):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad ** 2
        value -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    params.embed[PAD_INDEX] = 0.0
    return params, state


def _index_pairs(pairs: Sequence[PositivePair], vocab: Vocabulary,
                 max_len: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    anchors = [vocab.indices(p.left_tokens, max_len) for p in pairs]
    positives = [vocab.indices(p.right_tokens, max_len) for p in pairs]
    return anchors, positives


def _evaluate(params: EncoderParams, anchors: list[np.ndarray],
              positives: list[np.ndarray], config: TrainConfig) -> tuple[float, float]:
    """Validation loss and positive-minus-negative margin, fixed order.

    Batches of batch_size; a final short batch is kept when it still has
    at least two pairs (one negative).
    """
    b = config.batch_size
    total_loss = 0.0
    total_pos = 0.0
    total_neg = 0.0
    n_anchors = 0
    n_neg = 0
    start = 0
    while start < len(anchors):
        stop = min(start + b, len(anchors))
        if stop - start < 2:
            break
        batch = TrainingBatch(pad_batch(anchors[start:stop]),
                              pad_batch(positives[start:stop]))
        _, u = forward(params, batch.anchors)
        _, v = forward(params, batch.positives)
        sims = unit_rows(u) @ unit_rows(v).T
        total_loss += float(_per_anchor_loss(sims, config.temperature).sum())
        total_pos += float(np.trace(sims))
        total_neg += float(sims.sum() - np.trace(sims))
        k = stop - start
        n_anchors += k
        n_neg += k * (k - 1)
        start = stop
    if n_anchors == 0:
        raise InsufficientPairs("validation set yields no batch of >= 2 pairs")
    margin = total_pos / n_anchors - total_neg / n_neg
    return total_loss / n_anchors, margin


def train(pairs_train: Sequence[PositivePair], pairs_val: Sequence[PositivePair],
          config: TrainConfig) -> TrainOutcome:
    """Train the encoder on merged chronological+lexical positive pairs.

    The vocabulary is built from the training split only. Each epoch is
    one seeded shuffle pass in batches of batch_size (final short batch
    dropped); validation loss is computed every epoch and the best
    snapshot is kept. Stops after ``patience`` epochs without improvement
    or at max_epochs. Deterministic for a fixed config and inputs.
    """
    if len(pairs_train) < config.batch_size:
        raise InsufficientPairs(
            f"{len(pairs_train)} training pairs < batch size {config.batch_size}")

    vocab = build_vocab(
        (side for p in pairs_train for side in (p.left_tokens, p.right_tokens)),
        min_freq=config.vocab_min_freq)
    train_anchors, train_positives = _index_pairs(pairs_train, vocab, config.max_len)
    val_anchors, val_positives = _index_pairs(pairs_val, vocab, config.max_len)

    rng = np.random.default_rng(config.seed)
    params = init_params(len(vocab), config.embed_dim, rng)
    state = AdamState.zeros_like(params)
    report = TrainReport()
    best_params = params.copy()
    epochs_since_best = 0
    step = 0
    n = len(pairs_train)
    b = config.batch_size

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n - b + 1, b):
            rows = order[start:start + b]
            batch = TrainingBatch(
                pad_batch([train_anchors[r] for r in rows]),
                pad_batch([train_positives[r] for r in rows]))
            grads, loss, _ = _loss_and_gradients(params, batch, config)
            adam_step(params, grads, state, step, config)
            epoch_loss += loss
            n_batches += 1
            step += 1

        val_loss, margin = _evaluate(params, val_anchors, val_positives, config)
        report.epochs.append(EpochStats(
            epoch=epoch, train_loss=epoch_loss / n_batches,
            val_loss=val_loss, margin=margin))

        if val_loss < report.best_val_loss:
            report.best_val_loss = val_loss
            report.best_epoch = epoch
            best_params = params.copy()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                report.stop_reason = "early_stopping"
                break
    if not report.stop_reason:
        report.stop_reason = "max_epochs"
    return TrainOutcome(vocab=vocab, params=best_params, report=report)
