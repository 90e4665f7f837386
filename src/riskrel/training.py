"""Contrastive training of the paragraph encoder.

InfoNCE with in-batch negatives: a batch of B positive pairs yields a
B x B cosine matrix whose diagonal holds the positives; every anchor sees
the other B-1 positives as negatives. Optimization is Adam with a linear
warmup on the learning rate, L2 regularization on the touched parameters,
and early stopping on validation loss. Gradients are exact and analytic;
tests verify them against central differences.

Batches are not padded: a batch holds its pairs' index arrays as they are.
Each step builds one token-count matrix (:class:`~riskrel.encoder.TokenCounts`)
over the B anchor rows followed by the B positive rows, and the forward and
the backward share it. The forward is one :func:`~riskrel.encoder.forward`
over all 2B rows: one product for the pooled vectors and one tanh affine.
The backward into the embedding table is the transposed product rather
than a position-by-position scatter: each paragraph row spreads one vector
over its tokens, so the (touched rows x 2B) count matrix times the 2B
per-row vectors gives every touched row's gradient (:func:`_pool_backward`).
A token repeated k times in a row is rounded once as k * x instead of as
k sequential additions, and the rows are summed in the product's order, so
the gradient may differ from a sequential scatter in the last bits. Like
the forward, it is order-invariant bit for bit. Both products cost
2B x R x d for the batch's R distinct tokens; the encoder module gives the
measured crossover against a gather. The Adam update runs in place with
reusable buffers and is bit-identical to its textbook expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .corpus import write_jsonl
from .encoder import (
    DEFAULT_EMBED_DIM,
    DEFAULT_MAX_LEN,
    DEFAULT_MIN_FREQ,
    PAD_INDEX,
    U32_MAX,
    EncoderParams,
    TokenCounts,
    Vocabulary,
    build_vocab,
    forward,
    init_params,
    row_norms,
)
from .errors import EmptyParagraph, InsufficientPairs, NonFiniteGradient, NonFiniteSimilarity
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
        if not 0 < self.temperature < math.inf:
            raise ValueError("temperature must be finite and positive")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if self.max_len > U32_MAX:
            raise ValueError(f"max_len must be <= {U32_MAX}, the model file's u32 bound")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        if not self.l2_coeff >= 0:
            raise ValueError("l2_coeff must be >= 0")


@dataclass
class TrainingBatch:
    """Aligned anchor and positive index rows, one per pair: B arrays of any
    lengths each, or a PAD-padded (B, L) matrix each."""

    anchors: Sequence[np.ndarray]    # B int64 rows
    positives: Sequence[np.ndarray]  # B int64 rows

    @property
    def size(self) -> int:
        return len(self.anchors)


@dataclass
class AdamState:
    """First and second moments, one array per parameter block in
    :meth:`EncoderParams.blocks` order, zero-initialized.

    ``scratch`` holds two reusable buffers per block, so that an update
    allocates no temporaries the size of the embedding table.
    """

    m: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]
    scratch: tuple[tuple[np.ndarray, np.ndarray], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.scratch = tuple((np.empty_like(m), np.empty_like(m)) for m in self.m)

    @classmethod
    def zeros_like(cls, params: EncoderParams) -> "AdamState":
        m = tuple(np.zeros_like(block) for block in params.blocks())
        return cls(m, tuple(np.zeros_like(block) for block in m))


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

    def records(self) -> list[dict]:
        """One record per epoch plus a summary record."""
        return [*({"record": "epoch", "epoch": e.epoch, "train_loss": e.train_loss,
                   "val_loss": e.val_loss, "margin": e.margin} for e in self.epochs),
                {"record": "summary", "epochs_run": len(self.epochs),
                 "best_epoch": self.best_epoch, "best_val_loss": self.best_val_loss,
                 "stop_reason": self.stop_reason}]

    def save(self, path: str | Path) -> None:
        write_jsonl(self.records(), path)


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
    return float(np.mean(_per_anchor_loss(sim_matrix, temperature)[0]))


def _per_anchor_loss(sim_matrix: np.ndarray,
                     temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """Each anchor's InfoNCE loss, and the softmax rows of sim / temperature
    that its gradient reads, from one max-shifted exponential."""
    s = np.asarray(sim_matrix, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 2:
        raise ValueError(f"similarity matrix must be B x B with B >= 2, got {s.shape}")
    if not np.all(np.isfinite(s)):
        raise NonFiniteSimilarity("similarity matrix contains NaN or inf")
    z = s / temperature
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    total = e.sum(axis=1, keepdims=True)
    return zmax[:, 0] + np.log(total[:, 0]) - np.diag(z), e / total


def _token_counts(batch: TrainingBatch) -> TokenCounts:
    """The token counts of the B anchor rows followed by the B positive rows.

    An all-PAD row raises :class:`EmptyParagraph` naming its side and its
    row within that side.
    """
    b = batch.size
    try:
        return TokenCounts.of([*batch.anchors, *batch.positives])
    except EmptyParagraph as exc:
        side, row = ("anchor", exc.row) if exc.row < b else ("positive", exc.row - b)
        raise EmptyParagraph(f"{side} row {row} has no non-padding tokens",
                             row=row) from None


def _pool_backward(tokens: TokenCounts, d_h: np.ndarray) -> np.ndarray:
    """Back through the mean pool into the embedding rows it read.

    ``d_h`` holds the gradients of the pooled vectors of ``tokens``' rows,
    (B, d). Returns the (len(tokens.rows), d) gradients of
    ``tokens.rows``.

    Every pooled position of paragraph row i receives the same vector
    d_h[i] / lengths[i], so the scatter is one product: the forward's
    (touched rows x B) count matrix times those B vectors. A token that
    occurs k times in a row thus contributes k * x once, where a
    position-by-position scatter adds x k times in sequence, and the
    product sums the rows in its own order, so the two can differ in the
    last bits.
    """
    return tokens.counts @ (d_h / tokens.lengths[:, None])


def _batch_pass(params: EncoderParams, tokens: TokenCounts
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Training's one forward pass over the token counts of the 2B stacked
    rows, anchors then positives (:func:`_token_counts`): (pooled h, encoded
    u, floored norms, unit rows as in :func:`unit_rows`), and the B x B
    anchor-positive cosines.

    The step, :func:`batch_objective` and validation all read their cosines
    from here.
    """
    h, u = forward(params, tokens)
    norms = row_norms(u)
    units = u / norms
    b = len(units) // 2
    return h, u, norms, units, units[:b] @ units[b:].T


def batch_objective(params: EncoderParams, batch: TrainingBatch,
                    config: TrainConfig) -> float:
    """InfoNCE plus L2 on the parameters the batch touches.

    The regularizer covers the affine head and the embedding rows looked
    up by this batch, so untouched vocabulary rows keep exactly zero
    gradient. This is the objective the analytic gradients differentiate.
    """
    tokens = _token_counts(batch)
    sims = _batch_pass(params, tokens)[-1]
    loss = info_nce_loss(sims, config.temperature)
    if config.l2_coeff:
        reg = (np.sum(params.proj_w ** 2) + np.sum(params.proj_b ** 2)
               + np.sum(params.embed[tokens.rows] ** 2))
        loss += config.l2_coeff * reg
    return float(loss)


def compute_gradients(params: EncoderParams, batch: TrainingBatch,
                      config: TrainConfig) -> EncoderParams:
    """Exact analytic gradients of :func:`batch_objective`, one per block."""
    return _loss_and_gradients(params, batch, config)[0]


def _loss_and_gradients(params: EncoderParams, batch: TrainingBatch,
                        config: TrainConfig) -> tuple[EncoderParams, float]:
    """The step's forward and backward pass; returns (grads, InfoNCE loss)."""
    b = batch.size
    tau = config.temperature

    tokens = _token_counts(batch)
    h, u, norms, units, sims = _batch_pass(params, tokens)
    per_anchor, softmax = _per_anchor_loss(sims, tau)
    loss = float(np.mean(per_anchor))

    # dL/dS: softmax rows minus identity, scaled by 1/(B*tau)
    g_s = (softmax - np.eye(b)) / (b * tau)

    # back through cosine: s_ij = u_hat_i . v_hat_j, anchors u_hat = units[:b]
    # and positives v_hat = units[b:]
    u_hat, v_hat = units[:b], units[b:]
    row_dot = (g_s * sims).sum(axis=1, keepdims=True)
    col_dot = (g_s * sims).sum(axis=0)[:, None]
    d_units = np.concatenate([g_s @ v_hat - row_dot * u_hat,
                              g_s.T @ u_hat - col_dot * v_hat]) / norms

    # back through tanh and the affine head, all 2B rows at once
    g = d_units * (1.0 - u ** 2)
    d_proj_w = g.T @ h
    d_proj_b = g.sum(axis=0)

    # back through the mean pool into the touched embedding rows: the
    # forward's token-count product, transposed (see _pool_backward); the
    # L2 term reuses the same touched rows
    d_rows = _pool_backward(tokens, g @ params.proj_w)

    if config.l2_coeff:
        lam2 = 2.0 * config.l2_coeff
        d_proj_w += lam2 * params.proj_w
        d_proj_b += lam2 * params.proj_b
        d_rows += lam2 * params.embed[tokens.rows]

    for block in (d_rows, d_proj_w, d_proj_b):
        if not np.all(np.isfinite(block)):
            raise NonFiniteGradient("gradient contains NaN or inf")
    d_embed = np.zeros_like(params.embed)
    d_embed[tokens.rows] = d_rows
    return EncoderParams(d_embed, d_proj_w, d_proj_b), loss


def warmup_factor(step: int, warmup_steps: int) -> float:
    """Linear warmup multiplier: step/warmup_steps, capped at 1."""
    if warmup_steps <= 0:
        return 1.0
    return min(1.0, step / warmup_steps)


def adam_step(params: EncoderParams, grads: EncoderParams, state: AdamState,
              step: int, config: TrainConfig) -> tuple[EncoderParams, AdamState]:
    """One Adam update with bias correction and linear warmup.

    ``step`` counts from 0; the effective learning rate is
    learning_rate * min(1, step/warmup_steps), so the very first warmup
    step moves nothing while still accumulating moments. Parameters and
    moments are updated in place.
    """
    lr = config.learning_rate * warmup_factor(step, config.warmup_steps)
    t = step + 1
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    # In place, in the operation order of
    #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2
    #   value -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
    # so the result is bit-identical to that expression.
    for value, grad, m, v, (a, b) in zip(params.blocks(), grads.blocks(),
                                         state.m, state.v, state.scratch):
        m *= ADAM_BETA1
        m += np.multiply(grad, 1.0 - ADAM_BETA1, out=a)
        v *= ADAM_BETA2
        np.square(grad, out=a)
        v += np.multiply(a, 1.0 - ADAM_BETA2, out=a)
        np.divide(m, bc1, out=a)
        a *= lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        value -= a
    params.embed[PAD_INDEX] = 0.0
    return params, state


def _index_pairs(pairs: Sequence[PositivePair], vocab: Vocabulary,
                 max_len: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    anchors = [vocab.indices(p.left_tokens, max_len) for p in pairs]
    positives = [vocab.indices(p.right_tokens, max_len) for p in pairs]
    return anchors, positives


def _batches(anchors: Sequence[np.ndarray], positives: Sequence[np.ndarray],
             order: Sequence[int], size: int, min_size: int) -> Iterator[TrainingBatch]:
    """Unpadded batches of ``size`` pairs taken in ``order``; a short last
    batch is kept only if it holds at least ``min_size`` pairs."""
    for start in range(0, len(order), size):
        rows = order[start:start + size]
        if len(rows) < min_size:
            return
        yield TrainingBatch([anchors[r] for r in rows], [positives[r] for r in rows])


def _evaluate(params: EncoderParams, batches: Sequence[TokenCounts],
              config: TrainConfig) -> tuple[float, float]:
    """Validation loss and positive-minus-negative margin over the token
    counts of the validation batches, which :func:`train` counts once.
    """
    total_loss = total_pos = total_neg = 0.0
    n_anchors = n_neg = 0
    for tokens in batches:
        sims = _batch_pass(params, tokens)[-1]
        total_loss += float(_per_anchor_loss(sims, config.temperature)[0].sum())
        total_pos += float(np.trace(sims))
        total_neg += float(sims.sum() - np.trace(sims))
        n_anchors += len(sims)
        n_neg += len(sims) * (len(sims) - 1)
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

    Too few training pairs for one batch, or fewer than two validation
    pairs (one in-batch negative), raise :class:`InsufficientPairs` before
    any step.
    """
    if len(pairs_train) < config.batch_size:
        raise InsufficientPairs(
            f"{len(pairs_train)} training pairs < batch size {config.batch_size}")
    if len(pairs_val) < 2:
        raise InsufficientPairs(
            f"{len(pairs_val)} validation pairs < 2 (one in-batch negative)")

    vocab = build_vocab(
        (side for p in pairs_train for side in (p.left_tokens, p.right_tokens)),
        min_freq=config.vocab_min_freq)
    train_anchors, train_positives = _index_pairs(pairs_train, vocab, config.max_len)
    b = config.batch_size
    # Fixed order, counted once: only the parameters change between epochs.
    # A final short batch counts while it has a negative (two pairs).
    val_batches = [_token_counts(batch) for batch in _batches(
        *_index_pairs(pairs_val, vocab, config.max_len), range(len(pairs_val)), b, 2)]

    rng = np.random.default_rng(config.seed)
    params = init_params(len(vocab), config.embed_dim, rng)
    state = AdamState.zeros_like(params)
    report = TrainReport()
    best_params = params.copy()
    epochs_since_best = 0
    step = 0

    for epoch in range(1, config.max_epochs + 1):
        epoch_loss = 0.0
        n_batches = 0
        for batch in _batches(train_anchors, train_positives,
                              rng.permutation(len(pairs_train)), b, b):
            try:  # an overflow or NaN anywhere in the step, Adam's moments included
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    grads, loss = _loss_and_gradients(params, batch, config)
                    adam_step(params, grads, state, step, config)
            except FloatingPointError as exc:
                raise NonFiniteGradient(f"step {step}: {exc}") from None
            epoch_loss += loss
            n_batches += 1
            step += 1

        val_loss, margin = _evaluate(params, val_batches, config)
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
