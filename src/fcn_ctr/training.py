"""The optimization loop: Adam with lazy sparse embedding updates,
mini-batching, the composite loss wiring, and validation-based early stopping.

Epoch progress streams to standard output as single-line records:

    epoch=<i> L_tri=<v> L=<v> L_D=<v> L_S=<v> w_D=<v> w_S=<v> \
        val_auc=<v> val_logloss=<v> secs=<v>

The loop is sequential over batches (single writer on params and optimizer
state); evaluation runs in inference mode with dropout disabled. A run trains
in float32, the precision a checkpoint stores; the step and Adam work in the
params' dtype, so float64 params train in float64. Its scores
can depend on the evaluation batch size in the last bit, because BLAS may
take a different path for a different number of rows: on the README data a
row scored alone and within a 4096-row batch differed by up to 2.2e-16.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass

import numpy as np

from fcn_ctr.features import DataError, EncodedBatch
from fcn_ctr.metrics import EvalResult, auc as rank_auc, logloss as eval_logloss
from fcn_ctr.model import (BranchWorkspace, Gradients, ModelConfig, ModelParams,
                           backward, forward, init_model_params, named_dense)
from fcn_ctr.numerics import Rng, derive_seed
from fcn_ctr.objective import TriLossReport, tri_bce, tri_bce_grads

LOSS_MODES = ("tri", "plain")

# Dense Adam updates the flat vectors this many entries at a time, a (64, 128)
# w at the README sizes: with glibc, whole-vector temporaries raised peak RSS.
ADAM_CHUNK = 8192

# Inference runs over this many rows at a time.
EVAL_BATCH_ROWS = 4096

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 4096
    max_epochs: int = 20
    patience: int = 2
    loss: str = "tri"

    def __post_init__(self):
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.loss not in LOSS_MODES:
            raise ValueError(f"loss must be one of {LOSS_MODES}, got {self.loss!r}")


@dataclass
class AdamState:
    """First/second moment buffers: one pair shaped as ``ModelParams.dense``
    and one as ``ModelParams.table``. Table rows untouched by a batch are
    never read or written, so they stay at zero and decay nothing (lazy
    sparse Adam with a single global step counter). The run's other state
    rides along: ``workspace``, the (ecn, lcn) pair of buffers every step
    and evaluation of the run reuses, one for each branch's thread."""

    m: np.ndarray
    v: np.ndarray
    emb_m: np.ndarray
    emb_v: np.ndarray
    t: int = 0
    workspace: tuple[BranchWorkspace, BranchWorkspace] | None = None


@dataclass
class EpochReport:
    epoch: int
    loss: TriLossReport
    valid: EvalResult
    seconds: float


def init_adam_state(params: ModelParams) -> AdamState:
    return AdamState(np.zeros_like(params.dense), np.zeros_like(params.dense),
                     np.zeros_like(params.table), np.zeros_like(params.table),
                     workspace=(BranchWorkspace(params.dtype), BranchWorkspace(params.dtype)))


def init_train_params(config: ModelConfig, sizes) -> ModelParams:
    """The params ``train`` starts from: ``init_model_params``' float64 draws under
    the run's init stream, cast once to float32."""
    return init_model_params(config, sizes, derive_seed(config.seed, "init")).copy(np.float32)


def adam_step(params: ModelParams, grads: Gradients, state: AdamState,
              config: TrainConfig) -> None:
    """One bias-corrected Adam update, in place. Table rows absent from the
    sparse gradient receive no update and no moment decay. Raises on any
    non-finite gradient, naming the first offending tensor, before any
    parameter changes."""
    if not np.isfinite(grads.dense).all():
        name = next(name for name, g in named_dense(grads) if not np.isfinite(g).all())
        raise FloatingPointError(f"non-finite gradient for tensor {name}")
    rows, g = grads.embeddings or (params.offsets[:0], params.table[:0])
    finite = np.isfinite(g).all(axis=1)
    if not finite.all():
        j = np.searchsorted(params.offsets, rows[finite.argmin()], side="right") - 1
        raise FloatingPointError(f"non-finite gradient for tensor embeddings[{j}]")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1 ** state.t
    corr2 = 1.0 - b2 ** state.t
    lr = config.learning_rate

    def update(p, g, m, v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= lr * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPSILON)

    # elementwise over the flat vectors, chunk by chunk: the same bits as per tensor
    for lo in range(0, grads.dense.size, ADAM_CHUNK):
        part = slice(lo, lo + ADAM_CHUNK)
        update(params.dense[part], grads.dense[part], state.m[part], state.v[part])
    # the touched table rows, gathered, updated and written back
    p, m, v = params.table[rows], state.emb_m[rows], state.emb_v[rows]
    update(p, g, m, v)
    params.table[rows], state.emb_m[rows], state.emb_v[rows] = p, m, v


def _check_labels(batch: EncodedBatch, name: str) -> None:
    if batch.n == 0:
        raise DataError(f"{name} set is empty")
    if batch.labels is None:
        raise DataError(f"{name} set has no labels")


def evaluate(batch: EncodedBatch, params: ModelParams, config: ModelConfig,
             batch_size: int = EVAL_BATCH_ROWS, workspace=None) -> EvalResult:
    """Inference-mode metrics: no dropout, no trace, chunked over rows, the
    forwards in ``workspace`` when given (see ``predict_scores``).

    When the labels are single-class the AUC is undefined; the result then
    carries ``auc=None`` and the caller decides how loudly to complain.
    """
    _check_labels(batch, "evaluation")
    preds = predict_scores(batch, params, config, batch_size, workspace)[0]
    labels = batch.labels
    positives = int((labels == 1).sum())
    auc = None if positives in (0, batch.n) else rank_auc(preds, labels)
    return EvalResult(auc, eval_logloss(preds, labels), batch.n, positives)


def predict_scores(batch: EncodedBatch, params: ModelParams, config: ModelConfig,
                   batch_size: int = EVAL_BATCH_ROWS, workspace=None):
    """Fused and per-branch predictions for every row, inference mode, the
    cross layers' arrays in ``workspace`` when given (the scores are fresh).
    Raises FloatingPointError, and no numpy warning, when a score is not
    finite: a branch overflowed, and no metric or file should be made from it."""
    if batch.n == 0:
        empty = np.zeros(0)
        return empty, empty.copy(), empty.copy()
    chunks = []
    for lo in range(0, batch.n, batch_size):
        part = batch.rows(slice(lo, lo + batch_size))
        with np.errstate(over="ignore", invalid="ignore"):
            res = forward(part, params, config, training=False, workspace=workspace)
        chunks.append((res.y, res.y_deep, res.y_shallow))
    y, y_deep, y_shallow = map(np.concatenate, zip(*chunks))
    if not np.isfinite(y).all():
        raise FloatingPointError(f"non-finite score for row {int(np.isfinite(y).argmin())}")
    return y, y_deep, y_shallow


def train_step(batch: EncodedBatch, params: ModelParams, model_config: ModelConfig,
               train_config: TrainConfig, state: AdamState,
               dropout_rng: Rng) -> TriLossReport:
    """Forward, loss, backward, Adam, on one mini-batch."""
    res = forward(batch, params, model_config, training=True, rng=dropout_rng,
                  workspace=state.workspace)
    report = tri_bce(res.y, res.y_deep, res.y_shallow, batch.labels)
    if train_config.loss == "plain":
        # train on the fused loss alone; branch weights carry no supervision
        report = TriLossReport(report.primary, report.deep, report.shallow,
                               0.0, 0.0, report.primary, report.n)
    g_deep, g_shallow = tri_bce_grads(res.y, res.y_deep, res.y_shallow,
                                      batch.labels, report)
    grads = backward(res.trace, params, model_config, g_deep, g_shallow)
    adam_step(params, grads, state, train_config)
    return report


def train(train_set: EncodedBatch, valid_set: EncodedBatch,
          model_config: ModelConfig, train_config: TrainConfig,
          log=print):
    """Full training run. Returns (best params, per-epoch reports).

    Per epoch: shuffle the training rows under the shuffle stream, take
    mini-batches (the final ragged batch keeps its true size in the loss
    mean), update with Adam, then evaluate validation AUC. The snapshot with
    the best validation AUC wins, ties broken by lower validation logloss and
    then by earlier epoch. Training stops after ``patience`` consecutive
    epochs without an AUC improvement, or at ``max_epochs``.
    """
    _check_labels(train_set, "training")
    _check_labels(valid_set, "validation")
    vpos = int((valid_set.labels == 1).sum())
    if vpos == 0 or vpos == valid_set.n:
        raise DataError("validation set is single-class; AUC early stopping is undefined")

    params = init_train_params(model_config, train_set.sizes)
    state = init_adam_state(params)
    shuffle_rng = Rng(derive_seed(model_config.seed, "shuffle"))
    dropout_rng = Rng(derive_seed(model_config.seed, "dropout"))
    # the evaluation borrows the step buffers only where its chunks fit them,
    # so they never grow past the training shape
    fits = min(valid_set.n, EVAL_BATCH_ROWS) <= min(train_set.n, train_config.batch_size)
    eval_workspace = state.workspace if fits else None

    reports: list[EpochReport] = []
    best_params = params
    best_auc = -np.inf
    best_logloss = np.inf
    stale = 0

    for epoch in range(1, train_config.max_epochs + 1):
        t0 = time.monotonic()
        perm = shuffle_rng.permutation(train_set.n)
        sums = np.zeros(6)
        for lo in range(0, train_set.n, train_config.batch_size):
            part = train_set.rows(perm[lo:lo + train_config.batch_size])
            rep = train_step(part, params, model_config, train_config, state, dropout_rng)
            sums += np.array(astuple(rep)[:6]) * part.n  # every field of the report but n
        epoch_loss = TriLossReport(*(sums / train_set.n), train_set.n)
        valid = evaluate(valid_set, params, model_config, workspace=eval_workspace)
        secs = time.monotonic() - t0
        log(f"epoch={epoch} L_tri={epoch_loss.total:.6f} L={epoch_loss.primary:.6f} "
            f"L_D={epoch_loss.deep:.6f} L_S={epoch_loss.shallow:.6f} "
            f"w_D={epoch_loss.w_deep:.6f} w_S={epoch_loss.w_shallow:.6f} "
            f"val_auc={valid.auc:.6f} val_logloss={valid.logloss:.6f} secs={secs:.2f}")
        reports.append(EpochReport(epoch, epoch_loss, valid, secs))

        improved = valid.auc > best_auc
        if improved or (valid.auc == best_auc and valid.logloss < best_logloss):
            best_auc, best_logloss = valid.auc, valid.logloss
            best_params = params.copy()
        stale = 0 if improved else stale + 1
        if stale >= train_config.patience:
            break
    return best_params, reports
