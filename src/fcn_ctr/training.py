"""The optimization loop: Adam with lazy sparse embedding updates,
mini-batching, the composite loss wiring, and validation-based early stopping.

Epoch progress streams to standard output as single-line records:

    epoch=<i> L_tri=<v> L=<v> L_D=<v> L_S=<v> w_D=<v> w_S=<v> \
        val_auc=<v> val_logloss=<v> secs=<v>

The loop is sequential over batches (single writer on params and optimizer
state); evaluation runs in inference mode with dropout disabled. Its scores
can depend on the evaluation batch size in the last bit, because BLAS may
take a different path for a different number of rows: on the README data a
row scored alone and within a 4096-row batch differed by up to 2.2e-16.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from fcn_ctr.features import DataError, EncodedBatch
from fcn_ctr.metrics import EvalResult, auc as rank_auc, logloss as eval_logloss
from fcn_ctr.model import (Gradients, ModelConfig, ModelParams, backward,
                           forward, init_model_params)
from fcn_ctr.numerics import Rng, derive_seed
from fcn_ctr.objective import TriLossReport, tri_bce, tri_bce_grads

LOSS_MODES = ("tri", "plain")


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 4096
    max_epochs: int = 20
    patience: int = 2
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    loss: str = "tri"
    shuffle_seed: int | None = None  # derived from the model seed when None

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
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
    """First/second moment buffers mirroring the parameter tensors. Embedding
    moments are full per-field arrays, but rows untouched by a batch are never
    read or written, so they stay at zero and decay nothing (lazy sparse
    Adam with a single global step counter)."""

    dense: dict
    emb_m: list[np.ndarray]
    emb_v: list[np.ndarray]
    t: int = 0


@dataclass
class EpochReport:
    epoch: int
    loss: TriLossReport
    valid: EvalResult
    seconds: float


def _dense_tensors(params: ModelParams, grads: Gradients | None = None):
    """Yield (name, param tensor, grad tensor) for every non-embedding tensor."""
    for branch, layers, glayers in (
        ("lcn", params.lcn_layers, grads.lcn_layers if grads else params.lcn_layers),
        ("ecn", params.ecn_layers, grads.ecn_layers if grads else params.ecn_layers),
    ):
        for i, (layer, glayer) in enumerate(zip(layers, glayers)):
            yield f"{branch}[{i}].w", layer.w, glayer.w
            yield f"{branch}[{i}].b", layer.b, glayer.b
            yield f"{branch}[{i}].gain", layer.gain, glayer.gain
            yield f"{branch}[{i}].beta", layer.beta, glayer.beta
    gh = grads.heads if grads else params.heads
    yield "heads.w_deep", params.heads.w_deep, gh.w_deep
    yield "heads.b_deep", params.heads.b_deep, gh.b_deep
    yield "heads.w_shallow", params.heads.w_shallow, gh.w_shallow
    yield "heads.b_shallow", params.heads.b_shallow, gh.b_shallow


def init_adam_state(params: ModelParams) -> AdamState:
    dense = {name: (np.zeros_like(p), np.zeros_like(p))
             for name, p, _ in _dense_tensors(params)}
    emb_m = [np.zeros_like(e) for e in params.embeddings]
    emb_v = [np.zeros_like(e) for e in params.embeddings]
    return AdamState(dense, emb_m, emb_v)


def adam_step(params: ModelParams, grads: Gradients, state: AdamState,
              config: TrainConfig) -> None:
    """One bias-corrected Adam update, in place. Embedding rows absent from
    the sparse gradients receive no update and no moment decay. Raises on any
    non-finite gradient, naming the offending tensor."""
    state.t += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    corr1 = 1.0 - b1 ** state.t
    corr2 = 1.0 - b2 ** state.t
    lr, eps = config.learning_rate, config.adam_epsilon

    for name, p, g in _dense_tensors(params, grads):
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for tensor {name}")
        m, v = state.dense[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)

    for j, sparse in enumerate(grads.embeddings):
        if sparse is None:
            continue
        rows, g = sparse
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for tensor embeddings[{j}]")
        m = state.emb_m[j]
        v = state.emb_v[j]
        m[rows] = b1 * m[rows] + (1.0 - b1) * g
        v[rows] = b2 * v[rows] + (1.0 - b2) * (g * g)
        params.embeddings[j][rows] -= lr * (m[rows] / corr1) / (np.sqrt(v[rows] / corr2) + eps)


def _check_labels(batch: EncodedBatch, name: str) -> None:
    if batch.n == 0:
        raise DataError(f"{name} set is empty")
    if batch.labels is None:
        raise DataError(f"{name} set has no labels")


def evaluate(batch: EncodedBatch, params: ModelParams, config: ModelConfig,
             batch_size: int = 4096) -> EvalResult:
    """Inference-mode metrics: no dropout, no trace, chunked over rows.

    When the labels are single-class the AUC is undefined; the result then
    carries ``auc=None`` and the caller decides how loudly to complain.
    """
    _check_labels(batch, "evaluation")
    preds = predict_scores(batch, params, config, batch_size)[0]
    labels = batch.labels
    positives = int((labels == 1).sum())
    ll = eval_logloss(preds, labels)
    if positives == 0 or positives == batch.n:
        return EvalResult(None, ll, batch.n, positives)
    return EvalResult(rank_auc(preds, labels), ll, batch.n, positives)


def predict_scores(batch: EncodedBatch, params: ModelParams, config: ModelConfig,
                   batch_size: int = 4096):
    """Fused and per-branch predictions for every row, inference mode."""
    if batch.n == 0:
        empty = np.zeros(0)
        return empty, empty.copy(), empty.copy()
    ys, yds, yss = [], [], []
    for lo in range(0, batch.n, batch_size):
        part = batch.rows(slice(lo, lo + batch_size))
        res = forward(part, params, config, training=False)
        ys.append(res.y)
        yds.append(res.y_deep)
        yss.append(res.y_shallow)
    return np.concatenate(ys), np.concatenate(yds), np.concatenate(yss)


def train_step(batch: EncodedBatch, params: ModelParams, model_config: ModelConfig,
               train_config: TrainConfig, state: AdamState,
               dropout_rng: Rng) -> TriLossReport:
    """Forward, loss, backward, Adam, on one mini-batch."""
    res = forward(batch, params, model_config, training=True, rng=dropout_rng)
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

    params = init_model_params(model_config, train_set.sizes,
                               derive_seed(model_config.seed, "init"))
    state = init_adam_state(params)
    shuffle_seed = (train_config.shuffle_seed if train_config.shuffle_seed is not None
                    else derive_seed(model_config.seed, "shuffle"))
    shuffle_rng = Rng(shuffle_seed)
    dropout_rng = Rng(derive_seed(model_config.seed, "dropout"))

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
            sums += np.array([rep.total, rep.primary, rep.deep, rep.shallow,
                              rep.w_deep, rep.w_shallow]) * part.n
        means = sums / train_set.n
        epoch_loss = TriLossReport(means[1], means[2], means[3], means[4],
                                   means[5], means[0], train_set.n)
        valid = evaluate(valid_set, params, model_config)
        secs = time.monotonic() - t0
        log(f"epoch={epoch} L_tri={means[0]:.6f} L={means[1]:.6f} "
            f"L_D={means[2]:.6f} L_S={means[3]:.6f} w_D={means[4]:.6f} "
            f"w_S={means[5]:.6f} val_auc={valid.auc:.6f} "
            f"val_logloss={valid.logloss:.6f} secs={secs:.2f}")
        reports.append(EpochReport(epoch, epoch_loss, valid, secs))

        if valid.auc > best_auc:
            best_auc, best_logloss = valid.auc, valid.logloss
            best_params = params.copy()
            stale = 0
        else:
            if valid.auc == best_auc and valid.logloss < best_logloss:
                best_logloss = valid.logloss
                best_params = params.copy()
            stale += 1
            if stale >= train_config.patience:
                break
    return best_params, reports
