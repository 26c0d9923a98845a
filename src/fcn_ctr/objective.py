"""Binary cross-entropy and the adaptive three-term composite loss.

The composite loss supervises the fused prediction and both branch heads:

    total = L + w_deep * L_deep + w_shallow * L_shallow
    w_deep = max(0, L_deep - L),  w_shallow = max(0, L_shallow - L)

where each L is the batch-mean binary cross-entropy of the corresponding
prediction vector. A branch that lags the fused prediction receives extra
supervision proportional to its lag; a branch that already beats it receives
none. The weights are treated as constants during differentiation (they are
recomputed from the batch losses each step, but no gradient flows through
them), which is what makes the closed-form branch gradients below exact.

All functions here are pure and stateless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLIP_EPSILON = 1e-7


@dataclass
class TriLossReport:
    """Loss breakdown for one batch: the fused loss, both branch losses, the
    adaptive weights, and the combined total."""

    primary: float
    deep: float
    shallow: float
    w_deep: float
    w_shallow: float
    total: float
    n: int


def _as_prob(preds: np.ndarray) -> np.ndarray:
    p = np.asarray(preds, dtype=np.float64)
    if p.size == 0:
        raise ValueError("bce: empty batch")
    # np.clip's bits, without its Python layer
    return np.minimum(np.maximum(p, CLIP_EPSILON), 1.0 - CLIP_EPSILON)


def bce(preds: np.ndarray, labels: np.ndarray):
    """Batch-mean binary cross-entropy with predictions clipped to
    [CLIP_EPSILON, 1 - CLIP_EPSILON] inside the logs: a float for (n,)
    predictions, K losses for a (K, n) stack of them against the same labels."""
    p = _as_prob(preds)
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != p.shape[-1:]:
        raise ValueError(f"bce shape mismatch: preds {p.shape} vs labels {y.shape}")
    v = y * np.log(p) + (1.0 - y) * np.log(1.0 - p)
    loss = -(np.add.reduce(v, axis=-1) / v.shape[-1])  # np.mean, bit for bit
    return float(loss) if loss.ndim == 0 else loss


def tri_bce(y_hat: np.ndarray, y_deep: np.ndarray, y_shallow: np.ndarray,
            labels: np.ndarray) -> TriLossReport:
    """Composite loss report for one batch. Weights come from the batch-mean
    losses, so they are scalars shared by every sample in the batch."""
    primary = bce(y_hat, labels)
    deep = bce(y_deep, labels)
    shallow = bce(y_shallow, labels)
    w_deep = max(0.0, deep - primary)
    w_shallow = max(0.0, shallow - primary)
    total = primary + w_deep * deep + w_shallow * shallow
    return TriLossReport(primary, deep, shallow, w_deep, w_shallow, total,
                         int(np.asarray(labels).shape[0]))


def tri_bce_grads(y_hat: np.ndarray, y_deep: np.ndarray, y_shallow: np.ndarray,
                  labels: np.ndarray, report: TriLossReport):
    """Per-sample gradients of the composite loss with respect to the two
    branch predictions, holding the adaptive weights fixed at their report
    values.

    For a positive sample the deep-branch gradient is
        -(1/N) * (1 / (2 * y_hat) + w_deep / y_deep)
    and for a negative sample
        +(1/N) * (1 / (2 * (1 - y_hat)) + w_deep / (1 - y_deep)),
    with the shallow branch symmetric. The 1/(2 y_hat) term is the fused-mean
    path shared by both branches; the weighted term is the branch's own
    supervision. Clipped values guard the divisions.
    """
    p = _as_prob(y_hat)
    pd = _as_prob(y_deep)
    ps = _as_prob(y_shallow)
    y = np.asarray(labels, dtype=np.float64)
    n = float(y.shape[0])
    pos = y > 0.5

    def branch(pb: np.ndarray, w: float) -> np.ndarray:
        g_pos = -(0.5 / p + w / pb) / n
        g_neg = (0.5 / (1.0 - p) + w / (1.0 - pb)) / n
        return np.where(pos, g_pos, g_neg)

    return branch(pd, report.w_deep), branch(ps, report.w_shallow)
