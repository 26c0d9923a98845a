"""Evaluation metrics: rank-based AUC and logloss.

AUC is the Mann-Whitney statistic: the probability that a uniformly chosen
positive outranks a uniformly chosen negative, with tied scores counting
one half. It is computed from average ranks, which makes it invariant to
any strictly increasing transform of the scores and independent of input
order. Logloss is the batch-mean binary cross-entropy and shares its
implementation with the training objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fcn_ctr.objective import bce


@dataclass
class EvalResult:
    auc: float | None
    logloss: float
    n: int
    positives: int


def average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks of the scores with ties sharing their average rank."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], n]
    group_rank = (starts + ends + 1) / 2.0
    ranks = np.empty(n)
    ranks[order] = np.repeat(group_rank, ends - starts)
    return ranks


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC: (sum of positive ranks - P(P+1)/2) / (P * N)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError(f"auc shape mismatch: scores {scores.shape} vs labels {labels.shape}")
    pos = labels == 1
    p = int(pos.sum())
    neg = int(labels.shape[0]) - p
    if p == 0:
        raise ValueError("auc undefined: batch has no positive labels")
    if neg == 0:
        raise ValueError("auc undefined: batch has no negative labels")
    ranks = average_ranks(scores)
    return float((ranks[pos].sum() - p * (p + 1) / 2.0) / (p * neg))


logloss = bce
