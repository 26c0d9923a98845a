"""Independent oracles for the model's mathematical claims.

Four audits, each implemented without reusing the logic it checks:

  grad    central finite differences of the composite loss (auxiliary weights
          frozen, matching the training-time stop-gradient) against the
          hand-derived backward pass, over a grid of small configs; every
          probe of a config runs in one forward over a stack of parameter sets;
  degree  black-box polynomial degree measurement of each branch's head
          preactivation along a ray t * x1, via vanishing forward
          differences: after L layers the exponential branch must be degree
          2^L and the linear branch degree L + 1;
  auc     exhaustive pairwise positive/negative comparison against the
          rank-based AUC;
  mask    zero-fraction census of the self-mask on standard-normal input,
          which must sit near one half.

Each suite returns a plain-text table and a pass flag; the CLI maps a
failure to exit code 3.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

import numpy as np

from fcn_ctr.features import EncodedBatch
from fcn_ctr.metrics import auc as rank_auc
from fcn_ctr.model import (ModelConfig, backward, forward, forward_from_x1,
                           init_model_params, layer_views, self_mask)
from fcn_ctr.numerics import Rng, derive_seed, finite_diff_grad
from fcn_ctr.objective import bce, tri_bce, tri_bce_grads

GRAD_TOLERANCE = 1e-4
DEGREE_TOLERANCE = 1e-6


@dataclass
class SuiteResult:
    name: str
    passed: bool
    lines: list[str]

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        header = f"== suite {self.name}: {status}"
        return "\n".join([header] + [f"  {line}" for line in self.lines])


# ---------------------------------------------------------------------------
# gradient audit
# ---------------------------------------------------------------------------


def audit_config(config: ModelConfig, num_fields: int, seed: int):
    """Max relative error between the analytic gradient and central finite
    differences of the frozen-weight composite loss, for one config, on two
    rows over three-token vocabularies."""
    rng = Rng(derive_seed(seed, "audit-data"))
    sizes = [3] * num_fields
    ids = rng.integers(3, size=(2, num_fields))
    labels = np.arange(2) % 2
    batch = EncodedBatch(ids, labels, sizes)
    params = init_model_params(config, sizes, derive_seed(seed, "init"))

    base = forward(batch, params, config, training=True)
    report = tri_bce(base.y, base.y_deep, base.y_shallow, labels)
    w_deep, w_shallow = report.w_deep, report.w_shallow

    g_deep, g_shallow = tri_bce_grads(base.y, base.y_deep, base.y_shallow,
                                      labels, report)
    grads = backward(base.trace, params, config, g_deep, g_shallow)

    # theta: the touched embedding table rows, then the dense vector
    touched = np.unique(ids + params.offsets)
    rows, g_rows = grads.embeddings
    assert np.array_equal(rows, touched)
    analytic = np.concatenate([g_rows.ravel(), grads.dense])
    theta0 = np.concatenate([params.table[touched].ravel(), params.dense])

    split = touched.size * config.d

    def loss(thetas: np.ndarray) -> np.ndarray:
        # params with a leading stack axis, one set per row of thetas
        probes = copy.copy(params)
        probes.table = np.repeat(params.table[None], len(thetas), axis=0)
        probes.table[:, touched] = thetas[:, :split].reshape(len(thetas), touched.size, config.d)
        probes.lcn_layers, probes.ecn_layers, probes.heads = layer_views(
            thetas[:, split:], params.width, config.lcn_depth, config.ecn_depth)
        res = forward(batch, probes, config)
        return (bce(res.y, labels) + w_deep * bce(res.y_deep, labels)
                + w_shallow * bce(res.y_shallow, labels))

    numeric = finite_diff_grad(loss, theta0)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-2)
    return float(np.max(np.abs(analytic - numeric) / denom))


def default_grad_grid():
    """The full audit grid: f x d x depths^2 x mask mode."""
    return itertools.product((2, 3), (2, 4), range(4), range(4), ("paper", "no_ln", "identity"))


def grad_audit(grid=None, seeds=(1, 2, 3)) -> SuiteResult:
    """Run the gradient audit over a config grid; fails if any relative error
    reaches the tolerance or is NaN, which np.max carries to the overall one."""
    lines = []
    by_shape: dict[tuple, list[float]] = {}
    for f, d, lcn, ecn, mask in default_grad_grid() if grid is None else grid:
        config = ModelConfig(d=d, lcn_depth=lcn, ecn_depth=ecn, mask_mode=mask,
                             dropout_rate=0.0, seed=0)
        for seed in seeds:
            err = audit_config(config, f, seed)
            by_shape.setdefault((f, d, mask), []).append(err)
            if not err < GRAD_TOLERANCE:
                lines.append(
                    f"FAIL f={f} d={d} depths={lcn}/{ecn} mask={mask} "
                    f"seed={seed} max_rel_err={err:.3e}"
                )
    for (f, d, mask), errs in sorted(by_shape.items()):
        lines.append(f"f={f} d={d} mask={mask:9s} max_rel_err={np.max(errs):.3e}")
    worst = np.max([0.0, *itertools.chain(*by_shape.values())])
    lines.append(f"overall max_rel_err={worst:.3e} tolerance={GRAD_TOLERANCE:.0e}")
    return SuiteResult("grad", bool(worst < GRAD_TOLERANCE), lines)


# ---------------------------------------------------------------------------
# interaction-order probe
# ---------------------------------------------------------------------------


def measured_degree(values: np.ndarray) -> int:
    """Smallest k whose k-th forward differences vanish (relative to the
    largest difference magnitude), minus one. Returns the maximum measurable
    degree when nothing vanishes."""
    values = values.astype(np.float64)
    mags = [float(np.abs(np.diff(values, k)).max()) for k in range(1, len(values))]
    scale = max(mags) if mags else 0.0
    if scale == 0.0:
        return 0
    for k, mk in enumerate(mags, start=1):
        if mk <= DEGREE_TOLERANCE * scale:
            return k - 1
    return len(mags)


def degree_probe(ecn_depth: int, lcn_depth: int, seed: int = 0):
    """Measure each branch's polynomial degree in t along t * x1.

    Runs the real forward pass (two fields, d = 4) with the identity mask,
    zero biases, and no dropout, on an arithmetic grid of (expected degree
    + 3) points centered on t = 0 with step 0.5, then reads the degree off
    the forward-difference table. The centered grid keeps the difference
    table well conditioned up to degree 16, and the probe draws its cross
    weights from U(-3, 3) so the top-degree coefficient dominates at the
    grid edge. Overflowing grids are retried once at a tenth of the step.
    """
    config = ModelConfig(d=4, lcn_depth=lcn_depth, ecn_depth=ecn_depth,
                         mask_mode="identity", dropout_rate=0.0, seed=seed)
    params = init_model_params(config, [3, 3], derive_seed(seed, "init"))
    rng = Rng(derive_seed(seed, "probe-direction"))
    for layer in params.lcn_layers + params.ecn_layers:
        layer.w[...] = rng.uniform(-3.0, 3.0, layer.w.shape)
        layer.b[:] = 0.0
    params.heads.b_deep[:] = 0.0
    params.heads.b_shallow[:] = 0.0
    direction = rng.uniform(-1.0, 1.0, params.width)

    def branch_values(npts: int, step: float):
        ts = step * (np.arange(npts) - (npts - 1) / 2.0)
        x1 = ts[:, None] * direction[None, :]
        res = forward_from_x1(x1, params, config, training=True)  # dropout 0: a trace, no draws
        return res.trace.z_deep, res.trace.z_shallow

    def measure(expected: int, pick) -> int:
        npts = expected + 3
        step = 0.5
        for attempt in range(2):
            zs = pick(*branch_values(npts, step))
            if np.isfinite(zs).all():
                return measured_degree(zs)
            step /= 10.0
        raise FloatingPointError(
            f"degree probe overflowed even at grid step {step * 10}"
        )

    ecn_degree = measure(2 ** ecn_depth, lambda zd, zs: zd)
    lcn_degree = measure(lcn_depth + 1, lambda zd, zs: zs)
    return ecn_degree, lcn_degree


def degree_suite() -> SuiteResult:
    lines = []
    passed = True
    for branch, depth, expected in ([("ecn", depth, 2 ** depth) for depth in (1, 2, 3, 4)]
                                    + [("lcn", depth, depth + 1) for depth in (1, 2, 3)]):
        ecn, lcn = degree_probe(*((depth, 0) if branch == "ecn" else (0, depth)))
        got = ecn if branch == "ecn" else lcn
        ok = got == expected
        passed &= ok
        lines.append(f"{branch} depth={depth} expected_degree={expected} measured={got}"
                     + ("" if ok else "  FAIL"))
    return SuiteResult("degree", passed, lines)


# ---------------------------------------------------------------------------
# pairwise AUC oracle
# ---------------------------------------------------------------------------


def pairwise_auc_oracle(scores: np.ndarray, labels: np.ndarray) -> float:
    """Exhaustive positive/negative pair counting with ties worth one half.
    Quadratic; intended for n <= 5000."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels != 1]
    if pos.size == 0:
        raise ValueError("pairwise auc undefined: no positive labels")
    if neg.size == 0:
        raise ValueError("pairwise auc undefined: no negative labels")
    if pos.size * neg.size > 25_000_000:
        raise ValueError("pairwise auc oracle limited to n <= 5000")
    diff = pos[:, None] - neg[None, :]
    wins = (diff > 0).sum() + 0.5 * (diff == 0).sum()
    return float(wins / (pos.size * neg.size))


def auc_suite() -> SuiteResult:
    n_batches = 200
    rng = Rng(derive_seed(0, "auc-suite"))
    lines = []
    gaps = []
    hand = rank_auc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]))
    if hand != 0.75:
        lines.append(f"FAIL hand example: expected 0.75, got {hand!r}")
    for i in range(n_batches):
        n = int(rng.integers(1990, size=None)) + 10
        scores = rng.random(n)
        if i % 2 == 0:
            scores = np.round(scores, 2)  # force heavy ties
        labels = (rng.random(n) < 0.5).astype(np.int64)
        if labels.sum() == 0:
            labels[0] = 1
        if labels.sum() == n:
            labels[0] = 0
        gaps.append(abs(rank_auc(scores, labels) - pairwise_auc_oracle(scores, labels)))
        if not gaps[-1] <= 1e-12:
            lines.append(f"FAIL batch {i}: |rank - pairwise| = {gaps[-1]:.3e}")
    worst = np.max(gaps)  # NaN if any gap is: a gap that cannot be measured fails
    lines.append(f"hand example auc={hand}")
    lines.append(f"{n_batches} random batches, max |rank - pairwise| = {worst:.3e}")
    return SuiteResult("auc", bool(hand == 0.75 and worst <= 1e-12), lines)


# ---------------------------------------------------------------------------
# mask sparsity census
# ---------------------------------------------------------------------------


def mask_census(dim: int, trials: int, rng: Rng):
    """Zero-fraction statistics of the self-mask (default gain/bias) over
    standard-normal inputs. Returns (mean, std, per-trial fractions)."""
    if dim < 2:
        raise ValueError(f"mask census needs dim >= 2, got {dim}")
    gain = np.ones(dim)
    beta = np.zeros(dim)
    c = rng.standard_normal((trials, dim))
    masked, _ = self_mask(c, gain, beta, "paper", ModelConfig.ln_epsilon)
    fracs = (masked == 0.0).mean(axis=1)
    return float(fracs.mean()), float(fracs.std()), fracs


def mask_suite() -> SuiteResult:
    dim, trials = 1024, 1000
    rng = Rng(derive_seed(0, "mask-census"))
    mean, std, _ = mask_census(dim, trials, rng)
    passed = 0.45 <= mean <= 0.55
    lines = [f"dim={dim} trials={trials} zero_fraction mean={mean:.4f} std={std:.4f}",
             f"target band [0.45, 0.55]: {'ok' if passed else 'violated'}"]
    return SuiteResult("mask", passed, lines)


SUITES = {
    "grad": grad_audit,
    "degree": degree_suite,
    "auc": auc_suite,
    "mask": mask_suite,
}


def run_suites(names) -> tuple[bool, str]:
    """Run the selected suites; returns (all passed, rendered report)."""
    results = [SUITES[name]() for name in names]
    text = "\n".join(r.render() for r in results)
    return all(r.passed for r in results), text
