"""The fusing cross network: forward pass, hand-derived backward pass,
parameter accounting, and field-wise interpretability views.

Layout conventions. With f fields and an even embedding width d, the model
width is D = f * d. Each field embedding e_i splits at its midpoint into an
"original view" half a_i and "another view" half b_i, and the first-order
vector is x1 = [a_1 .. a_f, b_1 .. b_f] of length D.

Each cross layer computes a cross vector c = W x_in + b of length D/2, builds
the gate [c || mask(c)], and outputs anchor * gate + x_in. The exponential
branch (ecn) anchors on its own layer input, doubling the interaction order
per layer; the linear branch (lcn) anchors on x1, adding one order per layer.
The mask is the self-mask c * relu(layernorm(c)), which zeroes roughly half
of the gated view. Two sigmoid heads read the branch outputs and the model
prediction is their mean.

Batches are row-major: ids (n, f) int64, activations (n, D) float64, cross
vectors (n, D/2). Params are immutable during forward/backward; traces are
per-batch and single-owner. The two branches share only x1 and the heads, so
large batches run the ecn on a worker thread and the lcn on the caller's,
with bitwise the same results as one after the other.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from fcn_ctr.numerics import Rng, init_params

MASK_MODES = ("paper", "no_ln", "identity")
BRANCHES = ("ecn", "lcn")

# Test-only fault injection: when set, the backward pass flips the sign of the
# first cross-layer bias gradient so the gradient audit must fail.
_inject_grad_sign_flip = False


@dataclass
class ModelConfig:
    d: int = 16
    lcn_depth: int = 3
    ecn_depth: int = 3
    mask_mode: str = "paper"
    dropout_rate: float = 0.1
    ln_epsilon: float = 1e-5
    seed: int = 1

    def __post_init__(self):
        if self.d < 2 or self.d % 2 != 0:
            raise ValueError(f"embedding dim must be even and >= 2, got {self.d}")
        if self.lcn_depth < 0 or self.ecn_depth < 0:
            raise ValueError("branch depths must be >= 0")
        if self.mask_mode not in MASK_MODES:
            raise ValueError(f"mask_mode must be one of {MASK_MODES}, got {self.mask_mode!r}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.ln_epsilon <= 0:
            raise ValueError(f"ln_epsilon must be positive, got {self.ln_epsilon}")


@dataclass
class CrossLayerParams:
    w: np.ndarray      # (D/2, D)
    b: np.ndarray      # (D/2,)
    gain: np.ndarray   # (D/2,) layernorm gain
    beta: np.ndarray   # (D/2,) layernorm bias

    def copy(self) -> "CrossLayerParams":
        return CrossLayerParams(self.w.copy(), self.b.copy(), self.gain.copy(), self.beta.copy())


@dataclass
class HeadParams:
    w_deep: np.ndarray     # (D,)
    b_deep: np.ndarray     # (1,)
    w_shallow: np.ndarray  # (D,)
    b_shallow: np.ndarray  # (1,)

    def copy(self) -> "HeadParams":
        return HeadParams(self.w_deep.copy(), self.b_deep.copy(),
                          self.w_shallow.copy(), self.b_shallow.copy())


@dataclass
class ModelParams:
    embeddings: list[np.ndarray]          # per field, (s_i, d): row per token id
    lcn_layers: list[CrossLayerParams]
    ecn_layers: list[CrossLayerParams]
    heads: HeadParams

    @property
    def num_fields(self) -> int:
        return len(self.embeddings)

    @property
    def width(self) -> int:
        return int(self.heads.w_deep.shape[0])

    def copy(self) -> "ModelParams":
        return ModelParams(
            [e.copy() for e in self.embeddings],
            [l.copy() for l in self.lcn_layers],
            [l.copy() for l in self.ecn_layers],
            self.heads.copy(),
        )


@dataclass
class LayerTrace:
    """Per-layer forward cache consumed by the backward pass. The mask
    fields stay None where the mask mode does not use them."""

    x_in: np.ndarray           # (n, D)
    c: np.ndarray              # (n, D/2)
    gate_dropped: np.ndarray   # (n, D) gate after dropout
    drop_mask: np.ndarray | None = None  # (n, D) scaled dropout mask, None when off
    relu: np.ndarray | None = None       # (n, D/2) relu(layernorm(c)), or relu(c) for no_ln
    act: np.ndarray | None = None        # (n, D/2) bool, relu gate open
    mu: np.ndarray | None = None         # (n, 1) layernorm mean
    delta: np.ndarray | None = None      # (n, 1) epsilon-clamped layernorm std
    unclamped: np.ndarray | None = None  # (n, 1) bool, std exceeded epsilon


@dataclass
class ForwardTrace:
    x1: np.ndarray
    ecn: list[LayerTrace]
    lcn: list[LayerTrace]
    x_ecn: np.ndarray
    x_lcn: np.ndarray
    z_deep: np.ndarray
    z_shallow: np.ndarray
    y_deep: np.ndarray
    y_shallow: np.ndarray
    ids: np.ndarray | None = None


@dataclass
class ForwardResult:
    y: np.ndarray
    y_deep: np.ndarray
    y_shallow: np.ndarray
    trace: ForwardTrace | None = None


@dataclass
class Gradients:
    """Mirror of ModelParams, with embedding gradients kept sparse as
    per-field (ids, rows) accumulations over the touched rows only."""

    embeddings: list[tuple[np.ndarray, np.ndarray] | None]
    lcn_layers: list[CrossLayerParams]
    ecn_layers: list[CrossLayerParams]
    heads: HeadParams


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: 1 / (1 + e^-z) for z >= 0 and
    e^z / (1 + e^z) below, both from e = exp(-|z|)."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def init_model_params(config: ModelConfig, sizes: list[int], seed: int) -> ModelParams:
    """Draw fresh parameters: embeddings and cross weights uniform by fan-in,
    layernorm gain 1 / bias 0, all other biases 0. Draw order is fixed
    (embeddings, lcn layers, ecn layers, heads) so a seed pins every tensor."""
    rng = Rng(seed)
    d = config.d
    D = d * len(sizes)
    m = D // 2
    embeddings = [init_params((s, d), "uniform_fan", rng, fan_in=d) for s in sizes]

    def make_layer() -> CrossLayerParams:
        return CrossLayerParams(
            w=init_params((m, D), "uniform_fan", rng),
            b=np.zeros(m),
            gain=np.ones(m),
            beta=np.zeros(m),
        )

    lcn = [make_layer() for _ in range(config.lcn_depth)]
    ecn = [make_layer() for _ in range(config.ecn_depth)]
    heads = HeadParams(
        w_deep=init_params((D,), "uniform_fan", rng),
        b_deep=np.zeros(1),
        w_shallow=init_params((D,), "uniform_fan", rng),
        b_shallow=np.zeros(1),
    )
    return ModelParams(embeddings, lcn, ecn, heads)


def zero_gradients(params: ModelParams) -> Gradients:
    return Gradients(
        embeddings=[None] * params.num_fields,
        lcn_layers=[CrossLayerParams(np.zeros_like(l.w), np.zeros_like(l.b),
                                     np.zeros_like(l.gain), np.zeros_like(l.beta))
                    for l in params.lcn_layers],
        ecn_layers=[CrossLayerParams(np.zeros_like(l.w), np.zeros_like(l.b),
                                     np.zeros_like(l.gain), np.zeros_like(l.beta))
                    for l in params.ecn_layers],
        heads=HeadParams(np.zeros_like(params.heads.w_deep), np.zeros_like(params.heads.b_deep),
                         np.zeros_like(params.heads.w_shallow), np.zeros_like(params.heads.b_shallow)),
    )


def embed_reshape(ids: np.ndarray, params: ModelParams, d: int) -> np.ndarray:
    """Look up field embeddings and lay them out as [a_1..a_f, b_1..b_f].

    ids is (n, f) or (f,) for a single row; output is (n, D) or (D,).
    """
    single = ids.ndim == 1
    ids2 = ids[None, :] if single else ids
    half = d // 2
    f = len(params.embeddings)
    if ids2.shape[1] != f:
        raise ValueError(f"expected {f} fields, got {ids2.shape[1]}")
    firsts = []
    seconds = []
    for j in range(f):
        col = ids2[:, j]
        table = params.embeddings[j]
        if col.size and (col.min() < 0 or col.max() >= table.shape[0]):
            raise ValueError(
                f"field {j}: id out of range [0, {table.shape[0]}) in batch"
            )
        e = table[col]
        firsts.append(e[:, :half])
        seconds.append(e[:, half:])
    x1 = np.concatenate(firsts + seconds, axis=1)
    return x1[0] if single else x1


def _row_mean(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=1, keepdims=True)``, bit for bit (numpy's mean is this
    sum over the count), without the Python layer that dominates small rows."""
    return np.add.reduce(a, axis=1, keepdims=True) / a.shape[1]


def _relu(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.where(a > 0, a, 0.0)`` without the data-dependent branch: the
    same bits for every non-NaN entry (adding 0.0 turns a -0.0 into +0.0)."""
    out = np.maximum(a, 0.0, out=out)
    out += 0.0
    return out


def self_mask(c: np.ndarray, gain: np.ndarray, beta: np.ndarray,
              mode: str = "paper", ln_epsilon: float = 1e-5, want_stats: bool = True):
    """Gate a cross vector against its own normalized sign.

    paper:    c * relu(gain * (c - mean) / max(std, eps) + beta), with mean and
              population std taken over the D/2 entries of each row. The relu
              of a zero-mean normalization closes roughly half the gate.
    no_ln:    c * relu(c) (ablation without the normalization).
    identity: c unchanged (oracle hook for the interaction-order probe).

    Accepts a single vector or an (n, D/2) batch; returns (masked, stats)
    where stats maps LayerTrace fields to what the backward pass needs, or
    is None when ``want_stats`` is false.
    """
    single = c.ndim == 1
    cb = c[None, :] if single else c
    stats = {}
    if mode == "identity":
        masked = cb.copy()
    elif mode == "no_ln":
        relu = _relu(cb)
        masked = relu * relu
        stats = {"relu": relu}
    elif mode == "paper":
        mu = _row_mean(cb)
        nrm = cb - mu
        raw_std = np.sqrt(_row_mean(nrm * nrm))
        delta = np.maximum(raw_std, ln_epsilon)
        nrm /= delta
        relu = np.multiply(nrm, gain, out=nrm)
        relu += beta
        _relu(relu, out=relu)
        if want_stats:
            masked = cb * relu
            stats = {"relu": relu, "act": relu > 0.0, "mu": mu, "delta": delta,
                     "unclamped": raw_std > ln_epsilon}
        else:
            masked = np.multiply(cb, relu, out=relu)
    else:
        raise ValueError(f"unknown mask mode {mode!r}")
    if single:
        masked = masked[0]
    return masked, (stats if want_stats else None)


def cross_layer_forward(x_in: np.ndarray, anchor: np.ndarray, layer: CrossLayerParams,
                        mode: str, ln_epsilon: float, drop_mask: np.ndarray | None = None,
                        want_trace: bool = True):
    """One cross layer: c = W x_in + b, gate = [c || mask(c)],
    out = anchor * gate + x_in. ``drop_mask``, when given, is the (n, D)
    dropout mask the gate is multiplied by: 0 where an entry is dropped,
    1/(1 - dropout rate) where it is kept.
    Returns (x_out, LayerTrace), the trace None unless ``want_trace``."""
    if x_in.shape != anchor.shape:
        raise ValueError(f"cross layer shape mismatch: x_in {x_in.shape} vs anchor {anchor.shape}")
    if x_in.shape[-1] != layer.w.shape[1]:
        raise ValueError(
            f"cross layer shape mismatch: input width {x_in.shape[-1]}, weight is {layer.w.shape}"
        )
    c = x_in @ layer.w.T
    c += layer.b
    masked, stats = self_mask(c, layer.gain, layer.beta, mode, ln_epsilon, want_trace)
    gate = np.concatenate([c, masked], axis=1)
    if drop_mask is not None:
        gate *= drop_mask
    x_out = anchor * gate
    x_out += x_in
    if not want_trace:
        return x_out, None
    return x_out, LayerTrace(x_in, c, gate, drop_mask, **stats)


# Batches of at least this many activations (rows x D) run the two branches
# on two threads, when the process may use more than one CPU. Below it the
# hand-off to the worker thread costs more than the overlap saves: on 2 CPUs
# with D = 128, an inference forward of 128 rows took 2.2 ms threaded and
# 1.9 ms serially, one of 256 rows 2.7 ms threaded and 3.1 ms serially.
PARALLEL_MIN_ACTIVATIONS = 32768

_worker: ThreadPoolExecutor | None = None
_worker_lock = threading.Lock()


def _forget_worker() -> None:
    global _worker
    _worker = None


if hasattr(os, "register_at_fork"):
    # a forked child inherits the executor but not its thread
    os.register_at_fork(after_in_child=_forget_worker)


def _parallel(activations: int) -> bool:
    if activations < PARALLEL_MIN_ACTIVATIONS:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _both_branches(ecn_job, lcn_job, parallel: bool):
    """Return (ecn_job(), lcn_job()). In parallel the ecn job runs on the one
    worker thread, created on first use, while the lcn job runs on this one.
    The jobs share no mutable state. If both raise, the ecn job's exception
    propagates, as it would when the jobs run one after the other."""
    global _worker
    if not parallel:
        return ecn_job(), lcn_job()
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="fcn-ecn")
        future = _worker.submit(ecn_job)
    try:
        lcn = lcn_job()
    finally:
        ecn = future.result()
    return ecn, lcn


def _dropout_uniforms(rng: Rng | None, depth: int, shape: tuple, rate: float):
    """All of one branch's dropout draws in one call, layer-major; None when
    nothing drops. One (depth, n, D) draw is the same stream as depth
    consecutive (n, D) draws."""
    if rate == 0.0 or depth == 0:
        return None
    if rng is None:
        raise ValueError("training-mode dropout requires an rng")
    return rng.random((depth, *shape))


def _branch_forward(x1: np.ndarray, anchor: np.ndarray | None,
                    layers: list[CrossLayerParams], config: ModelConfig,
                    uniforms: np.ndarray | None, want_trace: bool):
    """Run one branch's cross layers from x1. The lcn passes ``anchor=x1``;
    ``anchor=None`` anchors each layer on its own input, as the ecn does.
    Returns (branch output, layer traces)."""
    x = x1
    traces = []
    for i, layer in enumerate(layers):
        drop_mask = None
        if uniforms is not None:
            # this layer's uniforms become its mask in place: an entry is kept
            # where its draw is >= rate, and survivors are scaled by 1/(1 - rate)
            drop_mask = np.greater_equal(uniforms[i], config.dropout_rate, out=uniforms[i])
            drop_mask /= 1.0 - config.dropout_rate
        x, tr = cross_layer_forward(x, x if anchor is None else anchor, layer,
                                    config.mask_mode, config.ln_epsilon, drop_mask, want_trace)
        traces.append(tr)
    return x, traces


def forward_from_x1(x1: np.ndarray, params: ModelParams, config: ModelConfig,
                    training: bool = False, rng: Rng | None = None,
                    want_trace: bool | None = None) -> ForwardResult:
    """Run both cross branches and the fused heads from a prepared x1 batch.

    A trace is captured by default only in training mode; pass
    ``want_trace=True`` to capture one for inspection without dropout.
    Large batches run the two branches on two threads (see
    ``_both_branches``); the dropout draws stay on this thread, ecn first.
    """
    if want_trace is None:
        want_trace = training
    rate = config.dropout_rate if training else 0.0
    shape = x1.shape
    ecn_uniforms = _dropout_uniforms(rng, len(params.ecn_layers), shape, rate)
    (x_ecn, ecn_traces), (x_lcn, lcn_traces) = _both_branches(
        lambda: _branch_forward(x1, None, params.ecn_layers, config, ecn_uniforms, want_trace),
        lambda: _branch_forward(x1, x1, params.lcn_layers, config,
                                _dropout_uniforms(rng, len(params.lcn_layers), shape, rate),
                                want_trace),
        _parallel(x1.size))

    heads = params.heads
    z_deep = x_ecn @ heads.w_deep + heads.b_deep[0]
    z_shallow = x_lcn @ heads.w_shallow + heads.b_shallow[0]
    y_deep = sigmoid(z_deep)
    y_shallow = sigmoid(z_shallow)
    y = 0.5 * (y_deep + y_shallow)

    trace = None
    if want_trace:
        trace = ForwardTrace(x1, ecn_traces, lcn_traces, x_ecn, x_lcn,
                             z_deep, z_shallow, y_deep, y_shallow)
    return ForwardResult(y, y_deep, y_shallow, trace)


def forward(batch, params: ModelParams, config: ModelConfig,
            training: bool = False, rng: Rng | None = None,
            want_trace: bool | None = None) -> ForwardResult:
    """Embed an encoded batch and run the network. See forward_from_x1."""
    x1 = embed_reshape(batch.ids, params, config.d)
    result = forward_from_x1(x1, params, config, training, rng, want_trace)
    if result.trace is not None:
        result.trace.ids = batch.ids
    return result


def _mask_backward(dgate: np.ndarray, tr: LayerTrace, layer: CrossLayerParams,
                   mode: str, grads_layer: CrossLayerParams) -> np.ndarray:
    """Gradient with respect to c from the gradient at the whole gate: the
    c half passes straight through, the masked half goes back through the
    self-mask, accumulating the layernorm gain/bias gradients on the way.
    Returns a new dc (n, D/2); the masked half of ``dgate`` is overwritten."""
    m = dgate.shape[1] // 2
    dg_c, dg_hi = dgate[:, :m], dgate[:, m:]
    if mode == "identity":
        return dg_c + dg_hi
    if mode == "no_ln":
        # masked = c * relu(c): derivative 2 relu(c)
        dc = np.multiply(tr.relu, 2.0)
        dc *= dg_hi
    else:
        # paper mode: masked = c * relu(gain * nrm + beta)
        dc = dg_hi * tr.relu
        dnrm = dg_hi * tr.c
        dnrm *= tr.act           # the gradient at the layernorm output
        nrm = tr.c - tr.mu       # the forward's normalized c, recomputed bit for bit
        nrm /= tr.delta
        tmp = np.multiply(dnrm, nrm, out=dg_hi)
        grads_layer.gain += tmp.sum(axis=0)
        grads_layer.beta += dnrm.sum(axis=0)
        dnrm *= layer.gain
        # layernorm backward; the std term only flows where the clamp was inactive
        mean_dnrm = _row_mean(dnrm)
        np.multiply(dnrm, nrm, out=tmp)
        std_term = np.multiply(nrm, _row_mean(tmp), out=nrm)
        if not tr.unclamped.all():
            std_term = np.where(tr.unclamped, std_term, 0.0)
        dnrm -= mean_dnrm
        dnrm -= std_term
        dnrm /= tr.delta
        dc += dnrm
    dc += dg_c
    return dc


def _branch_backward(dx: np.ndarray, anchor: np.ndarray | None,
                     layers: list[CrossLayerParams], grads_layers: list[CrossLayerParams],
                     traces: list[LayerTrace], mode: str):
    """Reverse one branch from ``dx``, the gradient at its output, which it
    consumes. ``anchor`` is as in ``_branch_forward``. Accumulates the
    layers' parameter gradients and returns (gradient at x1 through the
    first layer's input, the anchor gradient of each lcn layer, last layer
    first). The ecn anchor is the layer input, so its gradient joins dx."""
    anchor_terms = []
    for layer, gl, tr in zip(reversed(layers), reversed(grads_layers), reversed(traces)):
        dgate = dx * (tr.x_in if anchor is None else anchor)
        if tr.drop_mask is not None:
            dgate *= tr.drop_mask
        dc = _mask_backward(dgate, tr, layer, mode, gl)
        gl.w += dc.T @ tr.x_in
        gl.b += dc.sum(axis=0)
        # dgate is spent: its buffer takes the anchor gradient, then dc @ W
        if anchor is None:
            dx += np.multiply(dx, tr.gate_dropped, out=dgate)
        else:
            anchor_terms.append(dx * tr.gate_dropped)
        dx += np.matmul(dc, layer.w, out=dgate)
    return dx, anchor_terms


def backward(trace: ForwardTrace, params: ModelParams, config: ModelConfig,
             dy_deep: np.ndarray, dy_shallow: np.ndarray) -> Gradients:
    """Exact reverse-mode gradients of the loss for every parameter tensor.

    ``dy_deep`` and ``dy_shallow`` are the per-sample loss gradients with
    respect to the two head outputs (they already carry any 1/N factor).
    Dropout masks are replayed from the trace. The ecn anchor receives
    gradient through both the anchor slot and the cross vector, while the
    lcn anchor x1 collects a contribution from every layer. Large batches
    run the two branches on two threads, like the forward pass; dx1 is then
    summed in one fixed order, so the result does not depend on which
    branch finishes first.
    """
    if trace is None:
        raise ValueError("backward requires a training-mode forward trace")
    grads = zero_gradients(params)
    heads = params.heads

    dz_deep = dy_deep * trace.y_deep * (1.0 - trace.y_deep)
    dz_shallow = dy_shallow * trace.y_shallow * (1.0 - trace.y_shallow)

    grads.heads.w_deep += trace.x_ecn.T @ dz_deep
    grads.heads.b_deep += dz_deep.sum()
    grads.heads.w_shallow += trace.x_lcn.T @ dz_shallow
    grads.heads.b_shallow += dz_shallow.sum()

    mode = config.mask_mode
    (dx_ecn, _), (dx_lcn, lcn_anchor_terms) = _both_branches(
        lambda: _branch_backward(np.outer(dz_deep, heads.w_deep), None, params.ecn_layers,
                                 grads.ecn_layers, trace.ecn, mode),
        lambda: _branch_backward(np.outer(dz_shallow, heads.w_shallow), trace.x1,
                                 params.lcn_layers, grads.lcn_layers, trace.lcn, mode),
        _parallel(trace.x1.size))
    # left to right: the ecn input gradient, each lcn anchor term, the lcn input gradient
    dx1 = dx_ecn
    for term in lcn_anchor_terms:
        dx1 += term
    dx1 += dx_lcn

    if _inject_grad_sign_flip:
        target = grads.ecn_layers or grads.lcn_layers
        if target:
            target[0].b *= -1.0

    # scatter x1 gradient back into the touched embedding rows
    if trace.ids is not None:
        m = dx1.shape[1] // 2
        half = config.d // 2
        f = params.num_fields
        for j in range(f):
            de = np.concatenate(
                [dx1[:, j * half:(j + 1) * half],
                 dx1[:, m + j * half:m + (j + 1) * half]],
                axis=1,
            )
            uids, inverse = np.unique(trace.ids[:, j], return_inverse=True)
            rows = np.zeros((uids.shape[0], config.d))
            np.add.at(rows, inverse, de)
            grads.embeddings[j] = (uids, rows)
    return grads


def param_count(config: ModelConfig, sizes: list[int]) -> dict:
    """Closed-form parameter accounting.

    Per cross layer: D^2/2 + D/2 for (W, b) plus D for the layernorm gain and
    bias. Heads contribute 2(D + 1); embeddings sum d * s_i. The non-embedding
    total therefore scales with the leading term D^2 * depth / 2 per branch.
    """
    D = config.d * len(sizes)
    per_layer = D * D // 2 + D // 2 + D
    lcn = per_layer * config.lcn_depth
    ecn = per_layer * config.ecn_depth
    heads = 2 * (D + 1)
    return {
        "embedding": config.d * int(sum(sizes)),
        "per_layer": per_layer,
        "lcn_cross": lcn,
        "ecn_cross": ecn,
        "heads": heads,
        "non_embedding_total": lcn + ecn + heads,
    }


def _branch_layers(params: ModelParams, branch: str) -> list[CrossLayerParams]:
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    return params.ecn_layers if branch == "ecn" else params.lcn_layers


def field_importance(params: ModelParams, config: ModelConfig, trace_or_batch,
                     layer_index: int, branch: str):
    """Field-wise interpretability views of one cross layer.

    Returns (cross_strengths, mask_sparsity, pair_matrix):
      cross_strengths[i]  batch-mean euclidean norm of field i's segment of c;
      mask_sparsity[i]    zero fraction of field i's segment of the masked view;
      pair_matrix[i][j]   frobenius norm of the (d/2, d) weight block mapping
                          field j's input coordinates to field i's cross rows.
    """
    layers = _branch_layers(params, branch)
    if not (0 <= layer_index < len(layers)):
        raise ValueError(
            f"layer index {layer_index} out of range for branch {branch!r} "
            f"with depth {len(layers)}"
        )
    trace = trace_or_batch
    if not isinstance(trace, ForwardTrace):
        trace = forward(trace_or_batch, params, config, training=False,
                        want_trace=True).trace
    tr = (trace.ecn if branch == "ecn" else trace.lcn)[layer_index]

    f = params.num_fields
    half = config.d // 2
    m = f * half
    c = tr.c
    masked = tr.gate_dropped[:, m:]

    cross_strengths = np.empty(f)
    mask_sparsity = np.empty(f)
    for i in range(f):
        seg = slice(i * half, (i + 1) * half)
        cross_strengths[i] = np.sqrt((c[:, seg] ** 2).sum(axis=1)).mean()
        mask_sparsity[i] = float((masked[:, seg] == 0.0).mean())

    w = layers[layer_index].w
    pair = np.empty((f, f))
    for i in range(f):
        rows = w[i * half:(i + 1) * half]
        for j in range(f):
            block = np.concatenate(
                [rows[:, j * half:(j + 1) * half],
                 rows[:, m + j * half:m + (j + 1) * half]],
                axis=1,
            )
            pair[i, j] = np.sqrt((block ** 2).sum())
    return cross_strengths, mask_sparsity, pair
