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

Batches are row-major: ids (n, f) int64, activations (n, D), cross vectors
(n, D/2). Every embedding row lives in one table, ``ModelParams.table``, every
other parameter in one vector, ``ModelParams.dense``, and the per-field tables
and the layer and head fields view the two, in one dtype that every array the
forward, the backward and a workspace make takes: training runs in float32,
``init_model_params``, a loaded checkpoint and the oracles in float64. Params
are immutable during forward/backward; traces are per-batch and single-owner.
A layer trace keeps only what the backward reads, which recomputes the relu
gate from it, and a backward spends the trace: every layer output of both
branches takes gradient temporaries. A
training run hands forward a ``BranchWorkspace`` per branch, whose buffers
take a step's arrays in place of fresh temporaries, and the trace carries
the pair to the backward; every other caller gets fresh arrays. The two
branches share only x1 and the heads, so small inference batches run them
as one (2, n, D) stack, large batches with the ecn on a worker thread and
the lcn on the caller's, the rest one after the other, all with bitwise the
same results.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from fcn_ctr.numerics import Rng, init_params

MASK_MODES = ("paper", "no_ln", "identity")
BRANCHES = ("ecn", "lcn")


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
        if not (self.ln_epsilon > 0 and math.isfinite(self.ln_epsilon)):
            raise ValueError(f"ln_epsilon must be finite and > 0, got {self.ln_epsilon}")


@dataclass
class CrossLayerParams:
    w: np.ndarray      # (D/2, D)
    b: np.ndarray      # (D/2,)
    gain: np.ndarray   # (D/2,) layernorm gain
    beta: np.ndarray   # (D/2,) layernorm bias


@dataclass
class HeadParams:
    w_deep: np.ndarray     # (D,)
    b_deep: np.ndarray     # (1,)
    w_shallow: np.ndarray  # (D,)
    b_shallow: np.ndarray  # (1,)


def dense_layout(width: int, lcn_depth: int, ecn_depth: int):
    """(name, shape) of every non-embedding tensor in checkpoint order, the one walk
    of it: each lcn layer's w, b, gain, beta, each ecn layer's, the heads'. A
    generator, as a checkpoint header may claim any depth."""
    m = width // 2
    for branch, depth in (("lcn_layers", lcn_depth), ("ecn_layers", ecn_depth)):
        for i in range(depth):
            for key, shape in (("w", (m, width)), ("b", (m,)), ("gain", (m,)), ("beta", (m,))):
                yield f"{branch}[{i}].{key}", shape
    yield from (("heads.w_deep", (width,)), ("heads.b_deep", (1,)),
                ("heads.w_shallow", (width,)), ("heads.b_shallow", (1,)))


def dense_size(width: int, lcn_depth: int, ecn_depth: int) -> int:
    """How many values ``dense_layout`` lays out, in closed form: each cross layer
    holds W (D/2, D) and b, gain, beta (D/2,), the heads two (D,) and two (1,)."""
    m = width // 2
    return (lcn_depth + ecn_depth) * (m * width + 3 * m) + 2 * width + 2


def layer_views(vec: np.ndarray, width: int, lcn_depth: int, ecn_depth: int):
    """(lcn layers, ecn layers, heads) whose tensors are views into vec. Views
    of a (K, P) stack of vectors lead with K: weights (K, D/2, D), the layers'
    vectors (K, 1, D/2), the heads' (K, D) and (K, 1); ``ModelParams.stacked``
    is the layers of a stack of two windows of dense."""
    views, pos, lead = [], 0, vec.shape[:-1]
    for _, shape in dense_layout(width, lcn_depth, ecn_depth):
        views.append(vec[..., pos:pos + math.prod(shape)].reshape(*lead, *shape))
        pos += math.prod(shape)
    layers = [CrossLayerParams(w, *(t[..., None, :] if lead else t for t in vectors))
              for w, *vectors in (views[i:i + 4] for i in range(0, len(views) - 4, 4))]
    return layers[:lcn_depth], layers[lcn_depth:], HeadParams(*views[-4:])


def named_dense(tree) -> list:
    """[(name, tensor)] of a ModelParams' or Gradients' dense tensors, in checkpoint order."""
    tensors = [t for holder in (*tree.lcn_layers, *tree.ecn_layers, tree.heads)
               for t in vars(holder).values()]
    layout = dense_layout(len(tree.heads.w_deep), len(tree.lcn_layers), len(tree.ecn_layers))
    return [(name, t) for (name, _), t in zip(layout, tensors)]


@dataclass
class ModelParams:
    """Every model parameter, in two arrays of one ``dtype`` the constructor adopts
    as they are: a float32 table's, else float64, copied only if not C-contiguous
    in it. ``table`` is the (sum of s_i, d) embedding table, field 0's rows first,
    field j's ``sizes[j]`` rows from row ``offsets[j]``, and ``dense`` the
    ``dense_size`` values of every other tensor laid out by ``dense_layout``;
    ``embeddings`` and the tensor fields view the two."""

    table: np.ndarray                     # (sum of s_i, d)
    sizes: np.ndarray                     # (f,) each field's row count, s_i
    dense: np.ndarray                     # (dense_size,)
    lcn_depth: InitVar[int]
    ecn_depth: InitVar[int]
    lcn_layers: list[CrossLayerParams] = field(init=False)
    ecn_layers: list[CrossLayerParams] = field(init=False)
    heads: HeadParams = field(init=False)
    embeddings: list[np.ndarray] = field(init=False)  # per field, (s_i, d): row per token id
    offsets: np.ndarray = field(init=False)  # (f,) each field's first row in table

    def __post_init__(self, lcn_depth: int, ecn_depth: int):
        self.sizes = np.array(self.sizes, dtype=np.int64)
        self.offsets = np.cumsum(self.sizes) - self.sizes
        float32 = np.asarray(self.table).dtype == np.float32
        self.table = np.ascontiguousarray(self.table, np.float32 if float32 else np.float64)
        if self.table.ndim != 2 or len(self.table) != self.sizes.sum():
            raise ValueError(f"table: expected {self.sizes.sum()} rows of d, "
                             f"got shape {self.table.shape}")
        self.embeddings = [self.table[lo:lo + size] for lo, size in zip(self.offsets, self.sizes)]
        width = self.table.shape[1] * len(self.sizes)
        size = dense_size(width, lcn_depth, ecn_depth)
        self.dense = np.ascontiguousarray(self.dense, dtype=self.table.dtype)
        if self.dense.shape != (size,):
            raise ValueError(f"dense: expected {size} values, got shape {self.dense.shape}")
        self.lcn_layers, self.ecn_layers, self.heads = layer_views(self.dense, width,
                                                                   lcn_depth, ecn_depth)

    @functools.cached_property
    def stacked(self) -> list[CrossLayerParams]:
        """Layer i of both branches, lcn then ecn, for i below both depths, as read-only
        views of dense: w (2, D/2, D), b, gain, beta (2, 1, D/2). They are the
        ``layer_views`` of two windows of dense, one from its start, one from ecn[0],
        lcn_depth layers on: no tensor is copied. Built on first use: made by every
        constructor, they added 5 MB to online's peak RSS."""
        if not (self.lcn_layers and self.ecn_layers):
            return []
        step = sum(t.size for layer in self.lcn_layers for t in vars(layer).values())
        windows = np.lib.stride_tricks.sliding_window_view(self.dense, self.dense.size - step)
        depth = min(len(self.lcn_layers), len(self.ecn_layers))
        return layer_views(windows[::step], self.width, depth, 0)[0]

    @functools.cached_property
    def id_gather(self) -> tuple[np.ndarray, np.ndarray]:
        """(each field's size as uint64, 2 * offsets + [[0], [1]]): what ``embed_reshape``
        checks ids against and adds twice each id to, for each (view, field)'s row of
        the table seen as (2 * rows, d/2) halves. Built on first use, like ``stacked``."""
        return self.sizes.astype(np.uint64), 2 * self.offsets + np.arange(2)[:, None]

    @property
    def dtype(self) -> np.dtype:
        return self.table.dtype

    @property
    def num_fields(self) -> int:
        return len(self.embeddings)

    @property
    def width(self) -> int:
        return int(self.heads.w_deep.shape[-1])

    def copy(self, dtype=None) -> "ModelParams":
        dtype = self.dtype if dtype is None else dtype
        return ModelParams(self.table.astype(dtype), self.sizes, self.dense.astype(dtype),
                           len(self.lcn_layers), len(self.ecn_layers))


def named_tensors(params: ModelParams):
    """[(name, tensor)] of every parameter in checkpoint order, embeddings first."""
    return [(f"embeddings[{j}]", e) for j, e in enumerate(params.embeddings)] + named_dense(params)


@dataclass
class LayerTrace:
    """Per-layer forward cache, all of which the backward pass reads. ``keep``
    is None without dropout, and the backward scales by 1/(1 - dropout rate)
    where it keeps. The layernorm stats stay None where the mask mode does not
    use them; from c and them the backward recomputes the relu gate
    (``_mask_backward``) and derives the clamp and the gate."""

    x_in: np.ndarray           # (n, D)
    c: np.ndarray              # (n, D/2)
    keep: np.ndarray | None = None       # (n, D) bool dropout keep mask, None when off
    mu: np.ndarray | None = None         # (n, 1) layernorm mean
    delta: np.ndarray | None = None      # (n, 1) layernorm std, clamped to at least epsilon


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
    workspace: tuple[BranchWorkspace, BranchWorkspace]  # the (ecn, lcn) pair the forward ran in
    ids: np.ndarray | None = None
    spent: bool = False  # a backward overwrote both branches' layer outputs


@dataclass
class ForwardResult:
    y: np.ndarray
    y_deep: np.ndarray
    y_shallow: np.ndarray
    trace: ForwardTrace | None = None


@dataclass
class Gradients:
    """Mirror of ModelParams. The embedding gradient is sparse, one (rows, grads)
    pair: the sorted ``table`` rows a batch touched and their accumulations, or
    None without ids. The other tensors view ``dense``, laid out as the params'."""

    embeddings: tuple[np.ndarray, np.ndarray] | None
    lcn_layers: list[CrossLayerParams]
    ecn_layers: list[CrossLayerParams]
    heads: HeadParams
    dense: np.ndarray


# the workspace roles and scratch halves each mask mode never reads: no_ln has
# no layernorm, identity no relu gate either
_LAYERNORM_ROLES = ("mu", "delta", "dnrm", "act", "mean")
_UNREAD_ROLES = {"paper": (), "no_ln": _LAYERNORM_ROLES,
                 "identity": (*_LAYERNORM_ROLES, "relu")}


class BranchWorkspace:
    """One branch's buffers for training steps, which fill them in place of
    fresh temporaries: one flat array per role, grown to the largest batch
    seen, so a smaller batch takes reshaped prefixes of the same memory. A
    step's trace and gradients view these buffers until the next step (or the
    epoch's evaluation) overwrites them. ``dtype`` is the params' dtype, which
    float roles take. Single-owner, like an ``Rng``."""

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, role: str, shape: tuple, dtype=None) -> np.ndarray:
        """An uninitialized C-contiguous view of ``role``'s buffer, which
        always has the same ``dtype``, by default the workspace's."""
        size = math.prod(shape)
        flat = self.buffers.get(role)
        if flat is None or flat.size < size:
            flat = self.buffers[role] = np.empty(size, self.dtype if dtype is None else dtype)
        return flat[:size].reshape(shape)

    def forward_views(self, depth: int, n: int, width: int, mode: str) -> list[dict]:
        """Per layer, the views ``cross_layer_forward`` fills in mask ``mode``:
        its output, the gate's first, and the arrays its trace keeps (each role
        holds every layer's), and the masked half and the relu gate, the two
        halves of one scratch pair the layers share. Unread roles are not taken."""
        m, unread = width // 2, _UNREAD_ROLES[mode]
        layered = {role: self.take(role, (depth, n, cols)) for role, cols in (
            ("x_out", width), ("c", m), ("mu", 1), ("delta", 1)) if role not in unread}
        pair = self.take("scratch", (1 if "relu" in unread else 2, n, m))
        shared = dict(zip(("masked", "relu"), pair))
        return [dict(shared, **{role: a[i] for role, a in layered.items()})
                for i in range(depth)]

    def backward_views(self, n: int, width: int, mode: str) -> dict:
        """The views a branch with layers fills in ``_branch_backward`` in mask
        ``mode``, which takes dx and the lcn's dc @ W itself: nrm and relu take
        the halves of the forward's scratch pair, spent by then, act the relu
        gate's sign, dw each layer's W-gradient product. Unread roles are not taken."""
        m, unread = width // 2, _UNREAD_ROLES[mode]
        views = {role: self.take(role, (n, cols), dtype) for role, cols, dtype in (
            ("dc", m, None), ("dnrm", m, None), ("mean", 1, None), ("act", m, bool))
            if role not in unread}
        pair = self.take("scratch", (1 if "relu" in unread else 2, n, m))
        views.update(zip(("nrm", "relu"), pair), dw=self.take("dw", (m, width)))
        return views


_NO_VIEWS: dict = {}  # a role without a view gets a new array


class FreshArrays(BranchWorkspace):
    """The workspace of every caller but a training run, which reuses
    nothing, so no result aliases another call's: ``take`` allocates and there
    are no views, so each numpy call makes its own result."""

    def take(self, role: str, shape: tuple, dtype=None) -> np.ndarray:
        return np.empty(shape, self.dtype if dtype is None else dtype)

    def forward_views(self, depth: int, n: int, width: int, mode: str) -> list[dict]:
        return [_NO_VIEWS] * depth

    def backward_views(self, n: int, width: int, mode: str) -> dict:
        return _NO_VIEWS


FRESH = {np.dtype(t): FreshArrays(t) for t in (np.float32, np.float64)}  # by params' dtype


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: 1 / (1 + e^-z) for z >= 0 and
    e^z / (1 + e^z) below, both from e = exp(-|z|)."""
    z = np.asarray(z)  # in its dtype: float32 stays float32, integers give float64
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def init_model_params(config: ModelConfig, sizes: list[int], seed: int) -> ModelParams:
    """Draw fresh parameters: embeddings and cross weights uniform by fan-in,
    layernorm gain 1 / bias 0, all other biases 0. Draw order is fixed
    (embeddings, lcn layers, ecn layers, heads) so a seed pins every tensor."""
    if min(sizes, default=0) <= 0:
        raise ValueError(f"init_model_params: every field needs a row, got sizes {list(sizes)}")
    rng = Rng(seed)
    depths = config.lcn_depth, config.ecn_depth
    params = ModelParams(np.empty((sum(sizes), config.d)), sizes,
                         np.zeros(dense_size(config.d * len(sizes), *depths)), *depths)
    # one draw for every field: each has the same bound, so the words fall as per field
    init_params(params.table.shape, rng, config.d, params.table)
    for layer in params.lcn_layers + params.ecn_layers:
        init_params(layer.w.shape, rng, out=layer.w)
        layer.gain.fill(1.0)
    for w in (params.heads.w_deep, params.heads.w_shallow):
        init_params(w.shape, rng, out=w)
    return params


def zero_gradients(params: ModelParams, dense: np.ndarray) -> Gradients:
    """Zero gradients over ``dense``, a vector shaped as ``params.dense``, zeroed here."""
    dense.fill(0.0)
    return Gradients(None, *layer_views(dense, params.width, len(params.lcn_layers),
                                        len(params.ecn_layers)), dense)


def embed_reshape(ids: np.ndarray, params: ModelParams,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Look up field embeddings and lay them out as [a_1..a_f, b_1..b_f]:
    ids (n, f) give x1 (n, D), or (K, n, D) from a (K, rows, d) stack of
    tables, written into ``out`` when given. d is the table's width.
    """
    *lead, rows, d = params.table.shape
    half, f = d // 2, params.num_fields
    n, fields = ids.shape
    if fields != f:
        raise ValueError(f"expected {f} fields, got {fields}")
    # checked per field, as past its field's end an id is the next field's row; one
    # unsigned compare, in which a negative id wraps past every size
    sizes, base = params.id_gather
    bad = np.greater_equal(ids, sizes, signature=(np.uint64, np.uint64, bool), casting="unsafe")
    if np.count_nonzero(bad):
        j = int(bad.any(axis=0).argmax())
        raise ValueError(f"field {j}: id out of range [0, {params.sizes[j]}) in batch")
    x1 = np.empty((*lead, n, f * d), params.dtype) if out is None else out
    # the table seen as (2 * rows, d/2) halves, x1 as (row, view, field, d/2): one
    # take fills x1 in place (mode "clip", as the ids are checked: "raise" copies)
    params.table.reshape(*lead, 2 * rows, half).take(
        2 * ids[:, None, :] + base, axis=-2, out=x1.reshape(*lead, n, 2, f, half), mode="clip")
    return x1


def _row_mean(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a.mean(axis=-1, keepdims=True)``, bit for bit (numpy's mean is this
    sum over the count), without the Python layer that dominates small rows."""
    out = np.add.reduce(a, axis=-1, keepdims=True, out=out)
    out /= a.shape[-1]
    return out


def _relu(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.where(a > 0, a, 0.0)`` without the data-dependent branch: the
    same bits for every non-NaN entry (adding 0.0 turns a -0.0 into +0.0)."""
    out = np.maximum(a, 0.0, out=out)
    out += 0.0
    return out


def _relu_gate(nrm: np.ndarray, delta: np.ndarray, gain, beta, out=None) -> np.ndarray:
    """The paper mask's relu gate relu(gain * nrm / delta + beta) from the
    centered cross vector nrm, which is divided by delta in place; the forward
    and the backward's recompute both run it, so they agree bit for bit."""
    nrm /= delta
    relu = np.multiply(nrm, gain, out=out)
    relu += beta
    return _relu(relu, out=relu)


def self_mask(c: np.ndarray, gain: np.ndarray, beta: np.ndarray,
              mode: str = "paper", ln_epsilon: float = 1e-5, out: dict = _NO_VIEWS):
    """Gate a cross vector against its own normalized sign.

    paper:    c * relu(gain * (c - mean) / max(std, eps) + beta), with mean and
              population std taken over the D/2 entries of each row. The relu
              of a zero-mean normalization closes roughly half the gate.
    no_ln:    c * relu(c) (ablation without the normalization).
    identity: c unchanged (oracle hook for the interaction-order probe).

    Works over the last axis of a vector, an (n, D/2) batch or a (2, n, D/2)
    stack of both branches'. Returns (masked, stats) where stats maps
    LayerTrace fields to the layernorm row stats the backward reads. ``out`` maps
    roles to the views the arrays go into (``BranchWorkspace.forward_views``);
    a role it lacks, by default every one, gets a new array.
    """
    relu, stats = None, {}
    if mode == "no_ln":
        relu = _relu(c, out.get("relu"))
    elif mode == "paper":
        mu = _row_mean(c, out.get("mu"))
        nrm = np.subtract(c, mu, out=out.get("relu"))
        raw_std = _row_mean(np.multiply(nrm, nrm, out=out.get("masked")), out.get("delta"))
        np.sqrt(raw_std, out=raw_std)
        delta = np.maximum(raw_std, ln_epsilon, out=raw_std)
        relu = _relu_gate(nrm, delta, gain, beta, out=nrm)
        stats = {"mu": mu, "delta": delta}
    elif mode != "identity":
        raise ValueError(f"unknown mask mode {mode!r}")
    return _masked(c, relu, mode, out.get("masked")), stats


def _masked(c: np.ndarray, relu, mode: str, out=None) -> np.ndarray:
    """mask(c) from c and the relu gate ``self_mask`` derived (None in
    identity mode): c * relu, relu * relu for no_ln, c itself for identity."""
    if mode == "identity":
        return np.positive(c, out=out)
    return np.multiply(relu if mode == "no_ln" else c, relu, out=out)


def _dropout(a: np.ndarray, keep, rate: float) -> np.ndarray:
    """``a`` after dropout, in place: times ``keep``, the bool keep mask at dropout
    ``rate``, then 1/(1 - rate), which has the bits of one product with a float
    mask of 0 and 1/(1 - rate) for every float, ±0, inf and NaN included; ``a``
    unchanged where ``keep`` is None. The gate and its gradient both go through it."""
    if keep is not None:
        a *= keep
        a *= 1.0 / (1.0 - rate)
    return a


def _gate(c: np.ndarray, masked: np.ndarray, keep, rate: float, out=None) -> np.ndarray:
    """The gate [c || masked] after dropout (``_dropout``), into ``out``. The
    backward rebuilds the forward's gate with it, bit for bit."""
    return _dropout(np.concatenate([c, masked], axis=-1, out=out), keep, rate)


def cross_layer_forward(x_in: np.ndarray, anchor: np.ndarray, layer: CrossLayerParams,
                        mode: str, ln_epsilon: float, keep: np.ndarray | None = None,
                        rate: float = 0.0, want_trace: bool = True, out: dict = _NO_VIEWS):
    """One cross layer: c = W x_in + b, gate = [c || mask(c)] after dropout
    (``_gate``, with ``keep`` and ``rate``), out = anchor * gate + x_in. The
    gate is built in the output's buffer and multiplied there, so no layer
    keeps it. A layer of ``ModelParams.stacked`` runs on (2, n, D) stacks of
    both branches' x_in and anchor. ``out`` is as in ``self_mask``. Returns
    (x_out, LayerTrace), the trace None unless ``want_trace``."""
    if x_in.shape != anchor.shape:
        raise ValueError(f"cross layer shape mismatch: x_in {x_in.shape} vs anchor {anchor.shape}")
    if x_in.shape[-1] != layer.w.shape[-1]:
        raise ValueError(
            f"cross layer shape mismatch: input width {x_in.shape[-1]}, weight is {layer.w.shape}"
        )
    c = np.matmul(x_in, layer.w.swapaxes(-1, -2), out=out.get("c"))
    c += layer.b
    masked, stats = self_mask(c, layer.gain, layer.beta, mode, ln_epsilon, out)
    gate = _gate(c, masked, keep, rate, out.get("x_out"))
    x_out = np.multiply(anchor, gate, out=gate)
    x_out += x_in
    if not want_trace:
        return x_out, None
    return x_out, LayerTrace(x_in, c, keep, **stats)


# Batches of at least this many activations (rows x D) run the two branches
# on two threads, when the process may use more than one CPU. Below it the
# hand-off to the worker thread costs more than the overlap saves: on 2 CPUs,
# D = 128, one BLAS thread, a float32 training step (tools/step_faults.py, p50
# of 60 steps, three rounds) took 6.9-7.6 ms threaded and 5.7-7.6 ms serially
# at 192 rows, 8.3-9.9 and 10.3-11.0 ms at 256.
PARALLEL_MIN_ACTIVATIONS = 32768

# Inference batches of at most this many activations run both branches as one
# stack (``_stacked_forward``), half the numpy calls. On 2 CPUs, one BLAS thread,
# D = 128 and 3 + 3 layers, a forward of 1 row took 104 us stacked and 152 us
# serially, of 48 rows 465 and 489 us; from 60 rows the stack often took 1.2-1.6
# times as long. D = 32 crossed at the same activations (192 and 224 rows).
STACKED_MAX_ACTIVATIONS = 6144


def _new_worker() -> None:
    """Make the ecn worker; its thread starts with the first job."""
    global _worker
    _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="fcn-ecn")


_new_worker()
if hasattr(os, "register_at_fork"):
    # a forked child inherits the executor but not its thread: it gets a new one
    os.register_at_fork(after_in_child=_new_worker)


def _parallel(activations: int) -> bool:
    if activations < PARALLEL_MIN_ACTIVATIONS:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _both_branches(ecn_job, lcn_job, parallel: bool):
    """Return (ecn_job(), lcn_job()). In parallel the ecn job runs on the one
    worker thread while the lcn job runs on this one. The jobs share no mutable
    state. If both raise, the ecn job's exception propagates, as it would when
    the jobs run one after the other."""
    if not parallel:
        return ecn_job(), lcn_job()
    future = _worker.submit(ecn_job)
    try:
        lcn = lcn_job()
    finally:
        ecn = future.result()
    return ecn, lcn


def _branch_forward(x1: np.ndarray, anchor: np.ndarray | None,
                    layers: list[CrossLayerParams], config: ModelConfig, rate: float,
                    rng: Rng | None, want_trace: bool, ws: BranchWorkspace | None = None):
    """Run one branch's cross layers from x1, into ``ws``. The lcn passes
    ``anchor=x1``; ``anchor=None`` anchors each layer on its own input, as
    the ecn does. At a dropout ``rate`` above 0 each layer draws x1's shape
    of uniforms from ``rng``, layer by layer. Returns (branch output, layer
    traces); a branch without layers returns x1 itself."""
    if not layers:
        return x1, []
    if rate and rng is None:
        raise ValueError("training-mode dropout requires an rng")
    x, traces, ws = x1, [], ws or FRESH[x1.dtype]
    views = ws.forward_views(len(layers), *x1.shape[-2:], config.mask_mode)
    keep = ws.take("keep", (len(layers), *x1.shape), bool) if rate else [None] * len(layers)
    for i, layer in enumerate(layers):
        if rate:
            # float64 uniforms go into the buffer of the output, whose gate the layer writes
            # next, as many at a time as it holds (half of them in float32): the words, and
            # so the keep masks and the stream, do not depend on the dtype
            buf, flat = views[i].get("x_out"), keep[i].reshape(-1)
            words = (np.empty(x1.shape) if buf is None else buf).reshape(-1).view(np.float64)
            for lo in range(0, flat.size, words.size or 1):
                part = words[:flat.size - lo]
                np.greater_equal(rng.random(out=part), rate, out=flat[lo:lo + part.size])
        x, tr = cross_layer_forward(x, x if anchor is None else anchor, layer, config.mask_mode,
                                    config.ln_epsilon, keep[i], rate, want_trace, views[i])
        traces.append(tr)
    return x, traces


def _stacked_forward(x1: np.ndarray, params: ModelParams, config: ModelConfig):
    """(x_ecn, x_lcn) in inference, bitwise as ``_branch_forward`` gives them: the
    shared-depth layers run on stacks of [lcn, ecn] inputs against the anchors
    [x1, ecn input], then the deeper branch finishes alone."""
    x = anchor = np.empty((2, *x1.shape), x1.dtype)
    anchor[:] = x1
    for layer in params.stacked:
        x, _ = cross_layer_forward(x, anchor, layer, config.mask_mode, config.ln_epsilon,
                                   want_trace=False)
        anchor[1] = x[1]
    shared = len(params.stacked)
    x_ecn, _ = _branch_forward(x[1], None, params.ecn_layers[shared:], config, 0.0, None, False)
    x_lcn, _ = _branch_forward(x[0], x1, params.lcn_layers[shared:], config, 0.0, None, False)
    return x_ecn, x_lcn


def forward_from_x1(x1: np.ndarray, params: ModelParams, config: ModelConfig,
                    training: bool = False, rng: Rng | None = None,
                    workspace: tuple[BranchWorkspace, BranchWorkspace] | None = None
                    ) -> ForwardResult:
    """Run both cross branches and the fused heads from a prepared x1 batch.

    A trace is captured in training mode only; a config at dropout rate 0
    traces without dropout.
    Small (n, D) inference batches stack both branches
    (``_stacked_forward``), large ones run on two threads (``_both_branches``),
    all with the serial bits. Each branch draws its own dropout uniforms, one
    (n, D) draw a layer into that layer's output buffer, and keeps only a bool
    keep mask: the ecn from a split of ``rng`` that covers its words, the lcn
    from ``rng`` after them, so the stream is the one a single thread would
    draw, ecn first.
    ``workspace``, the (ecn, lcn) pair a training run reuses, takes the
    branches' arrays, and the trace then views it until the workspace's next
    use; by default every array is new. The trace carries the pair it ran in.
    """
    rate = config.dropout_rate if training else 0.0
    workspace = workspace or (FRESH[params.dtype],) * 2
    if x1.ndim == 2 and not training and x1.size <= STACKED_MAX_ACTIVATIONS:
        x_ecn, x_lcn = _stacked_forward(x1, params, config)
    else:
        ecn_rng = rng.split(len(params.ecn_layers) * x1.size) if rate and rng is not None else rng
        (x_ecn, ecn_traces), (x_lcn, lcn_traces) = _both_branches(
            lambda: _branch_forward(x1, None, params.ecn_layers, config, rate, ecn_rng,
                                    training, workspace[0]),
            lambda: _branch_forward(x1, x1, params.lcn_layers, config, rate, rng,
                                    training, workspace[1]),
            _parallel(x1.size))

    # the heads' logits, deep then shallow, as one stack: one sigmoid and one fusion
    heads, z = params.heads, np.empty((2, *x_ecn.shape[:-1]), x_ecn.dtype)
    z_deep, z_shallow = z
    np.matmul(x_ecn, heads.w_deep[..., None], out=z_deep[..., None])
    np.matmul(x_lcn, heads.w_shallow[..., None], out=z_shallow[..., None])
    z_deep += heads.b_deep
    z_shallow += heads.b_shallow
    y_deep, y_shallow = sigmoid(z)
    y = 0.5 * (y_deep + y_shallow)

    trace = None
    if training:
        trace = ForwardTrace(x1, ecn_traces, lcn_traces, x_ecn, x_lcn,
                             z_deep, z_shallow, y_deep, y_shallow, workspace)
    return ForwardResult(y, y_deep, y_shallow, trace)


def forward(batch, params: ModelParams, config: ModelConfig,
            training: bool = False, rng: Rng | None = None,
            workspace: tuple[BranchWorkspace, BranchWorkspace] | None = None) -> ForwardResult:
    """Embed an encoded batch and run the network. See forward_from_x1. A params
    whose ``table`` is a (K, rows, d) stack and whose layers and heads are
    ``layer_views`` of a (K, P) stack of dense vectors runs K parameter sets at
    once: (K, n) outputs, slice k bitwise set k's own forward."""
    shape = (*params.table.shape[:-2], len(batch.ids), params.width)
    workspace = workspace or (FRESH[params.dtype],) * 2
    x1 = embed_reshape(batch.ids, params, workspace[1].take("x1", shape))
    result = forward_from_x1(x1, params, config, training, rng, workspace)
    if result.trace is not None:
        result.trace.ids = batch.ids
    return result


def _mask_backward(dgate: np.ndarray, tr: LayerTrace, layer: CrossLayerParams,
                   config: ModelConfig, grads_layer: CrossLayerParams, out: dict):
    """Gradient with respect to c from the gradient at the whole gate: the
    c half passes straight through, the masked half goes back through the
    self-mask, accumulating the layernorm gain/bias gradients on the way. The
    relu gate, which the trace does not keep, is recomputed first by the
    forward's own ``_relu_gate``, bit for bit. Returns (dc
    (n, D/2), the relu gate or None in identity mode); the masked half of
    ``dgate`` is overwritten. ``out`` maps roles to the views of the (n, D/2)
    arrays and the (n, 1) row means (``BranchWorkspace.backward_views``), as
    in ``self_mask``."""
    m = dgate.shape[1] // 2
    dg_c, dg_hi = dgate[:, :m], dgate[:, m:]
    if config.mask_mode == "identity":
        return np.add(dg_c, dg_hi, out=out.get("dc")), None
    if config.mask_mode == "no_ln":
        # masked = c * relu(c): derivative 2 relu(c)
        relu = _relu(tr.c, out.get("relu"))
        dc = np.multiply(relu, 2.0, out=out.get("dc"))
        dc *= dg_hi
    else:
        # paper mode: masked = c * relu(gain * nrm + beta)
        nrm = np.subtract(tr.c, tr.mu, out=out.get("nrm"))
        relu = _relu_gate(nrm, tr.delta, layer.gain, layer.beta, out.get("relu"))
        dc = np.multiply(dg_hi, relu, out=out.get("dc"))
        # through the gate, dnrm becomes the gradient at the layernorm output
        dnrm = np.multiply(dg_hi, tr.c, out=out.get("dnrm"))
        dnrm *= np.greater(relu, 0.0, out=out.get("act"))
        tmp = np.multiply(dnrm, nrm, out=dg_hi)
        grads_layer.gain += tmp.sum(axis=0)
        grads_layer.beta += dnrm.sum(axis=0)
        dnrm *= layer.gain
        # layernorm backward; the std term only flows where the std exceeded
        # epsilon, which is where delta = max(std, epsilon) does (NaN included)
        np.multiply(dnrm, nrm, out=tmp)
        std_term = np.multiply(nrm, _row_mean(tmp, out.get("mean")), out=nrm)
        unclamped = tr.delta > config.ln_epsilon
        if not unclamped.all():
            std_term = np.where(unclamped, std_term, 0.0)
        dnrm -= _row_mean(dnrm, out.get("mean"))
        dnrm -= std_term
        dnrm /= tr.delta
        dc += dnrm
    dc += dg_c
    return dc, relu


def _branch_backward(dz: np.ndarray, w_head: np.ndarray, anchor: np.ndarray | None,
                     x_out: np.ndarray, layers: list[CrossLayerParams],
                     grads_layers: list[CrossLayerParams], traces: list[LayerTrace],
                     config: ModelConfig, ws: BranchWorkspace):
    """Reverse one branch from its head's ``dz`` and weight, into ``ws``.
    ``anchor`` is as in ``_branch_forward``, ``x_out`` the branch output.
    Accumulates the layers' parameter gradients and returns (gradient at x1
    through the first layer's input, the anchor gradient of each lcn layer,
    last layer first). The ecn anchor is the layer input, so its gradient
    joins dx. Each layer's output is spent once the backward has passed the
    layer above (the heads, for the last): it takes the layer's dgate, the
    rebuilt gate, then the anchor term, which an lcn output keeps for the dx1
    sum and an ecn output swaps for dc @ W; the lcn's dc @ W takes the scratch
    pair as (n, D). A branch without layers takes only dx."""
    dx = np.outer(dz, w_head, out=ws.take("dx", (len(dz), len(w_head))))
    if not layers:
        return dx, []
    lcn_product = None if anchor is None else ws.take("scratch", dx.shape)
    out = ws.backward_views(*dx.shape, config.mask_mode)
    anchor_terms = []
    for layer, gl, tr in zip(reversed(layers), reversed(grads_layers), reversed(traces)):
        dgate = _dropout(np.multiply(dx, tr.x_in if anchor is None else anchor, out=x_out),
                         tr.keep, config.dropout_rate)
        dc, relu = _mask_backward(dgate, tr, layer, config, gl, out)
        gl.w += np.matmul(dc.T, tr.x_in, out=out.get("dw"))
        gl.b += dc.sum(axis=0)
        # dgate is spent: its buffer takes the gate, rebuilt via nrm's, then the anchor term
        gate = _gate(tr.c, _masked(tr.c, relu, config.mask_mode, out.get("nrm")),
                     tr.keep, config.dropout_rate, dgate)
        if anchor is None:
            dx += np.multiply(dx, gate, out=gate)
        else:
            anchor_terms.append(np.multiply(dx, gate, out=gate))
        x_out = tr.x_in
        dx += np.matmul(dc, layer.w, out=dgate if anchor is None else lcn_product)
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
    branch finishes first. dx1 goes to the touched ``table`` rows of the
    trace's ids as one sparse gradient. The gradients and the branches'
    temporaries live in the workspace the forward ran in (``trace.workspace``):
    a training run's holds them until its next backward, ``FRESH`` makes them
    new. The backward spends the trace: each layer output of both branches
    takes gradient temporaries (``_branch_backward``), and a second backward
    raises ``ValueError``.
    """
    if trace is None or trace.spent:
        raise ValueError("backward requires a training-mode forward trace, not a spent one")
    trace.spent = True
    ecn_ws, lcn_ws = trace.workspace
    grads = zero_gradients(params, ecn_ws.take("grads", params.dense.shape))
    heads = params.heads

    # the loss gradients may be float64: dz takes the params' dtype, and so every product
    dz_deep, dz_shallow = ((dy * y * (1.0 - y)).astype(params.dtype, copy=False) for dy, y in
                           ((dy_deep, trace.y_deep), (dy_shallow, trace.y_shallow)))

    grads.heads.w_deep += trace.x_ecn.T @ dz_deep
    grads.heads.b_deep += dz_deep.sum()
    grads.heads.w_shallow += trace.x_lcn.T @ dz_shallow
    grads.heads.b_shallow += dz_shallow.sum()

    (dx_ecn, _), (dx_lcn, lcn_anchor_terms) = _both_branches(
        lambda: _branch_backward(dz_deep, heads.w_deep, None, trace.x_ecn, params.ecn_layers,
                                 grads.ecn_layers, trace.ecn, config, ecn_ws),
        lambda: _branch_backward(dz_shallow, heads.w_shallow, trace.x1, trace.x_lcn,
                                 params.lcn_layers, grads.lcn_layers, trace.lcn, config, lcn_ws),
        _parallel(trace.x1.size))
    # left to right: the ecn input gradient, each lcn anchor term, the lcn input gradient
    dx1 = dx_ecn
    for term in lcn_anchor_terms:
        dx1 += term
    dx1 += dx_lcn

    # scatter dx1 into the touched table rows: each entry gets the bin of its row
    # and column, and one bincount adds a bin's entries in batch order, from 0.0,
    # as np.add.at does: the same bits. The touched rows are sorted in a buffer
    # (np.unique's hash path took 4x the memory) and searchsorted finds the bins
    if trace.ids is not None:
        d, (n, f) = config.d, trace.ids.shape
        table_rows = trace.ids + params.offsets
        rows = np.positive(table_rows, out=lcn_ws.take("rows", (n, f), np.int64)).ravel()
        rows.sort()
        first = np.ones(n * f, bool)
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        rows = rows[first]
        # the lcn's dx is spent, summed into dx1: a float64 one holds the bins, seen as x1
        # is; a float32 one is half their size, and they take a buffer of their own
        dx = lcn_ws.take("dx", (n, 2, f, d // 2))
        bins = dx.view(np.int64) if dx.itemsize == 8 else lcn_ws.take("bins", dx.shape, np.int64)
        np.add((np.searchsorted(rows, table_rows) * d)[:, None, :, None],
               np.arange(d).reshape(2, 1, d // 2), out=bins)
        sums = np.bincount(bins.ravel(), weights=dx1.ravel(), minlength=rows.size * d)
        grads.embeddings = rows, sums.reshape(rows.size, d).astype(params.dtype, copy=False)
    return grads


def param_count(config: ModelConfig, sizes: list[int]) -> dict:
    """Closed-form parameter accounting.

    Per cross layer: D^2/2 + D/2 for (W, b) plus D for the layernorm gain and
    bias. Heads contribute 2(D + 1); embeddings sum d * s_i. The non-embedding
    total therefore scales with the leading term D^2 * depth / 2 per branch.
    """
    D = config.d * len(sizes)
    heads = dense_size(D, 0, 0)
    per_layer = dense_size(D, 1, 0) - heads
    lcn = per_layer * config.lcn_depth
    ecn = per_layer * config.ecn_depth
    return {
        "embedding": config.d * int(sum(sizes)),
        "per_layer": per_layer,
        "lcn_cross": lcn,
        "ecn_cross": ecn,
        "heads": heads,
        "non_embedding_total": lcn + ecn + heads,
    }


def field_importance(params: ModelParams, config: ModelConfig, batch,
                     layer_index: int, branch: str):
    """Field-wise interpretability views of one cross layer, from an
    inference forward of an encoded batch.

    Returns (cross_strengths, mask_sparsity, pair_matrix):
      cross_strengths[i]  batch-mean euclidean norm of field i's segment of c;
      mask_sparsity[i]    zero fraction of field i's segment of the masked view;
      pair_matrix[i][j]   frobenius norm of the (d/2, d) weight block mapping
                          field j's input coordinates to field i's cross rows.
    """
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    layers = params.ecn_layers if branch == "ecn" else params.lcn_layers
    if not (0 <= layer_index < len(layers)):
        raise ValueError(
            f"layer index {layer_index} out of range for branch {branch!r} "
            f"with depth {len(layers)}"
        )
    if len(batch.ids) == 0:
        raise ValueError("field importance needs at least one row; the batch has none")
    # the training forward at dropout rate 0: inference, with its trace
    trace = forward(batch, params, replace(config, dropout_rate=0.0), training=True).trace
    tr = (trace.ecn if branch == "ecn" else trace.lcn)[layer_index]

    f, half, n = params.num_fields, config.d // 2, len(tr.c)
    # each field's n norms made contiguous, so each mean sums as the one field's would
    cross_strengths = np.sqrt((tr.c.reshape(n, f, half) ** 2).sum(axis=2)).T.copy().mean(axis=1)
    layer = layers[layer_index]
    masked, _ = self_mask(tr.c, layer.gain, layer.beta, config.mask_mode, config.ln_epsilon)
    mask_sparsity = (masked.reshape(n, f, half) == 0.0).mean(axis=(0, 2))
    # w's (D/2, D) as (field i, row, view, field j, col): block (i, j) is rows i, columns j
    w = layer.w.reshape(f, half, 2, f, half).transpose(0, 3, 1, 2, 4)
    pair = np.sqrt((w.reshape(f, f, -1) ** 2).sum(axis=-1))
    return cross_strengths, mask_sparsity, pair
