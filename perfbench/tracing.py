"""Spans around calls into fcn_ctr, put in place from outside the package.

The benchmark does not edit ``src/``. While a traced operation runs it
replaces module attributes with timing wrappers, and it puts every original
back afterwards. A name is patched where its caller looks it up: a function
imported with ``from fcn_ctr.model import forward`` is a separate global of
the importing module, so one function can have several patch sites that share
one span name (``training.forward``, ``verification.forward`` and
``model.forward`` all record ``model.forward.*``).

Spans are kept in memory as ``(op, span_id, parent_id, name, start, end)``
tuples and written out once, when the run ends. Self time is a span's
duration minus the time its child spans cover; the time a wrapper spends on
its own bookkeeping after the call is also taken out of its parent's self
time.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict

import numpy as np

# Raw spans kept per run; aggregates keep counting past the cap.
SPAN_CAP = 200_000


class Tracer:
    """Span recorder and the patch table that feeds it."""

    def __init__(self, fcn):
        self.fcn = fcn
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.step_s: list[float] = []  # every training.train_step duration
        self.op = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._ecn_layers: tuple = ()
        self._saved: list[tuple] = []
        self._sites = self._patch_sites()

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, label=None, before=None, after=None):
        """Return a wrapper of ``fn`` that records one span per call.

        ``label(args, kwargs)`` picks the span name per call; ``before`` and
        ``after(args, kwargs, result)`` read arguments and results for counts.
        """
        stack = self._stack

        def traced(*args, **kwargs):
            span_name = name if label is None else label(args, kwargs)
            if before is not None:
                before(args, kwargs)
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            duration = t1 - t0
            self.self_s[span_name] += duration - frame[1]
            self.calls[span_name] += 1
            if span_name == "training.train_step":
                self.step_s.append(duration)
            if stack:
                stack[-1][1] += time.perf_counter() - t0
            if len(self.spans) < SPAN_CAP:
                self.spans.append((self.op, span_id, parent, span_name, t0, t1))
            else:
                self.dropped += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _forward_label(self, args, kwargs):
        training = kwargs.get("training", args[3] if len(args) > 3 else False)
        return "model.forward.train" if training else "model.forward.infer"

    def _forward_enter(self, args, kwargs):
        params = args[1] if len(args) > 1 else kwargs["params"]
        self._ecn_layers = tuple(params.ecn_layers)

    def _cross_label(self, args, kwargs):
        # The first LCN layer is called with anchor is x_in (both are x1), so
        # the anchor test alone cannot tell it from an ECN layer; the layer's
        # identity within the forward's params can.
        layer = args[2]
        ecn = any(layer is l for l in self._ecn_layers)
        return "model.cross_layer_forward." + ("ecn" if ecn else "lcn")

    def _mask_counts(self, args, kwargs, result):
        masked = result[0]
        self.counts["self_mask.zeros"] += int(np.count_nonzero(masked == 0.0))
        self.counts["self_mask.entries"] += masked.size

    def _encode_rows(self, args, kwargs, result):
        self.counts["encode.rows"] += result.n

    def _ckpt_bytes(self, args, kwargs, result):
        self.counts["checkpoint.bytes"] = os.path.getsize(args[0])

    def _audit_failed(self, args, kwargs, result):
        if not result < self.fcn.verification.GRAD_TOLERANCE:
            self.counts["audit_config.failed"] += 1

    def _patch_sites(self):
        f = self.fcn
        forward = dict(label=self._forward_label, before=self._forward_enter)
        return [
            (f.features, "build_schema", "features.build_schema", {}),
            (f.features, "encode", "features.encode", dict(after=self._encode_rows)),
            (f.model, "forward", None, forward),
            (f.training, "forward", None, forward),
            (f.verification, "forward", None, forward),
            (f.model, "embed_reshape", "model.embed_reshape", {}),
            (f.model, "cross_layer_forward", None, dict(label=self._cross_label)),
            (f.model, "self_mask", "model.self_mask", dict(after=self._mask_counts)),
            (f.training, "backward", "model.backward", {}),
            (f.verification, "backward", "model.backward", {}),
            (f.numerics.Rng, "random", "numerics.Rng.random", {}),
            (f.training, "tri_bce", "objective.tri_bce", {}),
            (f.verification, "tri_bce", "objective.tri_bce", {}),
            (f.training, "tri_bce_grads", "objective.tri_bce_grads", {}),
            (f.verification, "tri_bce_grads", "objective.tri_bce_grads", {}),
            (f.training, "train_step", "training.train_step", {}),
            (f.training, "adam_step", "training.adam_step", {}),
            (f.training, "evaluate", "training.evaluate", {}),
            (f.training, "predict_scores", "training.predict_scores", {}),
            (f.training, "rank_auc", "metrics.auc", {}),
            (f.metrics, "auc", "metrics.auc", {}),
            (f.checkpoint, "save_checkpoint", "checkpoint.save_checkpoint",
             dict(after=self._ckpt_bytes)),
            (f.checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", {}),
            (f.verification, "audit_config", "verification.audit_config",
             dict(after=self._audit_failed)),
            (f.verification, "finite_diff_grad", "numerics.finite_diff_grad", {}),
        ]

    # -- patching ---------------------------------------------------------

    def targets(self) -> list[tuple]:
        """(owner, attribute) of every patch site."""
        return [(owner, attr) for owner, attr, _, _ in self._sites]

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, hooks in self._sites:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, **hooks))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def write(self, path) -> None:
        """Write the kept spans as JSON lines, one span per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for op, span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                     "name": name, "start": t0, "end": t1}) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")


# Per-layer metrics: name -> (unit, better). The order is the order printed.
PER_LAYER = {
    "model.cross_layer_forward.ecn.self_s": ("s", "lower"),
    "model.cross_layer_forward.lcn.self_s": ("s", "lower"),
    "model.cross_layer_forward.calls": ("count", "higher"),
    "model.self_mask.self_s": ("s", "lower"),
    "model.self_mask.zero_frac": ("ratio", "higher"),
    "model.backward.self_s": ("s", "lower"),
    "model.backward.calls": ("count", "higher"),
    "model.embed_reshape.self_s": ("s", "lower"),
    "model.forward.train.self_s": ("s", "lower"),
    "model.forward.infer.self_s": ("s", "lower"),
    "model.forward.calls": ("count", "higher"),
    "numerics.Rng.random.self_s": ("s", "lower"),
    "numerics.Rng.random.calls": ("count", "higher"),
    "objective.tri_bce.self_s": ("s", "lower"),
    "objective.tri_bce_grads.self_s": ("s", "lower"),
    "training.train_step.ms_p50": ("ms", "lower"),
    "training.train_step.calls": ("count", "higher"),
    "training.adam_step.self_s": ("s", "lower"),
    "training.train.data_wait_s": ("s", "lower"),
    "training.evaluate.self_s": ("s", "lower"),
    "training.predict_scores.self_s": ("s", "lower"),
    "metrics.auc.self_s": ("s", "lower"),
    "features.encode.self_s": ("s", "lower"),
    "features.encode.rows": ("rows", "higher"),
    "features.build_schema.self_s": ("s", "lower"),
    "checkpoint.save_checkpoint.self_s": ("s", "lower"),
    "checkpoint.load_checkpoint.self_s": ("s", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
    "verification.audit_config.self_s": ("s", "lower"),
    "verification.audit_config.calls": ("count", "higher"),
    "verification.audit_config.failed": ("count", "lower"),
    "numerics.finite_diff_grad.self_s": ("s", "lower"),
    "tracing.overhead_frac": ("ratio", "lower"),
}


def per_layer_metrics(tracer: Tracer, overhead_frac: float, data_wait_s: float) -> dict:
    """Every PER_LAYER metric from one traced run; layers the workload never
    reached read 0.

    ``data_wait_s`` is the time the traced training epochs spent outside
    their step and evaluate calls (shuffling, batch gathering, bookkeeping),
    as the workload's own clocks measured it.
    """
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    steps = tracer.step_s
    entries = counts["self_mask.entries"]
    values = {
        "model.cross_layer_forward.ecn.self_s": s["model.cross_layer_forward.ecn"],
        "model.cross_layer_forward.lcn.self_s": s["model.cross_layer_forward.lcn"],
        "model.cross_layer_forward.calls": calls["model.cross_layer_forward.ecn"]
        + calls["model.cross_layer_forward.lcn"],
        "model.self_mask.self_s": s["model.self_mask"],
        "model.self_mask.zero_frac": counts["self_mask.zeros"] / entries if entries else 0.0,
        "model.backward.self_s": s["model.backward"],
        "model.backward.calls": calls["model.backward"],
        "model.embed_reshape.self_s": s["model.embed_reshape"],
        "model.forward.train.self_s": s["model.forward.train"],
        "model.forward.infer.self_s": s["model.forward.infer"],
        "model.forward.calls": calls["model.forward.train"] + calls["model.forward.infer"],
        "numerics.Rng.random.self_s": s["numerics.Rng.random"],
        "numerics.Rng.random.calls": calls["numerics.Rng.random"],
        "objective.tri_bce.self_s": s["objective.tri_bce"],
        "objective.tri_bce_grads.self_s": s["objective.tri_bce_grads"],
        "training.train_step.ms_p50": statistics.median(steps) * 1e3 if steps else 0.0,
        "training.train_step.calls": calls["training.train_step"],
        "training.adam_step.self_s": s["training.adam_step"],
        "training.train.data_wait_s": data_wait_s,
        "training.evaluate.self_s": s["training.evaluate"],
        "training.predict_scores.self_s": s["training.predict_scores"],
        "metrics.auc.self_s": s["metrics.auc"],
        "features.encode.self_s": s["features.encode"],
        "features.encode.rows": counts["encode.rows"],
        "features.build_schema.self_s": s["features.build_schema"],
        "checkpoint.save_checkpoint.self_s": s["checkpoint.save_checkpoint"],
        "checkpoint.load_checkpoint.self_s": s["checkpoint.load_checkpoint"],
        "checkpoint.bytes": counts["checkpoint.bytes"],
        "verification.audit_config.self_s": s["verification.audit_config"],
        "verification.audit_config.calls": calls["verification.audit_config"],
        "verification.audit_config.failed": counts["audit_config.failed"],
        "numerics.finite_diff_grad.self_s": s["numerics.finite_diff_grad"],
        "tracing.overhead_frac": overhead_frac,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}
