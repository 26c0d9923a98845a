"""The benchmark's three workloads: inputs made from a seed, set-up, the
measured closed loop, and the checks on the program's outputs.

Every call into the package goes through a module attribute
(``features.encode(...)``, never a name imported from it), so that the spans
of a traced run see it. Why each workload exists is in README.md.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from reference import EVERY_S, NOMINAL_PYTHON_MS, Reference
from tracing import Tracer

TARGET_AUC = 0.90
TRAIN_LR = 0.01            # the default 0.001 stays near AUC 0.5 for 6+ epochs
TRAIN_CAP_S = 120.0        # give up on reaching TARGET_AUC after this long
ONLINE_TOLERANCE = 1e-12   # one-row vs batched forwards differ by up to 2.2e-16
AUC_ORACLE_TOLERANCE = 1e-12
NUMERIC_FIELDS = 3
CATEGORICAL_FIELDS = 5
ZIPF_A = 1.05              # skew of the categorical tokens
VERIFY_FIELDS = 2


@dataclass(frozen=True)
class Sizes:
    """Input sizes. ``FULL`` is the benchmark; ``TINY`` is for the smoke test."""

    train_rows: int = 50_000
    train_max_epochs: int = 20
    determinism_rows: int = 8192     # two full 4096-row steps, trained twice
    online_records: int = 65_536
    online_check_rows: int = 4096
    oracle_rows: int = 4000
    verify_d: int = 4
    verify_mask: str = "paper"
    setup_repeats: int = 9


FULL = Sizes()
TINY = Sizes(train_rows=2000, train_max_epochs=2, determinism_rows=256,
             online_records=600, online_check_rows=50, oracle_rows=300,
             verify_d=2, verify_mask="identity", setup_repeats=2)


class _Enough(Exception):
    """Raised from the epoch log to end a training run that has done its work."""


class Run:
    """State of one benchmark run: timings, counts, checks and the tracer.

    In a traced run, rounds of ops alternate between traced and untraced, so
    the tracing overhead is measured on interleaved ops of the same run.
    """

    def __init__(self, fcn, seed: int, seconds: float, trace: bool, sizes: Sizes,
                 workdir: str, references: tuple[str, ...]):
        self.fcn = fcn
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.workdir = workdir
        self.tracer = Tracer(fcn) if trace else None
        self.tracing = False            # span wrappers in place now
        self.setup_s: list[float] = []
        self.setup_scaled_s: list[float] = []
        self.ops: list[tuple] = []      # (kind, seconds, traced)
        self.round_size = 1             # ops per round
        self.data_wait_s = 0.0          # traced epoch time outside step and evaluate
        self.items = 0
        self.measured_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.detail: dict[str, float] = {}
        self.reference = Reference(references)
        self._build = None
        self._start = 0.0
        self._excluded_s = 0.0          # set-up and reference time inside the loop
        self._last_ref = 0.0

    def switch(self, on: bool) -> None:
        """Put the span wrappers in place (a new traced op) or take them out."""
        if self.tracer is None:
            return
        self.tracing = on
        if on:
            self.tracer.op += 1
            self.tracer.install()
        else:
            self.tracer.uninstall()

    @contextmanager
    def traced(self, on: bool = True):
        self.switch(on)
        try:
            yield
        finally:
            self.switch(False)

    def next_op_traced(self) -> bool:
        """In a traced run, every second round of ops is traced."""
        return self.tracer is not None and (len(self.ops) // self.round_size) % 2 == 1

    def record_op(self, seconds: float, traced: bool, kind=None) -> None:
        self.ops.append((kind, seconds, traced))

    @contextmanager
    def op(self, kind=None):
        """Time one operation of the given kind."""
        on = self.next_op_traced()
        with self.traced(on):
            t0 = time.perf_counter()
            yield
            t1 = time.perf_counter()
        self.record_op(t1 - t0, on, kind)

    def _by_kind(self, traced: bool) -> dict:
        by_kind: dict = {}
        for kind, seconds, t in self.ops:
            if t == traced:
                by_kind.setdefault(kind, []).append(seconds)
        return by_kind

    def round_s(self, q: float = 10.0) -> float:
        """One round of work (an epoch, a request, a pass over the audit
        slice) from the untraced ops: per kind of op, its q-th
        percentile duration times the number of such ops per round.

        A low percentile keeps the figure steady on a shared machine, whose
        speed drops for spells of a second or more; a change to the program
        moves every percentile of its ops.
        """
        by_kind = self._by_kind(False)
        rounds = sum(map(len, by_kind.values())) // self.round_size
        return sum(len(v) / rounds * float(np.percentile(v, q)) for v in by_kind.values())

    def overhead_frac(self) -> float:
        """Traced over untraced time, from per-kind median op durations."""
        traced, untraced = self._by_kind(True), self._by_kind(False)
        kinds = traced.keys() & untraced.keys()
        if not kinds:
            return 0.0
        return (sum(statistics.median(traced[k]) for k in kinds)
                / sum(statistics.median(untraced[k]) for k in kinds) - 1.0)

    def _timed_build(self):
        """One set-up, timed, and scaled by the python reference timed just
        before and just after it (see reference.py)."""
        before = self.reference.python_ms()
        with self.traced():
            t0 = time.perf_counter()
            out = self._build()
            seconds = time.perf_counter() - t0
        after = self.reference.python_ms()
        self.setup_s.append(seconds)
        self.setup_scaled_s.append(seconds * 2 * NOMINAL_PYTHON_MS / (before + after))
        return out

    def setup(self, build):
        """Set up once and return the result. The other repeats run at even
        intervals through the measured loop (see ``between_ops``), so that
        their median does not rest on one spell of machine speed. Set-up is
        traced in a traced run, so layers used only there still report."""
        self._build = build
        return self._timed_build()

    def _finish_setups(self) -> None:
        while len(self.setup_s) < self.sizes.setup_repeats:
            self._timed_build()

    @contextmanager
    def measuring(self):
        """The measured loop. ``elapsed()`` and ``measured_s`` leave out the
        set-up repeats and reference runs that ``between_ops()`` does."""
        self._start = time.perf_counter()
        try:
            yield
        finally:
            self.measured_s = self.elapsed()
            self._finish_setups()

    def elapsed(self) -> float:
        return time.perf_counter() - self._start - self._excluded_s

    def between_ops(self) -> None:
        """Run a set-up repeat and a reference run if they are due."""
        t0 = time.perf_counter()
        done, total = len(self.setup_s), self.sizes.setup_repeats
        if done < total and self.elapsed() >= self.seconds * done / total:
            self._timed_build()
        if t0 - self._last_ref >= EVERY_S:
            self.reference.run()
            self._last_ref = time.perf_counter()
        self._excluded_s += time.perf_counter() - t0

    def check(self, name: str, ok) -> bool:
        ok = bool(ok)
        self.checks[name] = ok
        self.count(1, 0 if ok else 1)
        return ok

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def error(self, what: str) -> None:
        print(f"{what} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _readme_records(fcn, seed: int, rows: int):
    """The README order-4 workload (8 fields, cardinality 10), split 80/10/10
    the way ``fcn-ctr synth`` splits it."""
    Rng, derive_seed = fcn.numerics.Rng, fcn.numerics.derive_seed
    records, _ = fcn.features.synth_interaction_data(
        8, 10, 4, rows, Rng(derive_seed(seed, "synth")))
    perm = Rng(derive_seed(seed, "split")).permutation(rows)
    hi_train, hi_valid = int(round(0.8 * rows)), int(round(0.9 * rows))
    return ([records[i] for i in perm[:hi_train]],
            [records[i] for i in perm[hi_train:hi_valid]])


def _params_sha(fcn, run: Run, params, config, schema, name: str) -> str:
    path = run.path(name)
    fcn.checkpoint.save_checkpoint(path, params, config, schema)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    os.remove(path)
    return digest


@contextmanager
def _epoch_clock(training, run: Run):
    """Time each train step and each epoch's evaluation, in traced and
    untraced epochs alike. A step's kind is its batch size, so the ragged
    last batch of an epoch is its own kind. The span wrappers of a traced
    epoch go around these clocks, so spans and clocks see the same calls;
    set-up repeats and reference runs therefore happen only in untraced
    epochs, where no span is open."""
    originals = {name: training.__dict__[name] for name in ("train_step", "evaluate")}

    def clock(fn, kind):
        def clocked(*args, **kwargs):
            if not run.tracing:
                run.between_ops()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                run.record_op(time.perf_counter() - t0, run.tracing, kind(args))
        return clocked

    training.train_step = clock(originals["train_step"], lambda args: f"step{args[0].n}")
    training.evaluate = clock(originals["evaluate"], lambda args: "evaluate")
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(training, name, fn)


def run_train(fcn, run: Run) -> None:
    features, training, model = fcn.features, fcn.training, fcn.model
    train_records, valid_records = _readme_records(fcn, run.seed, run.sizes.train_rows)
    specs = [features.FieldSpec(f"f{j}") for j in range(8)]

    def build():
        schema = features.build_schema(train_records, specs)
        return (features.encode(train_records, schema),
                features.encode(valid_records, schema), schema)

    train_set, valid_set, schema = run.setup(build)
    model_config = model.ModelConfig(seed=run.seed)
    max_epochs = run.sizes.train_max_epochs
    train_config = training.TrainConfig(learning_rate=TRAIN_LR,
                                        max_epochs=max_epochs, patience=max_epochs)
    steps_per_epoch = -(-train_set.n // train_config.batch_size)
    run.round_size = steps_per_epoch + 1      # the steps and one evaluate

    epochs: list[tuple[int, float, float]] = []   # (epoch, val_auc, elapsed s)
    mark, first_op = 0.0, 0                       # the current epoch's start

    def log(line: str) -> None:
        # Called at the end of each epoch; tracing is switched per epoch.
        nonlocal mark, first_op
        now = time.perf_counter()
        fields = dict(kv.split("=", 1) for kv in line.split())
        epochs.append((int(fields["epoch"]), float(fields["val_auc"]), run.elapsed()))
        if run.tracing:
            run.data_wait_s += now - mark - sum(s for _, s, _ in run.ops[first_op:])
        run.switch(False)
        crossed = any(auc >= TARGET_AUC for _, auc, _ in epochs)
        if (crossed and run.elapsed() >= run.seconds) or run.elapsed() >= TRAIN_CAP_S:
            raise _Enough
        run.switch(run.next_op_traced())
        mark, first_op = time.perf_counter(), len(run.ops)

    raised = False
    with _epoch_clock(training, run), run.measuring():
        mark = time.perf_counter()
        try:
            training.train(train_set, valid_set, model_config, train_config, log=log)
        except _Enough:
            pass
        except Exception:
            raised = True
            run.error("training.train")
        finally:
            run.switch(False)

    run.items = train_set.n * len(epochs)
    run.count(steps_per_epoch * len(epochs) + raised, steps_per_epoch * raised)

    crossing = next(((e, t) for e, auc, t in epochs if auc >= TARGET_AUC), None)
    run.check("train.val_auc_reaches_target", crossing is not None)
    best_auc = max((auc for _, auc, _ in epochs), default=0.0)
    run.detail.update({
        "train_rows_per_s": run.items / run.measured_s,
        "train_val_auc": best_auc,
        "time_to_auc_s": crossing[1] if crossing else float("nan"),
        "epochs_to_auc": crossing[0] if crossing else float("nan"),
        "epochs": len(epochs),
    })

    # Determinism: the same seed and rows train to the same checkpoint bytes.
    rows = min(run.sizes.determinism_rows, train_set.n)
    prefix = train_set.rows(slice(0, rows))
    short = training.TrainConfig(learning_rate=TRAIN_LR, max_epochs=1)
    shas = []
    for k in range(2):
        params, _ = training.train(prefix, valid_set, model_config, short, log=lambda _: None)
        shas.append(_params_sha(fcn, run, params, model_config, schema, f"determinism{k}.ckpt"))
    run.check("train.checkpoint_sha_repeats", shas[0] == shas[1])
    run.detail["determinism_sha256"] = shas[0]


# ---------------------------------------------------------------------------
# online
# ---------------------------------------------------------------------------


def criteo_records(seed: int, n: int) -> list[dict]:
    """Raw records shaped like Criteo's columns: heavy-tailed integer counts
    (``I*``, 10% missing) and Zipf-skewed hashed categoricals (``C*``), with a
    25% positive label. Drawn with numpy's own generator, so the inputs do not
    depend on the package under test."""
    g = np.random.default_rng([seed, 0x5C0E])
    columns = {}
    for j in range(NUMERIC_FIELDS):
        values = np.floor(g.lognormal(1.0 + j, 1.5 + 0.5 * j, n)).astype(np.int64)
        text = values.astype(str).astype(object)
        text[g.random(n) < 0.1] = ""
        columns[f"I{j + 1}"] = text
    for j in range(CATEGORICAL_FIELDS):
        ranks = g.zipf(ZIPF_A, n) % (1 << 20)
        hashed = (ranks * 2654435761 + (j + 1) * 0x9E3779B9) % (1 << 32)
        columns[f"C{j + 1}"] = np.char.mod("%08x", hashed).astype(object)
    columns["label"] = (g.random(n) < 0.25).astype(np.int64).astype(str).astype(object)
    names = list(columns)
    return [dict(zip(names, row)) for row in zip(*columns.values())]


def _scoring_setup(fcn, run: Run, records: list[dict]):
    """Schema from the records, a model checkpoint, and its round trip."""
    features, model, checkpoint = fcn.features, fcn.model, fcn.checkpoint
    specs = ([features.FieldSpec(f"I{j + 1}", "numeric") for j in range(NUMERIC_FIELDS)]
             + [features.FieldSpec(f"C{j + 1}") for j in range(CATEGORICAL_FIELDS)])
    path = run.path("online.ckpt")

    def build():
        schema = features.build_schema(records, specs)
        config = model.ModelConfig(seed=run.seed)
        params = model.init_model_params(config, schema.sizes,
                                         fcn.numerics.derive_seed(run.seed, "init"))
        checkpoint.save_checkpoint(path, params, config, schema)
        return checkpoint.load_checkpoint(path)

    params, config, schema = run.setup(build)
    os.remove(path)
    run.detail["embedding_rows"] = int(sum(schema.sizes))
    return params, config, schema


def run_online(fcn, run: Run) -> None:
    features, model, training, metrics = fcn.features, fcn.model, fcn.training, fcn.metrics
    records = criteo_records(run.seed, run.sizes.online_records)
    params, config, schema = _scoring_setup(fcn, run, records)
    requests = [{k: v for k, v in rec.items() if k != "label"} for rec in records]
    checked = min(run.sizes.online_check_rows, len(requests))
    served = np.full(checked, np.nan)   # stays NaN where a request raised

    i = 0
    with run.measuring():
        while True:
            request = requests[i % len(requests)]
            try:
                with run.op():
                    batch = features.encode([request], schema, require_labels=False)
                    y = float(model.forward(batch, params, config, training=False).y[0])
            except Exception:
                run.error("online request")
                run.failed += 1
            else:
                if i < checked:
                    served[i] = y
            i += 1
            run.between_ops()
            if run.elapsed() >= run.seconds:
                break
    run.attempted += i
    run.items = i

    # The same records, labels included, scored as one batch through the
    # offline path: the served scores must match it, and the batched scores
    # must fuse exactly and rank as the pairwise oracle does.
    n = min(i, checked)
    batch = features.encode(records[:n], schema)
    y, y_deep, y_shallow = training.predict_scores(batch, params, config, 4096)
    done = ~np.isnan(served[:n])
    gaps = np.abs(served[:n][done] - y[done])
    bad = int(np.count_nonzero(~(gaps <= ONLINE_TOLERANCE)))
    run.failed += bad
    run.check("online.matches_batched_scores", done.any() and bad == 0)
    run.check("online.batched_scores_fuse",
              np.isfinite(y).all() and np.array_equal(y, 0.5 * (y_deep + y_shallow)))
    sub = slice(0, run.sizes.oracle_rows)
    gap = abs(metrics.auc(y[sub], batch.labels[sub])
              - fcn.verification.pairwise_auc_oracle(y[sub], batch.labels[sub]))
    run.check("online.auc_matches_pairwise_oracle", gap <= AUC_ORACLE_TOLERANCE)
    run.detail["online_max_abs_diff"] = float(gaps.max(initial=0.0))

    untraced_us = np.array(run._by_kind(False)[None]) * 1e6
    p99 = float(np.percentile(untraced_us, 99))
    run.detail.update({
        "online_latency_us_p50": float(np.percentile(untraced_us, 50)),
        "online_latency_us_p99": p99,
        "online_requests_beyond_p99": int(np.count_nonzero(untraced_us > p99)),
        "online_requests_per_s": i / run.measured_s,
    })


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def verify_grid(fcn, sizes: Sizes) -> list[tuple]:
    """The audited slice of ``default_grad_grid()``: one field count, one
    embedding width and one mask mode, every pair of branch depths."""
    return [g for g in fcn.verification.default_grad_grid()
            if g[0] == VERIFY_FIELDS and g[1] == sizes.verify_d
            and g[4] == sizes.verify_mask]


def run_verify(fcn, run: Run) -> None:
    verification = fcn.verification
    seed = fcn.numerics.derive_seed(run.seed, "verify") % (1 << 31)

    def build():
        grid = verify_grid(fcn, run.sizes)
        f, d, lcn, ecn, mask = grid[-1]
        config = fcn.model.ModelConfig(d=d, lcn_depth=lcn, ecn_depth=ecn,
                                       mask_mode=mask, dropout_rate=0.0, seed=0)
        verification.audit_config(config, f, seed)   # warm-up, deepest config
        return grid

    grid = run.setup(build)
    # One op audits one config; a pass is one round over the slice, and the
    # run ends on a pass boundary so every config has as many samples.
    run.round_size = len(grid)
    with run.measuring():
        while True:
            k = len(run.ops) % len(grid)
            try:
                with run.op(kind=k):
                    result = verification.grad_audit(grid=[grid[k]], seeds=(seed,))
            except Exception:
                run.error(f"grad audit of {grid[k]}")
                run.count(1, 1)
            else:
                run.count(1, 0 if result.passed else 1)
                run.items += 1
            run.between_ops()
            if k == len(grid) - 1 and run.elapsed() >= run.seconds:
                break
    run.detail.update({"verify_s": run.round_s(50), "audits_per_pass": len(grid),
                       "passes": len(run.ops) // len(grid)})


# Each workload and the round references that match its operations (see
# reference.py): 4096-row steps, elementwise work with some per-call
# overhead, by the stream passes and the short 2-row network; batch-1
# requests, all per-call overhead, by the short 2-row network alone; 2-row
# audits of tens of milliseconds by the long 2-row network.
WORKLOADS = {
    "train": (run_train, ("tiny", "stream")),
    "online": (run_online, ("tiny",)),
    "verify": (run_verify, ("tiny_long",)),
}
