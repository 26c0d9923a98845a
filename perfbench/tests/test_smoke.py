"""Smoke test of the benchmark at tiny input sizes.

Run from the repository root:

    python -m pytest perfbench/tests -q

It checks that every metric BENCHMARK.json names is emitted with its unit,
that the traced run reaches the layers each workload exists to exercise, and
that every attribute the tracer patches is the original object again
afterwards. Correctness of the full-size outputs is the benchmark's own job.
"""

import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load("perfbench_run", os.path.join(BENCH, "run.py"))
from tracing import Tracer  # noqa: E402  (run.py put perfbench/ on sys.path)
from workloads import TINY, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

FCN = bench.import_package()
SECONDS = 0.5

# The workload's own named metrics, printed on the line before the result.
DETAIL = {
    "train": ["train_rows_per_s", "time_to_auc_s", "train_val_auc"],
    "online": ["online_latency_us_p50", "online_latency_us_p99", "online_requests_per_s"],
    "verify": ["verify_s"],
}
COMMON_DETAIL = ["setup_s_unscaled", "peak_rss_mb", "failed_frac"]

# Layers each workload must reach in a traced run.
REACHED = {
    "train": ["model.cross_layer_forward.ecn.self_s", "model.cross_layer_forward.lcn.self_s",
              "model.self_mask.zero_frac", "model.backward.calls", "numerics.Rng.random.calls",
              "objective.tri_bce.self_s", "objective.tri_bce_grads.self_s",
              "training.train_step.ms_p50", "training.adam_step.self_s",
              "training.evaluate.self_s", "training.predict_scores.self_s",
              "metrics.auc.self_s", "training.train.data_wait_s",
              "features.build_schema.self_s"],
    "online": ["features.encode.rows", "model.embed_reshape.self_s",
               "model.forward.infer.self_s", "model.cross_layer_forward.calls",
               "checkpoint.save_checkpoint.self_s", "checkpoint.load_checkpoint.self_s",
               "checkpoint.bytes"],
    "verify": ["verification.audit_config.calls", "numerics.finite_diff_grad.self_s",
               "model.backward.calls", "model.forward.train.self_s"],
}


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_named_with_units(workload):
    result, extra = bench.run_workload(FCN, workload, 3, SECONDS, False, TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units(SPEC["end_to_end"])
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, name
    for name in DETAIL[workload] + COMMON_DETAIL:
        assert name in extra["detail"], name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_layers_and_restores_originals(workload):
    sites = Tracer(FCN).targets()
    before = [owner.__dict__[attr] for owner, attr in sites]
    result, _ = bench.run_workload(FCN, workload, 3, SECONDS, True, TINY)
    for (owner, attr), original in zip(sites, before):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} left patched"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units(SPEC["per_layer"])
    for name in REACHED[workload]:
        assert result["metrics"][name]["value"] > 0, name
    assert result["metrics"]["verification.audit_config.failed"]["value"] == 0


def test_online_counts_a_raising_request_once(monkeypatch):
    forward, calls = FCN.model.forward, []

    def first_call_raises(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("injected")
        return forward(*args, **kwargs)

    monkeypatch.setattr(FCN.model, "forward", first_call_raises)
    result, extra = bench.run_workload(FCN, "online", 3, SECONDS, False, TINY)
    assert result["failed"] == 1
    assert all(extra["checks"].values()), extra["checks"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
