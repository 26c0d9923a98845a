"""Smoke tests of the scripts under tools/, and the benchmark's hold on the package."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
TOOLS = os.path.join(ROOT, "tools")


def test_step_faults_prints_per_step_quantiles():
    proc = subprocess.run([sys.executable, os.path.join(TOOLS, "step_faults.py"),
                           "--rows", "64", "--steps", "2"],
                          capture_output=True, text=True, timeout=120, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "rows=64 depth=3+3 steps=2 (first is warm-up)"
    assert [line.split()[0] for line in lines[1:]] == ["minflt", "stime_ms", "step_ms",
                                                        "workspace_mib",
                                                        "workspace_mib_by_branch"]
    for line in lines[1:4]:
        p10, p50 = (float(part.split("=")[1]) for part in line.split()[1:])
        assert 0.0 <= p10 <= p50
    # a full README step runs in the reused workspace: it maps no fresh memory.
    # Up to 3 of the first steps after warm-up take settling faults from the
    # allocators, so the median is over 15 steps, well past them
    proc = subprocess.run([sys.executable, os.path.join(TOOLS, "step_faults.py"),
                           "--rows", "4096", "--steps", "16"],
                          capture_output=True, text=True, timeout=120, check=True)
    lines = proc.stdout.splitlines()
    minflt = lines[1].split()
    assert minflt[0] == "minflt" and minflt[2] == "p50=0.0", proc.stdout
    # dropout keeps one bool per gate entry, drawn through the output's buffer:
    # no float64 mask role; no layer keeps its gate, which the backward
    # rebuilds, nor its relu, which the backward recomputes; each branch's
    # dgate lives in its outputs, and its mask scratch is one pair of halves:
    # 68.7 MiB at this shape in float64 (72.7 with the lcn's dgate buffer, 84.7
    # with a relu per layer and the ecn's dgate, 108.7 with the gates, 129.7 with
    # masks); the tool runs float32 steps, as train does, which hold 40.2
    mib = {role: float(v) for role, v in (part.split("=") for part in lines[4].split()[1:])}
    total = mib.pop("total")
    roles = {name.split(".")[1] for name in mib}
    assert "uniforms" not in roles and "gate" not in roles and "keep" in roles, proc.stdout
    assert "ecn.dgate" not in mib and "lcn.dgate" not in mib, proc.stdout
    assert total <= 69.0, proc.stdout
    by_branch = {b: float(v) for b, v in (part.split("=") for part in lines[5].split()[1:])}
    assert abs(by_branch["ecn"] + by_branch["lcn"] - total) <= 0.1, proc.stdout


def test_claim_margin_prints_every_stream_and_seed():
    proc = subprocess.run([sys.executable, os.path.join(TOOLS, "claim_margin.py"),
                           "--rows", "2000", "--alts", "1"],
                          capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 * 6 + 1 and lines[-1].startswith("seconds="), proc.stdout
    for block, stream in enumerate(("dropout", "dropout-alt1")):
        rows = [dict(kv.split("=", 1) for kv in line.split()) for line in lines[6 * block:][:5]]
        assert [r["stream"] for r in rows] == [stream] * 5
        assert [int(r["seed"]) for r in rows] == [1, 2, 3, 4, 5]
        for r in rows:
            for key in ("tri_logloss", "plain_logloss", "tri_auc", "plain_auc", "w_D", "w_S"):
                assert 0.0 <= float(r[key]) <= 1.0, (key, r)
            assert float(r["gap"]) == round(float(r["plain_logloss"])
                                            - float(r["tri_logloss"]), 4)
        # the loglosses print at 6 places, the wins count at full precision
        summary = dict(kv.split("=", 1) for kv in lines[6 * block + 5].split(" ", 2))
        wins = int(summary["tri_wins"].removesuffix("/5"))
        assert summary["stream"] == stream
        assert (sum(float(r["tri_logloss"]) < float(r["plain_logloss"]) for r in rows) <= wins
                <= sum(float(r["tri_logloss"]) <= float(r["plain_logloss"]) for r in rows))
        assert summary["gaps"] == "[" + ", ".join(r["gap"] for r in rows) + "]"


def test_benchmark_patch_sites_are_module_attributes():
    # perfbench/tracing.py swaps these attributes for timing wrappers during
    # a traced run; one that moved or went would break every traced run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = ("checkpoint", "features", "metrics", "model", "numerics", "objective",
             "training", "verification")
    fcn = types.SimpleNamespace(**{n: importlib.import_module(f"fcn_ctr.{n}") for n in names})
    targets = tracing.Tracer(fcn).targets()
    assert targets
    for owner, attr in targets:
        assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr}"


def test_golden_fixtures_regenerate_byte_identical(tmp_path):
    # any change to the training, checkpoint or inference bits shows here
    spec = importlib.util.spec_from_file_location(
        "make_golden", os.path.join(TOOLS, "make_golden.py"))
    make_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_golden)
    make_golden.main(str(tmp_path))
    golden = os.path.join(ROOT, "tests", "golden")
    names = ("inputs.csv", "model.ckpt", "model.ckpt.sha256", "predictions.csv")
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(golden)) == list(names)
    for name in names:
        with open(tmp_path / name, "rb") as new, open(os.path.join(golden, name), "rb") as old:
            assert new.read() == old.read(), name


def test_bench_pairs_appends_an_entry(tmp_path):
    # one A/A pair of the cheapest workload: HEAD, built from git archive, on both sides
    head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    if head.returncode != 0:
        pytest.skip("bench_pairs builds both sides from git history; this tree has none")
    record = tmp_path / "BENCH_verify.json"
    record.write_text('[{"earlier": "entry"}]\n')
    subprocess.run([sys.executable, os.path.join(TOOLS, "bench_pairs.py"),
                    "--workload", "verify", "--pairs", "1", "--first-seed", "1000",
                    "--seconds", "0.5", "--base", "HEAD", "--change", "HEAD",
                    "--out", str(tmp_path)],
                   capture_output=True, text=True, timeout=300, check=True)
    earlier, entry = json.loads(record.read_text())
    assert earlier == {"earlier": "entry"}
    assert entry["base"] == entry["change"] == {"rev": "HEAD", "sha": head.stdout.strip()}
    # both trees are built beside the record, not in the checkout
    assert os.listdir(tmp_path / ".bench_build") == [head.stdout[:12]]
    assert entry["seeds"] == [1000] and entry["blas_threads"] == [1]
    assert entry["nproc"] >= 1
    assert set(entry["metrics"]) == {"setup_s", "peak_rss_mb", "round_ms_p10"}
    for name, m in entry["metrics"].items():
        assert m["pairs"] == 1 and m["change_lower"] in (0, 1), name
        for side in ("base", "change"):
            assert 0 < m[side]["q1"] <= m[side]["median"] <= m[side]["q3"], name
        # one pair: its change over base is every quartile of the per-pair change
        (base,), (change,) = (entry["runs"][side] for side in ("base", "change"))
        assert m["pair_change"] == pytest.approx(
            dict.fromkeys(("q1", "median", "q3"), change[name] / base[name] - 1.0)), name
    for side in ("base", "change"):
        (run,) = entry["runs"][side]
        assert run["correct"] and run["failed"] == 0 and run["seed"] == 1000


def test_bench_pairs_leaves_a_failed_pair_out(tmp_path, monkeypatch):
    # pair 0's base run exits 1 and pair 1's change run is not correct: both
    # stay in runs, and the metrics are pair 2's alone
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(TOOLS, "bench_pairs.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "build", lambda rev, build_dir: (rev * 8, rev))
    monkeypatch.setattr(bench, "compile_tree", lambda path: None)
    value = {"base": 2.0, "change": 3.0}

    def fake_run(argv, cwd, **kwargs):
        seed = int(argv[argv.index("--seed") + 1])
        if (cwd, seed) == ("base", 100):
            return subprocess.CompletedProcess(argv, 1, "", "Traceback\nOSError: no\n")
        wrong = (cwd, seed) == ("change", 101)
        result = {"correct": not wrong, "attempted": 5, "failed": 2 if wrong else 0,
                  "metrics": {name: {"value": value[cwd] + seed % 100}
                              for name in ("setup_s", "peak_rss_mb", "round_ms_p10")}}
        detail = {"provenance": {"blas_threads": 1}}
        return subprocess.CompletedProcess(
            argv, 0, json.dumps(detail) + "\n" + json.dumps(result) + "\n", "")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    assert bench.main(["--workload", "verify", "--pairs", "3", "--first-seed", "100",
                       "--base", "base", "--change", "change", "--out", str(tmp_path)]) == 0
    (entry,) = json.loads((tmp_path / "BENCH_verify.json").read_text())
    base, change = entry["runs"]["base"], entry["runs"]["change"]
    assert base[0] == {"seed": 100, "exit_code": 1, "error": "OSError: no"}
    assert not change[1]["correct"] and change[1]["failed"] == 2
    assert [r["seed"] for r in base + change] == [100, 101, 102] * 2
    assert entry["pairs_left_out"] == 2 and entry["blas_threads"] == [1]
    for name, m in entry["metrics"].items():
        assert m["pairs"] == 1, name
        assert m["base"]["median"] == 4.0 and m["change"]["median"] == 5.0, name
        assert m["pair_change"]["median"] == pytest.approx(5.0 / 4.0 - 1.0), name
