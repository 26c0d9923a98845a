"""fcn-ctr benchmark: one workload per run, checked, with metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {train,online,verify} \
        --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
they are its per-layer metrics, from spans the benchmark puts around calls
into the package. The line before it holds the workload's own named metrics,
the checks and the provenance of the run. The package is imported from
``src/`` next to this directory; without it the run exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpus_allowed() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


# One BLAS thread. The machine's CPUs are shared: with one BLAS thread per
# CPU, a busy process on the other CPU slowed train's steps by half and no
# reference computation saw it; with one thread it moved them by 3%.
# BLAS reads its thread count once, when numpy loads it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import types  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, HERE)
from tracing import per_layer_metrics  # noqa: E402
from workloads import FULL, WORKLOADS, Run  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_out")


def import_package():
    """The package under test, from ``src/`` of this checkout."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from fcn_ctr import (checkpoint, features, metrics, model, numerics,  # noqa: F401
                         objective, training, verification)
    return types.SimpleNamespace(**{m.__name__.rsplit(".", 1)[1]: m for m in (
        checkpoint, features, metrics, model, numerics, objective, training, verification)})


def _git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _src_sha() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "fcn_ctr")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _blas_info() -> tuple[int | None, str | None]:
    """Thread count and version string reported by the OpenBLAS numpy loaded."""
    import ctypes
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", ""), ("openblas", "64_")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype, threads.argtypes = ctypes.c_int, []
            config.restype, config.argtypes = ctypes.c_char_p, []
            return threads(), config().decode()
    return None, None


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    threads, openblas = _blas_info()
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": _git_sha(), "src_sha256": _src_sha(),
        "nproc": os.cpu_count(), "cpus_allowed": cpus_allowed(), "blas_threads": threads,
        "openblas": openblas, "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(run: Run) -> dict:
    """Timings are scaled to the reference speed (see reference.py)."""
    values = {
        "setup_s": (statistics.median(run.setup_scaled_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "round_ms_p10": (run.round_s(10) * 1e3 * run.reference.scale(), "ms"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def run_workload(fcn, workload: str, seed: int, seconds: float, trace: bool,
                 sizes=FULL) -> tuple[dict, dict]:
    """Run one workload; returns (result, detail). The result is the object
    the last output line holds."""
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    body, references = WORKLOADS[workload]
    run = Run(fcn, seed, seconds, trace, sizes, workdir, references)
    try:
        body(fcn, run)
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)
    if trace:
        metrics = per_layer_metrics(run.tracer, run.overhead_frac(), run.data_wait_s)
        run.tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl"))
    else:
        metrics = end_to_end_metrics(run)
    result = {"correct": run.failed == 0 and all(run.checks.values()),
              "attempted": max(run.attempted, 1), "failed": run.failed, "metrics": metrics}
    detail = dict(run.detail)
    detail.update(setup_s_unscaled=statistics.median(run.setup_s), peak_rss_mb=peak_rss_mb(),
                  failed_frac=run.failed / max(run.attempted, 1),
                  ops=len(run.ops), items=run.items, measured_s=run.measured_s,
                  reference_ms_p10={k: run.reference.ms_p10(k) for k in run.reference.kinds},
                  reference_runs=len(run.reference.samples[references[0]]))
    if not trace:
        detail.update(round_ms_p10_unscaled=run.round_s(10) * 1e3,
                      round_ms_p50_unscaled=run.round_s(50) * 1e3)
    return result, {"detail": detail, "checks": run.checks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        fcn = import_package()
    except ImportError as exc:
        print(f"cannot import fcn_ctr from {os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    result, detail = run_workload(fcn, args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    detail["provenance"] = provenance(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
