"""Alternating parent/change pairs of the benchmark, kept as a performance record.

Builds both revisions, the parent and the change (by default HEAD), with
``git archive`` into ``.bench_build/<sha>/`` beside the record, then runs N
pairs of the unchanged ``perfbench/run.py --trace 0``, one seed a pair: the
parent and the change on the same seed, the side that goes first alternating
from pair to pair. One entry is appended to ``BENCH_<workload>.json`` (a JSON
list, at the root of the checkout unless ``--out`` names a directory). It
holds the shas, the CPU count, the BLAS threads and the seeds, every run's
end-to-end metrics, and per metric the median and quartiles of each side, the
change of the medians, the median and quartiles of the per-pair change (change
over base, minus one: pairing cancels the speed a process happens to run at), and
the number of pairs in which the change is lower. A run that exits non-zero
(kept with its ``exit_code`` and last stderr line) or is not ``correct`` stays
in ``runs``, but its pair is left out of ``metrics``; ``pairs_left_out``
counts such pairs. Entries written before the per-pair change have no
``pair_change``, and those written before ``pairs_left_out`` have none. Commit
the change first:

    python tools/bench_pairs.py --workload online --pairs 10 --first-seed 5001 \\
        --base HEAD~1
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def git(*args) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def build(rev: str, build_dir: str) -> tuple[str, str]:
    """A tree of ``rev`` from git archive, made once per sha; returns (sha, path)."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    path = os.path.join(build_dir, sha[:12])
    if not os.path.isdir(path):
        partial = f"{path}.partial-{os.getpid()}"
        os.makedirs(partial)
        archive = subprocess.run(["git", "-C", ROOT, "archive", sha], capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", partial], input=archive, check=True)
        os.rename(partial, path)
    return sha, path


def compile_tree(path: str) -> None:
    """Byte-compile both sides first, so that no run pays for compiling the package."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(path, "src"),
                    os.path.join(path, "perfbench")], check=True)


def run_once(path: str, workload: str, seed: int, seconds: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, os.path.join(path, "perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=path, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"seed": seed, "exit_code": proc.returncode,
                "error": (proc.stderr.strip().splitlines() or [""])[-1]}
    detail, result = map(json.loads, proc.stdout.splitlines()[-2:])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "blas_threads": detail["provenance"]["blas_threads"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: np.ndarray) -> dict:
    return dict(zip(("q1", "median", "q3"), np.percentile(values, [25, 50, 75]).tolist()))


def usable(run: dict) -> bool:
    """A run that exited 0 and whose workload checked correct."""
    return "exit_code" not in run and run["correct"]


def summary(pairs: list[tuple[dict, dict]]) -> dict:
    """Per declared end-to-end metric, over (base run, change run) pairs."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end"]
    out = {}
    for metric in declared:
        name = metric["name"]
        a = np.array([base[name] for base, _ in pairs])
        b = np.array([change[name] for _, change in pairs])
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "base": quartiles(a), "change": quartiles(b),
                     "median_change": float(np.median(b) / np.median(a) - 1.0),
                     "pair_change": quartiles(b / a - 1.0),
                     "change_lower": int(np.count_nonzero(b < a)), "pairs": len(a)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("train", "online", "verify"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, required=True,
                    help="pair i runs seed first-seed + i on both sides")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--base", default="HEAD~1", help="git revision of the parent")
    ap.add_argument("--change", default="HEAD", help="git revision of the change")
    ap.add_argument("--out", default=ROOT,
                    help="directory of BENCH_<workload>.json and of the .bench_build trees")
    args = ap.parse_args(argv)

    build_dir = os.path.join(args.out, ".bench_build")
    base_sha, base_path = build(args.base, build_dir)
    change_sha, change_path = build(args.change, build_dir)
    for path in {base_path, change_path}:
        compile_tree(path)

    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    runs = {"base": [], "change": []}
    for i, seed in enumerate(seeds):
        order = (("base", base_path), ("change", change_path))
        for side, path in order if i % 2 == 0 else order[::-1]:
            runs[side].append(run_once(path, args.workload, seed, args.seconds))
            print(side, json.dumps(runs[side][-1]), flush=True)

    pairs = [pair for pair in zip(runs["base"], runs["change"]) if all(map(usable, pair))]
    entry = {"date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
             "workload": args.workload, "seconds": args.seconds, "trace": 0,
             "base": {"rev": args.base, "sha": base_sha},
             "change": {"rev": args.change, "sha": change_sha},
             "nproc": os.cpu_count(),
             "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count(),
             "blas_threads": sorted({r["blas_threads"] for v in runs.values() for r in v
                                     if "blas_threads" in r}, key=str),
             "seeds": seeds, "metrics": summary(pairs) if pairs else {},
             "pairs_left_out": len(seeds) - len(pairs), "runs": runs}
    path = os.path.join(args.out, f"BENCH_{args.workload}.json")
    entries = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
    entries.append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
    for name, m in entry["metrics"].items():
        pair = m["pair_change"]
        print(f"{name}: base {m['base']['median']:.6g} change {m['change']['median']:.6g} "
              f"{m['unit']} ({m['median_change']:+.1%}; per pair {pair['median']:+.1%}, "
              f"quartiles {pair['q1']:+.1%} {pair['q3']:+.1%}), change lower in "
              f"{m['change_lower']}/{m['pairs']} pairs")
    if entry["pairs_left_out"]:
        print(f"{entry['pairs_left_out']}/{len(seeds)} pairs left out: a run failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
