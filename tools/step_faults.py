"""Minor page faults, system CPU and wall time per README training step.

Runs N ``train_step`` calls on the README workload's data (8 fields,
cardinality 10, order 4; default model, dropout 0.1, lr 0.01) at a given
row count and branch depths, from the float32 params ``training.train``
starts from, reading getrusage around each step, and prints
p10/p50 of each over the steps after the first (warm-up) one, then the MiB
the two branch workspaces hold after the steps, in total and per role of
each branch (``lcn.scratch``), then each branch's total.

    python tools/step_faults.py --rows 4096 --depth 3 --steps 40
    python tools/step_faults.py --depth 0,3   # lcn depth 0, ecn depth 3
"""

import argparse
import os
import resource
import statistics
import sys
import time

# one BLAS thread, as perfbench runs; BLAS reads this when numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fcn_ctr.features import FieldSpec, build_schema, encode, synth_interaction_data
from fcn_ctr.model import ModelConfig
from fcn_ctr.numerics import Rng, derive_seed
from fcn_ctr.training import TrainConfig, init_adam_state, init_train_params, train_step


def depths(text: str) -> tuple[int, int]:
    """``D`` for D layers in each branch, or ``L,E`` for the lcn's and the ecn's."""
    lcn, _, ecn = text.partition(",")
    return int(lcn), int(ecn or lcn)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, default=4096)
    ap.add_argument("--depth", type=depths, default=(3, 3),
                    help="layers in each branch, or L,E: the lcn's and the ecn's")
    ap.add_argument("--steps", type=int, default=40)
    args = ap.parse_args(argv)
    records, _ = synth_interaction_data(8, 10, 4, args.rows, Rng(derive_seed(1, "synth")))
    batch = encode(records, build_schema(records, [FieldSpec(f"f{j}") for j in range(8)]))
    config = ModelConfig(lcn_depth=args.depth[0], ecn_depth=args.depth[1], seed=1)
    params = init_train_params(config, batch.sizes)
    state, rng = init_adam_state(params), Rng(derive_seed(1, "dropout"))
    faults, stime, ms = [], [], []
    for _ in range(args.steps):
        r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        train_step(batch, params, config, TrainConfig(learning_rate=0.01), state, rng)
        t1, r1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        faults.append(r1.ru_minflt - r0.ru_minflt)
        stime.append((r1.ru_stime - r0.ru_stime) * 1e3)
        ms.append((t1 - t0) * 1e3)
    print(f"rows={args.rows} depth={args.depth[0]}+{args.depth[1]} steps={args.steps}"
          " (first is warm-up)")
    for name, values in (("minflt", faults), ("stime_ms", stime), ("step_ms", ms)):
        rest = values[1:] or values
        p10 = statistics.quantiles(rest, n=10, method="inclusive")[0] if rest[1:] else rest[0]
        print(f"{name:9s} p10={p10:.1f} p50={statistics.median(rest):.1f}")
    branches = dict(zip(("ecn", "lcn"), state.workspace))
    mib = {f"{branch}.{role}": flat.nbytes / 2**20
           for branch, ws in branches.items() for role, flat in ws.buffers.items()}
    sizes = sorted(mib.items(), key=lambda item: (-item[1], item[0]))
    print("workspace_mib", f"total={sum(mib.values()):.1f}",
          *(f"{role}={v:.1f}" for role, v in sizes))
    print("workspace_mib_by_branch",
          *(f"{branch}={sum(f.nbytes for f in ws.buffers.values()) / 2**20:.1f}"
            for branch, ws in branches.items()))


if __name__ == "__main__":
    main()
