"""Minor page faults, system CPU and wall time per README training step.

Runs N ``train_step`` calls on the README workload's data (8 fields,
cardinality 10, order 4; default model, dropout 0.1, lr 0.01) at a given
row count and branch depth, reading getrusage around each step, and prints
p10/p50 of each over the steps after the first (warm-up) one, then the MiB
the two branch workspaces hold after the steps, in total and per role.

    python tools/step_faults.py --rows 4096 --depth 3 --steps 40
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
from fcn_ctr.model import ModelConfig, init_model_params
from fcn_ctr.numerics import Rng, derive_seed
from fcn_ctr.training import TrainConfig, init_adam_state, train_step


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, default=4096)
    ap.add_argument("--depth", type=int, default=3, help="layers in each branch")
    ap.add_argument("--steps", type=int, default=40)
    args = ap.parse_args(argv)
    records, _ = synth_interaction_data(8, 10, 4, args.rows, Rng(derive_seed(1, "synth")))
    batch = encode(records, build_schema(records, [FieldSpec(f"f{j}") for j in range(8)]))
    config = ModelConfig(lcn_depth=args.depth, ecn_depth=args.depth, seed=1)
    params = init_model_params(config, batch.sizes, derive_seed(1, "init"))
    state, rng = init_adam_state(params), Rng(derive_seed(1, "dropout"))
    faults, stime, ms = [], [], []
    for _ in range(args.steps):
        r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        train_step(batch, params, config, TrainConfig(learning_rate=0.01), state, rng)
        t1, r1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        faults.append(r1.ru_minflt - r0.ru_minflt)
        stime.append((r1.ru_stime - r0.ru_stime) * 1e3)
        ms.append((t1 - t0) * 1e3)
    print(f"rows={args.rows} depth={args.depth}+{args.depth} steps={args.steps}"
          " (first is warm-up)")
    for name, values in (("minflt", faults), ("stime_ms", stime), ("step_ms", ms)):
        rest = values[1:] or values
        p10 = statistics.quantiles(rest, n=10, method="inclusive")[0] if rest[1:] else rest[0]
        print(f"{name:9s} p10={p10:.1f} p50={statistics.median(rest):.1f}")
    roles = {}
    for ws in state.workspace:
        for role, flat in ws.buffers.items():
            roles[role] = roles.get(role, 0) + flat.nbytes / 2**20
    sizes = sorted(roles.items(), key=lambda item: (-item[1], item[0]))
    print("workspace_mib", f"total={sum(roles.values()):.1f}",
          *(f"{role}={mib:.1f}" for role, mib in sizes))


if __name__ == "__main__":
    main()
