"""Criterion 8's margin over dropout streams: Tri-BCE against plain BCE, per seed.

Runs criterion 8's protocol (tests/test_acceptance.py) unedited: the order-4
workload (8 fields, cardinality 10, data seed 7, split 80/10/10), a model of
d = 16, 2 + 2 layers, paper mask and dropout 0.1, trained at lr 3e-3, batch
512, 4 epochs, patience 4, once under each loss for seeds 1-5, and each scored
by its validation logloss; tri wins a seed when its logloss is no worse. The
protocol runs on the committed dropout stream and on ``dropout-alt1`` ...
``dropout-altK``: a run is moved to another stream by wrapping
``training.derive_seed``, which renames the ``dropout`` stream and passes every
other name through. Per stream and seed it prints both validation loglosses and
AUCs, the gap (plain - tri, rounded as criterion 8 prints it) and the last
epoch's w_D and w_S under Tri-BCE, then the stream's wins and gaps.

    python tools/claim_margin.py                  # the package in this checkout
    python tools/claim_margin.py --src OTHER/src  # another tree, such as a parent's
    python tools/claim_margin.py --rows 2000 --alts 1
"""

import argparse
import os
import sys
import time

SEEDS = (1, 2, 3, 4, 5)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                    help="directory holding the fcn_ctr package to run")
    ap.add_argument("--alts", type=int, default=5, help="K, the renamed streams")
    ap.add_argument("--rows", type=int, default=50000, help="workload rows (criterion 8: 50000)")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from fcn_ctr import training
    from fcn_ctr.features import FieldSpec, build_schema, encode, split_indices, \
        synth_interaction_data
    from fcn_ctr.model import ModelConfig
    from fcn_ctr.numerics import Rng, derive_seed

    records, _ = synth_interaction_data(8, 10, 4, args.rows, Rng(derive_seed(7, "synth")))
    batch = encode(records, build_schema(records, [FieldSpec(f"f{j}") for j in range(8)]))
    tr, va, _ = map(batch.rows, split_indices(batch.n, (0.8, 0.1, 0.1),
                                              Rng(derive_seed(7, "split"))))
    t0 = time.monotonic()
    for stream in ["dropout"] + [f"dropout-alt{k}" for k in range(1, args.alts + 1)]:
        training.derive_seed = lambda seed, name, stream=stream: derive_seed(
            seed, stream if name == "dropout" else name)
        wins, gaps = 0, []
        for seed in SEEDS:
            runs = {}
            for loss in ("tri", "plain"):
                config = ModelConfig(d=16, lcn_depth=2, ecn_depth=2, mask_mode="paper",
                                     dropout_rate=0.1, seed=seed)
                tcfg = training.TrainConfig(learning_rate=3e-3, batch_size=512, max_epochs=4,
                                            patience=4, loss=loss)
                params, reports = training.train(tr, va, config, tcfg, log=lambda s: None)
                runs[loss] = training.evaluate(va, params, config), reports[-1].loss
            (tri, tri_loss), (plain, _) = runs["tri"], runs["plain"]
            wins += tri.logloss <= plain.logloss
            gaps.append(round(plain.logloss - tri.logloss, 4))
            print(f"stream={stream} seed={seed} tri_logloss={tri.logloss:.6f} "
                  f"plain_logloss={plain.logloss:.6f} gap={gaps[-1]} tri_auc={tri.auc:.6f} "
                  f"plain_auc={plain.auc:.6f} w_D={tri_loss.w_deep:.6f} "
                  f"w_S={tri_loss.w_shallow:.6f}", flush=True)
        print(f"stream={stream} tri_wins={wins}/{len(SEEDS)} gaps={gaps}", flush=True)
    training.derive_seed = derive_seed
    print(f"seconds={time.monotonic() - t0:.0f}")


if __name__ == "__main__":
    main()
