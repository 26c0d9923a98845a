"""Regenerate the golden checkpoint fixtures under tests/golden/, or under
the directory given as the one argument:

    python tools/make_golden.py [OUT_DIR]

The fixtures pin cross-platform byte stability of the checkpoint format and
the numerical stability of inference: a short deterministic training run on
a tiny synthetic workload, saved with its inputs and frozen predictions.
"""

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fcn_ctr.checkpoint import save_checkpoint
from fcn_ctr.cli import main as cli
from fcn_ctr.features import (FieldSpec, build_schema, encode, split_indices,
                              synth_interaction_data, write_csv)
from fcn_ctr.model import ModelConfig
from fcn_ctr.numerics import Rng, derive_seed
from fcn_ctr.training import TrainConfig, train

OUT = os.path.join(os.path.dirname(__file__), "..", "tests", "golden")


def main(out=OUT):
    os.makedirs(out, exist_ok=True)
    rng = Rng(derive_seed(2024, "synth"))
    records, _ = synth_interaction_data(3, 4, 2, 400, rng)
    specs = [FieldSpec(f"f{j}") for j in range(3)]
    schema = build_schema(records, specs)
    batch = encode(records, schema)
    tr, va, te = map(batch.rows, split_indices(batch.n, (0.8, 0.1, 0.1),
                                               Rng(derive_seed(2024, "split"))))

    config = ModelConfig(d=4, lcn_depth=1, ecn_depth=2, mask_mode="paper",
                         dropout_rate=0.1, seed=2024)
    tcfg = TrainConfig(learning_rate=0.003, batch_size=64, max_epochs=3, patience=3)
    params, _ = train(tr, va, config, tcfg, log=lambda s: None)

    ckpt_path = os.path.join(out, "model.ckpt")
    save_checkpoint(ckpt_path, params, config, schema)
    inputs = os.path.join(out, "inputs.csv")
    write_csv(inputs, [f"f{j}" for j in range(3)] + ["label"], records[:16])
    # freeze the predictions `fcn-ctr predict` computes from the file's float32 params
    if cli(["predict", "--checkpoint", ckpt_path, "--input", inputs,
            "--output", os.path.join(out, "predictions.csv")]):
        raise SystemExit("predict failed on the golden checkpoint")

    digest = hashlib.sha256(open(ckpt_path, "rb").read()).hexdigest()
    with open(ckpt_path + ".sha256", "w") as fh:
        fh.write(digest + "\n")
    print("golden fixtures written to", out)
    print("checkpoint sha256:", digest)


if __name__ == "__main__":
    main(*sys.argv[1:])
