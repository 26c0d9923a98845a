"""Acceptance suite: the contract the build must meet, one criterion per test.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to stream
them). The learning criteria (7 and 8) train on a fixed synthetic order-4
workload and take a few minutes combined; everything else is fast.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

from fcn_ctr.checkpoint import load_checkpoint
from fcn_ctr.cli import main as cli_main
from fcn_ctr.features import (FieldSpec, build_schema, encode, read_csv,
                              split_indices, synth_interaction_data)
from fcn_ctr.metrics import auc as rank_auc
from fcn_ctr.model import ModelConfig, field_importance, param_count
from fcn_ctr.numerics import Rng, derive_seed
from fcn_ctr.objective import tri_bce
from fcn_ctr.training import TrainConfig, evaluate, predict_scores, train
from fcn_ctr.verification import (degree_probe, grad_audit, mask_census,
                                  pairwise_auc_oracle)

GOLDEN_DIR = Path(__file__).parent / "golden"


def report(criterion: str, passed: bool, detail: str = ""):
    line = f"{'PASS' if passed else 'FAIL'} {criterion}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


@pytest.fixture(scope="module")
def workload():
    """The shared order-4 interaction dataset: f=8, card=10, n=50000."""
    rng = Rng(derive_seed(7, "synth"))
    records, _ = synth_interaction_data(8, 10, 4, 50000, rng)
    schema = build_schema(records, [FieldSpec(f"f{j}") for j in range(8)])
    batch = encode(records, schema)
    return tuple(map(batch.rows, split_indices(batch.n, (0.8, 0.1, 0.1),
                                               Rng(derive_seed(7, "split")))))


def test_criterion_1_gradient_exactness():
    """Full backward pass vs central finite differences over the config grid."""
    t0 = time.monotonic()
    result = grad_audit()  # f x d x depths^2 x mask grid, 3 seeds each
    elapsed = time.monotonic() - t0
    worst = result.lines[-1]
    report("criterion 1: gradient exactness",
           result.passed and elapsed < 120.0,
           f"{worst}, {elapsed:.0f}s")


def test_criterion_2_interaction_order():
    """Measured polynomial degree is exactly 2^L (ecn) and L+1 (lcn)."""
    t0 = time.monotonic()
    ok = True
    details = []
    for depth in (1, 2, 3, 4):
        got, _ = degree_probe(ecn_depth=depth, lcn_depth=0)
        ok &= got == 2 ** depth
        details.append(f"ecn{depth}={got}")
    for depth in (1, 2, 3):
        _, got = degree_probe(ecn_depth=0, lcn_depth=depth)
        ok &= got == depth + 1
        details.append(f"lcn{depth}={got}")
    elapsed = time.monotonic() - t0
    report("criterion 2: interaction order", ok and elapsed < 30.0,
           " ".join(details) + f", {elapsed:.1f}s")


def test_criterion_3_mask_sparsity():
    """Self-mask zeroes about half of a standard-normal cross vector."""
    mean, std, _ = mask_census(1024, 1000, Rng(derive_seed(0, "mask-census")))
    report("criterion 3: self-mask sparsity", 0.45 <= mean <= 0.55,
           f"mean zero fraction {mean:.4f}")


def test_criterion_4_composite_loss_algebra():
    """Worked example plus exact weight/total identities on random batches."""
    r = tri_bce(np.array([0.375]), np.array([0.5]), np.array([0.25]), np.array([1]))
    # expected values from direct evaluation of the loss formulas; the total
    # follows exactly from total = L + w_deep L_deep + w_shallow L_shallow
    expected_total = -math.log(0.375) + math.log(1.5) * -math.log(0.25)
    example_ok = (abs(r.primary - 0.98083) < 1e-5
                  and abs(r.deep - 0.69315) < 1e-5
                  and abs(r.shallow - 1.38629) < 1e-5
                  and r.w_deep == 0.0
                  and abs(r.w_shallow - 0.40546) < 1e-5
                  and abs(r.total - expected_total) < 1e-12
                  and abs(r.total - 1.5429233) < 1e-5)

    rng = Rng(derive_seed(4, "loss-property"))
    property_ok = True
    for _ in range(10_000):
        n = int(rng.integers(8)) + 1
        y_d = rng.uniform(0.01, 0.99, n)
        y_s = rng.uniform(0.01, 0.99, n)
        y_hat = 0.5 * (y_d + y_s)
        labels = (rng.random(n) < 0.5).astype(np.int64)
        rep = tri_bce(y_hat, y_d, y_s, labels)
        property_ok &= rep.w_deep == max(0.0, rep.deep - rep.primary)
        property_ok &= rep.w_shallow == max(0.0, rep.shallow - rep.primary)
        property_ok &= rep.total == rep.primary + rep.w_deep * rep.deep + rep.w_shallow * rep.shallow
        property_ok &= rep.total >= rep.primary
        if not property_ok:
            break
    report("criterion 4: composite loss algebra", example_ok and property_ok,
           f"total={r.total:.7f}, 10^4 random batches exact")


def test_criterion_5_auc_oracle_equivalence():
    """Rank AUC equals brute-force pairwise AUC to 1e-12, ties included."""
    hand = rank_auc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]))
    rng = Rng(derive_seed(5, "auc-acceptance"))
    worst = 0.0
    for i in range(200):
        n = int(rng.integers(1990)) + 10
        scores = rng.random(n)
        if i % 2 == 0:
            scores = np.round(scores, 2)  # inject heavy ties
        labels = (rng.random(n) < 0.5).astype(np.int64)
        labels[0], labels[1] = 0, 1
        worst = max(worst, abs(rank_auc(scores, labels)
                               - pairwise_auc_oracle(scores, labels)))
    report("criterion 5: auc oracle equivalence",
           hand == 0.75 and worst <= 1e-12,
           f"hand={hand}, max gap {worst:.2e}")


def test_criterion_6_parameter_accounting():
    """Closed-form counts: the worked 946 case and the branch scaling law."""
    worked = param_count(ModelConfig(d=4, lcn_depth=3, ecn_depth=3, seed=0),
                         [5, 5, 5, 5])
    ok = worked["non_embedding_total"] == 946
    for d, f, L in ((4, 4, 2), (8, 8, 3), (16, 8, 4), (16, 16, 6)):
        D = d * f
        ecn_only = param_count(ModelConfig(d=d, lcn_depth=0, ecn_depth=L, seed=0),
                               [7] * f)
        fcn = param_count(ModelConfig(d=d, lcn_depth=L, ecn_depth=L, seed=0),
                          [7] * f)
        # leading terms D^2 L / 2 and D^2 L, lower-order terms linear in D
        ok &= ecn_only["non_embedding_total"] == D * D * L // 2 + 3 * D * L // 2 + 2 * (D + 1)
        ok &= fcn["non_embedding_total"] == D * D * L + 3 * D * L + 2 * (D + 1)
    report("criterion 6: parameter accounting", ok,
           f"worked total {worked['non_embedding_total']}")


# criterion 7's ECN-2 model and its training, shared with the interpretability check
ECN2_CONFIG = ModelConfig(d=16, lcn_depth=0, ecn_depth=2, mask_mode="paper",
                          dropout_rate=0.1, seed=3)
ECN2_TRAIN = TrainConfig(learning_rate=3e-3, batch_size=512, max_epochs=20, patience=20)


@pytest.fixture(scope="module")
def ecn2(workload):
    """Criterion 7's ECN-2 model trained on the workload: (params, training seconds)."""
    tr, va, _ = workload
    t0 = time.monotonic()
    params, reports = train(tr, va, ECN2_CONFIG, ECN2_TRAIN, log=lambda s: None)
    assert len(reports) <= 20
    return params, time.monotonic() - t0


def test_criterion_7_high_order_learning(workload, ecn2):
    """Order-4 signal: ecn depth 2 clears test AUC 0.90; the first-order
    model stays at chance."""
    tr, va, te = workload
    t0 = time.monotonic()

    deep_config, deep_train = ECN2_CONFIG, ECN2_TRAIN
    params, deep_seconds = ecn2
    deep_auc = evaluate(te, params, deep_config).auc

    flat_config = ModelConfig(d=16, lcn_depth=0, ecn_depth=0, mask_mode="paper",
                              dropout_rate=0.1, seed=3)
    params, _ = train(tr, va, flat_config, deep_train, log=lambda s: None)
    flat_auc = evaluate(te, params, flat_config).auc
    # the ECN-2 training in the fixture counts toward the time bound
    elapsed = deep_seconds + time.monotonic() - t0

    report("criterion 7: high-order learning",
           deep_auc > 0.90 and 0.47 <= flat_auc <= 0.53 and elapsed < 300.0,
           f"ecn2 auc {deep_auc:.4f}, first-order auc {flat_auc:.4f}, {elapsed:.0f}s")


def test_cross_strengths_rank_signal_fields_above_noise(workload, ecn2):
    """Interpretability against a known answer: on the order-4 workload f0-f3
    carry the signal and f4-f7 are noise, so in both layers of criterion 7's
    ECN-2 model every signal field's cross strength on the test split exceeds
    every noise field's."""
    _, _, te = workload
    params, _ = ecn2
    lines = []
    for layer in range(ECN2_CONFIG.ecn_depth):
        strengths, _, _ = field_importance(params, ECN2_CONFIG, te, layer, "ecn")
        lines.append((strengths[:4].min(), strengths[4:].max()))
    report("interpretability: cross strength separates signal from noise fields",
           all(signal > noise for signal, noise in lines),
           ", ".join(f"layer {i} signal min {s:.3f} vs noise max {n:.3f}"
                     for i, (s, n) in enumerate(lines)))


def test_criterion_8_composite_loss_direction(workload):
    """With both branches on, the composite loss beats plain BCE on
    validation logloss in at least 4 of 5 seeds."""
    tr, va, _ = workload
    wins = 0
    gaps = []
    for seed in (1, 2, 3, 4, 5):
        losses = {}
        for loss in ("tri", "plain"):
            config = ModelConfig(d=16, lcn_depth=2, ecn_depth=2, mask_mode="paper",
                                 dropout_rate=0.1, seed=seed)
            tcfg = TrainConfig(learning_rate=3e-3, batch_size=512, max_epochs=4,
                               patience=4, loss=loss)
            params, _ = train(tr, va, config, tcfg, log=lambda s: None)
            losses[loss] = evaluate(va, params, config).logloss
        wins += losses["tri"] <= losses["plain"]
        gaps.append(round(losses["plain"] - losses["tri"], 4))
    report("criterion 8: composite loss direction", wins >= 4,
           f"tri wins {wins}/5, logloss gaps {gaps}")


def test_criterion_9_determinism_and_golden(tmp_path):
    """Identical config and seed give bitwise-identical checkpoints; the
    committed golden checkpoint loads and reproduces its predictions."""
    data = tmp_path / "data"
    assert cli_main(["synth", "--out", str(data), "--fields", "3",
                     "--cardinality", "4", "--order", "2", "--rows", "600",
                     "--seed", "11"]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 4\nlcn_depth = 1\necn_depth = 1\nmax_epochs = 2\n"
                   "batch_size = 64\nseed = 9\n")
    digests = []
    for name in ("a.ckpt", "b.ckpt"):
        path = tmp_path / name
        assert cli_main(["train", "--config", str(cfg),
                         "--train", str(data / "train.csv"),
                         "--valid", str(data / "valid.csv"),
                         "--out-checkpoint", str(path)]) == 0
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    identical = digests[0] == digests[1]

    params, config, schema = load_checkpoint(GOLDEN_DIR / "model.ckpt")
    _, records = read_csv(GOLDEN_DIR / "inputs.csv")
    batch = encode(records, schema, require_labels=False)
    y, yd, ys = predict_scores(batch, params, config)
    _, want = read_csv(GOLDEN_DIR / "predictions.csv")
    golden_ok = all(
        abs(y[i] - float(row["y_hat"])) <= 1e-12
        and abs(yd[i] - float(row["y_hat_deep"])) <= 1e-12
        and abs(ys[i] - float(row["y_hat_shallow"])) <= 1e-12
        for i, row in enumerate(want))
    report("criterion 9: determinism and serialization",
           identical and golden_ok,
           f"checkpoint sha {digests[0][:12]} vs {digests[1][:12]}: "
           f"{'identical' if identical else 'DIFFERENT'}, golden "
           f"{'reproduced' if golden_ok else 'NOT reproduced'}")


def test_criterion_10_fusion_identity(tmp_path):
    """Every prediction written by the CLI fuses the branch heads exactly."""
    data = tmp_path / "data"
    assert cli_main(["synth", "--out", str(data), "--fields", "3",
                     "--cardinality", "4", "--order", "2", "--rows", "400",
                     "--seed", "13"]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 4\nlcn_depth = 2\necn_depth = 2\nmax_epochs = 1\n"
                   "batch_size = 64\nseed = 2\n")
    ckpt = tmp_path / "m.ckpt"
    assert cli_main(["train", "--config", str(cfg),
                     "--train", str(data / "train.csv"),
                     "--valid", str(data / "valid.csv"),
                     "--out-checkpoint", str(ckpt)]) == 0
    preds = tmp_path / "preds.csv"
    assert cli_main(["predict", "--checkpoint", str(ckpt),
                     "--input", str(data / "test.csv"),
                     "--output", str(preds)]) == 0
    _, rows = read_csv(preds)
    worst = max(abs(float(r["y_hat"])
                    - 0.5 * (float(r["y_hat_deep"]) + float(r["y_hat_shallow"])))
                for r in rows)
    report("criterion 10: fusion identity", worst <= 1e-12,
           f"{len(rows)} rows, max gap {worst:.2e}")
