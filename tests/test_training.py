"""Adam, the training loop, early stopping, and evaluation."""

import hashlib
import math
import sys
import threading

import numpy as np
import pytest

import fcn_ctr.model as model_mod
import fcn_ctr.training as training_mod
from fcn_ctr.features import DataError, EncodedBatch, FieldSpec, build_schema, encode, split, synth_interaction_data
from fcn_ctr.metrics import EvalResult
from fcn_ctr.model import ModelConfig, forward, init_model_params
from fcn_ctr.numerics import Rng, derive_seed
from fcn_ctr.objective import tri_bce
from fcn_ctr.training import (TrainConfig, adam_step, evaluate,
                              init_adam_state, train, train_step)


def toy_batch(n=32, f=3, vocab=4, seed=1, labels=None):
    rng = Rng(seed)
    ids = rng.integers(vocab, size=(n, f))
    if labels is None:
        labels = (rng.random(n) < 0.5).astype(np.int64)
        labels[0], labels[1] = 0, 1
    return EncodedBatch(ids, labels, [vocab] * f)


def toy_model(lcn=1, ecn=1, dropout=0.0, seed=3, f=3, vocab=4, d=4):
    config = ModelConfig(d=d, lcn_depth=lcn, ecn_depth=ecn, dropout_rate=dropout,
                         seed=seed)
    params = init_model_params(config, [vocab] * f, derive_seed(seed, "init"))
    return config, params


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self):
        config, params = toy_model()
        from fcn_ctr.model import zero_gradients
        state = init_adam_state(params)
        before = params.copy()
        adam_step(params, zero_gradients(params), state, TrainConfig())
        np.testing.assert_array_equal(params.ecn_layers[0].w, before.ecn_layers[0].w)
        np.testing.assert_array_equal(params.embeddings[0], before.embeddings[0])

    def test_first_step_closed_form(self):
        # unit gradient at t=1: bias-corrected moments are exactly (1, 1),
        # so the update is -lr / (1 + eps) regardless of the tensor
        config, params = toy_model()
        from fcn_ctr.model import zero_gradients
        grads = zero_gradients(params)
        grads.heads.b_deep[...] = 1.0
        state = init_adam_state(params)
        tcfg = TrainConfig(learning_rate=0.25)
        before = float(params.heads.b_deep[0])
        adam_step(params, grads, state, tcfg)
        got = float(params.heads.b_deep[0]) - before
        np.testing.assert_allclose(got, -0.25 / (1.0 + 1e-8), rtol=1e-12)

    def test_untouched_embedding_rows_bitwise_unchanged(self):
        config, params = toy_model(vocab=9)
        batch = toy_batch(n=4, vocab=9)
        touched = [set(np.unique(batch.ids[:, j])) for j in range(3)]
        before = params.copy()
        state = init_adam_state(params)
        train_step(batch, params, config, TrainConfig(), state, Rng(0))
        for j in range(3):
            for row in range(9):
                if row not in touched[j]:
                    np.testing.assert_array_equal(params.embeddings[j][row],
                                                  before.embeddings[j][row])
                else:
                    assert not np.array_equal(params.embeddings[j][row],
                                              before.embeddings[j][row])

    def test_non_finite_gradient_names_tensor(self):
        config, params = toy_model()
        from fcn_ctr.model import zero_gradients
        grads = zero_gradients(params)
        grads.lcn_layers[0].w[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match=r"lcn\[0\]\.w"):
            adam_step(params, grads, init_adam_state(params), TrainConfig())

    def test_two_runs_bitwise_identical(self):
        results = []
        for _ in range(2):
            config, params = toy_model(dropout=0.2)
            state = init_adam_state(params)
            rng = Rng(derive_seed(config.seed, "dropout"))
            batch = toy_batch()
            for _ in range(3):
                train_step(batch, params, config, TrainConfig(), state, rng)
            results.append(params)
        a, b = results
        np.testing.assert_array_equal(a.ecn_layers[0].w, b.ecn_layers[0].w)
        np.testing.assert_array_equal(a.embeddings[0], b.embeddings[0])


class TestSingleSampleDescent:
    def test_one_step_decreases_loss_for_some_lr(self):
        config, params = toy_model(lcn=2, ecn=2)
        batch = toy_batch(n=1, labels=np.array([1]))

        def tri_loss(p):
            res = forward(batch, p, config)
            return tri_bce(res.y, res.y_deep, res.y_shallow, batch.labels).total

        base = tri_loss(params)
        decreased = False
        for lr in (1e-3, 1e-4, 1e-5):
            trial = params.copy()
            state = init_adam_state(trial)
            train_step(batch, trial, config, TrainConfig(learning_rate=lr),
                       state, Rng(0))
            decreased |= tri_loss(trial) < base
        assert decreased


class TestEvaluate:
    def test_zero_params_give_half_scores(self):
        config, params = toy_model(lcn=0, ecn=0)
        for e in params.embeddings:
            e[...] = 0.0
        params.heads.w_deep[...] = 0.0
        params.heads.w_shallow[...] = 0.0
        batch = toy_batch(n=10)
        result = evaluate(batch, params, config)
        np.testing.assert_allclose(result.logloss, math.log(2.0), rtol=1e-12)
        assert result.auc == 0.5

    def test_batch_size_independent(self):
        config, params = toy_model(lcn=2, ecn=2)
        batch = toy_batch(n=33)
        r1 = evaluate(batch, params, config, batch_size=1)
        r2 = evaluate(batch, params, config, batch_size=4096)
        assert r1.auc == r2.auc
        assert r1.logloss == r2.logloss

    def test_repeated_evaluation_identical(self):
        config, params = toy_model(dropout=0.5)
        batch = toy_batch(n=20)
        r1 = evaluate(batch, params, config)
        r2 = evaluate(batch, params, config)
        assert (r1.auc, r1.logloss) == (r2.auc, r2.logloss)

    def test_single_class_surfaces_undefined_auc(self):
        config, params = toy_model()
        batch = toy_batch(n=6, labels=np.ones(6, dtype=np.int64))
        result = evaluate(batch, params, config)
        assert result.auc is None
        assert result.positives == 6
        assert result.logloss > 0


class TestTrainLoop:
    def sets(self, seed=9, n=600):
        records, _ = synth_interaction_data(3, 4, 1, n, Rng(seed))
        schema = build_schema(records, [FieldSpec(f"f{j}") for j in range(3)])
        batch = encode(records, schema)
        return split(batch, (0.7, 0.15, 0.15), Rng(seed + 1))

    def test_first_order_signal_learned_fast(self):
        # order-1 synthetic labels are linearly separable up to noise, so the
        # zero-depth model must clear validation AUC 0.95 within 5 epochs
        tr, va, te = self.sets()
        config = ModelConfig(d=4, lcn_depth=0, ecn_depth=0, dropout_rate=0.0, seed=2)
        tcfg = TrainConfig(learning_rate=0.05, batch_size=64, max_epochs=5,
                           patience=5)
        params, reports = train(tr, va, config, tcfg, log=lambda s: None)
        assert max(r.valid.auc for r in reports) > 0.95

    def test_zero_epochs_returns_initial_params(self):
        tr, va, _ = self.sets()
        config = ModelConfig(d=4, seed=7)
        tcfg = TrainConfig(max_epochs=0)
        params, reports = train(tr, va, config, tcfg, log=lambda s: None)
        assert reports == []
        expected = init_model_params(config, tr.sizes, derive_seed(7, "init"))
        np.testing.assert_array_equal(params.embeddings[0], expected.embeddings[0])

    def test_patience_stopping_arithmetic(self, monkeypatch):
        # scripted validation AUCs: worsening from epoch 2 stops the loop at
        # epoch 3 with patience 2
        tr, va, _ = self.sets()
        scripted = iter([0.9, 0.8, 0.7, 0.6, 0.5])

        def fake_evaluate(batch, params, config, batch_size=4096):
            return EvalResult(next(scripted), 0.5, batch.n, 1)

        monkeypatch.setattr(training_mod, "evaluate", fake_evaluate)
        config = ModelConfig(d=4, lcn_depth=0, ecn_depth=0, seed=1)
        tcfg = TrainConfig(max_epochs=10, patience=2, batch_size=256)
        _, reports = train(tr, va, config, tcfg, log=lambda s: None)
        assert len(reports) == 3

    def test_best_snapshot_matches_best_reported_auc(self):
        tr, va, _ = self.sets()
        config = ModelConfig(d=4, lcn_depth=1, ecn_depth=1, dropout_rate=0.1, seed=4)
        tcfg = TrainConfig(learning_rate=0.02, batch_size=64, max_epochs=6,
                           patience=6)
        params, reports = train(tr, va, config, tcfg, log=lambda s: None)
        best = max(r.valid.auc for r in reports)
        assert evaluate(va, params, config).auc == best

    def test_epoch_line_format(self, capsys):
        tr, va, _ = self.sets(n=300)
        config = ModelConfig(d=4, lcn_depth=0, ecn_depth=1, dropout_rate=0.0, seed=3)
        tcfg = TrainConfig(batch_size=128, max_epochs=1, patience=1)
        train(tr, va, config, tcfg)
        line = capsys.readouterr().out.strip().splitlines()[0]
        for key in ("epoch=", "L_tri=", "L=", "L_D=", "L_S=", "w_D=", "w_S=",
                    "val_auc=", "val_logloss=", "secs="):
            assert key in line

    def test_degenerate_validation_rejected_before_training(self):
        tr, va, _ = self.sets()
        va.labels[:] = 1
        config = ModelConfig(d=4, seed=1)
        with pytest.raises(DataError, match="single-class"):
            train(tr, va, config, TrainConfig(), log=lambda s: None)

    def test_full_run_bitwise_reproducible(self):
        tr, va, _ = self.sets(n=300)
        outs = []
        for _ in range(2):
            config = ModelConfig(d=4, lcn_depth=1, ecn_depth=1, dropout_rate=0.1,
                                 seed=12)
            tcfg = TrainConfig(batch_size=64, max_epochs=3, patience=3)
            params, _ = train(tr, va, config, tcfg, log=lambda s: None)
            outs.append(params)
        np.testing.assert_array_equal(outs[0].ecn_layers[0].w, outs[1].ecn_layers[0].w)
        np.testing.assert_array_equal(outs[0].embeddings[2], outs[1].embeddings[2])


# sha256 of the parameter bytes after two README-batch train steps, computed
# before the branches ran on two threads. Float64 matmul results can differ
# between BLAS kernels, so these pin the numpy build the suite runs on.
README_STEP_DIGESTS = {
    "paper": "922d7e74cac4ea6d095607c94ca8d39424edf100f1e0da038472575b0978c0bd",
    "identity": "bf16b421005a36d788a326b516e28f2bde5f640b97011caeda1c42273fb09518",
    "no_ln": "bb3919f625b70ea655dd2d11d7b7f57e0ea0c184462eaad97eb25a4acd236c2d",
}


class TestBranchThreadsPinned:
    @pytest.fixture(scope="class")
    def readme_batch(self):
        # the README workload's data (8 fields, cardinality 10, order 4)
        records, _ = synth_interaction_data(8, 10, 4, 4096, Rng(derive_seed(1, "synth")))
        return encode(records, build_schema(records, [FieldSpec(f"f{j}") for j in range(8)]))

    @staticmethod
    def two_step_digest(batch, mask):
        config = ModelConfig(mask_mode=mask, seed=1)  # dropout on, at its default 0.1
        params = init_model_params(config, batch.sizes, derive_seed(1, "init"))
        state = init_adam_state(params)
        rng = Rng(derive_seed(1, "dropout"))
        for _ in range(2):
            train_step(batch, params, config, TrainConfig(learning_rate=0.01), state, rng)
        digest = hashlib.sha256()
        for t in params.embeddings:
            digest.update(t.tobytes())
        for layer in params.lcn_layers + params.ecn_layers:
            for t in (layer.w, layer.b, layer.gain, layer.beta):
                digest.update(t.tobytes())
        heads = params.heads
        for t in (heads.w_deep, heads.b_deep, heads.w_shallow, heads.b_shallow):
            digest.update(t.tobytes())
        return digest.hexdigest()

    @pytest.mark.parametrize("mask", ["paper", "identity", "no_ln"])
    def test_two_steps_match_pinned_digest_threaded_and_serial(self, readme_batch, mask,
                                                               monkeypatch):
        activations = readme_batch.n * ModelConfig().d * 8
        assert activations >= model_mod.PARALLEL_MIN_ACTIVATIONS
        threads = set()
        real = model_mod.cross_layer_forward

        def spy(*args, **kwargs):
            threads.add(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(model_mod, "cross_layer_forward", spy)
        threaded = model_mod._parallel(activations)
        assert self.two_step_digest(readme_batch, mask) == README_STEP_DIGESTS[mask]
        assert len(threads) == (2 if threaded else 1)

        threads.clear()
        monkeypatch.setattr(model_mod, "PARALLEL_MIN_ACTIVATIONS", sys.maxsize)
        assert self.two_step_digest(readme_batch, mask) == README_STEP_DIGESTS[mask]
        assert threads == {threading.get_ident()}
