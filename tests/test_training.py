"""Adam, the training loop, early stopping, and evaluation."""

import hashlib
import math
import sys
import threading
import warnings

import numpy as np
import pytest

import fcn_ctr.model as model_mod
import fcn_ctr.training as training_mod
from fcn_ctr.features import DataError, EncodedBatch, FieldSpec, build_schema, encode, split_indices, synth_interaction_data
from fcn_ctr.metrics import EvalResult
from fcn_ctr.model import (MASK_MODES, ModelConfig, backward, forward, init_model_params,
                           named_dense)
from fcn_ctr.numerics import Rng, derive_seed
from fcn_ctr.objective import tri_bce, tri_bce_grads
from fcn_ctr.training import (TrainConfig, adam_step, evaluate, init_adam_state,
                              init_train_params, train, train_step)


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
        adam_step(params, zero_gradients(params, np.empty_like(params.dense)), state, TrainConfig())
        np.testing.assert_array_equal(params.ecn_layers[0].w, before.ecn_layers[0].w)
        np.testing.assert_array_equal(params.embeddings[0], before.embeddings[0])

    def test_first_step_closed_form(self):
        # unit gradient at t=1: bias-corrected moments are exactly (1, 1),
        # so the update is -lr / (1 + eps) regardless of the tensor
        config, params = toy_model()
        from fcn_ctr.model import zero_gradients
        grads = zero_gradients(params, np.empty_like(params.dense))
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
        grads = zero_gradients(params, np.empty_like(params.dense))
        grads.lcn_layers[0].w[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match=r"lcn_layers\[0\]\.w"):
            adam_step(params, grads, init_adam_state(params), TrainConfig())

    def test_flat_update_bitwise_equals_per_tensor_reference(self):
        # the update each tensor got from its own Adam loop before the
        # dense parameters shared one vector
        config, params = toy_model(lcn=2, ecn=2)
        ref = params.copy()
        tcfg = TrainConfig(learning_rate=0.01)
        b1, b2, lr, eps = (training_mod.ADAM_BETA1, training_mod.ADAM_BETA2,
                           tcfg.learning_rate, training_mod.ADAM_EPSILON)
        moments = {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in named_dense(ref)}
        state = init_adam_state(params)
        batch = toy_batch()
        for t in range(1, 4):
            res = forward(batch, params, config, training=True)
            report = tri_bce(res.y, res.y_deep, res.y_shallow, batch.labels)
            g_deep, g_shallow = tri_bce_grads(res.y, res.y_deep, res.y_shallow,
                                              batch.labels, report)
            grads = backward(res.trace, params, config, g_deep, g_shallow)
            assert np.abs(grads.dense).max() > 0.0
            adam_step(params, grads, state, tcfg)
            corr1, corr2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for (name, p), (_, g) in zip(named_dense(ref), named_dense(grads)):
                m, v = moments[name]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                p -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
            assert params.dense.tobytes() == ref.dense.tobytes()

    @pytest.mark.parametrize("bad, named", [("lcn", r"lcn_layers\[1\]\.w"),
                                            ("embedding", r"embeddings\[2\]")])
    def test_non_finite_gradient_raises_before_any_update(self, bad, named):
        config, params = toy_model(lcn=2, ecn=1)
        batch = toy_batch()
        res = forward(batch, params, config, training=True)
        report = tri_bce(res.y, res.y_deep, res.y_shallow, batch.labels)
        grads = backward(res.trace, params, config,
                         *tri_bce_grads(res.y, res.y_deep, res.y_shallow, batch.labels, report))
        if bad == "embedding":
            # the first touched row of field 2, found in the one table's rows
            rows, g = grads.embeddings
            g[np.searchsorted(rows, params.offsets[2]), 0] = np.inf
        else:
            grads.lcn_layers[1].w[1, 2] = np.nan
        before = params.copy()
        state = init_adam_state(params)
        with pytest.raises(FloatingPointError, match=named):
            adam_step(params, grads, state, TrainConfig())
        assert params.dense.tobytes() == before.dense.tobytes()
        assert params.table.tobytes() == before.table.tobytes()
        assert not state.m.any() and not state.v.any()
        assert not state.emb_m.any() and not state.emb_v.any()
        assert state.t == 0

    @staticmethod
    def _float32_step_state():
        # float32 params one ordinary step in, so every moment holds values
        config, params = toy_model(lcn=2, ecn=1)
        params = params.copy(np.float32)
        state = init_adam_state(params)
        batch = toy_batch()
        train_step(batch, params, config, TrainConfig(), state, Rng(0))
        res = forward(batch, params, config, training=True)
        report = tri_bce(res.y, res.y_deep, res.y_shallow, batch.labels)
        grads = backward(res.trace, params, config,
                         *tri_bce_grads(res.y, res.y_deep, res.y_shallow, batch.labels, report))
        return params, state, grads

    def test_update_past_float32_range_writes_nothing(self):
        # finite gradients, but lr = 1e40 puts every update past float32's range
        params, state, grads = self._float32_step_state()
        assert np.isfinite(grads.dense).all() and np.isfinite(grads.embeddings[1]).all()
        before = [a.tobytes() for a in (params.dense, params.table, state.m, state.v,
                                        state.emb_m, state.emb_v)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError,
                               match=r"non-finite update for tensor lcn_layers\[0\]\.w"):
                adam_step(params, grads, state, TrainConfig(learning_rate=1e40))
        after = [a.tobytes() for a in (params.dense, params.table, state.m, state.v,
                                       state.emb_m, state.emb_v)]
        assert after == before
        assert state.t == 1

    def test_gradient_past_float32_square_is_refused(self):
        # 1e20 is finite in float32, but its square is not: a second moment of inf
        # would freeze the weight, as every later update divides by it
        params, state, grads = self._float32_step_state()
        grads.heads.w_shallow[3] = 1e20
        before = params.dense.tobytes(), state.v.tobytes()
        with pytest.raises(FloatingPointError, match=r"heads\.w_shallow"):
            adam_step(params, grads, state, TrainConfig())
        assert (params.dense.tobytes(), state.v.tobytes()) == before
        assert state.t == 1

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
        return tuple(map(batch.rows, split_indices(batch.n, (0.7, 0.15, 0.15), Rng(seed + 1))))

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
        # the float64 draws, cast once to float32, in which the run trains
        expected = init_model_params(config, tr.sizes, derive_seed(7, "init")).copy(np.float32)
        assert params.dtype == np.float32
        np.testing.assert_array_equal(params.embeddings[0], expected.embeddings[0])

    def test_patience_stopping_arithmetic(self, monkeypatch):
        # scripted validation AUCs: worsening from epoch 2 stops the loop at
        # epoch 3 with patience 2
        tr, va, _ = self.sets()
        scripted = iter([0.9, 0.8, 0.7, 0.6, 0.5])

        def fake_evaluate(batch, params, config, batch_size=4096, workspace=None):
            return EvalResult(next(scripted), 0.5, batch.n, 1)

        monkeypatch.setattr(training_mod, "evaluate", fake_evaluate)
        config = ModelConfig(d=4, lcn_depth=0, ecn_depth=0, seed=1)
        tcfg = TrainConfig(max_epochs=10, patience=2, batch_size=256)
        _, reports = train(tr, va, config, tcfg, log=lambda s: None)
        assert len(reports) == 3

    def test_auc_tie_keeps_the_lower_logloss_and_counts_as_stale(self, monkeypatch):
        # epoch 2 ties epoch 1's AUC at a lower logloss and becomes the best
        # snapshot, epoch 3 ties at a higher one and does not; neither improves
        # the AUC, so patience 2 stops the loop after epoch 3
        tr, va, _ = self.sets()
        scripted = iter([(0.8, 0.5), (0.8, 0.4), (0.8, 0.45), (0.9, 0.1)])
        seen = []

        def fake_evaluate(batch, params, config, batch_size=4096, workspace=None):
            seen.append(params.copy())
            return EvalResult(*next(scripted), batch.n, 1)

        monkeypatch.setattr(training_mod, "evaluate", fake_evaluate)
        config = ModelConfig(d=4, lcn_depth=0, ecn_depth=0, seed=1)
        tcfg = TrainConfig(max_epochs=10, patience=2, batch_size=256)
        best, reports = train(tr, va, config, tcfg, log=lambda s: None)
        assert [r.valid.logloss for r in reports] == [0.5, 0.4, 0.45]
        assert best.dense.tobytes() == seen[1].dense.tobytes()
        assert best.table.tobytes() == seen[1].table.tobytes()
        for other in (seen[0], seen[2]):
            assert best.dense.tobytes() != other.dense.tobytes()

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
# paper mask, steps of 4096, 3136 (the README's ragged last batch) and 4096 rows
README_RAGGED_DIGEST = "35d501489075801d710285e17771272e7a8b7d02fd60958810871c7b94c83db5"


@pytest.fixture(scope="module")
def readme_batch():
    # the README workload's data (8 fields, cardinality 10, order 4)
    records, _ = synth_interaction_data(8, 10, 4, 4096, Rng(derive_seed(1, "synth")))
    return encode(records, build_schema(records, [FieldSpec(f"f{j}") for j in range(8)]))


def readme_run(batch, mask="paper"):
    config = ModelConfig(mask_mode=mask, seed=1)  # dropout on, at its default 0.1
    params = init_model_params(config, batch.sizes, derive_seed(1, "init"))
    return config, params, init_adam_state(params), Rng(derive_seed(1, "dropout"))


class TestBranchThreadsPinned:
    @staticmethod
    def steps_digest(batch, mask, rows):
        config, params, state, rng = readme_run(batch, mask)
        for n in rows:
            part = batch if n == batch.n else batch.rows(slice(0, n))
            train_step(part, params, config, TrainConfig(learning_rate=0.01), state, rng)
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

    def two_step_digest(self, batch, mask):
        return self.steps_digest(batch, mask, (batch.n, batch.n))

    def test_full_ragged_full_steps_match_pinned_digest(self, readme_batch):
        digest = self.steps_digest(readme_batch, "paper", (4096, 3136, 4096))
        assert digest == README_RAGGED_DIGEST

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


def workspace_nbytes(state):
    return sum(flat.nbytes for ws in state.workspace for flat in ws.buffers.values())


class TestStepWorkspace:
    # MiB both workspaces hold after a README-shape step: each branch spends its
    # layer outputs on dgate and the rebuilt gate, and its mask scratch is one
    # pair of halves, which the lcn's dc @ W takes whole (72.70, 67.76 and 63.76
    # with the lcn's dgate buffer and separate masked and relu scratch)
    README_WORKSPACE_MIB = {"paper": 68.70, "no_ln": 63.76, "identity": 61.76}

    @pytest.mark.parametrize("mask", MASK_MODES)
    def test_readme_shape_workspace_totals(self, readme_batch, mask):
        config, params, state, rng = readme_run(readme_batch, mask)
        train_step(readme_batch, params, config, TrainConfig(learning_rate=0.01), state, rng)
        assert round(workspace_nbytes(state) / 2**20, 2) == self.README_WORKSPACE_MIB[mask]

    def test_ragged_step_reuses_the_buffers(self, readme_batch, monkeypatch):
        config, params, state, rng = readme_run(readme_batch)
        traces, real = [], training_mod.backward

        def spy(trace, *args):
            traces.append(trace)
            return real(trace, *args)

        monkeypatch.setattr(training_mod, "backward", spy)
        nbytes = []
        for n in (4096, 3136, 4096):
            train_step(readme_batch.rows(slice(0, n)), params, config,
                       TrainConfig(learning_rate=0.01), state, rng)
            nbytes.append(workspace_nbytes(state))
        assert nbytes[0] == nbytes[1] == nbytes[2]
        for branch, ws in zip(("ecn", "lcn"), state.workspace):
            first, ragged, third = (getattr(t, branch)[0].c for t in traces)
            assert np.shares_memory(third, first)
            assert np.shares_memory(ragged, first) and len(ragged) == 3136
            # each branch's thread fills its own workspace
            assert np.shares_memory(first, ws.buffers["c"])
        assert not np.shares_memory(state.workspace[0].buffers["c"],
                                    state.workspace[1].buffers["c"])

    def test_evaluate_in_the_workspace_scores_as_without(self, readme_batch):
        config, params, state, rng = readme_run(readme_batch)
        train_step(readme_batch, params, config, TrainConfig(learning_rate=0.01), state, rng)
        nbytes = workspace_nbytes(state)
        fresh = evaluate(readme_batch, params, config, batch_size=3000)
        borrowed = evaluate(readme_batch, params, config, batch_size=3000,
                            workspace=state.workspace)
        assert borrowed == fresh
        assert workspace_nbytes(state) == nbytes

    @pytest.mark.parametrize("batch_size, borrowed", [(64, False), (4096, True)])
    def test_evaluation_borrows_the_workspace_only_where_it_fits(self, batch_size, borrowed,
                                                                 monkeypatch):
        tr, va, _ = TestTrainLoop().sets()
        assert 64 < va.n <= tr.n
        passed, real = [], training_mod.evaluate

        def spy(*args, workspace=None, **kwargs):
            passed.append(workspace)
            return real(*args, workspace=workspace, **kwargs)

        monkeypatch.setattr(training_mod, "evaluate", spy)
        config = ModelConfig(d=4, lcn_depth=1, ecn_depth=1, seed=4)
        train(tr, va, config, TrainConfig(batch_size=batch_size, max_epochs=1),
              log=lambda s: None)
        assert len(passed) == 1 and (passed[0] is not None) == borrowed


# sha256 of the float32 parameter bytes (table, then dense) after README-batch
# train steps from the params ``train`` starts from: two steps per mask mode, and
# the paper mask's 4096, 3136 and 4096 rows. The float64 pins above stay on the
# float64 path.
README_STEP_DIGESTS_FLOAT32 = {
    "paper": "3ffb35616ec3521b1f1b8e8cbf6378557c7547de5deffacab8cb03395f8017f2",
    "identity": "5c1cd809f2399e6dbf401e596f18cf7858fcdf77617787807f613a33c0bd5cbb",
    "no_ln": "dc87e4baaf05617ee7ca8439b071a95208d029f5c4630030a1ebf57e39101634",
}
README_RAGGED_DIGEST_FLOAT32 = "bf4afeb2edfd08213356782fe12c7f1fa151bb0c2e952c89031cc765652afdbe"


def readme_run_float32(batch, mask="paper"):
    config = ModelConfig(mask_mode=mask, seed=1)
    params = init_train_params(config, batch.sizes)
    return config, params, init_adam_state(params), Rng(derive_seed(1, "dropout"))


def float32_steps_digest(batch, mask, rows):
    config, params, state, rng = readme_run_float32(batch, mask)
    for n in rows:
        train_step(batch.rows(slice(0, n)), params, config, TrainConfig(learning_rate=0.01),
                   state, rng)
    assert params.table.dtype == params.dense.dtype == np.float32
    return hashlib.sha256(params.table.tobytes() + params.dense.tobytes()).hexdigest()


def float_roles(state):
    return {(branch, role): flat for branch, ws in zip(("ecn", "lcn"), state.workspace)
            for role, flat in ws.buffers.items() if flat.dtype.kind == "f"}


class TestFloat32Steps:
    """``train`` trains in float32: the same code path as float64, every array
    in the params' dtype, the dropout stream as in float64."""

    def test_ragged_steps_match_pinned_digest(self, readme_batch):
        assert (float32_steps_digest(readme_batch, "paper", (4096, 3136, 4096))
                == README_RAGGED_DIGEST_FLOAT32)

    @pytest.mark.parametrize("mask", MASK_MODES)
    def test_two_steps_match_pinned_digest_threaded_and_serial(self, readme_batch, mask,
                                                               monkeypatch):
        assert readme_batch.n * ModelConfig().d * 8 >= model_mod.PARALLEL_MIN_ACTIVATIONS
        assert float32_steps_digest(readme_batch, mask, (4096, 4096)) == (
            README_STEP_DIGESTS_FLOAT32[mask])
        monkeypatch.setattr(model_mod, "PARALLEL_MIN_ACTIVATIONS", sys.maxsize)
        assert float32_steps_digest(readme_batch, mask, (4096, 4096)) == (
            README_STEP_DIGESTS_FLOAT32[mask])

    def test_keep_masks_and_stream_position_match_float64(self, readme_batch):
        # the float64 uniforms go through a float32 output buffer in two halves:
        # the same words, so the same masks, and the stream ends where it does in float64
        runs = {}
        for dtype in (np.float32, np.float64):
            config, params, state, rng = readme_run_float32(readme_batch)
            params = params.copy(dtype)
            state = init_adam_state(params)
            trace = forward(readme_batch, params, config, training=True, rng=rng,
                            workspace=state.workspace).trace
            assert state.workspace[1].buffers["x_out"].dtype == dtype
            runs[dtype] = [t.keep.copy() for t in trace.ecn + trace.lcn], rng.random(4)
        (masks32, next32), (masks64, next64) = runs[np.float32], runs[np.float64]
        assert len(masks32) == 6
        for a, b in zip(masks32, masks64):
            assert a.dtype == bool and np.array_equal(a, b)
        assert 0.08 < 1.0 - masks32[0].mean() < 0.12  # dropout 0.1
        assert next32.tobytes() == next64.tobytes()

    def test_workspace_dtypes_and_half_the_float_mib(self, readme_batch):
        states = {}
        for dtype in (np.float32, np.float64):
            config, params, state, rng = readme_run_float32(readme_batch)
            params = params.copy(dtype)
            state = init_adam_state(params)
            train_step(readme_batch, params, config, TrainConfig(learning_rate=0.01), state, rng)
            states[dtype] = state
            assert state.m.dtype == state.v.dtype == dtype
            assert state.emb_m.dtype == state.emb_v.dtype == dtype
            assert state.workspace[0].buffers["grads"].dtype == dtype
        lcn32 = states[np.float32].workspace[1].buffers
        assert lcn32["bins"].dtype == np.int64 and lcn32["rows"].dtype == np.int64
        for ws in states[np.float32].workspace:
            assert ws.buffers["keep"].dtype == bool and ws.buffers["act"].dtype == bool
        roles32, roles64 = float_roles(states[np.float32]), float_roles(states[np.float64])
        assert roles32.keys() == roles64.keys()
        for key, flat in roles32.items():
            assert flat.dtype == np.float32, key
            assert 2 * flat.nbytes == roles64[key].nbytes, key
        # README shape, paper mask: the float roles hold 64.95 MiB in float64 and
        # 32.47 in float32; with the 4 MiB bins, the workspaces 68.70 and 40.22
        assert round(workspace_nbytes(states[np.float32]) / 2**20, 2) == 40.22

    def test_gradients_follow_the_params_dtype(self, readme_batch):
        config, params, state, rng = readme_run_float32(readme_batch)
        res = forward(readme_batch, params, config, training=True, rng=rng,
                      workspace=state.workspace)
        report = tri_bce(res.y, res.y_deep, res.y_shallow, readme_batch.labels)
        grads = backward(res.trace, params, config,
                         *tri_bce_grads(res.y, res.y_deep, res.y_shallow,
                                        readme_batch.labels, report))
        assert res.y.dtype == res.trace.x1.dtype == np.float32
        assert grads.dense.dtype == grads.embeddings[1].dtype == np.float32

    # float32 rounds at 6e-8; measured at the README shape: outputs within 1.5e-7 of
    # their largest value, each gradient tensor within 2.4e-6 of its largest entry
    OUTPUT_BOUND, GRADIENT_BOUND = 1e-6, 1e-5

    @pytest.mark.parametrize("mask", MASK_MODES)
    def test_float32_step_is_close_to_float64(self, readme_batch, mask):
        # float32-representable params, so the two differ only in the arithmetic
        config, params32, _, _ = readme_run_float32(readme_batch, mask)
        runs = []
        for params in (params32, params32.copy(np.float64)):
            res = forward(readme_batch, params, config, training=True,
                          rng=Rng(derive_seed(1, "dropout")))
            report = tri_bce(res.y, res.y_deep, res.y_shallow, readme_batch.labels)
            grads = backward(res.trace, params, config,
                             *tri_bce_grads(res.y, res.y_deep, res.y_shallow,
                                            readme_batch.labels, report))
            runs.append((res, grads))
        (res32, grads32), (res64, grads64) = runs

        def close(a, b, bound):
            return np.abs(a.astype(np.float64) - b).max() <= bound * np.abs(b).max()

        for key in ("y", "y_deep", "y_shallow"):
            assert close(getattr(res32, key), getattr(res64, key), self.OUTPUT_BOUND), key
        for (name, a), (_, b) in zip(named_dense(grads32), named_dense(grads64)):
            assert close(a, b, self.GRADIENT_BOUND), name
        assert np.array_equal(grads32.embeddings[0], grads64.embeddings[0])
        assert close(grads32.embeddings[1], grads64.embeddings[1], self.GRADIENT_BOUND)
