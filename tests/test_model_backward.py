"""The hand-derived backward pass against independent oracles."""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

import fcn_ctr.model as model_mod
from fcn_ctr.features import EncodedBatch
from fcn_ctr.model import (BRANCHES, MASK_MODES, BranchWorkspace, CrossLayerParams, LayerTrace,
                           ModelConfig, backward, embed_reshape, forward, init_model_params,
                           self_mask, zero_gradients)
from fcn_ctr.numerics import Rng, derive_seed
from fcn_ctr.objective import tri_bce, tri_bce_grads
from fcn_ctr.training import TrainConfig, init_adam_state, train_step
from fcn_ctr.verification import audit_config


def setup(lcn, ecn, mask="paper", seed=5, f=3, d=4, vocab=4, n=6):
    config = ModelConfig(d=d, lcn_depth=lcn, ecn_depth=ecn, mask_mode=mask,
                         dropout_rate=0.0, seed=seed)
    sizes = [vocab] * f
    params = init_model_params(config, sizes, derive_seed(seed, "init"))
    rng = Rng(derive_seed(seed, "data"))
    ids = rng.integers(vocab, size=(n, f))
    labels = np.arange(n) % 2
    return config, params, EncodedBatch(ids, labels, sizes)


def run_backward(config, params, batch):
    res = forward(batch, params, config, training=True)
    report = tri_bce(res.y, res.y_deep, res.y_shallow, batch.labels)
    gd, gs = tri_bce_grads(res.y, res.y_deep, res.y_shallow, batch.labels, report)
    return res, backward(res.trace, params, config, gd, gs)


class TestBackwardBasics:
    def test_zero_loss_gradient_gives_zero_grads(self):
        config, params, batch = setup(2, 2)
        res = forward(batch, params, config, training=True)
        zeros = np.zeros(batch.n)
        grads = backward(res.trace, params, config, zeros, zeros)
        for layer in grads.lcn_layers + grads.ecn_layers:
            for g in (layer.w, layer.b, layer.gain, layer.beta):
                np.testing.assert_array_equal(g, np.zeros_like(g))
        np.testing.assert_array_equal(grads.heads.w_deep, np.zeros_like(grads.heads.w_deep))
        _, g = grads.embeddings
        np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_missing_trace_rejected(self):
        config, params, batch = setup(1, 1)
        with pytest.raises(ValueError, match="trace"):
            backward(None, params, config, np.zeros(1), np.zeros(1))

    def test_zero_depth_head_gradient_closed_form(self):
        # grad wrt w_deep is sum_i dy_i * y_d_i (1 - y_d_i) * x1_i
        config, params, batch = setup(0, 0)
        res, grads = run_backward(config, params, batch)
        report = tri_bce(res.y, res.y_deep, res.y_shallow, batch.labels)
        gd, _ = tri_bce_grads(res.y, res.y_deep, res.y_shallow, batch.labels, report)
        x1 = embed_reshape(batch.ids, params)
        expected = x1.T @ (gd * res.y_deep * (1.0 - res.y_deep))
        np.testing.assert_allclose(grads.heads.w_deep, expected, rtol=1e-12)

    def test_embedding_scatter_matches_dense_oracle(self):
        # push gradient through the reshape permutation by brute force
        config, params, batch = setup(0, 0, f=2, d=4, n=5)
        res, grads = run_backward(config, params, batch)
        report = tri_bce(res.y, res.y_deep, res.y_shallow, batch.labels)
        gd, gs = tri_bce_grads(res.y, res.y_deep, res.y_shallow, batch.labels, report)
        dz_d = gd * res.y_deep * (1.0 - res.y_deep)
        dz_s = gs * res.y_shallow * (1.0 - res.y_shallow)
        dx1 = np.outer(dz_d, params.heads.w_deep) + np.outer(dz_s, params.heads.w_shallow)
        half = config.d // 2
        rows, g = grads.embeddings
        sparse = np.zeros_like(params.table)
        sparse[rows] = g
        for j, field_rows in enumerate(np.split(sparse, params.offsets[1:])):
            dense = np.zeros_like(params.embeddings[j])
            for r in range(batch.n):
                row = batch.ids[r, j]
                dense[row, :half] += dx1[r, j * half:(j + 1) * half]
                dense[row, half:] += dx1[r, 4 + j * half:4 + (j + 1) * half]
            np.testing.assert_allclose(field_rows, dense, rtol=1e-12, atol=1e-15)

    @staticmethod
    def add_at_scatter(dx1, ids, d):
        # the per-field np.add.at reference the scatter must match bit for bit
        m, half = dx1.shape[1] // 2, d // 2
        out = []
        for j in range(ids.shape[1]):
            de = np.concatenate([dx1[:, j * half:(j + 1) * half],
                                 dx1[:, m + j * half:m + (j + 1) * half]], axis=1)
            uids, inverse = np.unique(ids[:, j], return_inverse=True)
            rows = np.zeros((uids.shape[0], d))
            np.add.at(rows, inverse, de)
            out.append((uids, rows))
        return out

    @pytest.mark.parametrize("d", [2, 4])
    def test_embedding_scatter_bitwise_equals_add_at(self, d):
        # unsorted ids with repeats, and a field whose ids are all equal; the
        # gradients span 16 decades, so any other summation order shows
        n = 40
        config, params, _ = setup(0, 0, f=3, d=d, vocab=7, n=n)
        rng = Rng(17)
        ids = np.stack([rng.integers(7, size=n)[::-1], np.full(n, 4),
                        np.array([6, 0, 6, 3, 0, 6, 1, 3] * 5)], axis=1)
        batch = EncodedBatch(ids, np.arange(n) % 2, [7, 7, 7])
        res = forward(batch, params, config, training=True)
        dy_deep = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
        dy_shallow = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
        grads = backward(res.trace, params, config, dy_deep, dy_shallow)
        dx1 = np.outer(dy_deep * res.y_deep * (1.0 - res.y_deep), params.heads.w_deep)
        dx1 += np.outer(dy_shallow * res.y_shallow * (1.0 - res.y_shallow), params.heads.w_shallow)
        # the reference's per-field rows, offset into the one table, in field order
        ref = self.add_at_scatter(dx1, ids, d)
        ref_rows = np.concatenate([uids + params.offsets[j] for j, (uids, _) in enumerate(ref)])
        ref_grads = np.concatenate([g for _, g in ref])
        rows, g = grads.embeddings
        assert rows.tobytes() == ref_rows.tobytes()
        assert g.shape == ref_grads.shape
        assert g.tobytes() == ref_grads.tobytes()

    def test_untouched_embedding_rows_absent(self):
        config, params, batch = setup(1, 1, vocab=9, n=3)
        _, grads = run_backward(config, params, batch)
        rows, _ = grads.embeddings
        for j, size in enumerate(params.sizes):
            lo = params.offsets[j]
            in_field = rows[(rows >= lo) & (rows < lo + size)] - lo
            assert set(in_field) == set(np.unique(batch.ids[:, j]))
        assert rows.size == sum(len(np.unique(batch.ids[:, j])) for j in range(params.num_fields))

    def test_adding_zero_gradients_is_noop(self):
        config, params, batch = setup(1, 1)
        zeros = zero_gradients(params, np.empty_like(params.dense))
        before = params.copy()
        for layer, glayer in zip(params.lcn_layers + params.ecn_layers,
                                 zeros.lcn_layers + zeros.ecn_layers):
            layer.w += glayer.w
            layer.b += glayer.b
        for a, b in zip(params.lcn_layers, before.lcn_layers):
            np.testing.assert_array_equal(a.w, b.w)


class TestGradientExactness:
    @pytest.mark.parametrize("mask", ["paper", "no_ln", "identity"])
    @pytest.mark.parametrize("depths", [(0, 0), (1, 2), (2, 2), (3, 1)])
    def test_against_finite_differences(self, mask, depths):
        lcn, ecn = depths
        config = ModelConfig(d=4, lcn_depth=lcn, ecn_depth=ecn, mask_mode=mask,
                             dropout_rate=0.0, seed=0)
        err = audit_config(config, num_fields=3, seed=2)
        assert err < 1e-4

    def test_logistic_case_is_tight(self):
        config = ModelConfig(d=4, lcn_depth=0, ecn_depth=0, mask_mode="paper",
                             dropout_rate=0.0, seed=0)
        err = audit_config(config, num_fields=2, seed=1)
        assert err < 1e-8

    @pytest.mark.parametrize("ln_epsilon, clamped", [(0.15, 2), (0.3, 4)])
    def test_clamped_layernorm_rows(self, ln_epsilon, clamped):
        # a row whose cross vector's std is at most epsilon divides by epsilon,
        # and no gradient flows through its std; the audit's two rows have
        # stds 0.21 and 0.10 in the ecn layer, 0.21 and 0.05 in the lcn layer,
        # so 0.15 clamps one row of each and 0.3 every row. Far above the stds
        # the std term is too small to see: letting it flow errs by 7e-7 at 10
        config = ModelConfig(d=4, lcn_depth=1, ecn_depth=1, mask_mode="paper",
                             dropout_rate=0.0, ln_epsilon=ln_epsilon, seed=0)
        ids = Rng(derive_seed(2, "audit-data")).integers(3, size=(2, 2))
        params = init_model_params(config, [3, 3], derive_seed(2, "init"))
        trace = forward(EncodedBatch(ids, np.arange(2) % 2, [3, 3]), params, config,
                        training=True).trace
        layers = trace.ecn + trace.lcn
        stds = np.concatenate([tr.c.std(axis=1) for tr in layers])
        assert np.abs(np.log(stds / ln_epsilon)).min() > 0.3  # far from the kink
        assert sum(int((tr.delta == ln_epsilon).sum()) for tr in layers) == clamped
        assert audit_config(config, num_fields=2, seed=2) < 1e-4

    def test_determinism_bitwise(self):
        config, params, batch = setup(2, 2)
        _, g1 = run_backward(config, params, batch)
        _, g2 = run_backward(config, params, batch)
        for a, b in zip(g1.ecn_layers, g2.ecn_layers):
            np.testing.assert_array_equal(a.w, b.w)
        for a, b in zip(g1.embeddings, g2.embeddings):
            np.testing.assert_array_equal(a, b)

    def test_injected_sign_flip_is_caught(self, flip_bias_gradient):
        # the audit must detect a deliberately corrupted backward path
        config = ModelConfig(d=4, lcn_depth=1, ecn_depth=1, mask_mode="paper",
                             dropout_rate=0.0, seed=0)
        clean = audit_config(config, num_fields=2, seed=1)
        flip_bias_gradient()
        corrupted = audit_config(config, num_fields=2, seed=1)
        assert clean < 1e-4 <= corrupted


class TestBranchThreads:
    """The ecn branch on the worker thread, the lcn branch on the caller's."""

    @staticmethod
    def train_pass(config, params, batch):
        res = forward(batch, params, config, training=True,
                      rng=Rng(derive_seed(config.seed, "dropout")))
        report = tri_bce(res.y, res.y_deep, res.y_shallow, batch.labels)
        gd, gs = tri_bce_grads(res.y, res.y_deep, res.y_shallow, batch.labels, report)
        grads = backward(res.trace, params, config, gd, gs)
        tensors = [res.y, res.y_deep, res.y_shallow]
        for layer in grads.lcn_layers + grads.ecn_layers:
            tensors += [layer.w, layer.b, layer.gain, layer.beta]
        tensors += list(grads.embeddings)
        return b"".join(t.tobytes() for t in tensors)

    @pytest.mark.parametrize("mask", ["paper", "no_ln", "identity"])
    def test_threaded_and_serial_bitwise_equal(self, mask, monkeypatch):
        config, params, batch = setup(3, 2, mask=mask, n=40)
        config.dropout_rate = 0.3
        monkeypatch.setattr(model_mod, "_parallel", lambda activations: False)
        serial = self.train_pass(config, params, batch)
        monkeypatch.setattr(model_mod, "_parallel", lambda activations: True)
        assert self.train_pass(config, params, batch) == serial

    @pytest.mark.parametrize("where", ["cross_layer_forward", "_mask_backward"])
    def test_worker_exception_reaches_caller_unchanged(self, where, monkeypatch):
        config, params, batch = setup(2, 2)
        monkeypatch.setattr(model_mod, "_parallel", lambda activations: True)
        caller = threading.get_ident()
        failure = RuntimeError("failed on the worker")
        real = getattr(model_mod, where)

        def failing(*args, **kwargs):
            if threading.get_ident() != caller:
                raise failure
            return real(*args, **kwargs)

        monkeypatch.setattr(model_mod, where, failing)
        with pytest.raises(RuntimeError) as excinfo:
            run_backward(config, params, batch)
        assert excinfo.value is failure
        # the worker survives its job's exception
        monkeypatch.setattr(model_mod, where, real)
        run_backward(config, params, batch)

    def test_concurrent_callers_share_the_worker(self, monkeypatch):
        # more callers than CPUs, each handing its ecn branch to the one worker
        config, params, batch = setup(3, 3, n=64)
        config.dropout_rate = 0.3
        monkeypatch.setattr(model_mod, "_parallel", lambda activations: False)
        expected = self.train_pass(config, params, batch)
        monkeypatch.setattr(model_mod, "_parallel", lambda activations: True)
        results = []

        def caller():
            for _ in range(5):
                results.append(self.train_pass(config, params, batch))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(6)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert len(results) == 30
        assert all(r == expected for r in results)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_its_own_worker(self, monkeypatch):
        config, params, batch = setup(2, 2)
        monkeypatch.setattr(model_mod, "_parallel", lambda activations: True)
        run_backward(config, params, batch)  # the worker thread exists now
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                run_backward(config, params, batch)
                code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child waited on its parent's worker thread")
            time.sleep(0.05)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


class TestBackwardWorkspace:
    """Every backward spends its trace; by default its gradients are new, with
    a training run's workspace they reuse the buffers the forward ran in."""

    # every layer output of a 2 + 2 trace (the next layer's input, the last one's
    # the branch's) and its branch's index in the (ecn, lcn) workspace pair
    OUTPUTS = {"ecn[1].x_in": 0, "x_ecn": 0, "lcn[1].x_in": 1, "x_lcn": 1}

    @staticmethod
    def loss_grads(res, batch):
        report = tri_bce(res.y, res.y_deep, res.y_shallow, batch.labels)
        return tri_bce_grads(res.y, res.y_deep, res.y_shallow, batch.labels, report)

    @staticmethod
    def trace_arrays(trace):
        """{name: array} of every array a ForwardTrace holds, its layers' included."""
        arrays = {k: a for k, a in vars(trace).items() if isinstance(a, np.ndarray)}
        for branch in BRANCHES:
            for i, tr in enumerate(getattr(trace, branch)):
                arrays.update({f"{branch}[{i}].{k}": a for k, a in vars(tr).items()
                               if isinstance(a, np.ndarray)})
        return arrays

    def test_default_spends_the_trace_and_returns_new_equal_gradients(self):
        config, params, batch = setup(2, 2)
        config.dropout_rate = 0.3
        grads = []
        for _ in range(2):
            res = forward(batch, params, config, training=True, rng=Rng(4))
            before = {k: a.copy() for k, a in self.trace_arrays(res.trace).items()}
            assert {"x_ecn", "x_lcn", "lcn[1].keep", "ecn[1].mu"} <= set(before)
            assert not any(name.endswith(".relu") for name in before)
            grads.append(backward(res.trace, params, config, *self.loss_grads(res, batch)))
            assert res.trace.spent
            after = self.trace_arrays(res.trace)
            assert after.keys() == before.keys()
            # each layer's output in both branches took gradient temporaries: an
            # lcn one its anchor term, an ecn one its dc @ W; nothing else changed
            for name, array in after.items():
                spent = name in self.OUTPUTS
                assert (array.tobytes() == before[name].tobytes()) != spent, name
            for array in after.values():
                assert not np.shares_memory(grads[-1].dense, array)
        first, second = grads
        assert first.dense.tobytes() == second.dense.tobytes()
        for a, b in zip(first.embeddings, second.embeddings):
            assert a.tobytes() == b.tobytes()
        assert not np.shares_memory(first.dense, second.dense)

    def test_workspace_spends_both_branches_outputs_same_grads(self):
        config, params, batch = setup(2, 2)
        res = forward(batch, params, config, training=True)
        expected = backward(res.trace, params, config, *self.loss_grads(res, batch))
        workspace = (BranchWorkspace(), BranchWorkspace())
        res = forward(batch, params, config, training=True, workspace=workspace)
        arrays = self.trace_arrays(res.trace)
        before = {k: a.copy() for k, a in arrays.items()}
        grads = backward(res.trace, params, config, *self.loss_grads(res, batch))
        np.testing.assert_array_equal(grads.dense, expected.dense)
        for got, want in zip(grads.embeddings, expected.embeddings):
            np.testing.assert_array_equal(got, want)
        assert np.shares_memory(grads.dense, workspace[0].buffers["grads"])
        # both branches spend their outputs on dgate: neither holds a dgate buffer
        assert not any("dgate" in ws.buffers for ws in workspace)
        for name, old in before.items():
            if name in self.OUTPUTS:
                buffer = workspace[self.OUTPUTS[name]].buffers["x_out"]
                assert np.shares_memory(arrays[name], buffer), name
                assert not np.array_equal(arrays[name], old), name
            else:
                np.testing.assert_array_equal(arrays[name], old, err_msg=name)

    @pytest.mark.parametrize("mask", MASK_MODES)
    def test_lcn_anchor_terms_stay_in_its_outputs_same_grads(self, mask, monkeypatch):
        config, params, batch = setup(3, 2, mask)
        config.dropout_rate = 0.3
        terms, real = [], model_mod._branch_backward

        def spy(*args):
            dx, anchor_terms = real(*args)
            terms.append(anchor_terms)
            return dx, anchor_terms

        monkeypatch.setattr(model_mod, "_branch_backward", spy)
        grads = []
        for workspace in (None, (BranchWorkspace(), BranchWorkspace())):
            res = forward(batch, params, config, training=True, rng=Rng(4), workspace=workspace)
            grads.append(backward(res.trace, params, config, *self.loss_grads(res, batch)))
        fresh, reused = grads
        np.testing.assert_array_equal(reused.dense, fresh.dense)
        for got, want in zip(reused.embeddings, fresh.embeddings):
            np.testing.assert_array_equal(got, want)
        # each lcn anchor term is its own layer's output slot, last layer first
        (lcn_terms,) = [t for t in terms[2:] if t]  # the ecn's list is empty
        slots = workspace[1].buffers["x_out"].reshape(3, *lcn_terms[0].shape)[::-1]
        assert len(lcn_terms) == 3
        for term, slot in zip(lcn_terms, slots):
            assert np.shares_memory(term, slot) and term.ctypes.data == slot.ctypes.data

    # the roles a branch's layers take in a training step, forward and backward
    LAYER_ROLES = {"x_out", "c", "mu", "delta", "keep", "scratch", "dc", "dnrm", "mean",
                   "act", "dw"}

    @pytest.mark.parametrize("layerless", BRANCHES)
    def test_a_branch_without_layers_holds_no_layer_role(self, layerless):
        other = "lcn" if layerless == "ecn" else "ecn"
        config, params, batch = setup(*((0, 3) if layerless == "lcn" else (3, 0)),
                                      f=8, d=16, n=512)
        config.dropout_rate = 0.1
        state = init_adam_state(params)
        train_step(batch, params, config, TrainConfig(), state, Rng(1))
        roles = {branch: set(ws.buffers) for branch, ws in zip(BRANCHES, state.workspace)}
        # besides its dx, the ecn holds the gradients, the lcn x1 and the scatter's
        # rows (its dx takes the bins); each branch's dgate lives in its outputs
        held = {"ecn": {"dx", "grads"}, "lcn": {"dx", "x1", "rows"}}
        assert roles[layerless] == held[layerless]
        assert roles[other] == held[other] | self.LAYER_ROLES

    @pytest.mark.parametrize("mask", MASK_MODES)
    def test_each_mask_mode_takes_only_the_roles_it_reads(self, mask):
        config, params, batch = setup(3, 3, mask, f=8, d=16, n=512)
        config.dropout_rate = 0.1
        state = init_adam_state(params)
        train_step(batch, params, config, TrainConfig(), state, Rng(1))
        # no_ln has no layernorm, identity no relu gate either: the ecn takes only
        # the masked half of its scratch pair, the lcn all of it for its dc @ W
        unread = {"paper": set(), "no_ln": {"mu", "delta", "dnrm", "act", "mean"}}
        unread["identity"] = unread["no_ln"]
        halves = {"ecn": 1 if mask == "identity" else 2, "lcn": 2}
        for branch, ws in zip(BRANCHES, state.workspace):
            assert set(ws.buffers) & self.LAYER_ROLES == self.LAYER_ROLES - unread[mask], branch
            assert ws.buffers["scratch"].size == halves[branch] * 512 * 64, branch

    def test_a_spent_trace_is_refused(self):
        # the spent lcn outputs hold anchor terms: a second backward would scatter
        # wrong embedding gradients beside dense ones that look right
        config, params, batch = setup(2, 2, f=4, d=4, n=64)
        for workspace in ((BranchWorkspace(), BranchWorkspace()), None):
            res = forward(batch, params, config, training=True, workspace=workspace)
            backward(res.trace, params, config, *self.loss_grads(res, batch))
            with pytest.raises(ValueError, match="spent"):
                backward(res.trace, params, config, *self.loss_grads(res, batch))


class TestRecomputedRelu:
    """The trace keeps no relu gate: ``_mask_backward`` recomputes it from c, mu
    and delta and the layer's gain and beta, bitwise the forward's."""

    @staticmethod
    def cross_rows(m=8):
        g = np.random.default_rng(3)
        c = g.standard_normal((6, m))
        c[1] = 0.7  # zero std: delta is clamped to epsilon
        c[2, 3] = np.inf
        c[3, 5] = np.nan
        c[4, :3] = -np.inf, -0.0, 5e-324
        c[5, :2] = -np.nan, np.inf
        gain = g.standard_normal(m)
        gain[:2] = 0.0, -1.5  # row 1 normalizes to 0: gate inputs +0.0 and -0.0
        beta = np.where(g.random(m) < 0.5, -0.0, g.standard_normal(m))
        beta[:2] = -0.0
        return c, gain, beta

    @pytest.mark.parametrize("mask", ["paper", "no_ln"])
    @pytest.mark.parametrize("reuse", [False, True])
    def test_recomputed_relu_is_the_forward_relu_bit_for_bit(self, mask, reuse):
        c, gain, beta = self.cross_rows()
        n, m = c.shape
        config = ModelConfig(mask_mode=mask)
        layer = CrossLayerParams(np.zeros((m, 2 * m)), np.zeros(m), gain, beta)
        ws = BranchWorkspace()
        with np.errstate(invalid="ignore", over="ignore"):
            # the forward as a training run makes it, its relu in the second half
            # of the branch's scratch pair
            _, stats = self_mask(c, gain, beta, mask, config.ln_epsilon,
                                 ws.forward_views(1, n, 2 * m, mask)[0])
            pair_relu = ws.buffers["scratch"].reshape(2, n, m)[1]
            forward_relu = pair_relu.copy()
            tr = LayerTrace(np.zeros((n, 2 * m)), c, None, **stats)
            assert "relu" not in vars(tr)
            if mask == "paper":
                assert tr.delta[1, 0] == config.ln_epsilon and np.isnan(tr.delta[2:, 0]).all()
            grads = CrossLayerParams(*(np.zeros_like(t) for t in vars(layer).values()))
            dgate = np.random.default_rng(4).standard_normal((n, 2 * m))
            out = ws.backward_views(n, 2 * m, mask) if reuse else {}
            _, relu = model_mod._mask_backward(dgate, tr, layer, config, grads, out)
        assert np.shares_memory(relu, pair_relu) == reuse
        assert np.isnan(forward_relu).any() and (forward_relu == 0.0).any()
        assert relu.view(np.uint64).tobytes() == forward_relu.view(np.uint64).tobytes()


class TestRebuiltGate:
    """The backward rebuilds each layer's gate from its trace (``model._gate``
    over ``model._masked``): bitwise the gate the forward multiplied into the
    layer's output, on every path, with and without dropout."""

    @staticmethod
    def record_gates(monkeypatch):
        """Patch ``_gate`` to record (c, a copy of the gate) of every call."""
        calls, real = [], model_mod._gate

        def spy(c, *args):
            gate = real(c, *args)
            calls.append((c, gate.copy()))
            return gate

        monkeypatch.setattr(model_mod, "_gate", spy)
        return calls

    @staticmethod
    def gate_of(tr, calls):
        (gate,) = [g for c, g in calls if c is tr.c]
        return gate

    @pytest.mark.parametrize("mask", MASK_MODES)
    @pytest.mark.parametrize("rate", [0.0, 0.5])
    @pytest.mark.parametrize("path", ["serial", "threaded"])
    @pytest.mark.parametrize("reuse", [False, True])
    def test_backward_gate_is_the_forward_gate(self, mask, rate, path, reuse, monkeypatch):
        rows = model_mod.PARALLEL_MIN_ACTIVATIONS // 12 + 1
        config, params, batch = setup(3, 2, mask=mask, n=rows)
        config.dropout_rate = rate
        activations = []
        monkeypatch.setattr(model_mod, "_parallel", lambda a: activations.append(a) or (
            path == "threaded"))
        calls = self.record_gates(monkeypatch)
        workspace = (BranchWorkspace(), BranchWorkspace()) if reuse else None
        res = forward(batch, params, config, training=True, rng=Rng(8), workspace=workspace)
        trace, forward_calls = res.trace, calls[:]
        del calls[:]
        assert activations[0] >= model_mod.PARALLEL_MIN_ACTIVATIONS
        for branch in BRANCHES:
            layers = getattr(trace, branch)
            outputs = [tr.x_in for tr in layers[1:]] + [getattr(trace, "x_" + branch)]
            for tr, output in zip(layers, outputs):
                gate = self.gate_of(tr, forward_calls)
                # the recorded gate is the one the output was made from
                expected = np.multiply(tr.x_in if branch == "ecn" else trace.x1, gate)
                expected += tr.x_in
                assert expected.tobytes() == output.tobytes()
        report = tri_bce(res.y, res.y_deep, res.y_shallow, batch.labels)
        backward(trace, params, config,
                 *tri_bce_grads(res.y, res.y_deep, res.y_shallow, batch.labels, report))
        layers = trace.ecn + trace.lcn
        assert len(forward_calls) == len(calls) == len(layers) == 5
        for tr in layers:
            assert self.gate_of(tr, calls).tobytes() == self.gate_of(tr, forward_calls).tobytes()

    @pytest.mark.parametrize("mask", MASK_MODES)
    @pytest.mark.parametrize("depths", [(3, 2), (2, 3)])
    def test_stacked_forward_gate_is_the_rebuilt_gate(self, mask, depths, monkeypatch):
        config, params, batch = setup(*depths, mask=mask, n=40)
        calls = self.record_gates(monkeypatch)
        forward(batch, params, config)
        stacked = [g for _, g in calls]
        res = forward(batch, params, config, training=True)
        del calls[:]
        report = tri_bce(res.y, res.y_deep, res.y_shallow, batch.labels)
        backward(res.trace, params, config,
                 *tri_bce_grads(res.y, res.y_deep, res.y_shallow, batch.labels, report))
        ecn = [self.gate_of(tr, calls) for tr in res.trace.ecn]
        lcn = [self.gate_of(tr, calls) for tr in res.trace.lcn]
        shared = min(depths)
        # the shared layers ran as (2, n, D) stacks of [lcn, ecn], then the deeper branch
        assert [g.shape for g in stacked[:shared]] == [(2, 40, 12)] * shared
        want = [np.stack(pair) for pair in zip(lcn, ecn)] + ecn[shared:] + lcn[shared:]
        assert len(stacked) == len(want) == max(depths)
        for got, gate in zip(stacked, want):
            assert got.tobytes() == gate.tobytes()
