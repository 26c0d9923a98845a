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
from fcn_ctr.model import (ModelConfig, backward, embed_reshape, forward,
                           init_model_params, zero_gradients)
from fcn_ctr.numerics import Rng, derive_seed
from fcn_ctr.objective import tri_bce, tri_bce_grads
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
        for sparse in grads.embeddings:
            np.testing.assert_array_equal(sparse[1], np.zeros_like(sparse[1]))

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
        x1 = embed_reshape(batch.ids, params, config.d)
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
        for j in range(2):
            dense = np.zeros_like(params.embeddings[j])
            for r in range(batch.n):
                row = batch.ids[r, j]
                dense[row, :half] += dx1[r, j * half:(j + 1) * half]
                dense[row, half:] += dx1[r, 4 + j * half:4 + (j + 1) * half]
            uids, rows = grads.embeddings[j]
            sparse = np.zeros_like(dense)
            sparse[uids] = rows
            np.testing.assert_allclose(sparse, dense, rtol=1e-12, atol=1e-15)

    def test_untouched_embedding_rows_absent(self):
        config, params, batch = setup(1, 1, vocab=9, n=3)
        _, grads = run_backward(config, params, batch)
        for j in range(params.num_fields):
            uids, _ = grads.embeddings[j]
            assert set(uids) == set(np.unique(batch.ids[:, j]))

    def test_adding_zero_gradients_is_noop(self):
        config, params, batch = setup(1, 1)
        zeros = zero_gradients(params)
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

    def test_determinism_bitwise(self):
        config, params, batch = setup(2, 2)
        _, g1 = run_backward(config, params, batch)
        _, g2 = run_backward(config, params, batch)
        for a, b in zip(g1.ecn_layers, g2.ecn_layers):
            np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(g1.embeddings[0][1], g2.embeddings[0][1])

    def test_injected_sign_flip_is_caught(self, monkeypatch):
        # the audit must detect a deliberately corrupted backward path
        config = ModelConfig(d=4, lcn_depth=1, ecn_depth=1, mask_mode="paper",
                             dropout_rate=0.0, seed=0)
        clean = audit_config(config, num_fields=2, seed=1)
        monkeypatch.setattr(model_mod, "_inject_grad_sign_flip", True)
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
        for uids, rows in grads.embeddings:
            tensors += [uids, rows]
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
