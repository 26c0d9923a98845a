"""Forward-pass behavior: reshape layout, self-mask, cross layers, heads,
parameter accounting, and the field-wise importance views."""

import copy
import dataclasses
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import fcn_ctr.model as model_mod
from fcn_ctr.checkpoint import checkpoint_bytes, parse_checkpoint
from fcn_ctr.features import (OOV_TOKEN, EncodedBatch, FeatureSchema, FieldSpec, build_schema,
                              encode)
from fcn_ctr.model import (BRANCHES, CrossLayerParams, ModelConfig,
                           ModelParams, cross_layer_forward, embed_reshape,
                           field_importance, forward, forward_from_x1,
                           init_model_params, layer_views, named_tensors,
                           param_count, self_mask, sigmoid)
from fcn_ctr.numerics import Rng, derive_seed
from fcn_ctr.training import TrainConfig, init_adam_state, predict_scores, train_step


def manual_params(embeddings, lcn=(), ecn=(), w_deep=None, w_shallow=None):
    # the layers' and heads' tensors packed into dense in dense_layout's order
    tables = [np.asarray(e, dtype=np.float64) for e in embeddings]
    D = sum(t.shape[1] for t in tables)
    heads = [np.zeros(D) if w_deep is None else w_deep, np.zeros(1),
             np.zeros(D) if w_shallow is None else w_shallow, np.zeros(1)]
    dense = np.concatenate([np.ravel(t) for layer in (*lcn, *ecn) for t in vars(layer).values()]
                           + [np.ravel(t) for t in heads], dtype=np.float64)
    return ModelParams(np.concatenate(tables or [np.empty((0, 0))]), [len(t) for t in tables],
                       dense, len(lcn), len(ecn))


def plain_layer(w, b=None):
    w = np.asarray(w, dtype=np.float64)
    m = w.shape[0]
    return CrossLayerParams(w=w, b=np.zeros(m) if b is None else np.asarray(b, float),
                            gain=np.ones(m), beta=np.zeros(m))


class TestEmbedReshape:
    def test_two_view_layout(self):
        # e1 = (1,2,3,4), e2 = (5,6,7,8): halves interleave by field
        params = manual_params([[[1, 2, 3, 4]], [[5, 6, 7, 8]]])
        x1 = embed_reshape(np.array([[0, 0]]), params)
        np.testing.assert_array_equal(x1, [[1, 2, 5, 6, 3, 4, 7, 8]])

    def test_single_field_is_identity(self):
        params = manual_params([[[1.5, -2.0, 0.25, 9.0]]])
        x1 = embed_reshape(np.array([[0]]), params)
        np.testing.assert_array_equal(x1, [[1.5, -2.0, 0.25, 9.0]])

    def test_zero_embeddings(self):
        params = manual_params([np.zeros((3, 4)), np.zeros((2, 4))])
        x1 = embed_reshape(np.array([[2, 1], [0, 0]]), params)
        np.testing.assert_array_equal(x1, np.zeros((2, 8)))

    def test_id_out_of_range(self):
        params = manual_params([np.zeros((3, 4))])
        with pytest.raises(ValueError, match="out of range"):
            embed_reshape(np.array([[3]]), params)


    @staticmethod
    def concatenate_layout(ids, params, d):
        # the reference layout: every field's first halves, then its second halves
        tables = params.embeddings
        rows = [tables[j][ids[:, j]] for j in range(len(tables))]
        return np.concatenate([e[:, :d // 2] for e in rows] + [e[:, d // 2:] for e in rows],
                              axis=-1)

    @pytest.mark.parametrize("f", [1, 8])
    @pytest.mark.parametrize("d", [2, 16])
    @pytest.mark.parametrize("n", [1, 37])
    def test_matches_concatenate_layout(self, f, d, n):
        rng = Rng(4)
        params = manual_params([rng.standard_normal((3 + j, d)) for j in range(f)])
        ids = np.stack([rng.integers(3 + j, size=n) for j in range(f)], axis=-1)
        x1 = embed_reshape(ids, params)
        expected = self.concatenate_layout(ids, params, d)
        assert x1.shape == expected.shape == (n, f * d)
        assert x1.tobytes() == expected.tobytes()

    LAYOUTS = {"int64": lambda ids: ids, "int32": lambda ids: ids.astype(np.int32),
               "non-contiguous": lambda ids: np.repeat(ids, 2, axis=1)[:, ::2]}

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("field, bad", [(1, -1), (1, 5), (0, 3), (0, -2**31)],
                             ids=["-1", "5", "field0-3", "field0-huge-negative"])
    def test_out_of_range_names_field_and_range(self, field, bad, layout):
        # in the one table, field 0's id 3 would be field 1's first row
        params = manual_params([np.arange(12.0).reshape(3, 4), np.arange(20.0).reshape(5, 4)])
        ids = np.array([[0, 2], [1, 4]])
        good = self.LAYOUTS[layout](ids.copy())
        assert embed_reshape(good, params).tobytes() == \
            self.concatenate_layout(ids, params, 4).tobytes()
        ids[1, field] = bad
        size = len(params.embeddings[field])
        with pytest.raises(ValueError,
                           match=rf"^field {field}: id out of range \[0, {size}\) in batch$"):
            embed_reshape(self.LAYOUTS[layout](ids), params)


class TestSelfMask:
    def ones_like(self, n):
        return np.ones(n), np.zeros(n)

    def test_constant_vector_fully_masked(self):
        # zero variance: normalized vector is 0, relu gate closes everywhere
        gain, beta = self.ones_like(4)
        masked, _ = self_mask(np.array([1.0, 1.0, 1.0, 1.0]), gain, beta)
        np.testing.assert_array_equal(masked, np.zeros(4))

    def test_two_entry_hand_case(self):
        # c = (1, -1): mean 0, std 1, gate (1, 0)
        gain, beta = self.ones_like(2)
        masked, _ = self_mask(np.array([1.0, -1.0]), gain, beta)
        np.testing.assert_allclose(masked, [1.0, 0.0])

    def test_standard_normal_half_sparse(self):
        gain, beta = self.ones_like(1000)
        c = Rng(11).standard_normal(1000)
        masked, _ = self_mask(c, gain, beta)
        frac = (masked == 0.0).mean()
        assert 0.45 <= frac <= 0.55

    def test_no_ln_mode(self):
        gain, beta = self.ones_like(3)
        masked, _ = self_mask(np.array([2.0, -3.0, 0.5]), gain, beta, mode="no_ln")
        np.testing.assert_allclose(masked, [4.0, 0.0, 0.25])

    def test_identity_mode(self):
        gain, beta = self.ones_like(3)
        c = np.array([2.0, -3.0, 0.5])
        masked, _ = self_mask(c, gain, beta, mode="identity")
        np.testing.assert_array_equal(masked, c)

    def test_beta_shifts_gate_open(self):
        gain = np.ones(256)
        beta = np.full(256, 10.0)
        c = Rng(3).standard_normal(256)
        masked, _ = self_mask(c, gain, beta)
        assert (masked == 0.0).mean() < 0.01


class TestCrossLayer:
    def test_dead_layer_is_identity(self):
        layer = plain_layer(np.zeros((2, 4)))
        x = Rng(1).uniform(-1, 1, (3, 4))
        out, _ = cross_layer_forward(x, x, layer, "paper", 1e-5)
        np.testing.assert_array_equal(out, x)

    def test_identity_mode_hand_case(self):
        # c = 1.5, gate (1.5, 1.5), out = (2.5, 5)
        layer = plain_layer([[0.5, 0.5]])
        x = np.array([[1.0, 2.0]])
        out, _ = cross_layer_forward(x, x, layer, "identity", 1e-5)
        np.testing.assert_allclose(out, [[2.5, 5.0]])

    def test_paper_mode_hand_case(self):
        # single-entry layernorm has zero std: masked half closes, out = (2.5, 2)
        layer = plain_layer([[0.5, 0.5]])
        x = np.array([[1.0, 2.0]])
        out, _ = cross_layer_forward(x, x, layer, "paper", 1e-5)
        np.testing.assert_allclose(out, [[2.5, 2.0]])

    def test_shape_mismatch(self):
        layer = plain_layer(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="shape"):
            cross_layer_forward(np.zeros((1, 6)), np.zeros((1, 6)), layer, "paper", 1e-5)


def trace_gate(tr, layer, config):
    """A layer's gate after dropout, rebuilt from its trace and its params as
    the backward does: the trace keeps no relu gate, so the mask is recomputed."""
    masked, _ = self_mask(tr.c, layer.gain, layer.beta, config.mask_mode, config.ln_epsilon)
    return model_mod._gate(tr.c, masked, tr.keep, config.dropout_rate)


def without_dropout(config):
    """``config`` at dropout rate 0: its training forward is traced inference."""
    return dataclasses.replace(config, dropout_rate=0.0)


def small_setup(lcn_depth, ecn_depth, mask="paper", dropout=0.0, seed=5,
                f=3, d=4, vocab=4, n=8):
    config = ModelConfig(d=d, lcn_depth=lcn_depth, ecn_depth=ecn_depth,
                         mask_mode=mask, dropout_rate=dropout, seed=seed)
    sizes = [vocab] * f
    params = init_model_params(config, sizes, derive_seed(seed, "init"))
    rng = Rng(derive_seed(seed, "data"))
    ids = rng.integers(vocab, size=(n, f))
    labels = (rng.random(n) < 0.5).astype(np.int64)
    return config, params, EncodedBatch(ids, labels, sizes)


class TestForward:
    def test_all_zero_params_give_half(self):
        config, params, batch = small_setup(2, 2)
        for e in params.embeddings:
            e[...] = 0.0
        for layer in params.lcn_layers + params.ecn_layers:
            layer.w[...] = 0.0
            layer.b[...] = 0.0
        params.heads.w_deep[...] = 0.0
        params.heads.w_shallow[...] = 0.0
        res = forward(batch, params, config)
        np.testing.assert_array_equal(res.y, np.full(batch.n, 0.5))
        np.testing.assert_array_equal(res.y_deep, np.full(batch.n, 0.5))

    def test_zero_depth_is_logistic_regression(self):
        config, params, batch = small_setup(0, 0)
        res = forward(batch, params, config)
        x1 = embed_reshape(batch.ids, params)
        expect_deep = sigmoid(x1 @ params.heads.w_deep + params.heads.b_deep[0])
        np.testing.assert_allclose(res.y_deep, expect_deep, rtol=1e-15)

    def test_fusion_identity_exact(self):
        config, params, batch = small_setup(2, 3)
        res = forward(batch, params, config)
        np.testing.assert_array_equal(res.y, 0.5 * (res.y_deep + res.y_shallow))

    def test_outputs_in_open_interval(self):
        config, params, batch = small_setup(3, 3)
        res = forward(batch, params, config)
        for v in (res.y, res.y_deep, res.y_shallow):
            assert np.all(v > 0.0) and np.all(v < 1.0)

    def test_deterministic_inference(self):
        config, params, batch = small_setup(2, 2)
        a = forward(batch, params, config)
        b = forward(batch, params, config)
        np.testing.assert_array_equal(a.y, b.y)

    def test_training_dropout_replayable_and_scaled(self):
        config, params, batch = small_setup(1, 1, dropout=0.5, n=64)
        rng = Rng(99)
        res = forward(batch, params, config, training=True, rng=rng)
        # the training forward at rate 0 traces the same layers without dropout
        free = forward(batch, params, without_dropout(config), training=True)
        for tr, tr_free, layer in ((res.trace.ecn[0], free.trace.ecn[0], params.ecn_layers[0]),
                                   (res.trace.lcn[0], free.trace.lcn[0], params.lcn_layers[0])):
            keep = tr.keep
            gate, gate_free = trace_gate(tr, layer, config), trace_gate(tr_free, layer, config)
            assert tr_free.keep is None
            assert keep.dtype == bool and keep.shape == gate.shape == (64, tr.x_in.shape[1])
            assert 0.4 <= 1.0 - keep.mean() <= 0.6
            # the first layer's gate without dropout is the same gate: a kept
            # entry is it times 1/(1 - rate) bit for bit, a dropped one is ±0
            assert gate[keep].tobytes() == (gate_free[keep] * 2.0).tobytes()
            assert (gate[~keep] == 0.0).all()

    def test_inference_has_no_dropout(self):
        # inference at rate 0.5 draws nothing from the rng it is given, keeps no
        # trace, and gives the bits of the forward at rate 0
        config, params, batch = small_setup(1, 1, dropout=0.5)
        rng = Rng(1)
        res = forward(batch, params, config, training=False, rng=rng)
        assert rng.random(4).tobytes() == Rng(1).random(4).tobytes()
        free = forward(batch, params, without_dropout(config), training=True)
        assert res.trace is None and free.trace.ecn[0].keep is None
        for name in ("y", "y_deep", "y_shallow"):
            assert getattr(res, name).tobytes() == getattr(free, name).tobytes()

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
    def test_keep_mask_then_scale_is_the_float_mask_product(self, rate):
        # the gate and dgate are multiplied by the bool keep mask and then by
        # s = 1/(1 - rate); a float mask (u >= rate) / (1 - rate) gives the same
        # bits for every float64, and NaN in the same places
        rng = Rng(7)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, np.inf,
                            -np.inf, np.nan, -np.nan, 1.7976931348623157e308, -1.0, 1.0])
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            # every binary exponent, subnormals included
            spread = np.ldexp(rng.standard_normal(100_000), rng.integers(2098, 100_000) - 1074)
            g = np.concatenate([np.tile(special, 1000), spread])
            u = rng.random(g.shape)
            expected = g * ((u >= rate) / (1.0 - rate))
            got = g * (u >= rate)
            got *= 1.0 / (1.0 - rate)
        nan = np.isnan(expected)
        assert nan.any() and (np.isnan(got) == nan).all()
        assert got[~nan].tobytes() == expected[~nan].tobytes()

    def test_dropout_without_rng_is_an_error(self):
        config, params, batch = small_setup(1, 1, dropout=0.1)
        with pytest.raises(ValueError, match="training-mode dropout requires an rng"):
            forward(batch, params, config, training=True)

    def test_dropout_without_rng_is_an_error_from_the_ecn_worker(self, monkeypatch):
        config, params, batch = small_setup(2, 2, dropout=0.1, f=8, d=16, n=256)
        assert batch.n * params.width >= model_mod.PARALLEL_MIN_ACTIVATIONS
        monkeypatch.setattr(model_mod, "_parallel",
                            lambda a: a >= model_mod.PARALLEL_MIN_ACTIVATIONS)
        raised, real = {}, model_mod._branch_forward

        def spy(*args):
            try:
                return real(*args)
            except ValueError as exc:
                raised[threading.get_ident()] = exc
                raise

        monkeypatch.setattr(model_mod, "_branch_forward", spy)
        with pytest.raises(ValueError, match="training-mode dropout requires an rng") as excinfo:
            forward(batch, params, config, training=True)
        # both branches raise, and the ecn worker's error comes out through its future
        caller = threading.get_ident()
        assert caller in raised and len(raised) == 2
        worker = next(ident for ident in raised if ident != caller)
        assert excinfo.value is raised[worker]

    def test_trace_only_in_training_by_default(self):
        config, params, batch = small_setup(1, 1)
        assert forward(batch, params, config).trace is None
        assert forward(batch, params, config, training=True).trace is not None


class TestParamCount:
    def test_worked_example(self):
        # f=4, d=4: D=16, per layer 152, six layers plus two heads: 946
        config = ModelConfig(d=4, lcn_depth=3, ecn_depth=3, seed=0)
        counts = param_count(config, [5, 5, 5, 5])
        assert counts["per_layer"] == 152
        assert counts["non_embedding_total"] == 946
        assert counts["embedding"] == 4 * 20

    def test_zero_depth(self):
        config = ModelConfig(d=4, lcn_depth=0, ecn_depth=0, seed=0)
        counts = param_count(config, [3, 3])
        assert counts["non_embedding_total"] == 2 * (8 + 1)

    def test_branch_scaling_leading_term(self):
        # one branch of depth L carries D^2 L / 2 plus lower-order terms
        for d, f, L in ((4, 4, 2), (8, 8, 3), (16, 8, 4)):
            config = ModelConfig(d=d, lcn_depth=0, ecn_depth=L, seed=0)
            D = d * f
            counts = param_count(config, [7] * f)
            leading = D * D * L // 2
            assert counts["ecn_cross"] == leading + 3 * D * L // 2
            assert counts["non_embedding_total"] == leading + 3 * D * L // 2 + 2 * (D + 1)
            # everything beyond the leading term vanishes as O(1/D)
            assert abs(counts["non_embedding_total"] - leading) / leading <= 6.0 / D

    def test_counts_match_actual_tensors(self):
        config = ModelConfig(d=4, lcn_depth=2, ecn_depth=1, seed=0)
        sizes = [3, 5, 4]
        params = init_model_params(config, sizes, 1)
        total = sum(l.w.size + l.b.size + l.gain.size + l.beta.size
                    for l in params.lcn_layers + params.ecn_layers)
        total += sum(v.size for v in (params.heads.w_deep, params.heads.b_deep,
                                      params.heads.w_shallow, params.heads.b_shallow))
        counts = param_count(config, sizes)
        assert counts["non_embedding_total"] == total
        assert counts["embedding"] == sum(e.size for e in params.embeddings)


class TestFlatStore:
    def params(self):
        config = ModelConfig(d=4, lcn_depth=2, ecn_depth=1, seed=0)
        return init_model_params(config, [3, 5, 4], 1)

    def test_named_tensors_view_dense_in_checkpoint_order(self):
        params = self.params()
        named = named_tensors(params)
        layer = ["w", "b", "gain", "beta"]
        assert [name for name, _ in named] == (
            [f"embeddings[{j}]" for j in range(3)]
            + [f"lcn_layers[{i}].{k}" for i in range(2) for k in layer]
            + [f"ecn_layers[0].{k}" for k in layer]
            + ["heads.w_deep", "heads.b_deep", "heads.w_shallow", "heads.b_shallow"])
        base = params.dense.__array_interface__["data"][0]
        pos = 0
        for (_, t), e in zip(named, params.embeddings):
            assert t is e and t.base is params.table and not np.shares_memory(t, params.dense)
        # the per-field tables are consecutive row ranges of the one table
        assert params.table.shape == (12, 4) and params.offsets.tolist() == [0, 3, 8]
        params.table[3, 0] = 9.0
        assert params.embeddings[1][0, 0] == 9.0
        for _, t in named[3:]:
            assert t.base is params.dense
            assert t.__array_interface__["data"][0] == base + 8 * pos
            pos += t.size
        assert pos == params.dense.size
        # the layer and head fields are those same views
        assert params.lcn_layers[1].gain.__array_interface__ == named[3 + 6][1].__array_interface__
        assert params.heads.b_shallow.__array_interface__ == named[-1][1].__array_interface__
        params.dense[-1] = 7.0
        assert params.heads.b_shallow[0] == 7.0

    def test_zero_fields(self):
        # a checkpoint may hold no field (the loader accepts one): a constant predictor
        params = manual_params([])
        assert params.num_fields == 0 and params.table.size == 0
        assert embed_reshape(np.zeros((2, 0), np.int64), params).shape == (2, 0)

    def test_constructor_adopts_the_table(self):
        # both arrays are adopted as they are, and the tensor fields view them
        params = self.params()
        twin = ModelParams(params.table, params.sizes, params.dense, 2, 1)
        assert twin.table is params.table and twin.dense is params.dense
        assert all(e.base is params.table for e in twin.embeddings)
        assert all(t.base is params.dense for _, t in named_tensors(twin)[3:])
        with pytest.raises(ValueError, match="table: expected 12 rows"):
            ModelParams(params.table[:11], params.sizes, params.dense, 2, 1)

    def test_an_empty_field_is_refused(self):
        # one draw for the whole table must still refuse a field with no row
        config = ModelConfig(d=4, lcn_depth=1, ecn_depth=1, seed=0)
        with pytest.raises(ValueError):
            init_model_params(config, [3, 0], 1)

    def test_init_holds_the_table_once(self):
        # the table is drawn in place: what init allocates beyond the params it
        # returns stays near nothing (per-field draws packed into it took 2x)
        config = ModelConfig(d=64, lcn_depth=1, ecn_depth=1)
        tracemalloc.start()
        try:
            params = init_model_params(config, [20_000] * 2, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = params.table.nbytes + params.dense.nbytes
        assert peak <= 1.25 * held, (peak, held)

    def test_copy_shares_no_memory(self):
        params = self.params()
        twin = params.copy()
        assert twin.dense.tobytes() == params.dense.tobytes()
        for (name, a), (_, b) in zip(named_tensors(params), named_tensors(twin)):
            assert a.tobytes() == b.tobytes(), name
            assert not np.shares_memory(a, b), name
        for _, t in named_tensors(twin)[3:]:
            assert t.base is twin.dense
        twin.ecn_layers[0].w[0, 0] += 1.0
        assert twin.ecn_layers[0].w[0, 0] != params.ecn_layers[0].w[0, 0]

    def test_constructor_packs_copies(self):
        layer = plain_layer(np.ones((2, 4)))
        params = manual_params([np.zeros((3, 4))], lcn=[layer])
        assert params.lcn_layers[0].w.base is params.dense
        layer.w[...] = 5.0
        np.testing.assert_array_equal(params.lcn_layers[0].w, np.ones((2, 4)))

    def test_constructor_refuses_wrong_shape(self):
        # dense's length follows from the width and the depths: one value more or
        # fewer, or one layer more than it holds, is refused
        params = manual_params([np.zeros((3, 4))], lcn=[plain_layer(np.ones((2, 4)))])
        size = model_mod.dense_size(4, 1, 0)
        assert params.dense.size == size == 2 * 4 + 3 * 2 + 2 * 4 + 2
        for dense, depths in ((params.dense[:-1], (1, 0)), (np.zeros(size + 1), (1, 0)),
                              (params.dense, (1, 1))):
            with pytest.raises(ValueError, match=r"dense: expected \d+ values"):
                ModelParams(params.table, params.sizes, dense, *depths)


class TestFieldImportance:
    def batch_for(self, params, config, n=6, seed=2):
        f = params.num_fields
        rng = Rng(seed)
        ids = rng.integers(params.embeddings[0].shape[0], size=(n, f))
        return EncodedBatch(ids, np.zeros(n, dtype=np.int64),
                            [e.shape[0] for e in params.embeddings])

    def test_uniform_weights_uniform_pairs(self):
        config, params, batch = small_setup(0, 1, f=3, d=4)
        params.ecn_layers[0].w[...] = 1.0
        _, _, pair = field_importance(params, config, batch, 0, "ecn")
        np.testing.assert_allclose(pair, np.sqrt(config.d ** 2 / 2.0))

    def test_identity_mode_sparsity_near_zero(self):
        config, params, batch = small_setup(0, 1, mask="identity")
        _, sparsity, _ = field_importance(params, config, batch, 0, "ecn")
        assert sparsity.max() < 0.05

    def test_zero_block_gives_zero_pair_entry(self):
        config, params, batch = small_setup(0, 1, f=2, d=2)
        w = params.ecn_layers[0].w  # (2, 4); field 1 columns are 1 and 3
        w[...] = 1.0
        w[0, 1] = 0.0
        w[0, 3] = 0.0
        _, _, pair = field_importance(params, config, batch, 0, "ecn")
        assert pair[0, 1] == 0.0
        assert pair[0, 0] > 0.0

    def test_bad_layer_index(self):
        config, params, batch = small_setup(1, 1)
        with pytest.raises(ValueError, match="out of range"):
            field_importance(params, config, batch, 1, "lcn")

    def test_empty_batch_is_an_error(self):
        # no row gives no mean: an error, not nan views and numpy warnings
        config, params, batch = small_setup(1, 1, n=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for branch in BRANCHES:
                with pytest.raises(ValueError, match="at least one row"):
                    field_importance(params, config, batch, 0, branch)

    @staticmethod
    def per_field_loops(c, masked, w, f, half):
        """The three views one field and one block at a time: the reference."""
        m = f * half
        cross_strengths, mask_sparsity, pair = np.empty(f), np.empty(f), np.empty((f, f))
        for i in range(f):
            seg = slice(i * half, (i + 1) * half)
            cross_strengths[i] = np.sqrt((c[:, seg] ** 2).sum(axis=1)).mean()
            mask_sparsity[i] = float((masked[:, seg] == 0.0).mean())
            rows = w[seg]
            for j in range(f):
                block = np.concatenate([rows[:, j * half:(j + 1) * half],
                                        rows[:, m + j * half:m + (j + 1) * half]], axis=1)
                pair[i, j] = np.sqrt((block ** 2).sum())
        return cross_strengths, mask_sparsity, pair

    @pytest.mark.parametrize("f, d, n, mask, branch, layer", [
        (1, 2, 1, "paper", "ecn", 0), (2, 4, 7, "no_ln", "lcn", 1),
        (3, 4, 64, "identity", "ecn", 1), (3, 8, 300, "paper", "lcn", 0),
        (5, 6, 1000, "paper", "ecn", 1), (8, 16, 4096, "paper", "lcn", 1),
        (8, 16, 4096, "no_ln", "ecn", 0), (4, 2, 4096, "paper", "ecn", 0)])
    def test_matches_per_field_loops(self, f, d, n, mask, branch, layer):
        config, params, batch = small_setup(2, 2, mask=mask, f=f, d=d, n=n)
        trace = forward(batch, params, without_dropout(config), training=True).trace
        tr = (trace.ecn if branch == "ecn" else trace.lcn)[layer]
        lp = (params.ecn_layers if branch == "ecn" else params.lcn_layers)[layer]
        got = field_importance(params, config, batch, layer, branch)
        # the masked view: the forward's self-mask of the trace's c, recomputed from c
        masked, _ = self_mask(tr.c, lp.gain, lp.beta, mask, config.ln_epsilon)
        expected = self.per_field_loops(tr.c, masked, lp.w, f, d // 2)
        for name, a, b in zip(("cross_strengths", "mask_sparsity", "pair"), got, expected):
            assert a.shape == b.shape and np.array_equal(a, b), name


def trace_arrays(trace):
    """Every array a ForwardTrace holds, its layer traces' included."""
    arrays = [trace.x1, trace.x_ecn, trace.x_lcn, trace.z_deep, trace.z_shallow,
              trace.y_deep, trace.y_shallow]
    for tr in trace.ecn + trace.lcn:
        arrays += [a for a in vars(tr).values() if isinstance(a, np.ndarray)]
    return arrays


class TestFreshTracesOutsideTraining:
    """Only a training run passes a workspace: no other trace aliases one."""

    @staticmethod
    def assert_disjoint(first, second):
        for a in first:
            for b in second:
                assert not np.shares_memory(a, b)

    def test_consecutive_traced_forwards_share_no_memory(self):
        config, params, batch = small_setup(2, 3, dropout=0.2, n=40)
        for cfg, rng in ((without_dropout(config), None), (config, Rng(1))):
            first = forward(batch, params, cfg, training=True, rng=rng).trace
            second = forward(batch, params, cfg, training=True, rng=rng).trace
            self.assert_disjoint(trace_arrays(first), trace_arrays(second))

    def test_field_importance_traces_share_no_memory(self, monkeypatch):
        config, params, batch = small_setup(2, 3, dropout=0.2, n=40)
        state = init_adam_state(params)
        train_step(batch, params, config, TrainConfig(), state, Rng(1))
        traces, real = [], model_mod.forward

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            traces.append(result.trace)
            return result

        monkeypatch.setattr(model_mod, "forward", spy)
        views = [field_importance(params, config, batch, 1, "ecn") for _ in range(2)]
        assert len(traces) == 2
        self.assert_disjoint(trace_arrays(traces[0]), trace_arrays(traces[1]))
        self.assert_disjoint(views[0], views[1])
        for trace in traces:
            for ws in state.workspace:
                self.assert_disjoint(trace_arrays(trace), ws.buffers.values())


@pytest.mark.parametrize("n", [1, 7, 8, 9, 4096])
def test_sigmoid_of_a_logit_stack_equals_per_row_calls(n):
    # the heads take one sigmoid over the (2, n) stack of both logits
    z = Rng(n).standard_normal((2, n)) * 40.0
    z.flat[:6] = [0.0, -0.0, np.inf, -np.inf, 750.0, -750.0][:z.size]
    stacked = sigmoid(z)
    for row in range(2):
        assert stacked[row].tobytes() == sigmoid(z[row]).tobytes()


class TestOneRowPath:
    """The online request path: one raw record's ``encode``, then a batch-1 ``forward``
    on the stacked path, against the batched offline scoring of the same records."""

    @pytest.mark.parametrize("depths", [(3, 3), (3, 1), (0, 3)])
    def test_one_row_scores_hold_the_batch_one_bits(self, depths, criteo_shaped, monkeypatch):
        records, specs = criteo_shaped(2000, seed=8)
        schema = build_schema(records[:1000], specs)
        config = ModelConfig(lcn_depth=depths[0], ecn_depth=depths[1], seed=2)
        params = init_model_params(config, schema.sizes, derive_seed(2, "init"))
        one_row = np.empty((3, len(records)))
        for i, record in enumerate(records):
            request = {k: v for k, v in record.items() if k != "label"}
            res = forward(encode([request], schema, require_labels=False), params, config)
            one_row[:, i] = res.y[0], res.y_deep[0], res.y_shallow[0]
        batch = encode(records, schema)
        # one row at a time through predict_scores, then on the per-branch path
        assert np.array(predict_scores(batch, params, config, 1)).tobytes() == one_row.tobytes()
        monkeypatch.setattr(model_mod, "STACKED_MAX_ACTIVATIONS", -1)
        assert np.array(predict_scores(batch, params, config, 1)).tobytes() == one_row.tobytes()
        # at 4096 rows OpenBLAS's gemm sums the cross-layer and head products in
        # another order than a one-row product does, so some scores move by an ulp
        batched = np.array(predict_scores(batch, params, config, 4096))
        np.testing.assert_allclose(one_row, batched, rtol=0, atol=1e-15)


class TestStackedBranches:
    """Small inference batches run both branches as one (2, n, D) stack; it must
    give the serial and threaded paths' bits and follow every write to dense."""

    D = 32

    @classmethod
    def setup_for(cls, lcn, ecn, mask="paper", seed=3):
        config = ModelConfig(d=8, lcn_depth=lcn, ecn_depth=ecn, mask_mode=mask, seed=seed)
        params = init_model_params(config, [5] * (cls.D // 8), derive_seed(seed, "init"))
        return config, params

    @staticmethod
    def x1(n, seed=11):
        return Rng(seed).standard_normal((n, TestStackedBranches.D))

    @staticmethod
    def outputs(x1, params, config, path, monkeypatch):
        stacked = path == "stacked"
        monkeypatch.setattr(model_mod, "STACKED_MAX_ACTIVATIONS", sys.maxsize if stacked else -1)
        monkeypatch.setattr(model_mod, "_parallel", lambda activations: path == "threaded")
        res = forward_from_x1(x1, params, config)
        return res.y, res.y_deep, res.y_shallow

    def assert_paths_equal(self, x1, params, config, monkeypatch, paths=("serial", "threaded")):
        stacked = self.outputs(x1, params, config, "stacked", monkeypatch)
        for path in paths:
            other = self.outputs(x1, params, config, path, monkeypatch)
            for name, a, b in zip(("y", "y_deep", "y_shallow"), stacked, other):
                assert np.array_equal(a, b), (path, name)

    @pytest.mark.parametrize("mask", ["paper", "no_ln", "identity"])
    @pytest.mark.parametrize("depths", [(0, 3), (3, 1), (2, 2), (3, 3)])
    def test_stacked_serial_threaded_bitwise_equal(self, mask, depths, monkeypatch):
        config, params = self.setup_for(*depths, mask=mask)
        crossover = model_mod.STACKED_MAX_ACTIVATIONS // self.D + 1
        for n in (1, 2, 7, crossover - 1, crossover):
            self.assert_paths_equal(self.x1(n), params, config, monkeypatch)

    def test_switch_at_crossover(self, monkeypatch):
        config, params = self.setup_for(2, 2)
        crossover = model_mod.STACKED_MAX_ACTIVATIONS // self.D + 1
        calls = []
        real = model_mod._stacked_forward
        monkeypatch.setattr(model_mod, "_stacked_forward",
                            lambda x1, *args: calls.append(len(x1)) or real(x1, *args))
        for n in (1, crossover - 1, crossover):
            forward_from_x1(self.x1(n), params, config)
        # training forwards keep the per-branch path, traced without dropout too
        forward_from_x1(self.x1(2), params, without_dropout(config), training=True)
        forward_from_x1(self.x1(2), params, config, training=True, rng=Rng(1))
        assert calls == [1, crossover - 1]

    def test_views_follow_adam_dense_writes_and_checkpoints(self, monkeypatch):
        config, params = self.setup_for(3, 2)
        x1 = self.x1(5)
        before = self.outputs(x1, params, config, "stacked", monkeypatch)
        ids = Rng(4).integers(5, size=(16, params.num_fields))
        batch = EncodedBatch(ids, np.arange(16) % 2, [5] * params.num_fields)
        train_step(batch, params, config, TrainConfig(learning_rate=0.1),
                   init_adam_state(params), Rng(2))
        after = self.outputs(x1, params, config, "stacked", monkeypatch)
        assert not np.array_equal(before[0], after[0])
        self.assert_paths_equal(x1, params, config, monkeypatch, paths=("serial",))

        params.dense[:] = Rng(6).uniform(-0.5, 0.5, params.dense.size)
        self.assert_paths_equal(x1, params, config, monkeypatch, paths=("serial",))

        vocab = {OOV_TOKEN: 0, **{str(t): t for t in range(1, 5)}}
        schema = FeatureSchema([FieldSpec(f"f{j}") for j in range(params.num_fields)],
                               [vocab] * params.num_fields, "lnsq")
        loaded, _, _ = parse_checkpoint(checkpoint_bytes(params, config, schema))
        self.assert_paths_equal(x1, loaded, config, monkeypatch, paths=("serial",))

    def test_copy_gets_its_own_stacks(self):
        _, params = self.setup_for(3, 2)
        twin = params.copy()
        assert len(twin.stacked) == 2
        for a, b in zip(params.stacked, twin.stacked):
            for key in ("w", "b", "gain", "beta"):
                mine, theirs = getattr(a, key), getattr(b, key)
                assert np.shares_memory(theirs, twin.dense)
                assert not np.shares_memory(mine, theirs), key
                assert not theirs.flags.writeable
        for i, layer in enumerate(twin.stacked):
            assert np.array_equal(layer.w[0], twin.lcn_layers[i].w)
            assert np.array_equal(layer.w[1], twin.ecn_layers[i].w)
            assert np.array_equal(layer.beta[1, 0], twin.ecn_layers[i].beta)


class TestParameterStacks:
    """A forward over params whose table and tensors lead with a stack axis of
    K parameter sets, as the gradient audit runs its probes: each slice holds
    bitwise the outputs of a forward of that set alone."""

    @staticmethod
    def stack_of(params, k, seed=9):
        # K perturbed sets, the dense vectors a column slice of one wider array
        # as the audit's probes are
        rng = Rng(seed)
        tables = params.table + rng.uniform(-0.1, 0.1, (k, *params.table.shape))
        thetas = rng.uniform(-0.1, 0.1, (k, 3 + params.dense.size))
        thetas[:, 3:] += params.dense
        stack = copy.copy(params)
        stack.table = tables
        stack.lcn_layers, stack.ecn_layers, stack.heads = layer_views(
            thetas[:, 3:], params.width, len(params.lcn_layers), len(params.ecn_layers))
        return stack, tables, thetas[:, 3:]

    @pytest.mark.parametrize("mask", ["paper", "no_ln", "identity"])
    def test_slices_match_separate_forwards(self, mask, monkeypatch):
        config, params, batch = small_setup(2, 3, mask=mask)
        activations = batch.ids.shape[0] * params.width
        assert activations <= model_mod.STACKED_MAX_ACTIVATIONS
        # the threaded path runs wherever the activations allow it, whatever the CPU count
        paths = []
        monkeypatch.setattr(model_mod, "_parallel", lambda a: paths.append(a) or (
            a >= model_mod.PARALLEL_MIN_ACTIVATIONS))
        threaded = model_mod.PARALLEL_MIN_ACTIVATIONS // activations + 1
        for k in (1, 5, threaded):
            stack, tables, dense = self.stack_of(params, k)
            del paths[:]
            res = forward(batch, stack, config)
            assert paths == [k * activations]
            assert res.y.shape == res.y_deep.shape == res.y_shallow.shape == (k, len(batch.ids))
            twin = params.copy()
            for i in range(k):
                twin.table[...] = tables[i]
                twin.dense[...] = dense[i]
                alone = forward(batch, twin, config)
                for name in ("y", "y_deep", "y_shallow"):
                    assert getattr(res, name)[i].tobytes() == getattr(alone, name).tobytes(), (
                        k, i, name)
        assert threaded * activations >= model_mod.PARALLEL_MIN_ACTIVATIONS

    def test_layer_views_of_a_stack(self):
        config, params, _ = small_setup(2, 3)
        _, _, dense = self.stack_of(params, 4)
        lcn, ecn, heads = layer_views(dense, params.width, 2, 3)
        m, width = params.width // 2, params.width
        assert [layer.w.shape for layer in lcn + ecn] == [(4, m, width)] * 5
        assert [layer.gain.shape for layer in lcn + ecn] == [(4, 1, m)] * 5
        assert (heads.w_deep.shape, heads.b_shallow.shape) == ((4, width), (4, 1))
        for layer in lcn + ecn:
            assert np.shares_memory(layer.w, dense) and np.shares_memory(layer.beta, dense)
        for i in range(4):
            one = layer_views(np.ascontiguousarray(dense[i]), width, 2, 3)
            assert np.array_equal(ecn[2].b[i, 0], one[1][2].b)
            assert np.array_equal(heads.w_shallow[i], one[2].w_shallow)
