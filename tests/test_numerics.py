"""Array helpers, RNG determinism, and the finite-difference oracle."""

import math

import numpy as np
import pytest

from fcn_ctr.numerics import (Rng, derive_seed, finite_diff_grad, hadamard,
                              init_params, matvec)

# Frozen raw Philox4x64-10 words; these pin the bit-generator stream across
# platforms and releases (also documented in the README).
PHILOX_RAW = {
    0: [213000021201967259, 4455796210202625458,
        2055444239878205049, 10411612076246414556],
    7: [16086915834549238692, 5448529601018347655,
        7749434361382612120, 7478167007443709522],
}

DERIVED_SEEDS = {
    ("init", 1): 16947537463921896955,
    ("shuffle", 1): 2234718076034814190,
    ("dropout", 1): 10171450034396131071,
    ("synth", 1): 4237380565776743513,
    ("synth", 7): 17669318091320565025,
}


class TestRng:
    def test_raw_stream_vectors(self):
        for key, expected in PHILOX_RAW.items():
            got = [int(x) for x in Rng(key).raw(4)]
            assert got == expected

    def test_identical_seed_identical_stream(self):
        a = Rng(1234).uniform(-1, 1, 100)
        b = Rng(1234).uniform(-1, 1, 100)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).random(16), Rng(2).random(16))

    def test_derive_seed_vectors(self):
        for (stream, seed), expected in DERIVED_SEEDS.items():
            assert derive_seed(seed, stream) == expected

    def test_derived_streams_are_distinct(self):
        seeds = {derive_seed(5, s) for s in ("init", "shuffle", "dropout", "synth")}
        assert len(seeds) == 4

    def test_stacked_draw_is_consecutive_draws(self):
        # the forward pass draws all of a branch's dropout uniforms in one
        # (depth, n, D) call; that must be the stream of depth (n, D) calls,
        # and leave the generator where they leave it
        k, n, d = 3, 5, 7
        stacked_rng, layered_rng = Rng(21), Rng(21)
        stacked = stacked_rng.random((k, n, d))
        layered = np.stack([layered_rng.random((n, d)) for _ in range(k)])
        assert stacked.tobytes() == layered.tobytes()
        assert stacked_rng.random((n, d)).tobytes() == layered_rng.random((n, d)).tobytes()

    def test_permutation_is_a_permutation(self):
        perm = Rng(9).permutation(50)
        assert sorted(perm) == list(range(50))


class TestMatvec:
    def test_row_sums(self):
        out = matvec(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(out, [3.0, 7.0])

    def test_identity(self):
        v = np.array([5.0, -2.0, 0.0])
        np.testing.assert_array_equal(matvec(np.eye(3), v), v)

    def test_hand_case(self):
        out = matvec(np.array([[0.5, 0.5]]), np.array([1.0, 2.0]))
        np.testing.assert_allclose(out, [1.5])

    def test_dimension_mismatch_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 2\).*\(3,\)"):
            matvec(np.eye(2), np.zeros(3))

    def test_matches_triple_loop_reference(self):
        # exact for integer-valued entries, 1e-12 relative for random floats
        rng = Rng(31)

        def reference(m, v):
            out = np.zeros(m.shape[0])
            for i in range(m.shape[0]):
                for j in range(m.shape[1]):
                    out[i] += m[i, j] * v[j]
            return out

        m_int = np.floor(rng.uniform(-10, 10, (7, 5)))
        v_int = np.floor(rng.uniform(-10, 10, 5))
        np.testing.assert_array_equal(matvec(m_int, v_int), reference(m_int, v_int))

        for _ in range(20):
            m = rng.uniform(-1, 1, (8, 6))
            v = rng.uniform(-1, 1, 6)
            np.testing.assert_allclose(matvec(m, v), reference(m, v), rtol=1e-12)


class TestHadamard:
    def test_basic(self):
        np.testing.assert_array_equal(
            hadamard(np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 2.0])),
            [0.0, 2.0, 6.0])

    def test_ones_identity(self):
        a = Rng(4).uniform(-2, 2, 9)
        np.testing.assert_array_equal(hadamard(a, np.ones(9)), a)

    def test_hand_case(self):
        np.testing.assert_array_equal(
            hadamard(np.array([1.0, 2.0]), np.array([1.5, 0.0])), [1.5, 0.0])

    def test_commutative_exactly(self):
        rng = Rng(8)
        a = rng.uniform(-3, 3, 32)
        b = rng.uniform(-3, 3, 32)
        np.testing.assert_array_equal(hadamard(a, b), hadamard(b, a))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="hadamard"):
            hadamard(np.zeros(3), np.zeros(4))


class TestInitParams:
    def test_constant_fill(self):
        np.testing.assert_array_equal(init_params((2, 2), "constant", value=0.0),
                                      np.zeros((2, 2)))

    def test_deterministic_under_seed(self):
        a = init_params((5, 16), "uniform_fan", Rng(7))
        b = init_params((5, 16), "uniform_fan", Rng(7))
        np.testing.assert_array_equal(a, b)

    def test_fan_bound(self):
        m = init_params((40, 16), "uniform_fan", Rng(3))
        assert np.abs(m).max() <= 0.25  # 1/sqrt(16)

    def test_explicit_fan_override(self):
        v = init_params((100,), "uniform_fan", Rng(3), fan_in=4)
        assert np.abs(v).max() <= 0.5
        assert np.abs(v).max() > 0.25  # draws actually use the wider bound

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            init_params((0, 3), "constant")


class TestFiniteDiff:
    def test_quadratic_norm(self):
        g = finite_diff_grad(lambda x: float(x @ x), np.array([1.0, -2.0]), h=1e-5)
        np.testing.assert_allclose(g, [2.0, -4.0], atol=1e-8)

    def test_constant_function(self):
        g = finite_diff_grad(lambda x: 3.5, np.array([0.3, 0.7, -1.0]))
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_bce_of_sigmoid(self):
        # d/dx of -log(sigmoid(x)) at 0 is sigmoid(0) - 1 = -0.5
        def f(x):
            return float(-math.log(1.0 / (1.0 + math.exp(-x[0]))))

        g = finite_diff_grad(f, np.array([0.0]), h=1e-5)
        np.testing.assert_allclose(g, [-0.5], atol=1e-9)

    def test_degree_two_polynomials(self):
        # analytic gradient of x^T A x + b^T x is (A + A^T) x + b
        rng = Rng(77)
        for _ in range(10):
            a = rng.uniform(-1, 1, (4, 4))
            b = rng.uniform(-1, 1, 4)
            x = rng.uniform(-1, 1, 4)
            analytic = (a + a.T) @ x + b
            numeric = finite_diff_grad(lambda v: float(v @ a @ v + b @ v), x, h=1e-5)
            np.testing.assert_allclose(numeric, analytic, rtol=1e-6, atol=1e-9)

    def test_non_finite_evaluation_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            finite_diff_grad(lambda x: float("nan"), np.array([1.0]))

    def test_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda x: 0.0, np.array([1.0]), h=0.0)
