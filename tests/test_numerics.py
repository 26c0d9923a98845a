"""Array helpers, RNG determinism, and the finite-difference oracle."""

import numpy as np
import pytest

from fcn_ctr.numerics import Rng, derive_seed, finite_diff_grad, init_params

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
            got = [int(x) for x in np.random.Philox(key=key).random_raw(4)]
            assert got == expected
            # an Rng is a Generator over that Philox stream, bit for bit
            want = np.random.Generator(np.random.Philox(key=key)).random(4)
            assert Rng(key).random(4).tobytes() == want.tobytes()

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
        # each cross layer draws its (n, D) dropout uniforms into its own gate
        # buffer, one call a layer, and the ecn's split is sized as one
        # (depth, n, D) draw: the two must give the same stream and leave the
        # generator in the same place
        k, n, d = 3, 5, 7
        stacked_rng, layered_rng = Rng(21), Rng(21)
        stacked = stacked_rng.random((k, n, d))
        layered = np.stack([layered_rng.random((n, d)) for _ in range(k)])
        assert stacked.tobytes() == layered.tobytes()
        assert stacked_rng.random((n, d)).tobytes() == layered_rng.random((n, d)).tobytes()

    @pytest.mark.parametrize("start", [0, 1, 2, 3])
    @pytest.mark.parametrize("words", [0, 1, 3, 4, 5, 3 * 4096 * 128])
    def test_split_hands_over_the_next_words(self, start, words):
        # Philox fills a 4-word buffer; a split must land exactly wherever in
        # it the stream stands, for jumps shorter and longer than one block
        rng, reference = Rng(33), Rng(33)
        rng.random(start)
        reference.random(start)
        copy = rng.split(words)
        assert copy.random(words).tobytes() == reference.random(words).tobytes()
        state = rng._gen.bit_generator.state["state"]
        expected = reference._gen.bit_generator.state["state"]
        for key in ("counter", "key"):
            assert state[key].tobytes() == expected[key].tobytes()
        assert rng.random(9).tobytes() == reference.random(9).tobytes()

    def test_permutation_is_a_permutation(self):
        perm = Rng(9).permutation(50)
        assert sorted(perm) == list(range(50))


class TestInitParams:
    def test_deterministic_under_seed(self):
        a = init_params((5, 16), Rng(7))
        b = init_params((5, 16), Rng(7))
        np.testing.assert_array_equal(a, b)

    def test_fan_bound(self):
        m = init_params((40, 16), Rng(3))
        assert np.abs(m).max() <= 0.25  # 1/sqrt(16)

    def test_explicit_fan_override(self):
        v = init_params((100,), Rng(3), fan_in=4)
        assert np.abs(v).max() <= 0.5
        assert np.abs(v).max() > 0.25  # draws actually use the wider bound

    def test_bad_shape(self):
        with pytest.raises(ValueError, match="non-positive shape"):
            init_params((0, 3), Rng(0))


class TestFiniteDiff:
    # f maps a (K, P) stack of points to their K values
    def test_quadratic_norm(self):
        g = finite_diff_grad(lambda xs: np.einsum("ki,ki->k", xs, xs), np.array([1.0, -2.0]),
                             h=1e-5)
        np.testing.assert_allclose(g, [2.0, -4.0], atol=1e-8)

    def test_constant_function(self):
        g = finite_diff_grad(lambda xs: np.full(len(xs), 3.5), np.array([0.3, 0.7, -1.0]))
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_bce_of_sigmoid(self):
        # d/dx of -log(sigmoid(x)) at 0 is sigmoid(0) - 1 = -0.5
        def f(xs):
            return -np.log(1.0 / (1.0 + np.exp(-xs[:, 0])))

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
            numeric = finite_diff_grad(lambda vs: np.einsum("ki,ij,kj->k", vs, a, vs) + vs @ b,
                                       x, h=1e-5)
            np.testing.assert_allclose(numeric, analytic, rtol=1e-6, atol=1e-9)

    def test_non_finite_evaluation_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            finite_diff_grad(lambda xs: np.full(len(xs), np.nan), np.array([1.0]))

    def test_non_finite_minus_probe_names_its_coordinate(self):
        # only x - h e_1 evaluates to inf: rows P.. hold the minus probes
        def f(xs):
            return np.where(xs[:, 1] < 2.0, np.inf, xs.sum(axis=1))

        with pytest.raises(ValueError, match="non-finite evaluation at coordinate 1$"):
            finite_diff_grad(f, np.array([0.5, 2.0, -1.0]), h=1e-3)

    def test_probe_stack_layout(self):
        # one call: the rows x + h e_i, then the rows x - h e_i
        seen = []
        x = np.array([0.5, -1.5, 3.0])
        finite_diff_grad(lambda xs: seen.append(xs.copy()) or xs.sum(axis=1), x, h=0.25)
        assert len(seen) == 1
        np.testing.assert_array_equal(
            seen[0], np.concatenate([x + 0.25 * np.eye(3), x - 0.25 * np.eye(3)]))

    def test_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda xs: np.zeros(len(xs)), np.array([1.0]), h=0.0)
