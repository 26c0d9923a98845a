"""Loss algebra: binary cross-entropy, the adaptive composite, its gradients."""

import math

import numpy as np
import pytest

from fcn_ctr.numerics import Rng
from fcn_ctr.objective import bce, tri_bce, tri_bce_grads


def direct_bce(preds, labels, clip=1e-7):
    """Independent scalar-loop evaluation used as the oracle here."""
    total = 0.0
    for p, y in zip(preds, labels):
        p = min(max(p, clip), 1.0 - clip)
        total += -(y * math.log(p) + (1 - y) * math.log(1.0 - p))
    return total / len(preds)


class TestBce:
    def test_half_on_positive_is_ln2(self):
        np.testing.assert_allclose(bce(np.array([0.5]), np.array([1])), math.log(2.0))

    def test_perfect_predictions_near_zero(self):
        loss = bce(np.array([1.0, 0.0]), np.array([1, 0]))
        assert 0.0 < loss < 1e-6  # only the clip keeps it off exactly zero

    def test_hand_value(self):
        np.testing.assert_allclose(bce(np.array([0.375]), np.array([1])),
                                   -math.log(0.375), rtol=1e-12)
        np.testing.assert_allclose(bce(np.array([0.375]), np.array([1])),
                                   0.98083, atol=1e-5)

    def test_matches_direct_loop(self):
        rng = Rng(3)
        for _ in range(20):
            n = int(rng.integers(20)) + 1
            preds = rng.uniform(0.01, 0.99, n)
            labels = (rng.random(n) < 0.5).astype(np.int64)
            np.testing.assert_allclose(bce(preds, labels),
                                       direct_bce(preds, labels), rtol=1e-12)

    def test_permutation_invariant(self):
        rng = Rng(4)
        preds = rng.uniform(0.05, 0.95, 50)
        labels = (rng.random(50) < 0.5).astype(np.int64)
        perm = rng.permutation(50)
        np.testing.assert_allclose(bce(preds, labels),
                                   bce(preds[perm], labels[perm]), rtol=1e-14)

    def test_monotone_for_positive_label(self):
        ps = np.linspace(0.01, 0.99, 200)
        losses = [bce(np.array([p]), np.array([1])) for p in ps]
        assert all(a >= b for a, b in zip(losses, losses[1:]))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bce(np.array([]), np.array([]))

    @pytest.mark.parametrize("n", [1, 2, 9, 300])
    def test_stack_matches_each_row(self, n):
        # a (K, n) stack of predictions against one label vector: row k's loss
        # is bitwise bce of row k alone, clipped entries included
        rng = Rng(8)
        preds = rng.uniform(0.0, 1.0, (6, n))
        preds[0, 0], preds[-1, -1] = 0.0, 1.0
        labels = (rng.random(n) < 0.5).astype(np.int64)
        losses = bce(preds, labels)
        assert isinstance(bce(preds[0], labels), float)
        assert losses.shape == (6,)
        for k in range(6):
            assert losses[k] == bce(preds[k], labels)

    def test_stack_refuses_other_label_shapes(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            bce(np.full((3, 4), 0.5), np.zeros(3))


class TestTriBce:
    def test_worked_example(self):
        # y=1, deep 0.5, shallow 0.25, fused 0.375; values from direct
        # evaluation of the formulas (see direct_bce oracle above)
        report = tri_bce(np.array([0.375]), np.array([0.5]), np.array([0.25]),
                         np.array([1]))
        np.testing.assert_allclose(report.primary, 0.98083, atol=1e-5)
        np.testing.assert_allclose(report.deep, 0.69315, atol=1e-5)
        np.testing.assert_allclose(report.shallow, 1.38629, atol=1e-5)
        assert report.w_deep == 0.0
        np.testing.assert_allclose(report.w_shallow, 0.40546, atol=1e-5)
        expected_total = (-math.log(0.375)
                          + (math.log(0.375) - math.log(0.25)) * -math.log(0.25))
        np.testing.assert_allclose(report.total, expected_total, rtol=1e-12)
        np.testing.assert_allclose(report.total, 1.5429233, atol=1e-5)

    def test_equal_branches_collapse_to_primary(self):
        p = np.array([0.3, 0.8, 0.6])
        y = np.array([0, 1, 1])
        report = tri_bce(p, p, p, y)
        assert report.w_deep == 0.0 and report.w_shallow == 0.0
        assert report.total == report.primary

    def test_invariants_on_random_batches(self):
        rng = Rng(11)
        for _ in range(500):
            n = int(rng.integers(30)) + 1
            y_hat = rng.uniform(0.01, 0.99, n)
            y_d = rng.uniform(0.01, 0.99, n)
            y_s = rng.uniform(0.01, 0.99, n)
            labels = (rng.random(n) < 0.5).astype(np.int64)
            r = tri_bce(y_hat, y_d, y_s, labels)
            assert r.w_deep == max(0.0, r.deep - r.primary)
            assert r.w_shallow == max(0.0, r.shallow - r.primary)
            assert r.total == r.primary + r.w_deep * r.deep + r.w_shallow * r.shallow
            assert r.total >= r.primary


class TestTriBceGrads:
    def test_worked_positive_sample(self):
        y_hat, y_d, y_s = np.array([0.375]), np.array([0.5]), np.array([0.25])
        labels = np.array([1])
        report = tri_bce(y_hat, y_d, y_s, labels)
        gd, gs = tri_bce_grads(y_hat, y_d, y_s, labels, report)
        np.testing.assert_allclose(gd, [-1.0 / 0.75], rtol=1e-12)       # -1.3333
        expected_s = -(1.0 / 0.75 + report.w_shallow / 0.25)
        np.testing.assert_allclose(gs, [expected_s], rtol=1e-12)
        np.testing.assert_allclose(gs, [-2.9552], atol=1e-4)

    def test_zero_weight_reduces_to_fused_term(self):
        rng = Rng(5)
        y_d = rng.uniform(0.4, 0.6, 8)
        y_s = y_d.copy()
        y_hat = 0.5 * (y_d + y_s)
        labels = (rng.random(8) < 0.5).astype(np.int64)
        report = tri_bce(y_hat, y_d, y_s, labels)
        assert report.w_deep == 0.0
        gd, _ = tri_bce_grads(y_hat, y_d, y_s, labels, report)
        n = 8.0
        expected = np.where(labels == 1, -0.5 / y_hat, 0.5 / (1 - y_hat)) / n
        np.testing.assert_allclose(gd, expected, rtol=1e-12)

    def test_matches_finite_differences_with_frozen_weights(self):
        rng = Rng(21)
        h = 1e-7
        for _ in range(30):
            n = int(rng.integers(10)) + 2
            y_d = rng.uniform(0.05, 0.95, n)
            y_s = rng.uniform(0.05, 0.95, n)
            labels = (rng.random(n) < 0.5).astype(np.int64)
            y_hat = 0.5 * (y_d + y_s)
            report = tri_bce(y_hat, y_d, y_s, labels)
            gd, gs = tri_bce_grads(y_hat, y_d, y_s, labels, report)

            def frozen_total(yd, ys):
                fused = 0.5 * (yd + ys)
                return (bce(fused, labels) + report.w_deep * bce(yd, labels)
                        + report.w_shallow * bce(ys, labels))

            for i in range(n):
                up, down = y_d.copy(), y_d.copy()
                up[i] += h
                down[i] -= h
                numeric = (frozen_total(up, y_s) - frozen_total(down, y_s)) / (2 * h)
                np.testing.assert_allclose(gd[i], numeric, rtol=1e-6, atol=1e-10)
                up, down = y_s.copy(), y_s.copy()
                up[i] += h
                down[i] -= h
                numeric = (frozen_total(y_d, up) - frozen_total(y_d, down)) / (2 * h)
                np.testing.assert_allclose(gs[i], numeric, rtol=1e-6, atol=1e-10)

    def test_both_branches_no_worse_than_primary_means_no_aux_grads(self):
        # by convexity this only happens when the three losses coincide,
        # i.e. when the branches agree; then the aux terms must vanish
        y_d = np.array([0.9, 0.1])
        y_s = y_d.copy()
        labels = np.array([1, 0])
        y_hat = 0.5 * (y_d + y_s)
        report = tri_bce(y_hat, y_d, y_s, labels)
        assert report.deep <= report.primary and report.shallow <= report.primary
        assert report.total == report.primary
        gd, gs = tri_bce_grads(y_hat, y_d, y_s, labels, report)
        fused_only = np.where(labels == 1, -0.25 / y_hat, 0.25 / (1 - y_hat))
        np.testing.assert_allclose(gd, fused_only, rtol=1e-12)
        np.testing.assert_allclose(gs, fused_only, rtol=1e-12)
