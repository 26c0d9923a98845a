"""The oracles themselves: degree probe, pairwise AUC, mask census, audits."""

import hashlib

import numpy as np
import pytest

import fcn_ctr.verification as verification_mod
from fcn_ctr.cli import main
from fcn_ctr.model import ModelConfig
from fcn_ctr.numerics import Rng
from fcn_ctr.verification import (audit_config, auc_suite, default_grad_grid,
                                  degree_probe, degree_suite, grad_audit,
                                  mask_census, mask_suite, measured_degree,
                                  pairwise_auc_oracle, run_suites)

QUICK_GRID = [(2, 2, 1, 1, "paper"), (2, 4, 0, 2, "no_ln"), (3, 2, 2, 0, "identity")]


class TestMeasuredDegree:
    def test_exact_polynomials(self):
        ts = 0.5 * (np.arange(9) - 4)
        for deg in (1, 2, 3, 5):
            values = 3.0 * ts ** deg + 0.25 * ts
            assert measured_degree(values) == deg

    def test_constant_sequence(self):
        assert measured_degree(np.full(6, 2.5)) == 0


class TestDegreeProbe:
    def test_exponential_branch_doubles(self):
        for depth in (1, 2, 3):
            got, _ = degree_probe(ecn_depth=depth, lcn_depth=0, seed=0)
            assert got == 2 ** depth

    def test_linear_branch_increments(self):
        for depth in (1, 2, 3):
            _, got = degree_probe(ecn_depth=0, lcn_depth=depth, seed=0)
            assert got == depth + 1

    def test_zero_depth_is_linear(self):
        ecn, lcn = degree_probe(ecn_depth=0, lcn_depth=0, seed=0)
        assert ecn == 1 and lcn == 1

    def test_direction_invariant(self):
        # generic-position property: the measured degree cannot depend on
        # the random ray, checked over several seeds
        for seed in range(6):
            got, _ = degree_probe(ecn_depth=3, lcn_depth=0, seed=seed)
            assert got == 8

    def test_depth_four_is_sixteen(self):
        got, _ = degree_probe(ecn_depth=4, lcn_depth=0, seed=0)
        assert got == 16


class TestPairwiseOracle:
    def test_reversed_scores_complement(self):
        rng = Rng(2)
        scores = rng.permutation(300).astype(np.float64)
        labels = (rng.random(300) < 0.5).astype(np.int64)
        labels[:2] = [0, 1]
        a = pairwise_auc_oracle(scores, labels)
        b = pairwise_auc_oracle(-scores, labels)
        np.testing.assert_allclose(a + b, 1.0, rtol=1e-12)

    def test_cross_class_duplicate_counts_half(self):
        scores = np.array([0.3, 0.3])
        labels = np.array([1, 0])
        assert pairwise_auc_oracle(scores, labels) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            pairwise_auc_oracle(np.array([0.5, 0.6]), np.array([1, 1]))


class TestMaskCensus:
    def test_standard_normal_near_half(self):
        mean, std, fracs = mask_census(1024, 200, Rng(8))
        assert 0.45 <= mean <= 0.55
        assert fracs.shape == (200,)

    def test_constant_inputs_fully_masked(self):
        from fcn_ctr.model import self_mask
        gain, beta = np.ones(64), np.zeros(64)
        masked, _ = self_mask(np.full((5, 64), 3.0), gain, beta)
        assert (masked == 0.0).all()

    def test_small_dim_rejected(self):
        with pytest.raises(ValueError):
            mask_census(1, 10, Rng(0))


class TestSuites:
    def test_quick_grad_grid_passes(self):
        grid = [(2, 2, 1, 1, "paper"), (2, 4, 0, 2, "no_ln"),
                (3, 2, 2, 0, "identity")]
        result = grad_audit(grid=grid, seeds=(1,))
        assert result.passed

    def test_audit_errors_pinned(self):
        # every relative error of the two-field half of the grid, seed 1,
        # frozen bit for bit: a faster audit must compute the same numbers
        errors = [audit_config(ModelConfig(d=d, lcn_depth=lcn, ecn_depth=ecn, mask_mode=mask,
                                           dropout_rate=0.0, seed=0), f, 1)
                  for f, d, lcn, ecn, mask in default_grad_grid() if f == 2]
        assert len(errors) == 96
        assert hashlib.sha256(repr(errors).encode()).hexdigest() == (
            "add0867e4797bac3b0449305f3326d91fd76846a8faf67092e8293e2afdb9feb")

    def test_audit_errors_pinned_three_fields(self):
        # the three-field half, seed 1: the grid's largest probe stacks
        errors = [audit_config(ModelConfig(d=d, lcn_depth=lcn, ecn_depth=ecn, mask_mode=mask,
                                           dropout_rate=0.0, seed=0), f, 1)
                  for f, d, lcn, ecn, mask in default_grad_grid() if f == 3]
        assert len(errors) == 96
        assert hashlib.sha256(repr(errors).encode()).hexdigest() == (
            "d24da1cd60641b71b159173bd04563b0160569c7baf32ef14d990e52a23bc2f3")

    def test_grad_audit_catches_sign_flip(self, flip_bias_gradient):
        flip_bias_gradient()
        grid = [(2, 2, 1, 1, "paper")]
        result = grad_audit(grid=grid, seeds=(1,))
        assert not result.passed

    def test_grad_audit_fails_on_nan_gradients(self, nan_gradient):
        # NaN is below no tolerance: an audit that cannot measure must fail
        nan_gradient()
        result = grad_audit(grid=[(2, 2, 1, 1, "paper")], seeds=(1,))
        assert not result.passed
        assert result.lines[-1] == "overall max_rel_err=nan tolerance=1e-04", result.lines

    def test_nan_gradients_fail_the_verify_command(self, monkeypatch, capsys, nan_gradient):
        nan_gradient()
        monkeypatch.setattr(verification_mod, "default_grad_grid",
                            lambda: [(2, 2, 1, 1, "paper")])
        assert main(["verify", "--suite", "grad"]) == 3
        out = capsys.readouterr().out
        assert "FAILED" in out and "max_rel_err=nan" in out

    def test_auc_suite_fails_on_nan_auc(self, monkeypatch):
        # NaN on every random batch; the 4-row hand example keeps its 0.75
        real = verification_mod.rank_auc
        monkeypatch.setattr(verification_mod, "rank_auc",
                            lambda s, y: real(s, y) if len(s) == 4 else float("nan"))
        result = auc_suite()
        assert not result.passed
        assert result.lines[0] == "FAIL batch 0: |rank - pairwise| = nan", result.lines[:2]

    def test_degree_suite(self):
        result = degree_suite()
        assert result.passed

    def test_mask_suite(self):
        result = mask_suite()
        assert result.passed

    def test_run_suites_renders_report(self):
        passed, text = run_suites(["mask"])
        assert passed
        assert "suite mask" in text and "PASS" in text


class TestReportText:
    """The suites' report lines, frozen: a change to a suite's loops prints the same text."""

    def test_degree_suite_lines_pinned(self):
        assert degree_suite().lines == [
            "ecn depth=1 expected_degree=2 measured=2",
            "ecn depth=2 expected_degree=4 measured=4",
            "ecn depth=3 expected_degree=8 measured=8",
            "ecn depth=4 expected_degree=16 measured=16",
            "lcn depth=1 expected_degree=2 measured=2",
            "lcn depth=2 expected_degree=3 measured=3",
            "lcn depth=3 expected_degree=4 measured=4",
        ]

    def test_grad_audit_lines_pinned(self):
        assert grad_audit(grid=QUICK_GRID, seeds=(1,)).lines == [
            "f=2 d=2 mask=paper     max_rel_err=1.041e-09",
            "f=2 d=4 mask=no_ln     max_rel_err=1.137e-09",
            "f=3 d=2 mask=identity  max_rel_err=1.136e-09",
            "overall max_rel_err=1.137e-09 tolerance=1e-04",
        ]

    def test_grad_audit_failure_lines_pinned(self, flip_bias_gradient):
        flip_bias_gradient()
        assert grad_audit(grid=QUICK_GRID, seeds=(1, 2)).lines == [
            "FAIL f=2 d=2 depths=1/1 mask=paper seed=1 max_rel_err=3.755e-01",
            "FAIL f=2 d=2 depths=1/1 mask=paper seed=2 max_rel_err=2.000e+00",
            "FAIL f=2 d=4 depths=0/2 mask=no_ln seed=1 max_rel_err=2.000e+00",
            "FAIL f=2 d=4 depths=0/2 mask=no_ln seed=2 max_rel_err=9.486e-01",
            "FAIL f=3 d=2 depths=2/0 mask=identity seed=1 max_rel_err=1.250e-01",
            "FAIL f=3 d=2 depths=2/0 mask=identity seed=2 max_rel_err=2.000e+00",
            "f=2 d=2 mask=paper     max_rel_err=2.000e+00",
            "f=2 d=4 mask=no_ln     max_rel_err=2.000e+00",
            "f=3 d=2 mask=identity  max_rel_err=2.000e+00",
            "overall max_rel_err=2.000e+00 tolerance=1e-04",
        ]

    def test_auc_suite_lines_pinned(self):
        assert auc_suite().lines == [
            "hand example auc=0.75",
            "200 random batches, max |rank - pairwise| = 0.000e+00",
        ]
