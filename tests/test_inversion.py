import math

import numpy as np
import pytest

from newtonformer.datagen import make_covariance
from newtonformer.errors import ConvergenceError, ShapeMismatchError
from newtonformer.inversion import (
    MAX_ORDER,
    InverseRun,
    fitted_order,
    hyperpower_step,
    newton_step,
    predicted_steps,
    run_inverse,
)


class TestNewtonStep:
    def test_inverse_is_fixed_point(self):
        rng = np.random.default_rng(0)
        a = make_covariance(4, 10.0, rng)
        x = np.linalg.inv(a)
        np.testing.assert_allclose(newton_step(x, a), x, rtol=1e-12)

    def test_half_identity(self):
        out = newton_step(0.5 * np.eye(3), np.eye(3))
        np.testing.assert_array_equal(out, 0.75 * np.eye(3))

    def test_diagonal_example(self):
        out = newton_step(0.3 * np.diag([1.0, 2.0]), np.diag([1.0, 2.0]))
        np.testing.assert_allclose(out, np.diag([0.51, 0.48]), rtol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            newton_step(np.eye(3), np.eye(2))


class TestHyperpowerStep:
    def test_order_two_identical_to_newton_step(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        x = 0.01 * a.T
        np.testing.assert_array_equal(hyperpower_step(x, a, 2), newton_step(x, a))

    def test_order_three_scalar(self):
        out = hyperpower_step([[0.5]], [[1.0]], 3)
        assert out[0, 0] == pytest.approx(0.875, abs=1e-15)

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 8])
    def test_residual_power_law(self, order):
        rng = np.random.default_rng(2)
        a = make_covariance(4, 5.0, rng)
        x = 0.9 * 2.0 / np.linalg.eigvalsh(a).max() ** 2 * a.T
        eye = np.eye(4)
        before = eye - x @ a
        after = eye - hyperpower_step(x, a, order) @ a
        expected = np.linalg.matrix_power(before, order)
        assert np.linalg.norm(after - expected) <= 1e-10

    @pytest.mark.parametrize("order", [1, 0, -3, MAX_ORDER + 1, 2.5])
    def test_rejects_bad_order(self, order):
        with pytest.raises(ValueError):
            hyperpower_step(np.eye(2), np.eye(2), order)


class TestPredictedSteps:
    def test_trivial_input_costs_only_slack(self):
        assert predicted_steps(1.0, 0.5, 2) == 2

    def test_reference_point(self):
        assert predicted_steps(100.0, 1e-10, 2) == 22

    def test_higher_order_never_worse_above_kappa_four(self):
        for kappa in (4.0, 10.0, 100.0, 1e4):
            for eps in (1e-6, 1e-10, 1e-13):
                assert predicted_steps(kappa, eps, 3) <= predicted_steps(
                    kappa, eps, 2
                )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            predicted_steps(0.5, 1e-10)
        with pytest.raises(ValueError, match="got nan"):
            predicted_steps(float("nan"), 1e-10)
        with pytest.raises(ValueError):
            predicted_steps(10.0, 0.0)
        with pytest.raises(ValueError):
            predicted_steps(10.0, 1.0)
        with pytest.raises(ValueError):
            predicted_steps(10.0, 1e-10, order=1)


class TestRunInverse:
    def test_identity_converges_fast(self):
        run = run_inverse(np.eye(2), tol=1e-10)
        assert run.converged
        assert run.steps <= 8
        np.testing.assert_array_equal(run.iterates[0], run.alpha * np.eye(2))

    def test_start_iterate_is_scaled_transpose(self):
        rng = np.random.default_rng(3)
        a = make_covariance(5, 30.0, rng)
        run = run_inverse(a, tol=1e-8)
        np.testing.assert_array_equal(run.iterates[0], run.alpha * a.T)

    def test_conditioned_matrix_step_count_and_accuracy(self):
        rng = np.random.default_rng(4)
        a = make_covariance(8, 100.0, rng)
        tol = 1e-10
        run = run_inverse(a, tol=tol)
        budget = 2 * math.log2(100.0) + math.log2(math.log2(1.0 / tol)) + 4
        assert run.steps <= budget
        inv = np.linalg.inv(a)
        err = np.linalg.norm(run.iterates[-1] - inv)
        assert err <= 10.0 * tol * np.linalg.norm(inv)

    def test_order_three_needs_fewer_steps(self):
        rng = np.random.default_rng(5)
        a = make_covariance(8, 100.0, rng)
        assert run_inverse(a, order=3).steps < run_inverse(a, order=2).steps

    def test_residuals_strictly_decrease_after_entering_unit_ball(self):
        for seed in range(5):
            a = make_covariance(6, 40.0, np.random.default_rng(seed))
            res = run_inverse(a, tol=1e-11).residuals
            start = next(i for i, r in enumerate(res) if r < 1.0)
            tail = res[start:]
            assert all(b < prev for prev, b in zip(tail, tail[1:]))

    def test_exhaustion_raises_with_trace(self):
        rng = np.random.default_rng(7)
        a = make_covariance(6, 1000.0, rng)
        with pytest.raises(ConvergenceError) as info:
            run_inverse(a, tol=1e-12, max_iters=3)
        trace = info.value.trace
        assert isinstance(trace, InverseRun)
        assert trace.steps == 3
        assert not trace.converged

    def test_rejects_zero_matrix_and_bad_knobs(self):
        with pytest.raises(ValueError):
            run_inverse(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            run_inverse(np.eye(2), tol=0.0)
        with pytest.raises(ShapeMismatchError):
            run_inverse(np.ones((2, 3)))

    def test_rejects_nan_tol(self):
        with pytest.raises(ValueError, match="got nan"):
            run_inverse(np.eye(2), tol=float("nan"))


class TestFittedOrder:
    def test_exact_quadratic_sequence(self):
        r = [0.4]
        while r[-1] > 1e-14:
            r.append(r[-1] ** 2)
        assert fitted_order(r) == pytest.approx(2.0, abs=1e-9)

    def test_measured_order_two(self):
        rng = np.random.default_rng(8)
        a = make_covariance(8, 10.0, rng)
        run = run_inverse(a, order=2, tol=1e-13, max_iters=60)
        assert fitted_order(run.residuals) >= 1.9

    def test_measured_order_three(self):
        rng = np.random.default_rng(9)
        a = make_covariance(8, 10.0, rng)
        run = run_inverse(a, order=3, tol=1e-13, max_iters=60)
        assert fitted_order(run.residuals) >= 2.8

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            fitted_order([0.9, 0.8])
        with pytest.raises(ValueError):
            fitted_order([0.9, 0.85, 0.84])
