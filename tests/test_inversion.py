import math
import re

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
    spd_initial_scale,
    trace_initial_scale,
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
        # newton_step is the order-2 step, and both give the bits of
        # X(2I - AX) written out, on one matrix and on a stack
        rng = np.random.default_rng(1)
        for shape in ((5, 5), (3, 2, 5, 5)):
            a = rng.standard_normal(shape)
            x = 0.01 * a.mT
            want = x @ (2.0 * np.eye(5) - a @ x)
            for got in (hyperpower_step(x, a, 2), newton_step(x, a)):
                assert got.tobytes() == want.tobytes()

    def test_order_three_scalar(self):
        out = hyperpower_step([[0.5]], [[1.0]], 3)
        assert out[0, 0] == pytest.approx(0.875, abs=1e-15)

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 8])
    def test_residual_power_law(self, order):
        rng = np.random.default_rng(2)
        a = make_covariance(4, 5.0, rng)
        lam = np.linalg.eigvalsh(a).max()
        x = spd_initial_scale(lam * lam) * a.T
        eye = np.eye(4)
        before = eye - x @ a
        after = eye - hyperpower_step(x, a, order) @ a
        expected = np.linalg.matrix_power(before, order)
        assert np.linalg.norm(after - expected) <= 1e-10

    @pytest.mark.parametrize("order", range(3, MAX_ORDER + 1))
    def test_horner_start_skips_the_identity_product(self, order):
        # the reference starts Horner at (-1)^(order-1) I and multiplies
        # it by AX; the step starts one term later, at the same bits
        rng = np.random.default_rng(40 + order)
        x, a = _stack_pair(rng, (6, 5, 5))
        eye = np.eye(5)
        m = a @ x
        poly = float((-1) ** (order - 1)) * eye
        for j in range(order - 2, -1, -1):
            poly = float((-1) ** j * math.comb(order, j + 1)) * eye + m @ poly
        assert np.array_equal(hyperpower_step(x, a, order), x @ poly)

    @pytest.mark.parametrize("order", [1, 0, -3, MAX_ORDER + 1, 2.5])
    def test_rejects_bad_order(self, order):
        with pytest.raises(ValueError):
            hyperpower_step(np.eye(2), np.eye(2), order)


def _stack_pair(rng, shape):
    """A stack of well-scaled start iterates and the matrices they invert."""
    a = rng.standard_normal(shape)
    x = 0.01 * a.swapaxes(-1, -2)
    return x, a


class TestStackedSteps:
    @pytest.mark.parametrize("order", range(2, MAX_ORDER + 1))
    def test_stack_equals_per_slice_steps(self, order):
        rng = np.random.default_rng(10 + order)
        for shape in ((1, 4, 4), (5, 7, 7), (2, 3, 5, 5)):
            x, a = _stack_pair(rng, shape)
            for _ in range(4):
                got = hyperpower_step(x, a, order)
                flat_x = x.reshape(-1, *shape[-2:])
                flat_a = a.reshape(-1, *shape[-2:])
                want = [hyperpower_step(xi, ai, order)
                        for xi, ai in zip(flat_x, flat_a)]
                assert np.array_equal(got, np.reshape(want, shape))
                x = got

    def test_newton_step_stack_equals_per_slice_steps(self):
        x, a = _stack_pair(np.random.default_rng(9), (4, 6, 6))
        want = [newton_step(xi, ai) for xi, ai in zip(x, a)]
        assert np.array_equal(newton_step(x, a), want)

    @pytest.mark.parametrize("step", [newton_step,
                                      lambda x, a: hyperpower_step(x, a, 3)])
    def test_shape_errors(self, step):
        eye = np.eye(3)
        stack = np.stack([eye, eye])
        with pytest.raises(ShapeMismatchError, match="at least 2-D"):
            step(np.ones(3), eye)
        with pytest.raises(ShapeMismatchError, match="at least 2-D"):
            step(eye, np.ones(3))
        with pytest.raises(ShapeMismatchError, match="must be square"):
            step(np.ones((2, 2, 3)), np.ones((2, 2, 3)))
        with pytest.raises(ShapeMismatchError, match="x must have shape"):
            step(np.stack([eye] * 3), stack)
        with pytest.raises(ShapeMismatchError, match="x must have shape"):
            step(eye, stack)
        with pytest.raises(ShapeMismatchError, match="x must have shape"):
            step(stack, eye)

    @pytest.mark.parametrize("step", [newton_step,
                                      lambda x, a: hyperpower_step(x, a, 3)])
    def test_non_finite_entries_name_their_argument(self, step):
        good = np.stack([np.eye(2)] * 2)
        bad = good.copy()
        bad[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="^x contains non-finite"):
            step(bad, good)
        with pytest.raises(ValueError, match="^a contains non-finite"):
            step(good, bad)
        with pytest.raises(ValueError, match="^x contains non-finite"):
            step(bad[1], good[1])

    def test_matrix_error_messages(self):
        with pytest.raises(ShapeMismatchError) as info:
            newton_step(np.ones((3, 2)), np.ones((2, 3)))
        assert str(info.value) == "a must be square, got (2, 3)"
        with pytest.raises(ShapeMismatchError) as info:
            hyperpower_step(np.eye(2), np.eye(3), 4)
        assert str(info.value) == "x must have shape (3, 3), got (2, 2)"


class TestPredictedSteps:
    def test_trivial_input_costs_only_slack(self):
        assert predicted_steps(1.0, 0.5, 2) == 2

    def test_reference_point(self):
        assert predicted_steps(100.0, 1e-10, 2) == 22

    @pytest.mark.parametrize("eps", [5e-324, 1e-320])
    def test_subnormal_eps(self, eps):
        # 1/eps overflows to inf for these eps; log2(eps) does not
        assert predicted_steps(10.0, eps) == 20

    def test_infinite_kappa_rejected(self):
        with pytest.raises(ValueError, match="kappa must be finite"):
            predicted_steps(math.inf, 1e-10)

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

    @pytest.mark.parametrize("order", [2.5, 2.0, 1, MAX_ORDER + 1])
    def test_order_is_one_a_step_can_run(self, order):
        # both take the orders the other takes, and name the rest alike
        if order == 2.0:
            hyperpower_step(np.eye(2), np.eye(2), order)
            assert predicted_steps(10.0, 1e-10, order) == predicted_steps(
                10.0, 1e-10, 2)
            return
        with pytest.raises(ValueError) as step:
            hyperpower_step(np.eye(2), np.eye(2), order)
        with pytest.raises(ValueError) as predicted:
            predicted_steps(10.0, 1e-10, order)
        assert str(predicted.value) == str(step.value)


class TestTraceInitialScale:
    def test_knots_give_exact_reciprocals(self):
        powers = np.ldexp(1.0, np.arange(-64, 65))
        assert np.array_equal(trace_initial_scale(powers), 1.0 / powers)
        assert trace_initial_scale(4.0) == 0.25
        assert type(trace_initial_scale(4.0)) is float

    def test_start_contracts_for_any_spd_matrix(self):
        # 1/tr B <= alpha' <= 1.125/tr B, and tr B >= lambda_max, so
        # alpha' lambda_max <= 1.125: the alpha' I start converges
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            lam = np.ldexp(rng.uniform(0.1, 1.0, d),
                           int(rng.integers(-40, 40)))
            trace = float(np.sum(lam))
            alpha = trace_initial_scale(trace)
            assert 1.0 / trace <= alpha * (1.0 + 1e-15)
            assert alpha * trace <= 1.125 * (1.0 + 1e-15)
            assert alpha * lam.max() < 2.0

    def test_stack_gives_each_prompt_its_own_start(self):
        traces = np.array([3.0, 1e-3, 7e5, 2.0**40])
        got = trace_initial_scale(traces)
        assert got.shape == traces.shape
        assert np.array_equal(got, [trace_initial_scale(t)
                                    for t in traces.tolist()])

    @pytest.mark.parametrize("trace, prompt, shown", [
        (1e301, 0, "1e+301"), (0.0, 0, "0"), (float("nan"), 0, "nan"),
        (np.ldexp(1.0, -65), 0, "2.71051e-20"), (np.inf, 0, "inf"),
        (np.array([1.0, 2.0, 1e30]), 2, "1e+30"),
    ])
    def test_trace_outside_the_knot_span_is_named(self, trace, prompt,
                                                   shown):
        with pytest.raises(ValueError, match=(
                rf"^prompt {prompt} has tr B = {re.escape(shown)}, outside "
                r"the start reciprocal's knot span "
                r"\[5\.42101e-20, 1\.84467e\+19\]$")):
            trace_initial_scale(trace)


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

    def test_start_scale_is_spd_initial_scale_of_sigma_squared(self):
        # X_0 a = alpha a^T a, whose largest eigenvalue is sigma**2
        rng = np.random.default_rng(8)
        for a in (make_covariance(5, 30.0, rng),
                  rng.standard_normal((4, 4)), 1e150 * np.eye(2)):
            sigma = np.linalg.norm(a, 2)
            alpha = run_inverse(a).alpha
            assert type(alpha) is float
            assert alpha == spd_initial_scale(sigma * sigma)
        assert run_inverse(1e150 * np.eye(2)).alpha == 1.8e-300

    def test_sigma_whose_square_overflows_is_named(self):
        with pytest.raises(ValueError, match=(
                r"^run_inverse start scale overflows float64: sigma\*\*2 "
                r"for sigma=1e\+200 is outside its range$")):
            run_inverse(1e200 * np.eye(3))

    def test_sigma_whose_square_underflows_is_named(self):
        # pytest turns numpy's RuntimeWarning into an error, so this
        # also checks that nothing warns
        with pytest.raises(ValueError, match=(
                r"^run_inverse start scale overflows float64: sigma\*\*2 "
                r"for sigma=1e-170 is outside its range$")):
            run_inverse(1e-170 * np.eye(2))

    def test_rejects_nan_tol(self):
        with pytest.raises(ValueError, match="got nan"):
            run_inverse(np.eye(2), tol=float("nan"))

    @pytest.mark.parametrize("order, message", [
        (99, "order must be in [2, 8], got 99"),
        (1, "order must be in [2, 8], got 1"),
        (2.5, "order must be an integer, got 2.5"),
    ])
    def test_order_checked_before_the_first_residual(self, order, message):
        # diag(3, 1) meets tol=10 at its start, so no step would run
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_inverse(np.diag([3.0, 1.0]), order=order, tol=10.0)

    @pytest.mark.parametrize("max_iters, message", [
        (-1, "max_iters must be >= 0, got -1"),
        (2.5, "max_iters must be an integer, got 2.5"),
        (float("nan"), "max_iters must be >= 0, got nan"),
        (float("inf"), "max_iters must be an integer, got inf"),
    ])
    def test_max_iters_must_be_a_count(self, max_iters, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_inverse(np.diag([3.0, 1.0]), max_iters=max_iters)

    def test_integral_float_max_iters_is_that_many_steps(self):
        rng = np.random.default_rng(7)
        a = make_covariance(6, 1000.0, rng)
        with pytest.raises(ConvergenceError, match="after 3 steps$") as info:
            run_inverse(a, tol=1e-12, max_iters=3.0)
        assert info.value.trace.steps == 3
        # a start that meets tol needs no step
        run = run_inverse(np.diag([3.0, 1.0]), tol=10.0, max_iters=0)
        assert run.converged and run.steps == 0

    def test_complex_matrix_rejected(self):
        # not inverted for its real part
        with pytest.raises(ValueError, match="^a must be real"):
            run_inverse(np.diag([2.0, 3.0]) + 5j * np.eye(2))


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
