import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonformer import logistic
from newtonformer.errors import ConvergenceError, ScanAnomalyError
from newtonformer.linalg import solve_spd
from newtonformer.logistic import (
    QUADRATIC_PHASE_THRESHOLD,
    IterateTrace,
    OPTIMUM_MAX_ITERS,
    OPTIMUM_TOL,
    LogisticProblem,
    bounded_error_source,
    damped_step,
    decrease_bound,
    iterate_norm_bound,
    loss_grad_hess,
    objective,
    omega,
    omega_star,
    optimum,
    optimum_reached,
    quadratic_phase_epsilon,
    run_inexact_newton,
    scaled_decrement,
    scaled_objective,
    scan_constant_decrease,
    sigmoid,
    suboptimality_bound,
)


def make_problem(seed, n=26, d=5, mu=0.1):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    a /= np.max(np.linalg.norm(a, axis=1))
    w = rng.standard_normal(d)
    labels = np.sign(a @ w)
    labels[labels == 0.0] = 1.0
    return LogisticProblem(a, labels, mu)


class TestLogisticProblem:
    def test_validation(self):
        a = np.eye(3)
        y = np.ones(3)
        with pytest.raises(ValueError):
            LogisticProblem(a, np.array([1.0, 2.0, 1.0]), 0.1)
        with pytest.raises(ValueError):
            LogisticProblem(2.0 * a, y, 0.1)
        with pytest.raises(ValueError):
            LogisticProblem(a, y, 0.0)
        with pytest.raises(ValueError):
            LogisticProblem(a, np.ones(2), 0.1)

    @pytest.mark.parametrize("mu", [math.inf, math.nan, 0.0, -1.0])
    def test_mu_must_be_finite_and_positive(self, mu):
        with pytest.raises(ValueError,
                           match="mu must be finite and positive"):
            LogisticProblem(0.5 * np.eye(2), np.ones(2), mu)

    def test_dimensions(self):
        p = make_problem(0)
        assert p.n_samples == 26
        assert p.dim == 5


class TestLossGradHess:
    def test_values_at_origin(self):
        p = make_problem(1)
        f, grad, hess = loss_grad_hess(p, np.zeros(5))
        assert f == pytest.approx(np.log(2.0), rel=1e-15)
        a, y, n = p.features, p.labels, p.n_samples
        np.testing.assert_allclose(grad, -(a.T @ y) / (2.0 * n), rtol=1e-14)
        np.testing.assert_allclose(
            hess, (a.T @ a) / (4.0 * n) + p.mu * np.eye(5), rtol=1e-14
        )

    def test_gradient_matches_finite_differences(self):
        p = make_problem(2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(5)
        _, grad, _ = loss_grad_hess(p, x)
        h = 1e-5
        fd = np.empty(5)
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fp, _, _ = loss_grad_hess(p, x + e)
            fm, _, _ = loss_grad_hess(p, x - e)
            fd[i] = (fp - fm) / (2.0 * h)
        assert np.linalg.norm(fd - grad) <= 1e-6 * max(np.linalg.norm(grad), 1.0)

    def test_hessian_matches_gradient_differences(self):
        p = make_problem(4)
        rng = np.random.default_rng(5)
        x = 0.5 * rng.standard_normal(5)
        _, _, hess = loss_grad_hess(p, x)
        h = 1e-5
        fd = np.empty((5, 5))
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            _, gp, _ = loss_grad_hess(p, x + e)
            _, gm, _ = loss_grad_hess(p, x - e)
            fd[:, i] = (gp - gm) / (2.0 * h)
        assert np.linalg.norm(fd - hess) <= 1e-5 * np.linalg.norm(hess)

    def test_hessian_spectrum_inside_band(self):
        for seed in range(10):
            p = make_problem(seed, n=20, d=4, mu=0.3)
            rng = np.random.default_rng(100 + seed)
            x = rng.standard_normal(4) * rng.uniform(0.0, 5.0)
            _, _, hess = loss_grad_hess(p, x)
            eigs = np.linalg.eigvalsh(hess)
            assert eigs[0] >= p.mu - 1e-12
            assert eigs[-1] <= 1.0 + p.mu + 1e-12

    def test_extreme_iterates_stay_finite(self):
        p = make_problem(6)
        x = 1e6 * np.ones(5)
        f, grad, hess = loss_grad_hess(p, x)
        assert np.isfinite(f)
        assert np.all(np.isfinite(grad))
        assert np.all(np.isfinite(hess))

    def test_probabilities_clamped(self):
        probs = sigmoid(np.array([-1e9, 1e9]))
        assert np.all(np.isfinite(probs))
        # exponent clipping keeps probabilities in (0, 1]; the upper end
        # rounds to exactly 1.0 in float64 because e^-40 vanishes next to 1
        assert np.all((probs > 0.0) & (probs <= 1.0))


class TestNewtonDecrement:
    def test_one_dimensional_value(self):
        p = LogisticProblem(np.array([[1.0]]), np.array([1.0]), 1.0)
        lam = damped_step(p, np.zeros(1)).decrement
        assert lam == pytest.approx(0.5 / np.sqrt(1.25), rel=1e-12)

    def test_scaled_decrement_relation(self):
        p = make_problem(8)
        x = np.full(5, 0.2)
        state = damped_step(p, x)
        lam_g = scaled_decrement(p.mu, state.decrement)
        assert lam_g == state.decrement / (2.0 * np.sqrt(p.mu))
        assert scaled_objective(p.mu, state.f) == state.f / (4.0 * p.mu)

    def test_vanishes_at_minimizer(self):
        p = make_problem(9)
        x_star, _ = optimum(p)
        assert damped_step(p, x_star).decrement <= 1e-8

    def test_gradient_norm_bound(self):
        # ||grad f|| <= 1 + mu ||x|| and the Hessian floor mu bound the
        # decrement by (1 + mu ||x||) / sqrt(mu) at any point
        for seed in range(20):
            p = make_problem(seed, n=15, d=3, mu=0.05 * (1 + seed % 4))
            rng = np.random.default_rng(200 + seed)
            x = rng.standard_normal(3) * rng.uniform(0.0, 10.0)
            lam = damped_step(p, x).decrement
            bound = (1.0 + p.mu * np.linalg.norm(x)) / np.sqrt(p.mu)
            assert lam <= bound * (1.0 + 1e-12)

    def test_on_trajectory_decrement_bound(self):
        # along damped runs from the origin the decrement stays below
        # (1 + mu C) / (2 sqrt(mu)) with C the iterate norm bound; this
        # is the ceiling the step-size approximator is built against
        for seed in range(5):
            p = make_problem(seed)
            ceiling = (1.0 + p.mu * iterate_norm_bound(p.mu)) / (
                2.0 * np.sqrt(p.mu)
            )
            x = np.zeros(5)
            for _ in range(12):
                state = damped_step(p, x)
                assert state.decrement <= ceiling
                assert np.linalg.norm(x) <= iterate_norm_bound(p.mu)
                x = state.x


class TestDampedStep:
    def test_step_size_formula(self):
        p = make_problem(10)
        state = damped_step(p, np.zeros(5))
        root = 2.0 * np.sqrt(p.mu)
        assert state.step_size == pytest.approx(
            root / (root + state.decrement), rel=1e-14
        )
        assert state.f == loss_grad_hess(p, np.zeros(5))[0]

    def test_fixed_point_at_minimizer(self):
        p = make_problem(11)
        x_star, _ = optimum(p)
        state = damped_step(p, x_star)
        assert np.linalg.norm(state.x - x_star) <= 1e-8

    def test_objective_strictly_decreases(self):
        for seed in range(100):
            p = make_problem(seed, n=18, d=4)
            x = np.zeros(4)
            f_prev, _, _ = loss_grad_hess(p, x)
            for _ in range(3):
                x = damped_step(p, x).x
                f_next, _, _ = loss_grad_hess(p, x)
                assert f_next < f_prev
                f_prev = f_next

    def test_constant_decrease_phase(self):
        for seed in range(10):
            p = make_problem(300 + seed)
            x = np.zeros(5)
            g = loss_grad_hess(p, x)[0] / (4.0 * p.mu)
            for _ in range(40):
                lam_g = scaled_decrement(p.mu, damped_step(p, x).decrement)
                if lam_g < QUADRATIC_PHASE_THRESHOLD:
                    break
                x = damped_step(p, x).x
                g_next = loss_grad_hess(p, x)[0] / (4.0 * p.mu)
                assert g - g_next >= 0.01
                g = g_next

    # An inexact step is an exact damped step plus the error that
    # run_inexact_newton draws from its error source.
    def test_injected_error_recorded(self):
        p = make_problem(12)
        err = np.full(5, 1e-4)
        trace = run_inexact_newton(p, np.zeros(5), eps=1e-3,
                                   error_source=lambda step: err)
        assert trace.injected_error_norm[0] == pytest.approx(
            np.linalg.norm(err)
        )
        clean = damped_step(p, np.zeros(5))
        np.testing.assert_allclose(trace.iterates[1] - err, clean.x,
                                   atol=1e-15)

    def test_rejects_wrong_error_shape(self):
        p = make_problem(13)
        with pytest.raises(ValueError, match="shape"):
            run_inexact_newton(p, np.zeros(5), eps=1e-6,
                               error_source=lambda step: np.zeros(4))


def _plain_oracles(p, x):
    """f, gradient, Hessian, decrement and next iterate at one point,
    written with 1-D products only."""
    a, y, mu, n = p.features, p.labels, p.mu, p.n_samples
    z = y * (a @ x)
    f = float(np.mean(np.logaddexp(0.0, -z)) + 0.5 * mu * (x @ x))
    prob = sigmoid(-z)
    grad = -(a.T @ (y * prob)) / n + mu * x
    hess = (a.T * (prob * (1.0 - prob) / n)) @ a + mu * np.eye(p.dim)
    direction = solve_spd(hess, grad[:, None])[:, 0]
    lam = float(np.sqrt(max(grad @ direction, 0.0)))
    two_sqrt_mu = 2.0 * np.sqrt(mu)
    step_size = two_sqrt_mu / (two_sqrt_mu + lam)
    return f, grad, hess, lam, x - step_size * direction


class TestStackedOracles:
    """A ``(k, d)`` stack gives, slice by slice, the bits of the call on
    each point alone, and a point call gives the bits of the plain 1-D
    formulas, with Python floats for its scalars."""

    # derandomized so every run draws the same problems
    @settings(derandomize=True, deadline=None)
    @given(d=st.integers(1, 8), extra=st.integers(0, 30),
           k=st.integers(1, 6), mu=st.floats(0.01, 10.0),
           scale=st.floats(0.0, 5.0), seed=st.integers(0, 10**6))
    def test_slices_equal_point_calls(self, d, extra, k, mu, scale, seed):
        p = make_problem(seed, n=d + extra, d=d, mu=mu)
        xs = scale * np.random.default_rng(seed).standard_normal((k, d))
        f, grad, hess = loss_grad_hess(p, xs)
        values = objective(p, xs)
        state = damped_step(p, xs)
        for column in (f, values, state.f, state.decrement, state.step_size):
            assert column.shape == (k,)
        assert grad.shape == state.x.shape == (k, d)
        assert hess.shape == (k, d, d)
        for i, x in enumerate(xs):
            f1, grad1, hess1 = loss_grad_hess(p, x)
            one = damped_step(p, x)
            assert type(f1) is type(one.f) is type(one.decrement) is float
            assert type(objective(p, x)) is float
            assert f[i] == values[i] == state.f[i] == f1
            assert one.f == objective(p, x) == f1
            assert np.array_equal(grad[i], grad1)
            assert np.array_equal(hess[i], hess1)
            assert state.decrement[i] == one.decrement
            assert state.step_size[i] == one.step_size
            assert np.array_equal(state.x[i], one.x)
            f_ref, grad_ref, hess_ref, lam_ref, x_ref = _plain_oracles(p, x)
            assert f1 == f_ref and one.decrement == lam_ref
            assert np.array_equal(grad1, grad_ref)
            assert np.array_equal(hess1, hess_ref)
            assert np.array_equal(one.x, x_ref)

    @pytest.mark.parametrize("shape", [(4,), (2, 4), (2, 3, 5), ()])
    def test_wrong_shapes_rejected(self, shape):
        p = make_problem(40)
        for fn in (objective, loss_grad_hess, damped_step):
            with pytest.raises(ValueError, match="x must have shape"):
                fn(p, np.zeros(shape))

    def test_inexact_runner_takes_one_start_point(self):
        with pytest.raises(ValueError, match=r"x0 must have shape \(5,\)"):
            run_inexact_newton(make_problem(40), np.zeros((2, 5)), eps=1e-6)

    def test_non_finite_row_rejected(self):
        p = make_problem(41)
        xs = np.zeros((3, 5))
        xs[2, 1] = np.nan
        for fn in (objective, loss_grad_hess, damped_step):
            with pytest.raises(ValueError, match="non-finite"):
                fn(p, xs)

    def test_damped_step_checks_the_point_once(self, monkeypatch):
        check = logistic._check_point
        calls = []
        monkeypatch.setattr(logistic, "_check_point",
                            lambda p, x: calls.append(x) or check(p, x))
        damped_step(make_problem(42), np.zeros((2, 5)))
        assert len(calls) == 1


class TestOptimum:
    def test_criterion(self):
        mu = 0.1
        tol = OPTIMUM_TOL * 2.0 * np.sqrt(mu)
        assert optimum_reached(mu, tol / 2.0, 0)
        assert not optimum_reached(mu, 1.0, OPTIMUM_MAX_ITERS - 1)
        assert optimum_reached(mu, 1.0, OPTIMUM_MAX_ITERS)


class TestRunInexactNewton:
    def test_quadratic_phase_contraction_exact(self):
        for seed in range(5):
            p = make_problem(400 + seed)
            trace = run_inexact_newton(p, np.zeros(5), eps=1e-24)
            lam = trace.lambda_g
            for t in range(len(lam) - 1):
                if lam[t] < QUADRATIC_PHASE_THRESHOLD:
                    assert lam[t + 1] <= 3.0 * lam[t] ** 2 + 1e-12

    def test_quadratic_phase_contraction_inexact(self):
        eps = 1e-9
        for seed in range(5):
            p = make_problem(500 + seed)
            slack = quadratic_phase_epsilon(eps, p.mu)
            source = bounded_error_source(eps, 5, seed)
            trace = run_inexact_newton(p, np.zeros(5), eps=eps,
                                       error_source=source)
            lam = trace.lambda_g
            for t in range(len(lam) - 1):
                if lam[t] < QUADRATIC_PHASE_THRESHOLD:
                    assert lam[t + 1] <= 3.0 * lam[t] ** 2 + slack

    def test_reaches_error_floor(self):
        eps = 1e-4
        budget = int(30 + 4 * np.log(np.log(1.0 / eps)))
        for seed in range(10):
            p = make_problem(600 + seed)
            source = bounded_error_source(eps, 5, seed)
            trace = run_inexact_newton(p, np.zeros(5), eps=eps,
                                       error_source=source,
                                       max_iters=budget)
            assert trace.converged
            assert trace.g_suboptimality[-1] <= 10.0 * eps

    def test_iterates_stay_inside_norm_ball(self):
        eps = 1e-3
        for seed in range(5):
            p = make_problem(700 + seed)
            source = bounded_error_source(eps, 5, seed)
            trace = run_inexact_newton(p, np.zeros(5), eps=eps,
                                       error_source=source)
            bound = iterate_norm_bound(p.mu)
            for x in trace.iterates:
                assert np.linalg.norm(x) <= bound

    def test_oversized_error_rejected(self):
        p = make_problem(14)
        with pytest.raises(ValueError):
            run_inexact_newton(p, np.zeros(5), eps=1e-6,
                               error_source=lambda step: np.ones(5))

    def test_exhaustion_raises_with_trace(self):
        p = make_problem(15)
        with pytest.raises(ConvergenceError) as info:
            run_inexact_newton(p, np.zeros(5), eps=1e-20, max_iters=2)
        assert isinstance(info.value.trace, IterateTrace)
        assert info.value.trace.steps == 2

    def test_requires_positive_eps(self):
        p = make_problem(16)
        with pytest.raises(ValueError):
            run_inexact_newton(p, np.zeros(5), eps=0.0)
        with pytest.raises(ValueError, match="eps must be finite.* got inf"):
            run_inexact_newton(p, np.zeros(5), eps=float("inf"))

    def test_none_from_source_is_an_exact_step(self):
        p = make_problem(17)
        exact = run_inexact_newton(p, np.zeros(5), eps=1e-8)
        nones = run_inexact_newton(p, np.zeros(5), eps=1e-8,
                                   error_source=lambda step: None)
        assert nones.f == exact.f
        assert nones.injected_error_norm == [0.0] * len(exact.f)


def _reference_decrement(p, x):
    _, grad, hess = loss_grad_hess(p, x)
    direction = solve_spd(hess, grad[:, None])[:, 0]
    lam = float(np.sqrt(max(grad @ direction, 0.0)))
    return lam / (2.0 * np.sqrt(p.mu))


def _reference_step(p, x):
    _, grad, hess = loss_grad_hess(p, x)
    direction = solve_spd(hess, grad[:, None])[:, 0]
    lam = float(np.sqrt(max(grad @ direction, 0.0)))
    two_sqrt_mu = 2.0 * np.sqrt(p.mu)
    step_size = two_sqrt_mu / (two_sqrt_mu + lam)
    return step_size, x - step_size * direction


def _reference_optimum(p, tol=1e-12, max_iters=500):
    """(x_star, g_star, steps) from the scaled decrement, then a step."""
    x = np.zeros(p.dim)
    steps = 0
    for _ in range(max_iters):
        if _reference_decrement(p, x) <= tol:
            break
        x = _reference_step(p, x)[1]
        steps += 1
    return x, loss_grad_hess(p, x)[0] / (4.0 * p.mu), steps


def _reference_run(p, eps, source, g_star):
    """IterateTrace columns of a converging run: the scaled decrement,
    then the step, then ``+ error``."""
    cols = {name: [] for name in ("iterates", "f", "g", "lambda_g",
                                  "step_size", "injected_error_norm",
                                  "g_suboptimality")}
    x = np.zeros(p.dim)
    for step in range(100):
        f = loss_grad_hess(p, x)[0]
        lam_g = _reference_decrement(p, x)
        step_size, x_next = _reference_step(p, x)
        error = None
        if lam_g > np.sqrt(eps) and source is not None:
            error = source(step)
        row = (x, f, f / (4.0 * p.mu), lam_g, step_size,
               0.0 if error is None else float(np.linalg.norm(error)),
               f / (4.0 * p.mu) - g_star)
        for col, value in zip(cols.values(), row):
            col.append(value)
        if lam_g <= np.sqrt(eps):
            return cols
        x = x_next if error is None else x_next + error
    raise AssertionError("reference run did not converge")


def _source(eps, dim, seed):
    return None if eps is None else bounded_error_source(eps, dim, seed)


_REFERENCE_PROBLEMS = [(20, 26, 5, 0.1), (21, 26, 5, 0.5), (22, 40, 3, 0.05),
                       (23, 12, 8, 0.2), (24, 30, 2, 1.0), (25, 60, 6, 0.1)]


class TestOneStepPerIterate:
    # The reference loops above evaluate the scaled decrement, then the
    # step, then add the error, each with its own loss_grad_hess and
    # solve_spd calls; one damped_step per iterate must match them bit
    # for bit.
    @pytest.mark.parametrize("seed,n,d,mu", _REFERENCE_PROBLEMS)
    def test_equals_reference_formulas(self, seed, n, d, mu):
        p = make_problem(seed, n=n, d=d, mu=mu)
        x_ref, g_ref, _ = _reference_optimum(p)
        x_star, g_star = optimum(p)
        assert np.array_equal(x_star, x_ref) and g_star == g_ref
        for eps, err_eps in ((1e-10, None), (1e-6, 1e-6), (1e-3, 1e-3)):
            trace = run_inexact_newton(p, np.zeros(d), eps=eps,
                                       error_source=_source(err_eps, d, seed),
                                       reference=(x_star, g_star))
            expected = _reference_run(p, eps, _source(err_eps, d, seed),
                                      g_star)
            assert trace.converged
            for name, column in expected.items():
                if name == "iterates":
                    assert len(trace.iterates) == len(column)
                    for got, want in zip(trace.iterates, column):
                        assert np.array_equal(got, want)
                else:
                    assert getattr(trace, name) == column, name

    def test_one_hessian_and_one_solve_per_iterate(self, monkeypatch):
        calls = {"loss_grad_hess": 0, "solve_spd": 0}

        def counted(name):
            fn = getattr(logistic, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(logistic, name, wrapper)

        p = make_problem(26)
        _, _, steps = _reference_optimum(p)
        reference = optimum(p)
        counted("loss_grad_hess")
        counted("solve_spd")
        optimum(p)
        assert calls == {"loss_grad_hess": steps + 1, "solve_spd": steps + 1}
        calls.update(loss_grad_hess=0, solve_spd=0)
        trace = run_inexact_newton(p, np.zeros(5), eps=1e-6,
                                   error_source=bounded_error_source(1e-6, 5),
                                   reference=reference)
        iterates = len(trace.iterates)
        assert calls == {"loss_grad_hess": iterates, "solve_spd": iterates}


class TestErrorSource:
    def test_norm_is_exactly_eps(self):
        source = bounded_error_source(0.05, 7, seed=3)
        for step in range(20):
            assert np.linalg.norm(source(step)) == pytest.approx(
                0.05, rel=1e-12
            )

    def test_same_seed_replays(self):
        a = bounded_error_source(1e-3, 4, seed=9)
        b = bounded_error_source(1e-3, 4, seed=9)
        for step in range(5):
            np.testing.assert_array_equal(a(step), b(step))

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            bounded_error_source(-1.0, 3)

    def test_rejects_nan_eps(self):
        with pytest.raises(ValueError, match="got nan"):
            bounded_error_source(float("nan"), 3)

    def test_rejects_infinite_eps(self):
        with pytest.raises(ValueError, match="eps must be finite.* got inf"):
            bounded_error_source(float("inf"), 3)

    @pytest.mark.parametrize("dim", [0, 2.5])
    def test_rejects_bad_dimension(self, dim):
        with pytest.raises(ValueError,
                           match=f"dim must be an integer >= 1, got {dim}"):
            bounded_error_source(1e-3, dim)


class TestDecreaseFunctions:
    def test_omega_star_values(self):
        assert omega_star(0.0) == 0.0
        assert omega_star(0.1) == pytest.approx(0.0053605, abs=1e-7)

    def test_omega_values(self):
        assert omega(0.0) == 0.0
        assert omega(1.0) == pytest.approx(1.0 - np.log(2.0), rel=1e-14)

    def test_domains(self):
        with pytest.raises(ValueError):
            omega(-0.1)
        with pytest.raises(ValueError):
            omega_star(1.0)
        with pytest.raises(ValueError):
            omega_star(-0.1)
        with pytest.raises(ValueError):
            suboptimality_bound(1.5)

    def test_omega_rejects_nan(self):
        with pytest.raises(ValueError, match="got nan"):
            omega(float("nan"))

    def test_omega_rejects_inf(self):
        # inf - log1p(inf) would be nan
        with pytest.raises(ValueError, match="t must be finite, got inf"):
            omega(math.inf)

    def test_infinite_mu_rejected(self):
        # inf would give a norm bound of 1.0 and a nan slack
        message = "mu must be finite and positive, got inf"
        with pytest.raises(ValueError, match=message):
            iterate_norm_bound(math.inf)
        with pytest.raises(ValueError, match=message):
            quadratic_phase_epsilon(1e-3, math.inf)

    def test_quadratic_phase_epsilon_rejects_nan(self):
        with pytest.raises(ValueError, match="got nan"):
            quadratic_phase_epsilon(float("nan"), 0.1)

    def test_quadratic_phase_epsilon_rejects_infinite_eps(self):
        with pytest.raises(ValueError, match="eps must be finite.* got inf"):
            quadratic_phase_epsilon(float("inf"), 0.1)

    def test_suboptimality_bound_quadratic_cap(self):
        grid = np.linspace(0.0, QUADRATIC_PHASE_THRESHOLD, 2000)
        for lam in grid:
            assert suboptimality_bound(lam) <= 0.6 * lam**2 + 1e-15

    def test_quadratic_phase_epsilon_formula(self):
        eps, mu = 1e-6, 0.1
        expected = 3.0 * eps * 1.1 / 0.8 + eps * np.sqrt(1.1) / (
            2.0 * np.sqrt(0.1)
        )
        assert quadratic_phase_epsilon(eps, mu) == pytest.approx(
            expected, rel=1e-14
        )
        assert quadratic_phase_epsilon(0.0, mu) == 0.0
        with pytest.raises(ValueError):
            quadratic_phase_epsilon(-1e-6, mu)
        with pytest.raises(ValueError):
            quadratic_phase_epsilon(eps, 0.0)

    def test_iterate_norm_bound_value(self):
        assert iterate_norm_bound(0.1) == pytest.approx(
            np.sqrt(2.0 * np.log(2.0) / 0.1) + 1.0, rel=1e-14
        )
        with pytest.raises(ValueError):
            iterate_norm_bound(0.0)


class TestSelfConcordance:
    def test_third_derivative_inequality(self):
        # along any line, the scaled objective g = f / (4 mu) satisfies
        # |g'''| <= 2 g''^(3/2); checked by finite differences at t = 0
        for seed in range(5):
            p = make_problem(800 + seed)
            rng = np.random.default_rng(900 + seed)
            x = rng.standard_normal(5)
            u = rng.standard_normal(5)
            u /= np.linalg.norm(u)

            def second(t):
                _, _, hess = loss_grad_hess(p, x + t * u)
                return (u @ hess @ u) / (4.0 * p.mu)

            h = 1e-4
            third = (second(h) - second(-h)) / (2.0 * h)
            assert abs(third) <= 2.0 * second(0.0) ** 1.5 * (1.0 + 1e-3)


class TestConstantDecreaseScan:
    def test_closed_form_corner(self):
        value = decrease_bound(1.0 / 6.0, 0.0, 0.0)
        expected = -1.0 / 42.0 - np.log(1.0 - 1.0 / 7.0) - 1.0 / 7.0
        assert value == pytest.approx(expected, rel=1e-14)
        assert value == pytest.approx(-0.012515986839408355, abs=1e-15)

    def test_bound_decreases_along_error_free_slice(self):
        xs = np.linspace(1.0 / 6.0, 1.0, 300)
        hs = decrease_bound(xs, np.zeros_like(xs), 0.0)
        assert np.all(np.diff(hs) <= 0.0)

    def test_scan_maximum(self):
        value = scan_constant_decrease(grid_x=200, grid_c=200)
        assert value <= -0.01

    def test_scan_fixed_value(self):
        value = scan_constant_decrease()
        assert value == pytest.approx(-0.012448583589145273, abs=1e-15)

    def test_scan_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            scan_constant_decrease(grid_x=50)

    def test_anomaly_error_carries_location(self):
        err = ScanAnomalyError("bad", location=(0.5, 0.0, 1e-4))
        assert err.location == (0.5, 0.0, 1e-4)
