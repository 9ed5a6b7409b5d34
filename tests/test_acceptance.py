"""End-to-end acceptance gate.

Each test exercises one numbered acceptance criterion and prints a
single PASS/FAIL line (visible with ``pytest -s``).  Tolerances are
fixed; a failing criterion fails its test.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from quarter_square import pwl_product
from start_steps import alpha_prime_steps
from unrolled import linreg_stack

from newtonformer import (
    bounded_error_source,
    build_inversion_block,
    build_pwl,
    damped_step,
    eval_pwl,
    fitted_order,
    hyperpower_step,
    loss_grad_hess,
    make_inversion_prompt,
    make_linreg_prompt,
    model_forward,
    read_inversion_iterate,
    read_linreg_prediction,
    run_constructed_newton,
    run_inexact_newton,
    run_inverse,
    scaled_decrement,
    scan_constant_decrease,
    solve_spd,
    width_depth_budget,
)
from newtonformer.datagen import gen_linreg_data, gen_logreg_data, make_covariance
from newtonformer.harness import ExperimentConfig


def _report(num, name, ok):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def _logreg_problem(seed):
    cfg = ExperimentConfig(task="logreg", d=5, n=26, kappa=10.0,
                           mu=0.1, eps=1e-2, seed=seed)
    return gen_logreg_data(cfg)[0]


def test_01_inversion_block_matches_direct_step():
    ok = False
    try:
        rng = np.random.default_rng(0)
        t0 = time.perf_counter()
        worst = 0.0
        for trial in range(100):
            d = (2, 4, 8)[trial % 3]
            a = rng.standard_normal((d, d))
            x = rng.standard_normal((d, d)) / d
            layers, layout = build_inversion_block(d)
            h = model_forward(layers, make_inversion_prompt(a, x))
            got = read_inversion_iterate(h, layout)
            want = hyperpower_step(x, a, 2)
            worst = max(worst, np.linalg.norm(got - want)
                        / max(np.linalg.norm(want), 1e-300))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-12 and elapsed < 5.0
    finally:
        _report(1, "inversion-block-equals-update-rule", ok)
    assert ok


def test_02_inverse_iteration_convergence_order():
    ok = False
    try:
        rng = np.random.default_rng(1)
        orders = []
        for kappa in (10.0, 100.0):
            sigma = make_covariance(8, kappa, rng)
            r2 = run_inverse(sigma, order=2, tol=1e-13, max_iters=60).residuals
            r3 = run_inverse(sigma, order=3, tol=1e-13, max_iters=60).residuals
            orders.append((fitted_order(r2), fitted_order(r3)))
        ok = all(o2 >= 1.9 and o3 >= 2.8 for o2, o3 in orders)
    finally:
        _report(2, "quadratic-and-cubic-convergence", ok)
    assert ok


def test_03_step_count_grows_logarithmically():
    ok = False
    try:
        rng = np.random.default_rng(2)
        t0 = time.perf_counter()
        steps = []
        for kappa in (4.0, 16.0, 64.0, 256.0):
            sigma = make_covariance(8, kappa, rng)
            steps.append(run_inverse(sigma, order=2, tol=1e-10).steps)
        elapsed = time.perf_counter() - t0
        growth_factors = [b / a for a, b in zip(steps, steps[1:])]
        per_doubling = [(b - a) / 2.0 for a, b in zip(steps, steps[1:])]
        ok = (all(g <= 2.5 for g in growth_factors)
              and all(d <= 2.5 for d in per_doubling)
              and elapsed < 10.0)
    finally:
        _report(3, "inverse-step-count-scaling", ok)
    assert ok


def test_04_linreg_transformer_end_to_end():
    ok = False
    try:
        worst = 0.0
        # seeds 0-49, one prompt apiece
        cfg = ExperimentConfig(task="linreg", d=10, n=50, kappa=100.0,
                               noise_std=0.0, seed=0, batch=50)
        for a, y, a_test, _ in zip(*gen_linreg_data(cfg)):
            gram = a.T @ a
            # steps to ||I - X B||_2 <= 1e-10 from the alpha' I start
            t = alpha_prime_steps(gram, 1e-10)
            layers, layout = linreg_stack(10, t)
            pred = read_linreg_prediction(
                model_forward(layers, make_linreg_prompt(a, y, a_test)),
                layout)
            oracle = float(a_test @ solve_spd(gram, (a.T @ y)[:, None])[:, 0])
            worst = max(worst, abs(pred - oracle) / max(abs(oracle), 1e-12))
        ok = worst <= 1e-6
    finally:
        _report(4, "regression-prediction-end-to-end", ok)
    assert ok


def test_05_logistic_derivatives_and_spectrum():
    ok = False
    try:
        rng = np.random.default_rng(5)
        worst_grad = worst_hess = 0.0
        eigs_ok = True
        for trial in range(50):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(d, 41))
            mu = float(rng.choice([0.05, 0.1, 0.5, 1.0]))
            cfg = ExperimentConfig(task="logreg", d=d, n=n, kappa=10.0,
                                   mu=mu, eps=1e-2, seed=trial)
            problem = gen_logreg_data(cfg)[0]
            x = rng.standard_normal(d)
            _, grad, hess = loss_grad_hess(problem, x)

            h = 1e-6
            fd_grad = np.empty(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd_grad[i] = (loss_grad_hess(problem, x + e)[0]
                              - loss_grad_hess(problem, x - e)[0]) / (2 * h)
            worst_grad = max(worst_grad,
                             np.linalg.norm(fd_grad - grad)
                             / np.linalg.norm(grad))

            h = 1e-5
            fd_hess = np.empty((d, d))
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                gp = loss_grad_hess(problem, x + e)[1]
                gm = loss_grad_hess(problem, x - e)[1]
                fd_hess[:, i] = (gp - gm) / (2 * h)
            worst_hess = max(worst_hess,
                             np.linalg.norm(fd_hess - hess)
                             / np.linalg.norm(hess))

            eigs = np.linalg.eigvalsh(hess)
            eigs_ok = eigs_ok and bool(
                np.all(eigs >= mu - 1e-12) and np.all(eigs <= 1 + mu + 1e-12))
        ok = worst_grad <= 1e-5 and worst_hess <= 1e-5 and eigs_ok
    finally:
        _report(5, "derivatives-match-finite-differences", ok)
    assert ok


def test_06_damped_newton_two_phases():
    ok = False
    try:
        mu = 0.1
        violations = 0
        for seed in range(10):
            problem = _logreg_problem(seed)
            x = np.zeros(5)
            for _ in range(15):
                lam = scaled_decrement(mu, damped_step(problem, x).decrement)
                g0 = loss_grad_hess(problem, x)[0] / (4 * mu)
                x_next = damped_step(problem, x).x
                g1 = loss_grad_hess(problem, x_next)[0] / (4 * mu)
                lam_next = scaled_decrement(
                    mu, damped_step(problem, x_next).decrement
                )
                if lam >= 1 / 6 and g0 - g1 < 0.01:
                    violations += 1
                if lam < 1 / 6 and lam_next > 3 * lam * lam + 1e-12:
                    violations += 1
                x = x_next
        ok = violations == 0
    finally:
        _report(6, "constant-then-quadratic-phase", ok)
    assert ok


def test_07_inexact_newton_converges_in_budget():
    ok = False
    try:
        eps = 1e-4
        budget_steps = int(30 + 4 * math.log(math.log(1 / eps)))
        converged = True
        worst = 0.0
        for seed in range(10):
            problem = _logreg_problem(seed)
            source = bounded_error_source(eps, 5, seed + 1)
            trace = run_inexact_newton(problem, np.zeros(5), eps, source,
                                       max_iters=budget_steps)
            converged = converged and trace.converged
            worst = max(worst, trace.g_suboptimality[-1])
        ok = converged and worst <= 1e-3
    finally:
        _report(7, "inexact-newton-step-budget", ok)
    assert ok


def test_08_constructed_logistic_step():
    ok = False
    try:
        t0 = time.perf_counter()
        budget = width_depth_budget(1e-2, 0.1, d=5)
        worst = 0.0
        for seed in range(5):
            problem = _logreg_problem(seed)
            xs = run_constructed_newton(problem, np.zeros(5), budget, 1)
            oracle = damped_step(problem, np.zeros(5)).x
            worst = max(worst, float(np.linalg.norm(xs[1] - oracle)))
        elapsed = time.perf_counter() - t0
        ok = (worst <= 1e-2
              and budget.depth == 6 + budget.widths["k"]
              and elapsed < 60.0)
    finally:
        _report(8, "network-step-tracks-damped-newton", ok)
    assert ok


def test_09_pwl_width_law():
    ok = False
    try:
        def sigmoid_derivative(x):
            p = 1.0 / (1.0 + np.exp(-x))
            return p * (1.0 - p)

        grid = np.linspace(-10.0, 10.0, 100_000)
        target = sigmoid_derivative(grid)
        width_ok = True
        for n in (250, 1000, 4000):
            p = build_pwl(sigmoid_derivative, -10.0, 10.0, n)
            err = np.max(np.abs(eval_pwl(p, grid) - target))
            width_ok = width_ok and err <= 4.0 / n

        rng = np.random.default_rng(9)
        points = rng.uniform(-1.0, 1.0, size=(400, 2))
        sizes = np.array([50, 100, 200, 400, 800])
        errs = []
        for pieces in sizes:
            errs.append(max(
                abs(pwl_product(x, y, (-1.1, 1.1), (-1.1, 1.1), int(pieces))
                    - x * y)
                for x, y in points))
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        ok = width_ok and -2.2 <= slope <= -1.8
    finally:
        _report(9, "relu-width-error-law", ok)
    assert ok


def test_10_constant_decrease_scan():
    ok = False
    try:
        t0 = time.perf_counter()
        maximum = scan_constant_decrease()
        elapsed = time.perf_counter() - t0
        ok = maximum <= -0.01 and elapsed < 5.0
    finally:
        _report(10, "decrease-certificate-scan", ok)
    assert ok


def test_11_cli_runs_reproduce_byte_identically(tmp_path):
    ok = False
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        def run(args, out_dir):
            cmd = [sys.executable, "-m", "newtonformer", *args,
                   "--out-dir", str(out_dir)]
            res = subprocess.run(cmd, capture_output=True, text=True, env=env)
            assert res.returncode == 0, res.stderr
            return res.stdout

        def stdout_only(args):
            cmd = [sys.executable, "-m", "newtonformer", *args]
            res = subprocess.run(cmd, capture_output=True, text=True, env=env)
            assert res.returncode == 0, res.stderr
            return res.stdout

        same = True
        jobs = (
            (["invert", "--d", "5", "--kappa", "8", "--eps", "1e-8",
              "--t-max", "40"], "invert.csv"),
            (["linreg", "--d", "4", "--n", "12", "--kappa", "25",
              "--t-max", "10", "--batch", "2", "--seed", "3"],
             "linreg.csv"),
            (["logreg", "--d", "5", "--n", "26", "--eps", "1e-2",
              "--t-max", "2"], "logreg.csv"),
        )
        for args, fname in jobs:
            d1 = tmp_path / (fname + ".first")
            d2 = tmp_path / (fname + ".second")
            run(args, d1)
            run(args, d2)
            same = same and ((d1 / fname).read_bytes()
                             == (d2 / fname).read_bytes())

        for args in (["budget", "--eps", "1e-2", "--mu", "0.1"],
                     ["scan-decrease", "--grid-x", "150", "--grid-c", "150"]):
            same = same and (stdout_only(args) == stdout_only(args))
        ok = same
    finally:
        _report(11, "cli-byte-identical-reruns", ok)
    assert ok
