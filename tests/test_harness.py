import csv
import json
import math
import re
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import cli_outputs
import numpy as np
import pytest
from dense_attention import dense_attention_forward
from hypothesis import given, settings
from hypothesis import strategies as st
from per_seed_draw import per_seed_linreg_data
from unrolled import linreg_stack

from newtonformer import (builders, cli, datagen, inversion, logistic,
                          transformer)
from newtonformer.builders import make_linreg_prompt, read_linreg_prediction
from newtonformer.cli import main
from newtonformer.datagen import gen_linreg_data, gen_logreg_data, make_covariance
from newtonformer.harness import (
    ExperimentConfig,
    run_invert_experiment,
    run_linreg_experiment,
    run_logreg_experiment,
)
from newtonformer.transformer import model_forward


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestMakeCovariance:
    @pytest.mark.parametrize("kappa", [1.0, 10.0, 100.0])
    def test_condition_number_is_exact(self, kappa):
        rng = np.random.default_rng(0)
        sigma = make_covariance(6, kappa, rng)
        eigs = np.linalg.eigvalsh(sigma)
        assert eigs[0] > 0
        assert eigs[-1] / eigs[0] == pytest.approx(kappa, rel=1e-9)

    def test_kappa_one_is_isotropic(self):
        rng = np.random.default_rng(1)
        sigma = make_covariance(5, 1.0, rng)
        eigs = np.linalg.eigvalsh(sigma)
        assert (eigs[-1] - eigs[0]) <= 1e-12 * eigs[-1]

    def test_symmetric_by_construction(self):
        rng = np.random.default_rng(2)
        sigma = make_covariance(7, 30.0, rng)
        np.testing.assert_array_equal(sigma, sigma.T)

    def test_same_seed_same_matrix(self):
        a = make_covariance(4, 12.0, np.random.default_rng(9))
        b = make_covariance(4, 12.0, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            make_covariance(0, 2.0, rng)
        with pytest.raises(ValueError):
            make_covariance(3, 0.5, rng)
        with pytest.raises(ValueError, match="got nan"):
            make_covariance(3, float("nan"), rng)
        with pytest.raises(ValueError, match="kappa must be finite"):
            make_covariance(3, float("inf"), rng)
        with pytest.raises(ValueError):
            make_covariance(1, 2.0, rng)

    def test_non_integer_d_is_named(self):
        with pytest.raises(ValueError,
                           match=r"^d must be an integer, got 2\.5$"):
            make_covariance(2.5, 10.0, np.random.default_rng(0))
        np.testing.assert_array_equal(
            make_covariance(3.0, 10.0, np.random.default_rng(0)),
            make_covariance(3, 10.0, np.random.default_rng(0)),
        )


class TestGenLinreg:
    def cfg(self, **kw):
        base = dict(task="linreg", d=6, n=30, kappa=50.0, seed=4, batch=3)
        base.update(kw)
        return ExperimentConfig(**base)

    def test_shapes(self):
        a, y, a_test, w_star = gen_linreg_data(self.cfg())
        assert a.shape == (3, 30, 6)
        assert y.shape == (3, 30)
        assert a_test.shape == (3, 6)
        assert w_star.shape == (3, 6)

    def test_noise_free_labels_are_clean(self):
        a, y, _, w_star = gen_linreg_data(self.cfg(noise_std=0.0))
        for a_i, y_i, w_i in zip(a, y, w_star):
            np.testing.assert_array_equal(y_i, a_i @ w_i)

    def test_noise_changes_labels_only(self):
        clean = gen_linreg_data(self.cfg(noise_std=0.0))
        noisy = gen_linreg_data(self.cfg(noise_std=0.3))
        np.testing.assert_array_equal(clean[0], noisy[0])
        np.testing.assert_array_equal(clean[3], noisy[3])
        assert np.all(np.any(clean[1] != noisy[1], axis=-1))

    def test_overflowing_noise_is_named(self):
        # a numpy RuntimeWarning would fail this test: pytest turns it
        # into an error
        with pytest.raises(ValueError, match=(
                r"^noise_std=1e\+308 overflows float64: the labels "
                r"A w_star \+ noise_std \* noise exceed its range$")):
            gen_linreg_data(self.cfg(noise_std=1e308))

    def test_deterministic(self):
        first = gen_linreg_data(self.cfg())
        second = gen_linreg_data(self.cfg())
        for lhs, rhs in zip(first, second):
            np.testing.assert_array_equal(lhs, rhs)

    def test_row_covariance_conditioning(self):
        cfg = self.cfg(n=4000, kappa=100.0, seed=11, batch=1)
        a, _, _, _ = gen_linreg_data(cfg)
        sample = (a[0].T @ a[0]) / 4000
        kappa = np.linalg.cond(sample)
        assert 10.0 <= kappa <= 1000.0

    # derandomized so every run draws the same configs
    @settings(derandomize=True, deadline=None)
    @given(d=st.integers(1, 12), extra=st.integers(0, 20),
           kappa=st.floats(1.0, 1e3), noisy=st.booleans(),
           batch=st.integers(1, 20), seed=st.integers(0, 10**6))
    def test_slices_equal_per_seed_draws(self, d, extra, kappa, noisy,
                                         batch, seed):
        cfg = self.cfg(d=d, n=d + extra, kappa=1.0 if d == 1 else kappa,
                       noise_std=0.3 if noisy else 0.0, batch=batch,
                       seed=seed)
        stacks = gen_linreg_data(cfg)
        for i in range(batch):
            want = per_seed_linreg_data(cfg, seed + i)
            for got, ref in zip(stacks, want):
                assert np.array_equal(got[i], ref)


class TestGenLogreg:
    def cfg(self, **kw):
        base = dict(task="logreg", d=5, n=26, kappa=10.0, mu=0.1, seed=5)
        base.update(kw)
        return ExperimentConfig(**base)

    def test_max_row_norm_is_one(self):
        problem, _ = gen_logreg_data(self.cfg())
        norms = np.linalg.norm(problem.features, axis=1)
        assert abs(norms.max() - 1.0) <= 1e-12

    def test_labels_follow_separator(self):
        problem, w_star = gen_logreg_data(self.cfg())
        margins = problem.features @ w_star
        expected = np.where(margins == 0.0, 1.0, np.sign(margins))
        np.testing.assert_array_equal(problem.labels, expected)

    def test_label_flip_symmetry(self):
        problem, w_star = gen_logreg_data(self.cfg())
        margins = problem.features @ w_star
        flipped = np.sign(problem.features @ (-w_star))
        nonties = margins != 0.0
        np.testing.assert_array_equal(flipped[nonties],
                                      -problem.labels[nonties])

    def test_deterministic(self):
        a, _ = gen_logreg_data(self.cfg())
        b, _ = gen_logreg_data(self.cfg())
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestExperimentConfig:
    def test_rejects_unknown_task(self):
        with pytest.raises(ValueError):
            ExperimentConfig(task="sort")

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ExperimentConfig(task="invert", d=0)
        with pytest.raises(ValueError):
            ExperimentConfig(task="invert", kappa=0.9)
        with pytest.raises(ValueError):
            ExperimentConfig(task="invert", eps=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(task="invert", t_max=0)
        with pytest.raises(ValueError):
            ExperimentConfig(task="invert", orders=(9,))
        with pytest.raises(ValueError):
            ExperimentConfig(task="linreg", d=10, n=5)
        with pytest.raises(ValueError):
            ExperimentConfig(task="logreg", mu=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(task="invert", batch=0)
        for task in ("invert", "linreg", "logreg"):
            with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
                ExperimentConfig(task=task, seed=-1)
        for task, field in (("invert", "kappa"), ("linreg", "noise_std"),
                            ("linreg", "mu"), ("logreg", "mu"),
                            ("invert", "eps"), ("logreg", "eps")):
            for value in ("nan", "inf"):
                with pytest.raises(ValueError, match=f"finite.* got {value}"):
                    ExperimentConfig(task=task, **{field: float(value)})

    @pytest.mark.parametrize("field", ["d", "n", "t_max", "seed", "batch"])
    def test_rejects_non_integral_counts(self, field):
        task = "linreg"  # the one task that reads all five
        with pytest.raises(ValueError,
                           match=f"^{field} must be an integer, got 50.5$"):
            ExperimentConfig(task=task, **{field: 50.5})
        cfg = ExperimentConfig(task=task, **{field: 50.0})
        assert type(getattr(cfg, field)) is int

    def test_orders_coerced_to_int_tuple(self):
        cfg = ExperimentConfig(task="invert", orders=[2.0, 3.0])
        assert cfg.orders == (2, 3)

    @pytest.mark.parametrize("task", ["invert", "linreg"])
    def test_rejects_repeated_orders(self, task):
        # a repeated order would advance the same oracle twice per step
        with pytest.raises(ValueError,
                           match="^orders must not repeat, got 2 twice$"):
            ExperimentConfig(task=task, orders=(2, 3, 2))
        with pytest.raises(ValueError, match="got 3 twice"):
            ExperimentConfig(task=task, orders=(3.0, 3))

    def test_runner_rejects_mismatched_task(self):
        cfg = ExperimentConfig(task="invert")
        with pytest.raises(ValueError):
            run_linreg_experiment(cfg)
        with pytest.raises(ValueError):
            run_logreg_experiment(cfg)


class TestInvertRunner:
    def test_writes_residual_trace(self, tmp_path):
        cfg = ExperimentConfig(task="invert", d=6, kappa=16.0, eps=1e-10,
                               orders=(2, 3), t_max=60, seed=0,
                               out_dir=str(tmp_path))
        paths = run_invert_experiment(cfg)
        assert paths == [str(tmp_path / "invert.csv")]
        rows = read_rows(paths[0])
        orders = {row["order"] for row in rows}
        assert orders == {"2", "3"}
        for order in ("2", "3"):
            trace = [float(r["residual_frobenius"]) for r in rows
                     if r["order"] == order]
            assert trace[-1] <= 1e-10
            steps = [int(r["step"]) for r in rows if r["order"] == order]
            assert steps == list(range(len(trace)))

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(task="invert", d=5, kappa=8.0, eps=1e-8,
                               t_max=40, out_dir=str(tmp_path))
        path = run_invert_experiment(cfg)[0]
        first = Path(path).read_bytes()
        run_invert_experiment(cfg)
        assert Path(path).read_bytes() == first


# The benchmark's linreg_depth call: the CLI defaults.
LINREG_DEPTH = ExperimentConfig(task="linreg", d=10, n=50, kappa=100.0,
                                t_max=30, batch=16)


@pytest.fixture(scope="module")
def linreg_table(tmp_path_factory):
    out = tmp_path_factory.mktemp("linreg")
    cfg = ExperimentConfig(task="linreg", d=4, n=12, kappa=25.0,
                           mu=0.0, orders=(2, 3), t_max=30, seed=1,
                           out_dir=str(out), batch=3)
    path = run_linreg_experiment(cfg)[0]
    rows = read_rows(path)
    series = {}
    for row in rows:
        series.setdefault(row["method"], []).append(
            (int(row["steps"]), float(row["mse"]))
        )
    return {m: [v for _, v in sorted(vals)] for m, vals in series.items()}


class TestLinregRunner:

    def test_constructed_equals_order_two_oracle(self, linreg_table):
        ours = np.asarray(linreg_table["constructed"])
        oracle = np.asarray(linreg_table["newton_order_2"])
        scale = np.maximum(np.abs(oracle), 1.0)
        assert np.all(np.abs(ours - oracle) <= 1e-9 * scale)

    def test_losses_nonincreasing_past_knee(self, linreg_table):
        # contraction is only guaranteed once the residual enters the
        # unit ball, so an early transient rise is allowed; 1e-20 slack
        # absorbs noise around the double-precision floor (~1e-28)
        for method in ("constructed", "newton_order_2", "newton_order_3"):
            mse = np.asarray(linreg_table[method])
            rises = [
                t for t in range(1, len(mse))
                if mse[t] > mse[t - 1] * (1.0 + 1e-9) + 1e-20
            ]
            assert max(rises, default=0) <= 5
            assert mse[-1] <= 1e-20

    @pytest.mark.parametrize("seed", [0, 33, 101, 119])
    def test_constructed_rows_within_bench_tolerance(self, seed, tmp_path):
        # the benchmark's check on linreg_depth's config: the constructed
        # rms error is within 1e-8 relative plus 1e-11 of the order-2
        # oracle's
        rows = read_rows(run_linreg_experiment(
            replace(LINREG_DEPTH, seed=seed, out_dir=str(tmp_path)))[0])
        mse = {}
        for row in rows:
            mse.setdefault(row["method"], []).append(float(row["mse"]))
        ours = np.sqrt(mse["constructed"])
        oracle = np.sqrt(mse["newton_order_2"])
        assert len(ours) == LINREG_DEPTH.t_max
        assert np.all(np.abs(ours - oracle) <= 1e-8 * oracle + 1e-11)

    @pytest.mark.parametrize("seed", [0, 33, 119])
    def test_rows_barely_move_with_the_oracle_start(self, seed, tmp_path,
                                                    monkeypatch):
        # the oracles' alpha' is the one input the harness's traces
        # feed; the stack sums its own trace in context.  An oracle
        # start 7e-14 relative low leaves the constructed and
        # least-squares rows as they are and moves every oracle row
        # above 1e-6 by at most 1e-9 relative
        cfg = replace(LINREG_DEPTH, seed=seed)
        exact = csv_lines(run_linreg_experiment(
            replace(cfg, out_dir=str(tmp_path / "exact")))[0])
        start = inversion.trace_initial_scale
        monkeypatch.setattr(inversion, "trace_initial_scale",
                            lambda t: start(t) * (1.0 - 7e-14))
        low = csv_lines(run_linreg_experiment(
            replace(cfg, out_dir=str(tmp_path / "low")))[0])
        assert len(low) == len(exact) and low[0] == exact[0]
        moved = 0
        for line, ref in zip(low[1:], exact[1:]):
            *key, value = line.split(",")
            *ref_key, want = ref.split(",")
            assert key == ref_key
            if key[0] in ("constructed", "least_squares"):
                assert value == want
            else:
                moved += value != want
                if float(want) > 1e-6:
                    assert abs(float(value) / float(want) - 1.0) <= 1e-9
        assert moved > 0

    def test_higher_order_reaches_tolerance_sooner(self, linreg_table):
        floor = np.asarray(linreg_table["least_squares"])[-1]
        tol = 1e-8 * (1.0 + floor)

        def crossing(method):
            mse = linreg_table[method]
            return next(t for t, v in enumerate(mse) if v <= tol)

        assert crossing("newton_order_3") < crossing("newton_order_2")

    def test_least_squares_row_is_flat_floor(self, linreg_table):
        ls = np.asarray(linreg_table["least_squares"])
        assert np.all(ls == ls[0])
        assert ls[0] <= np.asarray(linreg_table["constructed"])[0]


def per_prompt_problems(cfg):
    """Each prompt's data, Gram matrix and start alpha', one 2-D call
    apiece."""
    problems = []
    for item in range(cfg.batch):
        a, y, a_test, w_star = per_seed_linreg_data(cfg, cfg.seed + item)
        gram = a.T @ a + cfg.mu * np.eye(cfg.d)
        start = inversion.trace_initial_scale(np.trace(gram))
        problems.append((a, y, a_test, gram, start, float(a_test @ w_star)))
    return problems


def replayed_constructed_mse(cfg):
    """The constructed rows as a full rebuild and replay per depth."""
    problems = per_prompt_problems(cfg)
    mses = []
    for t in range(1, cfg.t_max + 1):
        errs = []
        for a, y, a_test, _, _, target in problems:
            layers, layout = linreg_stack(cfg.d, t, ridge_mu=cfg.mu)
            prompt = make_linreg_prompt(a, y, a_test)
            pred = read_linreg_prediction(model_forward(layers, prompt), layout)
            errs.append((pred - target) * (pred - target))
        mses.append(float(np.mean(errs)))
    return mses


def per_prompt_oracle_mse(cfg, order):
    """The newton_order_<order> rows with one 2-D hyperpower step per
    prompt and depth, each error squared correctly rounded."""
    problems = per_prompt_problems(cfg)
    xs = [start * np.eye(cfg.d) for _, _, _, _, start, _ in problems]
    mses = []
    for _ in range(cfg.t_max):
        errs = []
        for i, (a, y, a_test, gram, _, target) in enumerate(problems):
            xs[i] = inversion.hyperpower_step(xs[i], gram, order)
            err = float(a_test @ xs[i] @ (a.T @ y)) - target
            errs.append(err * err)
        mses.append(float(np.mean(errs)))
    return mses


def small_linreg_cfg(out_dir, mu):
    return ExperimentConfig(task="linreg", d=3, n=8, mu=mu, orders=(2, 3, 8),
                            t_max=6, batch=3, seed=2, out_dir=str(out_dir))


def counting(counts, key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


class TestLinregLinearInDepth:

    @pytest.mark.parametrize("mu", [0.0, 0.1])
    def test_constructed_rows_equal_replay(self, tmp_path, mu):
        cfg = small_linreg_cfg(tmp_path, mu)
        rows = read_rows(run_linreg_experiment(cfg)[0])
        ours = [float(r["mse"]) for r in rows if r["method"] == "constructed"]
        assert ours == replayed_constructed_mse(cfg)

    @pytest.mark.parametrize("mu", [0.0, 0.1])
    def test_oracle_rows_equal_per_prompt_steps(self, tmp_path, mu):
        cfg = small_linreg_cfg(tmp_path, mu)
        rows = read_rows(run_linreg_experiment(cfg)[0])
        for order in cfg.orders:
            ours = [float(r["mse"]) for r in rows
                    if r["method"] == f"newton_order_{order}"]
            assert ours == per_prompt_oracle_mse(cfg, order)

    def test_oracle_rows_square_errors_correctly_rounded(self, tmp_path):
        # the rows square each error as err * err, correctly rounded;
        # here glibc's pow, behind Python's **, is 1 ulp off in one error
        # square, which would move the step-24 mse
        cfg = ExperimentConfig(task="linreg", d=6, n=7, mu=0.5,
                               noise_std=0.2, orders=(2,), t_max=24,
                               batch=5, seed=11, out_dir=str(tmp_path))
        rows = read_rows(run_linreg_experiment(cfg)[0])
        ours = [float(r["mse"]) for r in rows
                if r["method"] == "newton_order_2"]
        assert ours == per_prompt_oracle_mse(cfg, 2)

    def test_one_build_and_one_newton_prefix_per_prompt(self, tmp_path,
                                                        monkeypatch):
        counts = {"attention": 0, "build": 0, "forward": 0}
        monkeypatch.setattr(transformer, "attention_forward",
                            counting(counts, "attention",
                                     transformer.attention_forward))
        monkeypatch.setattr(transformer, "model_forward",
                            counting(counts, "forward", model_forward))
        monkeypatch.setattr(builders, "build_linreg_transformer",
                            counting(counts, "build",
                                     builders.build_linreg_transformer))
        cfg = small_linreg_cfg(tmp_path, 0.0)
        run_linreg_experiment(cfg)
        # one build per run, one forward call running the prefix (both
        # init layers and two passes of the step) on the whole prompt
        # stack, then one per depth running the one-layer body in place
        assert counts == {"attention": cfg.t_max + 4,
                          "build": 1, "forward": 1 + cfg.t_max}

    @pytest.mark.parametrize("mu", [0.0, 0.1])
    def test_every_prompt_runs_the_same_weights(self, tmp_path, monkeypatch,
                                                mu):
        # the layers each prompt's slice runs through, in order: every
        # head band, every scale and every gadget table are equal for
        # two prompts of one task, so nothing in them is per prompt
        calls = []

        def recording(layers, h, **kwargs):
            calls.append((list(layers), np.ndim(h)))
            return model_forward(layers, h, **kwargs)

        monkeypatch.setattr(transformer, "model_forward", recording)
        cfg = replace(small_linreg_cfg(tmp_path, mu), batch=2)
        run_linreg_experiment(cfg)
        single = [layers for layers, ndim in calls if ndim == 2]
        shared = [layer for layers, ndim in calls if ndim == 3
                  for layer in layers]
        per_prompt = [layers + shared for layers in single] or [shared] * 2
        assert len(per_prompt) == cfg.batch
        first, second = per_prompt
        assert len(first) == len(second)
        for ours, theirs in zip(first, second):
            assert len(ours.heads) == len(theirs.heads)
            for a, b in zip(ours.heads, theirs.heads):
                assert (a.value, a.key, a.query) == (b.value, b.key, b.query)
            assert (ours.ffn is None) == (theirs.ffn is None)
            if ours.ffn is not None:
                assert ours.ffn.ones_row == theirs.ffn.ones_row
                for g, k in zip(ours.ffn.gadgets, theirs.ffn.gadgets,
                                strict=True):
                    assert (g.scale, g.out_row) == (k.scale, k.out_row)
                    assert np.array_equal(g.arg, k.arg)
                    assert np.array_equal(g.approx.knots, k.approx.knots)
                    assert np.array_equal(g.approx.values, k.approx.values)

    def test_peak_traced_memory_is_small(self, tmp_path):
        # linreg_depth's call allocates under 1 MB at its peak; holding
        # views of each depth's output stack would take about 9 MB
        cfg = replace(LINREG_DEPTH, out_dir=str(tmp_path))
        run_linreg_experiment(cfg)
        tracemalloc.start()
        try:
            run_linreg_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_one_alpha_call_and_one_oracle_step_per_depth_and_order(
            self, tmp_path, monkeypatch):
        # one call gives every oracle's start alpha', and no SVD runs
        counts = {"alpha": 0, "oracle": 0, "svd": 0}
        monkeypatch.setattr(inversion, "trace_initial_scale",
                            counting(counts, "alpha",
                                     inversion.trace_initial_scale))
        monkeypatch.setattr(inversion, "hyperpower_step",
                            counting(counts, "oracle",
                                     inversion.hyperpower_step))
        monkeypatch.setattr(np.linalg, "svd",
                            counting(counts, "svd", np.linalg.svd))
        cfg = small_linreg_cfg(tmp_path, 0.0)
        run_linreg_experiment(cfg)
        assert counts == {"alpha": 1,
                          "oracle": cfg.t_max * len(cfg.orders), "svd": 0}


@pytest.fixture(scope="module")
def logreg_table(tmp_path_factory):
    out = tmp_path_factory.mktemp("logreg")
    cfg = ExperimentConfig(task="logreg", d=5, n=26, kappa=10.0,
                           mu=0.1, eps=1e-2, orders=(2,), t_max=6,
                           seed=0, out_dir=str(out))
    path = run_logreg_experiment(cfg)[0]
    rows = read_rows(path)
    series = {}
    for row in rows:
        series.setdefault(row["method"], []).append(row)
    return series


class TestLogregRunner:

    def test_all_methods_present_with_full_traces(self, logreg_table):
        assert set(logreg_table) == {"exact_newton", "inexact_newton", "constructed"}
        for rows in logreg_table.values():
            assert [int(r["step"]) for r in rows] == list(range(7))

    def test_exact_loss_strictly_decreases(self, logreg_table):
        # strict decrease holds until the iterate converges; after that
        # the trace repeats the fixed point bitwise
        f = [float(r["f"]) for r in logreg_table["exact_newton"]]
        g = [float(r["g_suboptimality"]) for r in logreg_table["exact_newton"]]
        for t in range(1, len(f)):
            assert f[t] <= f[t - 1]
            if g[t - 1] > 1e-12:
                assert f[t] < f[t - 1]

    def test_constructed_stays_in_eps_tube(self, logreg_table):
        exact = [float(r["f"]) for r in logreg_table["exact_newton"]]
        ours = [float(r["f"]) for r in logreg_table["constructed"]]
        for a, b in zip(exact, ours):
            assert abs(a - b) <= 1e-2

    @pytest.mark.parametrize("seed", range(5))
    def test_fine_eps_run_tracks_exact_newton(self, seed, tmp_path):
        # the flags of the logreg_fine benchmark workload
        eps = 5e-3
        cfg = ExperimentConfig(task="logreg", d=5, n=26, mu=0.1, eps=eps,
                               t_max=15, seed=seed, out_dir=str(tmp_path))
        rows = read_rows(run_logreg_experiment(cfg)[0])
        exact, ours = ([r for r in rows if r["method"] == method]
                       for method in ("exact_newton", "constructed"))
        assert len(ours) == len(exact) == 16
        for ref, row in zip(exact, ours):
            assert abs(float(row["f"]) - float(ref["f"])) <= eps
        assert float(ours[-1]["g_suboptimality"]) <= 1e-10

    def test_layers_per_step_column(self, logreg_table):
        for rows in logreg_table.values():
            assert all(int(r["layers_per_step"]) == 13 for r in rows)

    def test_loss_is_evaluated_only_where_no_step_did(self, tmp_path,
                                                      monkeypatch):
        cfg = ExperimentConfig(task="logreg", t_max=6, out_dir=str(tmp_path))
        loss_grad_hess = logistic.loss_grad_hess
        callers = []

        def counted(name):
            fn = getattr(logistic, name)

            def wrapper(problem, x):
                callers.append((name, sys._getframe(1).f_globals["__name__"]))
                return fn(problem, x)

            monkeypatch.setattr(logistic, name, wrapper)

        counted("loss_grad_hess")
        counted("objective")
        rows = read_rows(run_logreg_experiment(cfg)[0])
        # each trace's last iterate and every constructed iterate go
        # through one objective call; f is never read off a Hessian
        assert callers.count(("objective", "newtonformer.harness")) == 1
        assert ("loss_grad_hess", "newtonformer.harness") not in callers
        # the rows hold f at each iterate, as a fresh evaluation gives it
        problem, _ = gen_logreg_data(cfg)
        source = logistic.bounded_error_source(cfg.eps, cfg.d, cfg.seed + 1)
        exact = inexact = np.zeros(cfg.d)
        want = {"exact_newton": [], "inexact_newton": []}
        for step in range(cfg.t_max + 1):
            want["exact_newton"].append(loss_grad_hess(problem, exact)[0])
            want["inexact_newton"].append(loss_grad_hess(problem, inexact)[0])
            if step < cfg.t_max:
                exact = logistic.damped_step(problem, exact).x
                inexact = (logistic.damped_step(problem, inexact).x
                           + source(step))
        for method, fs in want.items():
            assert [float(r["f"]) for r in rows
                    if r["method"] == method] == fs

    # t_max 1-3 stops the exact trace before optimum's criterion holds
    @pytest.mark.parametrize("t_max", [1, 2, 3, None])
    def test_g_star_is_optimums(self, t_max, tmp_path):
        cfg = ExperimentConfig(task="logreg", t_max=t_max,
                               out_dir=str(tmp_path))
        _, g_star = logistic.optimum(gen_logreg_data(cfg)[0])
        rows = read_rows(run_logreg_experiment(cfg)[0])
        assert len(rows) == 3 * (cfg.t_max + 1)
        for row in rows:
            g = logistic.scaled_objective(cfg.mu, float(row["f"]))
            assert float(row["g_suboptimality"]) == g - g_star

    @pytest.mark.parametrize("t_max", [1, 2, 3, None])
    def test_one_damped_step_per_step(self, t_max, tmp_path, monkeypatch):
        cfg = ExperimentConfig(task="logreg", t_max=t_max,
                               out_dir=str(tmp_path))
        problem, _ = gen_logreg_data(cfg)
        step = logistic.damped_step
        shapes = []

        def counted(problem, x):
            shapes.append(np.shape(x))
            return step(problem, x)

        monkeypatch.setattr(logistic, "damped_step", counted)
        logistic.optimum(problem)
        optimum_steps = len(shapes)
        assert (optimum_steps > cfg.t_max) == (t_max is not None)
        shapes.clear()
        run_logreg_experiment(cfg)
        # the exact and inexact traces step as one stack; only a t_max
        # too short to meet optimum's criterion runs optimum as well
        short = optimum_steps > cfg.t_max
        assert shapes == ([(2, cfg.d)] * cfg.t_max
                          + [(cfg.d,)] * (optimum_steps if short else 0))


# Doubles at the edges of %.17g: signed zeros, subnormals, the normal
# range's ends, halfway-looking decimals, integers past 2**53 and the
# non-finite values.
_EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                 2.2250738585072014e-308, 1.7976931348623157e308,
                 -1.7976931348623157e308, 0.1, 1 / 3, 0.5, 1e16, 1e17,
                 9007199254740993.0, 123456789.125, 1e-5, 1e21, 1e22,
                 math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("kind", [float, np.float64])
@pytest.mark.parametrize("value", _EDGE_DOUBLES, ids=repr)
def test_percent_17g_is_format_17g(value, kind):
    # the runners write each float with "%.17g" % v, once format(v,
    # ".17g"); the rows carry Python floats and numpy float64 scalars
    assert "%.17g" % kind(value) == format(float(value), ".17g")


def test_percent_17g_is_format_17g_on_random_bit_patterns():
    bits = np.random.default_rng(35).integers(
        0, 2**64, size=20_000, dtype=np.uint64)
    for value in bits.view(np.float64).tolist():
        assert "%.17g" % value == format(value, ".17g")


def csv_lines(path):
    with open(path, encoding="ascii", newline="") as fh:
        return fh.read().splitlines()


def shipped_and_dense_lines(runner, cfg, tmp_path, monkeypatch):
    """The runner's CSV lines as shipped and with the dense attention
    formula in place of ``transformer.attention_forward``, and how many
    layers the dense formula ran."""
    shipped = runner(replace(cfg, out_dir=str(tmp_path / "shipped")))[0]
    calls = []

    def dense(layer, h, *, out=None):
        calls.append(layer)
        if out is None:
            return dense_attention_forward(layer, h)
        out[...] = dense_attention_forward(layer, h)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(transformer, "attention_forward", dense)
        reference = runner(replace(cfg, out_dir=str(tmp_path / "dense")))[0]
    return csv_lines(shipped), csv_lines(reference), len(calls)


class TestCompactedAttentionTolerance:
    """Compacted attention heads change only the constructed rows, and
    only within the stated tolerance."""

    @pytest.mark.parametrize("overrides", [{}, dict(mu=0.5, noise_std=0.1)])
    def test_linreg_rows(self, overrides, tmp_path, monkeypatch):
        cfg = ExperimentConfig(task="linreg", **overrides)
        ours, ref, calls = shipped_and_dense_lines(
            run_linreg_experiment, cfg, tmp_path, monkeypatch)
        assert calls == cfg.t_max + 4
        assert len(ours) == len(ref)
        for line, ref_line in zip(ours, ref):
            *key, mse = line.split(",")
            *ref_key, ref_mse = ref_line.split(",")
            if key[0] != "constructed":
                assert line == ref_line
                continue
            assert key == ref_key
            rms, ref_rms = np.sqrt(float(mse)), np.sqrt(float(ref_mse))
            assert abs(rms - ref_rms) <= 1e-8 * ref_rms + 1e-11

    def test_logreg_rows(self, tmp_path, monkeypatch):
        ours, ref, calls = shipped_and_dense_lines(
            run_logreg_experiment, ExperimentConfig(task="logreg"),
            tmp_path, monkeypatch)
        assert calls > 0
        assert len(ours) == len(ref)
        for line, ref_line in zip(ours, ref):
            fields, ref_fields = line.split(","), ref_line.split(",")
            if fields[0] != "constructed":
                assert line == ref_line
                continue
            assert fields[:3] == ref_fields[:3]
            # g_suboptimality is f / (4 mu) - g_star, which cancels as
            # f converges, so both columns are held to 1e-12 relative
            # above a floor of 1
            for value, want in zip(fields[3:], ref_fields[3:]):
                want = float(want)
                assert abs(float(value) - want) <= 1e-12 * max(1.0, abs(want))

    def test_invert_csv_unchanged(self, tmp_path, monkeypatch):
        ours, ref, _ = shipped_and_dense_lines(
            run_invert_experiment, ExperimentConfig(task="invert"),
            tmp_path, monkeypatch)
        assert ours == ref


# Flags an experiment runner does not read; its subcommand rejects them.
_UNREAD_FLAGS = [
    ("invert", "n"), ("invert", "noise_std"), ("invert", "mu"),
    ("invert", "batch"), ("linreg", "eps"), ("logreg", "orders"),
    ("logreg", "noise_std"), ("logreg", "batch"),
    # the budget derives kappa_f = (1+mu)/mu from mu
    ("budget", "kappa_f"),
]


def test_cli_outputs_records_each_argv(tmp_path):
    # each argv runs in a fresh process from its own directory, so the
    # CSV lands beside its stdout, stderr and exit code
    argvs = (("invert",), ("linreg", "--orders", "2,9"))
    ran, refused = cli_outputs.record(tmp_path / "cli", argvs)
    assert (ran.name, refused.name) == ("00_invert", "01_linreg_--orders_2,9")
    assert (ran / "exit_code").read_text() == "0\n"
    assert (ran / "stdout").read_bytes() == b"wrote ./invert.csv\n"
    assert (ran / "stderr").read_bytes() == b""
    (want,) = run_invert_experiment(ExperimentConfig(
        task="invert", out_dir=str(tmp_path / "in_process")))
    assert (ran / "invert.csv").read_bytes() == Path(want).read_bytes()
    assert (refused / "exit_code").read_text() == "1\n"
    assert (refused / "stderr").read_bytes() == (
        b"error: order must be in [2, 8], got 9\n")
    assert sorted(path.name for path in refused.iterdir()) == [
        "exit_code", "stderr", "stdout"]


class TestCli:
    def test_invert_roundtrip(self, tmp_path, capsys):
        argv = ["invert", "--d", "5", "--kappa", "8", "--eps", "1e-8",
                "--t-max", "40", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"wrote {tmp_path}" in out
        first = (tmp_path / "invert.csv").read_bytes()
        assert main(argv) == 0
        assert (tmp_path / "invert.csv").read_bytes() == first

    def test_budget_prints_json(self, capsys):
        assert main(["budget", "--eps", "1e-2", "--mu", "0.1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["depth"] == 13
        assert payload["widths"]["u2_pieces"] == 2000

    def test_budget_overflow_exits_two(self, capsys):
        assert main(["budget", "--eps", "1e-6"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("ceiling", ["0", "-5"])
    def test_piece_ceiling_below_one_exits_one(self, ceiling, capsys):
        assert main(["budget", "--piece-ceiling", ceiling]) == 1
        assert capsys.readouterr().err == (
            f"error: piece_ceiling must be >= 1, got {ceiling}\n")

    @pytest.mark.parametrize("argv", [
        ["budget", "--eps", "1e-200"],
        ["budget", "--mu", "1e-200"],
        ["logreg", "--eps", "1e-200"],
        ["budget", "--mu", "1e-310"],
        ["logreg", "--mu", "1e-310"],
    ])
    def test_float_overflowing_budget_exits_two(self, argv, tmp_path,
                                                monkeypatch, capsys, recwarn):
        def no_build(*args, **kwargs):
            raise AssertionError("built a stack past its budget")

        monkeypatch.setattr(builders, "build_logreg_newton_step", no_build)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: u1_pieces = inf exceeds the ceiling ")
        assert err.count("\n") == 1
        assert [w for w in recwarn if w.category is RuntimeWarning] == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["budget", "--eps", "20", "--mu", "0.1"],
        ["budget", "--eps", "3", "--mu", "1"],
        ["logreg", "--eps", "20"],
        ["budget", "--eps", "1e200"],
        ["logreg", "--eps", "1e300"],
    ])
    def test_eps_past_inversion_domain_exits_one(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eps=") and err.count("\n") == 1
        assert "is too large for mu=" in err
        assert "domain" not in err

    def test_overflowing_normal_equations_name_noise_std(self, tmp_path,
                                                         monkeypatch, capsys):
        # the labels stay finite at 1e307; A^T y sums n of them past
        # float64's range
        monkeypatch.chdir(tmp_path)
        assert main(["linreg", "--noise-std", "1e307"]) == 1
        assert capsys.readouterr().err == (
            "error: noise_std=1e+307 overflows float64: the labels are "
            "finite, but A^T y exceeds its range\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["invert", "linreg", "logreg"])
    def test_negative_seed_exits_one(self, command, tmp_path, monkeypatch,
                                     capsys):
        monkeypatch.chdir(tmp_path)
        assert main([command, "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["invert", "--kappa", "nan"],
        ["invert", "--eps", "nan"],
        ["linreg", "--kappa", "nan"],
        ["logreg", "--kappa", "nan"],
        ["linreg", "--mu", "nan"],
        ["linreg", "--noise-std", "nan"],
    ])
    def test_nan_range_argument_exits_one(self, argv, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(" got nan\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, name", [
        (["logreg", "--kappa", "inf"], "kappa"),
        (["budget", "--mu", "inf"], "mu"),
        (["logreg", "--mu", "inf"], "mu"),
        (["linreg", "--mu", "inf"], "mu"),
        (["linreg", "--noise-std", "inf"], "noise_std"),
        (["linreg", "--kappa", "inf"], "kappa"),
        (["invert", "--kappa", "inf"], "kappa"),
        (["invert", "--eps", "inf"], "eps"),
        (["logreg", "--eps", "inf"], "eps"),
    ])
    def test_infinite_range_argument_exits_one(self, argv, name, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{name} must be finite" in err
        assert err.endswith(" got inf\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["invert", "linreg"])
    def test_repeated_orders_exit_one(self, command, tmp_path, monkeypatch,
                                      capsys):
        monkeypatch.chdir(tmp_path)
        assert main([command, "--orders", "2,2"]) == 1
        assert capsys.readouterr().err == (
            "error: orders must not repeat, got 2 twice\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("noise_std", ["1e300", "7e153"])
    def test_mse_overflow_exits_one(self, noise_std, tmp_path, monkeypatch,
                                    capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["linreg", "--noise-std", noise_std]) == 1
        assert capsys.readouterr().err == (
            "error: mse overflows float64: the squared prediction errors "
            "exceed its range\n")
        assert list(tmp_path.iterdir()) == []

    def test_label_overflow_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["linreg", "--noise-std", "1e308"]) == 1
        assert capsys.readouterr().err == (
            "error: noise_std=1e+308 overflows float64: the labels "
            "A w_star + noise_std * noise exceed its range\n")
        assert list(tmp_path.iterdir()) == []

    def test_trace_outside_the_reciprocal_span_exits_one(
            self, tmp_path, monkeypatch, capsys):
        # a numpy RuntimeWarning would fail this test: pytest turns it
        # into an error
        monkeypatch.chdir(tmp_path)
        assert main(["linreg", "--mu", "1e300"]) == 1
        assert capsys.readouterr().err == (
            "error: prompt 0 has tr B = 1e+301, outside the start "
            "reciprocal's knot span [5.42101e-20, 1.84467e+19]\n")
        assert list(tmp_path.iterdir()) == []

    def test_invert_alpha_overflow_exits_one(self, tmp_path, monkeypatch,
                                             capsys):
        make_covariance = datagen.make_covariance
        monkeypatch.setattr(datagen, "make_covariance",
                            lambda *args: 1e200 * make_covariance(*args))
        monkeypatch.chdir(tmp_path)
        assert main(["invert"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run_inverse start scale overflows "
                              "float64: sigma**2 for sigma=")
        assert err.endswith(" is outside its range\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["--help"], ["invert", "--help"], ["linreg", "--help"],
        ["logreg", "--help"], ["budget", "--help"],
        ["scan-decrease", "--help"],
    ])
    def test_help_lists_each_subcommand_and_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        out = capsys.readouterr().out
        if argv[0] == "--help":
            for command in ("invert", "linreg", "logreg", "budget",
                            "scan-decrease"):
                assert command in out
            return
        # each flag's line shows the value a call without it uses
        listed = dict(re.findall(r"^  (--[a-z-]+) +default (\S+)$", out,
                                 flags=re.MULTILINE))
        want = {f"--{name.replace('_', '-')}":
                ",".join(map(str, value)) if isinstance(value, tuple)
                else str(value)
                for name, value in cli._FLAGS[argv[0]].items()}
        assert listed == want
        assert ("--config FILE" in out) == (argv[0] != "scan-decrease")

    def test_covariance_not_definite_in_float64_exits_one(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["linreg", "--kappa", "1e16"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "kappa=1e+16" in err
        assert "not positive definite in float64" in err
        assert list(tmp_path.iterdir()) == []

    def test_scan_decrease_certifies(self, capsys):
        assert main(["scan-decrease"]) == 0
        out = capsys.readouterr().out
        label, value = out.split()
        assert label == "max_decrease_bound"
        assert float(value) <= -0.01

    def test_convergence_failure_exits_two(self, tmp_path, capsys):
        argv = ["invert", "--kappa", "100", "--t-max", "2",
                "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["transmogrify"])
        assert info.value.code == 1

    def test_bad_flag_value_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["invert", "--d", "many"])
        assert info.value.code == 1

    @pytest.mark.parametrize("argv, want", [
        # accepted: the values the library call gets besides the defaults
        (["budget", "--eps", "5e-3", "--mu=0.2"], dict(eps=5e-3, mu=0.2)),
        (["budget", "--d", "3", "--d=4"], dict(d=4)),
        (["linreg", "--orders", "2,3,4"], dict(orders=(2, 3, 4))),
        (["invert", "--config", "CFG", "--seed", "7"], dict(seed=7, d=5)),
        (["invert", "--seed=7", "--config=CFG"], dict(seed=7, d=5)),
        (["scan-decrease", "--grid-x=200", "--grid-c", "150"],
         dict(grid_x=200, grid_c=150)),
        # otherwise: the exit status and a line of stderr
        (["logreg", "--seed", "-1"], (1, "error: seed must be >= 0, got -1")),
        (["linreg", "--d", "3", "-h"], (0, "")),
        (["budget", "--eps"], (1, "argument --eps: expected one argument")),
        (["budget", "--ep", "5e-3"], (1, "unrecognized arguments: --ep")),
        (["budget", "--n", "5"], (1, "unrecognized arguments: --n")),
        (["scan-decrease", "--config", "CFG"],
         (1, "unrecognized arguments: --config")),
        (["invert", "--out-dir", "--d", "5"],
         (1, "argument --out-dir: expected one argument")),
    ])
    def test_argv_forms(self, argv, want, tmp_path, monkeypatch, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("seed = 3\nd = 5\n")
        argv = [token.replace("CFG", str(config)) for token in argv]
        calls = []
        for command in cli._RUNNERS:
            monkeypatch.setitem(cli._RUNNERS, command,
                                lambda cfg: calls.append(cfg) or [])
        budget = cli.width_depth_budget
        monkeypatch.setattr(cli, "width_depth_budget",
                            lambda **kw: calls.append(kw) or budget(**kw))
        monkeypatch.setattr(cli, "scan_constant_decrease",
                            lambda **kw: calls.append(kw) or -1.0)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        if isinstance(want, dict):
            command = argv[0]
            assert code == 0
            assert calls == [
                ExperimentConfig(command, **want) if command in cli._RUNNERS
                else {**cli._FLAGS[command], **want}]
        else:
            assert (code, calls) == (want[0], [])
            assert want[1] in capsys.readouterr().err

    def test_config_file_roundtrip(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# invert experiment\n"
            "task = invert\n"
            "d = 5\n"
            "kappa = 8\n"
            "eps = 1e-8\n"
            "t-max = 40\n"
            f"out_dir = {tmp_path / 'a'}\n"
        )
        assert main(["invert", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["invert", "--d", "5", "--kappa", "8", "--eps", "1e-8",
                     "--t-max", "40", "--out-dir", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        assert ((tmp_path / "a" / "invert.csv").read_bytes()
                == (tmp_path / "b" / "invert.csv").read_bytes())

    def test_explicit_flag_beats_config(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("seed = 3\nd = 5\nkappa = 8\neps = 1e-8\n"
                          "t-max = 40\n")
        argv = ["invert", "--config", str(config), "--seed", "7",
                "--out-dir", str(tmp_path / "a")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["invert", "--d", "5", "--kappa", "8", "--eps", "1e-8",
                     "--t-max", "40", "--seed", "7",
                     "--out-dir", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        assert ((tmp_path / "a" / "invert.csv").read_bytes()
                == (tmp_path / "b" / "invert.csv").read_bytes())

    def test_config_task_mismatch_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("task = linreg\n")
        assert main(["invert", "--config", str(config)]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("flux_capacitance = 11\n")
        assert main(["invert", "--config", str(config)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", _UNREAD_FLAGS)
    def test_flag_the_runner_ignores_is_usage_error(self, command, flag):
        with pytest.raises(SystemExit) as info:
            main([command, f"--{flag.replace('_', '-')}", "1"])
        assert info.value.code == 1

    @pytest.mark.parametrize("command, flag", _UNREAD_FLAGS)
    def test_config_key_the_runner_ignores_rejected(self, command, flag,
                                                    tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"{flag} = 1\n")
        assert main([command, "--config", str(config)]) == 1
        assert "does not apply" in capsys.readouterr().err

    def test_bad_config_value_is_usage_error(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("d = many\n")
        with pytest.raises(SystemExit) as info:
            main(["invert", "--config", str(config)])
        assert info.value.code == 1

    @pytest.mark.parametrize("task, runner, overrides", [
        ("invert", run_invert_experiment, dict(d=5, t_max=40)),
        ("linreg", run_linreg_experiment, dict(t_max=3, batch=2)),
        ("logreg", run_logreg_experiment, dict(t_max=2)),
    ])
    def test_config_defaults_match_cli(self, task, runner, overrides,
                                       tmp_path, capsys):
        argv = [task, "--out-dir", str(tmp_path / "cli")]
        for key, value in overrides.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        assert main(argv) == 0
        capsys.readouterr()
        cfg = ExperimentConfig(task=task, out_dir=str(tmp_path / "lib"),
                               **overrides)
        name = f"{task}.csv"
        runner(cfg)
        assert ((tmp_path / "cli" / name).read_bytes()
                == (tmp_path / "lib" / name).read_bytes())

    def test_budget_config_file(self, tmp_path, capsys):
        config = tmp_path / "budget.cfg"
        config.write_text("task = budget\neps = 5e-3\nd = 3\n")

        def budget(*argv):
            assert main(["budget", *argv]) == 0
            return capsys.readouterr().out

        assert (budget("--config", str(config))
                == budget("--eps", "5e-3", "--d", "3"))
        assert (budget("--config", str(config), "--d", "4")
                == budget("--eps", "5e-3", "--d", "4"))
        assert budget("--eps", "5e-3", "--d", "4") != budget("--eps", "5e-3",
                                                             "--d", "3")
