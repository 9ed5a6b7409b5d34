import math
import tracemalloc

import numpy as np
import pytest
from quarter_square import pwl_product

from newtonformer.pwl import (
    PwlApprox,
    build_pwl,
    eval_pwl,
)


def sigmoid_derivative(t):
    s = 1.0 / (1.0 + np.exp(-np.clip(t, -40.0, 40.0)))
    return s * (1.0 - s)


class TestPwlApprox:
    def test_requires_increasing_knots(self):
        with pytest.raises(ValueError):
            PwlApprox(np.array([0.0, 0.0, 1.0]), np.zeros(3))

    @pytest.mark.parametrize("knots, values", [
        ([0.0, math.nan, 1.0], [0.0, 0.0, 0.0]),
        ([0.0, 1.0, math.inf], [0.0, 0.0, 0.0]),
        ([0.0, 1.0, 2.0], [0.0, math.nan, 0.0]),
    ])
    def test_non_finite_entries_are_named(self, knots, values):
        name = "knots" if not np.isfinite(knots).all() else "values"
        with pytest.raises(ValueError,
                           match=f"^{name} contains non-finite entries$"):
            PwlApprox(np.array(knots), np.array(values))

    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            PwlApprox(np.array([0.0, 1.0]), np.zeros(3))

    def test_properties(self):
        p = build_pwl(np.sin, -2.0, 3.0, 10)
        assert p.pieces == 10


class TestBuildPwl:
    def test_linear_target_is_exact(self):
        p = build_pwl(lambda t: 3.0 * t - 1.0, -5.0, 5.0, 7)
        grid = np.linspace(-5.0, 5.0, 1001)
        np.testing.assert_allclose(eval_pwl(p, grid), 3.0 * grid - 1.0,
                                   rtol=0, atol=1e-12)

    def test_sigmoid_derivative_sup_error(self):
        p = build_pwl(sigmoid_derivative, -10.0, 10.0, 1000)
        grid = np.linspace(-10.0, 10.0, 100_000)
        err = np.max(np.abs(eval_pwl(p, grid) - sigmoid_derivative(grid)))
        assert err <= 4.0 / 1000

    def test_damped_step_size_curve(self):
        mu = 0.1
        root = 2.0 * np.sqrt(mu)

        def eta(z):
            return root / (root + np.sqrt(z))

        p = build_pwl(eta, 1e-6, 25.0, 2000)
        assert np.all(np.diff(p.values) < 0.0)
        grid = np.linspace(1e-6, 25.0, 100_000)
        # sup error is dominated by the sqrt singularity at the left edge;
        # uniform knots cap accuracy at ~4e-2 for this piece count
        assert np.max(np.abs(eval_pwl(p, grid) - eta(grid))) <= 5e-2

    def test_step_size_curve_error_shrinks_with_pieces(self):
        mu = 0.1
        root = 2.0 * np.sqrt(mu)

        def eta(z):
            return root / (root + np.sqrt(z))

        grid = np.linspace(1e-6, 25.0, 100_000)
        coarse = build_pwl(eta, 1e-6, 25.0, 2000)
        fine = build_pwl(eta, 1e-6, 25.0, 20_000)
        err_coarse = np.max(np.abs(eval_pwl(coarse, grid) - eta(grid)))
        err_fine = np.max(np.abs(eval_pwl(fine, grid) - eta(grid)))
        assert err_fine < err_coarse / 2

    def test_error_falls_linearly_in_pieces(self):
        sizes = np.array([250, 500, 1000, 2000, 4000])
        grid = np.linspace(-10.0, 10.0, 100_000)
        target = sigmoid_derivative(grid)
        errs = []
        for n in sizes:
            p = build_pwl(sigmoid_derivative, -10.0, 10.0, int(n))
            errs.append(np.max(np.abs(eval_pwl(p, grid) - target)))
        errs = np.array(errs)
        assert np.all(errs <= 4.0 / sizes)
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert slope <= -0.85

    def test_rejects_bad_interval_and_values(self):
        with pytest.raises(ValueError):
            build_pwl(np.sin, 1.0, 1.0, 4)
        with pytest.raises(ValueError):
            build_pwl(np.sin, 0.0, 1.0, 0)
        with pytest.raises(ValueError,
                           match="^values contains non-finite entries$"):
            build_pwl(lambda t: float("nan"), 0.0, 1.0, 2)

    def test_rejects_complex_values(self):
        # a cast to float64 would keep only the real parts [0, 0.5, 1]
        with pytest.raises(ValueError,
                           match="^values must be real, got dtype complex128$"):
            build_pwl(lambda t: t + 1j, 0.0, 1.0, 2)

    def test_rejects_non_integer_pieces(self):
        with pytest.raises(ValueError, match="pieces must be an integer"):
            build_pwl(np.sin, 0.0, 1.0, 2.5)
        assert build_pwl(np.sin, 0.0, 1.0, np.int64(3)).pieces == 3

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (0.0, math.inf),
                                        (math.nan, 1.0)])
    def test_rejects_non_finite_ends(self, lo, hi):
        with pytest.raises(ValueError, match="lo and hi must be finite"):
            build_pwl(np.sin, lo, hi, 3)


class TestEvalPwl:
    def test_knot_values_exact(self):
        p = build_pwl(np.tanh, -3.0, 3.0, 13)
        np.testing.assert_array_equal(eval_pwl(p, p.knots), p.values)

    def test_midpoint_is_mean_of_neighbours(self):
        p = build_pwl(np.exp, 0.0, 1.0, 5)
        mid = 0.5 * (p.knots[2] + p.knots[3])
        expected = 0.5 * (p.values[2] + p.values[3])
        assert eval_pwl(p, mid) == pytest.approx(expected, rel=1e-15)

    def test_clamps_beyond_range(self):
        p = build_pwl(np.sin, 0.0, 1.0, 4)
        assert eval_pwl(p, -7.0) == p.values[0]
        assert eval_pwl(p, 42.0) == p.values[-1]

    def test_scalar_in_scalar_out(self):
        p = build_pwl(np.sin, 0.0, 1.0, 4)
        assert isinstance(eval_pwl(p, 0.3), float)
        out = eval_pwl(p, np.array([0.1, 0.2]))
        assert out.shape == (2,)


def eval_peak_bytes(p, x):
    """tracemalloc's peak over one eval_pwl(p, x) call, after a warm-up
    call; it sees numpy's buffers."""
    eval_pwl(p, x)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        eval_pwl(p, x)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestTablesReadInPlace:
    """np.interp copies a read-only table on every call, so a
    PwlApprox holds writeable arrays: each call then allocates only its
    output."""

    def test_built_table_is_not_copied_per_call(self):
        # a read-only 32,001-knot table made each call copy 256 KB
        p = build_pwl(lambda t: t * t, -1.0, 1.0, 32000)
        assert p.knots.flags.writeable and p.values.flags.writeable
        assert eval_peak_bytes(p, np.linspace(-1.0, 1.0, 26)) < 1024

    def test_built_table_holds_the_values_f_returned(self):
        # a full-size result is the table itself; only a scalar result
        # is broadcast and copied
        returned = []

        def square(t):
            returned.append(t * t)
            return returned[-1]

        p = build_pwl(square, -1.0, 1.0, 32000)
        assert np.shares_memory(p.values, returned[0])
        constant = build_pwl(lambda t: 2.5, -1.0, 1.0, 4)
        assert constant.values.flags.writeable
        np.testing.assert_array_equal(constant.values, np.full(5, 2.5))

    def test_read_only_input_is_copied_once(self):
        knots = np.linspace(-1.0, 1.0, 32001)
        values = knots * knots
        knots.flags.writeable = values.flags.writeable = False
        p = PwlApprox(knots, values)
        for held, given in ((p.knots, knots), (p.values, values)):
            assert held.flags.writeable and held.flags.c_contiguous
            assert held.dtype == np.float64
            assert held is not given and np.array_equal(held, given)
        assert not (knots.flags.writeable or values.flags.writeable)
        assert eval_peak_bytes(p, np.linspace(-1.0, 1.0, 26)) < 1024


class TestPwlProduct:
    def test_zero_factor(self):
        # with a zero factor the two squared arguments coincide, so the
        # error is at most twice the interpolation error of one square
        box = (-1.1, 1.1)
        pieces = 400
        spacing = (box[1] - box[0]) * 2 / pieces
        bound = 2.0 * spacing**2 / 8.0
        for y in (-1.0, -0.3, 0.0, 0.9):
            assert abs(pwl_product(0.0, y, box, box, pieces)) <= bound

    def test_quarter_example(self):
        out = pwl_product(0.5, 0.5, (-1.1, 1.1), (-1.1, 1.1), 400)
        assert out == pytest.approx(0.25, abs=1e-4)

    def test_error_falls_quadratically(self):
        rng = np.random.default_rng(1)
        box = (-1.0, 1.0)
        sizes = np.array([50, 100, 200, 400, 800])
        pts = rng.uniform(-1.0, 1.0, (400, 2))
        errs = []
        for n in sizes:
            worst = max(
                abs(pwl_product(x, y, box, box, int(n)) - x * y)
                for x, y in pts
            )
            errs.append(worst)
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pwl_product(2.0, 0.0, (-1.0, 1.0), (-1.0, 1.0), 10)
        with pytest.raises(ValueError):
            pwl_product(0.0, -3.0, (-1.0, 1.0), (-1.0, 1.0), 10)
