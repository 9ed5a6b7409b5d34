import math
import pickle
import re

import numpy as np
import pytest

from newtonformer.builders import (
    build_inversion_block,
    build_linreg_transformer,
    make_inversion_prompt,
    make_linreg_prompt,
    make_logistic_prompt,
    run_constructed_newton,
    width_depth_budget,
)
from newtonformer.datagen import make_covariance
from newtonformer.errors import (
    DefinitenessError,
    ShapeMismatchError,
    SymmetryError,
)
from newtonformer.harness import ExperimentConfig
from newtonformer.inversion import (
    fitted_order,
    hyperpower_step,
    predicted_steps,
    run_inverse,
    trace_initial_scale,
)
from newtonformer.linalg import (
    as_matrix,
    as_stack,
    solve_spd,
)
from newtonformer.logistic import (
    LogisticProblem,
    bounded_error_source,
    objective,
    run_inexact_newton,
    scan_constant_decrease,
)
from newtonformer.pwl import PwlApprox, build_pwl
from newtonformer.transformer import PromptLayout

_PROBLEM = LogisticProblem(np.eye(2) / 2, np.ones(2), 0.1)
_BUDGET = width_depth_budget(0.2, 0.1, 2)
_Z = 1j * np.eye(2)  # complex, with a nonzero imaginary part
_R = np.eye(2)


class TestAsMatrix:
    def test_list_input_becomes_contiguous_float64(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])

    def test_rejects_vector(self):
        with pytest.raises(ShapeMismatchError):
            as_matrix(np.ones(3))

    def test_rejects_stack(self):
        with pytest.raises(ShapeMismatchError, match="^m must be 2-D"):
            as_matrix(np.ones((2, 2, 2)), "m")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_matrix([[np.inf, 0.0]])


class TestAsStack:
    def test_matrix_and_stack_become_contiguous_float64(self):
        for shape in ((2, 3), (4, 2, 3), (2, 1, 3, 3)):
            m = as_stack(np.ones(shape, dtype=np.int32).transpose())
            assert m.dtype == np.float64
            assert m.flags["C_CONTIGUOUS"]
            assert m.shape == shape[::-1]

    def test_rejects_scalar_and_vector(self):
        for obj in (1.0, np.ones(3)):
            with pytest.raises(ShapeMismatchError, match="at least 2-D"):
                as_stack(obj, "x")

    def test_rejects_non_finite_slice(self):
        s = np.ones((3, 2, 2))
        s[2, 1, 0] = np.inf
        with pytest.raises(ValueError, match="^x contains non-finite"):
            as_stack(s, "x")

    @pytest.mark.parametrize("obj", [
        np.eye(2) + 0j, np.ones((2, 2, 2), dtype=np.complex64),
        [[1.0, 2j], [0.0, 1.0]],
    ], ids=["complex128", "complex64-stack", "list"])
    def test_rejects_complex(self, obj):
        # a float64 copy would drop the imaginary part
        with pytest.raises(ValueError, match="^x must be real, got dtype "
                                             "complex"):
            as_stack(obj, "x")

    def test_float64_input_is_returned_as_is(self):
        s = np.ones((3, 2, 2))
        assert as_stack(s) is s

    @pytest.mark.parametrize("obj", [
        np.ones((3, 2, 2)).view(np.ma.MaskedArray),
        np.ones((3, 2, 2), dtype=">f8"),
        np.ones((3, 2, 2))[:, :, ::-1],
    ], ids=["subclass", "byte-swapped", "strided"])
    def test_other_arrays_become_plain_float64_copies(self, obj):
        # only a plain, native float64 C-contiguous ndarray is used as given
        m = as_stack(obj)
        assert type(m) is np.ndarray and m.dtype == np.float64
        assert m.flags.c_contiguous and np.array_equal(m, obj)
        obj.flat[3] = np.nan
        with pytest.raises(ValueError, match="^stack contains non-finite"):
            as_stack(obj)


def _long_double_solve(a, b):
    """Gauss-Jordan elimination with partial pivoting in long double."""
    d = a.shape[0]
    m = np.hstack([a, b]).astype(np.longdouble)
    for j in range(d):
        p = j + int(np.argmax(np.abs(m[j:, j])))
        m[[j, p]] = m[[p, j]]
        m[j] /= m[j, j]
        others = np.arange(d) != j
        m[others] -= np.outer(m[others, j], m[j])
    return m[:, d:]


class TestSolveSpd:
    def test_identity(self):
        rng = np.random.default_rng(6)
        b = rng.standard_normal((4, 2))
        np.testing.assert_allclose(solve_spd(np.eye(4), b), b, rtol=0, atol=1e-15)

    def test_diagonal_example(self):
        out = solve_spd(np.diag([2.0, 4.0]), np.eye(2))
        np.testing.assert_allclose(out, np.diag([0.5, 0.25]), rtol=1e-15)

    def test_residual_small(self):
        rng = np.random.default_rng(8)
        a = make_covariance(6, 50.0, rng)
        x = solve_spd(a, np.eye(6))
        assert np.linalg.norm(a @ x - np.eye(6)) <= 1e-10

    def test_symmetry_enforced(self):
        a = np.array([[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(SymmetryError):
            solve_spd(a, np.eye(2))

    def test_near_symmetric_tolerated(self):
        a = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
        solve_spd(a, np.eye(2))

    def test_indefinite_rejected(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(DefinitenessError) as info:
            solve_spd(a, np.eye(2))
        assert str(info.value) == "matrix is not positive definite"

    def test_complex_matrix_rejected(self):
        # not solved for its real part
        with pytest.raises(ValueError, match="^a must be real"):
            solve_spd(np.diag([2.0, 3.0]) + 5j * np.eye(2), np.ones((2, 1)))
        with pytest.raises(ValueError, match="^b must be real"):
            solve_spd(np.eye(2), np.ones((2, 1)) * 1j)

    def test_requires_2d_rhs(self):
        with pytest.raises(ShapeMismatchError):
            solve_spd(np.eye(3), np.ones(3))

    def test_row_count_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            solve_spd(np.eye(3), np.ones((2, 1)))

    def test_stack_equals_per_slice_calls(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            d = int(rng.integers(1, 11))
            batch = int(rng.integers(1, 7))
            kappa = 1.0 if d == 1 else 10.0 ** rng.uniform(0.0, 6.0)
            a = np.stack([make_covariance(d, kappa, rng) for _ in range(batch)])
            b = rng.standard_normal((batch, d, int(rng.integers(1, 4))))
            got = solve_spd(a, b)
            assert got.shape == b.shape
            for x, a_i, b_i in zip(got, a, b):
                assert np.array_equal(x, solve_spd(a_i, b_i))

    def test_stack_checks_every_slice(self):
        a = np.stack([np.eye(2)] * 3)
        a[1] = [[2.0, 1.0], [0.0, 2.0]]
        with pytest.raises(SymmetryError, match="^matrix is not symmetric$"):
            solve_spd(a, np.ones((3, 2, 1)))
        a[1] = np.diag([1.0, -1.0])
        with pytest.raises(DefinitenessError,
                           match="^matrix is not positive definite$"):
            solve_spd(a, np.ones((3, 2, 1)))

    def test_stack_shapes_must_match(self):
        with pytest.raises(ShapeMismatchError, match="^a is"):
            solve_spd(np.stack([np.eye(2)] * 3), np.ones((2, 2, 1)))
        with pytest.raises(ShapeMismatchError, match="^a is"):
            solve_spd(np.stack([np.eye(2)] * 3), np.ones((2, 1)))
        with pytest.raises(ShapeMismatchError, match="^a must be square"):
            solve_spd(np.ones((3, 2, 3)), np.ones((3, 2, 1)))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 2.0**-60,
                        reason="long double is no wider than float64 here")
    def test_meets_stated_tolerance(self):
        """Forward error <= 4 d kappa u and normwise backward error <= 4 d u
        per column, against an extended-precision reference, over 240
        systems with d in 2..10, kappa up to 1e8 and 1-3 right-hand sides."""
        u = 2.0**-53
        rng = np.random.default_rng(11)
        for _ in range(240):
            d = int(rng.integers(2, 11))
            kappa = 10.0 ** rng.uniform(0.0, 8.0)
            a = make_covariance(d, kappa, rng)
            b = rng.standard_normal((d, int(rng.integers(1, 4))))
            x = solve_spd(a, b)
            exact = _long_double_solve(a, b)
            residual = b - a.astype(np.longdouble) @ x.astype(np.longdouble)
            cond = np.linalg.cond(a)
            a_norm = np.linalg.norm(a, 2)
            error = (x - exact).astype(float)
            for col in range(b.shape[1]):
                forward = np.linalg.norm(error[:, col])
                exact_norm = np.linalg.norm(exact[:, col].astype(float))
                assert forward <= 4 * d * cond * u * exact_norm
                backward = np.linalg.norm(residual[:, col].astype(float))
                x_norm = np.linalg.norm(x[:, col])
                assert backward <= 4 * d * u * a_norm * x_norm


# Every public entry point admits its arrays and counts through the two
# guards in linalg: a table over each argument that goes through one.

_COMPLEX_ARGUMENTS = {
    "make_inversion_prompt.a": (lambda: make_inversion_prompt(_Z, _R), "a"),
    "make_inversion_prompt.x0": (lambda: make_inversion_prompt(_R, _Z),
                                 "x0"),
    "make_linreg_prompt.a": (
        lambda: make_linreg_prompt(_Z, np.ones(2), np.ones(2)), "a"),
    "make_linreg_prompt.y": (
        lambda: make_linreg_prompt(_R, _Z[0], np.ones(2)), "y"),
    "make_linreg_prompt.a_test": (
        lambda: make_linreg_prompt(_R, np.ones(2), _Z[0]), "a_test"),
    "make_logistic_prompt.x": (
        lambda: make_logistic_prompt(_PROBLEM, _Z[0]), "x"),
    "run_constructed_newton.x0": (
        lambda: run_constructed_newton(_PROBLEM, _Z[0], _BUDGET, 1), "x0"),
    "LogisticProblem.features": (
        lambda: LogisticProblem(_Z / 2, np.ones(2), 0.1), "features"),
    "LogisticProblem.labels": (
        lambda: LogisticProblem(_R / 2, 1 + _Z[0], 0.1), "labels"),
    "objective.x": (lambda: objective(_PROBLEM, _Z[0]), "x"),
    "run_inexact_newton.error": (
        lambda: run_inexact_newton(_PROBLEM, np.zeros(2), 1e-6,
                                   error_source=lambda step: 1e-9 * _Z[0]),
        "error_source output at step 0"),
    "PwlApprox.knots": (lambda: PwlApprox(_Z[0] + [0, 1], _R[0]), "knots"),
    "PwlApprox.values": (lambda: PwlApprox([0, 1], _Z[0]), "values"),
    "trace_initial_scale.trace": (lambda: trace_initial_scale(_Z[0] + 1),
                                  "trace"),
    "fitted_order.residuals": (
        lambda: fitted_order([0.1, 0.01 + 1e-3j, 1e-4, 1e-8]), "residuals"),
}


@pytest.mark.parametrize("case", list(_COMPLEX_ARGUMENTS))
def test_complex_array_argument_is_named(case):
    # a float64 copy would drop the imaginary part with only a warning
    call, name = _COMPLEX_ARGUMENTS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "
                                         f"real, got dtype complex"):
        call()


# case: (call taking the count, the name it is checked under, its
# lowest value, a value it accepts)
_COUNT_ARGUMENTS = {
    "width_depth_budget.d": (
        lambda v: width_depth_budget(1e-2, 0.1, v), "d", 1, 5),
    "build_inversion_block.d": (build_inversion_block, "d", 1, 2),
    "build_linreg_transformer.d": (build_linreg_transformer, "d", 1, 2),
    "Looped.run.passes": (  # the stream after each pass
        lambda v: [h.copy() for h in build_inversion_block(2)[0].run(
            make_inversion_prompt(_R * 2, _R / 4), v)], "passes", 0, 2),
    "make_covariance.d": (
        lambda v: make_covariance(v, 10.0, np.random.default_rng(0)),
        "d", 1, 3),
    "run_constructed_newton.n_steps": (
        lambda v: run_constructed_newton(_PROBLEM, np.zeros(2), _BUDGET, v),
        "n_steps", 0, 2),
    "PromptLayout.size": (
        lambda v: PromptLayout((("a", 2, "zero", "kept"),
                                ("b", v, "zero", "kept"))),
        "band 'b' size", 1, 3),
    "PromptLayout.prompt.n": (
        lambda v: PromptLayout((("a", 2, "eye", "kept"),)).prompt(v),
        "n", 1, 3),
    **{f"ExperimentConfig.{key}": (
        lambda v, key=key: ExperimentConfig(task="linreg", **{key: v}),
        key, low, good)
       for key, low, good in (("d", 1, 10), ("n", 1, 50), ("t_max", 1, 30),
                              ("seed", 0, 0), ("batch", 1, 16))},
    "ExperimentConfig.orders": (  # 3.5 is not truncated to order 3
        lambda v: ExperimentConfig(task="linreg", orders=(2, v)),
        "order", 2, 3),
    "hyperpower_step.order": (
        lambda v: hyperpower_step(_R / 2, _R, v), "order", 2, 3),
    "predicted_steps.order": (
        lambda v: predicted_steps(10.0, 1e-10, v), "order", 2, 3),
    "run_inverse.order": (
        lambda v: run_inverse(_R * 2, order=v), "order", 2, 3),
    "run_inverse.max_iters": (
        lambda v: run_inverse(_R * 2, max_iters=v), "max_iters", 0, 10),
    "run_inexact_newton.max_iters": (
        lambda v: run_inexact_newton(_PROBLEM, np.zeros(2), 1e-6,
                                     max_iters=v), "max_iters", 0, 20),
    "build_pwl.pieces": (
        lambda v: build_pwl(np.sin, 0.0, 1.0, v), "pieces", 1, 4),
    "bounded_error_source.dim": (
        lambda v: bounded_error_source(1e-3, v)(0), "dim", 1, 3),
    "bounded_error_source.seed": (
        lambda v: bounded_error_source(1e-3, 3, v)(0), "seed", 0, 5),
    "scan_constant_decrease.grid_x": (
        lambda v: scan_constant_decrease(grid_x=v, grid_c=100),
        "grid_x", 100, 100),
    "scan_constant_decrease.grid_c": (
        lambda v: scan_constant_decrease(grid_x=100, grid_c=v),
        "grid_c", 100, 101),
}


@pytest.mark.parametrize("case", list(_COUNT_ARGUMENTS))
def test_count_argument_is_admitted_by_the_guard(case):
    call, name, low, good = _COUNT_ARGUMENTS[case]
    # an integral float is that int, all the way through
    assert pickle.dumps(call(float(good))) == pickle.dumps(call(good))
    for bad in (good + 0.5, math.nan, low - 1):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "
                                             f".*, got {bad}$"):
            call(bad)
