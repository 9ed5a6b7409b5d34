import numpy as np
import pytest

from newtonformer.datagen import make_covariance
from newtonformer.errors import (
    DefinitenessError,
    ShapeMismatchError,
    SymmetryError,
)
from newtonformer.inversion import initial_scale
from newtonformer.linalg import (
    as_matrix,
    as_stack,
    solve_spd,
    spectral_norm,
)


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


class TestSpectralNormEst:
    """``spectral_norm`` on single matrices."""

    def test_diagonal_gap(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == 3.0

    def test_identity_exact(self):
        assert spectral_norm(np.eye(4)) == 1.0

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0
        assert spectral_norm(np.zeros((2, 5))) == 0.0

    def test_random_spd_matches_eigh(self):
        rng = np.random.default_rng(3)
        sigma = make_covariance(8, 20.0, rng)
        true = np.linalg.eigvalsh(sigma).max()
        assert abs(spectral_norm(sigma) - true) <= 1e-14 * true

    def test_never_overestimates(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            a = rng.standard_normal((rng.integers(1, 9), rng.integers(1, 9)))
            est = spectral_norm(a)
            assert est == np.linalg.norm(a, 2)
            assert est <= np.linalg.norm(a) * (1.0 + 1e-12)

    @pytest.mark.parametrize("a", [
        1e300 * np.eye(3),
        np.full((2, 4), 1e160),
        np.stack([np.eye(3), 1e200 * np.eye(3)]),
    ])
    def test_overflow_is_named(self, a):
        # sigma itself fits in float64 and is exact; the start scale's
        # sigma**2 does not, and initial_scale names that.  pytest turns
        # numpy's RuntimeWarning into an error, so this also checks that
        # neither call warns.
        sigma = spectral_norm(a)
        assert np.array_equal(sigma, np.linalg.norm(a, 2, axis=(-2, -1)))
        with pytest.raises(ValueError,
                           match=r"^initial_scale overflows float64: "
                                 r"sigma\*\*2 for sigma=\S+ is outside"):
            initial_scale(sigma)

    def test_entries_whose_square_fits_do_not_overflow(self):
        assert spectral_norm(1e150 * np.eye(2)) == 1e150
        assert initial_scale(spectral_norm(1e150 * np.eye(2))) == 1.8e-300


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


def _random_stack(rng):
    """A (batch, m, n) stack, m != n, batch 1-5, entries spread over six
    decades, holding a zero matrix one time in four."""
    m = int(rng.integers(1, 41))
    n = int(rng.choice([k for k in range(1, 41) if k != m]))
    batch = int(rng.integers(1, 6))
    a = rng.standard_normal((batch, m, n)) * 10.0 ** rng.uniform(-3, 3)
    if rng.random() < 0.25:
        a[rng.integers(batch)] = 0.0
    return a


class TestSpectralNormEstStack:
    """``spectral_norm`` on stacks: each slice's value is
    ``np.linalg.norm(slice, 2)``, bit for bit."""

    def test_stack_equals_per_matrix_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            a = _random_stack(rng)
            got = spectral_norm(a)
            assert got.shape == (a.shape[0],)
            assert np.array_equal(got, [np.linalg.norm(s, 2) for s in a])

    def test_matrix_equals_per_matrix_loop_and_is_a_float(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            a = _random_stack(rng)[0]
            est = spectral_norm(a)
            assert type(est) is float
            assert est == np.linalg.norm(a, 2)

    def test_leading_dims_keep_their_shape(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((2, 3, 5, 4))
        got = spectral_norm(a)
        assert got.shape == (2, 3)
        want = [[np.linalg.norm(s, 2) for s in row] for row in a]
        assert np.array_equal(got, want)

    def test_zero_slice_estimates_zero(self):
        rng = np.random.default_rng(24)
        a = rng.standard_normal((3, 4, 6))
        a[1] = 0.0
        got = spectral_norm(a)
        assert got[1] == 0.0
        assert np.array_equal(got, [np.linalg.norm(s, 2) for s in a])
        assert np.array_equal(spectral_norm(np.zeros((2, 3, 3))), [0.0, 0.0])

    def test_rejects_vector_and_non_finite_slice(self):
        with pytest.raises(ShapeMismatchError):
            spectral_norm(np.ones(3))
        a = np.ones((2, 3, 3))
        a[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="^stack contains non-finite"):
            spectral_norm(a)


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
