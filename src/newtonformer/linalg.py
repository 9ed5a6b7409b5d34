"""Dense matrix utilities used everywhere else in the package.

Matrices are plain 2-D float64 numpy arrays in row-major (C) order,
validated at the public entry points; a stack ``(..., m, n)`` holds
several matrices of one shape.  numpy supplies the raw arithmetic; the
estimators and the SPD solver are defined here.
"""

import numpy as np

from .errors import DefinitenessError, ShapeMismatchError, SymmetryError

__all__ = [
    "as_matrix",
    "as_stack",
    "spectral_norm_est",
    "solve_spd",
]

_MASK64 = (1 << 64) - 1
POWER_SEED = 0
SYM_TOL = 1e-12


def as_stack(obj, name="stack"):
    """Validate *obj* as a finite float64 matrix or stack of matrices
    ``(..., m, n)`` and return it, C-contiguous.

    Accepts anything ``np.asarray`` does.  Raises ``ShapeMismatchError``
    for input with fewer than two dimensions and ``ValueError`` for
    NaN/Inf entries.
    """
    a = np.ascontiguousarray(obj, dtype=np.float64)
    if a.ndim < 2:
        raise ShapeMismatchError(
            f"{name} must be at least 2-D, got shape {a.shape}"
        )
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_matrix(obj, name="matrix"):
    """:func:`as_stack` for a single matrix: also raises
    ``ShapeMismatchError`` for input with more than two dimensions."""
    a = as_stack(obj, name)
    if a.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def _check_result_finite(a, op):
    if not np.isfinite(a).all():
        raise ValueError(f"{op} produced non-finite entries")
    return a


def _splitmix64(state):
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _start_vector(n, seed):
    """Deterministic non-degenerate start vector from a splitmix64 stream."""
    state = seed & _MASK64
    v = np.empty(n)
    for i in range(n):
        state, z = _splitmix64(state)
        v[i] = (z >> 11) * 2.0**-53 - 0.5
    return v


def _unit_start_vector(n, seed):
    v = _start_vector(n, seed)
    return (v / np.linalg.norm(v))[:, None]


def spectral_norm_est(a, iters=200):
    """Estimate the largest singular value of *a* by power iteration.

    Runs *iters* applications of ``a.T @ a`` to a start vector derived
    deterministically from ``POWER_SEED`` and returns the Rayleigh-quotient
    estimate ``||a v||`` for the final unit vector ``v``.  The estimate
    never exceeds the true spectral norm and is nondecreasing in
    *iters*.  A zero matrix returns 0.0.

    An m x n matrix gives a float.  A stack ``(..., m, n)`` gives an
    array of shape ``...`` holding one estimate per matrix, each
    bit-identical to the estimate for that matrix alone: the stack
    shares only the matmul dispatch, and a slice whose iterate falls in
    its null space is re-started alone.  Raises ``ValueError`` when the
    iteration overflows float64, as it does once ``a.T @ a`` exceeds
    its range.
    """
    a = as_stack(a)
    if iters < 1:
        raise ValueError("iters must be >= 1")
    est = _power_iteration(a, iters) if np.any(a) else np.zeros(a.shape[:-2])
    return float(est) if a.ndim == 2 else est


def _power_iteration(a, iters):
    at = a.mT
    v = _unit_start_vector(a.shape[-1], POWER_SEED)
    # an overflow leaves the estimate non-finite; it is checked once,
    # after the loop
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iters):
            w = at @ (a @ v)
            # the norm as a dot product by matmul, which rounds as
            # np.linalg.norm does on one vector; a sum along an axis
            # does not
            nw = np.sqrt(w.mT @ w)
            dead = nw == 0.0
            if dead.any():
                # the iterate fell in a slice's null space (every step,
                # for a zero slice); restart it from a second start
                # vector
                nudge = _unit_start_vector(a.shape[-1], POWER_SEED + 1)
                v = np.where(dead, nudge, w / np.where(dead, 1.0, nw))
            else:
                v = w / nw
        u = a @ v
        est = np.sqrt(u.mT @ u)[..., 0, 0]
    if not np.isfinite(est).all():
        raise ValueError(
            "spectral_norm_est overflows float64: a.T @ a exceeds its range"
        )
    return est


def solve_spd(a, b):
    """Solve ``a x = b`` for symmetric positive definite *a*.

    Factors ``a = L L^T`` by Cholesky and solves ``L y = b``, then
    ``L^T x = y``.  Raises ``SymmetryError`` when *a* deviates from
    symmetry by more than ``SYM_TOL`` relative to its largest entry, and
    ``DefinitenessError`` when the factorization fails.

    For a d x d matrix with condition number kappa, each column of the
    result has forward error ``||x - x*|| <= 4 d kappa u ||x*||`` and
    normwise backward error ``||b - a x|| <= 4 d u ||a|| ||x||`` (2-norms,
    u = 2**-53); a test checks both against an extended-precision
    reference.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"a must be square, got {a.shape}")
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatchError(
            f"a is {a.shape} but b has {b.shape[0]} rows"
        )
    scale = np.max(np.abs(a))
    if scale > 0 and np.max(np.abs(a - a.T)) > SYM_TOL * scale:
        raise SymmetryError("matrix is not symmetric")
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError("matrix is not positive definite") from exc
    x = np.linalg.solve(low.T, np.linalg.solve(low, b))
    return _check_result_finite(x, "solve_spd")
