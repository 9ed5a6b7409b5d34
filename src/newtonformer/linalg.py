"""Dense matrix utilities used everywhere else in the package.

Matrices are plain 2-D float64 numpy arrays in row-major (C) order,
validated at the public entry points; a stack ``(..., m, n)`` holds
several matrices of one shape.  numpy supplies the raw arithmetic; the
guards and the SPD solver are defined here: every public entry point
admits a count through :func:`_count` and an array of reals through
:func:`_finite` or :func:`as_stack`, so each input policy lives here.
"""

import math

import numpy as np

from .errors import DefinitenessError, ShapeMismatchError, SymmetryError

__all__ = [
    "as_matrix",
    "as_stack",
    "solve_spd",
]

SYM_TOL = 1e-12


def _real(obj, name):
    """*obj* as an array, which must not be complex: converting one to
    float64 would drop its imaginary part.  Only the dtype is read."""
    a = np.asarray(obj)
    if a.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got dtype {a.dtype}")
    return a


def _count(value, name, low, high=math.inf):
    """*value* as an int in [*low*, *high*]; an integral float counts as
    that int.  NaN, a value out of range and anything else that is not
    an integral int or float (infinity included) raise ``ValueError``
    naming *name*."""
    real = isinstance(value, (int, float, np.integer, np.floating))
    if real and not low <= value <= high:
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bound}, got {value}")
    if not (isinstance(value, (int, np.integer))
            or real and value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


def _finite(obj, name):
    """*obj* as a finite float64 C-contiguous array of any shape, in one
    conversion (none for such an array) and one ``isfinite`` pass.
    Complex input (by dtype, see :func:`_real`) and NaN/Inf entries
    raise ``ValueError`` naming *name*."""
    a = np.asarray(_real(obj, name), dtype=np.float64, order="C")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_stack(obj, name="stack"):
    """Validate *obj* as a finite float64 matrix or stack of matrices
    ``(..., m, n)`` and return it, C-contiguous.

    :func:`_finite` plus an ndim rule: raises ``ValueError`` for complex
    input and for NaN/Inf entries and ``ShapeMismatchError`` for input
    with fewer than two dimensions.
    """
    a = _finite(obj, name)
    if a.ndim < 2:
        raise ShapeMismatchError(
            f"{name} must be at least 2-D, got shape {a.shape}"
        )
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


def solve_spd(a, b):
    """Solve ``a x = b`` for symmetric positive definite *a*.

    Factors ``a = L L^T`` by Cholesky and solves ``L y = b``, then
    ``L^T x = y``.  Raises ``SymmetryError`` when *a* deviates from
    symmetry by more than ``SYM_TOL`` relative to its largest entry, and
    ``DefinitenessError`` when the factorization fails.

    *a* may also be a stack ``(..., d, d)`` with *b* a stack
    ``(..., d, k)`` of the same leading shape; each slice is checked on
    its own and solved bit-identically to a call on that slice alone.

    For a d x d matrix with condition number kappa, each column of the
    result has forward error ``||x - x*|| <= 4 d kappa u ||x*||`` and
    normwise backward error ``||b - a x|| <= 4 d u ||a|| ||x||`` (2-norms,
    u = 2**-53); a test checks both against an extended-precision
    reference.
    """
    a = as_stack(a, "a")
    b = as_stack(b, "b")
    if a.shape[-1] != a.shape[-2]:
        raise ShapeMismatchError(f"a must be square, got {a.shape}")
    if a.shape[:-1] != b.shape[:-1]:
        raise ShapeMismatchError(
            f"a is {a.shape} but b has shape {b.shape}"
        )
    scale = np.max(np.abs(a), axis=(-2, -1))
    skew = np.max(np.abs(a - a.mT), axis=(-2, -1))
    if np.any(skew > SYM_TOL * scale):
        raise SymmetryError("matrix is not symmetric")
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError("matrix is not positive definite") from exc
    x = np.linalg.solve(low.mT, np.linalg.solve(low, b))
    return _check_result_finite(x, "solve_spd")
