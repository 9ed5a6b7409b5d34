"""Newton-Schulz matrix inversion and its higher-order hyperpower family.

The order-2 step is X(2I - AX); the order-n step multiplies X by a
degree-(n-1) binomial polynomial in AX and contracts the residual
I - XA to its n-th power each iteration.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ShapeMismatchError
from .linalg import as_matrix, spectral_norm_est

__all__ = [
    "MAX_ORDER",
    "newton_step",
    "hyperpower_step",
    "predicted_steps",
    "initial_scale",
    "run_inverse",
    "InverseRun",
    "fitted_order",
]

MAX_ORDER = 8
INIT_SAFETY = 0.9
FIT_LO = 1e-12
FIT_HI = 0.5
FIT_MAX_PAIRS = 3


def _check_square_pair(x, a):
    x = as_matrix(x, "x")
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"a must be square, got {a.shape}")
    if x.shape != (a.shape[1], a.shape[0]):
        raise ShapeMismatchError(
            f"x must have shape {(a.shape[1], a.shape[0])}, got {x.shape}"
        )
    return x, a


def newton_step(x, a):
    """One Newton-Schulz update X(2I - AX)."""
    x, a = _check_square_pair(x, a)
    d = a.shape[0]
    return x @ (2.0 * np.eye(d) - a @ x)


def hyperpower_step(x, a, order):
    """One hyperpower update of the given order.

    Computes ``X @ sum_{m=0}^{order-1} (-1)^m C(order, m+1) (AX)^m``
    by Horner evaluation.  Binomial coefficients are exact integers;
    orders above 8 are rejected so they stay exactly representable in
    float64 products.  Order 2 takes the identical code path as
    :func:`newton_step`.
    """
    if not isinstance(order, (int, np.integer)):
        raise ValueError("order must be an integer")
    if order < 2 or order > MAX_ORDER:
        raise ValueError(f"order must be in [2, {MAX_ORDER}], got {order}")
    if order == 2:
        return newton_step(x, a)
    x, a = _check_square_pair(x, a)
    d = a.shape[0]
    eye = np.eye(d)
    m = a @ x
    # Horner from the highest power: coefficients (-1)^j C(order, j+1)
    poly = float((-1) ** (order - 1) * math.comb(order, order)) * eye
    for j in range(order - 2, -1, -1):
        poly = float((-1) ** j * math.comb(order, j + 1)) * eye + m @ poly
    return x @ poly


def predicted_steps(kappa, eps, order=2):
    """Upper envelope on the iterations needed to reach residual *eps*.

    For condition number *kappa* of the matrix being inverted, the
    warm-up phase costs about ``2 log_order(kappa)`` steps and the
    high-accuracy phase ``log_order(log2(1/eps))`` more; a fixed slack
    of 2 absorbs rounding.  Each logarithmic term is clamped at zero so
    trivially easy inputs (kappa near 1, loose eps) cannot push the
    envelope below the slack.
    """
    if not kappa >= 1.0:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    log_ord = math.log(order)
    warmup = max(0, math.ceil(2.0 * math.log(kappa) / log_ord))
    sharpen = max(0, math.ceil(math.log(math.log2(1.0 / eps)) / log_ord))
    return warmup + sharpen + 2


def initial_scale(sigma):
    """Start scale ``alpha = 2 * INIT_SAFETY / sigma**2`` for ``alpha * A^T``.

    The iteration from ``alpha * A^T`` converges for alpha in
    ``(0, 2 / sigma_max**2)``, which this alpha meets whenever
    ``sigma**2 > INIT_SAFETY * sigma_max**2``: for any upper bound on
    the spectral norm, and for a power-iteration estimate within about
    5% of it.
    """
    return 2.0 * INIT_SAFETY / sigma**2


@dataclass
class InverseRun:
    """Record of one inversion run.

    ``iterates[t]`` is X_t (``iterates[0]`` is the scaled-transpose
    start), ``residuals[t]`` is the Frobenius norm of I - X_t A, and
    ``converged`` says whether the tolerance was met within the step
    budget.
    """

    alpha: float
    order: int
    iterates: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    converged: bool = False

    @property
    def steps(self):
        """Number of update steps taken (excludes the start iterate)."""
        return len(self.iterates) - 1


def run_inverse(a, order=2, tol=1e-10, max_iters=100):
    """Iterate the hyperpower update on *a* until the residual meets *tol*.

    The start iterate is ``alpha * a.T`` with
    ``alpha = initial_scale(sigma_hat)``, where ``sigma_hat`` is the
    power-iteration estimate of the spectral norm.

    Raises ``ConvergenceError`` (with the partial run attached) if the
    residual is still above *tol* after *max_iters* steps.
    """
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"a must be square, got {a.shape}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    sigma = spectral_norm_est(a)
    if sigma == 0.0:
        raise ValueError("cannot invert the zero matrix")
    alpha = initial_scale(sigma)
    d = a.shape[0]
    eye = np.eye(d)
    x = alpha * a.T
    run = InverseRun(alpha=alpha, order=int(order))
    run.iterates.append(x)
    run.residuals.append(float(np.linalg.norm(eye - x @ a)))
    for _ in range(max_iters):
        if run.residuals[-1] <= tol:
            run.converged = True
            return run
        x = hyperpower_step(x, a, order)
        run.iterates.append(x)
        run.residuals.append(float(np.linalg.norm(eye - x @ a)))
    if run.residuals[-1] <= tol:
        run.converged = True
        return run
    raise ConvergenceError(
        f"residual {run.residuals[-1]:.3e} above tol {tol:.3e} "
        f"after {max_iters} steps",
        trace=run,
    )


def fitted_order(residuals):
    """Empirical convergence order from a residual history.

    Fits the slope of ``log r_{t+1}`` against ``log r_t`` over the last
    ``FIT_MAX_PAIRS`` consecutive pairs with ``r_t <= FIT_HI`` (past
    warm-up) and ``r_{t+1} >= FIT_LO`` (above the floating-point
    floor).  Under the residual law ``r_{t+1} = r_t**q`` the slope is
    exactly q.

    Requires at least two usable pairs.
    """
    r = np.asarray(residuals, dtype=np.float64)
    if r.ndim != 1 or r.size < 3:
        raise ValueError("need a residual history of length >= 3")
    mask = (r[:-1] <= FIT_HI) & (r[1:] >= FIT_LO) & (r[:-1] > r[1:])
    idx = np.nonzero(mask)[0][-FIT_MAX_PAIRS:]
    if idx.size < 2:
        raise ValueError("fewer than two residual pairs in the fit window")
    lx = np.log(r[idx])
    ly = np.log(r[idx + 1])
    return float(np.polyfit(lx, ly, 1)[0])
