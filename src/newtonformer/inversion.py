"""Newton-Schulz matrix inversion and its higher-order hyperpower family.

The order-2 step is the Newton-Schulz step X(2I - AX), the paper's
"single step of Newton's iteration"; the order-n step multiplies X by a
degree-(n-1) binomial polynomial in AX and contracts the residual
I - XA to its n-th power each iteration.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ShapeMismatchError
from .linalg import _count, _real, as_matrix, as_stack
from .pwl import PwlApprox, eval_pwl

__all__ = [
    "MAX_ORDER",
    "hyperpower_step",
    "predicted_steps",
    "spd_initial_scale",
    "trace_initial_scale",
    "run_inverse",
    "InverseRun",
    "fitted_order",
]

MAX_ORDER = 8
INIT_SAFETY = 0.9
FIT_LO = 1e-12
FIT_HI = 0.5
FIT_MAX_PAIRS = 3

# 1/t with knots at consecutive powers of two, 2**-64 .. 2**64.  The
# chord of the convex 1/t over [a, 2a] lies above it by at most 9/8.
_RECIP_EXPONENTS = np.arange(-64, 65)
TRACE_RECIPROCAL = PwlApprox(np.ldexp(1.0, _RECIP_EXPONENTS),
                             np.ldexp(1.0, -_RECIP_EXPONENTS))


def _check_order(order):
    """*order* as a count in [2, MAX_ORDER]."""
    return _count(order, "order", 2, MAX_ORDER)


def hyperpower_step(x, a, order):
    """One hyperpower update of the given order.

    Order 2 is the Newton-Schulz step X(2I - AX), the paper's "single
    step of Newton's iteration".  Computes
    ``X @ sum_{m=0}^{order-1} (-1)^m C(order, m+1) (AX)^m``
    by Horner evaluation.  Binomial coefficients are exact integers;
    orders above 8 are rejected so they stay exactly representable in
    float64 products.  Horner starts at
    ``C(order, order-1) (-1)^order I + (-1)^(order-1) AX``: one step from
    ``(-1)^(order-1) I`` without its product by that identity, which
    changes no bit but the sign of an exact zero; at order 2 that start,
    2I - AX, is the whole polynomial.  Stacks ``(..., d, d)`` are
    updated matrix by matrix: one call per stack, each slice
    bit-identical to its own 2-D update.
    """
    order = _check_order(order)
    x = as_stack(x, "x")
    a = as_stack(a, "a")
    if a.shape[-1] != a.shape[-2]:
        raise ShapeMismatchError(f"a must be square, got {a.shape}")
    if x.shape != a.shape:
        raise ShapeMismatchError(f"x must have shape {a.shape}, got {x.shape}")
    eye = np.eye(a.shape[-1])
    m = a @ x
    # Horner from the highest power: coefficients (-1)^j C(order, j+1)
    top = float((-1) ** order * math.comb(order, order - 1)) * eye
    poly = top - m if order % 2 == 0 else top + m
    for j in range(order - 3, -1, -1):
        poly = float((-1) ** j * math.comb(order, j + 1)) * eye + m @ poly
    return x @ poly


def predicted_steps(kappa, eps, order=2):
    """Upper envelope on the iterations needed to reach residual *eps*.

    For condition number *kappa* of the matrix being inverted, the
    warm-up phase costs about ``2 log_order(kappa)`` steps and the
    high-accuracy phase ``log_order(log2(1/eps))`` more; a fixed slack
    of 2 absorbs rounding.  Each logarithmic term is clamped at zero so
    trivially easy inputs (kappa near 1, loose eps) cannot push the
    envelope below the slack.  *order* must be one that
    :func:`hyperpower_step` runs: a count in [2, MAX_ORDER].
    """
    if not 1.0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and >= 1, got {kappa}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    log_ord = math.log(_check_order(order))
    warmup = max(0, math.ceil(2.0 * math.log(kappa) / log_ord))
    # -log2(eps), not log2(1/eps): 1/eps overflows for a subnormal eps
    sharpen = max(0, math.ceil(math.log(-math.log2(eps)) / log_ord))
    return warmup + sharpen + 2


def spd_initial_scale(lam):
    """Start scale ``alpha = 2 * INIT_SAFETY / lam`` for ``alpha * I``.

    For SPD A the iteration from ``alpha * I`` converges for alpha in
    ``(0, 2 / lambda_max)``, which this alpha meets for any upper bound
    *lam* on the largest eigenvalue.
    """
    return 2.0 * INIT_SAFETY / lam


def trace_initial_scale(trace):
    """Start scale ``alpha' = TRACE_RECIPROCAL(tr B)`` for ``alpha' * I``.

    For SPD B, tr B >= lambda_max and the table lies above 1/t by at
    most 9/8, so ``alpha' * lambda_max <= 1.125 < 2``: the iteration
    from ``alpha' * I`` converges, and its start needs no eigenvalue.
    The least-squares stack evaluates the same table on the trace it
    sums in context, so this is also its start.  *trace* may be an
    array, one trace per prompt.  A trace outside the table's knot span
    (NaN included) raises ``ValueError`` naming its prompt, the trace
    and the span: there the table clamps, and above the span its value
    is no longer below 2/lambda_max.  Complex input raises one too.
    """
    trace = _real(trace, "trace")
    lo, hi = TRACE_RECIPROCAL.knots[[0, -1]]
    bad = ~((trace >= lo) & (trace <= hi))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"prompt {i} has tr B = {trace.flat[i]:g}, outside the start "
            f"reciprocal's knot span [{lo:g}, {hi:g}]"
        )
    return eval_pwl(TRACE_RECIPROCAL, trace)


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
    ``alpha = spd_initial_scale(sigma**2)``, where ``sigma`` is the
    exact spectral norm of *a*: ``X_0 a = alpha * a^T a``, whose largest
    eigenvalue is sigma**2.

    Raises ``ConvergenceError`` (with the partial run attached) if the
    residual is still above *tol* after *max_iters* steps, and
    ``ValueError`` for the zero matrix, for a sigma whose square, and
    so alpha, falls outside float64's range, and, before any residual,
    for an *order* that :func:`hyperpower_step` rejects and a
    *max_iters* that is not a count >= 0.
    """
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"a must be square, got {a.shape}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    order = _check_order(order)
    max_iters = _count(max_iters, "max_iters", 0)
    sigma = np.linalg.norm(a, 2)
    if sigma == 0.0:
        raise ValueError("cannot invert the zero matrix")
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        alpha = float(spd_initial_scale(sigma * sigma))
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"run_inverse start scale overflows float64: "
                         f"sigma**2 for sigma={sigma:g} is outside its range")
    d = a.shape[0]
    eye = np.eye(d)
    x = alpha * a.T
    run = InverseRun(alpha=alpha, order=order)
    while True:
        run.iterates.append(x)
        run.residuals.append(float(np.linalg.norm(eye - x @ a)))
        if run.residuals[-1] <= tol:
            run.converged = True
            return run
        if run.steps >= max_iters:
            raise ConvergenceError(
                f"residual {run.residuals[-1]:.3e} above tol {tol:.3e} "
                f"after {max_iters} steps",
                trace=run,
            )
        x = hyperpower_step(x, a, order)


def fitted_order(residuals):
    """Empirical convergence order from a residual history.

    Fits the slope of ``log r_{t+1}`` against ``log r_t`` over the last
    ``FIT_MAX_PAIRS`` consecutive pairs with ``r_t <= FIT_HI`` (past
    warm-up) and ``r_{t+1} >= FIT_LO`` (above the floating-point
    floor).  Under the residual law ``r_{t+1} = r_t**q`` the slope is
    exactly q.

    Requires a real history with at least two usable pairs.
    """
    r = _real(residuals, "residuals")
    if r.ndim != 1 or r.size < 3:
        raise ValueError("need a residual history of length >= 3")
    mask = (r[:-1] <= FIT_HI) & (r[1:] >= FIT_LO) & (r[:-1] > r[1:])
    idx = np.nonzero(mask)[0][-FIT_MAX_PAIRS:]
    if idx.size < 2:
        raise ValueError("fewer than two residual pairs in the fit window")
    lx = np.log(r[idx], dtype=np.float64)
    ly = np.log(r[idx + 1], dtype=np.float64)
    return float(np.polyfit(lx, ly, 1)[0])
