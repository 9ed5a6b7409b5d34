"""Regularized logistic regression and its inexact damped Newton solver.

The objective is

    f(x) = (1/n) sum_i log(1 + exp(-y_i x.a_i)) + (mu/2) ||x||^2

with unit-bounded feature rows.  Scaling by 1/(4 mu) makes the
objective standard self-concordant, which yields the usual two-phase
damped Newton analysis: a constant per-step decrease of at least 0.01
in the scaled objective while the scaled decrement is >= 1/6, then
quadratic contraction of the decrement (up to a floor set by any
injected step errors).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ScanAnomalyError
from .linalg import _count, _finite, solve_spd

__all__ = [
    "LogisticProblem",
    "objective",
    "loss_grad_hess",
    "scaled_decrement",
    "scaled_objective",
    "NewtonState",
    "damping",
    "damped_step",
    "IterateTrace",
    "run_inexact_newton",
    "optimum_reached",
    "optimum",
    "bounded_error_source",
    "omega_star",
    "suboptimality_bound",
    "quadratic_phase_epsilon",
    "iterate_norm_bound",
    "decrease_bound",
    "scan_constant_decrease",
]

EXP_CLAMP = 40.0
# squared local norms of the injected error that the decrease scan covers
C_PRIME_VALUES = (0.0, 5e-5, 1e-4)
QUADRATIC_PHASE_THRESHOLD = 1.0 / 6.0
# a radicand of decrease_bound this far below 0 is rounding, read as 0
RADICAND_TOL = 1e-15
OPTIMUM_TOL = 1e-12
OPTIMUM_MAX_ITERS = 500


def sigmoid(t):
    """1 / (1 + exp(-t)) with t clamped to +-EXP_CLAMP, where the
    logistic function already saturates to double precision."""
    return 1.0 / (1.0 + np.exp(-np.clip(t, -EXP_CLAMP, EXP_CLAMP)))


@dataclass(frozen=True, eq=False)
class LogisticProblem:
    """A dataset (features, labels) with ridge weight mu.

    Feature rows must have 2-norm at most 1 and labels must be +-1;
    both go through ``linalg._finite`` and are validated on construction.
    """

    features: np.ndarray
    labels: np.ndarray
    mu: float

    def __post_init__(self):
        a = _finite(self.features, "features")
        y = _finite(self.labels, "labels")
        if a.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {a.shape}")
        if y.shape != (a.shape[0],):
            raise ValueError(
                f"labels must have shape ({a.shape[0]},), got {y.shape}"
            )
        norms = np.linalg.norm(a, axis=1)
        if np.any(norms > 1.0 + 1e-12):
            raise ValueError(
                f"feature row norms must be <= 1, max is {norms.max():.6g}"
            )
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"mu must be finite and positive, got {self.mu}")
        object.__setattr__(self, "features", a)
        object.__setattr__(self, "labels", y)

    @property
    def n_samples(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]


def _check_point(problem, x):
    x = _finite(x, "x")
    if x.ndim not in (1, 2) or x.shape[-1] != problem.dim:
        raise ValueError(
            f"x must have shape ({problem.dim},) or (k, {problem.dim}), "
            f"got {x.shape}"
        )
    return x


def _row_dot(u, v):
    """u.v for each row of two ``(..., d)`` stacks, one matmul per row."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _scalar_for_a_point(x, value):
    """*value* as a Python float when *x* is one point, else as is."""
    return float(value) if x.ndim == 1 else value


def _margins(problem, x):
    """y_i x.a_i for every example, one row per point of *x*."""
    return problem.labels * (problem.features @ x[..., None])[..., 0]


def _objective(problem, x, z):
    """f at the points *x*, whose margins *z* are given."""
    return (np.mean(np.logaddexp(0.0, -z), axis=-1)
            + 0.5 * problem.mu * _row_dot(x, x))


def objective(problem, x):
    """Objective value at *x*, a point ``(d,)`` or a stack ``(k, d)``.

    A point gives a float, a stack an array of k values, each
    bit-identical to the value for that point alone.
    """
    x = _check_point(problem, x)
    return _scalar_for_a_point(x, _objective(problem, x, _margins(problem, x)))


def loss_grad_hess(problem, x):
    """Objective value, gradient, and Hessian at *x*.

    The loss uses the stable log-sum form log(1 + exp(-z)) evaluated
    via logaddexp, spelled once in :func:`objective`.  The Hessian is
    (1/n) A.T diag(p (1 - p)) A + mu I, so its eigenvalues always lie
    in [mu, 1 + mu] for unit-bounded rows.

    *x* is a point ``(d,)``, giving a float f, a ``(d,)`` gradient and a
    ``(d, d)`` Hessian, or a stack ``(k, d)``, giving ``(k,)``,
    ``(k, d)`` and ``(k, d, d)`` stacks whose slices are bit-identical
    to the call on that point alone.
    """
    x = _check_point(problem, x)
    a, y, mu = problem.features, problem.labels, problem.mu
    n = problem.n_samples
    z = _margins(problem, x)
    f = _scalar_for_a_point(x, _objective(problem, x, z))
    p = sigmoid(-z)
    grad = -(a.T @ (y * p)[..., None])[..., 0] / n + mu * x
    weights = p * (1.0 - p)
    hess = (a.T * (weights / n)[..., None, :]) @ a + mu * np.eye(problem.dim)
    return f, grad, hess


def scaled_objective(mu, f):
    """The standard self-concordant scaling f/(4 mu) of an objective f."""
    return f / (4.0 * mu)


def scaled_decrement(mu, decrement):
    """Newton decrement of the scaling f/(4 mu): the raw decrement
    sqrt(g.T H^-1 g), which :func:`damped_step` reports, divided by
    2 sqrt(mu)."""
    return decrement / (2.0 * np.sqrt(mu))


@dataclass(frozen=True, eq=False)
class NewtonState:
    """Result of one damped step: the next iterate plus what was
    computed at the point the step left from.

    ``f`` is the objective there and ``decrement`` its raw Newton
    decrement; ``step_size == damping(mu, decrement)``.  A step from a
    point holds floats; a step from a ``(k, d)`` stack holds a
    ``(k, d)`` ``x`` and arrays of k values, one per point.
    """

    x: np.ndarray
    f: float
    decrement: float
    step_size: float


def damping(mu, decrement):
    """Damped Newton step size 2 sqrt(mu) / (2 sqrt(mu) + decrement).

    This is the damping that guarantees progress for the
    self-concordant scaling f/(4 mu); it works elementwise on an array
    of decrements.
    """
    two_sqrt_mu = 2.0 * np.sqrt(mu)
    return two_sqrt_mu / (two_sqrt_mu + decrement)


def damped_step(problem, x):
    """One exact damped Newton step from *x*.

    The update is x - step_size * H^-1 g with
    step_size = damping(mu, lambda) for the decrement lambda.  This is
    the library's one Newton step: it evaluates the Hessian once and
    solves with it once.  An inexact step adds its error to the
    returned ``x``.

    *x* may be a ``(k, d)`` stack of points, stepped together; each
    slice of the result is bit-identical to the step from that point
    alone.
    """
    f, grad, hess = loss_grad_hess(problem, x)
    x = _finite(x, "x")  # admitted there; this takes its float64 array
    direction = solve_spd(hess, grad[..., None])[..., 0]
    lam = _scalar_for_a_point(
        x, np.sqrt(np.maximum(_row_dot(grad, direction), 0.0))
    )
    step_size = damping(problem.mu, lam)
    return NewtonState(
        x=x - np.expand_dims(step_size, -1) * direction,
        f=f,
        decrement=lam,
        step_size=step_size,
    )


@dataclass
class IterateTrace:
    """Per-iterate history of a damped Newton run.

    Row t holds the objective f, scaled objective g, scaled decrement,
    the step size used to leave iterate t, the norm of the error
    injected into that step, and the scaled suboptimality g - g*.  The
    final row's step size is the one that would be used next, with zero
    injected error.
    """

    iterates: list = field(default_factory=list)
    f: list = field(default_factory=list)
    g: list = field(default_factory=list)
    lambda_g: list = field(default_factory=list)
    step_size: list = field(default_factory=list)
    injected_error_norm: list = field(default_factory=list)
    g_suboptimality: list = field(default_factory=list)
    converged: bool = False

    @property
    def steps(self):
        return len(self.iterates) - 1


def bounded_error_source(eps, dim, seed=0):
    """Callable t -> error vector of norm exactly *eps*, seeded.

    Draws an isotropic direction per step from a dedicated generator,
    so a run with the same seed replays identical errors.  *dim* must
    be a count >= 1 and *seed* a count >= 0.
    """
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    dim = _count(dim, "dim", 1)
    rng = np.random.default_rng(_count(seed, "seed", 0))

    def source(_step):
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            v = np.zeros(dim)
            v[0] = 1.0
            norm = 1.0
        return (eps / norm) * v

    return source


def run_inexact_newton(
    problem,
    x0,
    eps,
    error_source=None,
    max_iters=100,
    reference=None,
):
    """Damped Newton from *x0* with per-step errors bounded by *eps*.

    *error_source* maps the step index to an error vector (norm at most
    *eps*); None means exact steps.  Iteration stops once the scaled
    decrement falls to sqrt(eps) -- the level below which injected
    errors dominate -- or after *max_iters* steps, whichever comes
    first; ``trace.converged`` records which.

    *reference* is an optional precomputed ``(x_star, g_star)`` pair
    used for the suboptimality column; by default it is computed here
    with an exact high-precision run.  Exhausting *max_iters* without
    reaching the threshold raises ``ConvergenceError`` with the trace
    attached.  *max_iters* and each error vector go through the
    ``linalg`` guards; an error of the wrong shape raises ``ValueError``.
    """
    x = _check_point(problem, x0)
    if x.ndim != 1:
        raise ValueError(f"x0 must have shape ({problem.dim},), got {x.shape}")
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    max_iters = _count(max_iters, "max_iters", 0)
    if reference is None:
        reference = optimum(problem)
    g_star = reference[1]
    threshold = np.sqrt(eps)
    mu = problem.mu
    trace = IterateTrace()

    def record(f, g, lam_g, step_size, err_norm):
        trace.iterates.append(x)
        trace.f.append(f)
        trace.g.append(g)
        trace.lambda_g.append(lam_g)
        trace.step_size.append(step_size)
        trace.injected_error_norm.append(err_norm)
        trace.g_suboptimality.append(g - g_star)

    for step in range(max_iters + 1):
        state = damped_step(problem, x)
        lam_g = scaled_decrement(mu, state.decrement)
        g = scaled_objective(mu, state.f)
        if lam_g <= threshold or step == max_iters:
            record(state.f, g, lam_g, state.step_size, 0.0)
            if lam_g <= threshold:
                trace.converged = True
                return trace
            raise ConvergenceError(
                f"scaled decrement {lam_g:.3e} still above threshold "
                f"{threshold:.3e} after {max_iters} steps",
                trace=trace,
            )
        error = None if error_source is None else error_source(step)
        err_norm = 0.0
        if error is not None:
            error = _finite(error, f"error_source output at step {step}")
            if error.shape != x.shape:
                raise ValueError(
                    f"error_source produced shape {error.shape}, expected "
                    f"{x.shape}, at step {step}"
                )
            err_norm = float(np.linalg.norm(error))
            if err_norm > eps * (1 + 1e-12):
                raise ValueError(
                    f"error_source produced a vector of norm "
                    f"{err_norm:.3e} > eps {eps:.3e} at step {step}"
                )
        record(state.f, g, lam_g, state.step_size, err_norm)
        x = state.x if error is None else state.x + error
    raise AssertionError("unreachable")


def optimum_reached(mu, decrement, step):
    """Whether :func:`optimum` stops at iterate *step* of the exact run
    from x = 0, whose raw decrement is *decrement*: the scaled decrement
    is at most ``OPTIMUM_TOL``, or *step* has reached
    ``OPTIMUM_MAX_ITERS``."""
    return (scaled_decrement(mu, decrement) <= OPTIMUM_TOL
            or step >= OPTIMUM_MAX_ITERS)


def optimum(problem):
    """High-precision minimizer via exact damped Newton from x = 0.

    Steps until :func:`optimum_reached` holds and returns
    ``(x_star, g_star)``: the iterate it holds at and the scaled
    objective f/(4 mu) there.
    """
    x = np.zeros(problem.dim)
    for step in range(OPTIMUM_MAX_ITERS + 1):
        state = damped_step(problem, x)
        if optimum_reached(problem.mu, state.decrement, step):
            return x, scaled_objective(problem.mu, state.f)
        x = state.x
    raise AssertionError("unreachable")


def omega_star(t):
    """omega*(t) = -t - log(1 - t), for 0 <= t < 1."""
    if not 0.0 <= t < 1.0:
        raise ValueError(f"omega_star requires 0 <= t < 1, got {t}")
    return float(-t - np.log1p(-t))


def suboptimality_bound(lambda_g):
    """Upper bound on g(x) - g* from the scaled decrement.

    Returns omega*(lambda_g), valid for 0 <= lambda_g < 1, else
    ``ValueError``; for lambda_g <= 1/6 it is at most (3/5) lambda_g**2.
    """
    if not 0.0 <= lambda_g < 1.0:
        raise ValueError(f"lambda_g must be in [0, 1), got {lambda_g}")
    return omega_star(lambda_g)


def quadratic_phase_epsilon(eps, mu):
    """Additive slack eps' in the quadratic-phase decrement inequality.

    With per-step errors of norm at most *eps*, the contraction
    lambda_g(x_{t+1}) <= 3 lambda_g(x_t)**2 + eps' holds for
    eps' = 3 eps (1 + mu) / (8 mu) + eps sqrt(1 + mu) / (2 sqrt(mu)).
    """
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be finite and positive, got {mu}")
    return float(
        3.0 * eps * (1.0 + mu) / (8.0 * mu)
        + eps * np.sqrt(1.0 + mu) / (2.0 * np.sqrt(mu))
    )


def iterate_norm_bound(mu):
    """Norm bound on damped Newton iterates started at the origin.

    The objective at 0 is log 2 and every step decreases it, so
    mu ||x||^2 / 2 <= f(x) <= log 2 along the trajectory; one unit of
    slack absorbs bounded injected errors.  Python floats make a mu too
    small for the bound give inf, with no numpy overflow warning.
    """
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be finite and positive, got {mu}")
    return math.sqrt(2.0 * math.log(2.0) / mu) + 1.0


def decrease_bound(x, c, c_prime):
    """Pointwise upper bound h on the per-step change of g.

        h = -x**2 / (1 + x) + c + omega_star(delta)
        delta = sqrt(x**2 / (1 + x)**2 - 2 c / (1 + x) + c_prime)

    where x is the scaled decrement at the current iterate, c the
    inner product of the injected error with the scaled gradient, and
    c_prime its squared local-norm.  Vectorized over numpy inputs; a
    radicand within ``RADICAND_TOL`` below 0 counts as 0, as in the
    scan.  The first point, in broadcast order, with an entry not
    finite, x < 0, c_prime < 0, a radicand below -RADICAND_TOL or
    delta >= 1 raises ``ValueError`` naming it and that condition.
    """
    x, c, c_prime = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.float64) for v in (x, c, c_prime)))
    with np.errstate(all="ignore"):
        radicand = _radicand(x, c, c_prime)
        delta = np.sqrt(np.maximum(radicand, 0.0))
    failed = {
        "an entry is not finite":
            ~(np.isfinite(x) & np.isfinite(c) & np.isfinite(c_prime)),
        "x < 0": x < 0.0, "c_prime < 0": c_prime < 0.0,
        f"radicand < -{RADICAND_TOL:g}": radicand < -RADICAND_TOL,
        "delta >= 1": ~(delta < 1.0)}
    bad = np.flatnonzero(np.logical_or.reduce(list(failed.values())))
    if bad.size:
        j = bad[0]
        condition = next(k for k, mask in failed.items() if mask.flat[j])
        raise ValueError(f"decrease_bound at (x, c, c_prime) = ({x.flat[j]:g}"
                         f", {c.flat[j]:g}, {c_prime.flat[j]:g}): {condition}")
    h = _decrease(x, c, delta)
    return float(h) if h.ndim == 0 else h


def _radicand(x, c, c_prime):
    """delta**2 of :func:`decrease_bound`."""
    return x**2 / (1.0 + x) ** 2 - 2.0 * c / (1.0 + x) + c_prime


def _decrease(x, c, delta):
    """h of :func:`decrease_bound` at a given delta."""
    return -(x**2) / (1.0 + x) + c + (-delta - np.log1p(-delta))


def scan_constant_decrease(grid_x=500, grid_c=500):
    """Numerically verify the constant-decrease margin of damped steps.

    Evaluates ``decrease_bound`` over x in [1/6, 1] and c in
    [-0.06, 0.06] on a grid_x-by-grid_c grid for each ``C_PRIME_VALUES``
    entry, restricted to combinations realizable by an actual error vector:
    Cauchy-Schwarz forces |c| <= x * sqrt(c_prime), and unrealizable
    (x, c, c_prime) triples are skipped.  Returns the maximum of h over
    the realizable grid; a decrease guarantee of 0.01 per step needs
    this maximum to be at most -0.01.

    Raises ``ScanAnomalyError`` if delta leaves [0, 1) at a realizable
    grid point, which would put the formula outside its domain.  The
    grid sizes are counts >= 100.
    """
    grid_x = _count(grid_x, "grid_x", 100)
    grid_c = _count(grid_c, "grid_c", 100)
    xs = np.linspace(QUADRATIC_PHASE_THRESHOLD, 1.0, grid_x)
    cs = np.linspace(-0.06, 0.06, grid_c)
    x, c = np.meshgrid(xs, cs, indexing="ij")
    best = -np.inf
    for c_prime in C_PRIME_VALUES:
        feasible = np.abs(c) <= x * np.sqrt(c_prime) + 1e-15
        if not np.any(feasible):
            continue
        radicand = _radicand(x, c, c_prime)
        bad = feasible & (radicand < -RADICAND_TOL)
        if np.any(bad):
            i = tuple(np.argwhere(bad)[0])
            raise ScanAnomalyError(
                "negative radicand at a realizable grid point",
                location=(float(x[i]), float(c[i]), c_prime),
            )
        delta = np.sqrt(np.maximum(radicand, 0.0))
        out_of_domain = feasible & (delta >= 1.0)
        if np.any(out_of_domain):
            i = tuple(np.argwhere(out_of_domain)[0])
            raise ScanAnomalyError(
                "delta >= 1 at a realizable grid point",
                location=(float(x[i]), float(c[i]), c_prime),
            )
        h = np.where(feasible, _decrease(x, c, delta), -np.inf)
        best = max(best, float(h.max()))
    return best
