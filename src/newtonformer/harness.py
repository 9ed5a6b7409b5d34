"""Experiment runners emitting reproducible CSV summaries.

Each runner consumes an :class:`ExperimentConfig`, generates data from
its seed, and writes plain CSV so plotting stays external.  The linreg
and logreg runners compare their constructed transformers against
closed-form or iterative oracles; the invert runner traces the
Newton-Schulz oracle alone.  Re-running with the same config yields
byte-identical files.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import builders, datagen, inversion, logistic
from .linalg import _count, solve_spd

__all__ = [
    "TASK_DEFAULTS",
    "ExperimentConfig",
    "run_invert_experiment",
    "run_linreg_experiment",
    "run_logreg_experiment",
]

# Each task's defaults, listing only the fields its runner reads.  The
# CLI builds each experiment subcommand's flags from this table.
TASK_DEFAULTS = {
    "invert": dict(d=8, kappa=16.0, eps=1e-10, orders=(2, 3), t_max=60,
                   seed=0, out_dir="."),
    "linreg": dict(d=10, n=50, kappa=100.0, noise_std=0.0, mu=0.0,
                   orders=(2, 3), t_max=30, seed=0, out_dir=".", batch=16),
    "logreg": dict(d=5, n=26, kappa=10.0, mu=0.1, eps=1e-2, t_max=15,
                   seed=0, out_dir="."),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated bundle of experiment knobs.

    A field left unset takes its task's default from ``TASK_DEFAULTS``;
    a field the task's runner does not read stays None.  The count
    fields d, n, t_max, seed and batch, and each order (in
    [2, MAX_ORDER]), go through ``linalg._count`` and are stored as ints.
    """

    task: str
    d: int | None = None
    n: int | None = None
    kappa: float | None = None
    noise_std: float | None = None
    mu: float | None = None
    eps: float | None = None
    orders: tuple | None = None
    t_max: int | None = None
    seed: int | None = None
    out_dir: str | None = None
    batch: int | None = None

    def __post_init__(self):
        if self.task not in TASK_DEFAULTS:
            raise ValueError(
                f"task must be one of {tuple(TASK_DEFAULTS)}, got {self.task!r}"
            )
        for key, value in TASK_DEFAULTS[self.task].items():
            if getattr(self, key) is None:
                object.__setattr__(self, key, value)
        for key, low in (("d", 1), ("n", 1), ("t_max", 1), ("seed", 0),
                         ("batch", 1)):
            value = getattr(self, key)
            if value is not None:
                object.__setattr__(self, key, _count(value, key, low))
        if not 1.0 <= self.kappa < np.inf:
            raise ValueError(f"kappa must be finite and >= 1, got {self.kappa}")
        if self.noise_std is not None and not 0.0 <= self.noise_std < np.inf:
            raise ValueError(
                f"noise_std must be finite and >= 0, got {self.noise_std}"
            )
        if self.eps is not None and not 0.0 < self.eps < np.inf:
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")
        if self.orders is not None:
            orders = tuple(inversion._check_order(o) for o in self.orders)
            if not orders:
                raise ValueError("orders must be nonempty")
            for i, o in enumerate(orders):
                if o in orders[:i]:
                    raise ValueError(f"orders must not repeat, got {o} twice")
            object.__setattr__(self, "orders", orders)
        if self.task in ("linreg", "logreg"):
            if self.n < self.d:
                raise ValueError(f"need n >= d, got n={self.n}, d={self.d}")
            if self.task == "logreg" and not 0.0 < self.mu < np.inf:
                raise ValueError(
                    f"logreg mu must be finite and > 0, got {self.mu}"
                )
            if self.task == "linreg" and not 0.0 <= self.mu < np.inf:
                raise ValueError(
                    f"ridge mu must be finite and >= 0, got {self.mu}"
                )


def _write_csv(out_dir, name, header, fmt, rows):
    """Write *rows* under *header* to out_dir/name; returns ``[path]``,
    the runners' list of files written.

    Each row is one ``fmt % row`` line: ``%s`` for a method name, ``%d``
    for a count and ``%.17g`` for a float, which reads back as the same
    double.  The whole text, "\\n"-terminated lines, is encoded as ASCII
    and then written in one binary write: a non-ASCII value raises
    ``UnicodeEncodeError`` (a ``ValueError``) before the file is opened,
    and no text codec is imported."""
    line = fmt + "\n"
    text = header + "\n" + "".join([line % row for row in rows])
    data = text.encode("ascii")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return [path]


def run_invert_experiment(cfg):
    """Residual traces of run_inverse per order on one SPD matrix."""
    if cfg.task != "invert":
        raise ValueError(f"config task is {cfg.task!r}, expected 'invert'")
    rng = np.random.default_rng(cfg.seed)
    a = datagen.make_covariance(cfg.d, cfg.kappa, rng)
    rows = []
    for order in cfg.orders:
        run = inversion.run_inverse(
            a, order=order, tol=cfg.eps, max_iters=cfg.t_max
        )
        for step, residual in enumerate(run.residuals):
            rows.append((order, step, residual))
    return _write_csv(
        cfg.out_dir, "invert.csv", "order,step,residual_frobenius",
        "%d,%d,%.17g", rows,
    )


def run_linreg_experiment(cfg):
    """Prediction MSE versus depth for the constructed least-squares
    transformer, hyperpower oracles sharing its start, and the
    closed-form solver, over a batch of fresh prompts.

    The squared error is measured against the clean target
    a_test . w_star, so the closed-form row is the attainable floor.

    Every per-prompt step is one stacked call: ``gen_linreg_data``
    draws the prompts, and on their ``(batch, d, d)`` stack of Gram
    matrices B ``trace_initial_scale`` gives every oracle's start
    alpha' I from tr B, ``solve_spd`` the closed-form predictions, and
    one ``hyperpower_step`` per depth and order the oracles' iterates.
    A trace outside the start's knot span raises its ``ValueError``
    before any layer runs.

    The constructed transformer depends on d and ridge mu alone, so it
    is built once per run and runs on one ``(batch, dim, n)`` stack of
    prompts, made by one ``make_linreg_prompt`` call.  Its init layers
    find each prompt's own start alpha' I in context from the same
    reciprocal table the oracles read.  ``Looped.run`` takes the stream
    through ``len(prefix) + t * len(body)`` layers by depth t, in place,
    and the depth-t predictions are read after pass t: ``1 + t_max``
    forward calls and ``t_max + 4`` attention calls in all.  Each
    depth's oracle predictions are one stacked product
    a_test^T X A^T y over the prompts.

    The mse values are means over one ``(rows, batch)`` prediction
    array; the closed-form one is taken before the depth loop, so its
    overflow stops the run before any layer runs.  A noise_std whose
    labels are finite but whose A^T y overflows raises ``ValueError``
    naming it.  Stacked calls are bit-identical to per-prompt 2-D
    calls, so the rows equal a per-prompt rebuild-and-replay exactly.
    """
    if cfg.task != "linreg":
        raise ValueError(f"config task is {cfg.task!r}, expected 'linreg'")
    a, y, a_tests, w_star = datagen.gen_linreg_data(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        atys = a.mT @ y[:, :, None]
    if not np.isfinite(atys).all():
        raise ValueError(
            f"noise_std={cfg.noise_std:g} overflows float64: the labels "
            "are finite, but A^T y exceeds its range"
        )
    targets = (a_tests[:, None, :] @ w_star[:, :, None])[:, 0, 0]
    grams = a.mT @ a + cfg.mu * np.eye(cfg.d)
    starts = inversion.trace_initial_scale(
        np.trace(grams, axis1=-2, axis2=-1)
    )

    def mse(preds):
        # err * err is the correctly rounded square; Python's ** goes
        # through libm's pow, which need not be.  An overflow leaves inf.
        with np.errstate(over="ignore"):
            errs = preds - targets
            values = np.mean(errs * errs, axis=-1)
        if not np.isfinite(values).all():
            raise ValueError(
                "mse overflows float64: the squared prediction errors "
                "exceed its range"
            )
        return values.tolist()

    ls_preds = a_tests[:, None, :] @ solve_spd(grams, atys)
    (ls_mse,) = mse(ls_preds[None, :, 0, 0])
    layers, layout = builders.build_linreg_transformer(cfg.d, ridge_mu=cfg.mu)
    prompts = builders.make_linreg_prompt(a, y, a_tests)
    oracle_x = {order: starts[:, None, None] * np.eye(cfg.d)
                for order in cfg.orders}
    # per depth: the constructed row, then one row per order
    preds = np.empty((cfg.t_max, 1 + len(cfg.orders), cfg.batch))
    for t, stream in enumerate(layers.run(prompts, cfg.t_max)):
        preds[t, 0] = builders.read_linreg_prediction(stream, layout)
        for j, order in enumerate(cfg.orders, 1):
            x = oracle_x[order] = inversion.hyperpower_step(
                oracle_x[order], grams, order
            )
            preds[t, j] = (a_tests[:, None, :] @ x @ atys)[:, 0, 0]
    mses = iter(mse(preds.reshape(-1, cfg.batch)))
    rows = []
    for t in range(1, cfg.t_max + 1):
        rows.append(("constructed", 2, t, next(mses)))
        for order in cfg.orders:
            rows.append((f"newton_order_{order}", order, t, next(mses)))
        rows.append(("least_squares", 0, t, ls_mse))
    return _write_csv(
        cfg.out_dir, "linreg.csv", "method,order,steps,mse",
        "%s,%d,%d,%.17g", rows,
    )


def run_logreg_experiment(cfg):
    """Loss traces for exact, error-injected, and constructed Newton.

    All three traces run exactly t_max steps from x0 = 0; the CSV
    carries a layers_per_step column, ``budget.depth``: the constructed
    stack has no prefix, so ``len(prefix) + t * len(body)`` is t times
    it, and loss-versus-layers plots can be drawn externally.  The
    constructed trace runs one pass of the body per step; each pass
    leaves the next iterate's prompt exactly.  The exact and
    inexact traces advance together as one ``(2, d)`` stack, one
    :func:`~.logistic.damped_step` call per step, and an exact or
    inexact row takes f from the ``NewtonState`` of the step that left
    its iterate.  g* is read from the first exact state that meets
    :func:`~.logistic.optimum_reached`; only a t_max too short to reach
    it calls :func:`~.logistic.optimum` as well.  The two traces' last
    iterates and the constructed iterates are evaluated in one
    :func:`~.logistic.objective` call.
    """
    if cfg.task != "logreg":
        raise ValueError(f"config task is {cfg.task!r}, expected 'logreg'")
    problem, _ = datagen.gen_logreg_data(cfg)
    budget = builders.width_depth_budget(cfg.eps, cfg.mu, d=cfg.d)
    source = logistic.bounded_error_source(cfg.eps, cfg.d, cfg.seed + 1)
    x = np.zeros((2, cfg.d))  # the exact and the inexact iterate
    f_steps, g_star = [], None
    for step in range(cfg.t_max):
        state = logistic.damped_step(problem, x)
        f_steps.append(state.f)
        if g_star is None and logistic.optimum_reached(
                cfg.mu, state.decrement[0], step):
            g_star = logistic.scaled_objective(cfg.mu, state.f[0])
        x = state.x
        x[1] += source(step)
    if g_star is None:
        g_star = logistic.optimum(problem)[1]
    constructed = builders.run_constructed_newton(
        problem, np.zeros(cfg.d), budget, cfg.t_max
    )
    f_last = logistic.objective(problem, np.vstack([x, *constructed]))
    f_traces = np.vstack([*f_steps, f_last[:2]])

    rows = []
    for method, fs in (
        ("exact_newton", f_traces[:, 0]),
        ("inexact_newton", f_traces[:, 1]),
        ("constructed", f_last[2:]),
    ):
        for step, f_val in enumerate(fs):
            g_sub = logistic.scaled_objective(cfg.mu, f_val) - g_star
            rows.append((method, step, budget.depth, f_val, g_sub))
    return _write_csv(
        cfg.out_dir, "logreg.csv",
        "method,step,layers_per_step,f,g_suboptimality",
        "%s,%d,%d,%.17g,%.17g", rows,
    )
