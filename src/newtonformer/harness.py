"""Experiment runners emitting reproducible CSV summaries.

Each runner consumes an :class:`ExperimentConfig`, generates data from
its seed, and writes plain CSV so plotting stays external.  The linreg
and logreg runners compare their constructed transformers against
closed-form or iterative oracles; the invert runner traces the
Newton-Schulz oracle alone.  Re-running with the same config yields
byte-identical files.
"""

import os
from dataclasses import dataclass, replace

import numpy as np

from . import builders, datagen, inversion, logistic
from .inversion import MAX_ORDER
from .linalg import spectral_norm_est, solve_spd
from .transformer import model_forward

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
    a field the task's runner does not read stays None.
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
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 1.0 <= self.kappa < np.inf:
            raise ValueError(f"kappa must be finite and >= 1, got {self.kappa}")
        if self.noise_std is not None and not 0.0 <= self.noise_std < np.inf:
            raise ValueError(
                f"noise_std must be finite and >= 0, got {self.noise_std}"
            )
        if self.eps is not None and not 0.0 < self.eps < np.inf:
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")
        if self.batch is not None and self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.orders is not None:
            orders = tuple(int(o) for o in self.orders)
            if not orders:
                raise ValueError("orders must be nonempty")
            for o in orders:
                if not 2 <= o <= MAX_ORDER:
                    raise ValueError(
                        f"orders must lie in [2, {MAX_ORDER}], got {o}"
                    )
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


def _write_csv(out_dir, name, header, rows):
    """Write *rows* under *header* to out_dir/name; returns ``[path]``,
    the runners' list of files written."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return [path]


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


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
        cfg.out_dir, "invert.csv", "order,step,residual_frobenius", rows
    )


def run_linreg_experiment(cfg):
    """Prediction MSE versus depth for the constructed least-squares
    transformer, hyperpower oracles sharing its initialization, and the
    closed-form solver, over a batch of fresh prompts.

    The squared error is measured against the clean target
    a_test . w_star, so the closed-form row is the attainable floor.

    The prompts' Gram matrices form one ``(batch, d, d)`` stack: one
    ``spectral_norm_est`` call gives every prompt's alpha, and each
    depth advances each order's hyperpower oracles with one
    ``hyperpower_step`` call on the stack.

    The constructed transformer runs on one ``(batch, dim, n)`` stack
    of prompts.  Each prompt's transformer is built once, and its init
    layer, the only layer that reads alpha and ridge mu, writes that
    prompt's slice.  The Newton, contract and readout layers are the
    same for every prompt, so one Newton call per depth advances the
    whole stack, and the contract and readout layers run on it for
    that depth's predictions: ``batch + 3 t_max`` attention calls in
    all.  Every slice sees the input it would see alone in the full
    depth-t stack.

    Stacked calls are bit-identical to per-prompt 2-D calls, so the
    rows equal a per-prompt rebuild-and-replay exactly.
    """
    if cfg.task != "linreg":
        raise ValueError(f"config task is {cfg.task!r}, expected 'linreg'")
    prompts = []
    for item in range(cfg.batch):
        a, y, a_test, w_star = datagen.gen_linreg_data(
            replace(cfg, seed=cfg.seed + item)
        )
        prompts.append({
            "a": a, "y": y, "a_test": a_test,
            "target": float(a_test @ w_star),
            "aty": a.T @ y,
        })
    grams = np.stack([item["a"].T @ item["a"] + cfg.mu * np.eye(cfg.d)
                      for item in prompts])
    alphas = inversion.initial_scale(spectral_norm_est(grams))

    def mse(preds):
        errs = [(p - item["target"]) ** 2
                for p, item in zip(preds, prompts)]
        return float(np.mean(errs))

    rows = []
    ls_preds = [
        float(item["a_test"] @ solve_spd(gram, item["aty"][:, None])[:, 0])
        for item, gram in zip(prompts, grams)
    ]
    oracle_x = {order: alphas[:, None, None] * grams for order in cfg.orders}
    stream = None
    for i, (item, alpha) in enumerate(zip(prompts, alphas.tolist())):
        (init, newton, *output), layout = builders.build_linreg_transformer(
            cfg.d, 1, alpha, ridge_mu=cfg.mu
        )
        prompt = builders.make_linreg_prompt(
            item["a"], item["y"], item["a_test"]
        )
        if stream is None:
            stream = np.empty((cfg.batch, *prompt.shape))
        stream[i] = model_forward([init], prompt)
    for t in range(1, cfg.t_max + 1):
        stream = model_forward([newton], stream)
        preds = builders.read_linreg_prediction(
            model_forward(output, stream), layout
        )
        rows.append(("constructed", 2, t, mse(preds.tolist())))
        for order in cfg.orders:
            x = oracle_x[order] = inversion.hyperpower_step(
                oracle_x[order], grams, order
            )
            preds = [float(item["a_test"] @ x_i @ item["aty"])
                     for item, x_i in zip(prompts, x)]
            rows.append((f"newton_order_{order}", order, t, mse(preds)))
        rows.append(("least_squares", 0, t, mse(ls_preds)))
    return _write_csv(
        cfg.out_dir, "linreg.csv", "method,order,steps,mse", rows
    )


def run_logreg_experiment(cfg):
    """Loss traces for exact, error-injected, and constructed Newton.

    All three traces run exactly t_max steps from x0 = 0; the CSV
    carries a layers_per_step column (the constructed depth 10 + k)
    so loss-versus-layers plots can be drawn externally.
    """
    if cfg.task != "logreg":
        raise ValueError(f"config task is {cfg.task!r}, expected 'logreg'")
    problem, _ = datagen.gen_logreg_data(cfg)
    budget = builders.width_depth_budget(cfg.eps, cfg.mu, d=cfg.d)
    x_star, g_star = logistic.optimum(problem)

    x0 = np.zeros(cfg.d)
    source = logistic.bounded_error_source(cfg.eps, cfg.d, cfg.seed + 1)
    exact, inexact = [x0], [x0]
    for step in range(cfg.t_max):
        exact.append(logistic.damped_step(problem, exact[-1]).x)
        inexact.append(
            logistic.damped_step(problem, inexact[-1]).x + source(step)
        )
    constructed = builders.run_constructed_newton(
        problem, x0, budget, cfg.t_max
    )

    rows = []
    for method, xs in (
        ("exact_newton", exact),
        ("inexact_newton", inexact),
        ("constructed", constructed),
    ):
        for step, x in enumerate(xs):
            f_val, _, _ = logistic.loss_grad_hess(problem, x)
            g_sub = logistic.scaled_objective(cfg.mu, f_val) - g_star
            rows.append((method, step, budget.depth, f_val, g_sub))
    return _write_csv(
        cfg.out_dir, "logreg.csv",
        "method,step,layers_per_step,f,g_suboptimality", rows,
    )
