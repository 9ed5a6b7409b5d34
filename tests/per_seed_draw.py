"""The per-seed least-squares draw, the reference for stacked prompts.

``gen_linreg_data`` draws a run's prompts as stacks: each prompt's
numbers come from its own generator, and the QR, Cholesky and matrix
products run once on the whole stack.  The tests compare each slice with
the function below, which draws one prompt from one seed with 2-D
products throughout.
"""

import numpy as np


def per_seed_linreg_data(cfg, seed):
    """(A, y, a_test, w_star) of the prompt drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    d = cfg.d
    lam_max = rng.uniform(1.0, 100.0)
    lam_min = lam_max / cfg.kappa
    eigs = np.empty(d)
    eigs[0] = lam_max
    if d > 1:
        eigs[d - 1] = lam_min
        eigs[1:d - 1] = rng.uniform(lam_min, lam_max, size=max(0, d - 2))
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    sigma = (q * eigs) @ q.T
    chol = np.linalg.cholesky((sigma + sigma.T) / 2.0)
    a = rng.standard_normal((cfg.n, d)) @ chol.T
    w_star = rng.standard_normal(d)
    y = a @ w_star + cfg.noise_std * rng.standard_normal(cfg.n)
    a_test = chol @ rng.standard_normal(d)
    return a, y, a_test, w_star
