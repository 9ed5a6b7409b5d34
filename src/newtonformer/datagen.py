"""Synthetic problem generators with controlled condition number.

All draws go through one ``numpy.random.Generator`` seeded from the
experiment config, so every dataset is reproducible bit for bit.
"""

import numpy as np

from .logistic import LogisticProblem

__all__ = ["make_covariance", "gen_linreg_data", "gen_logreg_data"]


def make_covariance(d, kappa, rng):
    """SPD covariance with condition number exactly *kappa*.

    The largest eigenvalue is uniform on [1, 100], the smallest is
    pinned to lambda_max/kappa, interior eigenvalues are uniform in
    between, and the eigenbasis is a Haar-ish orthogonal factor from a
    Gaussian QR decomposition.  *d* must be integral; an integral
    float is taken as an int.
    """
    if not (isinstance(d, (int, np.integer)) or float(d).is_integer()):
        raise ValueError(f"d must be an integer, got {d}")
    d = int(d)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not 1.0 <= kappa < np.inf:
        raise ValueError(f"kappa must be finite and >= 1, got {kappa}")
    if d == 1 and kappa != 1.0:
        raise ValueError("a 1x1 covariance cannot have kappa > 1")
    lam_max = rng.uniform(1.0, 100.0)
    lam_min = lam_max / kappa
    eigs = np.empty(d)
    eigs[0] = lam_max
    if d > 1:
        eigs[d - 1] = lam_min
        eigs[1:d - 1] = rng.uniform(lam_min, lam_max, size=max(0, d - 2))
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    sigma = (q * eigs) @ q.T
    return (sigma + sigma.T) / 2.0


def _draw_rows(cfg, rng):
    sigma = make_covariance(cfg.d, cfg.kappa, rng)
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"kappa={cfg.kappa:g} is too large: the covariance is not "
            f"positive definite in float64"
        ) from exc
    a = rng.standard_normal((cfg.n, cfg.d)) @ chol.T
    return a, chol


def gen_linreg_data(cfg):
    """Draw (A, y, a_test, w_star) for the least-squares task.

    Rows of A and the query point are zero-mean Gaussian with the
    constructed covariance; y = A w_star + noise_std * gaussian noise.
    """
    rng = np.random.default_rng(cfg.seed)
    a, chol = _draw_rows(cfg, rng)
    w_star = rng.standard_normal(cfg.d)
    y = a @ w_star + cfg.noise_std * rng.standard_normal(cfg.n)
    a_test = chol @ rng.standard_normal(cfg.d)
    return a, y, a_test, w_star


def gen_logreg_data(cfg):
    """Draw a LogisticProblem plus its separator w_star.

    Rows are drawn as in :func:`gen_linreg_data`, then every row is
    divided by the maximum row norm so the largest row has norm exactly
    one; labels are sign(a_i . w_star) with exact ties sent to +1.
    """
    rng = np.random.default_rng(cfg.seed)
    a, _ = _draw_rows(cfg, rng)
    w_star = rng.standard_normal(cfg.d)
    scale = np.max(np.linalg.norm(a, axis=1))
    if scale > 0.0:
        a = a / scale
    labels = np.sign(a @ w_star)
    labels[labels == 0.0] = 1.0
    return LogisticProblem(a, labels, cfg.mu), w_star
