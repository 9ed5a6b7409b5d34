"""Synthetic problem generators with controlled condition number.

Every problem draws from its own ``numpy.random.Generator``, seeded from
the experiment config, in a fixed order, so every dataset is
reproducible bit for bit.  The generators share one stacked path: the
QR, Cholesky and matrix products run once on the stack of problems, each
slice bit-identical to the same product on that problem alone.
"""

import numpy as np

from .linalg import _count
from .logistic import LogisticProblem

__all__ = ["make_covariance", "gen_linreg_data", "gen_logreg_data"]


def _gaussian(rngs, shape):
    """One standard normal draw of *shape* from each generator, stacked."""
    return np.stack([rng.standard_normal(shape) for rng in rngs])


def _covariances(d, kappa, rngs):
    """One covariance per generator in *rngs*, as a ``(len(rngs), d, d)``
    stack; see :func:`make_covariance`."""
    d = _count(d, "d", 1)
    if not 1.0 <= kappa < np.inf:
        raise ValueError(f"kappa must be finite and >= 1, got {kappa}")
    if d == 1 and kappa != 1.0:
        raise ValueError("a 1x1 covariance cannot have kappa > 1")
    eigs = np.empty((len(rngs), d))
    for eig, rng in zip(eigs, rngs):
        lam_max = rng.uniform(1.0, 100.0)
        lam_min = lam_max / kappa
        eig[0] = lam_max
        if d > 1:
            eig[d - 1] = lam_min
            eig[1:d - 1] = rng.uniform(lam_min, lam_max, size=max(0, d - 2))
    q, r = np.linalg.qr(_gaussian(rngs, (d, d)))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    sigma = (q * eigs[:, None, :]) @ q.mT
    return (sigma + sigma.mT) / 2.0


def make_covariance(d, kappa, rng):
    """SPD covariance with condition number exactly *kappa*.

    The largest eigenvalue is uniform on [1, 100], the smallest is
    pinned to lambda_max/kappa, interior eigenvalues are uniform in
    between, and the eigenbasis is a Haar-ish orthogonal factor from a
    Gaussian QR decomposition.  *d* must be a count >= 1.
    """
    return _covariances(d, kappa, [rng])[0]


def _draw_rows(cfg, rngs):
    """Each generator's (n, d) rows with the constructed covariance, and
    the covariance's Cholesky factor, as stacks."""
    sigma = _covariances(cfg.d, cfg.kappa, rngs)
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"kappa={cfg.kappa:g} is too large: the covariance is not "
            f"positive definite in float64"
        ) from exc
    return _gaussian(rngs, (cfg.n, cfg.d)) @ chol.mT, chol


def gen_linreg_data(cfg):
    """Draw (A, y, a_test, w_star) for the run's ``cfg.batch`` prompts.

    Prompt i draws from ``default_rng(cfg.seed + i)``.  Rows of A and
    the query point are zero-mean Gaussian with the constructed
    covariance; y = A w_star + noise_std * gaussian noise.  Each of the
    four is a stack with the prompt index first: ``(batch, n, d)``,
    ``(batch, n)``, ``(batch, d)`` and ``(batch, d)``.  A noise_std
    large enough to take y outside float64's range raises
    ``ValueError``.
    """
    rngs = [np.random.default_rng(cfg.seed + i) for i in range(cfg.batch)]
    a, chol = _draw_rows(cfg, rngs)
    w_star = _gaussian(rngs, cfg.d)
    with np.errstate(over="ignore"):
        y = ((a @ w_star[:, :, None])[:, :, 0]
             + cfg.noise_std * _gaussian(rngs, cfg.n))
    if not np.isfinite(y).all():
        raise ValueError(
            f"noise_std={cfg.noise_std:g} overflows float64: the labels "
            "A w_star + noise_std * noise exceed its range"
        )
    a_test = (chol @ _gaussian(rngs, (cfg.d, 1)))[:, :, 0]
    return a, y, a_test, w_star


def gen_logreg_data(cfg):
    """Draw a LogisticProblem plus its separator w_star.

    Rows are drawn as for one prompt of :func:`gen_linreg_data`, then
    every row is divided by the maximum row norm so the largest row has
    norm exactly one; labels are sign(a_i . w_star) with exact ties sent
    to +1.
    """
    rng = np.random.default_rng(cfg.seed)
    a = _draw_rows(cfg, [rng])[0][0]
    w_star = rng.standard_normal(cfg.d)
    scale = np.max(np.linalg.norm(a, axis=1))
    if scale > 0.0:
        a = a / scale
    labels = np.sign(a @ w_star)
    labels[labels == 0.0] = 1.0
    return LogisticProblem(a, labels, cfg.mu), w_star
