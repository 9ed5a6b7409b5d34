"""Newton-Schulz step counts from the alpha' I start of the linreg stack."""

import math

import numpy as np

from newtonformer.inversion import trace_initial_scale


def alpha_prime_steps(b, eps):
    """Steps k after which ||I - X_k B||_2 <= eps for SPD *b*, from
    X_0 = alpha' I with alpha' = trace_initial_scale(tr B): the
    residual I - X_k B has spectral radius r0**(2**k), where
    r0 = max |1 - alpha' lambda| over B's eigenvalues."""
    lam = np.linalg.eigvalsh(b)
    alpha = trace_initial_scale(np.trace(b))
    r0 = max(abs(1.0 - alpha * lam[0]), abs(1.0 - alpha * lam[-1]))
    return max(0, math.ceil(math.log2(math.log(eps) / math.log(r0))))
