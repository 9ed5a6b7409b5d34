"""The per-matrix power iteration, the reference for stacked estimates.

``spectral_norm_est`` iterates a whole stack of matrices at once, with
column-vector iterates and norms taken by matmul.  The tests compare
each slice of its result with the loop below, which iterates one 2-D
matrix with 1-D vectors and ``np.linalg.norm``.  Both draw their start
vectors from ``linalg._start_vector``, so a test that patches it
patches both.
"""

import numpy as np

from newtonformer import linalg


def per_matrix_spectral_norm_est(a, iters=200):
    """Power-iteration estimate of ||a||_2 for one 2-D matrix."""
    a = np.asarray(a, dtype=np.float64)
    if not np.any(a):
        return 0.0
    v = linalg._start_vector(a.shape[1], linalg.POWER_SEED)
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = a.T @ (a @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            v = linalg._start_vector(a.shape[1], linalg.POWER_SEED + 1)
            v /= np.linalg.norm(v)
            continue
        v = w / nw
    return float(np.linalg.norm(a @ v))
