"""The dense attention formula, the reference for the band heads.

``attention_forward`` reads only the stream rows each head's bands
name and groups the product as ((W_V h) (W_K h).T) (W_Q h).  The
tests compare it with the formula below, which multiplies the heads'
dense projections and forms the n x n score matrix (W_K h).T (W_Q h)
first.  Both take one stream ``(dim, n)`` or a stack ``(..., dim, n)``.
"""

import numpy as np

U = 2.0**-53


def dense_attention_forward(layer, h, dtype=np.float64):
    """h + sum over heads of (W_V h) ((W_K h).T (W_Q h)), in *dtype*."""
    h = np.asarray(h, dtype=dtype)
    out = h.copy()
    for head in layer.heads:
        w_v, w_k, w_q = (head.w_v.astype(dtype), head.w_k.astype(dtype),
                         head.w_q.astype(dtype))
        out += (w_v @ h) @ ((w_k @ h).mT @ (w_q @ h))
    return out


def attention_error_bound(layer, h, ref):
    """Elementwise bound on |attention_forward(layer, h) - ref|:
    4 (dim + n) u sum_heads (|W_V| |h|) (|W_K| |h|).T (|W_Q| |h|)
    + u |ref|, with u = 2**-53 and *ref* the exact result."""
    dim, n = h.shape[-2:]
    abs_h = np.abs(h)
    reach = np.zeros(h.shape)
    for head in layer.heads:
        reach += (np.abs(head.w_v) @ abs_h) @ (
            (np.abs(head.w_k) @ abs_h).mT @ (np.abs(head.w_q) @ abs_h)
        )
    return 4 * (dim + n) * U * reach + U * np.abs(ref)
