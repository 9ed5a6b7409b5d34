"""Piecewise-linear scalar approximators and their feed-forward gadgets.

These are the function-approximation primitives that the transformer
weight builders compile into feed-forward ReLU layers, which hold
nothing else: uniform-knot interpolants for smooth curves, and the
pair of squared-argument interpolants from which two gadgets form a
quarter-square product.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import _count, _finite

__all__ = [
    "PwlApprox",
    "PwlGadget",
    "build_pwl",
    "eval_pwl",
]


@dataclass(frozen=True, eq=False)
class PwlApprox:
    """A piecewise-linear function on [knots[0], knots[-1]].

    Outside the knot range the function clamps to the endpoint values,
    as its ReLU form in a feed-forward block does.  *knots* and
    *values* go through ``linalg._finite`` and are held writeable: a
    read-only input (a broadcast view, say) is copied once here, since
    ``np.interp`` copies a read-only table on every call.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = _writeable(_finite(self.knots, "knots"))
        values = _writeable(_finite(self.values, "values"))
        if knots.ndim != 1 or knots.size < 2:
            raise ValueError("need at least two knots")
        if values.shape != knots.shape:
            raise ValueError("knots and values must have matching length")
        if not np.all(knots[1:] > knots[:-1]):
            raise ValueError("knots must be strictly increasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    @property
    def pieces(self):
        return self.knots.size - 1


def _writeable(a):
    return a if a.flags.writeable else a.copy()


def build_pwl(f, lo, hi, pieces):
    """Interpolate scalar function *f* on *pieces* uniform segments,
    clamped to the end values outside [lo, hi].

    *f* is called once on the whole knot array, so it must be a numpy
    elementwise function; a scalar result broadcasts to every knot.
    The sup-norm error of the interpolant is at most
    ``L * (hi - lo) / pieces`` for L-Lipschitz f (and order
    ``(hi - lo)**2 / pieces**2`` for twice-differentiable f).  A
    non-finite *lo* or *hi*, or a *pieces* that is not a count >= 1,
    raises ``ValueError``; so does a complex or non-finite value of *f*,
    which :class:`PwlApprox`'s guard names as "values".  A result of
    the knots' shape reaches :class:`PwlApprox` as it is, so a float64
    C-contiguous writeable one becomes the table with no copy; only a
    scalar or shorter result is broadcast, as a read-only view that
    :class:`PwlApprox` copies once into the writeable table
    ``np.interp`` reads in place.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"lo and hi must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    pieces = _count(pieces, "pieces", 1)
    knots = np.linspace(lo, hi, pieces + 1)
    values = f(knots)
    if np.shape(values) != knots.shape:
        values = np.broadcast_to(values, knots.shape)
    return PwlApprox(knots, values)


@dataclass(frozen=True, eq=False)
class PwlGadget:
    """A clamped :class:`PwlApprox` of one affine argument, as compiled
    into a feed-forward block: ``scale * approx(arg . h)`` is added to
    the stream's ``out_row``.

    ``arg`` holds the argument as the ``(row, coeff)`` pairs a builder
    writes, for example ``((acc_row, 1.0), (data_j, -1.0))``; the
    :class:`~.transformer.Ffn` that holds the gadget admits them.  In
    ReLU form the gadget is ``pieces + 2`` neurons, placed in its block
    after those of the gadgets before it; the first reads the ones row
    and carries ``values[0]``, and one per knot reads ``arg . h - knot``
    and carries the slope change there.
    """

    approx: PwlApprox
    arg: tuple
    scale: float
    out_row: int

    @property
    def width(self):
        return self.approx.pieces + 2


def eval_pwl(p, x):
    """Evaluate a :class:`PwlApprox` at scalar or array *x*.

    Exactly reproduces the stored value at each knot and clamps to the
    end values outside the knot range.  Scalars come back as float,
    arrays elementwise.
    """
    out = np.interp(np.asarray(x, dtype=np.float64), p.knots, p.values)
    if np.ndim(x) == 0:
        return float(out)
    return out


def _square_tables(range_x, range_y, pieces):
    """PWL squares ``(sq_sum, sq_dif)`` of x + y and x - y over the
    ranges those take for x in *range_x* and y in *range_y*.

    When the two ranges coincide, one table serves as both.
    """
    xlo, xhi = map(float, range_x)
    ylo, yhi = map(float, range_y)
    sum_range = (xlo + ylo, xhi + yhi)
    dif_range = (xlo - yhi, xhi - ylo)
    sq_sum = build_pwl(lambda t: t * t, *sum_range, pieces)
    if dif_range == sum_range:
        return sq_sum, sq_sum
    return sq_sum, build_pwl(lambda t: t * t, *dif_range, pieces)

