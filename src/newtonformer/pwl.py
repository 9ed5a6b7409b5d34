"""Piecewise-linear scalar approximators and exact ReLU product gadgets.

These are the function-approximation primitives that the transformer
weight builders compile into feed-forward ReLU layers: uniform-knot
interpolants for smooth curves, a four-ReLU gadget that multiplies a
bounded value by a +-1 label exactly, and a quarter-square product
approximator built from two squared-argument interpolants.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PwlApprox",
    "PwlGadget",
    "build_pwl",
    "eval_pwl",
    "signed_copy",
    "pwl_product",
]


@dataclass(frozen=True)
class PwlApprox:
    """A piecewise-linear function on [knots[0], knots[-1]].

    Outside the knot range the function clamps to the endpoint values,
    as its ReLU form in a feed-forward block does.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if knots.ndim != 1 or knots.size < 2:
            raise ValueError("need at least two knots")
        if values.shape != knots.shape:
            raise ValueError("knots and values must have matching length")
        if not np.all(np.diff(knots) > 0):
            raise ValueError("knots must be strictly increasing")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            raise ValueError("knots and values must be finite")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    @property
    def lo(self):
        return float(self.knots[0])

    @property
    def hi(self):
        return float(self.knots[-1])

    @property
    def pieces(self):
        return self.knots.size - 1


def build_pwl(f, lo, hi, pieces):
    """Interpolate scalar function *f* on *pieces* uniform segments,
    clamped to the end values outside [lo, hi].

    *f* is called once on the whole knot array, so it must be a numpy
    elementwise function; a scalar result broadcasts to every knot.
    The sup-norm error of the interpolant is at most
    ``L * (hi - lo) / pieces`` for L-Lipschitz f (and order
    ``(hi - lo)**2 / pieces**2`` for twice-differentiable f).
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if pieces < 1:
        raise ValueError(f"pieces must be >= 1, got {pieces}")
    knots = np.linspace(lo, hi, pieces + 1)
    values = np.broadcast_to(f(knots), knots.shape).astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError("target function is non-finite at a knot")
    return PwlApprox(knots, values)


@dataclass(frozen=True)
class PwlGadget:
    """A clamped :class:`PwlApprox` of one affine argument, as compiled
    into a feed-forward block: ``scale * approx(arg . h)`` is added to
    the stream's ``out_row``.

    ``arg`` holds the argument's coefficients over the stream rows, a
    label gate's shift and bias folded in through the gate and ones
    rows.  ``const`` is the input row of the neuron that carries
    ``values[0]``: the ones row, or a 0/1 ReLU of a gate's label.  In
    ReLU form the gadget is ``pieces + 2`` neurons starting at neuron
    ``start`` of its block.
    """

    approx: PwlApprox
    arg: np.ndarray
    const: np.ndarray
    scale: float
    out_row: int
    start: int

    @property
    def width(self):
        return self.approx.pieces + 2

    def to_dense(self, ones_row):
        """Input rows (width, dim) and output weights (width,) of the
        ReLU form: the constant neuron, then one neuron per knot whose
        weight is the slope change there.  Knot offsets go through
        *ones_row*, so the sum equals the gadget where that row is 1.
        """
        knots, values = self.approx.knots, self.approx.values
        slopes = np.diff(values) / np.diff(knots)
        rows = np.empty((self.width, self.arg.size))
        rows[0] = self.const
        rows[1:] = self.arg
        rows[1:, ones_row] -= knots
        weights = np.empty(self.width)
        weights[0] = self.scale * values[0]
        weights[1:-1] = self.scale * np.diff(slopes, prepend=0.0)
        weights[-1] = -self.scale * slopes[-1]
        return rows, weights


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


def signed_copy(x, y):
    """Multiply *x* by a label *y* in {-1.0, +1.0} using four ReLUs.

    Evaluates relu(x/2 + 2y) - relu(-x/2 + 2y) + relu(-x/2 - 2y)
    - relu(x/2 - 2y), which equals x*y up to one unit in the last
    place whenever |x| < 4.  The one-ulp slack comes from aligning
    x/2 against the offset 2 before the cancelling subtraction.
    """
    if y not in (-1.0, 1.0):
        raise ValueError(f"y must be -1.0 or +1.0, got {y!r}")
    h = 0.5 * x
    off = 2.0 * y
    return (
        max(h + off, 0.0)
        - max(-h + off, 0.0)
        + max(-h - off, 0.0)
        - max(h - off, 0.0)
    )


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


def pwl_product(x, y, range_x, range_y, pieces):
    """Approximate x*y by the quarter-square identity on PWL squares.

    Uses ((x+y)^2 - (x-y)^2) / 4 with both squares replaced by
    uniform-knot interpolants over the ranges implied by *range_x* and
    *range_y*.  The absolute error is bounded by half the squared knot
    spacing and therefore falls quadratically in *pieces*.
    """
    xlo, xhi = map(float, range_x)
    ylo, yhi = map(float, range_y)
    if not (xlo <= x <= xhi):
        raise ValueError(f"x={x} outside range [{xlo}, {xhi}]")
    if not (ylo <= y <= yhi):
        raise ValueError(f"y={y} outside range [{ylo}, {yhi}]")
    sq_sum, sq_dif = _square_tables(range_x, range_y, pieces)
    return 0.25 * (eval_pwl(sq_sum, x + y) - eval_pwl(sq_dif, x - y))
