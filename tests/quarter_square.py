"""The scalar quarter-square product that the product gadgets compile."""

from newtonformer.pwl import _square_tables, eval_pwl


def pwl_product(x, y, range_x, range_y, pieces):
    """Approximate x*y by the quarter-square identity on PWL squares.

    Uses ((x+y)^2 - (x-y)^2) / 4 with both squares replaced by
    uniform-knot interpolants over the ranges implied by *range_x* and
    *range_y*, the tables ``builders._product``'s gadgets hold.  The
    absolute error is bounded by half the squared knot spacing and
    therefore falls quadratically in *pieces*.
    """
    xlo, xhi = map(float, range_x)
    ylo, yhi = map(float, range_y)
    if not (xlo <= x <= xhi):
        raise ValueError(f"x={x} outside range [{xlo}, {xhi}]")
    if not (ylo <= y <= yhi):
        raise ValueError(f"y={y} outside range [{ylo}, {yhi}]")
    sq_sum, sq_dif = _square_tables(range_x, range_y, pieces)
    return 0.25 * (eval_pwl(sq_sum, x + y) - eval_pwl(sq_dif, x - y))
