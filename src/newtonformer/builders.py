"""Mechanical construction of transformer weights for three tasks:
matrix inversion, in-context least squares, and one damped Newton step
on the regularized logistic loss.

Every builder returns a :class:`~.transformer.Looped` stack plus the
:class:`~.transformer.PromptLayout` of the prompt rows it expects.
No builder reads a prompt's data: the weights depend
on the task's d, its regularization and, for the logistic step, its
width budget, and the data reach them only through the prompt.  Each
stack declares its row bands once, in its layout function; the
builder, the prompt maker and the reader take every row from that
layout, and the layers' dimension is its ``n_rows``.  Heads are
written as bands: one value entry adding c I times one band of prompt
rows to another, and a plain row band each for the key and the query,
so the selector structure stays auditable and every scale and sign
sits on the value entry.  A layer that adds to several bands holds one
head per band, and its heads' updates land in head order.
Feed-forward blocks hold only scalar piecewise-linear gadgets, each
approximating a function a stack needs (sigma', the products of the
Hessian, the damped step size, the reciprocal of tr B); a row a block
reads or writes is cleared by a head, never by a ReLU neuron.

In every prompt ``identity`` is the only band that holds a constant
I_d, in its leading d columns, and every scratch band (``x_slot``,
``b_slot``, ``accumulator``, ``prob``, ``margins`` and ``work``) is
zero.  The inversion and logistic bodies leave them zero after every
pass; the linreg stack carries its state, X, B and w, in ``x_slot``,
``b_slot`` and the accumulator from pass to pass.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BudgetError
from .inversion import TRACE_RECIPROCAL, spd_initial_scale
from .linalg import _count, _finite
from .logistic import damping, iterate_norm_bound, sigmoid
from .pwl import PwlGadget, _square_tables, build_pwl
from .transformer import (
    AttentionHead,
    Ffn,
    Looped,
    PromptLayout,
    TransformerLayer,
    _check_row,
)

__all__ = [
    "BudgetReport",
    "width_depth_budget",
    "build_inversion_block",
    "make_inversion_prompt",
    "read_inversion_iterate",
    "build_linreg_transformer",
    "make_linreg_prompt",
    "read_linreg_prediction",
    "build_logreg_newton_step",
    "make_logistic_prompt",
    "read_logistic_iterate",
    "run_constructed_newton",
]

SIGMOID_RANGE = 10.0

_REF_EPS = 1e-2
_REF_MU = 0.1
_REF_D = 5


@dataclass(frozen=True)
class BudgetReport:
    """Width and depth allocation for the constructed logistic step.

    ``widths`` maps each scalar approximator to its piece count
    (u1_pieces, u2_pieces, u3_pieces, eps4_pieces) plus the inversion
    step count ``k``; ``depth`` = 6 + k, the layers of the constructed
    step's body, is derived from it, and ``kappa_f``, ``norm_bound`` and
    ``z_max`` from mu alone.  The stack has no prefix, so t steps take
    ``len(prefix) + t * len(body)`` = t * depth layers.
    """

    target_eps: float
    mu: float
    d: int
    widths: dict

    @property
    def depth(self):
        return 6 + self.widths["k"]

    @property
    def kappa_f(self):
        return (1.0 + self.mu) / self.mu

    @property
    def norm_bound(self):
        return iterate_norm_bound(self.mu)

    @property
    def z_max(self):
        mu, c = self.mu, self.norm_bound
        return ((1.0 + mu * c) / (2.0 * math.sqrt(mu))) ** 2

    def to_text(self):
        import json  # only the budget command prints; the runs need no json

        derived = ("depth", "kappa_f", "norm_bound", "z_max")
        payload = {**asdict(self), **{k: getattr(self, k) for k in derived}}
        return json.dumps(payload, indent=2, sort_keys=True)


def width_depth_budget(eps, mu, d, piece_ceiling=5_000_000):
    """Allocate approximator widths and inversion steps for target *eps*.

    The four piece counts are power laws fitted at one reference point
    (eps=1e-2, mu=0.1, d=5), where the constructed step lands well
    inside its tolerance; they are not derived from each table's error,
    so away from that point they can miss eps.  The stack seeds
    Newton-Schulz at alpha*I, alpha = spd_initial_scale(1+mu), for a
    Hessian B with spectrum in [mu, 1+mu], so I - alpha B^T has spectral
    radius r0 = max(1 - alpha mu, alpha (1+mu) - 1).  Each step squares
    the residual I - X B^T, so ||I - X_k B^T||_2 <= r0^(2^k), which
    meets 1/inner for inner = (1+mu)^3/(eps^2 mu^2) at
    k = ceil(log2(ln(inner) / -ln r0)), floored at 1.

    Any piece count above *piece_ceiling*, or too large for a float,
    raises ``BudgetError`` naming the overflowing family.  A d that is
    not a count >= 1, or a *piece_ceiling* that is NaN or below 1, raises
    ``ValueError``.  The inversion count needs its inner ratio above 1,
    i.e. eps < (1+mu)^1.5/mu; a larger eps raises ``ValueError``.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be finite and positive, got {mu}")
    d = _count(d, "d", 1)
    if not piece_ceiling >= 1:
        raise ValueError(f"piece_ceiling must be >= 1, got {piece_ceiling}")

    c_here = iterate_norm_bound(mu)
    c_ref = iterate_norm_bound(_REF_MU)
    ratio = (1.0 + mu * c_here) / (1.0 + _REF_MU * c_ref)
    re = _REF_EPS / eps
    rm = _REF_MU / mu

    laws = {
        "u1_pieces": lambda: 2000.0 * re**2 * rm**5 * ratio**4,
        "u2_pieces": lambda: 2000.0 * re**4 * rm**10 * ratio**8 * d / _REF_D,
        "u3_pieces": lambda: 2000.0 * re**2 * rm**4 * ratio**3,
        "eps4_pieces": lambda: 4000.0 * re * rm * ratio,
    }
    widths = {}
    for name, law in laws.items():
        try:
            pieces = math.ceil(law())
        except OverflowError:  # past every float, so past any ceiling
            pieces = math.inf
        if pieces > piece_ceiling:
            raise BudgetError(
                f"{name} = {pieces} exceeds the ceiling {piece_ceiling} "
                f"at eps={eps}, mu={mu}, d={d}",
                bound=name,
            )
        widths[name] = pieces

    try:
        inner = (1.0 + mu) ** 3 / (eps**2 * mu**2)
    except OverflowError:  # eps**2 past every float, so inner is below 1
        inner = 0.0
    if not inner > 1.0:
        raise ValueError(
            f"eps={eps} is too large for mu={mu}: the inversion count "
            f"needs eps < (1+mu)^1.5/mu = {(1.0 + mu) ** 1.5 / mu:.6g}"
        )
    alpha = spd_initial_scale(1.0 + mu)
    low, high = alpha * mu, alpha * (1.0 + mu) - 1.0
    # -ln r0; log1p keeps 1 - alpha*mu from rounding to 1 at tiny mu
    rate = -math.log(high) if 1.0 - low <= high else -math.log1p(-low)
    widths["k"] = max(1, math.ceil(math.log2(math.log(inner) / rate)))
    return BudgetReport(float(eps), float(mu), d, widths)


def _gadget(dim, approx, coeffs, out_row, scale=1.0):
    """A gadget adding scale * approx(arg . h) to *out_row*, its
    argument given as ``{row: coeff}``.  A row outside ``0 .. dim - 1``
    raises ``ValueError`` naming it."""
    arg = np.zeros(dim)
    for row, coeff in coeffs.items():
        _check_row(dim, "ffn arg row", row)
        arg[row] += coeff
    return PwlGadget(approx, arg, float(scale), out_row)


def _product(dim, x_row, y_row, out_row, tables):
    """The two gadgets adding x * y to *out_row* by the quarter-square
    decomposition.

    *tables* is the ``(sq_sum, sq_dif)`` pair of PWL squares that
    :func:`~.pwl.pwl_product` builds for the factors' ranges, so the
    gadgets compute the same approximation.
    """
    sq_sum, sq_dif = tables
    return [_gadget(dim, sq_sum, {x_row: 1.0, y_row: 1.0}, out_row, 0.25),
            _gadget(dim, sq_dif, {x_row: 1.0, y_row: -1.0}, out_row, -0.25)]


def _clear(dim, row, e1_row):
    """The head adding exactly -row: (-e1^T e1) times the row, for the
    first identity row *e1_row* holding e1^T."""
    return AttentionHead(dim, (row, e1_row, -1.0), key=e1_row, query=row)


def _newton_heads(dim, x_rows, m_rows, ident_rows):
    """The two heads taking X to X(2I - M^T X): Newton-Schulz for M^T.

    Need I_d in the leading columns of the identity band and zeros past
    column d in it and in X; write no band but X.
    """
    return (
        AttentionHead(dim, (x_rows, x_rows, -1.0), key=m_rows, query=x_rows),
        AttentionHead(dim, (x_rows, x_rows, 1.0),
                      key=ident_rows, query=ident_rows),
    )


# ---------------------------------------------------------------------------
# matrix inversion block


def _inversion_layout(d):
    return PromptLayout(
        (("iterate", d), ("data", d), ("work", d), ("identity", d))
    )


def make_inversion_prompt(a, x0):
    """Stack (X0; A; 0; I) for the two-layer inversion block.  *a* and
    *x0* go through ``linalg._finite`` and must be square, of one shape."""
    a = _finite(a, "a")
    x0 = _finite(x0, "x0")
    if not (a.ndim == 2 and a.shape[0] == a.shape[1]
            and x0.shape == a.shape):
        raise ValueError("a and x0 must be square with matching shape")
    d = a.shape[0]
    layout = _inversion_layout(d)
    h = np.zeros((layout.n_rows, d))
    h[layout.rows_of("iterate")] = x0
    h[layout.rows_of("data")] = a
    h[layout.rows_of("identity")] = np.eye(d)
    return h


def read_inversion_iterate(h, layout):
    """The iterate block, as a new array: a later in-place pass on *h*
    leaves it as read."""
    return h[layout.rows_of("iterate")].copy()


def build_inversion_block(d):
    """Two attention-only layers advancing X by one inverse iteration.

    On a prompt (X; A; 0; I) the first layer writes AX into the work
    block and the second forms X(2I - AX) in the top block while
    clearing the work block, so they are the body of a stack with no
    prefix, one iteration per pass.  A need not be symmetric, and one
    layer, X(2I - A^T X), would invert A^T instead.
    A d that is not a count >= 1 raises ``ValueError``.
    """
    d = _count(d, "d", 1)
    layout = _inversion_layout(d)
    dim = layout.n_rows
    x_rows, a_rows, work, ident = map(
        layout.rows_of, ("iterate", "data", "work", "identity")
    )
    first = TransformerLayer(
        heads=(
            AttentionHead(dim, (work, a_rows, 1.0), key=ident, query=x_rows),
        ),
    )
    second = TransformerLayer(
        heads=(
            AttentionHead(dim, (x_rows, x_rows, -1.0),
                          key=ident, query=work),
            AttentionHead(dim, (x_rows, x_rows, 1.0), key=ident, query=ident),
            AttentionHead(dim, (work, work, -1.0), key=ident, query=ident),
        ),
    )
    return Looped((), (first, second)), layout


# ---------------------------------------------------------------------------
# in-context least squares


def _linreg_layout(d):
    return PromptLayout(
        (
            ("x_slot", d),
            ("b_slot", d),
            ("identity", d),
            ("data", d),
            ("test_point", 1),
            ("labels", 1),
            ("output", 1),
            ("accumulator", 1),
            ("ones", 1),
        )
    )


def make_linreg_prompt(a, y, a_test):
    """Prompt (0; 0; I; A^T; a_test^T; y^T; 0; 0; 1) with a d-wide
    identity and a ones row.

    A stack of designs ``(..., n, d)`` with labels ``(..., n)`` and test
    points ``(..., d)`` gives the stack of their prompts
    ``(..., dim, n)``, each slice equal to its own prompt.  Each input
    goes through ``linalg._finite``; wrong shapes raise ``ValueError``.
    """
    a = _finite(a, "a")
    y = _finite(y, "y")
    a_test = _finite(a_test, "a_test")
    if a.ndim < 2:
        raise ValueError(f"a must be at least 2-D, got shape {a.shape}")
    *lead, n, d = a.shape
    if n < d:
        raise ValueError(f"need n >= d, got n={n}, d={d}")
    if y.shape != (*lead, n) or a_test.shape != (*lead, d):
        raise ValueError("y must be length n and a_test length d")
    layout = _linreg_layout(d)
    h = np.zeros((*lead, layout.n_rows, n))
    h[..., layout.rows_of("identity"), :d] = np.eye(d)
    h[..., layout.rows_of("data"), :] = a.mT
    h[..., layout.rows_of("test_point").start, :d] = a_test
    h[..., layout.rows_of("labels").start, :] = y
    h[..., layout.rows_of("ones").start, :] = 1.0
    return h


def read_linreg_prediction(h, layout):
    """The prediction in the output row's first column: a float for one
    stream, a new array of shape ``...`` for a stack ``(..., dim, n)``,
    which keeps none of the stack alive."""
    pred = h[..., layout.rows_of("output").start, 0]
    return float(pred) if np.ndim(h) == 2 else pred.copy()


def build_linreg_transformer(d, ridge_mu=0.0):
    """Attention pipeline predicting a_test^T (A^T A + ridge_mu I)^-1 A^T y
    in context: its weights depend on d and ridge_mu alone, never on a
    prompt, so one stack runs a whole stack of prompts to any depth.

    The first init layer writes A^T A into b_slot and sums tr A^T A
    into the accumulator row, from d one-row heads (value, key: data
    row j; query: the ones row).  For ridge_mu > 0 it holds two more
    heads, ridge_mu I into b_slot and ridge_mu*d into the accumulator,
    so that b_slot holds B = A^T A + ridge_mu I and the accumulator
    tr B; at ridge_mu = 0 it has neither.  Its ffn, one reciprocal
    gadget with knots at consecutive powers of two
    (``inversion.TRACE_RECIPROCAL``), writes alpha' = recip(tr B) into
    the output row.  The second writes X_0 = alpha' I into x_slot with
    d one-row heads (value: the output row; key: the e1 row; query:
    identity row j) and clears the accumulator and output rows.
    alpha' lambda_max(B) <= 1.125, so the residual I - X B starts with
    spectral radius below 1.

    The rest of the stack is one weight-tied layer, ``step``.  Its six
    heads all read the pass's input:
    two Newton-Schulz heads take X to X(2I - BX), which squares the
    residual (one layer suffices because B is symmetric); a clear head
    and a contract head (value: labels; key: data; query: x_slot)
    overwrite the accumulator with w = y^T A X; a clear head and a
    readout head (value: the accumulator; key: test_point; query: e1)
    overwrite the output row with w . a_test in its first column, from
    the w of the pass before.  The prediction thus lags X by two
    passes of the step, which the prefix ``(gram, start, step, step)``
    fills; the body is ``(step,)``.  After pass t of the body the
    output row holds the depth-t prediction a_test^T X_t A^T y, the
    output of the ``len(prefix) + t * len(body)`` = 4 + t layers of
    ``prefix + body * t``.  The step overwrites the accumulator and
    output rows, whatever they held, and the Newton heads read neither,
    so the body runs once per depth, in place.

    The weights do not depend on n; :func:`make_linreg_prompt` checks
    n >= d.  A trace outside the gadget's knot span is clamped to the
    span's end; ``inversion.trace_initial_scale`` names such a trace.
    A d that is not a count >= 1, a *ridge_mu* that is not finite and
    >= 0, and an overflowing ridge_mu * d raise ``ValueError``.
    """
    d = _count(d, "d", 1)
    if not 0.0 <= ridge_mu < math.inf:
        raise ValueError(f"ridge_mu must be finite and >= 0, got {ridge_mu}")
    layout = _linreg_layout(d)
    ridge_mu = float(ridge_mu)
    if not ridge_mu * d < math.inf:
        raise ValueError(
            f"ridge_mu * d must be finite, got ridge_mu={ridge_mu} and d={d}"
        )
    dim = layout.n_rows
    x_slot, b_slot, ident, data = map(
        layout.rows_of, ("x_slot", "b_slot", "identity", "data")
    )
    test_row, label_row, out_row, acc_row, ones_row = (
        layout.rows_of(name).start
        for name in ("test_point", "labels", "output", "accumulator", "ones")
    )
    e1_row = ident.start  # first identity row holds e1^T

    # A^T A and then mu I land on b_slot's zeros, so each entry of B
    # rounds once, at any scale of A; tr B goes into every column of the
    # accumulator, and the ffn reads it into alpha' in the output row
    gram_heads = [
        AttentionHead(dim, (b_slot, data, 1.0), key=data, query=ident),
        *(AttentionHead(dim, (acc_row, data.start + j, 1.0),
                        key=data.start + j, query=ones_row)
          for j in range(d)),
    ]
    if ridge_mu > 0.0:
        gram_heads += [
            AttentionHead(dim, (b_slot, ident, ridge_mu),
                          key=ident, query=ident),
            AttentionHead(dim, (acc_row, e1_row, ridge_mu * d),
                          key=e1_row, query=ones_row),
        ]
    gram = TransformerLayer(
        heads=gram_heads,
        ffn=Ffn(dim, [_gadget(dim, TRACE_RECIPROCAL, {acc_row: 1.0},
                              out_row)], ones_row),
    )
    # alpha' e_j^T lands on x_slot's zeros in each row j, so
    # x_slot <- alpha' I exactly; then both scratch rows clear
    start = TransformerLayer(
        heads=(
            *(AttentionHead(dim, (x_slot.start + j, out_row, 1.0),
                            key=e1_row, query=ident.start + j)
              for j in range(d)),
            _clear(dim, acc_row, e1_row),
            _clear(dim, out_row, e1_row),
        ),
    )

    # every head reads the pass's input: the accumulator takes w of
    # this X and the output row w . a_test of the w the pass before
    # left, so the output lags X by two passes
    step = TransformerLayer(
        heads=(
            *_newton_heads(dim, x_slot, b_slot, ident),
            _clear(dim, acc_row, e1_row),
            AttentionHead(dim, (acc_row, label_row, 1.0),
                          key=data, query=x_slot),
            _clear(dim, out_row, e1_row),
            AttentionHead(dim, (out_row, acc_row, 1.0),
                          key=test_row, query=e1_row),
        ),
    )
    return Looped((gram, start, step, step), (step,)), layout


# ---------------------------------------------------------------------------
# one damped Newton step on the logistic loss


def _logistic_layout(d):
    return PromptLayout(
        (
            ("x_slot", d),
            ("b_slot", d),
            ("identity", d),
            ("data", d),
            ("iterate", d),
            ("mean_picker", 1),
            ("accumulator", 1),
            ("prob", 1),
            ("margins", 1),
            ("ones", 1),
        )
    )


def make_logistic_prompt(problem, x):
    """Prompt carrying the label-signed features (y_i a_i)^T in its data
    band, the current iterate broadcast over all columns, a first-column
    mean picker e1^T/n, and a ones row.

    The loss reads example i only through y_i a_i, so the prompt has no
    labels band; (y_i a_i)(y_i a_i)^T = a_i a_i^T leaves the Hessian as
    it is.  *x* goes through ``linalg._finite``, and one of the wrong
    shape raises ``ValueError`` naming it.
    """
    d, n = problem.dim, problem.n_samples
    if n < d:
        raise ValueError(f"need n >= d, got n={n}, d={d}")
    x = _finite(x, "x")
    if x.shape != (d,):
        raise ValueError(f"x must have shape ({d},), got {x.shape}")
    layout = _logistic_layout(d)
    h = np.zeros((layout.n_rows, n))
    h[layout.rows_of("identity"), :d] = np.eye(d)
    h[layout.rows_of("data")] = (problem.features * problem.labels[:, None]).T
    h[layout.rows_of("iterate")] = x[:, None]
    h[layout.rows_of("mean_picker"), 0] = 1.0 / n
    h[layout.rows_of("ones")] = 1.0
    return h


def read_logistic_iterate(h, layout):
    """The iterate column, as a new array: a later in-place pass on *h*
    leaves it as read."""
    return h[layout.rows_of("iterate"), 0].copy()


def _sigmoid_derivative(t):
    s = sigmoid(t)
    return s * (1.0 - s)


def build_logreg_newton_step(budget):
    """Stack with no prefix and a body computing one damped Newton step.

    Its weights read d and mu from *budget* and nothing from any
    problem: the data, n included (through the mean picker), reach it
    only through the prompt.  The body (depth 6 + k) reads the
    label-signed rows y_i a_i of :func:`make_logistic_prompt`.  Its
    first layer computes the margins z_i = y_i a_i . x once, into the
    margins row, and reads them through two PWL tables: the per-sample
    Hessian weights sigma'(z_i) into the accumulator and the
    probabilities sigma(-z_i) into the prob row.
    The second clears the margins, scales both rows by 1/n through the
    mean picker and forms the weight-scaled data rows via quarter-square
    products.  The third clears the accumulator and assembles
    B = (1/n) A^T D A + mu I next to the seed alpha*I and, beside them,
    the gradient as a row of the accumulator.  k Newton-Schulz layers
    (the one-layer step of the least-squares stack) follow, then the
    direction, the decrement (into the prob row) with the damped step
    size (into the accumulator), and the iterate update, which reads
    the direction straight from x_slot and clears every scratch band
    exactly: after a step the stream equals
    ``make_logistic_prompt(problem, x_next)`` bit for bit, so the body
    runs once per step on one stream.  The feed-forward blocks hold only
    the PWL gadgets; every row one of them reads or writes is cleared by
    a head.  A layer's head updates land in head order, so a head that
    clears a band comes before the heads that write it.

    The Newton-Schulz layers converge to (B^T)^-1.  B differs from the
    symmetric Hessian H only by its product tables' error, so
    |B - B^T| <= 2 max|B - H|: inverting B^T adds no error beyond what
    B carries.
    """
    d, mu = budget.d, budget.mu
    layout = _logistic_layout(d)
    dim = layout.n_rows
    x_slot, b_slot, ident, data, iterate = map(
        layout.rows_of, ("x_slot", "b_slot", "identity", "data", "iterate")
    )
    picker_row, acc_row, prob_row, margin_row, ones_row = (
        layout.rows_of(name).start
        for name in ("mean_picker", "accumulator", "prob", "margins", "ones")
    )
    e1_row = ident.start  # first identity row holds e1^T

    # eigenvalues of the Hessian lie in [mu, 1+mu], so this alpha is
    # inside (0, 2/lambda_max) for every iterate
    alpha = spd_initial_scale(1.0 + mu)

    def clear(row):
        return _clear(dim, row, e1_row)

    def over_n(row):
        # adds row/n: (picker^T e1) times the row
        return AttentionHead(dim, (row, picker_row, 1.0),
                             key=e1_row, query=row)

    layers = []

    # margins z^T into their row, from the iterate broadcast in its
    # block; the ffn reads them once, writing sigma'(z) into the
    # accumulator and sigma(-z) into the prob row
    gadgets = [
        _gadget(dim, build_pwl(fn, -SIGMOID_RANGE, SIGMOID_RANGE,
                               budget.widths[pieces]),
                {margin_row: 1.0}, out_row)
        for fn, out_row, pieces in (
            (_sigmoid_derivative, acc_row, "u1_pieces"),
            (lambda t: sigmoid(-t), prob_row, "u3_pieces"),
        )
    ]
    layers.append(
        TransformerLayer(
            heads=(AttentionHead(dim, (margin_row, e1_row, 1.0),
                                 key=iterate, query=data),),
            ffn=Ffn(dim, gadgets, ones_row),
        )
    )

    # both rows -> 1/n times themselves and the margins clear, and the
    # ffn writes the weight-scaled data rows into x_slot's zeros.
    # weights lie in [0, 1/4] and features in [-1, 1]; x + y and x - y
    # share one range, so all d products share one square table
    squares = _square_tables(
        (0.0, 0.25), (-1.0, 1.0), budget.widths["u2_pieces"]
    )
    gadgets = [
        g for j in range(d)
        for g in _product(dim, acc_row, data.start + j, x_slot.start + j,
                          squares)
    ]
    layers.append(
        TransformerLayer(
            heads=(clear(margin_row), clear(acc_row), clear(prob_row),
                   over_n(acc_row), over_n(prob_row)),
            ffn=Ffn(dim, gadgets, ones_row),
        )
    )

    # Hessian assembly: b_slot <- B, its products S, then I, then a
    # (mu - 1) I head that mu = 1 does without, so B's diagonal rounds
    # as (1 + S_ii) + (mu - 1); the scaled data in x_slot is cleared
    # before the seed is written, so x_slot <- alpha*I exactly.  The
    # accumulator clears and takes the gradient row
    # -(1/n) sum_i sigma(-z_i) y_i a_i^T + mu x^T, and prob clears
    heads = [
        clear(acc_row),
        AttentionHead(dim, (b_slot, data, 1.0), key=x_slot, query=ident),
        AttentionHead(dim, (b_slot, ident, 1.0), key=ident, query=ident),
        AttentionHead(dim, (x_slot, ident, -1.0), key=ident, query=x_slot),
        AttentionHead(dim, (x_slot, ident, alpha), key=ident, query=ident),
    ]
    if mu != 1.0:
        heads.append(AttentionHead(dim, (b_slot, ident, mu - 1.0),
                                   key=ident, query=ident))
    heads += [
        AttentionHead(dim, (acc_row, prob_row, -1.0), key=data, query=ident),
        AttentionHead(dim, (acc_row, e1_row, mu), key=iterate, query=ident),
        clear(prob_row),
    ]
    layers.append(TransformerLayer(heads=heads))

    # k Newton-Schulz iterations, one layer each
    newton = TransformerLayer(heads=_newton_heads(dim, x_slot, b_slot, ident))
    layers += [newton] * budget.widths["k"]

    # Newton direction X g into x_slot's first column
    layers.append(
        TransformerLayer(
            heads=(
                AttentionHead(dim, (x_slot, x_slot, -1.0),
                              key=ident, query=ident),
                AttentionHead(dim, (x_slot, x_slot, 1.0),
                              key=acc_row, query=e1_row),
            ),
        )
    )

    # squared decrement g . X g over the gradient row into prob, then
    # the damped step size via PWL into the cleared accumulator
    step_size = build_pwl(
        lambda z: damping(mu, np.sqrt(z)),
        0.0, budget.z_max, budget.widths["eps4_pieces"],
    )
    layers.append(
        TransformerLayer(
            heads=(
                clear(acc_row),
                AttentionHead(dim, (prob_row, acc_row, 1.0),
                              key=ident, query=x_slot),
            ),
            ffn=Ffn(dim, [_gadget(dim, step_size, {prob_row: 1.0}, acc_row)],
                    ones_row),
        )
    )

    # iterate update and exact clear.  The accumulator holds
    # (t, 1, ..., 1), since the step-size table is exactly 1 at 0, and
    # x_slot holds X g in its first column and zeros past it, so the
    # update head's x_slot acc^T is exactly t X g.  Every scratch band
    # ends cleared (x - x = 0), as in the prompt
    layers.append(
        TransformerLayer(
            heads=(
                AttentionHead(dim, (iterate, x_slot, -1.0),
                              key=acc_row, query=ones_row),
                clear(acc_row),
                clear(prob_row),
                AttentionHead(dim, (x_slot, x_slot, -1.0),
                              key=ident, query=ident),
                AttentionHead(dim, (b_slot, b_slot, -1.0),
                              key=ident, query=ident),
            ),
        )
    )

    assert len(layers) == budget.depth
    return Looped((), layers), layout


def run_constructed_newton(problem, x0, budget, n_steps):
    """Apply the constructed step *n_steps* times; returns the iterates.

    Each step is one pass of the stack's body (``Looped.run``), in
    place on one stream, which leaves it the next iterate's prompt.
    *n_steps* and *x0* go through the ``linalg`` guards, and a *budget*
    built for another d or mu than *problem*'s raises ``BudgetError``
    with ``bound`` "d" or "mu", before anything is built.
    """
    n_steps = _count(n_steps, "n_steps", 0)
    x0 = _finite(x0, "x0")
    if budget.d != problem.dim:
        raise BudgetError(
            f"budget built for d={budget.d}, problem has d={problem.dim}",
            bound="d",
        )
    if abs(budget.mu - problem.mu) > 1e-12 * max(1.0, problem.mu):
        raise BudgetError(
            f"budget built for mu={budget.mu}, problem has mu={problem.mu}",
            bound="mu",
        )
    layers, layout = build_logreg_newton_step(budget)
    h = make_logistic_prompt(problem, x0)
    xs = [read_logistic_iterate(h, layout)]
    for stream in layers.run(h, n_steps):
        xs.append(read_logistic_iterate(stream, layout))
    return xs
