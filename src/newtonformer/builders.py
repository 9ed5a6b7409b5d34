"""Mechanical construction of transformer weights for three tasks:
matrix inversion, in-context least squares, and one damped Newton step
on the regularized logistic loss.

Every builder returns immutable layers for the linear-attention
forward pass plus the :class:`~.transformer.PromptLayout` of the prompt
rows it expects.  Each stack declares its row bands once, in its layout
function; the builder, the prompt maker and the reader take every row
from that layout, and the layers' dimension is its ``n_rows``.  Heads
are assembled from sparse block triples so the selector structure
stays auditable; feed-forward blocks are assembled from exact ReLU
neurons and scalar piecewise-linear gadgets by :class:`FfnBuilder`.
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BudgetError
from .inversion import spd_initial_scale
from .logistic import damping, iterate_norm_bound, sigmoid
from .pwl import PwlGadget, _square_tables, build_pwl
from .transformer import (
    AttentionHead,
    Ffn,
    PromptLayout,
    TransformerLayer,
    assemble_blocks,
    model_forward,
)

__all__ = [
    "BudgetReport",
    "width_depth_budget",
    "FfnBuilder",
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
GATE_SHIFT = 20.0
CLEANUP_RANGE = 10.0

_REF_EPS = 1e-2
_REF_MU = 0.1
_REF_D = 5


@dataclass(frozen=True)
class BudgetReport:
    """Width and depth allocation for the constructed logistic step.

    ``widths`` maps each scalar approximator to its piece count
    (u1_pieces, u2_pieces, u3_pieces, eps4_pieces) plus the inversion
    step count ``k``; ``depth`` = 10 + 2 k is derived from it, and
    ``kappa_f``, ``norm_bound`` and ``z_max`` from mu alone.
    """

    target_eps: float
    mu: float
    d: int
    widths: dict

    @property
    def depth(self):
        return 10 + 2 * self.widths["k"]

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
        derived = ("depth", "kappa_f", "norm_bound", "z_max")
        payload = {**asdict(self), **{k: getattr(self, k) for k in derived}}
        return json.dumps(payload, indent=2, sort_keys=True)


def width_depth_budget(eps, mu, d, piece_ceiling=5_000_000):
    """Allocate approximator widths and inversion steps for target *eps*.

    The four piece counts are power laws fitted at one reference point
    (eps=1e-2, mu=0.1, d=5), where the constructed step lands well
    inside its tolerance; they are not derived from each table's error
    (ROADMAP item 2).  The stack seeds Newton-Schulz at alpha*I, alpha =
    spd_initial_scale(1+mu), for a Hessian B with spectrum in
    [mu, 1+mu], so I - alpha B has spectral radius r0 = max(1 - alpha mu,
    alpha (1+mu) - 1).  Each step squares the residual I - X B, so
    ||I - X_k B||_2 <= r0^(2^k), which meets 1/inner for inner =
    (1+mu)^3/(eps^2 mu^2) at k = ceil(log2(ln(inner) / -ln r0)), floored
    at 1.

    Any piece count above *piece_ceiling*, or too large for a float,
    raises ``BudgetError`` naming the overflowing family.  A d that is
    not an integer, or a *piece_ceiling* that is NaN or below 1, raises
    ``ValueError``.  The inversion count needs its inner ratio above 1,
    i.e. eps < (1+mu)^1.5/mu; a larger eps raises ``ValueError``.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be finite and positive, got {mu}")
    if not d >= 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not float(d).is_integer():
        raise ValueError(f"d must be an integer, got {d}")
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
    return BudgetReport(float(eps), float(mu), int(d), widths)


class FfnBuilder:
    """Accumulates ReLU neurons and PWL gadgets into one :class:`Ffn`.

    Each neuron reads an affine combination of prompt rows (biases go
    through the ones row) and adds a weighted ReLU output to a single
    destination row.  A PWL gadget is recorded whole and counts as the
    ``pieces + 2`` neurons of its ReLU form.
    """

    def __init__(self, dim, ones_row=None):
        self.dim = dim
        self.ones_row = ones_row
        self._args = []
        self._outs = []
        self._gadgets = []

    @property
    def width(self):
        return len(self._args) + sum(g.width for g in self._gadgets)

    def _row(self, coeffs, bias):
        arg = np.zeros(self.dim)
        for row, coeff in coeffs.items():
            arg[row] += coeff
        if bias != 0.0:
            if self.ones_row is None:
                raise ValueError("a bias needs a ones row in the prompt")
            arg[self.ones_row] += bias
        return arg

    def add_neuron(self, coeffs, out_row, weight):
        self._args.append(self._row(coeffs, 0.0))
        self._outs.append((out_row, float(weight)))

    def add_identity(self, src_row, out_row, weight=1.0):
        """Add weight*x of the source row, exact for every input."""
        self.add_neuron({src_row: 1.0}, out_row, weight)
        self.add_neuron({src_row: -1.0}, out_row, -weight)

    def add_pwl(self, approx, coeffs, out_row, scale=1.0, gate=None):
        """Add a clamped PwlApprox of the affine argument *coeffs*.

        With ``gate=(label_row, sign)`` the argument is shifted past the
        knots unless that row holds exactly ``sign`` (labels are +-1),
        and the constant term is routed through an exact 0/1 ReLU of
        the label, so two gated copies realize a per-column branch on
        the label value.
        """
        if gate is None:
            const = self._row({}, 1.0)
            arg = self._row(coeffs, 0.0)
        else:
            gate_row, gate_sign = gate
            if gate_sign not in (-1.0, 1.0, -1, 1):
                raise ValueError("gate sign must be -1 or +1")
            const = self._row({gate_row: 0.5 * gate_sign}, 0.5)
            arg = self._row(coeffs, -GATE_SHIFT)
            arg[gate_row] += GATE_SHIFT * gate_sign
        self._gadgets.append(
            PwlGadget(approx, arg, const, float(scale), out_row, self.width)
        )

    def add_signed_copy(self, src_row, label_row, out_row):
        """Add x * y for a label row y in {-1, +1}, using four ReLUs.

        The neurons sum to relu(x/2 + 2y) - relu(-x/2 + 2y)
        + relu(-x/2 - 2y) - relu(x/2 - 2y), which equals x * y up to
        one unit in the last place whenever |x| < 4.  The one-ulp slack
        comes from aligning x/2 against the offset 2 before the
        cancelling subtraction.
        """
        for c_src, c_lab, weight in (
            (0.5, 2.0, 1.0),
            (-0.5, 2.0, -1.0),
            (-0.5, -2.0, 1.0),
            (0.5, -2.0, -1.0),
        ):
            self.add_neuron(
                {src_row: c_src, label_row: c_lab}, out_row, weight
            )

    def add_product(self, x_row, y_row, out_row, tables):
        """Add x * y via the quarter-square decomposition.

        *tables* is the ``(sq_sum, sq_dif)`` pair of PWL squares that
        :func:`~.pwl.pwl_product` builds for the factors' ranges, so
        the compiled gadget computes the same approximation.
        """
        sq_sum, sq_dif = tables
        self.add_pwl(sq_sum, {x_row: 1.0, y_row: 1.0}, out_row, 0.25)
        self.add_pwl(sq_dif, {x_row: 1.0, y_row: -1.0}, out_row, -0.25)

    def build(self):
        if not self.width:
            raise ValueError("no neurons added")
        w1 = np.array(self._args).reshape(-1, self.dim)
        w2 = np.zeros((self.dim, len(self._args)))
        for idx, (row, weight) in enumerate(self._outs):
            w2[row, idx] += weight
        return Ffn(w1, w2, self._gadgets, self.ones_row)


def _head(dim, v_entries, k_entries, q_entries):
    return AttentionHead(
        w_v=assemble_blocks(dim, v_entries),
        w_k=assemble_blocks(dim, k_entries),
        w_q=assemble_blocks(dim, q_entries),
    )


# ---------------------------------------------------------------------------
# matrix inversion block


def _inversion_layout(d):
    return PromptLayout(
        (("iterate", d), ("data", d), ("work", d), ("identity", d))
    )


def make_inversion_prompt(a, x0):
    """Stack (X0; A; 0; I) for the two-layer inversion block."""
    a = np.asarray(a, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    d = a.shape[0]
    if a.shape != (d, d) or x0.shape != (d, d):
        raise ValueError("a and x0 must be square with matching shape")
    layout = _inversion_layout(d)
    h = np.zeros((layout.n_rows, d))
    h[layout.rows_of("iterate")] = x0
    h[layout.rows_of("data")] = a
    h[layout.rows_of("identity")] = np.eye(d)
    return h


def read_inversion_iterate(h, layout):
    return np.ascontiguousarray(h[layout.rows_of("iterate")])


def _inverse_iteration(dim, x_rows, m_rows, work_rows, ident_rows):
    """The two layers that take X to X(2I - MX) on d-row bands.

    The first writes MX into the work band; the second forms
    X(2I - MX) in the X band and clears the work band.  They need I_d
    in the leading columns of the identity band, zeros elsewhere in it,
    and a zero work band; they leave those bands and M as they found
    them, so the pair can be chained.
    """
    eye = np.eye(x_rows.stop - x_rows.start)
    first = TransformerLayer(
        heads=(
            _head(
                dim,
                v_entries=[(work_rows, m_rows, eye)],
                k_entries=[(x_rows, ident_rows, eye)],
                q_entries=[(x_rows, x_rows, eye)],
            ),
        ),
    )
    second = TransformerLayer(
        heads=(
            _head(
                dim,
                v_entries=[(x_rows, x_rows, eye)],
                k_entries=[(x_rows, ident_rows, eye)],
                q_entries=[(x_rows, work_rows, -eye)],
            ),
            _head(
                dim,
                v_entries=[
                    (x_rows, x_rows, eye), (work_rows, work_rows, -eye),
                ],
                k_entries=[(x_rows, ident_rows, eye)],
                q_entries=[(x_rows, ident_rows, eye)],
            ),
        ),
    )
    return [first, second]


def build_inversion_block(d):
    """Two attention-only layers advancing X by one inverse iteration.

    On a prompt (X; A; 0; I) the pair writes AX into the work block
    and then forms X(2I - AX) in the top block while clearing the work
    block, so the output prompt has the same shape and bookkeeping as
    the input and the block can be chained.  The logistic stack chains
    the same two layers to invert its Hessian.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    layout = _inversion_layout(d)
    layers = _inverse_iteration(
        layout.n_rows,
        *map(layout.rows_of, ("iterate", "data", "work", "identity")),
    )
    return layers, layout


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
        )
    )


def make_linreg_prompt(a, y, a_test):
    """Prompt (I; I; I; A^T; a_test^T; y^T; 0) with d-wide identities."""
    a = np.asarray(a, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    a_test = np.asarray(a_test, dtype=np.float64)
    n, d = a.shape
    if n < d:
        raise ValueError(f"need n >= d, got n={n}, d={d}")
    if y.shape != (n,) or a_test.shape != (d,):
        raise ValueError("y must be length n and a_test length d")
    layout = _linreg_layout(d)
    h = np.zeros((layout.n_rows, n))
    for pad in ("x_slot", "b_slot", "identity"):
        h[layout.rows_of(pad), :d] = np.eye(d)
    h[layout.rows_of("data")] = a.T
    h[layout.rows_of("test_point"), :d] = a_test
    h[layout.rows_of("labels")] = y
    return h


def read_linreg_prediction(h, layout):
    """The prediction in the output row's first column: a float for one
    stream, an array of shape ``...`` for a stack ``(..., dim, n)``."""
    pred = h[..., layout.rows_of("output").start, 0]
    return float(pred) if np.ndim(h) == 2 else pred


def build_linreg_transformer(d, t_steps, alpha, ridge_mu=0.0):
    """Attention-only pipeline predicting a_test^T (A^T A)^-1 A^T y.

    One init layer forms (alpha*B; B) for B = A^T A + ridge_mu*I, each
    of *t_steps* layers advances X <- X(2I - BX) (one layer suffices
    because B is symmetric), and two output layers contract
    y^T A X_T against a_test into the output row's first column.
    The caller supplies *alpha* in (0, 2/sigma_max(B)^2).  The weights
    do not depend on n; :func:`make_linreg_prompt` checks n >= d.
    Only the init layer reads alpha and ridge_mu: the Newton, contract
    and readout layers depend on d alone, so stacks built for different
    prompts share them.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if t_steps < 0:
        raise ValueError(f"t_steps must be >= 0, got {t_steps}")
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0.0 <= ridge_mu < math.inf:
        raise ValueError(f"ridge_mu must be finite and >= 0, got {ridge_mu}")
    layout = _linreg_layout(d)
    dim = layout.n_rows
    eye = np.eye(d)
    x_slot, b_slot, ident, data = map(
        layout.rows_of, ("x_slot", "b_slot", "identity", "data")
    )
    test_row, label_row, out_row = (
        layout.rows_of(name).start
        for name in ("test_point", "labels", "output")
    )

    init = TransformerLayer(
        heads=(
            _head(
                dim,
                v_entries=[(x_slot, data, alpha * eye), (b_slot, data, eye)],
                k_entries=[(x_slot, data, eye)],
                q_entries=[(x_slot, x_slot, eye)],
            ),
            _head(
                dim,
                v_entries=[
                    (x_slot, ident, (alpha * ridge_mu - 1.0) * eye),
                    (b_slot, ident, (ridge_mu - 1.0) * eye),
                ],
                k_entries=[(x_slot, ident, eye)],
                q_entries=[(x_slot, ident, eye)],
            ),
        ),
    )

    newton = TransformerLayer(
        heads=(
            _head(
                dim,
                v_entries=[(x_slot, x_slot, -eye)],
                k_entries=[(x_slot, b_slot, eye)],
                q_entries=[(x_slot, x_slot, eye)],
            ),
            _head(
                dim,
                v_entries=[(x_slot, x_slot, eye)],
                k_entries=[(x_slot, ident, eye)],
                q_entries=[(x_slot, ident, eye)],
            ),
        ),
    )

    contract = TransformerLayer(
        heads=(
            _head(
                dim,
                v_entries=[(out_row, label_row, 1.0)],
                k_entries=[(x_slot, data, eye)],
                q_entries=[(x_slot, x_slot, eye)],
            ),
        ),
    )
    readout = TransformerLayer(
        heads=(
            _head(
                dim,
                v_entries=[(out_row, out_row, 1.0)],
                k_entries=[(0, test_row, 1.0)],
                q_entries=[(0, ident.start, 1.0)],
            ),
            _head(
                dim,
                v_entries=[(out_row, out_row, -1.0)],
                k_entries=[(x_slot, ident, eye)],
                q_entries=[(x_slot, ident, eye)],
            ),
        ),
    )

    layers = [init] + [newton] * t_steps + [contract, readout]
    return layers, layout


# ---------------------------------------------------------------------------
# one damped Newton step on the logistic loss


def _logistic_layout(d):
    return PromptLayout(
        (
            ("x_slot", d),
            ("b_slot", d),
            ("identity", d),
            ("work", d),
            ("data", d),
            ("labels", 1),
            ("iterate", d),
            ("mean_picker", 1),
            ("accumulator", 1),
            ("ones", 1),
        )
    )


def make_logistic_prompt(problem, x):
    """Prompt carrying the dataset, the current iterate broadcast over
    all columns, a first-column mean picker e1^T/n, and a ones row."""
    d, n = problem.dim, problem.n_samples
    if n < d:
        raise ValueError(f"need n >= d, got n={n}, d={d}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (d,):
        raise ValueError(f"x must have shape ({d},), got {x.shape}")
    layout = _logistic_layout(d)
    h = np.zeros((layout.n_rows, n))
    for pad in ("x_slot", "b_slot", "identity"):
        h[layout.rows_of(pad), :d] = np.eye(d)
    h[layout.rows_of("data")] = problem.features.T
    h[layout.rows_of("labels")] = problem.labels
    h[layout.rows_of("iterate")] = x[:, None]
    h[layout.rows_of("mean_picker"), 0] = 1.0 / n
    h[layout.rows_of("ones")] = 1.0
    return h


def read_logistic_iterate(h, layout):
    return np.ascontiguousarray(h[layout.rows_of("iterate"), 0])


def _sigmoid_derivative(t):
    s = sigmoid(t)
    return s * (1.0 - s)


def build_logreg_newton_step(problem, budget):
    """Full stack computing one damped Newton step in-context.

    The stack (depth 10 + 2k) computes margins, the per-sample Hessian
    weights through a PWL sigmoid-derivative, the scaled data rows via
    quarter-square products, assembles B = (1/n) A^T D A + mu I next to
    the seed alpha*I, runs k inverse iterations (the two layers of the
    inversion block, on B), recomputes margins into label-gated PWL
    probabilities, assembles the gradient, forms the decrement and the
    damped step size, updates the iterate block, and restores every
    bookkeeping block so the stack can be chained.
    """
    d, n = problem.dim, problem.n_samples
    if n < d:
        raise ValueError(f"need n >= d, got n={n}, d={d}")
    if budget.d != d:
        raise BudgetError(
            f"budget built for d={budget.d}, problem has d={d}", bound="d"
        )
    if abs(budget.mu - problem.mu) > 1e-12 * max(1.0, problem.mu):
        raise BudgetError(
            f"budget built for mu={budget.mu}, problem has mu={problem.mu}",
            bound="mu",
        )

    mu = problem.mu
    layout = _logistic_layout(d)
    dim = layout.n_rows
    eye = np.eye(d)
    x_slot, b_slot, ident, work, data, iterate = map(
        layout.rows_of,
        ("x_slot", "b_slot", "identity", "work", "data", "iterate"),
    )
    label_row, picker_row, acc_row, ones_row = (
        layout.rows_of(name).start
        for name in ("labels", "mean_picker", "accumulator", "ones")
    )
    e1_row = ident.start  # first identity row holds e1^T

    # eigenvalues of the Hessian lie in [mu, 1+mu], so this alpha is
    # inside (0, 2/lambda_max) for every iterate
    alpha = spd_initial_scale(1.0 + mu)

    def margins_to_accumulator():
        # accumulator += (A x)^T, broadcast from the iterate block
        return _head(
            dim,
            v_entries=[(acc_row, e1_row, 1.0)],
            k_entries=[(x_slot, iterate, eye)],
            q_entries=[(x_slot, data, eye)],
        )

    def rescale_accumulator():
        # accumulator: s -> s/n using the mean-picker row
        return (
            _head(
                dim,
                v_entries=[(acc_row, picker_row, 1.0)],
                k_entries=[(0, e1_row, 1.0)],
                q_entries=[(0, acc_row, 1.0)],
            ),
            _head(
                dim,
                v_entries=[(acc_row, e1_row, -1.0)],
                k_entries=[(0, e1_row, 1.0)],
                q_entries=[(0, acc_row, 1.0)],
            ),
        )

    layers = []

    # margins, then per-sample curvature weights
    fb = FfnBuilder(dim, ones_row)
    sig_deriv = build_pwl(
        _sigmoid_derivative, -SIGMOID_RANGE, SIGMOID_RANGE,
        budget.widths["u1_pieces"],
    )
    fb.add_pwl(sig_deriv, {acc_row: 1.0}, acc_row)
    fb.add_identity(acc_row, acc_row, -1.0)
    layers.append(
        TransformerLayer(heads=(margins_to_accumulator(),), ffn=fb.build())
    )

    # weight-scaled data rows replace the top identity block
    fb = FfnBuilder(dim, ones_row)
    # weights lie in [0, 1/4] and features in [-1, 1]; x + y and x - y
    # share one range, so all d products share one square table
    squares = _square_tables(
        (0.0, 0.25), (-1.0, 1.0), budget.widths["u2_pieces"]
    )
    for j in range(d):
        fb.add_product(acc_row, data.start + j, x_slot.start + j, squares)
        fb.add_identity(ident.start + j, x_slot.start + j, -1.0)
    fb.add_identity(acc_row, acc_row, -1.0)
    layers.append(
        TransformerLayer(heads=rescale_accumulator(), ffn=fb.build())
    )

    # Hessian assembly: b_slot <- B; the scaled data in x_slot is
    # cleared before the seed is written, so x_slot <- alpha*I exactly
    layers.append(
        TransformerLayer(
            heads=(
                _head(
                    dim,
                    v_entries=[(b_slot, data, eye)],
                    k_entries=[(x_slot, x_slot, eye)],
                    q_entries=[(x_slot, ident, eye)],
                ),
                _head(
                    dim,
                    v_entries=[(x_slot, ident, eye)],
                    k_entries=[(x_slot, ident, eye)],
                    q_entries=[(x_slot, x_slot, -eye)],
                ),
                _head(
                    dim,
                    v_entries=[
                        (x_slot, ident, alpha * eye),
                        (b_slot, ident, (mu - 1.0) * eye),
                    ],
                    k_entries=[(x_slot, ident, eye)],
                    q_entries=[(x_slot, ident, eye)],
                ),
            ),
        )
    )

    # k inverse iterations, two layers each
    k = budget.widths["k"]
    layers.extend(_inverse_iteration(dim, x_slot, b_slot, work, ident) * k)

    # margins again, then label-gated probabilities
    fb = FfnBuilder(dim, ones_row)
    p_pos = build_pwl(
        lambda t: sigmoid(-t), -SIGMOID_RANGE, SIGMOID_RANGE,
        budget.widths["u3_pieces"],
    )
    p_neg = build_pwl(
        sigmoid, -SIGMOID_RANGE, SIGMOID_RANGE, budget.widths["u3_pieces"]
    )
    fb.add_pwl(p_pos, {acc_row: 1.0}, acc_row, gate=(label_row, 1.0))
    fb.add_pwl(p_neg, {acc_row: 1.0}, acc_row, gate=(label_row, -1.0))
    fb.add_identity(acc_row, acc_row, -1.0)
    layers.append(
        TransformerLayer(heads=(margins_to_accumulator(),), ffn=fb.build())
    )

    # rescale to p/n, then attach labels exactly
    fb = FfnBuilder(dim, ones_row)
    fb.add_signed_copy(acc_row, label_row, acc_row)
    fb.add_identity(acc_row, acc_row, -1.0)
    layers.append(
        TransformerLayer(heads=rescale_accumulator(), ffn=fb.build())
    )

    # gradient assembly into b_slot's first column
    layers.append(
        TransformerLayer(
            heads=(
                _head(
                    dim,
                    v_entries=[(b_slot, data, -eye)],
                    k_entries=[(0, acc_row, 1.0)],
                    q_entries=[(0, e1_row, 1.0)],
                ),
                _head(
                    dim,
                    v_entries=[(b_slot, b_slot, -eye)],
                    k_entries=[(x_slot, ident, eye)],
                    q_entries=[(x_slot, ident, eye)],
                ),
                _head(
                    dim,
                    v_entries=[(b_slot, iterate, mu * eye)],
                    k_entries=[(0, e1_row, 1.0)],
                    q_entries=[(0, e1_row, 1.0)],
                ),
            ),
        )
    )

    # Newton direction into x_slot's first column
    layers.append(
        TransformerLayer(
            heads=(
                _head(
                    dim,
                    v_entries=[(x_slot, x_slot, eye)],
                    k_entries=[(x_slot, ident, eye)],
                    q_entries=[(x_slot, b_slot, eye)],
                ),
                _head(
                    dim,
                    v_entries=[(x_slot, x_slot, -eye)],
                    k_entries=[(x_slot, ident, eye)],
                    q_entries=[(x_slot, ident, eye)],
                ),
            ),
        )
    )

    # squared decrement, then the damped step size via PWL
    fb = FfnBuilder(dim, ones_row)
    step_size = build_pwl(
        lambda z: damping(mu, np.sqrt(z)),
        0.0, budget.z_max, budget.widths["eps4_pieces"],
    )
    fb.add_pwl(step_size, {acc_row: 1.0}, acc_row)
    fb.add_identity(acc_row, acc_row, -1.0)
    layers.append(
        TransformerLayer(
            heads=(
                _head(
                    dim,
                    v_entries=[(acc_row, e1_row, 1.0)],
                    k_entries=[(x_slot, b_slot, eye)],
                    q_entries=[(x_slot, x_slot, eye)],
                ),
                _head(
                    dim,
                    v_entries=[(acc_row, e1_row, -1.0)],
                    k_entries=[(0, ones_row, 1.0)],
                    q_entries=[(0, acc_row, 1.0)],
                ),
            ),
            ffn=fb.build(),
        )
    )

    # scaled direction spread across the accumulator row
    layers.append(
        TransformerLayer(
            heads=(
                _head(
                    dim,
                    v_entries=[(acc_row, acc_row, 1.0)],
                    k_entries=[(x_slot, x_slot, eye)],
                    q_entries=[(x_slot, ident, eye)],
                ),
                _head(
                    dim,
                    v_entries=[(acc_row, acc_row, -1.0)],
                    k_entries=[(x_slot, ident, eye)],
                    q_entries=[(x_slot, ident, eye)],
                ),
            ),
        )
    )

    # iterate update, block restore, accumulator cleanup
    fb = FfnBuilder(dim, ones_row)
    fb.add_neuron({acc_row: -0.5, ones_row: 5.0}, acc_row, 1.0)
    fb.add_neuron({acc_row: 0.5, ones_row: 5.0}, acc_row, -1.0)
    layers.append(
        TransformerLayer(
            heads=(
                _head(
                    dim,
                    v_entries=[(iterate, ident, -eye)],
                    k_entries=[(0, acc_row, 1.0)],
                    q_entries=[(0, ones_row, 1.0)],
                ),
                _head(
                    dim,
                    v_entries=[
                        (x_slot, x_slot, -eye),
                        (x_slot, ident, eye),
                        (b_slot, b_slot, -eye),
                        (b_slot, ident, eye),
                    ],
                    k_entries=[(x_slot, ident, eye)],
                    q_entries=[(x_slot, ident, eye)],
                ),
            ),
            ffn=fb.build(),
        )
    )

    assert len(layers) == budget.depth
    return layers, layout


def run_constructed_newton(problem, x0, budget, n_steps):
    """Apply the constructed step *n_steps* times; returns the iterates.

    The last layer's ffn cancels the accumulator row exactly only while
    its entries stay inside (-10, 10).  That layer's attention leaves
    the row as it is, so each step checks it before the last layer and
    raises ``BudgetError`` with bound ``"cleanup_range"`` on a larger
    entry.
    """
    layers, layout = build_logreg_newton_step(problem, budget)
    acc_row = layout.rows_of("accumulator").start
    h = make_logistic_prompt(problem, np.asarray(x0, dtype=np.float64))
    xs = [read_logistic_iterate(h, layout)]
    for _ in range(n_steps):
        h = model_forward(layers[:-1], h)
        reach = float(np.max(np.abs(h[acc_row])))
        if reach >= CLEANUP_RANGE:
            raise BudgetError(
                f"accumulator magnitude {reach:.3g} exceeds the exact "
                f"cleanup range {CLEANUP_RANGE}",
                bound="cleanup_range",
            )
        h = model_forward(layers[-1:], h)
        xs.append(read_logistic_iterate(h, layout))
    return xs
