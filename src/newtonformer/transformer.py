"""Linear-attention transformer forward pass.

Layers use attention without softmax: each head contributes
(W_V H) (W_K H).T (W_Q H) additively to the residual stream, and an
optional position-wise feed-forward block adds W_2 relu(W_1 H).
The constructed heads are block selectors, so each head also keeps a
compacted form.  Its rows are the rows where W_V is nonzero, and the
rows where W_K and W_Q are both nonzero.  Each of the three row-compacted
projections keeps only the columns from its first to its last nonzero
one, which pick the stream rows it reads.  The forward pass multiplies
only those rows and columns and, with no softmax in between, groups the
product as ((W_V H) (W_K H).T) (W_Q H): a |value rows| x |key rows|
matrix in place of the n x n score matrix.  A compacted block that
equals c I is kept as the scalar c and applied as c times the stream
rows it reads, or as those rows themselves for c = 1; skipping a
product by I removes roundings only, so the stated error bound holds.
Feed-forward blocks keep their piecewise-linear gadgets whole and
evaluate them by interpolation; the dense (W_1, W_2) pair is derived
from them on demand.
Prompts are matrices with one column per token.  Their rows follow a
``PromptLayout``: named bands declared once, in order, from which each
band's rows and the model dimension are derived.
The forward functions take one stream ``(dim, n)`` or a stack of
streams ``(..., dim, n)`` and run every slice through the same
weights; each slice of the result is bit-identical to the call on that
slice alone.  ``model_forward`` copies its input once and runs every
layer in place on that one working stream, through the layer
functions' ``out=`` keyword; called alone, they return a new array.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_stack
from .pwl import eval_pwl

__all__ = [
    "PromptLayout",
    "AttentionHead",
    "Ffn",
    "TransformerLayer",
    "assemble_blocks",
    "attention_forward",
    "ffn_forward",
    "model_forward",
]

class PromptLayout:
    """Row layout of a prompt matrix: named bands of rows, in order.

    *bands* is a sequence of ``(name, size)`` pairs.  Each band starts
    where the one before it stops, so together they tile rows
    ``0 .. n_rows``; ``rows_of(name)`` gives a band's rows as a slice.
    Duplicate names and sizes that are not integers >= 1 raise ``ValueError``.
    """

    def __init__(self, bands):
        self._rows = {}
        start = 0
        for name, size in bands:
            if name in self._rows:
                raise ValueError(f"duplicate band name {name!r}")
            if not isinstance(size, (int, np.integer)) or size < 1:
                raise ValueError(
                    f"band {name!r} needs an integer size >= 1, got {size}"
                )
            self._rows[name] = slice(start, start + size)
            start += size
        self.n_rows = start

    def rows_of(self, name):
        return self._rows[name]


@dataclass(frozen=True, eq=False)
class AttentionHead:
    """Value / key / query projections of one linear-attention head.

    The dense projections are read-only, and the compacted form that
    :func:`attention_forward` multiplies is derived from them once:
    each projection restricted to the rows that can contribute and
    then to the columns from its first to its last nonzero one, and
    kept as the scalar c where that block equals c I.  Heads compare
    and hash by identity.
    """

    w_v: np.ndarray
    w_k: np.ndarray
    w_q: np.ndarray

    def __post_init__(self):
        dim = None
        for field_name in ("w_v", "w_k", "w_q"):
            given = getattr(self, field_name)
            m = as_matrix(given, field_name)
            if m.shape[0] != m.shape[1]:
                raise ValueError(
                    f"{field_name} must be square, got {m.shape}"
                )
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise ValueError(
                    f"{field_name} is {m.shape[0]}x{m.shape[0]}, other "
                    f"projections are {dim}x{dim}"
                )
            if np.may_share_memory(m, given):
                m = m.copy()
            m.flags.writeable = False
            object.__setattr__(self, field_name, m)
        object.__setattr__(self, "_compact", self._compacted())

    def _compacted(self):
        """(value rows, V columns, V block, K columns, K block,
        Q columns, Q block) for the rows that can contribute, or None
        for a head that adds nothing.

        A key/query row that is zero in either W_K or W_Q adds nothing
        to (W_K H).T (W_Q H).  The blocks are W_V, W_K and W_Q
        restricted to those rows, then to the columns from their first
        to their last nonzero column.  A block that equals c I is kept
        as the float c.  Rows are a slice when contiguous; columns are
        always a slice, so the stream rows a block reads are a view.
        """
        v_rows = self.w_v.any(axis=1).nonzero()[0]
        kq_rows = (self.w_k.any(axis=1) & self.w_q.any(axis=1)).nonzero()[0]
        if not v_rows.size or not kq_rows.size:
            return None
        v_rows, kq_rows = _as_index(v_rows), _as_index(kq_rows)
        return (v_rows, *_column_span(self.w_v[v_rows]),
                *_column_span(self.w_k[kq_rows]),
                *_column_span(self.w_q[kq_rows]))

    @property
    def dim(self):
        return self.w_v.shape[0]


def _as_index(rows):
    """Sorted row indices as a slice when they are contiguous."""
    if rows[-1] - rows[0] + 1 == rows.size:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


def _column_span(w):
    """(span, block) for the slice from w's first to its last nonzero
    column; every row of *w* has a nonzero entry.  The block is
    w[:, span], or the float c when that block equals c I."""
    cols = w.any(axis=0).nonzero()[0]
    span = slice(int(cols[0]), int(cols[-1]) + 1)
    block = w[:, span]
    k, c = block.shape[0], float(block[0, 0])
    # k nonzeros, all of them c on the diagonal, leave none off it
    if (k == block.shape[1] and c != 0.0 and np.count_nonzero(block) == k
            and block.diagonal().tolist().count(c) == k):
        return span, c
    return span, block


class Ffn:
    """A position-wise ReLU block: exact neurons plus PWL gadgets.

    ``w1`` (k, dim) and ``w2`` (dim, k) hold the neurons stored one by
    one.  Each :class:`~.pwl.PwlGadget` in ``gadgets`` stands for
    ``pieces + 2`` neurons and is evaluated by interpolation, which
    needs the prompt's ``ones_row`` to hold exactly 1.  Biases go
    through that ones row rather than being stored separately.

    The dense pair over all ``width`` neurons, in the order they were
    added, is the paper's object: ``w1, w2 = ffn`` derives it on first
    use, gadgets expanded in place, and caches it.
    """

    def __init__(self, w1, w2, gadgets=(), ones_row=None):
        w1 = as_matrix(w1, "ffn w1")
        w2 = as_matrix(w2, "ffn w2")
        if w2.shape[1] != w1.shape[0]:
            raise ValueError(
                f"ffn hidden sizes disagree: w1 has {w1.shape[0]} "
                f"rows, w2 has {w2.shape[1]} columns"
            )
        if w1.shape[1] != w2.shape[0]:
            raise ValueError(
                f"ffn shapes {w1.shape}, {w2.shape} disagree on the "
                f"model dimension"
            )
        self.w1, self.w2 = w1, w2
        self.gadgets = tuple(gadgets)
        self.ones_row = ones_row
        if self.gadgets and ones_row is None:
            raise ValueError("ffn gadgets need a ones row")
        self._gadget_rows = np.array(
            [g.arg for g in self.gadgets]
        ).reshape(-1, self.dim)
        self._dense = None

    @property
    def dim(self):
        return self.w1.shape[1]

    @property
    def width(self):
        return self.w1.shape[0] + sum(g.width for g in self.gadgets)

    def __iter__(self):
        """Yield the dense w1, then w2, over every neuron."""
        if self._dense is None:
            if not self.gadgets:
                self._dense = (self.w1, self.w2)
            else:
                w1 = np.empty((self.width, self.dim))
                w2 = np.zeros((self.dim, self.width))
                exact = np.ones(self.width, dtype=bool)
                for g in self.gadgets:
                    cols = slice(g.start, g.start + g.width)
                    exact[cols] = False
                    w1[cols], weights = g.to_dense(self.ones_row)
                    w2[g.out_row, cols] += weights
                w1[exact] = self.w1
                w2[:, exact] = self.w2
                self._dense = (w1, w2)
        return iter(self._dense)


@dataclass(frozen=True)
class TransformerLayer:
    """One block: parallel attention heads plus an optional ffn.

    ``ffn`` is None or an :class:`Ffn`; any other value raises
    ``TypeError``.
    """

    heads: tuple
    ffn: Ffn | None = None

    def __post_init__(self):
        heads = tuple(self.heads)
        if not heads:
            raise ValueError("a layer needs at least one head")
        dim = heads[0].dim
        for head in heads:
            if head.dim != dim:
                raise ValueError("heads disagree on model dimension")
        object.__setattr__(self, "heads", heads)
        if self.ffn is not None:
            if not isinstance(self.ffn, Ffn):
                raise TypeError(
                    f"layer ffn must be None or an Ffn, got "
                    f"{type(self.ffn).__name__}"
                )
            if self.ffn.dim != dim:
                raise ValueError(
                    f"ffn dimension {self.ffn.dim} does not match model "
                    f"dimension {dim}"
                )

    @property
    def dim(self):
        return self.heads[0].dim


def assemble_blocks(dim, entries):
    """Build a dense dim x dim weight matrix from sparse block triples.

    Each entry is (rows, cols, content) with slice or integer indices;
    scalar content broadcasts, and overlapping entries accumulate.
    """
    m = np.zeros((dim, dim))
    for rows, cols, content in entries:
        m[rows, cols] += content
    return m


def _check_stream(h, dim):
    h = as_stack(h, "h")
    if h.shape[-2] != dim:
        raise ValueError(
            f"h has {h.shape[-2]} rows, model dimension is {dim}"
        )
    return h


def _target(h, out):
    """The array a layer writes its result into: *out* holding h's
    values, or a new copy of h when *out* is None."""
    if out is None:
        return h.copy()
    if out is not h:
        if (not isinstance(out, np.ndarray) or out.shape != h.shape
                or out.dtype != h.dtype):
            raise ValueError(
                f"out must be a float64 array of shape {h.shape}"
            )
        out[...] = h
    return out


def _project(block, h, cols):
    """block @ h[..., cols, :], where a float block c stands for c I:
    the stream rows themselves (a view) for c = 1, else c times them."""
    rows = h[..., cols, :]
    if type(block) is float:
        return rows if block == 1.0 else block * rows
    return block @ rows


def attention_forward(layer, h, *, out=None):
    """Residual attention update: h + the sum of the layer's head
    contributions.  The layer's ffn, if any, is NOT applied here.

    Each head adds ((W_V' h_V) (W_K' h_K).T) (W_Q' h_Q) to its value
    rows, where W_V' holds W_V's nonzero rows and W_K', W_Q' the rows
    nonzero in both W_K and W_Q.  Each of the three keeps only the
    columns from its first to its last nonzero one, and h_V, h_K, h_Q
    are the stream rows those columns read, as views.  A block equal
    to c I is applied as c times its rows, or as the rows themselves
    for c = 1.  Without a softmax this equals the dense
    (W_V h) ((W_K h).T (W_Q h)) up to rounding, and forms no n x n
    score matrix.  Dropping zero columns drops only zero terms from
    each sum, and skipping a product by c I drops only those terms
    too, so neither adds a rounding.  Each element lies within
    4 (dim + n) u sum_heads (|W_V| |h|) (|W_K| |h|).T (|W_Q| |h|) + u |r|
    of the exact dense result r, with u = 2**-53.

    *h* is one stream ``(dim, n)`` or a stack ``(..., dim, n)``; the
    stack shares only the matmul dispatch.  The result is a new array,
    unless *out* is given: then it is written into *out*, which may be
    *h* itself.  Every head reads the layer's input before any head
    writes, so the bits do not depend on *out*.
    """
    h = _check_stream(h, layer.dim)
    updates = []
    for head in layer.heads:
        if head._compact is None:
            continue
        rows, v_cols, w_v, k_cols, w_k, q_cols, w_q = head._compact
        updates.append((rows, (
            _project(w_v, h, v_cols) @ _project(w_k, h, k_cols).mT
        ) @ _project(w_q, h, q_cols)))
    out = _target(h, out)
    for rows, update in updates:
        out[..., rows, :] += update
    return out


def ffn_forward(layer, h, *, out=None):
    """Residual feed-forward update: h + w2 relu(w1 h).

    The exact neurons run as that product.  Each PWL gadget's argument
    comes from one shared matmul; the gadget is evaluated by
    interpolation and added to its output row, which equals its ReLU
    neurons wherever the ones row holds 1.  Any other ones-row value
    raises ``ValueError`` naming the first offending column (and, for a
    stack, its slice).  A layer without an ffn passes h through
    unchanged.  The result is a new array unless *out* is given, as
    for :func:`attention_forward`: the update and the gadget arguments
    are computed from h before anything is written.
    """
    h = _check_stream(h, layer.dim)
    ffn = layer.ffn
    if ffn is None:
        return _target(h, out)
    delta = ffn.w2 @ np.maximum(ffn.w1 @ h, 0.0)
    if ffn.gadgets:
        ones = h[..., ffn.ones_row, :]
        bad = ones != 1.0
        if bad.any():
            first = tuple(np.argwhere(bad)[0].tolist())
            where = f" of slice {first[:-1]}" if first[:-1] else ""
            raise ValueError(
                f"ffn gadgets need ones row {ffn.ones_row} to hold 1.0; "
                f"column {first[-1]}{where} holds {float(ones[first])!r}"
            )
        pre = ffn._gadget_rows @ h
    out = _target(h, out)
    out += delta
    for i, g in enumerate(ffn.gadgets):
        out[..., g.out_row, :] += g.scale * eval_pwl(
            g.approx, pre[..., i, :]
        )
    return out


def model_forward(layers, h):
    """Run the stream through each layer: attention, then its ffn.

    *h* is copied once, and every layer updates that one working
    stream in place (through ``out=``); *h* itself is never written.
    Each layer checks its input; the last layer's output is checked
    here, so a stream that overflows raises ``ValueError`` instead of
    coming back non-finite.  An empty layer list returns a copy of the
    prompt.  *h* may be a stack of streams, as for
    :func:`attention_forward`.
    """
    layers = tuple(layers)
    stream = np.array(h, dtype=np.float64, order="C")
    for layer in layers:
        attention_forward(layer, stream, out=stream)
        if layer.ffn is not None:
            ffn_forward(layer, stream, out=stream)
    # with no layer, nothing has checked the prompt yet
    return as_stack(stream, "model output" if layers else "h")
