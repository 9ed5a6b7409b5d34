"""Linear-attention transformer forward pass.

Layers use attention without softmax: each head contributes
(W_V H) (W_K H).T (W_Q H) additively to the residual stream, and an
optional position-wise feed-forward block adds W_2 relu(W_1 H), whose
ReLU neurons all belong to piecewise-linear gadgets.
The constructed heads are block selectors, and a head is held in
that form: one value entry adding c times one band of stream rows to
another, and one plain band of rows each for the key and the query.
The scale c, which stands for c I, carries every scale and sign.  The
forward pass reads the bands as views and, with no softmax in between,
groups the product as ((W_V H) (W_K H).T) (W_Q H): a |value rows| x
|key rows| matrix in place of the n x n score matrix.  The dense
projections are derived from the bands on demand.
Feed-forward blocks hold only those gadgets, keep them whole and
evaluate them by interpolation; the dense (W_1, W_2) pair is derived
from them on demand.
Prompts are matrices with one column per token.  Their rows follow a
``PromptLayout``: named bands with their roles, declared once, in order,
from which rows, a prompt's constant part and the model dimension derive.
The forward functions take one stream ``(dim, n)`` or a stack of
streams ``(..., dim, n)`` and run every slice through the same
weights; each slice of the result is bit-identical to the call on that
slice alone.  ``model_forward`` runs every layer in place on one
working stream, through the layer functions' ``out=`` keyword: a copy
of its input, or with ``out=h`` the input itself, so a caller that
chains passes can keep one stream.  Called alone, the layer functions
and ``model_forward`` return a new array.  A builder's stack is a
:class:`Looped`: a prefix that runs once, then a weight-tied body that
runs once per pass, on one stream.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import _count, _real, as_stack
from .pwl import eval_pwl

__all__ = [
    "PromptLayout",
    "AttentionHead",
    "Ffn",
    "TransformerLayer",
    "attention_forward",
    "ffn_forward",
    "model_forward",
]

class PromptLayout:
    """Row layout of a prompt matrix: named bands of rows, in order.

    *bands* holds ``(name, size, fill, after)`` tuples tiling rows
    ``0 .. n_rows`` in order.  ``rows_of(name)`` is a band's rows as a
    slice and ``roles[name]`` its (fill, after): what a prompt holds
    there (``eye``: I in its leading columns, ``ones``, ``zero`` or
    ``input``) and what each pass of a stack's body leaves there
    (``kept``: the bits it found, ``cleared`` or ``updated``).  Any other
    band, a duplicate name and a size that is not a count >= 1 raise
    ``ValueError``.
    """

    def __init__(self, bands):
        self._rows = {}
        self.roles = {}
        start = 0
        for band in bands:
            if (not isinstance(band, tuple) or len(band) != 4
                    or band[2] not in ("eye", "ones", "zero", "input")
                    or band[3] not in ("kept", "cleared", "updated")):
                raise ValueError(f"band {band!r} is not (name, size, fill, "
                                 "after) with known roles")
            name, size, fill, after = band
            if name in self._rows:
                raise ValueError(f"duplicate band name {name!r}")
            size = _count(size, f"band {name!r} size", 1)
            self._rows[name] = slice(start, start + size)
            self.roles[name] = fill, after
            start += size
        self.n_rows = start

    def rows_of(self, name):
        return self._rows[name]

    def prompt(self, n, lead=()):
        """New ``(*lead, n_rows, n)`` zeros, each eye and ones band filled."""
        n = _count(n, "n", 1)
        h = np.zeros((*(_count(m, "lead", 0) for m in lead), self.n_rows, n))
        for rows, (fill, _) in zip(self._rows.values(), self.roles.values()):
            if fill == "eye":
                h[..., rows, :] = np.eye(_size(rows), n)
            elif fill == "ones":
                h[..., rows, :] = 1.0
        return h


@dataclass(frozen=True, eq=False)
class AttentionHead:
    """One linear-attention head, held as the bands its builder writes.

    A band is a run of stream rows: a slice with step 1, or one row
    index.  *value* is one ``(out_rows, src_rows, c)`` triple: the head
    adds c (h[src_rows] h[key].T) h[query] to the rows *out_rows*, where
    the scale c is a finite, nonzero real standing for c I on its band.
    *key* and *query* are one plain band each, of one size: the head's
    inner dimension.  A *value* that is not one triple (a list of
    entries included), a band that is not a run of rows inside
    ``0 .. dim`` (a ``(rows, c)`` pair included), sizes that disagree
    and a zero or non-finite scale raise ``ValueError`` naming the part.

    The dense projections ``w_v``, ``w_k`` and ``w_q`` are derived on
    first use, read-only; ``w_k`` and ``w_q`` are selectors that put the
    key and query bands on the inner rows ``0 .. size``.  Heads compare
    and hash by identity.
    """

    dim: int
    value: tuple
    key: slice | int
    query: slice | int

    def __post_init__(self):
        if not (isinstance(self.value, tuple) and len(self.value) == 3):
            raise ValueError(f"a head's value must be one (out_rows, "
                             f"src_rows, c) triple, got {self.value!r}")
        out, src, c = self.value
        out = _band(self.dim, "value out", out)
        src = _band(self.dim, "value src", src)
        _same_size("value out and src", out, src)
        key = _band(self.dim, "key", self.key)
        query = _band(self.dim, "query", self.query)
        _same_size("key and query", key, query)
        for name, given in (("value", (out, src, _scale("value scale", c))),
                            ("key", key), ("query", query)):
            object.__setattr__(self, name, given)

    @cached_property
    def w_v(self):
        return _dense(self.dim, *self.value)

    @cached_property
    def w_k(self):
        return _dense(self.dim, slice(0, _size(self.key)), self.key, 1.0)

    @cached_property
    def w_q(self):
        return _dense(self.dim, slice(0, _size(self.query)), self.query, 1.0)


def _size(rows):
    return rows.stop - rows.start


def _band(dim, name, rows):
    """*rows* as a slice inside ``0 .. dim``; one index is a one-row
    band, and anything but a slice or an index is no band."""
    band = slice(rows, rows + 1) if isinstance(rows, numbers.Real) else rows
    if not (isinstance(band, slice) and band.step in (None, 1)
            and all(isinstance(i, (int, np.integer))
                    for i in (band.start, band.stop))
            and 0 <= band.start < band.stop <= dim):
        raise ValueError(f"{name} band {band!r} is not a run of rows inside "
                         f"0 .. {dim}")
    return slice(int(band.start), int(band.stop))


def _same_size(name, a, b):
    if _size(a) != _size(b):
        raise ValueError(f"{name} bands hold {_size(a)} and {_size(b)} "
                         f"rows; their sizes must agree")


def _scale(name, c):
    if not (isinstance(c, numbers.Real) and math.isfinite(c) and c != 0.0):
        raise ValueError(f"{name} must be finite and nonzero, got {c!r}")
    return float(c)


def _check_row(dim, name, row):
    if not (isinstance(row, (int, np.integer)) and 0 <= row < dim):
        raise ValueError(f"{name} {row!r} is not a row inside "
                         f"0 .. {dim - 1}")


def _dense(dim, out, src, c):
    """The read-only dim x dim matrix holding c I on its (out rows,
    src rows) block and zeros elsewhere."""
    m = np.zeros((dim, dim))
    m[out, src] = c * np.eye(_size(out))
    m.flags.writeable = False
    return m


class Ffn:
    """A position-wise ReLU block made of PWL gadgets.

    Each :class:`~.pwl.PwlGadget` in *gadgets* stands for its
    ``pieces + 2`` ReLU neurons and is evaluated by interpolation, which
    needs the prompt's ``ones_row`` to hold exactly 1: biases go through
    that row rather than being stored separately.  Gadgets are admitted
    here, as a head admits its bands: an arg that is not a tuple of
    ``(row, coeff)`` pairs, a row, ``out_row`` or *ones_row* outside
    ``0 .. dim - 1`` (None included), a coeff or scale that is not a
    finite, nonzero real and an empty *gadgets* raise ``ValueError``
    naming the part.

    The pairs give the argument matrix, one row per gadget, in which a
    repeated row adds its coefficients.  ``w1, w2 = ffn`` derives the
    dense pair over all ``width`` neurons, the paper's object, from it
    on first use, each gadget's neurons after those of the gadgets
    before it, and caches it.
    """

    def __init__(self, dim, gadgets, ones_row):
        self.dim = dim
        self.gadgets = tuple(gadgets)
        self.ones_row = ones_row
        if not self.gadgets:
            raise ValueError("an ffn needs at least one gadget")
        _check_row(dim, "ffn ones_row", ones_row)
        self._gadget_rows = np.zeros((len(self.gadgets), dim))
        for i, g in enumerate(self.gadgets):
            name = f"ffn gadget {i}"
            if not (isinstance(g.arg, tuple) and all(
                    isinstance(p, tuple) and len(p) == 2 for p in g.arg)):
                raise ValueError(f"{name} arg {g.arg!r} is not (row, coeff) "
                                 "pairs")
            for row, coeff in g.arg:
                _check_row(dim, f"{name} arg row", row)
                self._gadget_rows[i, row] += _scale(f"{name} arg coeff", coeff)
            _scale(f"{name} scale", g.scale)
            _check_row(dim, f"{name} out_row", g.out_row)

    @property
    def width(self):
        return sum(g.width for g in self.gadgets)

    def __iter__(self):
        """Yield the dense w1, then w2, over every neuron."""
        return iter(self._dense)

    @cached_property
    def _dense(self):
        w1 = np.zeros((self.width, self.dim))
        w2 = np.zeros((self.dim, self.width))
        start = 0
        for g, arg in zip(self.gadgets, self._gadget_rows):
            knots, values = g.approx.knots, g.approx.values
            slopes = np.diff(values) / np.diff(knots)
            cols = slice(start + 1, start + g.width)
            w1[start, self.ones_row] = 1.0
            w1[cols] = arg
            w1[cols, self.ones_row] -= knots
            w2[g.out_row, start] = g.scale * values[0]
            w2[g.out_row, cols] = g.scale * np.append(
                np.diff(slopes, prepend=0.0), -slopes[-1])
            start = cols.stop
        return w1, w2


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


class Looped(tuple):
    """A looped stack: the layers of its first pass, *prefix* then
    *body*, as one tuple, which also holds ``n_prefix``.

    The prefix runs once and the body once per pass, so t passes run
    the ``len(prefix) + t * len(body)`` layers of ``prefix + body * t``.
    """

    def __new__(cls, prefix, body):
        self = super().__new__(cls, (*prefix, *body))
        self.n_prefix = len(prefix)
        return self

    def __getnewargs__(self):
        return self.prefix, self.body

    @property
    def prefix(self):
        return self[:self.n_prefix]

    @property
    def body(self):
        return self[self.n_prefix:]

    def run(self, h, passes):
        """Yield *h* after each of *passes* in-place runs of the body
        (``model_forward(..., out=h)``); a prefix runs once, at the first
        ``next()``.  *passes* goes through ``linalg._count`` at the call."""
        passes = _count(passes, "passes", 0)
        def chain():
            if self.n_prefix:
                model_forward(self.prefix, h, out=h)
            body = self.body
            for _ in range(passes):
                model_forward(body, h, out=h)
                yield h
        return chain()


def _check_stream(h, dim):
    h = as_stack(h, "h")
    if h.shape[-2] != dim:
        raise ValueError(
            f"h has {h.shape[-2]} rows, model dimension is {dim}"
        )
    return h


def _target(h, out):
    """The array a layer writes its result into: h itself when *out*
    is h, or a new copy of h when *out* is None."""
    if out is None:
        return h.copy()
    if out is not h:
        raise ValueError("out must be None or the stream h itself")
    return out


def attention_forward(layer, h, *, out=None):
    """Residual attention update: h + the sum of the layer's head
    contributions.  The layer's ffn, if any, is NOT applied here.

    Each head adds ((V K.T) Q) to its out band, with V = c h[src rows],
    K = h[key rows] and Q = h[query rows] (views, with no product).
    For c = 1, V is a view of the stream rows too.  For c = -1 the head
    subtracts the product with that view from its out band, which gives
    the bits of adding ((-V) K.T) Q up to the sign of an exact zero,
    since negation commutes with every rounding; except when src and
    key are one band, where V K.T of two views of one buffer goes to
    BLAS syrk, which rounds unlike the gemm that a new -V gets, so
    there -V is still made.
    Without a softmax this equals the dense
    (W_V h) ((W_K h).T (W_Q h)) up to rounding, forms no n x n score
    matrix and leaves out only zero terms, so each element lies within
    4 (dim + n) u sum_heads (|W_V| |h|) (|W_K| |h|).T (|W_Q| |h|) + u |r|
    of the exact dense result r, with u = 2**-53.

    *h* is one stream ``(dim, n)`` or a stack ``(..., dim, n)``; the
    stack shares only the matmul dispatch.  The result is a new array,
    unless *out* is *h* itself: then *h* is updated in place.  Every
    head reads the layer's input before any head writes, so the bits
    do not depend on *out*.
    """
    h = _check_stream(h, layer.dim)
    updates = []
    for head in layer.heads:
        rows, src, c = head.value
        subtract = c == -1.0 and src != head.key
        v = h[..., src, :] if c == 1.0 or subtract else c * h[..., src, :]
        updates.append((rows, np.subtract if subtract else np.add,
                         (v @ h[..., head.key, :].mT) @ h[..., head.query, :]))
    out = _target(h, out)
    for rows, op, update in updates:
        band = out[..., rows, :]
        op(band, update, out=band)
    return out


def ffn_forward(layer, h, *, out=None):
    """Residual feed-forward update: h + w2 relu(w1 h).

    Every gadget's argument comes from one shared matmul, the ffn's
    argument matrix times h; the gadget is evaluated by interpolation
    and added to its output row, in gadget order, which equals its ReLU
    neurons wherever the ones row holds 1.
    Any other ones-row value raises ``ValueError`` naming the first
    offending column (and, for a stack, its slice).  A layer without an
    ffn passes h through unchanged.  The result is a new array unless
    *out* is *h*, as for :func:`attention_forward`: the gadget arguments
    are computed from h before anything is written.
    """
    h = _check_stream(h, layer.dim)
    ffn = layer.ffn
    if ffn is None:
        return _target(h, out)
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
    for i, g in enumerate(ffn.gadgets):
        out[..., g.out_row, :] += g.scale * eval_pwl(
            g.approx, pre[..., i, :]
        )
    return out


def model_forward(layers, h, *, out=None):
    """Run the stream through each layer: attention, then its ffn.

    Every layer updates one working stream in place (through ``out=``).
    With *out* None that stream is a copy of *h*, returned new, and *h*
    is never written.  With *out* *h* itself, *h* is the working stream
    and is returned: it must then be a writeable float64 C-contiguous
    ndarray, or ``ValueError`` is raised before any layer runs.  Any
    other *out*, and a complex *h*, raise ``ValueError``.  The bits do
    not depend on *out*.  Each layer checks its input; the last layer's
    output is checked here, so a stream that overflows raises ``ValueError``
    instead of coming back non-finite (with ``out=h``, *h* then holds
    it).  An empty layer list returns the checked prompt: a copy, or
    *h* with ``out=h``.  *h* may be a stack of streams, as for
    :func:`attention_forward`.
    """
    layers = tuple(layers)
    if out is None:
        h = np.array(_real(h, "h"), dtype=np.float64, order="C")
    elif out is not h:
        raise ValueError("out must be None or the stream h itself")
    elif not (isinstance(h, np.ndarray) and h.dtype == np.float64
              and h.flags.c_contiguous and h.flags.writeable):
        raise ValueError("out=h needs h to be a writeable float64 "
                         "C-contiguous ndarray")
    for layer in layers:
        attention_forward(layer, h, out=h)
        if layer.ffn is not None:
            ffn_forward(layer, h, out=h)
    # with no layer, nothing has checked the prompt yet
    return as_stack(h, "model output" if layers else "h")
