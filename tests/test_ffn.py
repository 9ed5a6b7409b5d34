"""Feed-forward blocks that hold PWL gadgets whole.

The dense ReLU pair is derived from the gadgets, so these tests check
the derived pair by hand, check that widths are counted without it, and
check that the interpolating forward pass agrees with the dense one on
the logistic stack over random streams.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from newtonformer.builders import (
    build_logreg_newton_step,
    make_logistic_prompt,
    read_logistic_iterate,
    run_constructed_newton,
    width_depth_budget,
)
from newtonformer.logistic import LogisticProblem
from newtonformer.pwl import PwlApprox, PwlGadget
from newtonformer.transformer import (
    AttentionHead,
    Ffn,
    TransformerLayer,
    attention_forward,
    ffn_forward,
)

# knots 0..3 with slopes 2, 1, -0.5
THREE_PIECES = PwlApprox(np.arange(4.0), np.array([1.0, 3.0, 4.0, 3.5]))


def logreg_problem(seed, n=26, d=5, mu=0.1):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    a /= np.max(np.linalg.norm(a, axis=1))
    labels = np.sign(a @ rng.standard_normal(d))
    labels[labels == 0.0] = 1.0
    return LogisticProblem(a, labels, mu)


def with_ffn(dim, ffn):
    # ffn_forward runs only the ffn, so the layer's head is any head
    head = AttentionHead(dim, (0, 0, 1.0), key=0, query=0)
    return TransformerLayer(heads=(head,), ffn=ffn)


def dense_forward(layers, h):
    """The stack run with each ffn as its dense w2 relu(w1 h)."""
    for layer in layers:
        h = attention_forward(layer, h)
        if layer.ffn is not None:
            w1, w2 = layer.ffn
            h = h + w2 @ np.maximum(w1 @ h, 0.0)
    return h


def extended_dense(layer):
    """The layer's dense pair as sparse extended-precision matrices.

    Far outside a table's knot span the float64 dense product itself
    rounds by more than 1e-12: on the 4000-piece step-size table at an
    argument of 18 it is 1.35e-12 off, its first knot neuron alone
    contributing -729.  Evaluated in long double (64-bit significand on
    x86-64) the dense network is accurate to ~1e-15 there.
    """
    return tuple(sparse.csr_matrix(w.astype(np.longdouble))
                 for w in layer.ffn)


@pytest.fixture
def no_dense_view(monkeypatch):
    def refuse(self):
        raise AssertionError("dense view materialized")

    monkeypatch.setattr(Ffn, "_dense", property(refuse))


class TestDenseView:
    def test_ungated_three_piece_gadget(self):
        # rows: 0 argument, 1 ones, 2 output
        ffn = Ffn(3, [PwlGadget(THREE_PIECES, ((0, 1.0),), 2.0, 2)], 1)
        w1, w2 = ffn
        np.testing.assert_array_equal(w1, [
            [0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, -1.0, 0.0],
            [1.0, -2.0, 0.0],
            [1.0, -3.0, 0.0],
        ])
        expected_w2 = np.zeros((3, 5))
        expected_w2[2] = [2.0, 4.0, -2.0, -3.0, 1.0]
        np.testing.assert_array_equal(w2, expected_w2)

    def test_gated_gadget_keeps_neuron_order(self):
        # each gadget's neurons follow those of the gadgets before it;
        # rows: 0 and 1 arguments, 2 ones, 3 and 0 outputs
        two_pieces = PwlApprox(np.array([0.0, 1.0, 2.0]),
                               np.array([0.0, 1.0, 0.0]))
        gadgets = [PwlGadget(THREE_PIECES, ((0, 1.0),), 1.0, 3),
                   PwlGadget(two_pieces, ((1, 1.0),), -1.0, 0),
                   PwlGadget(THREE_PIECES, ((0, 1.0), (1, 1.0)), 0.5, 3)]
        w1, w2 = Ffn(4, gadgets, 2)
        assert w1.shape == (14, 4) and w2.shape == (4, 14)
        start = 0
        for g in gadgets:
            alone_w1, alone_w2 = Ffn(4, [g], 2)
            cols = slice(start, start + g.width)
            np.testing.assert_array_equal(w1[cols], alone_w1)
            np.testing.assert_array_equal(w2[:, cols], alone_w2)
            start = cols.stop
        np.testing.assert_array_equal(w1[5:9], [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, -1.0, 0.0],
            [0.0, 1.0, -2.0, 0.0],
        ])
        np.testing.assert_array_equal(w2[0, 5:9], [-0.0, -1.0, 2.0, -1.0])
        assert start == 14

    def test_view_is_cached(self):
        ffn = Ffn(3, [PwlGadget(THREE_PIECES, ((0, 1.0),), 1.0, 2)], 1)
        first, second = tuple(ffn), tuple(ffn)
        assert first[0] is second[0] and first[1] is second[1]

    def test_layer_rejects_dense_pair(self):
        rng = np.random.default_rng(0)
        w1, w2 = rng.standard_normal((5, 3)), rng.standard_normal((3, 5))
        with pytest.raises(TypeError, match="None or an Ffn, got tuple"):
            with_ffn(3, (w1, w2))
        ffn = Ffn(3, [PwlGadget(THREE_PIECES, ((0, 1.0),), 1.0, 2)], 1)
        with pytest.raises(TypeError, match="None or an Ffn, got tuple"):
            with_ffn(3, tuple(ffn))
        assert with_ffn(3, ffn).ffn is ffn and ffn.width == 5


class TestWidth:
    def test_gadget_counts_pieces_plus_two(self, no_dense_view):
        gadgets = [PwlGadget(THREE_PIECES, ((0, 1.0),), 1.0, 3),
                   PwlGadget(THREE_PIECES, ((1, 1.0),), -0.5, 3)]
        assert [g.width for g in gadgets] == [5, 5]
        assert Ffn(4, gadgets, 2).width == 10

    def test_product_layer_at_fine_eps(self, no_dense_view):
        budget = width_depth_budget(5e-3, 0.1, d=5)
        layers, _ = build_logreg_newton_step(budget)
        assert layers[1].ffn.width == 320_020


class TestOnesRow:
    def test_broken_ones_row_is_named(self):
        ffn = Ffn(3, [PwlGadget(THREE_PIECES, ((0, 1.0),), 1.0, 2)], 1)
        layer = with_ffn(3, ffn)
        h = np.vstack([np.linspace(0.0, 3.0, 4), np.ones(4), np.zeros(4)])
        h[1, 2] = 0.5
        with pytest.raises(ValueError, match="ones row 1.*column 2"):
            ffn_forward(layer, h)


class TestGadgetChecks:
    """An Ffn admits each gadget when it is made, not in the forward
    pass: it names a gadget or ones row that does not fit its
    dimension, and a gadget part that is no (row, coeff) pair, row or
    finite, nonzero real."""

    @staticmethod
    def ffn(arg=((0, 1.0), (1, 1.0), (2, 1.0)), out_row=2, ones_row=1):
        gadget = PwlGadget(THREE_PIECES, arg, 1.0, out_row)
        return Ffn(3, [gadget], ones_row)

    def test_fitting_gadget_is_accepted(self):
        assert self.ffn(out_row=np.int64(0)).width == 5

    def test_repeated_row_adds_its_coefficients(self):
        ffn = self.ffn(arg=((0, 1.0), (2, 0.5), (0, -3.0)))
        np.testing.assert_array_equal(ffn._gadget_rows, [[-2.0, 0.0, 0.5]])

    FITTING = dict(approx=THREE_PIECES, arg=((0, 1.0),), scale=1.0,
                   out_row=2)
    # each bad part given to gadget 1, after a fitting gadget 0, and the
    # part the error names
    BAD_PARTS = {
        **{f"coeff {c!r}": (dict(arg=((0, c),)), "arg coeff must be finite "
                            f"and nonzero, got {c!r}")
           for c in (math.nan, math.inf, 0.0, 1j, "1.0")},
        **{f"scale {c!r}": (dict(scale=c), "scale must be finite and "
                            f"nonzero, got {c!r}")
           for c in (math.nan, math.inf, 0.0, "1.0")},
        **{f"row {row!r}": (dict(arg=((row, 1.0),)), f"arg row {row!r} is "
                            "not a row inside 0 .. 2")
           for row in (-1, 3, 1.0)},
        **{name: (dict(arg=arg), f"arg {arg!r} is not (row, coeff) pairs")
           for name, arg in (("dense vector", np.ones(3)),
                             ("dict", {0: 1.0}))},
    }

    @pytest.mark.parametrize("case", list(BAD_PARTS))
    def test_bad_part_is_named(self, case):
        given, message = self.BAD_PARTS[case]
        gadgets = [PwlGadget(**self.FITTING),
                   PwlGadget(**{**self.FITTING, **given})]
        with pytest.raises(ValueError,
                           match="^" + re.escape(f"ffn gadget 1 {message}")
                                 + "$"):
            Ffn(3, gadgets, 1)

    @pytest.mark.parametrize("out_row", [3, 7, -1, 1.0])
    def test_out_row_is_named(self, out_row):
        with pytest.raises(ValueError,
                           match=re.escape(f"ffn gadget 0 out_row "
                                           f"{out_row!r} is not a row inside "
                                           f"0 .. 2")):
            self.ffn(out_row=out_row)

    @pytest.mark.parametrize("ones_row", [3, -1, None, 1.0])
    def test_ones_row_is_named(self, ones_row):
        with pytest.raises(ValueError,
                           match=re.escape(f"ffn ones_row {ones_row} is not "
                                           f"a row inside 0 .. 2")):
            self.ffn(ones_row=ones_row)


@pytest.fixture(scope="module")
def stack():
    problem = logreg_problem(0)
    budget = width_depth_budget(1e-2, 0.1, d=5)
    layers, layout = build_logreg_newton_step(budget)
    ffn_layers = [(layer, extended_dense(layer))
                  for layer in layers if layer.ffn is not None]
    return problem, budget, layers, layout, ffn_layers


@st.composite
def streams(draw, layout):
    n_cols = draw(st.integers(1, 8))
    h = draw(arrays(np.float64, (layout.n_rows, n_cols),
                    elements=st.floats(-45.0, 45.0)))
    h[layout.rows_of("ones").start] = 1.0
    return h


class TestDenseParity:
    # derandomized so every run draws the same 100 streams
    @settings(derandomize=True, deadline=None)
    @given(data=st.data())
    def test_structured_matches_dense_forward(self, stack, data):
        _, _, _, layout, ffn_layers = stack
        h = data.draw(streams(layout))
        wide = h.astype(np.longdouble)
        for layer, (w1, w2) in ffn_layers:
            want = wide + w2 @ np.maximum(w1 @ wide, 0.0)
            got = ffn_forward(layer, h)
            assert np.all(np.abs(got - want)
                          <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_constructed_newton_matches_dense_stack(self, stack):
        problem, budget, layers, layout, _ = stack
        x0 = np.full(5, 0.3)
        xs = run_constructed_newton(problem, x0, budget, 3)
        h = make_logistic_prompt(problem, x0)
        for x in xs[1:]:
            h = dense_forward(layers, h)
            np.testing.assert_allclose(x, read_logistic_iterate(h, layout),
                                       rtol=0, atol=1e-12)
