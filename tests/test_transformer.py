import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from dense_attention import attention_error_bound, dense_attention_forward
from hypothesis import given, settings
from hypothesis import strategies as st
from unrolled import linreg_stack

from newtonformer import inversion
from newtonformer.errors import ShapeMismatchError
from newtonformer.builders import (
    build_inversion_block,
    build_linreg_transformer,
    build_logreg_newton_step,
    make_inversion_prompt,
    make_linreg_prompt,
    make_logistic_prompt,
    width_depth_budget,
)
from newtonformer.logistic import LogisticProblem, NewtonState
from newtonformer.pwl import PwlApprox, PwlGadget
from newtonformer.transformer import (
    AttentionHead,
    Ffn,
    Looped,
    PromptLayout,
    TransformerLayer,
    attention_forward,
    ffn_forward,
    model_forward,
)


def random_band(rng, dim, size):
    start = int(rng.integers(0, dim - size + 1))
    return slice(start, start + size)


def random_scale(rng):
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.5))


def random_heads(rng, dim):
    """Heads on random bands with random value scales: the rows split
    into runs, most runs the out band of one head, and all of them
    share key and query bands of one random size."""
    cuts = np.flatnonzero(rng.random(dim - 1) < 0.4) + 1
    runs = [run for run in np.split(np.arange(dim), cuts)
            if rng.random() < 0.7] or [np.arange(dim)]
    size = int(rng.integers(1, dim + 1))
    key, query = random_band(rng, dim, size), random_band(rng, dim, size)
    return tuple(AttentionHead(dim, (slice(int(run[0]), int(run[-1]) + 1),
                                     random_band(rng, dim, run.size),
                                     random_scale(rng)),
                               key=key, query=query)
                 for run in runs)


def draw_runs(data, dim):
    """Rows 0 .. dim split into runs at drawn cuts, as (start, stop)."""
    cuts = data.draw(st.lists(st.booleans(), min_size=dim - 1,
                              max_size=dim - 1))
    starts = [0] + [i + 1 for i, cut in enumerate(cuts) if cut]
    return list(zip(starts, starts[1:] + [dim]))


def identity_head(dim):
    """V, K and Q all the whole stream: the head adds h h.T h."""
    rows = slice(0, dim)
    return AttentionHead(dim, (rows, rows, 1.0), key=rows, query=rows)


def gadget_ffn(dim, gadgets, ones_row):
    """An Ffn of ``(approx, arg, out_row, scale)`` gadgets."""
    return Ffn(dim, [PwlGadget(approx, np.asarray(arg, dtype=float),
                               scale, out_row)
                     for approx, arg, out_row, scale in gadgets], ones_row)


def random_gadget_layer(rng, dim):
    """Two draws of random heads and a random gadget ffn on ``dim`` rows
    plus a last ones row, which no head writes."""
    heads = tuple(AttentionHead(dim + 1, head.value, head.key, head.query)
                  for _ in range(2) for head in random_heads(rng, dim))
    gadgets = []
    for _ in range(3):
        knots = np.sort(rng.uniform(-3.0, 3.0, 5))
        arg = np.append(rng.standard_normal(dim), rng.standard_normal())
        gadgets.append((PwlApprox(knots, rng.standard_normal(5)), arg,
                        int(rng.integers(dim)), float(rng.uniform(-1, 1))))
    return TransformerLayer(heads=heads,
                            ffn=gadget_ffn(dim + 1, gadgets, dim))


def assert_within_bound(layer, h):
    """attention_forward(layer, h) lies within the stated bound of the
    exact result; the dense formula in extended precision stands in for
    exact."""
    out = attention_forward(layer, h)
    ref = dense_attention_forward(layer, h, np.longdouble)
    assert np.all(np.abs(out - ref) <= attention_error_bound(layer, h, ref))


def assert_every_head_within_bound(layers, h):
    """Each head of *layers*, alone and with its layer's other heads,
    on the stream that reaches its layer."""
    for layer in layers:
        for head in layer.heads:
            assert_within_bound(TransformerLayer(heads=(head,)), h)
        assert_within_bound(layer, h)
        h = model_forward([layer], h)


def spd(rng, d):
    m = rng.standard_normal((d, d))
    return m @ m.T + d * np.eye(d)


def scaled_start(a):
    """run_inverse's start alpha a^T for the symmetric *a*, whose
    alpha is spd_initial_scale(sigma**2)."""
    sigma = np.linalg.norm(a, 2)
    return inversion.spd_initial_scale(sigma * sigma) * a


def _array_dataclasses():
    knots = np.array([0.0, 1.0])
    approx = PwlApprox(knots, knots)
    return {
        "AttentionHead": lambda: identity_head(2),
        "PwlApprox": lambda: PwlApprox(knots, knots),
        "PwlGadget": lambda: PwlGadget(approx, np.ones(2), 1.0, 0),
        "LogisticProblem": lambda: LogisticProblem(np.eye(2), np.ones(2),
                                                   0.1),
        "NewtonState": lambda: NewtonState(np.zeros(2), 1.0, 0.5, 0.8),
    }


@pytest.mark.parametrize("name", sorted(_array_dataclasses()))
def test_array_dataclasses_compare_and_hash_by_identity(name):
    make = _array_dataclasses()[name]
    first, twin = make(), make()
    assert first == first and first != twin
    assert hash(first) == hash(first)
    assert len({first, twin, first}) == 2


ZERO = ("zero", "cleared")  # the roles of a band these tests do not read


class TestPromptLayout:
    def test_bands_tile_rows_in_order(self):
        layout = PromptLayout((("top", 2, "eye", "kept"),
                               ("ones", 1, "ones", "kept"),
                               ("rest", 3, *ZERO)))
        assert layout.n_rows == 6
        assert layout.rows_of("top") == slice(0, 2)
        assert layout.rows_of("ones") == slice(2, 3)
        assert layout.rows_of("rest") == slice(3, 6)
        assert list(layout.roles.values()) == [("eye", "kept"),
                                               ("ones", "kept"), ZERO]
        with pytest.raises(KeyError):
            layout.rows_of("missing")

    @pytest.mark.parametrize("band, message", [
        (("a", 1, *ZERO), "duplicate band name 'a'"),
        (("b", 0, *ZERO), "band 'b' size must be >= 1, got 0"),
        (("b", -1, *ZERO), "band 'b' size must be >= 1, got -1"),
        (("b", 2.5, *ZERO), "band 'b' size must be an integer, got 2.5"),
        (("b", math.nan, *ZERO), "band 'b' size must be >= 1, got nan"),
        (("b", "3", *ZERO), "band 'b' size must be an integer, got 3"),
        (("b", 1, "eye", "gone"), "band ('b', 1, 'eye', 'gone') is not"),
        (("b", 1, "full", "kept"), "band ('b', 1, 'full', 'kept') is not"),
        (("b", 1, "kept", "eye"), "band ('b', 1, 'kept', 'eye') is not"),
        (("b", 1), "band ('b', 1) is not"),
        ("abcd", "band 'abcd' is not"),
        (5, "band 5 is not"),
    ])
    def test_rejects_a_bad_band(self, band, message):
        if message.endswith(" is not"):
            message += " (name, size, fill, after) with known roles"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PromptLayout((("a", 2, *ZERO), band))

    def test_numpy_integer_size(self):
        layout = PromptLayout((("a", np.int64(2), *ZERO), ("b", 1, *ZERO)))
        assert layout.rows_of("a") == slice(0, 2) and layout.n_rows == 3


class TestAttentionForward:
    def test_matches_explicit_formula(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((5, 7))
        heads = random_heads(rng, 5) + random_heads(rng, 5)
        expected = h.copy()
        for head in heads:
            expected = expected + (head.w_v @ h) @ (
                (head.w_k @ h).T @ (head.w_q @ h)
            )
        layer = TransformerLayer(heads=tuple(heads))
        np.testing.assert_allclose(attention_forward(layer, h), expected,
                                   rtol=1e-13, atol=1e-13)

    def test_appended_zero_columns_stay_zero(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((4, 5))
        padded = np.hstack([h, np.zeros((4, 3))])
        layer = TransformerLayer(heads=random_heads(rng, 4))
        out = attention_forward(layer, padded)
        np.testing.assert_allclose(out[:, :5], attention_forward(layer, h),
                                   rtol=1e-14, atol=1e-15)
        np.testing.assert_array_equal(out[:, 5:], np.zeros((4, 3)))

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((4, 6))
        perm = rng.permutation(6)
        layer = TransformerLayer(heads=random_heads(rng, 4)
                                 + random_heads(rng, 4))
        out = attention_forward(layer, h)
        out_perm = attention_forward(layer, h[:, perm])
        np.testing.assert_allclose(out_perm, out[:, perm],
                                   rtol=1e-12, atol=1e-13)

    def test_dimension_mismatch(self):
        layer = TransformerLayer(heads=(identity_head(3),))
        with pytest.raises(ValueError):
            attention_forward(layer, np.zeros((4, 2)))


class TestCompactedHeads:
    def test_inversion_stack_heads(self):
        rng = np.random.default_rng(10)
        a = spd(rng, 4)
        layers, _ = build_inversion_block(4)
        assert_every_head_within_bound(
            layers, make_inversion_prompt(a, scaled_start(a)))

    def test_linreg_stack_heads(self):
        rng = np.random.default_rng(11)
        d, n = 4, 12
        a = rng.standard_normal((n, d))
        y = a @ rng.standard_normal(d)
        layers, _ = linreg_stack(d, 3, ridge_mu=0.1)
        h = make_linreg_prompt(a, y, rng.standard_normal(d))
        assert_every_head_within_bound(layers, h)

    def test_logistic_stack_heads(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((26, 5))
        a /= np.max(np.linalg.norm(a, axis=1))
        labels = np.where(a @ rng.standard_normal(5) < 0.0, -1.0, 1.0)
        problem = LogisticProblem(a, labels, 0.1)
        layers, _ = build_logreg_newton_step(
            width_depth_budget(1e-2, 0.1, d=5)
        )
        h = make_logistic_prompt(problem, np.full(5, 0.3))
        assert_every_head_within_bound(layers, h)

    def test_non_contiguous_value_rows(self):
        rng = np.random.default_rng(15)
        layer = TransformerLayer(heads=tuple(
            AttentionHead(7, value, key=slice(1, 4), query=slice(4, 7))
            for value in ((0, 3, 0.8), (2, 6, -1.0), (5, 1, 1.0))))
        h = rng.standard_normal((7, 4))
        out = attention_forward(layer, h)
        untouched = [1, 3, 4, 6]
        np.testing.assert_array_equal(out[untouched], h[untouched])
        assert_within_bound(layer, h)

    @pytest.mark.parametrize("n", [1, 3])
    def test_narrow_streams(self, n):
        rng = np.random.default_rng(16 + n)
        layer = TransformerLayer(heads=random_heads(rng, 8)
                                 + random_heads(rng, 8))
        assert_within_bound(layer, rng.standard_normal((8, n)))

    # derandomized so every run draws the same 200 layers
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(dim=st.integers(1, 9), n=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_random_band_heads(self, dim, n, seed, data):
        scales = st.one_of(st.sampled_from([1.0, -1.0]),
                           st.floats(0.1, 3.0), st.floats(-3.0, -0.1))

        def band(size):
            start = data.draw(st.integers(0, dim - size))
            # a one-row band may be given as its row index
            if size == 1 and data.draw(st.booleans()):
                return start
            return slice(start, start + size)

        heads = []
        for _ in range(data.draw(st.integers(1, 2))):
            # one group of heads on shared key and query bands
            size = data.draw(st.integers(1, dim))
            key, query = band(size), band(size)
            values = []
            for start, stop in draw_runs(data, dim):
                # 0: a run the group leaves alone; 1: one head's out band
                for _ in range(data.draw(st.integers(0, 1))):
                    values.append((slice(start, stop), band(stop - start),
                                   data.draw(scales)))
            if not values:  # a group holds at least one head
                values.append((slice(0, dim), band(dim), data.draw(scales)))
            heads += [AttentionHead(dim, value, key=key, query=query)
                      for value in data.draw(st.permutations(values))]
        layer = TransformerLayer(heads=tuple(heads))
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((dim, n))
        assert_within_bound(layer, h)
        assert_out_matches_fresh(attention_forward, layer, h)
        stack = rng.standard_normal((2, dim, n))
        assert_slices_equal(attention_forward, layer, stack)
        assert_out_matches_fresh(attention_forward, layer, stack)

    def test_linreg_newton_heads_read_d_columns(self):
        d = 4
        layers, _ = build_linreg_transformer(d)
        (step,) = layers.body
        assert step.dim > d
        for head in step.heads[:2]:
            out, src, c = head.value
            bands = (out, src, head.key, head.query)
            assert [rows.stop - rows.start for rows in bands] == [d] * 4
            # each value block is +-I, kept as a scalar: no projection
            # matrix
            assert abs(c) == 1.0 and type(c) is float

    def test_projections_are_read_only_copies(self):
        rows = slice(0, 3)
        head = AttentionHead(3, (rows, rows, 1.0), key=rows, query=rows)
        assert head.value == (rows, rows, 1.0)
        for name in ("w_v", "w_k", "w_q"):
            view = getattr(head, name)
            assert getattr(head, name) is view  # derived once
            np.testing.assert_array_equal(view, np.eye(3))
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = 2.0
        layer = TransformerLayer(heads=(head,))
        h = np.ones((3, 2))
        np.testing.assert_array_equal(attention_forward(layer, h), 7.0 * h)

    def test_key_and_query_sit_on_the_leading_inner_rows(self):
        head = AttentionHead(6, (4, 5, 2.0), key=3, query=1)
        want_v, want_k, want_q = np.zeros((3, 6, 6))
        want_v[4, 5], want_k[0, 3], want_q[0, 1] = 2.0, 1.0, 1.0
        for view, want in zip((head.w_v, head.w_k, head.w_q),
                              (want_v, want_k, want_q)):
            np.testing.assert_array_equal(view, want)

    @pytest.mark.parametrize("value, key, query, message", [
        ((slice(2, 5), slice(0, 3), 1.0), slice(0, 1), slice(0, 1),
         "value out band slice(2, 5, None) is not a run of rows "
         "inside 0 .. 4"),
        ((0, 4, 1.0), slice(0, 1), slice(0, 1),
         "value src band slice(4, 5, None) is not"),
        ((0, 1, 1.0), slice(3, 6), slice(0, 3),
         "key band slice(3, 6, None) is not"),
        ((0, 1, 1.0), slice(0, 1), slice(0, 4, 2),
         "query band slice(0, 4, 2) is not"),
        ((1.5, 0, 1.0), slice(0, 1), slice(0, 1),
         "value out band slice(1.5, 2.5, None) is not"),
        ((0, 1, 1.0), slice(None, 2), slice(0, 2),
         "key band slice(None, 2, None) is not"),
        ((0, 1, 1.0), slice(0, 2), slice(1, 2),
         "key and query bands hold 2 and 1 rows; their sizes must agree"),
        ((slice(1, 3), slice(0, 3), 1.0), slice(0, 1), slice(0, 1),
         "value out and src bands hold 2 and 3 rows; their sizes must "
         "agree"),
    ])
    def test_band_errors_are_named(self, value, key, query, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            AttentionHead(4, value, key=key, query=query)

    @pytest.mark.parametrize("where, bad", [
        ("value out", None), ("value out", (0, 1)), ("value src", "0"),
        ("value src", [0]), ("key", None), ("key", (2, 1.0)),
        ("query", (2, -1.0)), ("query", np.array([0])),
    ], ids=["out-None", "out-tuple", "src-str", "src-list", "key-None",
            "key-pair", "query-pair", "query-array"])
    def test_malformed_bands_are_named(self, where, bad):
        # anything but a slice or a row index is no band, and gets the
        # band error rather than whatever reading it as one would raise;
        # scales sit on the value entry, so a (rows, c) key or query
        # is no band either
        bands = {"value out": 0, "value src": 1, "key": 2, "query": 2,
                 where: bad}
        with pytest.raises(ValueError,
                           match=f"^{where} band .* is not a run of rows "
                                 f"inside 0 .. 3$"):
            AttentionHead(3, (bands["value out"], bands["value src"], 1.0),
                          key=bands["key"], query=bands["query"])

    def test_head_needs_a_value_entry(self):
        for empty in ((), []):
            with pytest.raises(ValueError, match="^" + re.escape(
                    "a head's value must be one (out_rows, src_rows, c) "
                    "triple, got")):
                AttentionHead(3, empty, key=0, query=0)

    @pytest.mark.parametrize("value", [
        [(0, 1, 1.0)],
        [(0, 1, 1.0), (1, 2, -1.0)],
        ((0, 1, 1.0),),
        ((0, 1, 1.0), (1, 2, -1.0)),
        [0, 1, 1.0],
        (0, 1),
    ], ids=["one-entry-list", "two-entry-list", "one-entry-tuple",
            "two-entry-tuple", "list-triple", "pair"])
    def test_value_is_one_triple(self, value):
        # a head moves one band: a list of entries, even of one, is no
        # value entry, and gets the named error
        with pytest.raises(ValueError,
                           match=re.escape("a head's value must be one "
                                           "(out_rows, src_rows, c) triple, "
                                           f"got {value!r}")):
            AttentionHead(3, value, key=2, query=2)

    # the error names the part that holds the bad scale
    @pytest.mark.parametrize("where", ["value"])
    @pytest.mark.parametrize("c", [0.0, -0.0, math.inf, -math.inf,
                                   math.nan])
    def test_scale_must_be_finite_and_nonzero(self, where, c):
        with pytest.raises(ValueError,
                           match=f"^{where} scale must be finite and "
                                 f"nonzero, got {c}$"):
            AttentionHead(3, (0, 1, c), key=2, query=2)


class TestFfnForward:
    # a relu-like table: 0 up to knot 0, then the identity up to knot 1
    RAMP = PwlApprox(np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    def test_zero_second_matrix_is_identity(self):
        # a table of zeros gives its neurons zero output weights
        rng = np.random.default_rng(4)
        h = rng.standard_normal((3, 5))
        h[2] = 1.0
        zeros = PwlApprox(np.arange(4.0), np.zeros(4))
        layer = TransformerLayer(
            heads=(identity_head(3),),
            ffn=gadget_ffn(3, [(zeros, rng.standard_normal(3), 0, 1.0),
                               (zeros, rng.standard_normal(3), 1, -2.0)], 2),
        )
        np.testing.assert_array_equal(tuple(layer.ffn)[1], np.zeros((3, 10)))
        np.testing.assert_array_equal(ffn_forward(layer, h), h)

    def test_all_negative_preactivations_pass_through(self):
        h = np.vstack([-np.ones(3), np.ones(3)])
        layer = TransformerLayer(
            heads=(identity_head(2),),
            ffn=gadget_ffn(2, [(self.RAMP, [1.0, 0.0], 0, 1.0),
                               (self.RAMP, [2.0, -0.5], 0, 3.0)], 1),
        )
        w1, _ = layer.ffn
        knot_neurons = np.delete(w1 @ h, [0, 3], axis=0)
        assert (knot_neurons < 0.0).all()
        np.testing.assert_array_equal(ffn_forward(layer, h), h)

    def test_missing_ffn_is_a_copy(self):
        h = np.ones((2, 3))
        layer = TransformerLayer(
            heads=(identity_head(2),),
        )
        out = ffn_forward(layer, h)
        np.testing.assert_array_equal(out, h)
        assert out is not h

    def test_ffn_shape_validation(self):
        head = identity_head(2)
        with pytest.raises(ValueError, match="arg has shape"):
            gadget_ffn(2, [(self.RAMP, np.ones(3), 0, 1.0)], 1)
        with pytest.raises(ValueError, match="out_row 2"):
            gadget_ffn(2, [(self.RAMP, np.ones(2), 2, 1.0)], 1)
        with pytest.raises(ValueError, match="ffn dimension 3"):
            TransformerLayer(heads=(head,),
                             ffn=gadget_ffn(3, [(self.RAMP, np.ones(3), 0,
                                                 1.0)], 2))


class TestModelForward:
    def test_empty_model_copies_prompt(self):
        h = np.ones((3, 2))
        out = model_forward([], h)
        np.testing.assert_array_equal(out, h)
        assert out is not h

    def test_composition_matches_stepwise_application(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal((5, 5))
        h[4] = 1.0
        layers = [random_gadget_layer(rng, 4) for _ in range(3)]
        manual = h
        for layer in layers:
            manual = ffn_forward(layer, attention_forward(layer, manual))
        np.testing.assert_array_equal(model_forward(layers, h), manual)

    def test_looped_stack_round_trips_through_pickle(self):
        # unpickling rebuilds a Looped from its prefix and body
        layers, _ = build_linreg_transformer(2)
        back = pickle.loads(pickle.dumps(layers))
        assert type(back) is Looped
        assert (back.n_prefix, len(back.prefix), len(back.body)) == (4, 4, 1)

    def test_prefix_then_suffix_equals_whole(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((3, 4))
        layers = [TransformerLayer(heads=random_heads(rng, 3))
                  for _ in range(4)]
        whole = model_forward(layers, h)
        split = model_forward(layers[2:], model_forward(layers[:2], h))
        np.testing.assert_array_equal(whole, split)

    def test_overflowing_output_is_named(self):
        # The last layer's output is checked, not only each layer's input.
        first = build_inversion_block(2)[0][:1]
        big = 1e200 * np.eye(2)
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="model output"):
            model_forward(first, make_inversion_prompt(big, big))

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((3, 4))
        layer = TransformerLayer(heads=random_heads(rng, 3))
        np.testing.assert_array_equal(model_forward([layer], h),
                                      model_forward([layer], h))


@pytest.fixture(scope="module")
def constructions():
    """Per construction, its layers and a maker of one random prompt
    for them."""
    rng = np.random.default_rng(20)
    d, n = 3, 7

    def inversion_prompt(rng):
        a = spd(rng, d)
        return make_inversion_prompt(a, scaled_start(a))

    def linreg_prompt(rng):
        return make_linreg_prompt(rng.standard_normal((n, d)),
                                  rng.standard_normal(n),
                                  rng.standard_normal(d))

    a = rng.standard_normal((26, 5))
    a /= np.max(np.linalg.norm(a, axis=1))
    labels = np.where(a @ rng.standard_normal(5) < 0.0, -1.0, 1.0)
    problem = LogisticProblem(a, labels, 0.1)

    def logistic_prompt(rng):
        return make_logistic_prompt(problem, rng.uniform(-1.0, 1.0, 5))

    logistic_layers, _ = build_logreg_newton_step(
        width_depth_budget(1e-2, 0.1, d=5))
    return {
        "inversion": (build_inversion_block(d)[0], inversion_prompt),
        "linreg": (linreg_stack(d, 2, ridge_mu=0.1)[0], linreg_prompt),
        "logistic": (logistic_layers, logistic_prompt),
    }


def assert_slices_equal(fn, layers, h):
    """fn(layers, h) on the stack equals fn on each slice alone, bit for
    bit."""
    got = fn(layers, h)
    assert got.shape == h.shape
    for idx in np.ndindex(h.shape[:-2]):
        assert np.array_equal(got[idx], fn(layers, h[idx]))


def full_width_attention_forward(layer, h):
    """The dense formula on the rows W_V writes and the inner rows W_K
    and W_Q share: each of those projection rows multiplies every
    stream row."""
    out = h.copy()
    for head in layer.heads:
        v_rows = np.flatnonzero(head.w_v.any(axis=1))
        kq_rows = np.flatnonzero(head.w_k.any(axis=1) & head.w_q.any(axis=1))
        out[..., v_rows, :] += (
            (head.w_v[v_rows] @ h) @ (head.w_k[kq_rows] @ h).mT
        ) @ (head.w_q[kq_rows] @ h)
    return out


@pytest.mark.parametrize("case", ["inversion", "linreg", "logistic"])
def test_column_compaction_changes_no_bit_of_the_constructions(
        constructions, case):
    # every constructed projection row has one nonzero entry, or +-1
    # entries whose products are exact, so zero columns add only zeros
    layers, make_prompt = constructions[case]
    rng = np.random.default_rng(23)
    h = np.stack([make_prompt(rng) for _ in range(3)])
    for layer in layers:
        assert np.array_equal(attention_forward(layer, h),
                              full_width_attention_forward(layer, h))
        h = model_forward([layer], h)


class TestStackedStreams:
    """A stack of streams (..., dim, n) runs each slice as its own 2-D
    call would."""

    # derandomized so every run draws the same stacks
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(case=st.sampled_from(["inversion", "linreg", "logistic"]),
           batch=st.one_of(st.tuples(st.integers(1, 4)), st.just((2, 3))),
           seed=st.integers(0, 2**32 - 1))
    def test_stack_equals_per_slice_calls(self, constructions, case, batch,
                                          seed):
        layers, make_prompt = constructions[case]
        rng = np.random.default_rng(seed)
        prompts = [make_prompt(rng) for _ in range(math.prod(batch))]
        h = np.reshape(prompts, batch + prompts[0].shape)
        assert_slices_equal(model_forward, layers, h)
        for layer in layers:
            assert_slices_equal(attention_forward, layer, h)
            assert_slices_equal(ffn_forward, layer, h)
            h = model_forward([layer], h)

    def test_stack_within_dense_bound(self, constructions):
        layers, make_prompt = constructions["linreg"]
        rng = np.random.default_rng(22)
        h = np.stack([make_prompt(rng) for _ in range(4)]).reshape(
            2, 2, layers[0].dim, -1)
        assert_every_head_within_bound(layers, h)

    def test_empty_model_copies_stack(self):
        h = np.ones((2, 3, 2))
        out = model_forward([], h)
        np.testing.assert_array_equal(out, h)
        assert out is not h

    @pytest.mark.parametrize("fn", [attention_forward, ffn_forward,
                                    lambda layer, h: model_forward([layer], h)])
    def test_stream_errors(self, constructions, fn):
        layers, make_prompt = constructions["linreg"]
        layer = layers[0]
        with pytest.raises(ShapeMismatchError, match="at least 2-D"):
            fn(layer, np.ones(layer.dim))
        h = np.stack([make_prompt(np.random.default_rng(k))
                      for k in range(3)])
        with pytest.raises(ValueError,
                           match=f"h has {layer.dim + 1} rows, model "
                                 f"dimension is {layer.dim}"):
            fn(layer, np.ones((3, layer.dim + 1, 4)))
        h[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="^h contains non-finite"):
            fn(layer, h)

    @pytest.mark.parametrize("fn", [
        attention_forward, ffn_forward,
        lambda layer, h: model_forward([layer], h)],
        ids=["attention", "ffn", "model"])
    def test_complex_stream_rejected(self, constructions, fn):
        # a float64 copy would drop the imaginary part
        layers, make_prompt = constructions["linreg"]
        h = make_prompt(np.random.default_rng(3)) + 0j
        for stream in (h, np.stack([h, h]), h.tolist()):
            with pytest.raises(ValueError,
                               match="^h must be real, got dtype complex"):
                fn(layers[0], stream)

    @pytest.mark.parametrize("slice_index", [(0,), (2,), (1, 0)])
    def test_ones_row_violation_names_its_slice(self, constructions,
                                                slice_index):
        layers, make_prompt = constructions["logistic"]
        layer = next(layer for layer in layers
                     if layer.ffn is not None and layer.ffn.gadgets)
        rng = np.random.default_rng(21)
        batch = (3,) if len(slice_index) == 1 else (2, 2)
        h = np.stack([make_prompt(rng) for _ in range(math.prod(batch))])
        h = h.reshape(batch + h.shape[1:])
        h[slice_index + (layer.ffn.ones_row, 4)] = 0.5
        want = (f"ones row {layer.ffn.ones_row} to hold 1.0; column 4 of "
                f"slice {slice_index} holds 0.5")
        with pytest.raises(ValueError, match=re.escape(want)):
            ffn_forward(layer, h)
        with pytest.raises(ValueError, match=r"column 4 holds 0\.5$"):
            ffn_forward(layer, h[slice_index])


def matrix_block_attention_forward(layer, h):
    """attention_forward with each head's dense views cut to their
    nonzero rows and column spans, and every block multiplied as a
    matrix, blocks equal to c I included."""
    out = h.copy()
    for head in layer.heads:
        v_rows = np.flatnonzero(head.w_v.any(axis=1))
        kq_rows = np.flatnonzero(head.w_k.any(axis=1) & head.w_q.any(axis=1))

        def read(w, rows):
            w = w[rows]
            cols = np.flatnonzero(w.any(axis=0))
            span = slice(cols[0], cols[-1] + 1)
            return w[:, span] @ h[..., span, :]
        out[..., v_rows, :] += (
            read(head.w_v, v_rows) @ read(head.w_k, kq_rows).mT
        ) @ read(head.w_q, kq_rows)
    return out


def assert_out_matches_fresh(fn, layer, h):
    """fn(layer, h, out=h) updates h in place to the fresh call's bits,
    and the fresh call leaves h as it was."""
    before = h.copy()
    fresh = fn(layer, h)
    assert fresh is not h and np.array_equal(h, before)
    in_place = h.copy()
    assert fn(layer, in_place, out=in_place) is in_place
    assert in_place.tobytes() == fresh.tobytes()
    assert h.tobytes() == before.tobytes()


class TestOneWorkingStream:
    """model_forward updates one private copy of its input in place;
    the layer functions write through ``out=`` with the bits of a
    fresh call."""

    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("case", ["inversion", "linreg", "logistic"])
    def test_model_forward_never_writes_its_input(self, constructions,
                                                  case, batch):
        layers, make_prompt = constructions[case]
        rng = np.random.default_rng(24)
        h = np.stack([make_prompt(rng) for _ in range(math.prod(batch))])
        h = h.reshape(batch + h.shape[1:])
        before = h.copy()
        h.flags.writeable = False
        out = model_forward(layers, h)
        assert out.tobytes() == model_forward(layers, before).tobytes()
        assert h.tobytes() == before.tobytes()
        assert not np.shares_memory(out, h)

    @pytest.mark.parametrize("case", ["inversion", "linreg", "logistic"])
    def test_out_equals_fresh_call_on_every_constructed_layer(
            self, constructions, case):
        layers, make_prompt = constructions[case]
        rng = np.random.default_rng(25)
        h = np.stack([make_prompt(rng) for _ in range(3)])
        for layer in layers:
            for stream in (h, h[1]):
                assert_out_matches_fresh(attention_forward, layer, stream)
                assert_out_matches_fresh(ffn_forward, layer, stream)
            h = model_forward([layer], h)

    def test_logistic_heads_read_rows_other_heads_write(self, constructions):
        # the hazard that in-place writes must not disturb: a head that
        # writes rows another head of its layer reads
        layers, _ = constructions["logistic"]
        hazards = 0
        for layer in layers:
            for writer in layer.heads:
                written = writer.w_v.any(axis=1)
                hazards += sum(
                    bool((written & (reader.w_v.any(axis=0)
                                     | reader.w_k.any(axis=0)
                                     | reader.w_q.any(axis=0))).any())
                    for reader in layer.heads if reader is not writer)
        assert hazards > 0

    def test_ffn_reads_its_input_before_writing(self):
        # gadget 0 writes the row gadget 1 reads, and gadget 1 writes
        # the row that gadgets 2 and 3 read
        approx = PwlApprox(np.linspace(-3.0, 3.0, 7),
                           np.sin(np.linspace(-3.0, 3.0, 7)))
        ffn = gadget_ffn(4, [(approx, [0.0, 0.7, -0.4, 0.0], 0, 1.3),
                             (approx, [0.9, 0.0, 0.0, 0.0], 1, 2.0),
                             (approx, [0.0, -1.1, 0.3, 0.0], 2, 1.0),
                             (approx, [0.0, 0.6, 0.0, 0.0], 1, 1.0)], 3)
        layer = TransformerLayer(heads=(identity_head(4),), ffn=ffn)
        rng = np.random.default_rng(27)
        h = rng.uniform(-2.0, 2.0, (2, 4, 6))
        h[..., 3, :] = 1.0
        w1, w2 = layer.ffn
        for stream in (h, h[0]):
            assert_out_matches_fresh(ffn_forward, layer, stream)
            np.testing.assert_allclose(
                ffn_forward(layer, stream),
                stream + w2 @ np.maximum(w1 @ stream, 0.0),
                rtol=1e-13, atol=1e-13)

    def test_out_must_match_the_stream(self, constructions):
        layers, make_prompt = constructions["linreg"]
        h = make_prompt(np.random.default_rng(26))
        for fn in (attention_forward, ffn_forward):
            for out in (h.copy(), np.zeros_like(h), h[None],
                        np.zeros(h.shape, dtype=np.float32), h.tolist()):
                with pytest.raises(ValueError,
                                   match="out must be None or the stream h"):
                    fn(layers[0], h, out=out)

    @pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
    @pytest.mark.parametrize("case", ["inversion", "linreg", "logistic"])
    def test_model_forward_out_h_equals_fresh_call(self, constructions,
                                                   case, batch):
        layers, make_prompt = constructions[case]
        rng = np.random.default_rng(29)
        h = np.stack([make_prompt(rng) for _ in range(math.prod(batch))])
        h = h.reshape(batch + h.shape[1:])
        before = h.copy()
        fresh = model_forward(layers, h)
        assert h.tobytes() == before.tobytes()
        assert model_forward(layers, h, out=h) is h
        assert h.tobytes() == fresh.tobytes()

    def test_model_forward_out_must_be_none_or_h(self, constructions):
        layers, make_prompt = constructions["linreg"]
        h = make_prompt(np.random.default_rng(30))
        before = h.copy()
        for out in (h.copy(), np.zeros_like(h), h[None], h[:],
                    np.zeros(h.shape, dtype=np.float32), h.tolist()):
            with pytest.raises(ValueError,
                               match="out must be None or the stream h"):
                model_forward(layers, h, out=out)
        assert h.tobytes() == before.tobytes()

    @pytest.mark.parametrize("empty", [True, False])
    def test_model_forward_out_h_needs_a_writeable_float64_c_stream(
            self, constructions, empty):
        # checked before any layer runs, so a rejected stream is not
        # written; with no layers the check still holds
        layers, make_prompt = constructions["linreg"]
        layers = [] if empty else layers
        h = make_prompt(np.random.default_rng(31))
        wide = np.repeat(h, 2, axis=-1)
        read_only = h.copy()
        read_only.flags.writeable = False
        for bad in (h.astype(np.float32), np.asfortranarray(h),
                    wide[:, ::2], read_only, h.tolist()):
            before = np.array(bad)
            with pytest.raises(ValueError, match="out=h needs h to be a "
                               "writeable float64 C-contiguous ndarray"):
                model_forward(layers, bad, out=bad)
            assert np.array(bad).tobytes() == before.tobytes()
        assert model_forward(layers, h, out=h) is h

    # derandomized so every run draws the same 200 heads
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(dim=st.integers(1, 9), n=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_identity_blocks_are_scalars(self, dim, n, seed, data):
        # a value band's scale c stands for c I and key and query are
        # plain bands: the dense views hold c I and I on them, and the
        # forward pass, which multiplies by no block, has the bits of
        # one that multiplies every block as a matrix; the heads share
        # key and query bands and each writes its own run of rows
        scales = st.sampled_from([1.0, -1.0, 0.37])

        def band(size):
            start = data.draw(st.integers(0, dim - size))
            return slice(start, start + size)
        values = [(slice(start, stop), band(stop - start), data.draw(scales))
                  for start, stop in draw_runs(data, dim)
                  if data.draw(st.booleans())]
        if not values:  # a layer needs a head
            values.append((slice(0, dim), band(dim), data.draw(scales)))
        size = data.draw(st.integers(1, dim))
        key, query = band(size), band(size)
        heads = tuple(AttentionHead(dim, value, key=key, query=query)
                      for value in values)
        inner = slice(0, size)
        for head, value in zip(heads, values):
            for view, (rows, cols, c) in ((head.w_v, value),
                                          (head.w_k, (inner, key, 1.0)),
                                          (head.w_q, (inner, query, 1.0))):
                want = np.zeros((dim, dim))
                want[rows, cols] = c * np.eye(rows.stop - rows.start)
                np.testing.assert_array_equal(view, want)
        layer = TransformerLayer(heads=heads)
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((dim, n))
        assert_within_bound(layer, h)
        assert (attention_forward(layer, h).tobytes()
                == matrix_block_attention_forward(layer, h).tobytes())
        assert_out_matches_fresh(attention_forward, layer, h)
        stack = rng.standard_normal((2, dim, n))
        assert_slices_equal(attention_forward, layer, stack)
        assert_out_matches_fresh(attention_forward, layer, stack)

    def test_linreg_forward_peaks_below_two_streams(self):
        # the linreg_depth shape: d=10, n=50, 16 prompts
        layers, _ = linreg_stack(10, 1)
        init, layers = layers[:2], layers[2:]
        rng = np.random.default_rng(28)
        h = model_forward(init, np.stack([
            make_linreg_prompt(rng.standard_normal((50, 10)),
                               rng.standard_normal(50),
                               rng.standard_normal(10))
            for _ in range(16)]))
        assert h.shape == (16, 45, 50)
        model_forward(layers, h)  # warm up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model_forward(layers, h)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * h.nbytes


def materialized_negation_attention_forward(layer, h):
    """attention_forward with V = c h[src rows] made as a new array
    for every c other than 1: the bits a c = -1 head's subtraction must
    keep."""
    out = h.copy()
    for head in layer.heads:
        rows, src, c = head.value
        v = h[..., src, :] if c == 1.0 else c * h[..., src, :]
        out[..., rows, :] += ((v @ h[..., head.key, :].mT)
                              @ h[..., head.query, :])
    return out


@pytest.mark.parametrize("case", ["inversion", "linreg", "logistic"])
def test_minus_one_heads_subtract_with_the_bits_of_adding_minus_v(
        constructions, case):
    # negation commutes with every rounding, and h - u is the IEEE
    # operation h + (-u), so only an exact zero's sign could move
    layers, make_prompt = constructions[case]
    assert any(head.value[2] == -1.0
               for layer in layers for head in layer.heads)
    rng = np.random.default_rng(29)
    stack = np.stack([make_prompt(rng) for _ in range(3)])
    for h in (make_prompt(rng), stack):
        for layer in layers:
            got = attention_forward(layer, h)
            assert np.array_equal(got,
                                  materialized_negation_attention_forward(
                                      layer, h))
            h = ffn_forward(layer, got)


def test_minus_one_heads_keep_their_bits_on_any_stream():
    # random bands and streams, so products round; V K.T of one band
    # read twice goes to syrk, whose bits differ from gemm's on many
    # shapes (every n >= 50 tried), so that head still makes -V
    rng = np.random.default_rng(31)
    shared = 0
    for _ in range(300):
        dim, n = int(rng.integers(2, 25)), int(rng.integers(1, 81))
        size = int(rng.integers(1, dim + 1))
        src = random_band(rng, dim, size)
        key = src if rng.random() < 0.5 else random_band(rng, dim, size)
        shared += key == src
        head = AttentionHead(dim, (random_band(rng, dim, size), src, -1.0),
                             key=key, query=random_band(rng, dim, size))
        layer = TransformerLayer(heads=(head,))
        for h in (rng.standard_normal((dim, n)),
                  rng.standard_normal((3, dim, n))):
            assert np.array_equal(attention_forward(layer, h),
                                  materialized_negation_attention_forward(
                                      layer, h))
    assert shared > 100


@pytest.fixture(scope="module")
def fine_logistic_step():
    """The logreg_fine stack (eps 5e-3, mu 0.1, d 5) and a prompt for
    it on 26 samples."""
    rng = np.random.default_rng(30)
    a = rng.standard_normal((26, 5))
    a /= np.max(np.linalg.norm(a, axis=1))
    labels = np.where(a @ rng.standard_normal(5) < 0.0, -1.0, 1.0)
    layers, _ = build_logreg_newton_step(width_depth_budget(5e-3, 0.1, d=5))
    return layers, make_logistic_prompt(LogisticProblem(a, labels, 0.1),
                                        np.zeros(5))


def test_in_place_logistic_step_copies_no_table(fine_logistic_step):
    # a step evaluates 13 tables of 8,000-32,000 pieces; read-only
    # tables made np.interp copy each one per call (a 259 KB peak)
    layers, h = fine_logistic_step
    h = h.copy()
    model_forward(layers, h, out=h)  # warm up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model_forward(layers, h, out=h)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024


def test_every_stack_table_is_writeable(constructions, fine_logistic_step):
    stacks = [layers for layers, _ in constructions.values()]
    stacks.append(fine_logistic_step[0])
    tables = [g.approx for layers in stacks for layer in layers
              if layer.ffn is not None for g in layer.ffn.gadgets]
    assert len(tables) > 10
    for table in tables:
        assert table.knots.flags.writeable and table.values.flags.writeable
