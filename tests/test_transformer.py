import math
import re

import numpy as np
import pytest
from dense_attention import attention_error_bound, dense_attention_forward
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonformer import inversion
from newtonformer.errors import ShapeMismatchError
from newtonformer.builders import (
    FfnBuilder,
    build_inversion_block,
    build_linreg_transformer,
    build_logreg_newton_step,
    make_inversion_prompt,
    make_linreg_prompt,
    make_logistic_prompt,
    width_depth_budget,
)
from newtonformer.linalg import spectral_norm_est
from newtonformer.logistic import LogisticProblem
from newtonformer.transformer import (
    AttentionHead,
    Ffn,
    PromptLayout,
    TransformerLayer,
    assemble_blocks,
    attention_forward,
    ffn_forward,
    model_forward,
)


def random_head(rng, dim):
    return AttentionHead(
        w_v=0.3 * rng.standard_normal((dim, dim)),
        w_k=0.3 * rng.standard_normal((dim, dim)),
        w_q=0.3 * rng.standard_normal((dim, dim)),
    )


def assert_within_bound(layer, h):
    """attention_forward(layer, h) lies within the stated bound of the
    exact result; the dense formula in extended precision stands in for
    exact."""
    out = attention_forward(layer, h)
    ref = dense_attention_forward(layer, h, np.longdouble)
    assert np.all(np.abs(out - ref) <= attention_error_bound(layer, h, ref))


def masked_head(rng, dim, v_rows, k_rows, q_rows):
    def masked(rows):
        w = np.zeros((dim, dim))
        w[rows] = rng.standard_normal((dim, dim))[rows]
        return w
    return AttentionHead(masked(v_rows), masked(k_rows), masked(q_rows))


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


class TestPromptLayout:
    def test_bands_tile_rows_in_order(self):
        layout = PromptLayout((("top", 2), ("ones", 1), ("rest", 3)))
        assert layout.n_rows == 6
        assert layout.rows_of("top") == slice(0, 2)
        assert layout.rows_of("ones") == slice(2, 3)
        assert layout.rows_of("rest") == slice(3, 6)
        with pytest.raises(KeyError):
            layout.rows_of("missing")

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            PromptLayout((("a", 2), ("b", 1), ("a", 1)))

    def test_rejects_sizes_below_one(self):
        for size in (0, -1):
            with pytest.raises(ValueError, match="size"):
                PromptLayout((("a", 2), ("b", size)))

    @pytest.mark.parametrize("size", [2.5, 2.0, float("nan"), "3"])
    def test_rejects_non_integer_sizes(self, size):
        with pytest.raises(ValueError,
                           match="band 'b' needs an integer size >= 1, got"):
            PromptLayout((("a", 2), ("b", size)))

    def test_numpy_integer_size(self):
        layout = PromptLayout((("a", np.int64(2)), ("b", 1)))
        assert layout.rows_of("a") == slice(0, 2) and layout.n_rows == 3


class TestAssembleBlocks:
    def test_scalar_broadcast_and_accumulation(self):
        m = assemble_blocks(
            4,
            [
                (slice(0, 2), slice(0, 2), np.eye(2)),
                (slice(0, 2), slice(0, 2), np.eye(2)),
                (3, 0, 5.0),
            ],
        )
        expected = np.zeros((4, 4))
        expected[:2, :2] = 2.0 * np.eye(2)
        expected[3, 0] = 5.0
        np.testing.assert_array_equal(m, expected)


class TestAttentionForward:
    def test_zero_weights_are_identity(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((4, 6))
        head = AttentionHead(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)))
        layer = TransformerLayer(heads=(head,))
        np.testing.assert_array_equal(attention_forward(layer, h), h)
        assert_within_bound(layer, h)

    def test_matches_explicit_formula(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((5, 7))
        heads = [random_head(rng, 5) for _ in range(2)]
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
        layer = TransformerLayer(heads=(random_head(rng, 4),))
        out = attention_forward(layer, padded)
        np.testing.assert_allclose(out[:, :5], attention_forward(layer, h),
                                   rtol=1e-14, atol=1e-15)
        np.testing.assert_array_equal(out[:, 5:], np.zeros((4, 3)))

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((4, 6))
        perm = rng.permutation(6)
        layer = TransformerLayer(heads=tuple(random_head(rng, 4)
                                             for _ in range(2)))
        out = attention_forward(layer, h)
        out_perm = attention_forward(layer, h[:, perm])
        np.testing.assert_allclose(out_perm, out[:, perm],
                                   rtol=1e-12, atol=1e-13)

    def test_dimension_mismatch(self):
        layer = TransformerLayer(
            heads=(AttentionHead(np.eye(3), np.eye(3), np.eye(3)),)
        )
        with pytest.raises(ValueError):
            attention_forward(layer, np.zeros((4, 2)))


class TestCompactedHeads:
    def test_inversion_stack_heads(self):
        rng = np.random.default_rng(10)
        a = spd(rng, 4)
        x0 = inversion.initial_scale(spectral_norm_est(a)) * a
        layers, _ = build_inversion_block(4)
        assert_every_head_within_bound(layers, make_inversion_prompt(a, x0))

    def test_linreg_stack_heads(self):
        rng = np.random.default_rng(11)
        d, n = 4, 12
        a = rng.standard_normal((n, d))
        y = a @ rng.standard_normal(d)
        gram = a.T @ a + 0.1 * np.eye(d)
        alpha = inversion.initial_scale(spectral_norm_est(gram))
        layers, _ = build_linreg_transformer(d, 3, alpha, ridge_mu=0.1)
        h = make_linreg_prompt(a, y, rng.standard_normal(d))
        assert_every_head_within_bound(layers, h)

    def test_logistic_stack_heads(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((26, 5))
        a /= np.max(np.linalg.norm(a, axis=1))
        labels = np.where(a @ rng.standard_normal(5) < 0.0, -1.0, 1.0)
        problem = LogisticProblem(a, labels, 0.1)
        layers, _ = build_logreg_newton_step(
            problem, width_depth_budget(1e-2, 0.1, d=5)
        )
        h = make_logistic_prompt(problem, np.full(5, 0.3))
        assert_every_head_within_bound(layers, h)

    def test_key_row_without_query_row_adds_nothing(self):
        rng = np.random.default_rng(14)
        w_k = np.zeros((6, 6))
        w_k[[1, 4]] = rng.standard_normal((2, 6))
        w_q = np.zeros((6, 6))
        w_q[[1, 2]] = rng.standard_normal((2, 6))
        head = AttentionHead(rng.standard_normal((6, 6)), w_k, w_q)
        only_shared = w_k.copy()
        only_shared[4] = 0.0
        layer = TransformerLayer(heads=(head,))
        h = rng.standard_normal((6, 5))
        assert_within_bound(layer, h)
        np.testing.assert_array_equal(
            attention_forward(layer, h),
            attention_forward(TransformerLayer(heads=(
                AttentionHead(head.w_v, only_shared, w_q),)), h),
        )

    def test_non_contiguous_value_rows(self):
        rng = np.random.default_rng(15)
        head = masked_head(rng, 7, [0, 2, 5], [1, 2, 3], [1, 2, 3])
        layer = TransformerLayer(heads=(head,))
        h = rng.standard_normal((7, 4))
        out = attention_forward(layer, h)
        untouched = [1, 3, 4, 6]
        np.testing.assert_array_equal(out[untouched], h[untouched])
        assert_within_bound(layer, h)

    @pytest.mark.parametrize("n", [1, 3])
    def test_narrow_streams(self, n):
        rng = np.random.default_rng(16 + n)
        layer = TransformerLayer(heads=(
            masked_head(rng, 8, [0, 1, 6], [2, 3, 7], [3, 7]),
            random_head(rng, 8),
        ))
        assert_within_bound(layer, rng.standard_normal((8, n)))

    # derandomized so every run draws the same 200 heads
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(dim=st.integers(1, 9), n=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_random_row_masks(self, dim, n, seed, data):
        rows = st.lists(st.booleans(), min_size=dim, max_size=dim)
        masks = [np.flatnonzero(data.draw(rows)) for _ in range(3)]
        rng = np.random.default_rng(seed)
        layer = TransformerLayer(heads=(masked_head(rng, dim, *masks),))
        assert_within_bound(layer, rng.standard_normal((dim, n)))

    def test_projections_are_read_only_copies(self):
        caller = np.eye(3)
        head = AttentionHead(caller, caller, caller)
        with pytest.raises(ValueError, match="read-only"):
            head.w_v[0, 0] = 2.0
        caller[0, 0] = 2.0
        assert head.w_v[0, 0] == 1.0 and head.w_q[0, 0] == 1.0
        layer = TransformerLayer(heads=(head,))
        h = np.ones((3, 2))
        np.testing.assert_array_equal(attention_forward(layer, h), 7.0 * h)


class TestFfnForward:
    def test_zero_second_matrix_is_identity(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((3, 5))
        layer = TransformerLayer(
            heads=(AttentionHead(np.zeros((3, 3)), np.zeros((3, 3)),
                                 np.zeros((3, 3))),),
            ffn=Ffn(rng.standard_normal((6, 3)), np.zeros((3, 6))),
        )
        np.testing.assert_array_equal(ffn_forward(layer, h), h)

    def test_all_negative_preactivations_pass_through(self):
        h = np.ones((2, 3))
        layer = TransformerLayer(
            heads=(AttentionHead(np.zeros((2, 2)), np.zeros((2, 2)),
                                 np.zeros((2, 2))),),
            ffn=Ffn(-np.ones((4, 2)), np.ones((2, 4))),
        )
        np.testing.assert_array_equal(ffn_forward(layer, h), h)

    def test_missing_ffn_is_a_copy(self):
        h = np.ones((2, 3))
        layer = TransformerLayer(
            heads=(AttentionHead(np.zeros((2, 2)), np.zeros((2, 2)),
                                 np.zeros((2, 2))),),
        )
        out = ffn_forward(layer, h)
        np.testing.assert_array_equal(out, h)
        assert out is not h

    def test_signed_copy_gadget_multiplies_by_label(self):
        # rows: 0 carries the value, 1 the +-1 label, 2 receives x * y
        fb = FfnBuilder(3)
        fb.add_signed_copy(0, 1, 2)
        layer = TransformerLayer(
            heads=(AttentionHead(np.zeros((3, 3)), np.zeros((3, 3)),
                                 np.zeros((3, 3))),),
            ffn=fb.build(),
        )
        rng = np.random.default_rng(5)
        xs = np.sin(rng.uniform(-1.5, 1.5, 50))
        ys = np.where(rng.uniform(size=50) < 0.5, -1.0, 1.0)
        h = np.vstack([xs, ys, np.zeros(50)])
        out = model_forward([layer], h)
        np.testing.assert_allclose(out[2], xs * ys, rtol=0, atol=5e-16)

    def test_ffn_shape_validation(self):
        head = AttentionHead(np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            TransformerLayer(heads=(head,), ffn=Ffn(np.ones((3, 2)),
                                                    np.ones((2, 4))))
        with pytest.raises(ValueError):
            TransformerLayer(heads=(head,), ffn=Ffn(np.ones((3, 5)),
                                                    np.ones((2, 3))))
        with pytest.raises(ValueError, match="ffn dimension 3"):
            TransformerLayer(heads=(head,), ffn=Ffn(np.ones((4, 3)),
                                                    np.ones((3, 4))))


class TestModelForward:
    def test_empty_model_copies_prompt(self):
        h = np.ones((3, 2))
        out = model_forward([], h)
        np.testing.assert_array_equal(out, h)
        assert out is not h

    def test_composition_matches_stepwise_application(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal((4, 5))
        layers = []
        for _ in range(3):
            ffn = Ffn(0.1 * rng.standard_normal((7, 4)),
                      0.1 * rng.standard_normal((4, 7)))
            layers.append(TransformerLayer(
                heads=tuple(random_head(rng, 4) for _ in range(2)),
                ffn=ffn,
            ))
        manual = h
        for layer in layers:
            manual = ffn_forward(layer, attention_forward(layer, manual))
        np.testing.assert_array_equal(model_forward(layers, h), manual)

    def test_prefix_then_suffix_equals_whole(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((3, 4))
        layers = [TransformerLayer(heads=(random_head(rng, 3),))
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
        layer = TransformerLayer(heads=(random_head(rng, 3),))
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
        return make_inversion_prompt(
            a, inversion.initial_scale(spectral_norm_est(a)) * a)

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
        problem, width_depth_budget(1e-2, 0.1, d=5))
    return {
        "inversion": (build_inversion_block(d)[0], inversion_prompt),
        "linreg": (build_linreg_transformer(d, 2, 0.02, ridge_mu=0.1)[0],
                   linreg_prompt),
        "logistic": (logistic_layers, logistic_prompt),
    }


def assert_slices_equal(fn, layers, h):
    """fn(layers, h) on the stack equals fn on each slice alone, bit for
    bit."""
    got = fn(layers, h)
    assert got.shape == h.shape
    for idx in np.ndindex(h.shape[:-2]):
        assert np.array_equal(got[idx], fn(layers, h[idx]))


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
