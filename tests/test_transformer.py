import math
import re
import tracemalloc

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
from newtonformer.logistic import LogisticProblem, NewtonState
from newtonformer.pwl import PwlApprox, PwlGadget
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


def masked_head(rng, dim, v_rows, k_rows, q_rows, cols=None):
    """A head whose projections are random on the given rows; *cols*,
    if given, are three column sets that zero every other column."""
    every = np.arange(dim)
    cols = cols or (every, every, every)

    def masked(rows, keep):
        w = np.zeros((dim, dim))
        w[np.ix_(rows, keep)] = rng.standard_normal((len(rows), len(keep)))
        return w
    return AttentionHead(*(masked(np.asarray(rows, dtype=int),
                                  np.asarray(keep, dtype=int))
                           for rows, keep in zip((v_rows, k_rows, q_rows),
                                                 cols)))


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


def _array_dataclasses():
    knots = np.array([0.0, 1.0])
    approx = PwlApprox(knots, knots)
    return {
        "AttentionHead": lambda: AttentionHead(np.eye(2), np.eye(2),
                                               np.eye(2)),
        "PwlApprox": lambda: PwlApprox(knots, knots),
        "PwlGadget": lambda: PwlGadget(approx, np.ones(2), 1.0, 0, 0),
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

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_three_non_contiguous_column_sets(self, batch):
        rng = np.random.default_rng(18)
        cols = ([1, 5, 8], [0, 4, 7], [2, 3, 6, 8])
        head = masked_head(rng, 9, [0, 3, 4], [2, 6], [2, 6], cols)
        _, *blocks = head._compact
        for span, block, want in zip(blocks[::2], blocks[1::2], cols):
            assert span == slice(min(want), max(want) + 1)
            assert block.shape[1] == span.stop - span.start
        layer = TransformerLayer(heads=(head, random_head(rng, 9)))
        h = rng.standard_normal(batch + (9, 5))
        assert_within_bound(layer, h)
        if batch:
            assert_slices_equal(attention_forward, layer, h)

    def test_linreg_newton_heads_read_d_columns(self):
        d = 4
        layers, _ = build_linreg_transformer(d, 1, 0.01)
        newton = layers[1]
        assert newton.dim > d
        for head in newton.heads:
            _, *blocks = head._compact
            assert [span.stop - span.start
                    for span in blocks[::2]] == [d] * 3
            # each block is +-I, kept as a scalar: no projection matrix
            assert [type(block) for block in blocks[1::2]] == [float] * 3

    # derandomized so every run draws the same 200 heads
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(dim=st.integers(1, 9), n=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_random_row_and_column_masks(self, dim, n, seed, data):
        mask = st.lists(st.booleans(), min_size=dim, max_size=dim)
        rows = [np.flatnonzero(data.draw(mask)) for _ in range(3)]
        cols = [np.flatnonzero(data.draw(mask)) for _ in range(3)]
        rng = np.random.default_rng(seed)
        layer = TransformerLayer(heads=(masked_head(rng, dim, *rows, cols),))
        assert_within_bound(layer, rng.standard_normal((dim, n)))
        assert_slices_equal(attention_forward, layer,
                            rng.standard_normal((2, dim, n)))

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


def full_width_attention_forward(layer, h):
    """attention_forward with row compaction only: each row-compacted
    projection multiplies every stream row."""
    out = h.copy()
    for head in layer.heads:
        v_rows = np.flatnonzero(head.w_v.any(axis=1))
        kq_rows = np.flatnonzero(head.w_k.any(axis=1) & head.w_q.any(axis=1))
        if v_rows.size and kq_rows.size:
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
    """attention_forward with every compacted block multiplied as a
    matrix, blocks equal to c I included."""
    out = h.copy()
    for head in layer.heads:
        v_rows = np.flatnonzero(head.w_v.any(axis=1))
        kq_rows = np.flatnonzero(head.w_k.any(axis=1) & head.w_q.any(axis=1))
        if not (v_rows.size and kq_rows.size):
            continue

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
    """fn(layer, h, out=...) equals the fresh call bit for bit, whether
    *out* is h itself or another array, and the fresh call leaves h
    as it was."""
    before = h.copy()
    fresh = fn(layer, h)
    assert fresh is not h and np.array_equal(h, before)
    in_place = h.copy()
    assert fn(layer, in_place, out=in_place) is in_place
    other = np.full_like(h, np.nan)
    assert fn(layer, h, out=other) is other
    for got in (in_place, other):
        assert got.tobytes() == fresh.tobytes()
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
        # the exact neurons write the row gadget 1 reads, and gadget 1
        # writes the rows that gadget 2 and the neurons read
        approx = PwlApprox(np.linspace(-3.0, 3.0, 7),
                           np.sin(np.linspace(-3.0, 3.0, 7)))
        fb = FfnBuilder(4, ones_row=3)
        fb.add_neuron({1: 0.7, 2: -0.4}, 0, 1.3)
        fb.add_identity(1, 0, 0.5)
        fb.add_pwl(approx, {0: 0.9}, 1, scale=2.0)
        fb.add_pwl(approx, {1: -1.1, 2: 0.3}, 2)
        fb.add_pwl(approx, {1: 0.6}, 1)
        layer = TransformerLayer(heads=(AttentionHead(*np.zeros((3, 4, 4))),),
                                 ffn=fb.build())
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
            for out in (np.zeros(h.shape[:-1] + (h.shape[-1] + 1,)),
                        np.zeros(h.shape, dtype=np.float32), h.tolist()):
                with pytest.raises(ValueError, match="out must be a float64"):
                    fn(layers[0], h, out=out)

    # derandomized so every run draws the same 200 heads
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(dim=st.integers(1, 9), n=st.integers(1, 12),
           c=st.sampled_from([1.0, -1.0, 0.37]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_identity_blocks_are_scalars(self, dim, n, c, seed, data):
        rng = np.random.default_rng(seed)
        k_v, k_kq = (data.draw(st.integers(1, dim)) for _ in range(2))
        v_rows, kq_rows = (data.draw(st.integers(0, dim - k))
                           for k in (k_v, k_kq))
        scalars, weights = [], []
        for row, k in ((v_rows, k_v), (kq_rows, k_kq), (kq_rows, k_kq)):
            col = data.draw(st.integers(0, dim - k))
            block = (c * np.eye(k) if data.draw(st.booleans())
                     else rng.standard_normal((k, k)))
            # a 1 x 1 block is c I for its one entry
            is_scalar = k == 1 or np.array_equal(block, c * np.eye(k))
            scalars.append(float(block[0, 0]) if is_scalar else None)
            weights.append(np.zeros((dim, dim)))
            weights[-1][row:row + k, col:col + k] = block
        head = AttentionHead(*weights)
        _, *blocks = head._compact
        for block, scalar in zip(blocks[1::2], scalars):
            if scalar is None:
                assert isinstance(block, np.ndarray)
            else:
                assert type(block) is float and block == scalar
        layer = TransformerLayer(heads=(head,))
        h = rng.standard_normal((dim, n))
        assert_within_bound(layer, h)
        # skipping the product by c I changes no bit
        assert (attention_forward(layer, h).tobytes()
                == matrix_block_attention_forward(layer, h).tobytes())
        assert_out_matches_fresh(attention_forward, layer, h)
        stack = rng.standard_normal((2, dim, n))
        assert_slices_equal(attention_forward, layer, stack)
        assert_out_matches_fresh(attention_forward, layer, stack)

    def test_identity_detection_needs_a_nonzero_diagonal(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        for w in (swap, np.diag([1.0, 2.0]), np.array([[1.0, 1.0],
                                                        [0.0, 1.0]])):
            _, *blocks = AttentionHead(w, w, w)._compact
            assert all(isinstance(b, np.ndarray) for b in blocks[1::2])

    def test_linreg_forward_peaks_below_two_streams(self):
        # the linreg_depth shape: d=10, n=50, 16 prompts
        (init, *layers), _ = build_linreg_transformer(10, 1, 0.01)
        rng = np.random.default_rng(28)
        h = model_forward([init], np.stack([
            make_linreg_prompt(rng.standard_normal((50, 10)),
                               rng.standard_normal(50),
                               rng.standard_normal(10))
            for _ in range(16)]))
        assert h.shape == (16, 43, 50)
        model_forward(layers, h)  # warm up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model_forward(layers, h)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * h.nbytes
