import numpy as np
import pytest

from newtonformer.pwl import signed_copy
from newtonformer.transformer import (
    AttentionHead,
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


class TestFfnForward:
    def test_zero_second_matrix_is_identity(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((3, 5))
        layer = TransformerLayer(
            heads=(AttentionHead(np.zeros((3, 3)), np.zeros((3, 3)),
                                 np.zeros((3, 3))),),
            ffn=(rng.standard_normal((6, 3)), np.zeros((3, 6))),
        )
        np.testing.assert_array_equal(ffn_forward(layer, h), h)

    def test_all_negative_preactivations_pass_through(self):
        h = np.ones((2, 3))
        layer = TransformerLayer(
            heads=(AttentionHead(np.zeros((2, 2)), np.zeros((2, 2)),
                                 np.zeros((2, 2))),),
            ffn=(-np.ones((4, 2)), np.ones((2, 4))),
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
        assert not layer.has_ffn

    def test_signed_copy_gadget_matches_scalar_version(self):
        # rows: 0 carries the value, 1 the +-1 label, 2 receives x * y
        w1 = np.array([
            [0.5, 2.0, 0.0],
            [-0.5, 2.0, 0.0],
            [-0.5, -2.0, 0.0],
            [0.5, -2.0, 0.0],
        ])
        w2 = np.zeros((3, 4))
        w2[2] = [1.0, -1.0, 1.0, -1.0]
        layer = TransformerLayer(
            heads=(AttentionHead(np.zeros((3, 3)), np.zeros((3, 3)),
                                 np.zeros((3, 3))),),
            ffn=(w1, w2),
        )
        rng = np.random.default_rng(5)
        xs = rng.uniform(-1.0, 1.0, 50)
        ys = np.where(rng.uniform(size=50) < 0.5, -1.0, 1.0)
        h = np.vstack([xs, ys, np.zeros(50)])
        out = ffn_forward(layer, h)
        expected = np.array([signed_copy(float(x), float(y))
                             for x, y in zip(xs, ys)])
        np.testing.assert_array_equal(out[2], expected)

    def test_ffn_shape_validation(self):
        head = AttentionHead(np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            TransformerLayer(heads=(head,), ffn=(np.ones((3, 2)),
                                                 np.ones((2, 4))))
        with pytest.raises(ValueError):
            TransformerLayer(heads=(head,), ffn=(np.ones((3, 5)),
                                                 np.ones((2, 3))))


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
            ffn = (0.1 * rng.standard_normal((7, 4)),
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

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((3, 4))
        layer = TransformerLayer(heads=(random_head(rng, 3),))
        np.testing.assert_array_equal(model_forward([layer], h),
                                      model_forward([layer], h))
