import gc
import itertools
import json
import math
import re
import weakref

import numpy as np
import pytest
from start_steps import alpha_prime_steps
from unrolled import linreg_stack

from newtonformer import builders, transformer
from newtonformer.builders import (
    BudgetReport,
    _gadget,
    _logistic_layout,
    _product,
    build_inversion_block,
    build_linreg_transformer,
    build_logreg_newton_step,
    make_inversion_prompt,
    make_linreg_prompt,
    make_logistic_prompt,
    read_inversion_iterate,
    read_linreg_prediction,
    read_logistic_iterate,
    run_constructed_newton,
    width_depth_budget,
)
from newtonformer.datagen import gen_logreg_data, make_covariance
from newtonformer.errors import BudgetError
from newtonformer.harness import ExperimentConfig
from newtonformer.inversion import (
    TRACE_RECIPROCAL,
    newton_step,
    spd_initial_scale,
    trace_initial_scale,
)
from newtonformer.linalg import solve_spd
from newtonformer.logistic import (
    LogisticProblem,
    damped_step,
    iterate_norm_bound,
    loss_grad_hess,
    optimum,
    sigmoid,
)
from newtonformer.pwl import (
    _square_tables,
    build_pwl,
    eval_pwl,
    pwl_product,
)
from newtonformer.transformer import (
    AttentionHead,
    Ffn,
    TransformerLayer,
    ffn_forward,
    model_forward,
)


def make_logreg_problem(seed, n=26, d=5, mu=0.1):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    a /= np.max(np.linalg.norm(a, axis=1))
    w = rng.standard_normal(d)
    labels = np.sign(a @ w)
    labels[labels == 0.0] = 1.0
    return LogisticProblem(a, labels, mu)


class TestWidthDepthBudget:
    def test_reference_allocation(self):
        report = width_depth_budget(1e-2, 0.1, d=5)
        assert report.kappa_f == pytest.approx(11.0)
        assert report.widths == {"u1_pieces": 2000, "u2_pieces": 2000,
                                 "u3_pieces": 2000, "eps4_pieces": 4000,
                                 "k": 7}
        assert report.depth == 13

    def test_inversion_count_formula(self):
        for eps, mu in ((1e-2, 0.1), (1e-3, 0.2), (5e-2, 0.5), (0.5, 3.0)):
            report = width_depth_budget(eps, mu, d=5)
            kappa_f = (1.0 + mu) / mu
            assert report.kappa_f == kappa_f
            inner = (1.0 + mu) ** 3 / (eps**2 * mu**2)
            # I - alpha*B with alpha = 1.8/(1+mu) has spectral radius
            # max(1 - 1.8/kappa_f, 0.8) over B's spectrum [mu, 1+mu]
            r0 = max(1.0 - 1.8 / kappa_f, 0.8)
            expected = max(1, math.ceil(
                math.log2(math.log(inner) / -math.log(r0))
            ))
            assert report.widths["k"] == expected
            assert report.depth == 6 + expected

    def test_halving_eps_at_least_quadruples_u2(self):
        base = width_depth_budget(1e-2, 0.1, d=5)
        finer = width_depth_budget(5e-3, 0.1, d=5)
        assert finer.widths["u2_pieces"] >= 4 * base.widths["u2_pieces"]

    def test_k_inverts_the_stack_hessian(self):
        # The stack's own inversion layers, run on its own B, meet the
        # budget's target 1/inner at every grid point the budget accepts,
        # out to the last, mu=1e6, where kappa_f -> 1.  The layers invert
        # B^T, so the residual is taken against it.  eps >= 0.05 is left
        # out: there the fitted power-law tables are so coarse
        # (u2_pieces = 4 at mu=0.1) that b_slot is not the Hessian.
        checked = 0
        for mu in (0.05, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0, 1e6):
            problems = [make_logreg_problem(seed, mu=mu) for seed in range(3)]
            starts = [(p, x) for p in problems
                      for x in (np.zeros(5), optimum(p)[0])]
            for eps in (1e-2, 5e-3, 2e-3):
                try:
                    budget = width_depth_budget(eps, mu, d=5)
                except BudgetError:
                    continue
                checked += 1
                layers, layout = build_logreg_newton_step(budget)
                x_slot, b_slot = map(layout.rows_of, ("x_slot", "b_slot"))
                h = np.stack([make_logistic_prompt(p, x) for p, x in starts])
                h = model_forward(layers[:3 + budget.widths["k"]], h)
                residual = np.eye(5) - h[:, x_slot, :5] @ h[:, b_slot, :5].mT
                worst = np.linalg.norm(residual, 2, axis=(-2, -1)).max()
                target = max(eps**2 * mu**2 / (1.0 + mu) ** 3, 1e-13)
                assert worst <= target, (eps, mu, worst)
        assert checked == 22
        assert budget.kappa_f == pytest.approx(1.0, abs=1e-5)

    def test_tiny_mu_keeps_a_finite_inversion_count(self):
        # at mu=1e-17, 1 - alpha*mu rounds to 1; the count still follows
        # -ln(1 - alpha*mu) ~ alpha*mu = 1.8e-17 instead of dividing by 0
        report = width_depth_budget(1e-2, 1e-17, d=5, piece_ceiling=10**300)
        inner = 1.0 / (1e-4 * 1e-34)
        assert report.widths["k"] == math.ceil(
            math.log2(math.log(inner) / 1.8e-17)
        )

    def test_largest_accepted_eps_keeps_one_inversion(self):
        # (1+mu)^1.5/mu is 2.83 at mu=1
        assert width_depth_budget(2.5, 1.0, d=5).widths["k"] == 1

    # 1e200 squares past every float: the same error, not OverflowError
    @pytest.mark.parametrize("eps, mu, bound", [(20.0, 0.1, "11.5369"),
                                                (3.0, 1.0, "2.82843"),
                                                (1e200, 0.1, "11.5369")])
    def test_eps_past_inversion_domain_named(self, eps, mu, bound):
        with pytest.raises(ValueError) as info:
            width_depth_budget(eps, mu, d=5)
        message = str(info.value)
        assert f"eps={eps}" in message and f"mu={mu}" in message
        assert bound in message

    def test_monotone_in_eps_and_kappa(self):
        eps_grid = (1e-1, 3e-2, 1e-2, 5e-3)
        reports = [width_depth_budget(e, 0.1, d=5) for e in eps_grid]
        for coarse, fine in zip(reports, reports[1:]):
            for key in ("u1_pieces", "u2_pieces", "u3_pieces", "eps4_pieces"):
                assert fine.widths[key] >= coarse.widths[key]
            assert fine.widths["k"] >= coarse.widths["k"]
        # kappa_f = (1+mu)/mu grows as mu shrinks, and k with it
        reports = [width_depth_budget(1e-2, mu, d=5)
                   for mu in (10.0, 1.0, 0.3, 0.1)]
        kappas = [report.kappa_f for report in reports]
        ks = [report.widths["k"] for report in reports]
        assert kappas == sorted(kappas) and ks == sorted(ks)
        assert ks[0] < ks[-1]

    def test_ceiling_names_offending_family(self):
        with pytest.raises(BudgetError) as info:
            width_depth_budget(1e-2, 0.1, d=5, piece_ceiling=1000)
        assert info.value.bound == "u1_pieces"
        with pytest.raises(BudgetError) as info:
            width_depth_budget(1.4e-3, 0.1, d=5)
        assert info.value.bound == "u2_pieces"

    # mu=1e-310 makes (1+mu)/mu and the iterate norm bound infinite
    @pytest.mark.parametrize("eps, mu", [(1e-200, 0.1), (1e-2, 1e-200),
                                         (5e-324, 0.1), (1e-2, 1e-310)])
    def test_float_overflow_is_over_any_ceiling(self, eps, mu):
        for ceiling in (5_000_000, 10**400):
            with pytest.raises(BudgetError) as info:
                width_depth_budget(eps, mu, d=5, piece_ceiling=ceiling)
            assert info.value.bound == "u1_pieces"
            assert str(info.value) == (
                f"u1_pieces = inf exceeds the ceiling {ceiling} "
                f"at eps={eps}, mu={mu}, d=5"
            )

    def test_z_max_covers_trajectory_decrements(self):
        report = width_depth_budget(1e-2, 0.1, d=5)
        c = iterate_norm_bound(0.1)
        expected = ((1.0 + 0.1 * c) / (2.0 * math.sqrt(0.1))) ** 2
        assert report.z_max == pytest.approx(expected, rel=1e-14)
        assert report.norm_bound == pytest.approx(c, rel=1e-14)

    def test_to_text_is_json(self):
        report = width_depth_budget(1e-2, 0.1, d=5)
        payload = json.loads(report.to_text())
        assert payload["depth"] == 13
        assert payload["widths"]["k"] == 7
        assert payload["target_eps"] == 1e-2

    def test_depth_is_derived_from_k(self):
        report = width_depth_budget(1e-2, 0.1, d=5)
        fewer = BudgetReport(
            target_eps=report.target_eps, mu=report.mu, d=report.d,
            widths={**report.widths, "k": 3},
        )
        assert fewer.depth == 9
        assert json.loads(fewer.to_text())["depth"] == 9

    @pytest.mark.parametrize("mu", [1e-3, 0.1, 0.37, 1.0, 50.0])
    def test_derived_fields_follow_mu(self, mu):
        report = BudgetReport(1e-2, mu, 5, {"k": 1})
        c = math.sqrt(2.0 * math.log(2.0) / mu) + 1.0
        assert report.kappa_f == (1.0 + mu) / mu
        assert report.norm_bound == c
        assert report.z_max == ((1.0 + mu * c) / (2.0 * math.sqrt(mu))) ** 2

    def test_infinite_mu_has_no_norm_bound(self):
        report = BudgetReport(1e-2, math.inf, 5, {"k": 1})
        with pytest.raises(ValueError, match="mu must be finite"):
            report.norm_bound

    @pytest.mark.parametrize("eps, mu, d", [(1e-2, 0.1, 5), (5e-3, 0.1, 7),
                                            (3e-2, 0.4, 3)])
    def test_hand_built_report_prints_same_text(self, eps, mu, d):
        report = width_depth_budget(eps, mu, d=d)
        by_hand = BudgetReport(eps, mu, d, dict(report.widths))
        assert by_hand.to_text() == report.to_text()
        payload = json.loads(by_hand.to_text())
        assert set(payload) == {"d", "depth", "kappa_f", "mu", "norm_bound",
                                "target_eps", "widths", "z_max"}
        for name in ("kappa_f", "norm_bound", "z_max"):
            assert payload[name] == getattr(report, name)

    def test_validation(self):
        with pytest.raises(ValueError):
            width_depth_budget(0.0, 0.1, d=5)
        with pytest.raises(ValueError):
            width_depth_budget(1e-2, 0.0, d=5)
        with pytest.raises(ValueError, match="got nan"):
            width_depth_budget(1e-2, float("nan"), d=5)
        with pytest.raises(ValueError, match="mu must be finite"):
            width_depth_budget(1e-2, float("inf"), d=5)
        with pytest.raises(ValueError):
            width_depth_budget(1e-2, 0.1, d=0)

    @pytest.mark.parametrize("d", [5.5, 1.25, float("inf")])
    def test_non_integer_d_rejected(self, d):
        # a fractional d would size u2 with d while the report stores
        # int(d)
        with pytest.raises(ValueError, match="d must be an integer"):
            width_depth_budget(1e-2, 0.1, d=d)

    def test_integral_float_d_matches_int(self):
        assert (width_depth_budget(1e-2, 0.1, d=5.0).to_text()
                == width_depth_budget(1e-2, 0.1, d=5).to_text())

    @pytest.mark.parametrize("ceiling", [float("nan"), 0, 0.5, -3])
    def test_bad_piece_ceiling_rejected(self, ceiling):
        # a NaN ceiling would accept every width, however large
        with pytest.raises(ValueError, match="piece_ceiling must be >= 1"):
            width_depth_budget(1e-5, 0.1, d=5, piece_ceiling=ceiling)


def apply_ffn(gadgets, ones_row, h):
    # ffn_forward runs only the ffn, so the layer's head is any head
    dim = h.shape[0]
    head = AttentionHead(dim, (0, 0, 1.0), key=0, query=0)
    layer = TransformerLayer(heads=(head,), ffn=Ffn(dim, gadgets, ones_row))
    return ffn_forward(layer, h)


class TestFfnBuilder:
    """The private helpers that assemble the stacks' feed-forward
    blocks: ``_gadget`` from a ``{row: coeff}`` argument, ``_product``
    as the two quarter-square gadgets, and the ``Ffn`` that holds them."""

    def test_pwl_compilation_matches_interpolant(self):
        approx = build_pwl(np.sin, -2.0, 3.0, 40)
        xs = np.linspace(-4.0, 5.0, 400)
        h = np.vstack([xs, np.ones_like(xs), np.zeros_like(xs)])
        out = apply_ffn([_gadget(3, approx, {0: 1.0}, 2)], 1, h)
        np.testing.assert_allclose(out[2], eval_pwl(approx, xs),
                                   rtol=0, atol=1e-12)

    def test_product_matches_quarter_square(self):
        rng = np.random.default_rng(2)
        squares = _square_tables((-1.0, 1.0), (-1.0, 1.0), 200)
        xs = rng.uniform(-1.0, 1.0, 32)
        ys = rng.uniform(-1.0, 1.0, 32)
        h = np.vstack([xs, ys, np.zeros(32), np.ones(32)])
        out = apply_ffn(_product(4, 0, 1, 2, squares), 3, h)
        expected = [pwl_product(float(x), float(y), (-1.0, 1.0), (-1.0, 1.0),
                                200) for x, y in zip(xs, ys)]
        np.testing.assert_allclose(out[2], expected, rtol=0, atol=1e-12)

    def test_bias_requires_ones_row(self):
        # an ungated PWL routes its constant term through the ones row
        gadget = _gadget(2, build_pwl(np.abs, -1.0, 1.0, 4), {0: 1.0}, 1)
        with pytest.raises(ValueError,
                           match=re.escape("ffn ones_row None is not a row "
                                           "inside 0 .. 1")):
            Ffn(2, [gadget], None)

    def test_empty_builder_rejected(self):
        with pytest.raises(ValueError,
                           match="^an ffn needs at least one gadget$"):
            Ffn(2, [], 1)

    @pytest.mark.parametrize("row", [-1, 3, 7, 1.0])
    def test_rows_outside_the_stream_are_named(self, row):
        # row -1 would read the last row, and row 7 would raise
        # numpy's IndexError
        arg = re.escape(f"ffn arg row {row!r} is not a row inside 0 .. 2")
        table = build_pwl(np.abs, -1.0, 1.0, 4)
        with pytest.raises(ValueError, match=arg):
            _gadget(3, table, {0: 1.0, row: 1.0}, 1)
        with pytest.raises(ValueError, match=arg):
            _product(3, 0, row, 1, (table, table))


class TestInversionBlock:
    def test_identity_example(self):
        block, layout = build_inversion_block(2)
        h = make_inversion_prompt(np.eye(2), 0.5 * np.eye(2))
        out = model_forward(block, h)
        np.testing.assert_allclose(read_inversion_iterate(out, layout),
                                   0.75 * np.eye(2), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(out[2:], h[2:])

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_matches_newton_step(self, d):
        for seed in range(10):
            rng = np.random.default_rng(1000 * d + seed)
            a = rng.standard_normal((d, d))
            x = 0.1 * rng.standard_normal((d, d))
            block, layout = build_inversion_block(d)
            h = make_inversion_prompt(a, x)
            out = model_forward(block, h)
            expected = newton_step(x, a)
            err = np.linalg.norm(read_inversion_iterate(out, layout)
                                 - expected)
            assert err <= 1e-12 * max(np.linalg.norm(expected), 1.0)
            # A, the cleared work block and I come back exactly, so
            # each pass of the block starts from a prompt
            assert out[d:].tobytes() == h[d:].tobytes()

    def test_block_is_attention_only(self):
        block, _ = build_inversion_block(3)
        assert len(block) == 2
        assert [len(layer.heads) for layer in block] == [1, 3]
        assert all(layer.ffn is None for layer in block)

    def test_layout_shape(self):
        block, layout = build_inversion_block(3)
        assert layout.n_rows == 12
        assert layout.rows_of("iterate") == slice(0, 3)
        assert [layer.dim for layer in block] == [12, 12]

    def test_prompt_rows(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 3))
        x0 = rng.standard_normal((3, 3))
        h = make_inversion_prompt(a, x0)
        assert h.shape == (12, 3)
        np.testing.assert_array_equal(h[0:3], x0)
        np.testing.assert_array_equal(h[3:6], a)
        np.testing.assert_array_equal(h[6:9], np.zeros((3, 3)))
        np.testing.assert_array_equal(h[9:12], np.eye(3))
        _, layout = build_inversion_block(3)
        np.testing.assert_array_equal(read_inversion_iterate(h, layout), x0)

    def test_prompt_validation(self):
        # a 0-d a is named too, not read as a shape
        for a, x0 in ((np.eye(2), np.eye(3)), (3.0, 1.0),
                      (np.ones(2), np.ones(2)),
                      (np.ones((2, 3)), np.ones((2, 3))), (np.eye(2), 1.0)):
            with pytest.raises(ValueError, match="^a and x0 must be square "
                                                 "with matching shape$"):
                make_inversion_prompt(a, x0)

    def test_reader_returns_a_new_array(self):
        # the iterate block is contiguous rows, so a view of it would
        # change under the next in-place pass
        block, layout = build_inversion_block(2)
        h = make_inversion_prompt(np.eye(2), 0.5 * np.eye(2))
        x = read_inversion_iterate(h, layout)
        assert not np.shares_memory(x, h)
        model_forward(block, h, out=h)
        np.testing.assert_array_equal(x, 0.5 * np.eye(2))


def two_layer_readout(layout):
    """The contract and readout layers that once ended the linreg stack:
    the first overwrites the output row with w = y^T A X, the second
    adds (w . a_test) e1 to it and subtracts w again."""
    dim = layout.n_rows
    x_slot, ident, data = map(layout.rows_of, ("x_slot", "identity", "data"))
    test_row, label_row, out_row = (layout.rows_of(name).start for name in
                                    ("test_point", "labels", "output"))
    e1_row = ident.start
    contract = TransformerLayer(heads=(
        AttentionHead(dim, (out_row, e1_row, -1.0), key=e1_row,
                      query=out_row),
        AttentionHead(dim, (out_row, label_row, 1.0), key=data,
                      query=x_slot),
    ))
    readout = TransformerLayer(heads=(
        AttentionHead(dim, (out_row, out_row, 1.0), key=test_row,
                      query=e1_row),
        AttentionHead(dim, (out_row, out_row, -1.0), key=ident,
                      query=ident),
    ))
    return contract, readout


class TestLinregTransformer:
    def test_identity_design_recovers_label(self):
        layers, layout = linreg_stack(2, 40)
        a = np.eye(2)
        h = model_forward(layers, make_linreg_prompt(a, np.array([1.0, 0.0]),
                                                     np.array([1.0, 0.0])))
        assert read_linreg_prediction(h, layout) == pytest.approx(1.0,
                                                                  abs=1e-9)

    def test_matches_closed_form_solution(self):
        for seed in range(5):
            rng = np.random.default_rng(400 + seed)
            sigma = make_covariance(4, 25.0, rng)
            a = rng.standard_normal((16, 4)) @ np.linalg.cholesky(sigma).T
            y = rng.standard_normal(16)
            a_test = rng.standard_normal(4)
            gram = a.T @ a
            t = alpha_prime_steps(gram, 1e-10)
            layers, layout = linreg_stack(4, t)
            h = model_forward(layers, make_linreg_prompt(a, y, a_test))
            pred = read_linreg_prediction(h, layout)
            oracle = float(a_test @ solve_spd(gram, (a.T @ y)[:, None])[:, 0])
            assert abs(pred - oracle) <= 1e-6 * (1.0 + abs(oracle))

    def test_zero_steps_applies_initializer_only(self):
        # X_0 = alpha' I, alpha' read from the trace summed in context
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 3))
        y = rng.standard_normal(8)
        a_test = rng.standard_normal(3)
        alpha = trace_initial_scale(np.trace(a.T @ a))
        layers, layout = linreg_stack(3, 0)
        h = model_forward(layers, make_linreg_prompt(a, y, a_test))
        pred = read_linreg_prediction(h, layout)
        expected = float(alpha * a_test @ (a.T @ y))
        assert pred == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 4, 10])
    @pytest.mark.parametrize("mu", [0.0, 0.37])
    def test_init_layers_write_alpha_prime_identity(self, d, mu):
        # integer-valued data scaled by powers of two sum their trace
        # exactly, so tr B is known bit for bit and spans many knots
        rng = np.random.default_rng(17 * d + int(100 * mu))
        layers, layout = build_linreg_transformer(d, ridge_mu=mu)
        x_slot = layout.rows_of("x_slot")
        scratch = [layout.rows_of(name).start
                   for name in ("accumulator", "output")]
        n = d + 3
        for _ in range(20):
            a = rng.integers(-9, 10, size=(n, d)).astype(float)
            a[0, 0] = 1.0  # a nonzero trace
            a = np.ldexp(a, int(rng.integers(-20, 21)))
            trace = float(np.sum(a * a)) + mu * d
            want = np.zeros((d, n))
            want[:, :d] = trace_initial_scale(trace) * np.eye(d)
            h = model_forward(layers[:2], make_linreg_prompt(
                a, rng.standard_normal(n), rng.standard_normal(d)))
            assert h[x_slot].tobytes() == want.tobytes()
            assert h[scratch].tobytes() == np.zeros((2, n)).tobytes()

    def test_ridge_variant(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((12, 3))
        y = rng.standard_normal(12)
        a_test = rng.standard_normal(3)
        mu = 0.5
        gram = a.T @ a + mu * np.eye(3)
        layers, layout = linreg_stack(3, 30, ridge_mu=mu)
        h = model_forward(layers, make_linreg_prompt(a, y, a_test))
        oracle = float(a_test @ solve_spd(gram, (a.T @ y)[:, None])[:, 0])
        assert read_linreg_prediction(h, layout) == pytest.approx(oracle,
                                                                  abs=1e-9)

    @pytest.mark.parametrize("ridge_mu, message", [
        (math.inf, "ridge_mu must be finite and >= 0, got inf"),
        (math.nan, "ridge_mu must be finite and >= 0, got nan"),
        (-1.0, "ridge_mu must be finite and >= 0, got -1.0"),
        (1e308, "ridge_mu * d must be finite, got ridge_mu=1e+308 and d=3"),
    ])
    def test_input_errors_are_named(self, ridge_mu, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_linreg_transformer(3, ridge_mu)

    @pytest.mark.parametrize("mu", [0.0, 1.0, 2.0])
    def test_zero_init_scales_are_left_out(self, mu):
        # mu I and mu * d are zero at mu = 0: the gram layer then holds
        # neither ridge head.  Both follow the A^T A head and the d = 2
        # trace heads
        (gram, *_), layout = build_linreg_transformer(2, ridge_mu=mu)
        ident = layout.rows_of("identity")
        b_slot = layout.rows_of("b_slot")
        acc = layout.rows_of("accumulator").start
        e1 = slice(ident.start, ident.start + 1)
        ridge = gram.heads[3:]
        want = [(b_slot, ident, mu), (slice(acc, acc + 1), e1, 2 * mu)]
        assert [head.value for head in ridge] == (want if mu else [])
        for head in ridge[:1]:
            np.testing.assert_array_equal(head.w_v[b_slot, ident],
                                          mu * np.eye(2))

    @pytest.mark.parametrize("scale", [1e-9, 1e8])
    def test_matches_closed_form_at_any_scale(self, scale):
        # A^T A lands on b_slot's zeros, so a tiny Gram matrix is not
        # lost to 1 + G - 1 rounding
        rng = np.random.default_rng(13)
        a = scale * rng.standard_normal((50, 10))
        y = rng.standard_normal(50)
        a_test = rng.standard_normal(10)
        gram = a.T @ a
        layers, layout = linreg_stack(10, 30)
        h = model_forward(layers, make_linreg_prompt(a, y, a_test))
        oracle = float(a_test @ solve_spd(gram, (a.T @ y)[:, None])[:, 0])
        assert read_linreg_prediction(h, layout) == pytest.approx(oracle,
                                                                  rel=1e-12)

    def test_unit_ridge_matches_closed_form(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((12, 3))
        y = rng.standard_normal(12)
        a_test = rng.standard_normal(3)
        gram = a.T @ a + np.eye(3)
        layers, layout = linreg_stack(3, 30, ridge_mu=1.0)
        h = model_forward(layers, make_linreg_prompt(a, y, a_test))
        oracle = float(a_test @ solve_spd(gram, (a.T @ y)[:, None])[:, 0])
        assert read_linreg_prediction(h, layout) == pytest.approx(oracle,
                                                                  abs=1e-9)

    def test_depth_and_head_budget(self):
        layers, layout = build_linreg_transformer(3, ridge_mu=0.1)
        gram, start, step = layers[:3]
        # the prefix: both init layers, then the two passes of the
        # weight-tied step that fill its lag; the body: the step
        assert layers.prefix == (gram, start, step, step)
        assert layers.body == (step,)
        assert all(layer is step for layer in layers[2:])
        assert all(layer.dim == layout.n_rows == 17 for layer in layers)
        # the init layers hold d one-row heads each, for the trace and
        # for alpha' I
        assert [len(layer.heads) for layer in (gram, start, step)] == [
            6, 5, 6]
        assert [layer.ffn is not None for layer in layers] == (
            [True] + [False] * 4)
        assert gram.ffn.gadgets[0].approx is TRACE_RECIPROCAL

    def test_prompt_rows_and_readout(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((8, 3))
        y = rng.standard_normal(8)
        a_test = rng.standard_normal(3)
        h = make_linreg_prompt(a, y, a_test)
        assert h.shape == (17, 8)
        # x_slot and b_slot are zeros; only the identity band holds I
        np.testing.assert_array_equal(h[0:6], np.zeros((6, 8)))
        np.testing.assert_array_equal(h[6:9, :3], np.eye(3))
        np.testing.assert_array_equal(h[6:9, 3:], np.zeros((3, 5)))
        np.testing.assert_array_equal(h[9:12], a.T)
        np.testing.assert_array_equal(h[12], np.r_[a_test, np.zeros(5)])
        np.testing.assert_array_equal(h[13], y)
        np.testing.assert_array_equal(h[14:16], np.zeros((2, 8)))
        np.testing.assert_array_equal(h[16], np.ones(8))
        _, layout = build_linreg_transformer(3)
        h[14, 0] = 2.5
        assert read_linreg_prediction(h, layout) == 2.5

    def test_stacked_prompt_equals_each_prompt(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((2, 3, 8, 3))
        y = rng.standard_normal((2, 3, 8))
        a_test = rng.standard_normal((2, 3, 3))
        h = make_linreg_prompt(a, y, a_test)
        assert h.shape == (2, 3, 17, 8)
        for i, j in itertools.product(range(2), range(3)):
            assert h[i, j].tobytes() == make_linreg_prompt(
                a[i, j], y[i, j], a_test[i, j]).tobytes()
        with pytest.raises(ValueError, match="^y must be length n"):
            make_linreg_prompt(a, y[0], a_test)
        with pytest.raises(ValueError, match="^a must be at least 2-D"):
            make_linreg_prompt(np.ones(3), np.ones(3), np.ones(1))

    def test_output_layers_overwrite_the_output_row(self):
        # the step's clear heads zero the output row and the accumulator
        # exactly: a dirty output row changes no bit of the next pass,
        # and a dirty accumulator, which that pass reads out, none of
        # the pass after it
        rng = np.random.default_rng(12)
        d, n = 3, 8
        layers, layout = linreg_stack(d, 2)
        *prefix, step = layers
        h = model_forward(prefix, np.stack([
            make_linreg_prompt(rng.standard_normal((n, d)),
                               rng.standard_normal(n),
                               rng.standard_normal(d))
            for _ in range(4)]))
        out_row, acc_row = (layout.rows_of(name).start
                            for name in ("output", "accumulator"))
        assert h[:, out_row].any() and h[:, acc_row].any()
        want = model_forward([step], h)
        want_two = model_forward([step, step], h)
        for fill in (rng.standard_normal((4, n)), 1e3 * rng.standard_normal(
                (4, n)), np.full((4, n), -0.0), np.full((4, n), -1e300),
                want[:, out_row]):
            dirty = h.copy()
            dirty[:, out_row] = fill
            got = model_forward([step], dirty)
            assert got.tobytes() == want.tobytes()
            assert (read_linreg_prediction(got, layout).tobytes()
                    == read_linreg_prediction(want, layout).tobytes())
            dirty[:, acc_row] = fill[::-1]
            got = model_forward([step, step], dirty)
            assert got.tobytes() == want_two.tobytes()

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("mu", [0.0, 0.1])
    @pytest.mark.parametrize("d", [1, 3])
    def test_step_reads_out_the_product_the_readout_layer_formed(
            self, d, mu, stacked):
        # the step's prediction s is the readout head's product
        # (w @ a_test^T) @ e1 bit for bit.  The two output layers
        # rounded w_0 + s to a and then took w_0 away again; both
        # roundings move it by at most |a - (w_0 + s)| <= ulp(a) / 2,
        # as s is a double, so the old value lies within one ulp of a
        # (a bound of one ulp of w_0 fails once |s| > |w_0|)
        rng = np.random.default_rng(40 + 10 * d + int(100 * mu))
        n = d + 5
        lead = (4,) if stacked else ()
        prompt = make_linreg_prompt(rng.standard_normal((*lead, n, d)),
                                    rng.standard_normal((*lead, n)),
                                    rng.standard_normal((*lead, d)))
        layers, layout = build_linreg_transformer(d, ridge_mu=mu)
        contract, readout = two_layer_readout(layout)
        init = list(layers[:2])
        newton = TransformerLayer(heads=layers.body[0].heads[:2])
        rows = [layout.rows_of(name).start
                for name in ("output", "test_point", "identity")]
        for t in range(6):
            got = read_linreg_prediction(
                model_forward(layers.prefix + layers.body * t, prompt),
                layout)
            h = model_forward(init + [newton] * t + [contract], prompt)
            w, a_test, e1 = (h[..., row:row + 1, :] for row in rows)
            want = ((w @ a_test.mT) @ e1)[..., 0, 0]
            assert np.asarray(got).tobytes() == want.tobytes()
            old = read_linreg_prediction(model_forward([readout], h), layout)
            a = w[..., 0, 0] + got
            assert np.all(np.abs(got - old) <= np.spacing(np.abs(a)))

    @pytest.mark.parametrize("d", [1, 3])
    def test_only_the_gram_layer_reads_ridge_mu(self, d):
        """Only the first init layer reads ridge_mu, so every other
        layer of two ridge weights' stacks holds equal weights."""
        first, _ = build_linreg_transformer(d, ridge_mu=0.0)
        second, _ = build_linreg_transformer(d, ridge_mu=2.5)
        # at ridge_mu = 0 the gram layer holds neither ridge head
        assert len(first[0].heads) + 2 == len(second[0].heads) == d + 3
        for ours, theirs in zip(first[1:], second[1:]):
            assert len(ours.heads) == len(theirs.heads)
            for a, b in zip(ours.heads, theirs.heads):
                for name in ("w_v", "w_k", "w_q"):
                    assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_stacked_readout_gives_one_prediction_per_slice(self):
        _, layout = build_linreg_transformer(2)
        want = np.arange(6.0).reshape(2, 3)
        h = np.zeros((2, 3, layout.n_rows, 4))
        h[..., layout.rows_of("output").start, 0] = want
        preds = read_linreg_prediction(h, layout)
        assert preds.shape == (2, 3)
        np.testing.assert_array_equal(preds, want)
        assert type(read_linreg_prediction(h[1, 2], layout)) is float
        assert read_linreg_prediction(h[1, 2], layout) == 5.0

    def test_stacked_readout_owns_its_data(self):
        # a view would keep the whole output stack alive for as long as
        # the predictions are held
        _, layout = build_linreg_transformer(2)
        h = np.ones((3, layout.n_rows, 4))
        preds = read_linreg_prediction(h, layout)
        assert preds.base is None
        assert not np.shares_memory(preds, h)
        h[...] = 7.0
        np.testing.assert_array_equal(preds, [1.0, 1.0, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="d must be >= 1"):
            build_linreg_transformer(0)
        with pytest.raises(ValueError, match="got nan"):
            build_linreg_transformer(3, ridge_mu=float("nan"))
        with pytest.raises(ValueError, match="ridge_mu must be finite"):
            build_linreg_transformer(3, ridge_mu=float("inf"))
        with pytest.raises(ValueError):
            make_linreg_prompt(np.ones((8, 3)), np.ones(7), np.ones(3))
        with pytest.raises(ValueError, match="need n >= d, got n=3, d=4"):
            make_linreg_prompt(np.ones((3, 4)), np.ones(3), np.ones(4))


@pytest.fixture(scope="module")
def logreg_stack():
    problem = make_logreg_problem(0)
    budget = width_depth_budget(1e-2, 0.1, d=5)
    layers, layout = build_logreg_newton_step(budget)
    return problem, budget, layers, layout


class TestLogregNewtonStack:
    def test_depth_matches_budget(self, logreg_stack):
        problem, budget, layers, layout = logreg_stack
        # no prefix: every layer is the body one step runs
        assert layers.prefix == ()
        assert len(layers.body) == budget.depth == 6 + budget.widths["k"]
        assert max(len(layer.heads) for layer in layers) <= 9
        assert layout.n_rows == 5 * problem.dim + 5
        assert all(layer.dim == layout.n_rows for layer in layers)

    def test_single_step_tracks_damped_newton(self, logreg_stack):
        problem, budget, _, _ = logreg_stack
        x0 = np.zeros(5)
        xs = run_constructed_newton(problem, x0, budget, 1)
        exact = damped_step(problem, x0).x
        assert np.linalg.norm(xs[1] - exact) <= 1e-2

    def test_chained_steps_stay_in_tube(self, logreg_stack):
        problem, budget, _, _ = logreg_stack
        x0 = np.zeros(5)
        constructed = run_constructed_newton(problem, x0, budget, 5)
        exact = [x0]
        for _ in range(5):
            exact.append(damped_step(problem, exact[-1]).x)
        for ours, ref in zip(constructed, exact):
            assert np.linalg.norm(ours - ref) <= 1e-2

    def test_near_fixed_point_at_minimizer(self, logreg_stack):
        problem, budget, _, _ = logreg_stack
        x_star, _ = optimum(problem)
        xs = run_constructed_newton(problem, x_star, budget, 1)
        assert np.linalg.norm(xs[1] - x_star) <= 2e-2

    def test_bookkeeping_restored_after_step(self):
        # the last layer restores every bookkeeping block exactly, so
        # each chained step leaves the next iterate's prompt bit for bit
        for eps, mu in itertools.product((1e-2, 5e-3), (0.1, 0.3, 1.0)):
            problems = [gen_logreg_data(ExperimentConfig(
                task="logreg", d=5, n=26, mu=mu, seed=seed))[0]
                for seed in range(5)]
            layers, layout = build_logreg_newton_step(
                width_depth_budget(eps, mu, d=5)
            )
            h = np.stack([make_logistic_prompt(p, np.zeros(5))
                          for p in problems])
            for _ in range(15):
                h = model_forward(layers, h)
                for p, stream in zip(problems, h, strict=True):
                    x_next = read_logistic_iterate(stream, layout)
                    assert np.array_equal(stream,
                                          make_logistic_prompt(p, x_next))

    def test_one_forward_pass_per_step(self, logreg_stack, monkeypatch):
        problem, budget, layers, _ = logreg_stack
        calls = []

        def counting(layers, h, *, out=None):
            calls.append(len(layers))
            return model_forward(layers, h, out=out)
        monkeypatch.setattr(transformer, "model_forward", counting)
        run_constructed_newton(problem, np.zeros(5), budget, 3)
        assert calls == [len(layers.body)] * 3

    @pytest.mark.parametrize("n", [1, 26])
    def test_reader_returns_a_new_array(self, n):
        # at n = 1 the iterate column is contiguous, so a view of it
        # would change under the next in-place pass
        problem = make_logreg_problem(0, n=n, d=1)
        h = make_logistic_prompt(problem, np.full(1, 0.5))
        x = read_logistic_iterate(h, _logistic_layout(1))
        assert not np.shares_memory(x, h)

    def test_step_count_must_not_be_negative(self, logreg_stack):
        problem, budget, _, _ = logreg_stack
        with pytest.raises(ValueError, match="n_steps must be >= 0, got -1"):
            run_constructed_newton(problem, np.zeros(5), budget, -1)
        xs = run_constructed_newton(problem, np.ones(5), budget, 0)
        assert len(xs) == 1
        np.testing.assert_array_equal(xs[0], np.ones(5))

    def test_inverse_iterations_are_newton_steps(self, logreg_stack):
        # layers 3 .. 3 + k follow margins, rescale and Hessian
        # assembly; each maps X in x_slot to X(2I - M^T X), the
        # Newton-Schulz step for M^T, for the M in b_slot
        problem, budget, layers, layout = logreg_stack
        d, k = problem.dim, budget.widths["k"]
        x_slot, b_slot = map(layout.rows_of, ("x_slot", "b_slot"))
        rng = np.random.default_rng(11)
        m = rng.standard_normal((d, d))
        # a start off the line through m, where X M^T X and M X^T X
        # differ; I - X M^T still contracts (spectral radius 0.98)
        scale = np.linalg.norm(m, 2)
        x = (1.8 * m + 0.1 * scale * rng.standard_normal((d, d))) / scale**2
        h = make_logistic_prompt(problem, np.zeros(d))
        h[x_slot, :d] = x
        h[b_slot, :d] = m
        for layer in layers[3:3 + k]:
            assert len(layer.heads) == 2 and layer.ffn is None
            out = model_forward([layer], h)
            expected = newton_step(h[x_slot, :d], m.T)
            err = np.linalg.norm(out[x_slot, :d] - expected)
            assert err <= 1e-12 * np.linalg.norm(expected)
            np.testing.assert_array_equal(out[x_slot, d:], 0.0)
            rest = np.ones(layout.n_rows, dtype=bool)
            rest[x_slot] = False
            np.testing.assert_array_equal(out[rest], h[rest])
            h = out

    def test_hessian_assembly_seeds_alpha_identity(self, logreg_stack):
        # after margins, rescale and Hessian assembly, x_slot holds the
        # Newton-Schulz seed alpha*I, alpha = 1.8/(1+mu), and b_slot B
        _, _, layers, layout = logreg_stack
        x_slot, b_slot = map(layout.rows_of, ("x_slot", "b_slot"))
        for seed in range(5):
            problem = make_logreg_problem(seed)
            for x in (np.zeros(5), optimum(problem)[0]):
                h = model_forward(
                    layers[:3], make_logistic_prompt(problem, x)
                )
                np.testing.assert_array_equal(
                    h[x_slot, :5], 1.8 / (1.0 + problem.mu) * np.eye(5)
                )
                np.testing.assert_array_equal(h[x_slot, 5:], 0.0)
                _, _, hess = loss_grad_hess(problem, x)
                assert np.abs(h[b_slot, :5] - hess).max() <= 1e-5

    @pytest.mark.parametrize("eps, mu", [(1e-2, 0.1), (5e-3, 0.1),
                                         (1e-2, 0.3)])
    def test_budget_k_matches_more_inversions(self, eps, mu):
        # the inversion count is what the budget truncates: three more
        # Newton-Schulz steps move no constructed iterate by 1e-10
        budget = width_depth_budget(eps, mu, d=5)
        more = BudgetReport(eps, mu, 5,
                            {**budget.widths, "k": budget.widths["k"] + 3})
        for seed in range(5):
            problem = make_logreg_problem(seed, mu=mu)
            ours = run_constructed_newton(problem, np.zeros(5), budget, 15)
            ref = run_constructed_newton(problem, np.zeros(5), more, 15)
            for x, x_ref in zip(ours, ref, strict=True):
                assert np.linalg.norm(x - x_ref) <= 1e-10

    def test_tables_match_per_knot_evaluation(self, logreg_stack):
        # build_pwl evaluates each target once on the whole knot array;
        # every table must equal the value at each knot taken alone
        problem, _, layers, _ = logreg_stack
        root = 2.0 * math.sqrt(problem.mu)

        def sigmoid_derivative(t):
            s = sigmoid(t)
            return s * (1.0 - s)

        targets = [
            [sigmoid_derivative, lambda t: sigmoid(-t)],
            [lambda t: t * t] * (2 * problem.dim),
            [lambda z: root / (root + math.sqrt(z))],
        ]
        gadget_layers = [layer for layer in layers
                         if layer.ffn is not None and layer.ffn.gadgets]
        for layer, fns in zip(gadget_layers, targets, strict=True):
            for gadget, f in zip(layer.ffn.gadgets, fns, strict=True):
                per_knot = np.array([f(k) for k in gadget.approx.knots])
                assert np.array_equal(gadget.approx.values, per_knot)

    def test_multiple_seeds_single_step(self):
        budget = width_depth_budget(1e-2, 0.1, d=5)
        for seed in (1, 2):
            problem = make_logreg_problem(seed)
            xs = run_constructed_newton(problem, np.zeros(5), budget, 1)
            exact = damped_step(problem, np.zeros(5)).x
            assert np.linalg.norm(xs[1] - exact) <= 1e-2

    def test_products_share_one_square_table(self):
        # the d quarter-square products read one table, owned by the
        # stack: nothing outside it keeps the table alive
        layers, _ = build_logreg_newton_step(
            width_depth_budget(1e-2, 0.1, d=5)
        )
        gadgets = layers[1].ffn.gadgets
        assert len(gadgets) == 2 * 5
        assert len({id(g.approx) for g in gadgets}) == 1
        table = weakref.ref(gadgets[0].approx)
        del layers, gadgets
        gc.collect()
        assert table() is None

    def test_budget_mismatch_rejected(self, logreg_stack, monkeypatch):
        # the builder reads no problem, so the run that meets one with a
        # stack checks them, before it builds anything
        problem, _, _, _ = logreg_stack
        monkeypatch.setattr(builders, "build_logreg_newton_step", None)
        wrong_d = width_depth_budget(1e-2, 0.1, d=4)
        with pytest.raises(BudgetError,
                           match="^budget built for d=4, problem has d=5$"
                           ) as info:
            run_constructed_newton(problem, np.zeros(5), wrong_d, 1)
        assert info.value.bound == "d"
        wrong_mu = width_depth_budget(1e-2, 0.2, d=5)
        with pytest.raises(BudgetError,
                           match=r"^budget built for mu=0\.2, problem has "
                                 r"mu=0\.1$") as info:
            run_constructed_newton(problem, np.zeros(5), wrong_mu, 1)
        assert info.value.bound == "mu"

    @pytest.mark.parametrize("n_steps", [2.5, math.inf])
    def test_step_count_must_be_an_integer(self, logreg_stack, n_steps):
        problem, budget, _, _ = logreg_stack
        with pytest.raises(ValueError,
                           match=f"^n_steps must be an integer, got "
                                 f"{n_steps}$"):
            run_constructed_newton(problem, np.zeros(5), budget, n_steps)
        xs = run_constructed_newton(problem, np.zeros(5), budget, 1.0)
        assert len(xs) == 2

    def test_unit_mu_seed_head_leaves_b_slot_alone(self):
        # mu - 1 = 0: the seed head writes only alpha' I into x_slot,
        # and no (mu - 1) I head follows the I head that every mu builds
        problem = make_logreg_problem(0, mu=1.0)
        budget = width_depth_budget(1e-2, 1.0, d=5)
        layers, layout = build_logreg_newton_step(budget)
        seed = layers[2].heads[4]
        x_slot, ident = layout.rows_of("x_slot"), layout.rows_of("identity")
        assert seed.value == (x_slot, ident, spd_initial_scale(2.0))
        b_slot = layout.rows_of("b_slot")

        def identity_scales(layer):
            return [head.value[2] for head in layer.heads
                    if head.value[:2] == (b_slot, ident)]
        other, _ = build_logreg_newton_step(width_depth_budget(1e-2, 0.5, 5))
        assert identity_scales(other[2]) == [1.0, -0.5]
        assert identity_scales(layers[2]) == [1.0]
        xs = run_constructed_newton(problem, np.zeros(5), budget, 3)
        assert all(np.isfinite(x).all() for x in xs)

    def test_prompt_shape_and_readout(self, logreg_stack):
        problem, _, _, layout = logreg_stack
        x = np.arange(5.0)
        h = make_logistic_prompt(problem, x)
        assert h.shape == (30, 26)
        np.testing.assert_array_equal(read_logistic_iterate(h, layout), x)
        np.testing.assert_array_equal(
            h[15:20], (problem.features * problem.labels[:, None]).T
        )
        assert h[25, 0] == pytest.approx(1.0 / 26)
        np.testing.assert_array_equal(h[27:29], np.zeros((2, 26)))
        np.testing.assert_array_equal(h[29], np.ones(26))

    def test_reads_each_example_only_through_signed_features(
        self, logreg_stack
    ):
        # the loss reads example i only through y_i a_i, so flipping
        # (a_i, y_i) to (-a_i, -y_i) leaves the prompt and every
        # constructed iterate bit-identical
        problem, budget, _, _ = logreg_stack
        flip = np.where(np.arange(problem.n_samples) % 3 == 0, -1.0, 1.0)
        flipped = LogisticProblem(problem.features * flip[:, None],
                                  problem.labels * flip, problem.mu)
        x = np.linspace(-0.5, 0.5, 5)
        assert np.array_equal(make_logistic_prompt(flipped, x),
                              make_logistic_prompt(problem, x))
        ours = run_constructed_newton(problem, np.zeros(5), budget, 4)
        theirs = run_constructed_newton(flipped, np.zeros(5), budget, 4)
        for x_ours, x_theirs in zip(ours, theirs, strict=True):
            assert np.array_equal(x_ours, x_theirs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_iterate_is_named(self, logreg_stack, bad):
        problem, budget, _, _ = logreg_stack
        x = np.zeros(5)
        x[2] = bad
        with pytest.raises(ValueError,
                           match="^x contains non-finite entries$"):
            make_logistic_prompt(problem, x)
        with pytest.raises(ValueError,
                           match="^x0 contains non-finite entries$"):
            run_constructed_newton(problem, [bad] * 5, budget, 1)

    def test_requires_enough_samples(self):
        problem = make_logreg_problem(3, n=4, d=5)
        budget = width_depth_budget(1e-2, 0.1, d=5)
        with pytest.raises(ValueError, match="^need n >= d, got n=4, d=5$"):
            run_constructed_newton(problem, np.zeros(5), budget, 1)


def inversion_case(d):
    rng = np.random.default_rng(3)
    a = make_covariance(d, 8.0, rng)
    sigma = np.linalg.norm(a, 2)
    x0 = spd_initial_scale(sigma * sigma) * a.T
    return build_inversion_block(d), make_inversion_prompt(a, x0)


def linreg_case(mu):
    rng = np.random.default_rng(21)
    batch, d, n = 4, 3, 8
    prompts = make_linreg_prompt(rng.standard_normal((batch, n, d)),
                                 rng.standard_normal((batch, n)),
                                 rng.standard_normal((batch, d)))
    return build_linreg_transformer(d, ridge_mu=mu), prompts


def logistic_case(d, n, mu):
    budget = width_depth_budget(1e-2, mu, d=d)
    problem = make_logreg_problem(0, n=n, d=d, mu=mu)
    return (build_logreg_newton_step(budget),
            make_logistic_prompt(problem, np.zeros(d)))


# case: a built looped stack with its layout, and one prompt for it
LOOPED_CASES = {
    "inversion-d2": lambda: inversion_case(2),
    "inversion-d4": lambda: inversion_case(4),
    "linreg-mu0": lambda: linreg_case(0.0),
    "linreg-mu0.1": lambda: linreg_case(0.1),
    "logistic": lambda: logistic_case(5, 26, 0.1),
    "logistic-mu1": lambda: logistic_case(5, 26, 1.0),
    # d = n = 1: a one-column stream, the narrowest a prompt can be
    "logistic-one-column": lambda: logistic_case(1, 1, 0.1),
}


@pytest.mark.parametrize("case", list(LOOPED_CASES))
def test_run_equals_the_unrolled_stack(case):
    # pass t of run leaves, in the prompt itself, the bits of a fresh
    # forward pass of prefix + body * t; 0 passes leave the prefix's
    (layers, _), prompt = LOOPED_CASES[case]()
    outs = [model_forward(layers.prefix + layers.body * t, prompt)
            for t in range(7)]
    # every pass moves the stream, so no pass can be skipped unseen
    assert len({out.tobytes() for out in outs}) == 7
    h = prompt.copy()
    assert list(layers.run(h, 0)) == []
    assert h.tobytes() == outs[0].tobytes()
    h = prompt.copy()
    passes = 0
    for passes, stream in enumerate(layers.run(h, 6), 1):
        assert stream is h
        assert stream.tobytes() == outs[passes].tobytes()
    assert passes == 6



# per kind of stack: the bands its prompt fills besides identity, its
# scratch bands, zero in the prompt, the bands that every pass of the
# body leaves as the prompt had them, and whether it clears the scratch
RESTING_BANDS = {
    "inversion": (("iterate", "data"), ("work",), ("identity", "data"),
                  True),
    "linreg": (("data", "test_point", "labels", "ones"),
               ("x_slot", "b_slot", "output", "accumulator"),
               ("identity", "data", "test_point", "labels", "ones"), False),
    "logistic": (("data", "iterate", "mean_picker", "ones"),
                 ("x_slot", "b_slot", "accumulator", "prob", "margins"),
                 ("identity", "data", "mean_picker", "ones"), True),
}


@pytest.mark.parametrize("case", list(LOOPED_CASES))
def test_scratch_bands_rest_at_zero(case):
    # identity is the one band of a prompt that holds a constant I_d;
    # every scratch band starts at zero, and the inversion and logistic
    # bodies leave it so.  The linreg stack keeps its B in b_slot as
    # the prefix left it
    (layers, layout), prompt = LOOPED_CASES[case]()
    filled, scratch, kept, clears = RESTING_BANDS[case.split("-")[0]]
    named = ("identity", *filled, *scratch)
    rows = {name: layout.rows_of(name) for name in named}
    assert len(rows) == len(named)
    assert sum(r.stop - r.start for r in rows.values()) == layout.n_rows
    d = rows["identity"].stop - rows["identity"].start
    want = np.zeros(prompt[..., rows["identity"], :].shape)
    want[..., :d] = np.eye(d)
    assert np.array_equal(prompt[..., rows["identity"], :], want), "identity"
    for name in scratch:
        assert not prompt[..., rows[name], :].any(), name
    b_slot = (model_forward(layers.prefix, prompt)[..., rows["b_slot"], :]
              if "b_slot" in rows else None)
    for stream in layers.run(prompt.copy(), 4):
        for name in kept:
            assert np.array_equal(stream[..., rows[name], :],
                                  prompt[..., rows[name], :]), name
        for name in scratch if clears else ():
            assert not stream[..., rows[name], :].any(), name
        if b_slot is not None:
            assert np.array_equal(stream[..., rows["b_slot"], :],
                                  b_slot), "b_slot"
