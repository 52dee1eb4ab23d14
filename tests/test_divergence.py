"""Proximity terms: values, exact gradients, local quadratic structure.

Conventions:
  kl(theta, theta_ref)  = mean_rows KL(p || p_ref)        (current first)
  qkl(theta, theta_ref) = mean_rows (h - h')^T S_h (h - h'), S from the
                          FIRST argument's softmax
  bregman               = convexity gap of the mean NLL (bigram only),
                          computed as mean_rows KL(p_ref || p)
  damped               += (lam / 2) ||theta - theta_ref||^2
"""

import numpy as np
import pytest

from conftest import (assemble_gnh, bregman_oracle, central_difference_gradient,
                      relative_error, same_bits)
from mtunlearn import divergence as D
from mtunlearn import harness as Hn
from mtunlearn import losses as L
from mtunlearn import model as M


def bigram_spec(V=5):
    return M.ModelSpec(M.BIGRAM, V)


def mlp_spec(V=5):
    return M.ModelSpec(M.MLP, V, context_len=2, hidden_dim=4)


def random_batch(rng, spec, n=10):
    ctx = rng.integers(0, spec.vocab_size, (n, spec.context_len))
    nxt = rng.integers(0, spec.vocab_size, n)
    return M.TokenDataset(ctx, nxt)


class TestValues:
    def test_zero_at_reference(self):
        rng = np.random.default_rng(60)
        for spec in (bigram_spec(), mlp_spec()):
            theta = rng.standard_normal(M.param_count(spec))
            batch = random_batch(rng, spec)
            for tag in ("kl", "qkl"):
                kind = D.DivergenceKind(tag, 0.0)
                assert D.divergence_value(kind, spec, theta, theta.copy(),
                                          batch) == pytest.approx(0.0, abs=1e-14)

    def test_kl_is_current_first(self):
        """kl(theta, ref) must be KL(p || p_ref), not the reverse."""
        rng = np.random.default_rng(61)
        spec = bigram_spec(4)
        theta = rng.standard_normal(16)
        ref = rng.standard_normal(16)
        batch = random_batch(rng, spec, n=6)
        P = M.softmax_rows(M.batch_logits(spec, theta, batch.contexts))
        Q = M.softmax_rows(M.batch_logits(spec, ref, batch.contexts))
        forward = float(np.mean(np.sum(P * (np.log(P) - np.log(Q)), axis=1)))
        reverse = float(np.mean(np.sum(Q * (np.log(Q) - np.log(P)), axis=1)))
        val = D.divergence_value(D.DivergenceKind("kl", 0.0), spec, theta, ref, batch)
        assert val == pytest.approx(forward, rel=1e-10)
        assert abs(val - reverse) > 1e-6

    def test_bregman_equals_reversed_kl_oracle(self):
        """The convexity gap of -log p_y in the logit table telescopes to
        mean_rows KL(p_ref || p): the linear terms cancel and what is left
        is lse(h) - lse(h') - p'^T (h - h'), the reversed KL."""
        rng = np.random.default_rng(62)
        spec = bigram_spec(4)
        theta = rng.standard_normal(16)
        ref = rng.standard_normal(16)
        batch = random_batch(rng, spec, n=8)
        P = M.softmax_rows(M.batch_logits(spec, theta, batch.contexts))
        Q = M.softmax_rows(M.batch_logits(spec, ref, batch.contexts))
        reverse = float(np.mean(np.sum(Q * (np.log(Q) - np.log(P)), axis=1)))
        assert D.divergence_value(D.DivergenceKind("bregman", 0.0), spec, theta,
                                  ref, batch) == pytest.approx(reverse, rel=1e-10)

    def test_bregman_requires_bigram(self):
        kind = D.DivergenceKind("bregman", 0.1)
        spec = mlp_spec()
        theta = np.zeros(M.param_count(spec))
        batch = random_batch(np.random.default_rng(63), spec)
        with pytest.raises(ValueError, match="bigram"):
            D.divergence_value(kind, spec, theta, theta, batch)

    def test_damped_adds_quadratic_penalty(self):
        rng = np.random.default_rng(64)
        spec = bigram_spec(4)
        theta = rng.standard_normal(16)
        ref = rng.standard_normal(16)
        batch = random_batch(rng, spec)
        kind = D.DivergenceKind("kl", 0.7)
        expected = (D.divergence_value(D.DivergenceKind("kl", 0.0), spec, theta, ref, batch)
                    + 0.35 * np.sum((theta - ref) ** 2))
        assert D.damped_value(kind, spec, theta, ref, batch) == pytest.approx(
            expected, rel=1e-12)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="tag"):
            D.DivergenceKind("wasserstein", 0.1)
        for lam in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lam"):
                D.DivergenceKind("kl", lam)


class TestBregmanKernel:
    def test_matches_the_double_nll_oracle(self):
        """On the divergence-quadratic check's bigram instances (seeds
        0-99), three unit displacements each: value and gradient within
        1e-12 relative of the double-nll form, for one point and for the
        stack of the three."""
        spec = bigram_spec()
        kind = D.DivergenceKind("bregman", 0.0)
        for seed in range(100):
            ref, batch, d = Hn._quadratic_check_instance(spec, seed)
            E = np.random.default_rng(seed).standard_normal((2, len(d)))
            theta = ref + np.vstack([d, E / np.linalg.norm(E, axis=1)[:, None]])
            v_or, g_or = bregman_oracle(spec, theta, ref, batch)
            values, grads = D.damped_value_and_grad(kind, spec, theta, ref, batch)
            for i in range(3):
                v, g = D.damped_value_and_grad(kind, spec, theta[i], ref, batch)
                for value, grad in ((v, g), (values[i], grads[i])):
                    assert abs(value - v_or[i]) <= 1e-12 * abs(v_or[i])
                    assert relative_error(grad, g_or[i]) <= 1e-12

    def test_takes_no_nll_evaluation(self, monkeypatch):
        """The value and gradient come from logits alone: no nll loss."""
        def called(*args):
            raise AssertionError("bregman evaluated an nll loss")

        monkeypatch.setattr(D.losses, "_loss_terms", called)
        rng = np.random.default_rng(70)
        spec = bigram_spec()
        batch = random_batch(rng, spec)
        theta, ref = rng.standard_normal((2, 25))
        D.damped_value_and_grad(D.DivergenceKind("bregman", 0.3), spec, theta,
                                ref, batch)


class TestGradients:
    @pytest.mark.parametrize("tag", ["kl", "qkl", "bregman"])
    def test_damped_grad_matches_finite_differences(self, tag):
        rng = np.random.default_rng(65)
        specs = [bigram_spec()] if tag == "bregman" else [bigram_spec(), mlp_spec()]
        for spec in specs:
            theta = rng.standard_normal(M.param_count(spec)) * 0.5
            ref = theta + 0.1 * rng.standard_normal(M.param_count(spec))
            batch = random_batch(rng, spec)
            kind = D.DivergenceKind(tag, 0.3)
            g = D.damped_grad(kind, spec, theta, ref, batch)
            fd = central_difference_gradient(
                lambda th: D.damped_value(kind, spec, th, ref, batch), theta)
            assert relative_error(g, fd) < 1e-6

    def test_grad_zero_at_reference(self):
        rng = np.random.default_rng(66)
        spec = bigram_spec()
        theta = rng.standard_normal(25)
        batch = random_batch(rng, spec)
        for tag in ("kl", "qkl", "bregman"):
            kind = D.DivergenceKind(tag, 0.5)
            g = D.damped_grad(kind, spec, theta, theta.copy(), batch)
            np.testing.assert_allclose(g, 0.0, atol=1e-12)


class TestFusedValueAndGrad:
    @pytest.mark.parametrize("tag", ["kl", "qkl", "bregman"])
    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_bitwise_equal_to_separate_calls(self, tag, lam):
        """Also at V = 2 and with both points (so the logits) scaled x1e3,
        where every value and gradient stays finite."""
        rng = np.random.default_rng(64)
        kind = D.DivergenceKind(tag, lam)
        makers = (bigram_spec,) if tag == "bregman" else (bigram_spec, mlp_spec)
        for V, scale in ((5, 1.0), (2, 1.0), (5, 1e3)):
            for spec in (make(V) for make in makers):
                theta = scale * rng.standard_normal(M.param_count(spec))
                ref = scale * rng.standard_normal(M.param_count(spec))
                batch = random_batch(rng, spec)
                value, grad = D.damped_value_and_grad(kind, spec, theta, ref, batch)
                assert np.isfinite(value) and np.all(np.isfinite(grad))
                assert value == D.damped_value(kind, spec, theta, ref, batch)
                np.testing.assert_array_equal(
                    grad, D.damped_grad(kind, spec, theta, ref, batch))

    def test_qkl_kernel_is_bitwise_the_two_softmax_formulas(self):
        rng = np.random.default_rng(67)
        H = 2.0 * rng.standard_normal((40, 7))
        Href = H + rng.standard_normal((40, 7))
        P = M.softmax_rows(H)
        Dd = H - Href
        m1 = (P * Dd).sum(axis=1)
        m2 = (P * Dd * Dd).sum(axis=1)
        v, g = D._qkl_terms(Dd, M.softmax_rows(H), True, True)
        np.testing.assert_array_equal(v, m2 - m1 * m1)
        P = M.softmax_rows(H)
        m1 = (P * Dd).sum(axis=1, keepdims=True)
        m2 = (P * Dd * Dd).sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(
            g, P * (2.0 * Dd - 2.0 * m1 + Dd * Dd - m2 - 2.0 * m1 * Dd + 2.0 * m1 * m1))
        assert D._qkl_terms(Dd, P, False, True)[0] is None
        np.testing.assert_array_equal(D._qkl_terms(Dd, P, True, False)[0], v)


class TestStackedParameters:
    @pytest.mark.parametrize("tag", ["kl", "qkl", "bregman"])
    def test_each_row_is_bitwise_its_own_call(self, tag):
        """Stacks of (2, 3) points and references, and one-row stacks,
        against one call per row: raw and damped values and gradients,
        each of damped_value, damped_grad and damped_value_and_grad."""
        rng = np.random.default_rng(68)
        kind = D.DivergenceKind(tag, 0.3)
        makers = (bigram_spec,) if tag == "bregman" else (bigram_spec, mlp_spec)
        for spec, lead in ((make(), lead) for make in makers
                           for lead in ((2, 3), (1,))):
            theta = rng.standard_normal(lead + (M.param_count(spec),))
            ref = rng.standard_normal(theta.shape)
            batch = random_batch(rng, spec)
            values, grads = D.damped_value_and_grad(kind, spec, theta, ref, batch)
            raw = D.divergence_value(kind, spec, theta, ref, batch)
            assert values.shape == raw.shape == lead
            value = D.damped_value(kind, spec, theta, ref, batch)
            grad = D.damped_grad(kind, spec, theta, ref, batch)
            assert same_bits(values, value) and same_bits(grads, grad)
            for i in np.ndindex(lead):
                v, g = D.damped_value_and_grad(kind, spec, theta[i], ref[i], batch)
                assert same_bits(values[i], v) and same_bits(grads[i], g)
                assert same_bits(value[i], D.damped_value(kind, spec, theta[i],
                                                          ref[i], batch))
                assert same_bits(grad[i], D.damped_grad(kind, spec, theta[i],
                                                        ref[i], batch))
                assert same_bits(raw[i], D.divergence_value(kind, spec, theta[i],
                                                            ref[i], batch))


def two_pass_terms(tag, spec, theta, ref, batch):
    """The divergence's raw value and gradient as computed with a forward
    pass and an exp pass at each point: softmax and log-softmax of each
    logit matrix, the row formula, one backprop at theta."""
    H, aux = M._forward(spec, theta, batch.inputs(spec))
    Href = M.batch_logits(spec, ref, batch)
    if tag == "kl":
        vals, G = L._it_terms(H, M.log_softmax_rows(Href), True)
    elif tag == "qkl":
        vals, G = D._qkl_terms(H - Href, M.softmax_rows(H), True, True)
    else:
        vals = L._it_terms(Href, M.log_softmax_rows(H), False)[0]
        G = M.softmax_rows(H) - M.softmax_rows(Href)
    return (L._batch_mean(vals),
            M.grad_from_logit_grads(spec, theta, G / len(batch), aux))


class TestOneForwardPass:
    @pytest.mark.parametrize("tag", ["kl", "qkl", "bregman"])
    def test_stacked_points_are_bitwise_the_two_pass_formulas(self, tag):
        """One forward and one exp pass over [theta, theta_ref] against a
        pass at each point: one point, a stack of points, and a stack
        against one reference (broadcast first)."""
        rng = np.random.default_rng(69)
        kind = D.DivergenceKind(tag, 0.0)
        makers = (bigram_spec,) if tag == "bregman" else (bigram_spec, mlp_spec)
        for spec in (make() for make in makers):
            dim = M.param_count(spec)
            batch = random_batch(rng, spec)
            for shape, ref_shape in (((dim,), (dim,)), ((3, dim), (3, dim)),
                                     ((3, dim), (dim,))):
                theta = rng.standard_normal(shape)
                ref = rng.standard_normal(ref_shape)
                v, g = D._logit_terms(tag, spec, theta, ref, batch, True, True)
                want = two_pass_terms(tag, spec, theta,
                                      np.broadcast_to(ref, shape), batch)
                assert same_bits(v, want[0]) and same_bits(g, want[1])


class TestLocalQuadratic:
    def test_residual_decays_third_order(self):
        """|D(ref + t d, ref) - s (t^2 / 2) d^T H d| must shrink like t^3,
        so residual / t^2 drops ~10x per decade of t."""
        rng = np.random.default_rng(67)
        for spec in (bigram_spec(), mlp_spec()):
            theta_ref = M.init_params(spec, 9)
            d = rng.standard_normal(M.param_count(spec))
            d /= np.linalg.norm(d)
            batch = random_batch(rng, spec)
            for tag in ("kl", "qkl"):
                kind = D.DivergenceKind(tag, 0.0)
                ratios = [D.local_quadratic_residual(kind, spec, theta_ref, d,
                                                     t, batch) / t ** 2
                          for t in (1e-2, 1e-3, 1e-4)]
                assert ratios[2] <= 0.2 * ratios[0]

    def test_curvature_quadratic_form_matches_dense_assembly(self):
        rng = np.random.default_rng(68)
        for spec in (bigram_spec(4), mlp_spec()):
            theta_ref = M.init_params(spec, 5)
            batch = random_batch(rng, spec)
            d = rng.standard_normal(M.param_count(spec))
            H = assemble_gnh(spec, theta_ref, batch)
            assert D.curvature_quadratic_form(spec, theta_ref, batch, d) == \
                pytest.approx(float(d @ H @ d), rel=1e-9)

    def test_qkl_carries_twice_the_curvature(self):
        """To second order qkl(ref + t d, ref) = 2 kl(ref + t d, ref): the
        per-kind curvature scale is 1 for kl and 2 for qkl."""
        rng = np.random.default_rng(69)
        spec = bigram_spec()
        theta_ref = M.init_params(spec, 6)
        d = rng.standard_normal(25)
        d /= np.linalg.norm(d)
        batch = random_batch(rng, spec)
        t = 1e-4
        kl, qkl = (D.divergence_value(D.DivergenceKind(tag, 0.0), spec,
                                      theta_ref + t * d, theta_ref, batch)
                   for tag in ("kl", "qkl"))
        assert qkl / kl == pytest.approx(2.0, rel=1e-3)
        assert D.CURVATURE_SCALE == {"kl": 1.0, "qkl": 2.0, "bregman": 1.0}
