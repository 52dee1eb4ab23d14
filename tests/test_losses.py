"""Unlearning losses: exact values, gradient identities, finite differences.

Loss conventions (all minimized):
  nll  = -log p_y
  ll   = +log p_y            (minimizing drives p_y down)
  nlul = -log(1 - p_y)
  it   = KL(softmax(h) || softmax(teacher_h))
  npo  = (2/beta) softplus(beta (L_theta - L_base)) per sequence,
         L = sequence log-probability
"""

import numpy as np
import pytest
from scipy.special import expit, logsumexp

from conftest import (central_difference_gradient, grad_sequence_logprob,
                      ll_grad_rows, ll_value_rows, nll_grad_rows,
                      nll_value_rows, nlul_grad_rows, nlul_value_rows, npo_grad,
                      npo_value, npo_weight, relative_error, same_bits)
from mtunlearn import losses as L
from mtunlearn import model as M


def bigram_spec(V=5):
    return M.ModelSpec(M.BIGRAM, V)


def mlp_spec(V=5):
    return M.ModelSpec(M.MLP, V, context_len=2, hidden_dim=4)


def random_rows(rng, n=8, V=5, scale=2.0):
    H = rng.standard_normal((n, V)) * scale
    y = rng.integers(0, V, n)
    return H, y


def random_batch(rng, spec, n=10):
    ctx = rng.integers(0, spec.vocab_size, (n, spec.context_len))
    nxt = rng.integers(0, spec.vocab_size, n)
    return M.TokenDataset(ctx, nxt)


class TestRowIdentities:
    def test_ll_is_exact_negation_of_nll(self):
        """ll and nll pick the same log-probabilities, so the negation is
        bitwise, not approximate."""
        rng = np.random.default_rng(40)
        for _ in range(20):
            H, y = random_rows(rng)
            assert np.array_equal(ll_value_rows(H, y), -nll_value_rows(H, y))
            assert np.array_equal(ll_grad_rows(H, y), -nll_grad_rows(H, y))

    def test_nlul_gradient_weight_identity(self):
        """grad nlul = (p_y / (1 - p_y)) * grad ll, row by row."""
        rng = np.random.default_rng(41)
        for _ in range(20):
            H, y = random_rows(rng)
            P = M.softmax_rows(H)
            p_y = P[np.arange(len(y)), y]
            w = p_y / (1.0 - p_y)
            expected = w[:, None] * ll_grad_rows(H, y)
            err = relative_error(nlul_grad_rows(H, y), expected)
            assert err <= 1e-10

    def test_it_uniform_is_log_v_minus_entropy(self):
        """Against a uniform teacher, KL(p || u) = log V - H(p)."""
        rng = np.random.default_rng(42)
        V = 5
        for _ in range(20):
            H, _ = random_rows(rng, V=V)
            P = M.softmax_rows(H)
            entropy = -np.sum(P * np.log(P), axis=1)
            expected = np.log(V) - entropy
            uniform = np.zeros_like(H)
            vals = L._it_terms(H, M.log_softmax_rows(uniform), False)[0]
            err = np.max(np.abs(vals - expected))
            assert err <= 1e-10

    def test_it_value_zero_at_teacher(self):
        rng = np.random.default_rng(43)
        H, _ = random_rows(rng)
        np.testing.assert_allclose(
            L._it_terms(H, M.log_softmax_rows(H.copy()), False)[0], 0.0, atol=1e-14)


class TestNluLStability:
    def test_clamp_keeps_saturated_rows_finite(self):
        """At p_y ~ 1 the raw -log(1 - p_y) overflows; the clamp caps the
        complement probability at clamp_eps from below."""
        H, y = np.array([[80.0, 0.0, 0.0, 0.0]]), [0]
        val = nlul_value_rows(H, y)[0]
        g = nlul_grad_rows(H, y)[0]
        assert np.isfinite(val)
        assert np.all(np.isfinite(g))
        assert val == pytest.approx(-np.log(1e-12), rel=1e-6)

    def test_moderate_rows_match_naive_formula(self):
        rng = np.random.default_rng(45)
        H, y = random_rows(rng)
        P = M.softmax_rows(H)
        p_y = P[np.arange(len(y)), y]
        np.testing.assert_allclose(nlul_value_rows(H, y), -np.log1p(-p_y),
                                   rtol=1e-10)


class TestNpo:
    def test_value_and_weight_at_base_model(self):
        """At theta = base: value = (2/beta) log 2, weight = 1/2."""
        rng = np.random.default_rng(46)
        spec = bigram_spec()
        theta = rng.standard_normal(25)
        s = [0, 3, 1, 4]
        beta = 0.7
        assert npo_value(spec, s, theta, theta, beta) == pytest.approx(
            (2.0 / beta) * np.log(2.0), rel=1e-12)
        assert npo_weight(spec, s, theta, theta, beta) == pytest.approx(0.5)

    def test_sequence_weight_identity(self):
        """grad npo = 2 sigmoid(beta (L_theta - L_base)) grad L_theta,
        checked against the finite-difference gradient of npo_value."""
        rng = np.random.default_rng(47)
        spec = bigram_spec(4)
        beta = 0.5
        for _ in range(20):
            theta = rng.standard_normal(16)
            base = rng.standard_normal(16)
            s = list(rng.integers(0, 4, 5))
            w = expit(beta * (M.sequence_logprob(spec, theta, s)
                              - M.sequence_logprob(spec, base, s)))
            identity = 2.0 * w * grad_sequence_logprob(spec, theta, s)
            np.testing.assert_allclose(npo_grad(spec, s, theta, base, beta),
                                       identity, rtol=1e-12)
            fd = central_difference_gradient(
                lambda th: npo_value(spec, s, th, base, beta), theta)
            assert relative_error(identity, fd) <= 1e-6


class TestBatchInterface:
    @pytest.mark.parametrize("tag", ["nll", "ll", "nlul", "it"])
    def test_batch_grad_matches_finite_differences(self, tag):
        rng = np.random.default_rng(48)
        kind = L.LossKind(tag)
        for spec in (bigram_spec(), mlp_spec()):
            theta = rng.standard_normal(M.param_count(spec)) * 0.5
            batch = random_batch(rng, spec)
            g = L.batch_grad(kind, spec, theta, batch)
            fd = central_difference_gradient(
                lambda th: L.batch_loss(kind, spec, th, batch), theta)
            assert relative_error(g, fd) < 1e-6

    def test_npo_batch_matches_finite_differences(self):
        rng = np.random.default_rng(49)
        spec = bigram_spec(4)
        kind = L.LossKind("npo", beta=0.3)
        theta = rng.standard_normal(16) * 0.5
        base = rng.standard_normal(16) * 0.5
        batch = L.npo_pairs(spec, [[0, 1, 2, 3], [3, 2, 1]], base)
        g = L.batch_grad(kind, spec, theta, batch)
        fd = central_difference_gradient(
            lambda th: L.batch_loss(kind, spec, th, batch), theta)
        assert relative_error(g, fd) < 1e-6

    def test_nll_of_flat_logits_is_log_vocab(self):
        spec = bigram_spec(8)
        theta = np.zeros(64)
        batch = random_batch(np.random.default_rng(50), spec)
        assert L.batch_loss(L.LossKind("nll"), spec, theta, batch) == \
            pytest.approx(np.log(8.0), rel=1e-12)

    def test_empty_batch_rejected(self):
        spec = bigram_spec()
        empty = M.TokenDataset(np.zeros((0, 1), dtype=int),
                               np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            L.batch_loss(L.LossKind("nll"), spec, np.zeros(25), empty)

    def test_npo_requires_base_model(self):
        """npo takes the base model's values from an npo_pairs batch; a
        list of sequences or a plain dataset of them carries none."""
        spec = bigram_spec()
        seqs = [[0, 1, 2], [3, 4]]
        for batch in (seqs, M.dataset_from_sequences(seqs, 1)):
            for fn in (L.batch_loss, L.batch_grad, L.batch_value_and_grad):
                with pytest.raises(ValueError, match="npo_pairs"):
                    fn(L.LossKind("npo"), spec, np.zeros(25), batch)

    @pytest.mark.parametrize("n", [1, 2])
    def test_npo_base_values_must_match_the_sequences(self, n):
        """One base value per sequence: a one-entry array would broadcast
        over a 3-sequence batch, and a two-entry one would not broadcast."""
        spec = bigram_spec()
        pairs = L.npo_pairs(spec, [[0, 1, 2], [3, 4], [1, 3, 0, 2]], np.zeros(25))
        bad = M.TokenDataset(pairs.contexts, pairs.nexts, pairs.sequences,
                             pairs.base_logprob[:n])
        for fn in (L.batch_loss, L.batch_grad, L.batch_value_and_grad):
            with pytest.raises(ValueError, match="base_logprob.*npo_pairs"):
                fn(L.LossKind("npo"), spec, np.zeros(25), bad)

    def test_npo_requires_sequences(self):
        spec = bigram_spec()
        rows_only = random_batch(np.random.default_rng(51), spec)
        with pytest.raises(ValueError, match="sequences"):
            L.npo_pairs(spec, rows_only, np.zeros(25))

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="tag"):
            L.LossKind("elbo")


class TestSigmoid:
    def test_sigmoid_is_bitwise_scipy_expit(self):
        """npo's sigmoid equals expit bit for bit on random points across
        the whole range and on the overflow, signed-zero, infinite and
        NaN edges, and keeps the input's shape."""
        rng = np.random.default_rng(56)
        x = np.concatenate([rng.standard_normal(50_000) * 30.0,
                            rng.uniform(-800.0, 800.0, 50_000),
                            rng.standard_normal(20_000) * 1e-3])
        edges = [0.0, -0.0, 709.78, -709.78, 745.0, -745.0, 1e308, -1e308,
                 np.inf, -np.inf, np.nan]
        for pts in (x, np.array(edges)):
            s = L._sigmoid(pts)
            np.testing.assert_array_equal(s.view(np.int64),
                                          expit(pts).view(np.int64))
        assert L._sigmoid(x.reshape(40, -1)).shape == (40, 3000)
        assert L._sigmoid(-1.5).shape == ()


class TestLogsumexp:
    def test_matches_scipy_on_inf_and_saturated_rows(self):
        """The numpy form keeps scipy's arithmetic (maximal entries out of
        the sum, log1p), including ties, -inf entries and x1e3 logits."""
        rng = np.random.default_rng(54)
        for scale in (1.0, 1e3):
            H, y = random_rows(rng, n=40, V=7, scale=scale)
            H[:5] = np.round(H[:5])            # ties at the row maximum
            H[5] = 0.0
            Hm = H.copy()
            Hm[np.arange(len(H)), y] = -np.inf
            Hm[6, :3] = -np.inf
            for A in (H, Hm):
                np.testing.assert_allclose(L._logsumexp_rows(A),
                                           logsumexp(A, axis=1),
                                           rtol=1e-15, atol=0)

    def test_nlul_gradient_y_entry_is_p_y(self):
        """Where the clamp is inactive, w * (1 - p_y) = p_y at the y entry,
        down to p_y far below 1e-300 on x1e3 logits."""
        rng = np.random.default_rng(55)
        for scale in (2.0, 1e3):
            H, y = random_rows(rng, n=60, V=6, scale=scale)
            P = M.softmax_rows(H)
            p_y = P[np.arange(len(y)), y]
            live = (p_y < 0.5) & (p_y > 0)
            G = nlul_grad_rows(H, y)
            np.testing.assert_allclose(G[np.arange(len(y)), y][live],
                                       p_y[live], rtol=1e-13, atol=0)


def oracle_rows(kind, H, y):
    """(values, logit gradients) of the log-space *_rows oracles."""
    if kind.tag == "nll":
        return nll_value_rows(H, y), nll_grad_rows(H, y)
    if kind.tag == "ll":
        return ll_value_rows(H, y), ll_grad_rows(H, y)
    return nlul_value_rows(H, y), nlul_grad_rows(H, y)


class TestLabelKernel:
    """The one-pass nll/ll/nlul kernel against the log-space oracle, and
    the it and qkl kernels against the two-softmax formulas they replace."""

    @staticmethod
    def cases(rng):
        H, y = random_rows(rng, n=40, V=7)
        ties = np.round(H)
        ties[:10, :2] = ties[:10].max(axis=1, keepdims=True)
        y_ties = y.copy()
        y_ties[:5] = 0                      # y on a tied maximum
        lead = H.copy()
        lead[np.arange(40), y] = H.max(axis=1) + 800.0 + 50.0 * rng.random(40)
        return {"random": (H, y), "ties": (ties, y_ties), "x1e3": (H * 1e3, y),
                "V2": random_rows(rng, n=40, V=2), "lead": (lead, y)}

    @pytest.mark.parametrize("tag", ["nll", "ll", "nlul"])
    def test_matches_log_space_oracle(self, tag):
        """nll and ll values are bitwise the oracle's; every other entry
        agrees at rtol 1e-12 above the oracle's own floor.  The oracle
        forms log(1 - p_y) as a difference of two unshifted logsumexps,
        good to a few ulps of max|h| in absolute terms, which bounds both
        the nlul value near p_y = 0 and the relative error of exp(log(1 -
        p_y)).  Where y leads by >= 800 the complement mass underflows and
        the kernel takes the oracle's log-space value."""
        rng = np.random.default_rng(58)
        kind = L.LossKind(tag)
        for name, (H, y) in self.cases(rng).items():
            floor = 8 * np.finfo(float).eps * np.maximum(1.0, np.abs(H).max(axis=1))
            value, grad = oracle_rows(kind, H, y)
            with np.errstate(all="raise"):
                v, g = L._label_rows(kind, H, y, True, True)
                assert L._label_rows(kind, H, y, True, False)[1] is None
                assert L._label_rows(kind, H, y, False, True)[0] is None
            if tag == "nlul":
                assert np.all(np.abs(v - value) <= 1e-12 * np.abs(value) + floor), name
            else:
                np.testing.assert_array_equal(v, value, err_msg=name)
            assert np.all(np.abs(g - grad) <= (1e-12 + floor[:, None]) * np.abs(grad)), name
            if name == "lead":
                np.testing.assert_array_equal(v, value)
                np.testing.assert_array_equal(g, grad)

    def test_it_kernel_is_bitwise_the_softmax_formula(self):
        rng = np.random.default_rng(59)
        H, _ = random_rows(rng, n=40, V=7)
        for log_q in (M.log_softmax_rows(rng.standard_normal(H.shape)), -np.log(7)):
            P = M.softmax_rows(H)
            R = M.log_softmax_rows(H) - log_q
            value = (P * R).sum(axis=1)
            v, g = L._it_terms(H, log_q, True)
            np.testing.assert_array_equal(v, value)
            np.testing.assert_array_equal(g, P * (R - value[:, None]))
            np.testing.assert_array_equal(L._it_terms(H, log_q, False)[0], value)


def loss_kinds(spec, rng):
    teacher = L.TeacherLogits(spec, rng.standard_normal(M.param_count(spec)))
    return [L.LossKind("nll"), L.LossKind("ll"), L.LossKind("nlul"),
            L.LossKind("it"), L.LossKind("it", teacher=teacher),
            L.LossKind("npo", beta=0.4)]


class TestFusedValueAndGrad:
    @pytest.mark.parametrize("make_spec", [bigram_spec, mlp_spec])
    def test_bitwise_equal_to_separate_calls(self, make_spec):
        """Also at V = 2 and with theta (so the logits) scaled x1e3, where
        every value and gradient stays finite."""
        rng = np.random.default_rng(56)
        for V, scale in ((5, 1.0), (2, 1.0), (5, 1e3)):
            spec = make_spec(V)
            theta = scale * rng.standard_normal(M.param_count(spec))
            base = rng.standard_normal(M.param_count(spec))
            pairs = random_batch(rng, spec)
            seqs = M.dataset_from_sequences(
                [np.array(s) % V for s in ([0, 1, 2, 3], [4, 2], [3, 3, 1])],
                spec.context_len)
            seqs = L.npo_pairs(spec, seqs, base)
            for kind in loss_kinds(spec, rng):
                batch = seqs if kind.tag == "npo" else pairs
                value, grad = L.batch_value_and_grad(kind, spec, theta, batch)
                assert np.isfinite(value) and np.all(np.isfinite(grad))
                assert value == L.batch_loss(kind, spec, theta, batch)
                np.testing.assert_array_equal(
                    grad, L.batch_grad(kind, spec, theta, batch))


class TestStackedParameters:
    @pytest.mark.parametrize("make_spec", [bigram_spec, mlp_spec])
    def test_each_row_is_bitwise_its_own_call(self, make_spec):
        """A (2, 3, dim) stack of parameter vectors against one call per
        row, for every loss; one row's logits let the labels of token 0
        lead by at least 800, so nlul takes its log-space complement
        there."""
        rng = np.random.default_rng(60)
        spec = make_spec()
        dim = M.param_count(spec)
        stack = rng.standard_normal((2, 3, dim))
        if spec.kind == M.BIGRAM:
            stack[0, 1].reshape(5, 5)[:, 0] = 900.0
        else:
            stack[0, 1, -5] = 900.0            # the bias of token 0
        base = rng.standard_normal(dim)
        pairs = random_batch(rng, spec, n=12)
        pairs.nexts[:4] = 0
        H = M.batch_logits(spec, stack[0, 1], pairs)
        assert (H[:4, 0] - np.delete(H[:4], 0, axis=1).max(axis=1) >= 800).all()
        seqs = L.npo_pairs(spec, M.dataset_from_sequences(
            [[0, 1, 2, 3], [4, 2], [3, 3, 1, 0]], spec.context_len), base)
        for kind in loss_kinds(spec, rng):
            batch = seqs if kind.tag == "npo" else pairs
            values, grads = L.batch_value_and_grad(kind, spec, stack, batch)
            assert values.shape == (2, 3) and grads.shape == stack.shape
            assert same_bits(values, L.batch_loss(kind, spec, stack, batch))
            assert same_bits(grads, L.batch_grad(kind, spec, stack, batch))
            for i in np.ndindex(2, 3):
                v, g = L.batch_value_and_grad(kind, spec, stack[i], batch)
                assert same_bits(values[i], v) and same_bits(grads[i], g)


class TestBatchMean:
    def test_sum_over_n_is_numpy_mean_bit_for_bit(self):
        """The batch losses average row values as sum / n; on 2 400 random
        vectors that is np.mean's result bit for bit."""
        rng = np.random.default_rng(58)
        for _ in range(2400):
            v = rng.standard_normal(int(rng.integers(1, 3000)))
            v *= 10.0 ** rng.uniform(-100, 100)
            assert v.sum() / len(v) == v.mean()

    @pytest.mark.parametrize("tag", ["nll", "ll", "nlul", "it"])
    def test_batch_loss_is_the_mean_of_its_rows(self, tag):
        rng = np.random.default_rng(59)
        kind = L.LossKind(tag)
        for spec in (bigram_spec(), mlp_spec()):
            theta = rng.standard_normal(M.param_count(spec))
            batch = random_batch(rng, spec, n=13)
            H = M.batch_logits(spec, theta, batch)
            if tag == "it":
                vals = L._it_terms(H, M.log_softmax_rows(np.zeros_like(H)),
                                   False)[0]
            else:
                vals = L._label_rows(kind, H, batch.nexts, True, False)[0]
            assert L.batch_loss(kind, spec, theta, batch) == float(np.mean(vals))


class TestBatchedNpo:
    SEQS = [[0, 1, 2, 3, 4, 0], [3, 2], [1, 4, 1], [3, 2]]

    @pytest.mark.parametrize("make_spec", [bigram_spec, mlp_spec])
    def test_matches_mean_of_per_sequence_terms(self, make_spec):
        """Sequences of unequal length (one repeated), given as pairs or as
        a plain list, against the per-sequence npo_value / npo_grad."""
        rng = np.random.default_rng(57)
        spec = make_spec()
        beta = 0.6
        kind = L.LossKind("npo", beta=beta)
        for _ in range(5):
            theta = rng.standard_normal(M.param_count(spec))
            base = rng.standard_normal(M.param_count(spec))
            value = np.mean([npo_value(spec, s, theta, base, beta)
                             for s in self.SEQS])
            grad = np.mean([npo_grad(spec, s, theta, base, beta)
                            for s in self.SEQS], axis=0)
            for seqs in (M.dataset_from_sequences(self.SEQS, spec.context_len),
                         self.SEQS):
                v, g = L.batch_value_and_grad(kind, spec, theta,
                                              L.npo_pairs(spec, seqs, base))
                assert v == pytest.approx(value, rel=1e-12)
                assert relative_error(g, grad) <= 1e-12


class TestTeacher:
    def test_default_teacher_is_uniform(self):
        t = L.TeacherLogits()
        H = t.batch(np.array([[0], [1]]), 5)
        np.testing.assert_array_equal(H, np.zeros((2, 5)))

    def test_uniform_log_probs_are_the_zero_logit_log_softmax(self):
        """-log V in place of the log-softmax of zero logits leaves the
        log-ratio bitwise unchanged (1400 random rows, V from 2 to 1000)."""
        rng = np.random.default_rng(54)
        for V in rng.integers(2, 1001, 20):
            H = 5.0 * rng.standard_normal((70, V))
            log_q = L.TeacherLogits().log_probs(np.zeros((70, 1), int), V)
            zero = M.log_softmax_rows(np.zeros((70, V)))
            assert np.array_equal(M.log_softmax_rows(H) - log_q,
                                  M.log_softmax_rows(H) - zero)

    def test_uniform_it_is_bitwise_the_zero_logit_teacher(self):
        """The uniform teacher against a model teacher with all-zero
        parameters, whose logits are exactly zero."""
        rng = np.random.default_rng(55)
        for spec in (bigram_spec(), mlp_spec()):
            zeros = np.zeros(M.param_count(spec))
            theta = rng.standard_normal(M.param_count(spec))
            batch = random_batch(rng, spec)
            assert not M.batch_logits(spec, zeros, batch.contexts).any()
            uniform = L.LossKind("it")
            explicit = L.LossKind("it", teacher=L.TeacherLogits(spec, zeros))
            v, g = L.batch_value_and_grad(uniform, spec, theta, batch)
            v_ref, g_ref = L.batch_value_and_grad(explicit, spec, theta, batch)
            assert v == v_ref and np.array_equal(g, g_ref)
            assert L.batch_loss(uniform, spec, theta, batch) == v_ref
            assert np.array_equal(L.batch_grad(uniform, spec, theta, batch), g_ref)

    def test_model_teacher_serves_its_logits(self):
        rng = np.random.default_rng(52)
        spec = bigram_spec(4)
        theta_t = rng.standard_normal(16)
        teacher = L.TeacherLogits(spec, theta_t)
        ctx = np.array([[0], [2], [3]])
        np.testing.assert_allclose(teacher.batch(ctx, 4),
                                   M.batch_logits(spec, theta_t, ctx))

    def test_it_loss_against_model_teacher_is_kl(self):
        rng = np.random.default_rng(53)
        spec = bigram_spec(4)
        theta = rng.standard_normal(16)
        theta_t = rng.standard_normal(16)
        kind = L.LossKind("it", teacher=L.TeacherLogits(spec, theta_t))
        batch = random_batch(rng, spec, n=6)
        P = M.softmax_rows(M.batch_logits(spec, theta, batch.contexts))
        Q = M.softmax_rows(M.batch_logits(spec, theta_t, batch.contexts))
        manual = float(np.mean(np.sum(P * (np.log(P) - np.log(Q)), axis=1)))
        assert L.batch_loss(kind, spec, theta, batch) == pytest.approx(
            manual, rel=1e-10)
