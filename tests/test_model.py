"""Token models: layouts, forward passes, exact derivatives, decoding."""

import json

import numpy as np
import pytest

from conftest import (central_difference_gradient, grad_sequence_logprob,
                      raw_backprop, raw_forward, relative_error, same_bits)
from mtunlearn import losses as L
from mtunlearn import model as M


def bigram_spec(V=5):
    return M.ModelSpec(M.BIGRAM, V)


def mlp_spec(V=6, ctx=2, hid=4):
    return M.ModelSpec(M.MLP, V, context_len=ctx, hidden_dim=hid)


def random_batch(rng, spec, n=12):
    """Random (context, next) pairs, including left-padded contexts."""
    ctx = rng.integers(0, spec.vocab_size, (n, spec.context_len))
    if spec.context_len > 1:
        ctx[: n // 3, 0] = M.PAD
    nxt = rng.integers(0, spec.vocab_size, n)
    return M.TokenDataset(ctx, nxt)


def mlp_logits_oracle(spec, theta, contexts):
    """Independent forward pass: concatenated one-hot -> tanh -> linear."""
    V, C, Hd = spec.vocab_size, spec.context_len, spec.hidden_dim
    D = V * C
    i = 0
    W1 = theta[i:i + Hd * D].reshape(Hd, D)
    i += Hd * D
    b1 = theta[i:i + Hd]
    i += Hd
    W2 = theta[i:i + V * Hd].reshape(V, Hd)
    i += V * Hd
    b2 = theta[i:i + V]
    contexts = np.asarray(contexts, dtype=int)
    X = np.zeros((len(contexts), D))
    for r, c in enumerate(contexts):
        for j, tok in enumerate(c):
            if tok != M.PAD:
                X[r, j * V + tok] = 1.0
    Z = np.tanh(np.einsum("hd,nd->nh", W1, X) + b1)
    return np.einsum("vh,nh->nv", W2, Z) + b2


class TestLayout:
    def test_bigram_param_count(self):
        assert M.param_count(bigram_spec(7)) == 49

    def test_mlp_param_count(self):
        spec = mlp_spec(V=6, ctx=2, hid=4)
        # W1: 4*12, b1: 4, W2: 6*4, b2: 6
        assert M.param_count(spec) == 48 + 4 + 24 + 6

    def test_layout_slices_disjoint_and_cover(self):
        spec = mlp_spec()
        lay = M.param_layout(spec)
        spans = sorted(lay.values())
        assert spans[0][0] == 0
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 == b0
        assert spans[-1][1] == M.param_count(spec)

    def test_init_params_seeded_and_bounded(self):
        spec = bigram_spec()
        a = M.init_params(spec, 3)
        b = M.init_params(spec, 3)
        c = M.init_params(spec, 4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(np.abs(a) <= 0.1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            M.ModelSpec("unknown-kind", 5)
        with pytest.raises(ValueError):
            M.ModelSpec(M.MLP, 5, context_len=2, hidden_dim=0)


class TestForward:
    def test_bigram_logits_are_table_rows(self):
        rng = np.random.default_rng(10)
        spec = bigram_spec(4)
        theta = rng.standard_normal(16)
        for r in range(4):
            np.testing.assert_array_equal(M.logits(spec, theta, [r]),
                                          theta[4 * r:4 * r + 4])

    def test_mlp_logits_match_independent_oracle(self):
        rng = np.random.default_rng(11)
        spec = mlp_spec()
        theta = rng.standard_normal(M.param_count(spec))
        batch = random_batch(rng, spec)
        H = M.batch_logits(spec, theta, batch.contexts)
        np.testing.assert_allclose(H, mlp_logits_oracle(spec, theta, batch.contexts),
                                   rtol=1e-12, atol=1e-14)

    def test_token_checks_keep_their_messages(self):
        spec = bigram_spec()
        theta = np.zeros(25)
        for bad in ([[5]], [[-2]], [[0], [7]]):
            with pytest.raises(ValueError, match="out of vocabulary"):
                M.batch_logits(spec, theta, np.array(bad))
        with pytest.raises(ValueError, match="non-empty context"):
            M.batch_logits(spec, theta, np.array([[1], [M.PAD]]))
        mlp = mlp_spec()
        with pytest.raises(ValueError, match="out of vocabulary"):
            M.batch_logits(mlp, np.zeros(M.param_count(mlp)),
                           np.array([[M.PAD, 6]]))

    def test_pad_token_contributes_nothing(self):
        """A -1 context slot must act exactly like a zeroed one-hot block."""
        rng = np.random.default_rng(12)
        spec = mlp_spec()
        theta = rng.standard_normal(M.param_count(spec))
        h_pad = M.logits(spec, theta, [M.PAD, 3])
        h_oracle = mlp_logits_oracle(spec, theta, [[M.PAD, 3]])[0]
        np.testing.assert_allclose(h_pad, h_oracle, rtol=1e-12)

    def test_softmax_rows_normalized(self):
        rng = np.random.default_rng(13)
        H = rng.standard_normal((6, 5)) * 30
        P = M.softmax_rows(H)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.log(P), M.log_softmax_rows(H), atol=1e-9)


class TestPreparedInputs:
    """A dataset checks and encodes its ids once; everything after is
    arithmetic on the kept encoding, bit for bit the per-call path."""

    @pytest.mark.parametrize("make_spec", [bigram_spec, mlp_spec],
                             ids=["bigram", "mlp"])
    def test_forward_and_backprop_match_the_raw_id_path(self, make_spec):
        rng = np.random.default_rng(14)
        spec = make_spec()
        for n in (1, 7, 40):
            theta = rng.standard_normal(M.param_count(spec))
            batch = random_batch(rng, spec, n=n)    # MLP: PAD slots included
            H, aux = M._forward(spec, theta, batch.inputs(spec))
            H_raw, aux_raw = raw_forward(spec, theta, batch.contexts)
            assert same_bits(H, H_raw)
            assert same_bits(M.batch_logits(spec, theta, batch), H_raw)
            assert same_bits(M.batch_logits(spec, theta, batch.contexts), H_raw)
            G = rng.standard_normal(H.shape)
            assert same_bits(M.grad_from_logit_grads(spec, theta, G, aux),
                             raw_backprop(spec, theta, G, aux_raw))
            v = rng.standard_normal(M.param_count(spec))
            assert same_bits(M.logit_jvp(spec, theta, batch, v),
                             M.logit_jvp(spec, theta, batch.contexts, v))

    @pytest.mark.parametrize("make_spec", [bigram_spec, mlp_spec],
                             ids=["bigram", "mlp"])
    def test_subset_gathers_the_encoding_of_its_rows(self, make_spec):
        rng = np.random.default_rng(15)
        spec = make_spec()
        ds = random_batch(rng, spec, n=9)
        X = ds.inputs(spec)
        assert ds.inputs(spec) is X            # encoded once, then kept
        assert same_bits(X, M.model_inputs(spec, ds.contexts))
        for idx in (np.array([3, 3, 0, 8]), rng.integers(0, 9, 30)):
            sub = ds.subset(idx)
            assert same_bits(sub.inputs(spec), M.model_inputs(spec, sub.contexts))
            assert same_bits(sub.inputs(spec), X[idx])

    def test_encoding_follows_the_spec(self):
        ds = M.dataset_from_sequences([[0, 1, 2, 3], [3, 1]], context_len=2)
        for spec in (bigram_spec(4), bigram_spec(6), mlp_spec(V=5, ctx=2),
                     mlp_spec(V=5, ctx=3), bigram_spec(4)):
            assert same_bits(ds.inputs(spec), M.model_inputs(spec, ds.contexts))

    def test_bigram_products_are_the_gather_and_the_scatter(self):
        """X @ table is the gather of table rows and X^T G the np.add.at
        scatter, bit for bit (2 000 random shapes, rows left unvisited
        included).  A -0.0 table entry reads +0.0 through the product."""
        rng = np.random.default_rng(16)
        for trial in range(2000):
            V = int(rng.integers(2, 40))
            n = int(rng.integers(1, 300))
            rows = rng.integers(0, V if trial % 2 else max(1, V // 2), n)
            X = M.model_inputs(bigram_spec(V), rows[:, None])
            table = rng.standard_normal((V, V)) * 10.0 ** rng.uniform(-3, 3)
            G = rng.standard_normal((n, V)) * 10.0 ** rng.uniform(-3, 3)
            dW = np.zeros((V, V))
            np.add.at(dW, rows, G)
            assert same_bits(X @ table, table[rows])
            assert same_bits(X.T @ G, dW)
        table = np.array([[-0.0, 1.0], [2.0, 3.0]])
        assert (M.model_inputs(bigram_spec(2), [[0]]) @ table)[0, 0] == 0.0

    def test_bad_ids_fail_at_first_use_with_the_same_message(self):
        """Each bad dataset fails at its preparation (inputs), at a loss
        and at every later use, and nothing is kept from the failed
        check."""
        nll = L.LossKind("nll")
        cases = [
            (bigram_spec(), [[0], [5]], [1, 2], "out of vocabulary \\(V=5\\)"),
            (bigram_spec(), [[0], [-2]], [1, 2], "out of vocabulary \\(V=5\\)"),
            (bigram_spec(), [[0], [1]], [1, 5], "out of vocabulary \\(V=5\\)"),
            (bigram_spec(), [[0], [1]], [-1, 2], "out of vocabulary \\(V=5\\)"),
            (bigram_spec(), [[1], [M.PAD]], [1, 2], "non-empty context"),
            (mlp_spec(), [[M.PAD, 6]], [1], "out of vocabulary \\(V=6\\)"),
            (mlp_spec(), [[0, 1, 2]], [1], "wider than the model's context_len"),
        ]
        for spec, ctx, nxt, match in cases:
            ds = M.TokenDataset(np.array(ctx), np.array(nxt))
            theta = np.zeros(M.param_count(spec))
            for use in (lambda: ds.inputs(spec),
                        lambda: L.batch_loss(nll, spec, theta, ds),
                        lambda: ds.subset(np.arange(len(ds))).inputs(spec),
                        lambda: M.batch_logits(spec, theta, ds)):
                with pytest.raises(ValueError, match=match):
                    use()


class TestDerivatives:
    def test_logit_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        for spec in (bigram_spec(4), mlp_spec(V=4, ctx=2, hid=3)):
            theta = rng.standard_normal(M.param_count(spec))
            x = [1] if spec.kind == M.BIGRAM else [2, 1]
            J = M.logit_jacobian(spec, theta, x)
            assert J.shape == (M.param_count(spec), spec.vocab_size)
            for v in range(spec.vocab_size):
                fd = central_difference_gradient(
                    lambda th, v=v: M.logits(spec, th, x)[v], theta)
                assert relative_error(J[:, v], fd) < 1e-7

    def test_logit_jvp_matches_jacobian_product(self):
        rng = np.random.default_rng(21)
        spec = mlp_spec()
        theta = rng.standard_normal(M.param_count(spec))
        batch = random_batch(rng, spec, n=5)
        v = rng.standard_normal(M.param_count(spec))
        JV = M.logit_jvp(spec, theta, batch.contexts, v)
        for r, c in enumerate(batch.contexts):
            J = M.logit_jacobian(spec, theta, list(c))
            np.testing.assert_allclose(JV[r], J.T @ v, rtol=1e-9, atol=1e-11)

    def test_grad_from_logit_grads_matches_finite_differences(self):
        """Backprop of an arbitrary per-row logit-space gradient."""
        rng = np.random.default_rng(22)
        for spec in (bigram_spec(4), mlp_spec(V=4, ctx=2, hid=3)):
            theta = rng.standard_normal(M.param_count(spec))
            batch = random_batch(rng, spec, n=6)
            W = rng.standard_normal((len(batch), spec.vocab_size))

            def f(th):
                return float(np.sum(W * M.batch_logits(spec, th, batch.contexts)))

            _, aux = M._forward(spec, theta, batch.inputs(spec))
            g = M.grad_from_logit_grads(spec, theta, W, aux)
            assert relative_error(g, central_difference_gradient(f, theta)) < 1e-7


class TestSequences:
    def test_sequence_logprob_matches_manual_sum(self):
        rng = np.random.default_rng(30)
        spec = mlp_spec(V=5, ctx=2, hid=3)
        theta = rng.standard_normal(M.param_count(spec))
        s = [2, 4, 1, 0, 3]
        lp = M.sequence_logprob(spec, theta, s)
        manual = 0.0
        for t in range(1, len(s)):
            c = s[max(0, t - 2):t]
            c = [M.PAD] * (2 - len(c)) + list(c)
            h = M.logits(spec, theta, c)
            manual += h[s[t]] - np.log(np.sum(np.exp(h)))
        assert lp == pytest.approx(manual, rel=1e-10)

    def test_grad_sequence_logprob_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        spec = bigram_spec(4)
        theta = rng.standard_normal(16)
        s = [0, 2, 1, 1, 3]
        g = grad_sequence_logprob(spec, theta, s)
        fd = central_difference_gradient(
            lambda th: M.sequence_logprob(spec, th, s), theta)
        assert relative_error(g, fd) < 1e-7

    @pytest.mark.parametrize("make_spec", [bigram_spec, mlp_spec])
    def test_dataset_gives_one_sum_per_sequence(self, make_spec):
        rng = np.random.default_rng(32)
        spec = make_spec()
        theta = rng.standard_normal(M.param_count(spec))
        seqs = [[0, 1, 2, 3, 4], [3, 2], [1, 4, 1], [3, 2]]
        ds = M.dataset_from_sequences(seqs, spec.context_len)
        sums = M.sequence_logprob(spec, theta, ds)
        each = [M.sequence_logprob(spec, theta, s) for s in seqs]
        np.testing.assert_allclose(sums, each, rtol=1e-13, atol=0)
        pairs, starts = M.sequence_pairs(spec, seqs)
        np.testing.assert_array_equal(starts, [0, 4, 5, 7])
        np.testing.assert_array_equal(pairs.contexts, ds.contexts)

    def test_pair_subset_is_reexpanded_or_rejected(self):
        spec = bigram_spec()
        ds = M.dataset_from_sequences([[0, 1, 2], [3, 4]], 2)
        pairs, _ = M.sequence_pairs(spec, ds)
        assert pairs.contexts.shape[1] == spec.context_len
        with pytest.raises(ValueError, match="whole sequence"):
            M.sequence_pairs(spec, ds.subset(np.array([0, 1])))


class TestDatasets:
    def test_pairs_and_padding(self):
        ds = M.dataset_from_sequences([[1, 2, 3], [4, 5]], context_len=2)
        assert len(ds) == 3
        np.testing.assert_array_equal(ds.contexts,
                                      [[M.PAD, 1], [1, 2], [M.PAD, 4]])
        np.testing.assert_array_equal(ds.nexts, [2, 3, 5])
        assert len(ds.sequences) == 2

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError, match="length >= 2"):
            M.dataset_from_sequences([[7]], context_len=1)

    def test_subset_keeps_rows(self):
        ds = M.dataset_from_sequences([[1, 2, 3, 4]], context_len=1)
        sub = ds.subset(np.array([0, 2]))
        np.testing.assert_array_equal(sub.nexts, [2, 4])
        assert sub.sequences == [] and sub.base_logprob is None

    def test_subset_keeps_the_sequences_it_names(self):
        """With seqs, the subset keeps those sequences and their base
        log-probabilities, in the order given."""
        seqs = [[1, 2, 3], [4, 0]]
        ds = M.dataset_from_sequences(seqs, context_len=1)
        ds.base_logprob = np.array([-1.5, -2.5])
        sub = ds.subset(np.array([2, 0, 1]), np.array([1, 0]))
        np.testing.assert_array_equal(sub.nexts, [0, 2, 3])
        assert [list(s) for s in sub.sequences] == [[4, 0], [1, 2, 3]]
        np.testing.assert_array_equal(sub.base_logprob, [-2.5, -1.5])
        plain = M.dataset_from_sequences(seqs, context_len=1)
        assert plain.subset(np.array([0]), np.array([1])).base_logprob is None

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        seqs = [[0, 1, 2], [3, 4, 5, 6]]
        with open(path, "w", encoding="utf-8") as fh:
            for s in seqs:
                fh.write(json.dumps({"tokens": s}) + "\n")
        ds = M.load_jsonl_dataset(str(path), context_len=1)
        assert [list(map(int, s)) for s in ds.sequences] == seqs

    def test_jsonl_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": [1, 2]}\n')
        with pytest.raises(ValueError, match="tokens"):
            M.load_jsonl_dataset(str(path), context_len=1)

    def test_inputs_reject_out_of_vocab(self):
        spec = bigram_spec(3)
        ds = M.dataset_from_sequences([[0, 1, 5]], context_len=1)
        with pytest.raises(ValueError, match="vocabulary"):
            ds.inputs(spec)


class TestGreedyContinuation:
    def test_follows_argmax_chain(self):
        spec = bigram_spec(3)
        theta = np.zeros(9)
        # 0 -> 1 -> 2 -> 0 cycle via dominant logits
        theta[0 * 3 + 1] = 5.0
        theta[1 * 3 + 2] = 5.0
        theta[2 * 3 + 0] = 5.0
        assert M.greedy_continuation(spec, theta, [0], 4) == [1, 2, 0, 1]

    def test_tie_breaks_to_lowest_token(self):
        spec = bigram_spec(4)
        theta = np.zeros(16)
        assert M.greedy_continuation(spec, theta, [2], 2) == [0, 0]


SPECIAL = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -2.5, 1e300])


class TestExpRows:
    @pytest.mark.parametrize("V", range(2, 34))
    def test_row_max_is_the_reduction_along_the_rows(self, V):
        """_exp_rows against Z = H - H.max(axis=-1, keepdims=True) on
        stacks whose rows hold NaN, +-inf and +-0.0: E, S, Z and the
        softmax and log-softmax agree in every bit, sign bits included,
        except the sign of Z's zeros on a row whose max ties +0.0 with
        -0.0.  The max's sign there is the reduction order's choice, and
        Z - log S is the same in every bit."""
        rng = np.random.default_rng(V)
        for shape in ((V,), (1, V), (9, V), (3, 5, V)):
            H = rng.standard_normal(shape)
            special = rng.random(shape) < 0.5
            H[special] = rng.choice(SPECIAL, special.sum())
            zeros = H.reshape(-1, V)[::3]
            zeros[:] = rng.choice([0.0, -0.0, -1.0], zeros.shape)
            with np.errstate(invalid="ignore"):
                Zr = H - H.max(axis=-1, keepdims=True)
                Er = np.exp(Zr)
                Sr = Er.sum(axis=-1, keepdims=True)
                Z, E, S = M._exp_rows(H)
                logsm = M.log_softmax_rows(H)
                sm = M.softmax_rows(H)
                assert same_bits(logsm, Zr - np.log(Sr))
                assert same_bits(sm, Er / Sr)
            assert same_bits(E, Er) and same_bits(S, Sr)
            top = H == H.max(axis=-1, keepdims=True)
            tie = ((top & (H == 0) & np.signbit(H)).any(-1)
                   & (top & (H == 0) & ~np.signbit(H)).any(-1))
            assert same_bits(Z[~tie], Zr[~tie])
            np.testing.assert_array_equal(Z[tie], Zr[tie])
