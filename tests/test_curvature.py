"""Curvature assembly, damped solves, and the momentum iteration bound."""

import inspect
from fractions import Fraction

import numpy as np
import pytest

from conftest import momentum_error_trace, relative_error, same_bits
from mtunlearn import curvature, harness, linalg
from mtunlearn import model as M


def bigram_spec(V=4):
    return M.ModelSpec(M.BIGRAM, V)


def mlp_spec():
    return M.ModelSpec(M.MLP, 4, context_len=2, hidden_dim=3)


def random_batch(rng, spec, n=12):
    ctx = rng.integers(0, spec.vocab_size, (n, spec.context_len))
    nxt = rng.integers(0, spec.vocab_size, n)
    return M.TokenDataset(ctx, nxt)


def spd_instance(rng, dim=6, eig_low=0.5, eig_high=5.0):
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = rng.uniform(eig_low, eig_high, dim)
    H = (Q * eigs) @ Q.T
    return 0.5 * (H + H.T), rng.standard_normal(dim)


class TestAssembly:
    def test_symmetric_and_positive_semidefinite(self):
        rng = np.random.default_rng(70)
        for spec in (bigram_spec(), mlp_spec()):
            theta = rng.standard_normal(M.param_count(spec))
            H = curvature.assemble_gnh(spec, theta, random_batch(rng, spec))
            assert np.max(np.abs(H - H.T)) <= 1e-12
            assert np.linalg.eigvalsh(H)[0] >= -1e-10

    def test_bigram_blocks_match_dense_assembly(self):
        """The bigram Jacobian selects one table row per context, so the
        dense assembly is one (count/N) (Diag p - p p^T) block per visited
        row and zero on rows never visited."""
        rng = np.random.default_rng(71)
        spec = bigram_spec(5)
        theta = rng.standard_normal(25)
        batch = random_batch(rng, spec, n=4)  # 4 contexts leave a row unvisited
        H = curvature.assemble_gnh(spec, theta, batch)
        blocks = np.zeros_like(H)
        rows, counts = np.unique(batch.contexts[:, -1], return_counts=True)
        for r, c in zip(rows, counts):
            p = M.softmax_rows(theta.reshape(5, 5)[r][None, :])[0]
            blocks[5 * r:5 * r + 5, 5 * r:5 * r + 5] = \
                (c / len(batch)) * (np.diag(p) - np.outer(p, p))
        np.testing.assert_allclose(H, blocks, rtol=0, atol=1e-14)

    def test_mlp_assembly_matches_ungrouped_oracle(self):
        """The grouped assembly must equal the naive per-pair sum
        (1/N) sum_i J_i S_i J_i^T computed without context grouping."""
        rng = np.random.default_rng(72)
        spec = mlp_spec()
        theta = rng.standard_normal(M.param_count(spec))
        ctx = rng.integers(0, 4, (8, 2))
        ctx[4:] = ctx[:4]  # force duplicate contexts through the grouping
        batch = M.TokenDataset(ctx, rng.integers(0, 4, 8))
        H = np.zeros((M.param_count(spec),) * 2)
        P = M.softmax_rows(M.batch_logits(spec, theta, batch.contexts))
        for J, p in zip(M.logit_jacobians(spec, theta, batch), P):
            S = np.diag(p) - np.outer(p, p)
            H += (J.T @ S @ J) / len(batch)
        np.testing.assert_allclose(curvature.assemble_gnh(spec, theta, batch),
                                   0.5 * (H + H.T), atol=1e-12)

    @pytest.mark.parametrize("n_contexts", [3, 12])
    def test_one_backprop_for_every_context(self, monkeypatch, n_contexts):
        """Every Jacobian comes from one backprop, and the assembly makes
        at most two forward passes, whatever the number of distinct
        contexts."""
        rng = np.random.default_rng(74)
        spec = mlp_spec()
        theta = rng.standard_normal(M.param_count(spec))
        ctx = np.array([[a, b] for a in range(4) for b in range(4)])[:n_contexts]
        ctx = np.concatenate([ctx, ctx[:2]])   # and repeats to group
        batch = M.TokenDataset(ctx, rng.integers(0, 4, len(ctx)))
        calls = {"_forward": 0, "grad_from_logit_grads": 0}
        for name in calls:
            def counted(*args, name=name, real=getattr(M, name)):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(M, name, counted)
        curvature.assemble_gnh(spec, theta, batch)
        assert calls["grad_from_logit_grads"] == 1 and calls["_forward"] <= 2

    def test_bigram_matches_fisher_monte_carlo(self):
        """H equals the Fisher information: per visited row the covariance
        of the one-hot score e_y - p under y ~ p, estimated here from
        closed-form per-row sample frequencies."""
        rng = np.random.default_rng(73)
        spec = bigram_spec(4)
        theta = rng.standard_normal(16) * 0.8
        batch = random_batch(rng, spec, n=10)
        n_samples = 50_000
        xs = batch.contexts[rng.integers(0, len(batch), n_samples), -1]
        table = theta.reshape(4, 4)
        H_mc = np.zeros((16, 16))
        for r in np.unique(xs):
            idx = np.flatnonzero(xs == r)
            p = M.softmax_rows(table[r][None, :])[0]
            ys = rng.choice(4, size=len(idx), p=p)
            f = np.bincount(ys, minlength=4) / len(idx)
            S_mc = np.diag(f) - np.outer(f, p) - np.outer(p, f) + np.outer(p, p)
            H_mc[4 * r:4 * r + 4, 4 * r:4 * r + 4] = (len(idx) / n_samples) * S_mc
        H = curvature.assemble_gnh(spec, theta, batch)
        assert np.max(np.abs(H - H_mc)) <= 2e-2

    def test_empty_batch_rejected(self):
        spec = bigram_spec()
        empty = M.TokenDataset(np.zeros((0, 1), dtype=int),
                               np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            curvature.assemble_gnh(spec, np.zeros(16), empty)


class TestSolves:
    def test_bigram_block_solve_matches_dense(self):
        rng = np.random.default_rng(76)
        spec = bigram_spec(5)
        theta = rng.standard_normal(25)
        batch = random_batch(rng, spec, n=7)
        g = rng.standard_normal(25)
        x_block = curvature.bigram_damped_solve(spec, theta, batch, 0.3, g)
        H = curvature.assemble_gnh(spec, theta, batch)
        x_dense = linalg.solve_spd(H + 0.3 * np.eye(25), g)
        np.testing.assert_allclose(x_block, x_dense, rtol=1e-9, atol=1e-12)


def exact_bigram_solve(spec, theta, batch, lam, g):
    """Rational-arithmetic solve of c S(p) + lam I per visited row, with
    the float softmax p renormalized exactly to sum 1 (the matrix the
    closed form describes)."""
    V = spec.vocab_size
    P = M.softmax_rows(np.asarray(theta).reshape(V, V))
    rows, counts = np.unique(batch.contexts[:, -1], return_counts=True)
    lam_q = Fraction(lam)
    x = [Fraction(v) / lam_q for v in g]
    for r, cnt in zip(rows, counts):
        p = [Fraction(v) for v in P[r]]
        total = sum(p)
        p = [v / total for v in p]
        c = Fraction(int(cnt), len(batch))
        A = [[c * ((p[i] if i == j else 0) - p[i] * p[j])
              + (lam_q if i == j else 0) for j in range(V)]
             + [Fraction(g[r * V + i])] for i in range(V)]
        for k in range(V):
            for i in range(k + 1, V):
                f = A[i][k] / A[k][k]
                A[i] = [a - f * b for a, b in zip(A[i], A[k])]
        sol = [Fraction(0)] * V
        for i in reversed(range(V)):
            rest = sum(A[i][j] * sol[j] for j in range(i + 1, V))
            sol[i] = (A[i][V] - rest) / A[i][i]
        x[r * V:(r + 1) * V] = sol
    return np.array([float(v) for v in x])


class TestClosedFormBigramSolve:
    @pytest.mark.parametrize("lam", [1e-6, 1.0, 1e3])
    @pytest.mark.parametrize("scale", [1.0, 1e3], ids=["random", "saturated"])
    def test_matches_dense_oracle(self, lam, scale):
        """Sherman-Morrison against assemble_gnh + solve_spd at 1e-12.

        One case is different: at lam' = 1e-6 a random table's blocks
        have condition number ~1e5 (the all-ones direction has eigenvalue
        lam' exactly), so the dense Cholesky answer is itself only good
        to ~cond * eps.  There the closed form is pinned to an exact
        rational solve instead, and the dense one to its own accuracy."""
        rng = np.random.default_rng(int(lam * 10) + int(scale))
        spec = bigram_spec(5)
        for _ in range(5):
            theta = rng.standard_normal(25) * scale
            batch = random_batch(rng, spec, n=9)
            g = rng.standard_normal(25)
            x = curvature.bigram_damped_solve(spec, theta, batch, lam, g)
            A = curvature.assemble_gnh(spec, theta, batch) + lam * np.eye(25)
            x_dense = linalg.solve_spd(A, g)
            if lam == 1e-6 and scale == 1.0:
                x_exact = exact_bigram_solve(spec, theta, batch, lam, g)
                assert relative_error(x, x_exact) <= 1e-12
                assert relative_error(x_dense, x_exact) <= \
                    1e-15 * np.linalg.cond(A)
            else:
                assert relative_error(x, x_dense) <= 1e-12

    def test_unvisited_rows_scale_by_damping(self):
        spec = bigram_spec(4)
        batch = M.TokenDataset(np.array([[1], [1], [3]]), np.array([0, 2, 1]))
        g = np.arange(16.0)
        x = curvature.bigram_damped_solve(spec, np.zeros(16), batch, 0.5, g)
        np.testing.assert_array_equal(x.reshape(4, 4)[[0, 2]],
                                      g.reshape(4, 4)[[0, 2]] / 0.5)

    def test_stacks_solve_each_row_with_its_own_damping(self):
        """A (2, 3) stack, with one damping for all rows and with one per
        row, against one call per row; a non-positive damping in any row
        is rejected."""
        rng = np.random.default_rng(12)
        spec = bigram_spec(5)
        batch = random_batch(rng, spec, n=9)
        theta = rng.standard_normal((2, 3, 25)) * 3.0
        g = rng.standard_normal(theta.shape)
        lams = rng.uniform(0.1, 2.0, (2, 3))
        for lam in (0.7, lams, lams[:, :1]):
            x = curvature.bigram_damped_solve(spec, theta, batch, lam, g)
            assert x.shape == theta.shape
            per_row = np.broadcast_to(lam, (2, 3))
            for i in np.ndindex(2, 3):
                assert same_bits(x[i], curvature.bigram_damped_solve(
                    spec, theta[i], batch, float(per_row[i]), g[i]))
        lams[1, 2] = 0.0
        with pytest.raises(ValueError, match="positive"):
            curvature.bigram_damped_solve(spec, theta, batch, lams, g)

    def test_rejects_nonpositive_damping_and_non_finite_tables(self):
        spec = bigram_spec(4)
        batch = M.TokenDataset(np.array([[1], [2]]), np.array([0, 2]))
        with pytest.raises(ValueError, match="positive"):
            curvature.bigram_damped_solve(spec, np.zeros(16), batch, 0.0,
                                          np.ones(16))
        theta = np.zeros(16)
        theta[5] = np.nan
        with pytest.raises(ValueError, match="positive definite"):
            curvature.bigram_damped_solve(spec, theta, batch, 1.0, np.ones(16))


class TestMomentumIteration:
    def test_converges_to_damped_inverse_product(self):
        rng = np.random.default_rng(77)
        H, g = spd_instance(rng)
        lam = 1.0
        lam_max = float(np.linalg.eigvalsh(H)[-1])
        cfg = curvature.IHVPConfig(eta=0.5 / (lam_max + lam), mu=0.8,
                                   lam=lam, T=400)
        u, trace = curvature.ihvp_momentum(H, g, cfg)
        ustar = -np.linalg.solve(H + lam * np.eye(len(g)), g)
        np.testing.assert_allclose(u, ustar, atol=1e-10)
        assert trace[-1] < 1e-10 < trace[0]
        assert len(trace) == cfg.T + 1

    def test_rejects_too_large_step(self):
        rng = np.random.default_rng(78)
        H, g = spd_instance(rng)
        lam_max = float(np.linalg.eigvalsh(H)[-1])
        cfg = curvature.IHVPConfig(eta=1.1 / (lam_max + 0.1), mu=0.0,
                                   lam=0.1, T=10)
        with pytest.raises(ValueError, match="step size"):
            curvature.ihvp_momentum(H, g, cfg)

    def test_error_injection_is_consumed_per_step(self):
        rng = np.random.default_rng(79)
        H, g = spd_instance(rng)
        calls = []

        def inject(t):
            calls.append(t)
            return np.zeros(len(g))

        cfg = curvature.IHVPConfig(eta=0.05, mu=0.5, lam=0.5, T=7,
                                   error_injection=inject)
        curvature.ihvp_momentum(H, g, cfg)
        assert calls == list(range(1, 8))

    def test_bound_formula_hand_values(self):
        """mu = 0, eta = 0.1, lam = 1: rate = 1 - min(1, 0.1) = 0.9 and
        coef = sqrt(2) max(0.1, 1) = sqrt(2)."""
        cfg = curvature.IHVPConfig(eta=0.1, mu=0.0, lam=1.0, T=2)
        bounds = curvature.ihvp_error_bound(cfg, 2.0, [0.3, 0.1])
        assert bounds[0] == pytest.approx(2.0)
        assert bounds[1] == pytest.approx(0.9 * 2.0 + np.sqrt(2.0) * 0.3)
        assert bounds[2] == pytest.approx(0.81 * 2.0 + np.sqrt(2.0) * 0.3)

    def test_bound_running_max_is_monotone_in_errors(self):
        cfg = curvature.IHVPConfig(eta=0.1, mu=0.5, lam=1.0, T=3)
        b_small = curvature.ihvp_error_bound(cfg, 1.0, [0.0, 0.0, 0.0])
        b_big = curvature.ihvp_error_bound(cfg, 1.0, [0.0, 0.5, 0.0])
        assert b_big[1] == b_small[1]
        assert b_big[2] > b_small[2]
        assert b_big[3] > b_small[3]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="eta"):
            curvature.IHVPConfig(eta=0.0, mu=0.5, lam=1.0, T=5)
        with pytest.raises(ValueError, match="mu"):
            curvature.IHVPConfig(eta=0.1, mu=1.0, lam=1.0, T=5)
        with pytest.raises(ValueError, match="lam"):
            curvature.IHVPConfig(eta=0.1, mu=0.5, lam=0.0, T=5)



def lemma_grid_gap(family, mode):
    """The largest |trace_t - exact_t| / (1 + ||u_0 - u*||) of
    curvature.ihvp_momentum against conftest.momentum_error_trace over
    verify_lemma's shipped grid of mu, lam and T and its step sizes, on
    one instance of the family.  Mode "const" injects verify_lemma's
    noise: a fresh random direction of norm noise_scale per step."""
    grid = {k: p.default for k, p in
            inspect.signature(harness.verify_lemma).parameters.items()}
    H, g = harness.lemma_instance(family)
    lam_max = float(np.linalg.eigvalsh(H)[-1])
    eps = np.zeros((grid["T"], family.dim))
    if mode == "const":
        rng = np.random.default_rng(harness.LEMMA_NOISE_SEED_OFFSET + family.seed)
        for e in eps:
            e[:] = rng.standard_normal(family.dim)
            e *= family.noise_scale / np.linalg.norm(e)
    worst = 0.0
    for mu in grid["mus"]:
        for lam in grid["lams"]:
            eta = grid["step_scale"] / (lam_max + lam)
            cfg = curvature.IHVPConfig(
                eta=eta, mu=mu, lam=lam, T=grid["T"],
                error_injection=(lambda t: eps[t - 1]) if mode == "const" else None)
            _, trace = curvature.ihvp_momentum(H, g, cfg)
            exact = momentum_error_trace(H, g, eta, mu, lam, eps)
            worst = max(worst, float(np.max(np.abs(np.array(trace) - exact)))
                        / (1.0 + exact[0]))
    return worst


class TestMomentumOracle:
    """The momentum iteration against the exact per-eigenmode recurrence
    of its error.  A bound check cannot see an iteration that converges
    faster than it should; this pin can."""

    @pytest.mark.parametrize("mode", ["zero", "const"])
    @pytest.mark.parametrize("seed", list(range(8)) + [harness.LEMMA_FAMILY_SEED])
    def test_trace_is_the_exact_error(self, seed, mode):
        assert lemma_grid_gap(harness.LemmaFamily(seed=seed), mode) <= 1e-12

    @pytest.mark.parametrize("mode", ["zero", "const"])
    def test_rejects_the_exact_solve(self, monkeypatch, mode):
        """Mutant: every step lands on u* (verify lemma's bound holds for
        it on every cell)."""
        def exact_solve(H, g, cfg):
            ustar = -np.linalg.solve(H + cfg.lam * np.eye(len(g)), g)
            return ustar, [float(np.linalg.norm(ustar))] + [0.0] * cfg.T

        monkeypatch.setattr(curvature, "ihvp_momentum", exact_solve)
        assert lemma_grid_gap(harness.LemmaFamily(), mode) > 1e-12
