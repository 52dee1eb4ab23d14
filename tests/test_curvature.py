"""Curvature assembly, damped solves, and the momentum iteration bound."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import relative_error, same_bits
from mtunlearn import curvature, linalg
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
        """Dual route: the per-row block map and the dense assembly must
        agree entry for entry, including never-visited rows (zero)."""
        rng = np.random.default_rng(71)
        spec = bigram_spec(5)
        theta = rng.standard_normal(25)
        batch = random_batch(rng, spec, n=9)
        H = curvature.assemble_gnh(spec, theta, batch)
        dense = np.zeros_like(H)
        blocks = curvature.bigram_gnh_blocks(spec, theta, batch)
        for r, B in blocks.items():
            dense[5 * r:5 * r + 5, 5 * r:5 * r + 5] = B
        np.testing.assert_allclose(H, dense, atol=1e-14)
        visited = set(int(r) for r in batch.contexts[:, -1])
        assert set(blocks) == visited

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
        for c, p in zip(batch.contexts, P):
            J = M.logit_jacobian(spec, theta, list(c))
            S = np.diag(p) - np.outer(p, p)
            H += (J @ S @ J.T) / len(batch)
        np.testing.assert_allclose(curvature.assemble_gnh(spec, theta, batch),
                                   0.5 * (H + H.T), atol=1e-12)

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

    def test_blocks_require_bigram(self):
        spec = mlp_spec()
        with pytest.raises(ValueError, match="bigram"):
            curvature.bigram_gnh_blocks(spec, np.zeros(M.param_count(spec)),
                                        random_batch(np.random.default_rng(0),
                                                     spec))


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

