"""Curvature assembly, damped solves, and the momentum iteration's exact
error and bound."""

import inspect
from fractions import Fraction

import numpy as np
import pytest

from conftest import (assemble_gnh, momentum_iteration, relative_error,
                      same_bits, solve_spd)
from mtunlearn import curvature, harness
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
            H = assemble_gnh(spec, theta, random_batch(rng, spec))
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
        H = assemble_gnh(spec, theta, batch)
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
        np.testing.assert_allclose(assemble_gnh(spec, theta, batch),
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
        curvature.gnh_factor(spec, theta, batch)
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
        H = assemble_gnh(spec, theta, batch)
        assert np.max(np.abs(H - H_mc)) <= 2e-2

    def test_empty_batch_rejected(self):
        spec = bigram_spec()
        empty = M.TokenDataset(np.zeros((0, 1), dtype=int),
                               np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            curvature.gnh_factor(spec, np.zeros(16), empty)


class TestSolves:
    def test_bigram_block_solve_matches_dense(self):
        rng = np.random.default_rng(76)
        spec = bigram_spec(5)
        theta = rng.standard_normal(25)
        batch = random_batch(rng, spec, n=7)
        g = rng.standard_normal(25)
        x_block = curvature.bigram_damped_solve(spec, theta, batch, 0.3, g)
        H = assemble_gnh(spec, theta, batch)
        x_dense = solve_spd(H + 0.3 * np.eye(25), g)
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
            A = assemble_gnh(spec, theta, batch) + lam * np.eye(25)
            x_dense = solve_spd(A, g)
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

    def test_stacks_solve_every_row_with_one_damping(self):
        """A (2, 3) stack and a one-row stack against one call per row;
        a damping that is an array or not positive is rejected."""
        rng = np.random.default_rng(12)
        spec = bigram_spec(5)
        batch = random_batch(rng, spec, n=9)
        for lead in ((2, 3), (1,)):
            theta = rng.standard_normal(lead + (25,)) * 3.0
            g = rng.standard_normal(theta.shape)
            x = curvature.bigram_damped_solve(spec, theta, batch, 0.7, g)
            assert x.shape == theta.shape
            for i in np.ndindex(*lead):
                assert same_bits(x[i], curvature.bigram_damped_solve(
                    spec, theta[i], batch, 0.7, g[i]))
        for lam in (0.0, np.full(lead, 0.7), np.full((2, 3), 0.7)):
            with pytest.raises(ValueError, match="lam_prime must be one positive"):
                curvature.bigram_damped_solve(spec, theta, batch, lam, g)

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


def context_batch(rng, spec, n_contexts):
    """A batch over n_contexts distinct two-token contexts, three of them
    repeated: the factor has n_contexts * V rows."""
    V = spec.vocab_size
    ctx = np.array([[a, b] for a in range(V) for b in range(V)])
    ctx = ctx[rng.permutation(len(ctx))[:n_contexts]]
    ctx = np.concatenate([ctx, ctx[:3]])
    return M.TokenDataset(ctx, rng.integers(0, V, len(ctx)))


def exact_factor_solve(F, lam, g):
    """Rational-arithmetic solve of (F^T F + lam I) x = g for the float
    factor F, through the r x r system (lam I + F F^T) z = F g and
    x = (g - F^T z) / lam, an exact identity."""
    r, dim = F.shape
    Fq = [[Fraction(v) for v in row] for row in F]
    gq = [Fraction(v) for v in g]
    lam_q = Fraction(lam)
    A = [[sum(a * b for a, b in zip(Fq[i], Fq[j])) + (lam_q if i == j else 0)
          for j in range(r)] + [sum(a * b for a, b in zip(Fq[i], gq))]
         for i in range(r)]
    for k in range(r):
        for i in range(k + 1, r):
            f = A[i][k] / A[k][k]
            A[i] = [a - f * b for a, b in zip(A[i], A[k])]
    z = [Fraction(0)] * r
    for i in reversed(range(r)):
        rest = sum(A[i][j] * z[j] for j in range(i + 1, r))
        z[i] = (A[i][r] - rest) / A[i][i]
    return np.array([float((gq[c] - sum(Fq[i][c] * z[i] for i in range(r)))
                           / lam_q) for c in range(dim)])


class TestFactorSolve:
    def test_stacks_match_the_dense_oracle_row_by_row(self):
        """A (2, 3) and a one-row stack of MLP parameter vectors (a factor
        of 24 rows against dim 43): every row within 1e-12 relative of
        assemble_gnh + solve_spd and bit for bit its one-row call."""
        spec, n_contexts = mlp_spec(), 6
        rng = np.random.default_rng(86)
        batch = context_batch(rng, spec, n_contexts)
        dim = M.param_count(spec)
        for lead in ((2, 3), (1,)):
            theta = rng.standard_normal(lead + (dim,))
            g = rng.standard_normal(theta.shape)
            assert curvature.gnh_factor(spec, theta, batch).shape == \
                lead + (n_contexts * spec.vocab_size, dim)
            for lam in (0.05, 1.0, 1e3):
                x = curvature.gnh_damped_solve(spec, theta, batch, lam, g)
                assert x.shape == theta.shape
                for i in np.ndindex(*lead):
                    assert same_bits(x[i], curvature.gnh_damped_solve(
                        spec, theta[i], batch, lam, g[i]))
                    A = assemble_gnh(spec, theta[i], batch) + lam * np.eye(dim)
                    assert relative_error(x[i], solve_spd(A, g[i])) <= 1e-12
        for lam in (0.0, -1.0, np.full(lead, 0.7)):
            with pytest.raises(ValueError, match="lam_prime must be one positive"):
                curvature.gnh_damped_solve(spec, theta, batch, lam, g)

    def test_small_damping_matches_an_exact_solve(self):
        """At lam' = 1e-6 the damped curvature has condition number ~1e6,
        and the dense pair is only good to about cond * eps (here 4e-12
        to 5e-11).  The Woodbury form (a 20-row factor against dim 43) is
        pinned to an exact rational solve at 1e-12; the worst of 30 such
        instances was 3.4e-13."""
        spec = mlp_spec()
        for seed in range(3):
            rng = np.random.default_rng(seed)
            batch = context_batch(rng, spec, 5)
            theta = rng.standard_normal(43)
            g = rng.standard_normal(43)
            x = curvature.gnh_damped_solve(spec, theta, batch, 1e-6, g)
            x_exact = exact_factor_solve(curvature.gnh_factor(spec, theta, batch),
                                         1e-6, g)
            assert relative_error(x, x_exact) <= 1e-12
            A = assemble_gnh(spec, theta, batch) + 1e-6 * np.eye(43)
            assert relative_error(solve_spd(A, g), x_exact) <= \
                1e-15 * np.linalg.cond(A)

    def test_size_limit_reads_the_factor_rows(self, monkeypatch):
        """MAX_DENSE_DIM bounds the factor's rows r, the side of the Gram
        matrix the solve factors, not dim (43 here), and an oversized
        factor is refused before the backprop."""
        spec = mlp_spec()
        rng = np.random.default_rng(90)
        batch = context_batch(rng, spec, 6)
        r = 6 * spec.vocab_size
        theta, g = rng.standard_normal(43), rng.standard_normal(43)
        monkeypatch.setattr(curvature, "MAX_DENSE_DIM", r)
        curvature.gnh_damped_solve(spec, theta, batch, 1.0, g)
        monkeypatch.setattr(curvature, "MAX_DENSE_DIM", r - 1)
        monkeypatch.setattr(M, "logit_jacobians", None)
        with pytest.raises(ValueError, match=f"would have {r} rows"):
            curvature.gnh_damped_solve(spec, theta, batch, 1.0, g)


class TestMomentumIteration:
    def test_converges_to_damped_inverse_product(self):
        """Without injected error every cell's trace starts at ||u*|| and
        falls to roundoff, the row's length is T + 1, and a grid row is
        the trace of the same cell run alone."""
        rng = np.random.default_rng(77)
        H, g = spd_instance(rng)
        lam_max = float(np.linalg.eigvalsh(H)[-1])
        lams = np.array([1.0, 0.1])
        etas, mus = 0.5 / (lam_max + lams), np.array([0.8, 0.5])
        noise = np.zeros((400, len(g)))
        traces = curvature.momentum_error_traces(H, g, etas, mus, lams, noise,
                                                 [False, False])
        assert traces.shape == (2, 401)
        for c, lam in enumerate(lams):
            ustar = -np.linalg.solve(H + lam * np.eye(len(g)), g)
            assert traces[c, 0] == pytest.approx(np.linalg.norm(ustar), rel=1e-13)
            assert traces[c, -1] < 1e-10 < traces[c, 0]
            alone = curvature.momentum_error_traces(
                H, g, etas[c:c + 1], mus[c:c + 1], lams[c:c + 1], noise, [False])
            np.testing.assert_allclose(alone[0], traces[c], rtol=1e-14, atol=0)

    def test_bound_formula_hand_values(self):
        """mu = 0, eta = 0.1, lam = 1: rate = 1 - min(1, 0.1) = 0.9 and
        coef = sqrt(2) max(0.1, 1) = sqrt(2)."""
        bounds = curvature.ihvp_error_bound(0.1, 0.0, 1.0, 2.0, [0.3, 0.1])
        assert len(bounds) == 3
        assert bounds[0] == pytest.approx(2.0)
        assert bounds[1] == pytest.approx(0.9 * 2.0 + np.sqrt(2.0) * 0.3)
        assert bounds[2] == pytest.approx(0.81 * 2.0 + np.sqrt(2.0) * 0.3)

    def test_bound_running_max_is_monotone_in_errors(self):
        b_small = curvature.ihvp_error_bound(0.1, 0.5, 1.0, 1.0, [0.0, 0.0, 0.0])
        b_big = curvature.ihvp_error_bound(0.1, 0.5, 1.0, 1.0, [0.0, 0.5, 0.0])
        assert b_big[1] == b_small[1]
        assert b_big[2] > b_small[2]
        assert b_big[3] > b_small[3]


def lemma_grid_gap(family, mode):
    """The largest |trace_t - exact_t| / (1 + ||u_0 - u*||) of
    curvature.momentum_error_traces, in one call over verify_lemma's
    shipped grid of mu, lam and T and its step sizes, against the
    step-by-step iteration (conftest.momentum_iteration) of each cell, on
    one instance of the family.  Mode "const" injects verify_lemma's
    noise: a fresh random direction of norm noise_scale per step."""
    grid = {k: p.default for k, p in
            inspect.signature(harness.verify_lemma).parameters.items()}
    H, g = harness.lemma_instance(family)
    lam_max = float(np.linalg.eigvalsh(H)[-1])
    noise = np.zeros((grid["T"], family.dim))
    rng = np.random.default_rng(harness.LEMMA_NOISE_SEED_OFFSET + family.seed)
    for e in noise:
        e[:] = rng.standard_normal(family.dim)
        e *= family.noise_scale / np.linalg.norm(e)
    eps = noise if mode == "const" else np.zeros_like(noise)
    cells = [(grid["step_scale"] / (lam_max + lam), mu, lam)
             for mu in grid["mus"] for lam in grid["lams"]]
    etas, mus, lams = (np.array(c) for c in zip(*cells))
    traces = curvature.momentum_error_traces(
        H, g, etas, mus, lams, noise, [mode == "const"] * len(cells))
    assert traces.shape == (len(cells), grid["T"] + 1)
    worst = 0.0
    for (eta, mu, lam), trace in zip(cells, traces):
        exact = np.array(momentum_iteration(H, g, eta, mu, lam, eps)[1])
        worst = max(worst, float(np.max(np.abs(trace - exact)))
                    / (1.0 + exact[0]))
    return worst


class TestMomentumOracle:
    """The exact per-eigenmode error against the momentum iteration run
    step by step.  A bound check cannot see an error trace that falls
    faster than the iteration's; this pin can."""

    @pytest.mark.parametrize("mode", ["zero", "const"])
    @pytest.mark.parametrize("seed", list(range(8)) + [harness.LEMMA_FAMILY_SEED])
    def test_trace_is_the_exact_error(self, seed, mode):
        assert lemma_grid_gap(harness.LemmaFamily(seed=seed), mode) <= 1e-12

    @pytest.mark.parametrize("mode", ["zero", "const"])
    def test_rejects_the_exact_solve(self, monkeypatch, mode):
        """Mutant: every step lands on u* (verify lemma's bound holds for
        it on every cell)."""
        def exact_solve(H, g, etas, mus, lams, noise, noisy):
            traces = np.zeros((len(lams), len(noise) + 1))
            traces[:, 0] = [np.linalg.norm(np.linalg.solve(
                H + lam * np.eye(len(g)), g)) for lam in lams]
            return traces

        monkeypatch.setattr(curvature, "momentum_error_traces", exact_solve)
        assert lemma_grid_gap(harness.LemmaFamily(), mode) > 1e-12
