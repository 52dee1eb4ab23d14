"""Mean-teacher updates, the damped reference trajectory, and baselines."""

import numpy as np
import pytest

from mtunlearn import curvature, linalg
from mtunlearn import divergence as Dv
from mtunlearn import losses as L
from mtunlearn import model as M
from mtunlearn import optimizer as O
from mtunlearn.errors import TrainingError


def make_data(rng, V=6, n=8, context_len=1):
    ctx = rng.integers(0, V, (n, context_len))
    nxt = rng.integers(0, V, n)
    return M.TokenDataset(ctx, nxt, "forget"), M.TokenDataset(
        rng.integers(0, V, (n, context_len)), rng.integers(0, V, n), "pretrain")


def base_config(**kw):
    defaults = dict(eta=0.05, kappa=0.8, alpha=0.5, lam=0.3, mu=0.6, T=4,
                    loss=L.LossKind("nll"), divergence=Dv.DivergenceKind("kl"))
    defaults.update(kw)
    return O.MTConfig(**defaults)


class TestConfig:
    def test_validation(self):
        cases = [
            (dict(eta=0.0), "eta"),
            (dict(kappa=-1.0), "kappa"),
            (dict(eta=0.5, kappa=2.0), "below 1"),
            (dict(alpha=1.5), "alpha"),
            (dict(lam=-0.1), "lam"),
            (dict(mu=1.0), "mu"),
            (dict(T=-1), "T"),
            (dict(clip=-1.0), "clip"),
            (dict(clip_formula="median"), "clip_formula"),
            (dict(batch_forget=0), "batch"),
            (dict(kappa=float("nan")), "kappa"),
            (dict(lam=float("nan")), "lam"),
            (dict(lam=float("inf")), "lam"),
            (dict(clip=float("nan")), "clip"),
        ]
        for kw, match in cases:
            with pytest.raises(ValueError, match=match):
                base_config(**kw)

    def test_config_with_replaces_and_revalidates(self):
        cfg = base_config()
        cfg2 = O.config_with(cfg, eta=0.01, T=9)
        assert (cfg2.eta, cfg2.T) == (0.01, 9)
        assert (cfg.eta, cfg.T) == (0.05, 4)
        with pytest.raises(ValueError, match="below 1"):
            O.config_with(cfg, eta=2.0)

    def test_derived_constants_frozen_values(self):
        """gamma = kappa alpha eta / (1 - kappa eta) and
        lam_bar = lam + (1 - mu) kappa / (1 - eta kappa)."""
        cfg = base_config(eta=5e-4, kappa=10.0, alpha=0.05, lam=0.5, mu=0.9)
        d = O.DerivedNGDParams.from_config(cfg)
        assert d.gamma == pytest.approx(2.512562814070352e-4, rel=1e-14)
        assert d.lam_bar == pytest.approx(1.5050251256281404, rel=1e-14)


class TestFullBatchRun:
    def test_two_steps_match_hand_unrolled_update(self):
        """Unroll theta_t = theta_{t-1} - eta grad + mu (theta_{t-1} -
        theta_{t-2}) and the teacher average by hand for two steps."""
        rng = np.random.default_rng(90)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 3)
        cfg = base_config(T=2)
        traj = O.mt_run(spec, theta0, d_f, d_pt, cfg)

        kind = Dv.DivergenceKind("kl", cfg.lam)
        theta_prev, theta, teacher = theta0, theta0, theta0
        for _ in range(2):
            g = Dv.damped_grad(kind, spec, theta, teacher, d_pt) \
                + cfg.alpha * L.batch_grad(cfg.loss, spec, theta, d_f)
            theta_new = theta - cfg.eta * g + cfg.mu * (theta - theta_prev)
            teacher = (1.0 - cfg.eta * cfg.kappa) * teacher \
                + cfg.eta * cfg.kappa * theta_new
            theta_prev, theta = theta, theta_new
        np.testing.assert_array_equal(traj.thetas[2], theta)
        np.testing.assert_array_equal(traj.teachers[2], teacher)
        np.testing.assert_array_equal(traj.final_theta, theta)
        assert traj.ts == [0, 1, 2] and len(traj) == 3

    @pytest.mark.parametrize("tag", ["kl", "qkl", "bregman"])
    def test_fused_run_replays_separate_calls_bitwise(self, tag):
        """Iterates and recorded values equal a replay that evaluates the
        gradient, the loss value and the divergence value separately."""
        rng = np.random.default_rng(96)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 4)
        cfg = base_config(T=5, loss=L.LossKind("nlul"),
                          divergence=Dv.DivergenceKind(tag))
        traj = O.mt_run(spec, theta0, d_f, d_pt, cfg)

        kind = Dv.DivergenceKind(tag, cfg.lam)
        theta_prev, theta, teacher = theta0, theta0, theta0
        for t in range(1, 6):
            g = Dv.damped_grad(kind, spec, theta, teacher, d_pt) \
                + cfg.alpha * L.batch_grad(cfg.loss, spec, theta, d_f)
            theta_new = theta - cfg.eta * g + cfg.mu * (theta - theta_prev)
            teacher = (1.0 - cfg.eta * cfg.kappa) * teacher \
                + cfg.eta * cfg.kappa * theta_new
            theta_prev, theta = theta, theta_new
            np.testing.assert_array_equal(traj.thetas[t], theta)
            assert traj.grad_norms[t] == float(np.linalg.norm(g))
            assert traj.loss_values[t] == L.batch_loss(cfg.loss, spec, theta, d_f)
            assert traj.divergence_values[t] == Dv.damped_value(
                kind, spec, theta, teacher, d_pt)

    def test_teacher_equals_exponential_average_of_iterates(self):
        """theta'_t = eta kappa sum_i (1-eta kappa)^i theta_{t-i}
        + (1-eta kappa)^t theta_0."""
        rng = np.random.default_rng(91)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 4)
        cfg = base_config(T=6)
        traj = O.mt_run(spec, theta0, d_f, d_pt, cfg)
        rho = 1.0 - cfg.eta * cfg.kappa
        for t in (1, 3, 6):
            ema = (rho ** t) * traj.thetas[0]
            for i in range(t):
                ema = ema + cfg.eta * cfg.kappa * (rho ** i) * traj.thetas[t - i]
            np.testing.assert_allclose(traj.teachers[t], ema, rtol=1e-12,
                                       atol=1e-15)

    def test_gap_recursion_links_iterate_and_teacher(self):
        """With u_t = theta_t - theta'_t and kb = kappa / (1 - eta kappa),
        theta_t - theta_{t-1} = eta kb u_t + (u_t - u_{t-1}) and
        theta'_t - theta'_{t-1} = eta kb u_t."""
        rng = np.random.default_rng(92)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 5)
        cfg = base_config(T=5)
        traj = O.mt_run(spec, theta0, d_f, d_pt, cfg)
        kb = cfg.kappa / (1.0 - cfg.eta * cfg.kappa)
        us = [th - te for th, te in zip(traj.thetas, traj.teachers)]
        for t in range(1, 6):
            np.testing.assert_allclose(
                traj.teachers[t] - traj.teachers[t - 1],
                cfg.eta * kb * us[t], rtol=1e-9, atol=1e-14)
            np.testing.assert_allclose(
                traj.thetas[t] - traj.thetas[t - 1],
                cfg.eta * kb * us[t] + (us[t] - us[t - 1]),
                rtol=1e-9, atol=1e-14)

    def test_zero_loss_weight_holds_initial_point(self):
        """With alpha = 0 the divergence gradient vanishes at the shared
        start, so the iterate never moves (bit for bit)."""
        rng = np.random.default_rng(93)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 6)
        traj = O.mt_run(spec, theta0, d_f, d_pt, base_config(alpha=0.0, T=5))
        for th in traj.thetas:
            np.testing.assert_array_equal(th, theta0)
        # The teacher's convex combination of identical vectors rounds in
        # the last ulp, so it is fixed only to machine precision.
        np.testing.assert_allclose(traj.final_teacher, theta0, rtol=0,
                                   atol=1e-15)

    def test_divergent_step_size_fails_loudly(self):
        rng = np.random.default_rng(95)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 8)
        cfg = base_config(eta=1e160, kappa=0.0, alpha=1.0, mu=0.0, T=5)
        with np.errstate(over="ignore"), pytest.raises(TrainingError,
                                                       match="non-finite"):
            O.mt_run(spec, theta0, d_f, d_pt, cfg)


class TestBatchedRun:
    def setup_method(self):
        rng = np.random.default_rng(96)
        self.spec = M.ModelSpec(M.BIGRAM, 6)
        self.d_f, self.d_pt = make_data(rng, n=10)
        self.theta0 = M.init_params(self.spec, 9)

    def test_matches_hand_replayed_updates(self):
        """Replay the seeded draws and the clipped velocity update
        independently; every stored vector must match bit for bit."""
        cfg = base_config(T=6, clip=0.5, batch_forget=3, batch_pretrain=4,
                          seed=33)
        traj = O.mt_run_batched(self.spec, self.theta0, self.d_f, self.d_pt,
                                cfg)
        kind = Dv.DivergenceKind("kl", cfg.lam)
        rng = np.random.default_rng(cfg.seed)
        theta, teacher = self.theta0, self.theta0
        vel = np.zeros_like(self.theta0)
        for t in range(1, 7):
            fi = rng.integers(0, len(self.d_f), cfg.batch_forget)
            fb = self.d_f.subset(fi)
            pi = rng.integers(0, len(self.d_pt), cfg.batch_pretrain)
            pb = self.d_pt.subset(pi)
            g = Dv.damped_grad(kind, self.spec, theta, teacher, pb) \
                + cfg.alpha * L.batch_grad(cfg.loss, self.spec, theta, fb)
            gn = float(np.linalg.norm(g))
            l = min(1.0, cfg.clip / gn)
            vel = cfg.mu * vel + l * g
            theta = theta - cfg.eta * vel
            lek = l * cfg.eta * cfg.kappa
            teacher = (1.0 - lek) * teacher + lek * theta
            np.testing.assert_array_equal(traj.thetas[t], theta)
            np.testing.assert_array_equal(traj.teachers[t], teacher)
            assert traj.clip_scales[t] == l and traj.grad_norms[t] == gn
            np.testing.assert_array_equal(traj.batch_log[t - 1][0], fi)
            np.testing.assert_array_equal(traj.batch_log[t - 1][1], pi)

    def test_recorded_teacher_satisfies_scaled_average(self):
        cfg = base_config(T=8, clip=0.2, batch_forget=2, batch_pretrain=2,
                          seed=44)
        traj = O.mt_run_batched(self.spec, self.theta0, self.d_f, self.d_pt,
                                cfg)
        for t in range(1, 9):
            lek = traj.clip_scales[t] * cfg.eta * cfg.kappa
            np.testing.assert_allclose(
                traj.teachers[t],
                (1.0 - lek) * traj.teachers[t - 1] + lek * traj.thetas[t],
                rtol=1e-12, atol=1e-15)

    def test_clip_scales_follow_threshold_rule(self):
        """l = min(1, c / ||g||): scales below-threshold steps to 1."""
        cfg = base_config(T=8, clip=0.1, batch_forget=2, batch_pretrain=2,
                          seed=55)
        traj = O.mt_run_batched(self.spec, self.theta0, self.d_f, self.d_pt,
                                cfg)
        for t in range(1, 9):
            gn = traj.grad_norms[t]
            assert traj.clip_scales[t] == min(1.0, cfg.clip / gn)
        assert any(s < 1.0 for s in traj.clip_scales[1:])

    def test_clip_formulas_agree_at_unit_threshold(self):
        """min(1, 1/||g||) and 1/max(||g||, 1) are the same function."""
        kw = dict(T=6, clip=1.0, batch_forget=3, batch_pretrain=3, seed=66)
        a = O.mt_run_batched(self.spec, self.theta0, self.d_f, self.d_pt,
                             base_config(clip_formula="main", **kw))
        b = O.mt_run_batched(self.spec, self.theta0, self.d_f, self.d_pt,
                             base_config(clip_formula="alg2", **kw))
        np.testing.assert_array_equal(a.final_theta, b.final_theta)
        assert a.clip_scales == b.clip_scales

    def test_zero_clip_disables_scaling(self):
        kw = dict(T=6, batch_forget=3, batch_pretrain=3, seed=77)
        a = O.mt_run_batched(self.spec, self.theta0, self.d_f, self.d_pt,
                             base_config(clip=0.0, **kw))
        b = O.mt_run_batched(self.spec, self.theta0, self.d_f, self.d_pt,
                             base_config(clip=1e12, **kw))
        np.testing.assert_array_equal(a.final_theta, b.final_theta)
        assert a.clip_scales[1:] == [1.0] * 6

    def test_callback_stops_early(self):
        cfg = base_config(T=50, seed=88)
        seen = []

        def stop_at_three(t, theta):
            seen.append(t)
            return t == 3

        traj = O.mt_run_batched(self.spec, self.theta0, self.d_f, self.d_pt,
                                cfg, callback=stop_at_three)
        assert seen == [1, 2, 3]
        assert traj.ts == [0, 1, 2, 3]

    def test_npo_requires_sequence_data(self):
        cfg = base_config(T=2, loss=L.LossKind("npo", beta=0.5))
        with pytest.raises(ValueError, match="sequences"):
            O.mt_run_batched(self.spec, self.theta0, self.d_f, self.d_pt, cfg)


class TestReferenceRun:
    def test_one_step_matches_damped_solve(self):
        rng = np.random.default_rng(97)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 10)
        cfg = base_config(T=1)
        traj = O.ngd_run(spec, theta0, d_f, d_pt, cfg)
        d = O.DerivedNGDParams.from_config(cfg)
        g = L.batch_grad(cfg.loss, spec, theta0, d_f)
        H = curvature.assemble_gnh(spec, theta0, d_pt).H
        step = linalg.solve_spd(H + d.lam_bar * np.eye(len(theta0)), g)
        np.testing.assert_allclose(traj.thetas[1], theta0 - d.gamma * step,
                                   rtol=1e-9, atol=1e-13)
        assert traj.final_teacher is None and traj.teachers == []
        assert all(np.isnan(v) for v in traj.divergence_values)

    def test_mlp_route_matches_dense_solve(self):
        rng = np.random.default_rng(98)
        spec = M.ModelSpec(M.MLP, 5, context_len=2, hidden_dim=3)
        d_f, d_pt = make_data(rng, V=5, context_len=2)
        theta0 = M.init_params(spec, 11)
        cfg = base_config(T=1)
        traj = O.ngd_run(spec, theta0, d_f, d_pt, cfg)
        d = O.DerivedNGDParams.from_config(cfg)
        g = L.batch_grad(cfg.loss, spec, theta0, d_f)
        H = curvature.assemble_gnh(spec, theta0, d_pt).H
        step = linalg.solve_spd(H + d.lam_bar * np.eye(len(theta0)), g)
        np.testing.assert_array_equal(traj.thetas[1], theta0 - d.gamma * step)

    def test_gradient_lag_matters_only_after_first_step(self):
        rng = np.random.default_rng(99)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 12)
        lead = O.ngd_run(spec, theta0, d_f, d_pt, base_config(T=3))
        lag = O.ngd_run(spec, theta0, d_f, d_pt,
                        base_config(T=3, ngd_grad_lag=True))
        np.testing.assert_array_equal(lead.thetas[1], lag.thetas[1])
        assert not np.array_equal(lead.thetas[2], lag.thetas[2])


    @pytest.mark.parametrize("lag", [False, True])
    def test_replays_recomputed_gradients_bitwise(self, lag):
        """The run reuses each gradient (the lagged one a step later); a
        replay recomputing it at theta_t, or theta_{t-1} with the lag,
        gives the same iterates and records."""
        rng = np.random.default_rng(100)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 13)
        cfg = base_config(T=4, ngd_grad_lag=lag)
        traj = O.ngd_run(spec, theta0, d_f, d_pt, cfg)
        d = O.DerivedNGDParams.from_config(cfg)
        theta_prev, theta = theta0, theta0
        for t in range(1, 5):
            g = L.batch_grad(cfg.loss, spec, theta_prev if lag else theta, d_f)
            step = curvature.bigram_damped_solve(spec, theta, d_pt, d.lam_bar, g)
            theta_prev, theta = theta, theta - d.gamma * step
            np.testing.assert_array_equal(traj.thetas[t], theta)
            assert traj.grad_norms[t] == float(np.linalg.norm(g))
            assert traj.loss_values[t] == L.batch_loss(cfg.loss, spec, theta, d_f)


class TestBaselines:
    def setup_method(self):
        rng = np.random.default_rng(100)
        self.spec = M.ModelSpec(M.BIGRAM, 6)
        self.d_f, self.d_pt = make_data(rng, n=10)
        self.theta0 = M.init_params(self.spec, 13)

    def test_momentum_sgd_keeps_anchor_and_matches_replay(self):
        cfg = base_config(T=4, clip=0.5, batch_forget=3, batch_pretrain=3,
                          seed=111)
        traj = O.baseline_run("momentum-sgd", self.spec, self.theta0,
                              self.d_f, self.d_pt, cfg)
        kind = Dv.DivergenceKind("kl", cfg.lam)
        rng = np.random.default_rng(cfg.seed)
        theta = self.theta0
        vel = np.zeros_like(self.theta0)
        for t in range(1, 5):
            fi = rng.integers(0, len(self.d_f), cfg.batch_forget)
            fb = self.d_f.subset(fi)
            pi = rng.integers(0, len(self.d_pt), cfg.batch_pretrain)
            pb = self.d_pt.subset(pi)
            g = Dv.damped_grad(kind, self.spec, theta, self.theta0, pb) \
                + cfg.alpha * L.batch_grad(cfg.loss, self.spec, theta, fb)
            vel = cfg.mu * vel + min(1.0, cfg.clip / float(np.linalg.norm(g))) * g
            theta = theta - cfg.eta * vel
            np.testing.assert_array_equal(traj.thetas[t], theta)
            np.testing.assert_array_equal(traj.teachers[t], self.theta0)

    def test_adamw_matches_replay_with_staged_warmup(self):
        """First 100 steps run at 10% of lr, the next 100 ramp linearly
        to lr; bias-corrected moments, decoupled weight decay."""
        ap = O.AdamParams(lr=0.02, betas=(0.9, 0.95), eps=1e-8,
                          weight_decay=0.1, warmup=True)
        cfg = base_config(T=210, batch_forget=2, batch_pretrain=2, seed=222)
        traj = O.baseline_run("adamw", self.spec, self.theta0, self.d_f,
                              self.d_pt, cfg, adam_params=ap)
        kind = Dv.DivergenceKind("kl", cfg.lam)
        rng = np.random.default_rng(cfg.seed)
        theta = self.theta0
        m = np.zeros_like(self.theta0)
        v = np.zeros_like(self.theta0)
        for t in range(1, 211):
            fi = rng.integers(0, len(self.d_f), cfg.batch_forget)
            fb = self.d_f.subset(fi)
            pi = rng.integers(0, len(self.d_pt), cfg.batch_pretrain)
            pb = self.d_pt.subset(pi)
            g = Dv.damped_grad(kind, self.spec, theta, self.theta0, pb) \
                + cfg.alpha * L.batch_grad(cfg.loss, self.spec, theta, fb)
            if t <= 100:
                lr_t = 0.1 * ap.lr
            elif t <= 200:
                lr_t = ap.lr * (0.1 + 0.9 * (t - 100) / 100.0)
            else:
                lr_t = ap.lr
            b1, b2 = ap.betas
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            theta = theta - lr_t * (m / (1.0 - b1 ** t)
                                    / (np.sqrt(v / (1.0 - b2 ** t)) + ap.eps)
                                    + ap.weight_decay * theta)
        np.testing.assert_array_equal(traj.final_theta, theta)
        assert traj.clip_scales[1:] == [1.0] * 210

    def test_adamw_lr_falls_back_to_config_eta(self):
        cfg = base_config(T=3, seed=333)
        a = O.baseline_run("adamw", self.spec, self.theta0, self.d_f,
                           self.d_pt, cfg, adam_params=O.AdamParams())
        b = O.baseline_run("adamw", self.spec, self.theta0, self.d_f,
                           self.d_pt, cfg, adam_params=O.AdamParams(lr=cfg.eta))
        np.testing.assert_array_equal(a.final_theta, b.final_theta)

    def test_adam_params_validation(self):
        cases = [
            (dict(lr=-0.01), "lr"),
            (dict(lr=float("nan")), "lr"),
            (dict(eps=0.0), "eps"),
            (dict(betas=(0.9, 1.0)), "betas"),
            (dict(betas=(-0.1, 0.95)), "betas"),
            (dict(betas=(0.9,)), "betas"),
            (dict(weight_decay=-1e-3), "weight_decay"),
        ]
        for kw, match in cases:
            with pytest.raises(ValueError, match=match):
                O.AdamParams(**kw)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="baseline kind"):
            O.baseline_run("nesterov", self.spec, self.theta0, self.d_f,
                           self.d_pt, base_config())


class TestTrajectoryDeviation:
    def test_max_parameter_distance(self):
        a = O.Trajectory(ts=[0, 1], thetas=[np.zeros(3), np.array([1., 0., 0.])])
        b = O.Trajectory(ts=[0, 1], thetas=[np.zeros(3), np.array([3., 0., 0.])])
        assert O.trajectory_deviation(a, b) == pytest.approx(2.0)

    def test_length_mismatch_rejected(self):
        a = O.Trajectory(ts=[0, 1], thetas=[np.zeros(2)] * 2)
        b = O.Trajectory(ts=[0], thetas=[np.zeros(2)])
        with pytest.raises(ValueError, match="length mismatch"):
            O.trajectory_deviation(a, b)

    def test_missing_parameter_storage_rejected(self):
        a = O.Trajectory(ts=[0, 1])
        b = O.Trajectory(ts=[0, 1])
        with pytest.raises(ValueError, match="parameter vectors"):
            O.trajectory_deviation(a, b)
