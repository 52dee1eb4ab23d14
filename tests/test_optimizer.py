"""Mean-teacher updates, the damped reference trajectory, and baselines."""

import dataclasses
import functools

import numpy as np
import pytest

from mtunlearn import curvature, linalg
from mtunlearn import divergence as Dv
from mtunlearn import losses as L
from mtunlearn import model as M
from mtunlearn import optimizer as O
from mtunlearn.errors import TrainingError

from conftest import observed_run, same_bits, use_raw_forward


def make_data(rng, V=6, n=8, context_len=1):
    ctx = rng.integers(0, V, (n, context_len))
    nxt = rng.integers(0, V, n)
    return M.TokenDataset(ctx, nxt), M.TokenDataset(
        rng.integers(0, V, (n, context_len)), rng.integers(0, V, n))


def base_config(**kw):
    defaults = dict(eta=0.05, kappa=0.8, alpha=0.5, mu=0.6, T=4,
                    loss=L.LossKind("nll"), divergence=Dv.DivergenceKind("kl", 0.3))
    defaults.update(kw)
    return O.MTConfig(**defaults)


def batch_draws(cfg, d_f, d_pt):
    """The seeded (forget, pretrain) batches of a batched run, in order:
    step t's gradient is taken on draw t, and row t (the state after step
    t) is recorded on draw t + 1."""
    rng = np.random.default_rng(cfg.seed)
    while True:
        fb = d_f.subset(rng.integers(0, len(d_f), cfg.batch_forget))
        yield fb, d_pt.subset(rng.integers(0, len(d_pt), cfg.batch_pretrain))


def assert_row(traj, t, cfg, spec, theta, teacher, fb, pb):
    """Row t holds the loss on fb and the damped divergence on pb at
    (theta, teacher), and the teacher-student gap, bit for bit."""
    assert traj.loss_values[t] == L.batch_loss(cfg.loss, spec, theta, fb)
    assert traj.divergence_values[t] == Dv.damped_value(cfg.divergence, spec,
                                                         theta, teacher, pb)
    assert traj.gaps[t] == float(np.linalg.norm(theta - teacher))


class TestConfig:
    def test_validation(self):
        cases = [
            (dict(eta=0.0), "eta"),
            (dict(kappa=-1.0), "kappa"),
            (dict(eta=0.5, kappa=2.0), "below 1"),
            (dict(alpha=1.5), "alpha"),
            (dict(mu=1.0), "mu"),
            (dict(T=-1), "T"),
            (dict(clip=-1.0), "clip"),
            (dict(batch_forget=0), "batch"),
            (dict(kappa=float("nan")), "kappa"),
            (dict(clip=float("nan")), "clip"),
        ]
        for kw, match in cases:
            with pytest.raises(ValueError, match=match):
                base_config(**kw)

    def test_replace_revalidates(self):
        cfg = base_config()
        cfg2 = dataclasses.replace(cfg, eta=0.01, T=9)
        assert (cfg2.eta, cfg2.T) == (0.01, 9)
        assert (cfg.eta, cfg.T) == (0.05, 4)
        with pytest.raises(ValueError, match="below 1"):
            dataclasses.replace(cfg, eta=2.0)

    def test_derived_constants_frozen_values(self):
        """gamma = kappa alpha eta / (1 - kappa eta) and
        lam_bar = lam + (1 - mu) kappa / (1 - eta kappa)."""
        cfg = base_config(eta=5e-4, kappa=10.0, alpha=0.05, mu=0.9,
                          divergence=Dv.DivergenceKind("kl", 0.5))
        d = O.DerivedNGDParams.from_config(cfg)
        assert d.gamma == pytest.approx(2.512562814070352e-4, rel=1e-14)
        assert d.lam_bar == pytest.approx(1.5050251256281404, rel=1e-14)

    def test_lam_bar_reads_the_divergence_damping(self):
        """lam_bar - lam does not depend on lam, and lam is the
        divergence's: the config has no damping of its own."""
        assert not any(f.name == "lam" for f in dataclasses.fields(O.MTConfig))
        shift = (1.0 - 0.6) * 0.8 / (1.0 - 0.05 * 0.8)
        for lam in (0.0, 0.3, 2.5):
            cfg = base_config(divergence=Dv.DivergenceKind("qkl", lam))
            assert O.DerivedNGDParams.from_config(cfg).lam_bar == lam + shift


class TestFullBatchRun:
    def test_two_steps_match_hand_unrolled_update(self):
        """Unroll v_t = mu v_{t-1} + grad, theta_t = theta_{t-1} - eta v_t
        and the teacher average by hand for two steps, bit for bit."""
        rng = np.random.default_rng(90)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 3)
        cfg = base_config(T=2)
        traj, thetas, teachers = observed_run(O.mt_run, spec, theta0, d_f,
                                              d_pt, cfg)

        kind = cfg.divergence
        theta, teacher, vel = theta0, theta0, np.zeros_like(theta0)
        for _ in range(2):
            g = Dv.damped_grad(kind, spec, theta, teacher, d_pt) \
                + cfg.alpha * L.batch_grad(cfg.loss, spec, theta, d_f)
            vel = cfg.mu * vel + g
            theta = theta - cfg.eta * vel
            teacher = (1.0 - cfg.eta * cfg.kappa) * teacher \
                + cfg.eta * cfg.kappa * theta
        np.testing.assert_array_equal(thetas[2], theta)
        np.testing.assert_array_equal(teachers[2], teacher)
        np.testing.assert_array_equal(traj.final_theta, theta)
        assert traj.ts == [0, 1, 2] and len(traj) == 3

    def test_unclipped_steps_are_the_heavy_ball_form(self):
        """At l = 1 the velocity step is the form the theory states,
        theta_t = theta_{t-1} - eta grad + mu (theta_{t-1} - theta_{t-2})
        with theta_{-1} = theta_0, in another float order."""
        rng = np.random.default_rng(94)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 7)
        cfg = base_config(T=8, loss=L.LossKind("nlul"))
        _, thetas, teachers = observed_run(O.mt_run, spec, theta0, d_f, d_pt,
                                           cfg)

        kind = cfg.divergence
        theta_prev, theta, teacher = theta0, theta0, theta0
        for t in range(1, 9):
            g = Dv.damped_grad(kind, spec, theta, teacher, d_pt) \
                + cfg.alpha * L.batch_grad(cfg.loss, spec, theta, d_f)
            theta_new = theta - cfg.eta * g + cfg.mu * (theta - theta_prev)
            teacher = (1.0 - cfg.eta * cfg.kappa) * teacher \
                + cfg.eta * cfg.kappa * theta_new
            theta_prev, theta = theta, theta_new
            np.testing.assert_allclose(thetas[t], theta, rtol=1e-12, atol=0)
            np.testing.assert_allclose(teachers[t], teacher, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("tag", ["kl", "qkl", "bregman"])
    def test_fused_run_replays_separate_calls_bitwise(self, tag):
        """Iterates and recorded values equal a replay that evaluates the
        gradient, the loss value and the divergence value separately."""
        rng = np.random.default_rng(96)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 4)
        cfg = base_config(T=5, loss=L.LossKind("nlul"),
                          divergence=Dv.DivergenceKind(tag, 0.3))
        traj, thetas, _ = observed_run(O.mt_run, spec, theta0, d_f, d_pt, cfg)

        kind = cfg.divergence
        theta, teacher, vel = theta0, theta0, np.zeros_like(theta0)
        for t in range(1, 6):
            g = Dv.damped_grad(kind, spec, theta, teacher, d_pt) \
                + cfg.alpha * L.batch_grad(cfg.loss, spec, theta, d_f)
            vel = cfg.mu * vel + g
            theta = theta - cfg.eta * vel
            teacher = (1.0 - cfg.eta * cfg.kappa) * teacher \
                + cfg.eta * cfg.kappa * theta
            np.testing.assert_array_equal(thetas[t], theta)
            assert traj.grad_norms[t] == float(np.linalg.norm(g))
            assert_row(traj, t, cfg, spec, theta, teacher, d_f, d_pt)

    def test_teacher_equals_exponential_average_of_iterates(self):
        """theta'_t = eta kappa sum_i (1-eta kappa)^i theta_{t-i}
        + (1-eta kappa)^t theta_0."""
        rng = np.random.default_rng(91)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 4)
        cfg = base_config(T=6)
        _, thetas, teachers = observed_run(O.mt_run, spec, theta0, d_f, d_pt,
                                           cfg)
        rho = 1.0 - cfg.eta * cfg.kappa
        for t in (1, 3, 6):
            ema = (rho ** t) * thetas[0]
            for i in range(t):
                ema = ema + cfg.eta * cfg.kappa * (rho ** i) * thetas[t - i]
            np.testing.assert_allclose(teachers[t], ema, rtol=1e-12,
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
        _, thetas, teachers = observed_run(O.mt_run, spec, theta0, d_f, d_pt,
                                           cfg)
        kb = cfg.kappa / (1.0 - cfg.eta * cfg.kappa)
        us = [th - te for th, te in zip(thetas, teachers)]
        for t in range(1, 6):
            np.testing.assert_allclose(
                teachers[t] - teachers[t - 1],
                cfg.eta * kb * us[t], rtol=1e-9, atol=1e-14)
            np.testing.assert_allclose(
                thetas[t] - thetas[t - 1],
                cfg.eta * kb * us[t] + (us[t] - us[t - 1]),
                rtol=1e-9, atol=1e-14)

    def test_zero_loss_weight_holds_initial_point(self):
        """With alpha = 0 the divergence gradient vanishes at the shared
        start, so the iterate never moves (bit for bit)."""
        rng = np.random.default_rng(93)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 6)
        traj, thetas, _ = observed_run(O.mt_run, spec, theta0, d_f, d_pt,
                                       base_config(alpha=0.0, T=5))
        for th in thetas:
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

    def replay(self, cfg, steps):
        """Replay the seeded draws and the clipped velocity update for
        `steps` steps; yields (t, theta, teacher, grad norm, clip scale,
        forget batch, pretrain batch) with row t's batches: the full
        datasets at t = 0, else the draw after step t."""
        kind = cfg.divergence
        batches = batch_draws(cfg, self.d_f, self.d_pt)
        theta, teacher = self.theta0, self.theta0
        vel = np.zeros_like(self.theta0)
        yield 0, theta, teacher, 0.0, 1.0, self.d_f, self.d_pt
        fb, pb = next(batches)
        for t in range(1, steps + 1):
            g = Dv.damped_grad(kind, self.spec, theta, teacher, pb) \
                + cfg.alpha * L.batch_grad(cfg.loss, self.spec, theta, fb)
            gn = float(np.linalg.norm(g))
            l = min(1.0, cfg.clip / gn)
            vel = cfg.mu * vel + l * g
            theta = theta - cfg.eta * vel
            lek = l * cfg.eta * cfg.kappa
            teacher = (1.0 - lek) * teacher + lek * theta
            fb, pb = next(batches)
            yield t, theta, teacher, gn, l, fb, pb

    def test_matches_hand_replayed_updates(self):
        """Replay the seeded draws and the clipped velocity update
        independently; every stored vector and every recorded value must
        match bit for bit.  Row t's values are on the batch step t + 1
        draws (row T's on one extra draw), row 0's on the full datasets."""
        cfg = base_config(T=6, clip=0.5, batch_forget=3, batch_pretrain=4,
                          seed=33)
        traj, thetas, teachers = observed_run(
            O.mt_run_batched, self.spec, self.theta0, self.d_f, self.d_pt, cfg)
        assert traj.ts == list(range(7))
        for t, theta, teacher, gn, l, fb, pb in self.replay(cfg, 6):
            np.testing.assert_array_equal(thetas[t], theta)
            np.testing.assert_array_equal(teachers[t], teacher)
            assert traj.clip_scales[t] == l and traj.grad_norms[t] == gn
            assert_row(traj, t, cfg, self.spec, theta, teacher, fb, pb)

    def test_callback_stop_records_the_next_draw(self):
        """A run stopped by its callback after step 3 records row 3 on the
        batch step 4 would have used; T = 0 records row 0 alone, on the
        full datasets."""
        cfg = base_config(T=50, clip=0.5, batch_forget=3, batch_pretrain=4,
                          seed=34)
        traj = O.mt_run_batched(self.spec, self.theta0, self.d_f, self.d_pt,
                                cfg, callback=lambda t, theta, teacher: t == 3)
        assert traj.ts == [0, 1, 2, 3]
        for t, theta, teacher, gn, l, fb, pb in self.replay(cfg, 3):
            assert traj.clip_scales[t] == l and traj.grad_norms[t] == gn
            assert_row(traj, t, cfg, self.spec, theta, teacher, fb, pb)
        np.testing.assert_array_equal(traj.final_theta, theta)

        cfg = dataclasses.replace(cfg, T=0)
        traj = O.mt_run_batched(self.spec, self.theta0, self.d_f, self.d_pt, cfg)
        assert traj.ts == [0] and traj.gaps == [0.0]
        assert_row(traj, 0, cfg, self.spec, self.theta0, self.theta0,
                   self.d_f, self.d_pt)
        np.testing.assert_array_equal(traj.final_theta, self.theta0)

    @pytest.mark.parametrize("rule", ["mt", "mt-batched", "ngd"])
    @pytest.mark.parametrize("T", [0, 1, 5])
    def test_one_evaluation_per_step(self, monkeypatch, rule, T):
        """Each step's record and the next step's gradient share one
        evaluation; only a batched run's step 1 takes its gradient alone,
        and no gradient is taken after the last step."""
        calls = []
        evaluate = O._evaluate

        def counting(*args):
            calls.append(args[-2:])
            return evaluate(*args)

        monkeypatch.setattr(O, "_evaluate", counting)
        RUNS[rule](self.spec, self.theta0, self.d_f, self.d_pt,
                   base_config(T=T, batch_forget=3, batch_pretrain=4, seed=35))
        if rule == "mt-batched":
            want = [(True, False)] + [(False, True)] * (T > 0)
        else:
            want = [(True, T > 0)]
        want += [(True, True)] * (T - 1) + [(True, False)] * (T > 0)
        assert calls == want

    @pytest.mark.parametrize("rule", ["mt", "mt-batched"])
    def test_recorded_teacher_satisfies_scaled_average(self, rule):
        """theta'_t = (1 - l eta kappa) theta'_{t-1} + l eta kappa theta_t
        at a clip that fires (full-batch gradients are the smaller)."""
        cfg = base_config(T=8, clip=0.1, batch_forget=2, batch_pretrain=2,
                          seed=44)
        traj, thetas, teachers = observed_run(
            RUNS[rule], self.spec, self.theta0, self.d_f, self.d_pt, cfg)
        assert any(s < 1.0 for s in traj.clip_scales[1:])
        for t in range(1, 9):
            lek = traj.clip_scales[t] * cfg.eta * cfg.kappa
            np.testing.assert_allclose(
                teachers[t],
                (1.0 - lek) * teachers[t - 1] + lek * thetas[t],
                rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("rule", ["mt", "mt-batched"])
    def test_clip_scales_follow_threshold_rule(self, rule):
        """l = min(1, c / ||g||): scales below-threshold steps to 1."""
        cfg = base_config(T=8, clip=0.1, batch_forget=2, batch_pretrain=2,
                          seed=55)
        traj = RUNS[rule](self.spec, self.theta0, self.d_f, self.d_pt, cfg)
        for t in range(1, 9):
            gn = traj.grad_norms[t]
            assert traj.clip_scales[t] == min(1.0, cfg.clip / gn)
        assert any(s < 1.0 for s in traj.clip_scales[1:])

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

        def stop_at_three(t, theta, teacher):
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

    @pytest.mark.parametrize("spec", [M.ModelSpec(M.BIGRAM, 6),
                                      M.ModelSpec(M.MLP, 6, context_len=2,
                                                  hidden_dim=4)],
                             ids=["bigram", "mlp"])
    def test_npo_batches_gather_the_expansion_of_their_draw(self, spec):
        """An npo forget batch gathered from the once-expanded forget set
        equals dataset_from_sequences of the same seeded draw, padded
        starts included, and sequence_pairs takes it as it is."""
        rng = np.random.default_rng(99)
        seqs = [rng.integers(0, 6, n) for n in (2, 3, 5, 4, 7)]
        d_f = M.dataset_from_sequences(seqs, spec.context_len)
        cfg = base_config(loss=L.LossKind("npo", beta=0.5), batch_forget=4,
                          batch_pretrain=3, seed=41)
        sampler = O._BatchSampler(spec, cfg, d_f, self.d_pt)
        replay = np.random.default_rng(cfg.seed)
        for _ in range(5):
            fb, pb = sampler.draw()
            fi = replay.integers(0, len(seqs), cfg.batch_forget)
            want = M.dataset_from_sequences([seqs[i] for i in fi],
                                            spec.context_len)
            np.testing.assert_array_equal(fb.contexts, want.contexts)
            np.testing.assert_array_equal(fb.nexts, want.nexts)
            assert [list(s) for s in fb.sequences] == [list(s) for s in want.sequences]
            assert M.sequence_pairs(spec, fb)[0] is fb
            pi = replay.integers(0, len(self.d_pt), cfg.batch_pretrain)
            np.testing.assert_array_equal(pb.nexts, self.d_pt.nexts[pi])


class TestReferenceRun:
    def test_one_step_matches_damped_solve(self):
        rng = np.random.default_rng(97)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 10)
        cfg = base_config(T=1)
        traj, thetas, teachers = observed_run(O.ngd_run, spec, theta0, d_f,
                                              d_pt, cfg)
        d = O.DerivedNGDParams.from_config(cfg)
        g = L.batch_grad(cfg.loss, spec, theta0, d_f)
        H = curvature.assemble_gnh(spec, theta0, d_pt)
        step = linalg.solve_spd(H + d.lam_bar * np.eye(len(theta0)), g)
        np.testing.assert_allclose(thetas[1], theta0 - d.gamma * step,
                                   rtol=1e-9, atol=1e-13)
        assert traj.final_teacher is None and teachers == [None, None]
        assert all(np.isnan(v) for v in traj.divergence_values)
        assert traj.gaps == [None, None]

    def test_mlp_route_matches_dense_solve(self):
        rng = np.random.default_rng(98)
        spec = M.ModelSpec(M.MLP, 5, context_len=2, hidden_dim=3)
        d_f, d_pt = make_data(rng, V=5, context_len=2)
        theta0 = M.init_params(spec, 11)
        cfg = base_config(T=1)
        _, thetas, _ = observed_run(O.ngd_run, spec, theta0, d_f, d_pt, cfg)
        d = O.DerivedNGDParams.from_config(cfg)
        g = L.batch_grad(cfg.loss, spec, theta0, d_f)
        H = curvature.assemble_gnh(spec, theta0, d_pt)
        step = linalg.solve_spd(H + d.lam_bar * np.eye(len(theta0)), g)
        np.testing.assert_array_equal(thetas[1], theta0 - d.gamma * step)

    def test_gradient_lag_matters_only_after_first_step(self):
        rng = np.random.default_rng(99)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 12)
        lead = observed_run(O.ngd_run, spec, theta0, d_f, d_pt,
                            base_config(T=3))[1]
        lag = observed_run(O.ngd_run, spec, theta0, d_f, d_pt,
                           base_config(T=3), grad_lag=True)[1]
        np.testing.assert_array_equal(lead[1], lag[1])
        assert not np.array_equal(lead[2], lag[2])


    @pytest.mark.parametrize("lag", [False, True])
    def test_replays_recomputed_gradients_bitwise(self, lag):
        """The run reuses each gradient (the lagged one a step later); a
        replay recomputing it at theta_t, or theta_{t-1} with the lag,
        gives the same iterates and records."""
        rng = np.random.default_rng(100)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 13)
        cfg = base_config(T=4)
        traj, thetas, _ = observed_run(O.ngd_run, spec, theta0, d_f, d_pt, cfg,
                                       grad_lag=lag)
        d = O.DerivedNGDParams.from_config(cfg)
        theta_prev, theta = theta0, theta0
        for t in range(1, 5):
            g = L.batch_grad(cfg.loss, spec, theta_prev if lag else theta, d_f)
            step = curvature.bigram_damped_solve(spec, theta, d_pt, d.lam_bar, g)
            theta_prev, theta = theta, theta - d.gamma * step
            np.testing.assert_array_equal(thetas[t], theta)
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
        traj, seen, _ = observed_run(
            functools.partial(O.baseline_run, "momentum-sgd"), self.spec,
            self.theta0, self.d_f, self.d_pt, cfg)
        kind = cfg.divergence
        batches = batch_draws(cfg, self.d_f, self.d_pt)
        theta = self.theta0
        vel = np.zeros_like(self.theta0)
        assert_row(traj, 0, cfg, self.spec, theta, theta, self.d_f, self.d_pt)
        fb, pb = next(batches)
        for t in range(1, 5):
            g = Dv.damped_grad(kind, self.spec, theta, self.theta0, pb) \
                + cfg.alpha * L.batch_grad(cfg.loss, self.spec, theta, fb)
            vel = cfg.mu * vel + min(1.0, cfg.clip / float(np.linalg.norm(g))) * g
            theta = theta - cfg.eta * vel
            np.testing.assert_array_equal(seen[t], theta)
            fb, pb = next(batches)
            assert_row(traj, t, cfg, self.spec, theta, self.theta0, fb, pb)
        # The teacher rate is 0: the divergence reference never leaves theta_0.
        np.testing.assert_array_equal(traj.final_teacher, self.theta0)

    def assert_adamw_replay(self, ap, T, lr_at):
        """An adamw run equals its replay at every step: bias-corrected
        moments, decoupled weight decay, learning rate lr_at(t)."""
        cfg = base_config(T=T, batch_forget=2, batch_pretrain=2, seed=222)
        traj = O.baseline_run("adamw", self.spec, self.theta0, self.d_f,
                              self.d_pt, cfg, adam_params=ap)
        kind = cfg.divergence
        batches = batch_draws(cfg, self.d_f, self.d_pt)
        theta = self.theta0
        m = np.zeros_like(self.theta0)
        v = np.zeros_like(self.theta0)
        assert_row(traj, 0, cfg, self.spec, theta, theta, self.d_f, self.d_pt)
        fb, pb = next(batches)
        for t in range(1, T + 1):
            g = Dv.damped_grad(kind, self.spec, theta, self.theta0, pb) \
                + cfg.alpha * L.batch_grad(cfg.loss, self.spec, theta, fb)
            b1, b2 = ap.betas
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            theta = theta - lr_at(t) * (m / (1.0 - b1 ** t)
                                        / (np.sqrt(v / (1.0 - b2 ** t)) + ap.eps)
                                        + ap.weight_decay * theta)
            fb, pb = next(batches)
            assert_row(traj, t, cfg, self.spec, theta, self.theta0, fb, pb)
        np.testing.assert_array_equal(traj.final_theta, theta)
        assert traj.clip_scales[1:] == [1.0] * T

    def test_adamw_matches_replay_with_staged_warmup(self):
        """First 100 steps run at 10% of lr, the next 100 ramp linearly
        to lr."""
        ap = O.AdamParams(lr=0.02, betas=(0.9, 0.95), eps=1e-8,
                          weight_decay=0.1, warmup=True)

        def lr_at(t):
            if t <= 100:
                return 0.1 * ap.lr
            if t <= 200:
                return ap.lr * (0.1 + 0.9 * (t - 100) / 100.0)
            return ap.lr

        self.assert_adamw_replay(ap, 210, lr_at)

    def test_adamw_matches_replay_without_warmup(self):
        """warmup=False runs every step at lr."""
        ap = O.AdamParams(lr=0.02, betas=(0.9, 0.95), eps=1e-8,
                          weight_decay=0.1, warmup=False)
        self.assert_adamw_replay(ap, 30, lambda t: ap.lr)

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


# The five update rules, each called as run(spec, theta0, d_f, d_pt, cfg, **kw).
RUNS = {
    "mt": O.mt_run,
    "mt-batched": O.mt_run_batched,
    "momentum-sgd": functools.partial(O.baseline_run, "momentum-sgd"),
    "adamw": functools.partial(O.baseline_run, "adamw"),
    "ngd": O.ngd_run,
}


class TestKeepIterates:
    def setup_method(self):
        rng = np.random.default_rng(101)
        self.spec = M.ModelSpec(M.BIGRAM, 6)
        self.d_f, self.d_pt = make_data(rng, n=10)
        self.theta0 = M.init_params(self.spec, 14)
        self.cfg = base_config(T=6, clip=0.5, batch_forget=3, batch_pretrain=3,
                               seed=12)

    def run(self, rule, cfg=None, **kw):
        if rule == "ngd":
            kw["grad_lag"] = True
        return RUNS[rule](self.spec, self.theta0, self.d_f, self.d_pt,
                          cfg or self.cfg, **kw)

    @pytest.mark.parametrize("rule", list(RUNS))
    def test_final_point_after_callback_stop_is_the_last_seen(self, rule):
        seen = []

        def stop_at_three(t, theta, teacher):
            seen.append((theta.copy(), teacher))
            return t == 3

        traj = self.run(rule, callback=stop_at_three)
        assert traj.ts == [0, 1, 2, 3] and len(seen) == 3
        assert traj.final_theta.tobytes() == seen[-1][0].tobytes()
        short = self.run(rule, dataclasses.replace(self.cfg, T=3))
        assert traj.final_theta.tobytes() == short.final_theta.tobytes()
        if rule == "ngd":
            assert traj.final_teacher is short.final_teacher is None
            assert all(teacher is None for _, teacher in seen)
        else:
            assert traj.final_teacher.tobytes() == seen[-1][1].tobytes()
            assert traj.final_teacher.tobytes() == short.final_teacher.tobytes()


SPECS = {"bigram": M.ModelSpec(M.BIGRAM, 6),
         "mlp": M.ModelSpec(M.MLP, 6, context_len=2, hidden_dim=4)}


def sequence_data(spec, seed):
    """Forget (3 sequences, 9 pairs) and pretrain (4 sequences, 13 pairs)
    datasets built from sequences, so MLP contexts carry PAD slots."""
    rng = np.random.default_rng(seed)
    forget = [rng.integers(0, 6, n) for n in (3, 5, 4)]
    pretrain = [rng.integers(0, 6, n) for n in (6, 2, 5, 4)]
    return (M.dataset_from_sequences(forget, spec.context_len),
            M.dataset_from_sequences(pretrain, spec.context_len))


PREPARED_CASES = {
    "nlul-kl": dict(loss=L.LossKind("nlul")),
    "it-qkl": dict(loss=L.LossKind("it"), divergence=Dv.DivergenceKind("qkl", 0.3)),
    "npo": dict(loss=L.LossKind("npo", beta=0.5)),
    # Batches above the split sizes: with-replacement draws of 20 pairs
    # from 9 and 13, and of 7 npo sequences from 3.
    "oversized": dict(loss=L.LossKind("nlul"), batch_forget=20,
                      batch_pretrain=30),
    "oversized-npo": dict(loss=L.LossKind("npo", beta=0.5), batch_forget=7,
                          batch_pretrain=30),
}


class TestPreparedRuns:
    """Runs on the datasets' kept encodings against the same runs with
    every evaluation re-checking and re-encoding raw ids, bit for bit."""

    @pytest.mark.parametrize("case", list(PREPARED_CASES))
    @pytest.mark.parametrize("rule", list(RUNS))
    @pytest.mark.parametrize("kind", list(SPECS))
    def test_runs_match_the_per_call_encoding(self, monkeypatch, kind, rule, case):
        spec = SPECS[kind]
        cfg = base_config(**dict(dict(T=5, clip=0.5, batch_forget=3,
                                      batch_pretrain=4, seed=7),
                                 **PREPARED_CASES[case]))
        theta0 = M.init_params(spec, 3)
        prepared = RUNS[rule](spec, theta0, *sequence_data(spec, 5), cfg)
        with monkeypatch.context() as mp:
            use_raw_forward(mp)
            raw = RUNS[rule](spec, theta0, *sequence_data(spec, 5), cfg)
        assert same_bits(prepared.final_theta, raw.final_theta)
        if raw.final_teacher is not None:
            assert same_bits(prepared.final_teacher, raw.final_teacher)
        for name in ("grad_norms", "loss_values", "divergence_values",
                     "clip_scales"):
            assert same_bits(getattr(prepared, name), getattr(raw, name))

    @pytest.mark.parametrize("kind", list(SPECS))
    def test_oversized_draws_gather_their_rows(self, kind):
        """Batches larger than their split, npo included, hold the drawn
        rows with the same encoding and base log-probabilities as the
        drawn pairs and sequences built afresh."""
        spec = SPECS[kind]
        d_f, d_pt = sequence_data(spec, 6)
        base = M.init_params(spec, 4)
        for loss, n_f in ((L.LossKind("nlul"), 20), (L.LossKind("npo"), 7)):
            cfg = base_config(loss=loss, batch_forget=n_f, batch_pretrain=30)
            npo = loss.tag == "npo"
            forget = L.npo_pairs(spec, d_f, base) if npo else d_f
            sampler = O._BatchSampler(spec, cfg, forget, d_pt)
            for _ in range(3):
                fb, pb = sampler.draw()
                assert len(pb) == 30
                assert len(fb.sequences if npo else fb) == n_f
                for b in (fb, pb):
                    assert same_bits(b.inputs(spec), M.model_inputs(spec, b.contexts))
                if npo:
                    fresh = M.dataset_from_sequences(fb.sequences, spec.context_len)
                    assert same_bits(fb.contexts, fresh.contexts)
                    assert same_bits(fb.base_logprob,
                                     M.sequence_logprob(spec, base, fresh))

    @pytest.mark.parametrize("rule", ["mt", "mt-batched"])
    def test_npo_base_values_are_computed_once_per_run(self, monkeypatch, rule):
        spec = SPECS["bigram"]
        calls = []
        real = M.sequence_logprob

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(M, "sequence_logprob", counted)
        theta0 = M.init_params(spec, 3)
        cfg = base_config(T=6, loss=L.LossKind("npo", beta=0.5), batch_forget=2,
                          batch_pretrain=3)
        RUNS[rule](spec, theta0, *sequence_data(spec, 8), cfg)
        assert len(calls) == 1 and calls[0] is not theta0
        assert same_bits(calls[0], theta0)


LOCKSTEP_CASES = {
    "it-kl": dict(loss=L.LossKind("it")),
    "nlul-qkl": dict(loss=L.LossKind("nlul"), divergence=Dv.DivergenceKind("qkl", 0.3)),
    "npo-kl": dict(loss=L.LossKind("npo", beta=0.5)),
    "nll-bregman": dict(divergence=Dv.DivergenceKind("bregman", 0.3)),
}


class TestLockstep:
    """mt_ngd_deviations advances every mean teacher and both references
    of every config on one stack of parameter vectors."""

    @pytest.mark.parametrize("kind,case", [
        (kind, case) for kind in SPECS for case in LOCKSTEP_CASES
        if kind == "bigram" or case != "nll-bregman"])
    def test_rows_are_the_separate_runs_at_every_step(self, monkeypatch, kind,
                                                      case):
        """Horizons 3, 7 and 5 (so rows leave the stack at unequal steps):
        at every step every row is bit for bit its own mt_run or ngd_run
        iterate, and each deviation is the largest gap of those runs."""
        spec = SPECS[kind]
        d_f, d_pt = sequence_data(spec, 5)
        theta0 = M.init_params(spec, 3)
        cfgs = [base_config(alpha=a, T=T, **LOCKSTEP_CASES[case])
                for a, T in ((0.5, 3), (0.2, 7), (0.3, 5))]
        runs = []
        for cfg in cfgs:
            runs.append([observed_run(O.mt_run, spec, theta0, d_f, d_pt, cfg)[1]]
                        + [observed_run(O.ngd_run, spec, theta0, d_f, d_pt, cfg,
                                        grad_lag=lag)[1]
                           for lag in (False, True)])
        stacks = []
        check = O._check_finite

        def record(theta, t):
            stacks.append(theta.copy())
            check(theta, t)

        monkeypatch.setattr(O, "_check_finite", record)
        devs = O.mt_ngd_deviations(spec, theta0, d_f, d_pt, cfgs)
        assert len(stacks) == 7
        for t, stack in enumerate(stacks, start=1):
            active = [i for i in (1, 2, 0) if cfgs[i].T >= t]
            assert stack.shape == (len(active), 3, len(theta0))
            for rows, i in zip(stack, active):
                for row, iterates in zip(rows, runs[i]):
                    assert same_bits(row, iterates[t])
        for i, (mt, ref, lagged) in enumerate(runs):
            assert same_bits(devs[i], [max(linalg.norm(a - b) for a, b in zip(mt, r))
                                       for r in (ref, lagged)])

    def test_zero_horizon_and_bad_weight(self):
        rng = np.random.default_rng(96)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 9)
        devs = O.mt_ngd_deviations(spec, theta0, d_f, d_pt,
                                   [base_config(T=0), base_config(alpha=0.2, T=2)])
        assert devs[0].tolist() == [0.0, 0.0] and (devs[1] > 0).all()
        with pytest.raises(ValueError, match="alpha must be positive"):
            O.mt_ngd_deviations(spec, theta0, d_f, d_pt, [base_config(alpha=0.0)])
        # Only alpha and T may differ from the first config, and a clipped
        # mt_run is not what the lockstep computes.
        for kw, field in ((dict(eta=0.04), "eta"), (dict(seed=3), "seed"),
                          (dict(loss=L.LossKind("nlul")), "loss"),
                          (dict(divergence=Dv.DivergenceKind("kl", 0.2)),
                           "divergence")):
            with pytest.raises(ValueError, match=f"differ in {field};"):
                O.mt_ngd_deviations(spec, theta0, d_f, d_pt,
                                    [base_config(), base_config(alpha=0.2, **kw)])
        with pytest.raises(ValueError, match="clip"):
            O.mt_ngd_deviations(spec, theta0, d_f, d_pt, [base_config(clip=0.5)])
        # it teachers compare by parameter values, not by identity.
        def it(theta):
            return base_config(T=2, loss=L.LossKind(
                "it", teacher=L.TeacherLogits(spec, theta.copy())))
        O.mt_ngd_deviations(spec, theta0, d_f, d_pt, [it(theta0), it(theta0)])
        with pytest.raises(ValueError, match="differ in loss;"):
            O.mt_ngd_deviations(spec, theta0, d_f, d_pt,
                                [it(theta0), it(theta0 + 1.0)])

    def test_divergent_step_size_fails_at_the_runs_step(self):
        rng = np.random.default_rng(95)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 8)
        cfg = base_config(eta=1e160, kappa=0.0, alpha=1.0, mu=0.0, T=5)
        with np.errstate(over="ignore"):
            with pytest.raises(TrainingError, match="non-finite") as run:
                O.mt_run(spec, theta0, d_f, d_pt, cfg)
            with pytest.raises(TrainingError) as lockstep:
                O.mt_ngd_deviations(spec, theta0, d_f, d_pt, [cfg])
        assert str(lockstep.value) == str(run.value)


# A lockstep group: one draw stream (seed, batch sizes, loss), with every
# other setting different per row.
GROUP = [
    ("mt-batched", dict(T=7)),
    ("mt-batched", dict(T=5, eta=0.03, alpha=0.3, kappa=0.5, clip=0.2,
                        divergence=Dv.DivergenceKind("qkl", 0.3))),
    ("momentum-sgd", dict(T=4, eta=0.04, mu=0.5, clip=0.0)),
    ("adamw", dict(T=6, alpha=0.8, divergence=Dv.DivergenceKind("kl", 0.1))),
]
GROUP_ADAM = O.AdamParams(lr=0.01)


def group_configs(loss, **shared):
    return [base_config(**dict(loss=loss, clip=0.5, batch_forget=3,
                               batch_pretrain=4, seed=21) | kw | shared)
            for _, kw in GROUP]


def solo_run(opt, spec, theta0, d_f, d_pt, cfg, **kw):
    if opt == "adamw":
        kw["adam_params"] = GROUP_ADAM
    return RUNS[opt](spec, theta0, d_f, d_pt, cfg, **kw)


def lockstep_group(spec, theta0, d_f, d_pt, cfgs, callbacks=None):
    callbacks = callbacks or [None] * len(cfgs)
    return O.lockstep_runs(spec, theta0, d_f, d_pt, [
        (opt, cfg, GROUP_ADAM if opt == "adamw" else None, cb)
        for (opt, _), cfg, cb in zip(GROUP, cfgs, callbacks)])


def recorder():
    """A callback keeping every (theta, teacher) it is given, as given and
    as copied at the call."""
    kept, copies = [], []

    def callback(t, theta, teacher):
        kept.append((theta, teacher))
        copies.append((theta.copy(), teacher.copy()))
    return callback, kept, copies


TRAJECTORY_COLUMNS = ("ts", "grad_norms", "loss_values", "divergence_values",
                      "clip_scales", "gaps")


class TestLockstepRuns:
    """lockstep_runs advances runs that share a batch stream on one stack;
    each row is bit for bit its run alone."""

    @pytest.mark.parametrize("loss", [L.LossKind("nlul"), L.LossKind("npo", beta=0.5)],
                             ids=["nlul", "npo"])
    @pytest.mark.parametrize("kind", list(SPECS))
    def test_rows_are_their_solo_runs(self, kind, loss):
        spec = SPECS[kind]
        d_f, d_pt = sequence_data(spec, 5)
        theta0 = M.init_params(spec, 3)
        cfgs = group_configs(loss)
        solos = [observed_run(functools.partial(solo_run, opt), spec, theta0,
                              d_f, d_pt, cfg) for (opt, _), cfg in zip(GROUP, cfgs)]
        recorders = [recorder() for _ in GROUP]
        trajs = lockstep_group(spec, theta0, d_f, d_pt, cfgs,
                               [cb for cb, _, _ in recorders])
        for traj, (solo, thetas, teachers), (_, kept, copies), cfg in zip(
                trajs, solos, recorders, cfgs):
            assert len(traj) == cfg.T + 1
            for name in TRAJECTORY_COLUMNS:
                assert same_bits(getattr(traj, name), getattr(solo, name)), name
            assert same_bits(traj.final_theta, solo.final_theta)
            assert same_bits(traj.final_teacher, solo.final_teacher)
            assert all(same_bits(a, b) and same_bits(c, d) for (a, c), b, d in
                       zip(copies, thetas[1:], teachers[1:]))
            # The loop never writes into an array it gave a callback.
            assert all(same_bits(a, b) and same_bits(c, d)
                       for (a, c), (b, d) in zip(kept, copies))

    def test_a_diverging_row_leaves_alone(self):
        """A row driven non-finite ends with its solo run's error; its
        group-mates are still their solo runs."""
        spec = SPECS["mlp"]
        d_f, d_pt = sequence_data(spec, 5)
        theta0 = M.init_params(spec, 3)
        cfgs = group_configs(L.LossKind("nlul"))
        cfgs[1] = dataclasses.replace(cfgs[1], eta=1e160, kappa=0.0, mu=0.0,
                                      clip=0.0)
        with np.errstate(all="ignore"):
            outs = lockstep_group(spec, theta0, d_f, d_pt, cfgs)
            with pytest.raises(TrainingError) as solo:
                solo_run(GROUP[1][0], spec, theta0, d_f, d_pt, cfgs[1])
        assert isinstance(outs[1], TrainingError)
        assert str(outs[1]) == str(solo.value)
        for i in (0, 2, 3):
            alone = solo_run(GROUP[i][0], spec, theta0, d_f, d_pt, cfgs[i])
            assert same_bits(outs[i].final_theta, alone.final_theta)
            assert same_bits(outs[i].loss_values, alone.loss_values)

    def test_callbacks_retire_rows_at_different_steps(self):
        spec = SPECS["mlp"]
        d_f, d_pt = sequence_data(spec, 5)
        theta0 = M.init_params(spec, 3)
        cfgs = group_configs(L.LossKind("nlul"), T=7)
        stops = (2, 6, 1, 4)

        def stop_at(n):
            return lambda t, theta, teacher: t == n

        trajs = lockstep_group(spec, theta0, d_f, d_pt, cfgs,
                               [stop_at(n) for n in stops])
        for (opt, _), cfg, n, traj in zip(GROUP, cfgs, stops, trajs):
            alone = solo_run(opt, spec, theta0, d_f, d_pt, cfg,
                             callback=stop_at(n))
            assert traj.ts == list(range(n + 1))
            for name in TRAJECTORY_COLUMNS:
                assert same_bits(getattr(traj, name), getattr(alone, name))
            assert same_bits(traj.final_theta, alone.final_theta)

    def test_runs_must_share_their_data(self, monkeypatch):
        """Runs share a loop when they draw the same data: full batch or
        batched, npo's sequence set or the plain forget set, and for
        batched runs the seed and both batch sizes.  Losses, divergences,
        update rules and every other setting may differ within one."""
        spec = SPECS["bigram"]
        d_f, d_pt = sequence_data(spec, 5)
        theta0 = M.init_params(spec, 3)
        qkl = Dv.DivergenceKind("qkl", 0.1)

        def cfg(**kw):
            return base_config(**dict(dict(T=2, batch_forget=3, batch_pretrain=3,
                                           seed=4), **kw))

        runs = {
            "a": ("mt-batched", cfg()),
            "seed": ("mt-batched", cfg(seed=5)),
            "b": ("adamw", cfg(eta=0.01, alpha=0.2)),
            "full": ("mt", cfg()),
            "c": ("momentum-sgd", cfg(divergence=qkl, clip=0.0)),
            "batch": ("mt-batched", cfg(batch_forget=2)),
            "pretrain": ("mt-batched", cfg(batch_pretrain=2)),
            "ll": ("mt-batched", cfg(loss=L.LossKind("ll"))),
            "npo": ("mt-batched", cfg(loss=L.LossKind("npo", beta=0.5))),
            "seed2": ("adamw", cfg(seed=5)),
            "full-seed": ("mt", cfg(seed=5, eta=0.02, loss=L.LossKind("nlul"))),
            "npo2": ("momentum-sgd", cfg(loss=L.LossKind("npo", beta=0.2))),
            "full-npo": ("mt", cfg(loss=L.LossKind("npo", beta=0.5))),
        }
        names = {id(c): name for name, (_, c) in runs.items()}
        loops, run = [], O._run

        def spy(spec, theta0, d_f, d_pt, rows):
            loops.append([names[id(c)] for c, _, _ in rows])
            return run(spec, theta0, d_f, d_pt, rows)

        monkeypatch.setattr(O, "_run", spy)
        outs = O.lockstep_runs(spec, theta0, d_f, d_pt,
                               [(opt, c, None, None) for opt, c in runs.values()])
        assert loops == [["a", "b", "c", "ll"], ["seed", "seed2"],
                         ["full", "full-seed"], ["batch"], ["pretrain"],
                         ["npo", "npo2"], ["full-npo"]]
        monkeypatch.setattr(O, "_run", run)
        for (opt, c), out in zip(runs.values(), outs):
            alone = RUNS[opt](spec, theta0, d_f, d_pt, c)
            assert same_bits(out.final_theta, alone.final_theta)
            assert same_bits(out.loss_values, alone.loss_values)

    @pytest.mark.parametrize("kind", list(SPECS))
    def test_mixed_runs_are_their_solo_runs_in_input_order(self, kind):
        """One call with every loss, full-batch and batched runs, three
        partitions and a diverging row: each outcome, in input order, is
        bit for bit the run alone, or its error."""
        spec = SPECS[kind]
        d_f, d_pt = sequence_data(spec, 5)
        theta0 = M.init_params(spec, 3)
        teacher = L.TeacherLogits(spec, M.init_params(spec, 9))
        shared = dict(clip=0.5, batch_forget=3, batch_pretrain=4, seed=21)
        runs = [
            ("mt", base_config(T=5, loss=L.LossKind("ll"))),
            ("mt-batched", base_config(T=7, loss=L.LossKind("nlul"), **shared)),
            ("adamw", base_config(T=6, loss=L.LossKind("npo", beta=0.5), **shared)),
            ("momentum-sgd", base_config(T=4, loss=L.LossKind("it", teacher=teacher),
                                         **shared)),
            ("mt", base_config(T=3, loss=L.LossKind("it"), alpha=0.0,
                               divergence=Dv.DivergenceKind("qkl", 0.2))),
            ("mt-batched", base_config(T=5, eta=1e160, kappa=0.0, mu=0.0,
                                       **dict(shared, clip=0.0))),
            ("mt-batched", base_config(T=6, loss=L.LossKind("npo", beta=0.2),
                                       eta=0.03, **shared)),
            ("adamw", base_config(T=5, **shared)),
            ("mt", base_config(T=4, loss=L.LossKind("nlul"), eta=0.02)),
        ]
        recorders = [recorder() for _ in runs]
        with np.errstate(all="ignore"):
            outs = O.lockstep_runs(spec, theta0, d_f, d_pt, [
                (opt, c, GROUP_ADAM if opt == "adamw" else None, cb)
                for (opt, c), (cb, _, _) in zip(runs, recorders)])
            for (opt, c), out, (_, _, copies) in zip(runs, outs, recorders):
                try:
                    solo, thetas, teachers = observed_run(
                        functools.partial(solo_run, opt), spec, theta0, d_f,
                        d_pt, c)
                except TrainingError as exc:
                    assert isinstance(out, TrainingError)
                    assert str(out) == str(exc)
                    continue
                for name in TRAJECTORY_COLUMNS:
                    assert same_bits(getattr(out, name), getattr(solo, name)), name
                assert same_bits(out.final_theta, solo.final_theta)
                assert same_bits(out.final_teacher, solo.final_teacher)
                assert all(same_bits(a, b) and same_bits(e, f) for (a, e), b, f in
                           zip(copies, thetas[1:], teachers[1:]))
        assert [isinstance(o, TrainingError) for o in outs] == \
            [i == 5 for i in range(len(runs))]
