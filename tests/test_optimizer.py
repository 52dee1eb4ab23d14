"""Mean-teacher updates, the damped reference trajectory, and baselines."""

import dataclasses

import numpy as np
import pytest

from mtunlearn import curvature, linalg
from mtunlearn import divergence as Dv
from mtunlearn import losses as L
from mtunlearn import model as M
from mtunlearn import optimizer as O
from mtunlearn.errors import TrainingError

from conftest import (assemble_gnh, damped_ngd_reference, observed_run,
                      relative_error, same_bits, solve_spd, use_raw_forward)


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
            (dict(batch_forget=O.MAX_BATCH + 1), "batch_forget"),
            (dict(batch_pretrain=2 ** 70), "batch_pretrain"),
            (dict(kappa=float("nan")), "kappa"),
            (dict(clip=float("nan")), "clip"),
            (dict(T=O.MAX_STEPS + 1), "T must be nonnegative and at most the "
                                      "step cap 1000000, got 1000001"),
        ]
        for kw, match in cases:
            with pytest.raises(ValueError, match=match):
                base_config(**kw)
        base_config(batch_forget=O.MAX_BATCH, batch_pretrain=O.MAX_BATCH,
                    T=O.MAX_STEPS)

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
        traj, thetas, teachers = observed_run("mt", spec, theta0, d_f,
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
        _, thetas, teachers = observed_run("mt", spec, theta0, d_f, d_pt,
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
        traj, thetas, _ = observed_run("mt", spec, theta0, d_f, d_pt, cfg)

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
        _, thetas, teachers = observed_run("mt", spec, theta0, d_f, d_pt,
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
        _, thetas, teachers = observed_run("mt", spec, theta0, d_f, d_pt,
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
        traj, thetas, _ = observed_run("mt", spec, theta0, d_f, d_pt,
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
            observed_run("mt", spec, theta0, d_f, d_pt, cfg)


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
            "mt-batched", self.spec, self.theta0, self.d_f, self.d_pt, cfg)
        assert traj.ts == list(range(7))
        for t, theta, teacher, gn, l, fb, pb in self.replay(cfg, 6):
            np.testing.assert_array_equal(thetas[t], theta)
            np.testing.assert_array_equal(teachers[t], teacher)
            assert traj.clip_scales[t] == l and traj.grad_norms[t] == gn
            assert_row(traj, t, cfg, self.spec, theta, teacher, fb, pb)

    def test_callback_stop_records_the_next_draw(self):
        """A run stopped by its observer after step 3 records row 3 on the
        batch step 4 would have used; T = 0 records row 0 alone, on the
        full datasets."""
        cfg = base_config(T=50, clip=0.5, batch_forget=3, batch_pretrain=4,
                          seed=34)
        traj = observed_run("mt-batched", self.spec, self.theta0, self.d_f,
                            self.d_pt, cfg,
                            stop=lambda t, theta, teacher: t == 3)[0]
        assert traj.ts == [0, 1, 2, 3]
        for t, theta, teacher, gn, l, fb, pb in self.replay(cfg, 3):
            assert traj.clip_scales[t] == l and traj.grad_norms[t] == gn
            assert_row(traj, t, cfg, self.spec, theta, teacher, fb, pb)
        np.testing.assert_array_equal(traj.final_theta, theta)

        cfg = dataclasses.replace(cfg, T=0)
        traj = observed_run("mt-batched", self.spec, self.theta0, self.d_f,
                            self.d_pt, cfg)[0]
        assert traj.ts == [0] and traj.gaps == [0.0]
        assert_row(traj, 0, cfg, self.spec, self.theta0, self.theta0,
                   self.d_f, self.d_pt)
        np.testing.assert_array_equal(traj.final_theta, self.theta0)

    @pytest.mark.parametrize("rule", ["mt", "mt-batched", "ngd"])
    @pytest.mark.parametrize("T", [0, 1, 5])
    def test_one_evaluation_per_step(self, monkeypatch, rule, T):
        """Each step's record and the next step's gradient share one
        evaluation; only a batched run's step 1 takes its gradient alone,
        and no gradient is taken after the last step.  The reference
        ("ngd") runs in mt_ngd_deviations, which takes one loss gradient
        per step over the stack of the mean teacher and both references,
        the first before step 1 (none when no step is taken), and records
        nothing."""
        cfg = base_config(T=T, batch_forget=3, batch_pretrain=4, seed=35)
        calls = []
        if rule == "ngd":
            grad = L.batch_grad

            def counting_grads(kind, spec, theta, batch):
                calls.append(theta.shape)
                return grad(kind, spec, theta, batch)

            monkeypatch.setattr(L, "batch_grad", counting_grads)
            O.mt_ngd_deviations(self.spec, self.theta0, self.d_f, self.d_pt,
                                cfg, [cfg.alpha], [T])
            assert calls == [(3, len(self.theta0))] * T
            return
        evaluate = O._evaluate

        def counting(*args):
            calls.append(args[-2:])
            return evaluate(*args)

        monkeypatch.setattr(O, "_evaluate", counting)
        observed_run(rule, self.spec, self.theta0, self.d_f, self.d_pt, cfg)
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
            rule, self.spec, self.theta0, self.d_f, self.d_pt, cfg)
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
        traj = observed_run(rule, self.spec, self.theta0, self.d_f, self.d_pt,
                            cfg)[0]
        for t in range(1, 9):
            gn = traj.grad_norms[t]
            assert traj.clip_scales[t] == min(1.0, cfg.clip / gn)
        assert any(s < 1.0 for s in traj.clip_scales[1:])

    def test_zero_clip_disables_scaling(self):
        kw = dict(T=6, batch_forget=3, batch_pretrain=3, seed=77)
        a = observed_run("mt-batched", self.spec, self.theta0, self.d_f,
                         self.d_pt, base_config(clip=0.0, **kw))[0]
        b = observed_run("mt-batched", self.spec, self.theta0, self.d_f,
                         self.d_pt, base_config(clip=1e12, **kw))[0]
        np.testing.assert_array_equal(a.final_theta, b.final_theta)
        assert a.clip_scales[1:] == [1.0] * 6

    def test_callback_stops_early(self):
        cfg = base_config(T=50, seed=88)
        seen = []

        def stop_at_three(t, theta, teacher):
            seen.append(t)
            return t == 3

        traj = observed_run("mt-batched", self.spec, self.theta0, self.d_f,
                            self.d_pt, cfg, stop=stop_at_three)[0]
        assert seen == [0, 1, 2, 3]
        assert traj.ts == [0, 1, 2, 3]

    def test_npo_requires_sequence_data(self):
        cfg = base_config(T=2, loss=L.LossKind("npo", beta=0.5))
        with pytest.raises(ValueError, match="sequences"):
            observed_run("mt-batched", self.spec, self.theta0, self.d_f,
                         self.d_pt, cfg)

    @pytest.mark.parametrize("spec", [M.ModelSpec(M.BIGRAM, 6),
                                      M.ModelSpec(M.MLP, 6, context_len=2,
                                                  hidden_dim=4)],
                             ids=["bigram", "mlp"])
    def test_npo_batches_gather_the_expansion_of_their_draw(self, spec):
        """An npo forget batch gathered from the once-expanded forget set
        equals dataset_from_sequences of the same seeded draw, padded
        starts included, and sequence_starts reads the same starts."""
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
            np.testing.assert_array_equal(M.sequence_starts(spec, fb),
                                          M.sequence_starts(spec, want))
            pi = replay.integers(0, len(self.d_pt), cfg.batch_pretrain)
            np.testing.assert_array_equal(pb.nexts, self.d_pt.nexts[pi])


def deviation_stacks(monkeypatch, spec, theta0, d_f, d_pt, cfg, alphas, Ts):
    """mt_ngd_deviations and the stack of iterates it checks at each step,
    of shape (alphas still running, 3, dim): per alpha the mean teacher,
    the reference and the lagged reference."""
    stacks, check = [], O._check_finite

    def record(theta, t):
        stacks.append(theta.copy())
        check(theta, t)

    with monkeypatch.context() as mp:
        mp.setattr(O, "_check_finite", record)
        devs = O.mt_ngd_deviations(spec, theta0, d_f, d_pt, cfg, alphas, Ts)
    return devs, stacks


class TestReferenceRun:
    """The damped natural-gradient reference, which mt_ngd_deviations
    steps next to the mean teachers."""

    def test_one_step_matches_damped_solve(self, monkeypatch):
        rng = np.random.default_rng(97)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 10)
        cfg = base_config(T=1)
        _, (stack,) = deviation_stacks(monkeypatch, spec, theta0, d_f, d_pt,
                                       cfg, [cfg.alpha], [cfg.T])
        d = O.DerivedNGDParams.from_config(cfg)
        g = L.batch_grad(cfg.loss, spec, theta0, d_f)
        H = assemble_gnh(spec, theta0, d_pt)
        step = solve_spd(H + d.lam_bar * np.eye(len(theta0)), g)
        for reference in stack[0, 1:]:
            np.testing.assert_allclose(reference, theta0 - d.gamma * step,
                                       rtol=1e-9, atol=1e-13)

    def test_mlp_route_matches_dense_solve(self, monkeypatch):
        """The MLP reference steps through the curvature factor's solve,
        bit for bit, and that step is the dense oracle's within 1e-12."""
        rng = np.random.default_rng(98)
        spec = M.ModelSpec(M.MLP, 5, context_len=2, hidden_dim=3)
        d_f, d_pt = make_data(rng, V=5, context_len=2)
        theta0 = M.init_params(spec, 11)
        cfg = base_config(T=1)
        _, (stack,) = deviation_stacks(monkeypatch, spec, theta0, d_f, d_pt,
                                       cfg, [cfg.alpha], [cfg.T])
        d = O.DerivedNGDParams.from_config(cfg)
        g = L.batch_grad(cfg.loss, spec, theta0, d_f)
        step = curvature.gnh_damped_solve(spec, theta0, d_pt, d.lam_bar, g)
        assert same_bits(stack[0, 1], theta0 - d.gamma * step)
        H = assemble_gnh(spec, theta0, d_pt)
        dense = solve_spd(H + d.lam_bar * np.eye(len(theta0)), g)
        assert relative_error(step, dense) <= 1e-12

    def test_mlp_solve_factors_the_gram_matrix_once(self, monkeypatch):
        """A (2, 3) stack of MLP rows takes one batched Cholesky, of the
        r x r Gram matrix of the factor's 20 rows, and no factorisation
        reaches the dim x dim (43 x 43) system."""
        spec = M.ModelSpec(M.MLP, 4, context_len=2, hidden_dim=3)
        ctx = np.array([[a, b] for a in range(4) for b in range(4)])[:5]
        d_pt = M.TokenDataset(ctx, np.zeros(len(ctx), dtype=int))
        rng = np.random.default_rng(101)
        theta = rng.standard_normal((2, 3, M.param_count(spec)))
        g = rng.standard_normal(theta.shape)
        shapes = {"cholesky": [], "solve": []}
        for name in shapes:
            def spy(a, *args, name=name, real=getattr(np.linalg, name)):
                shapes[name].append(a.shape)
                return real(a, *args)
            monkeypatch.setattr(np.linalg, name, spy)
        O._damped_solve(spec, theta, d_pt, 0.5, g)
        assert shapes["cholesky"] == [(2, 3, 20, 20)]
        assert shapes["solve"] == [(2, 3, 20, 20)] * 2

    def test_gradient_lag_matters_only_after_first_step(self, monkeypatch):
        rng = np.random.default_rng(99)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 12)
        _, stacks = deviation_stacks(monkeypatch, spec, theta0, d_f, d_pt,
                                     base_config(), [0.5], [3])
        assert same_bits(stacks[0][0, 1], stacks[0][0, 2])
        assert not np.array_equal(stacks[1][0, 1], stacks[1][0, 2])


class TestBaselines:
    def setup_method(self):
        rng = np.random.default_rng(100)
        self.spec = M.ModelSpec(M.BIGRAM, 6)
        self.d_f, self.d_pt = make_data(rng, n=10)
        self.theta0 = M.init_params(self.spec, 13)

    def test_momentum_sgd_keeps_anchor_and_matches_replay(self):
        cfg = base_config(T=4, clip=0.5, batch_forget=3, batch_pretrain=3,
                          seed=111)
        traj, seen, _ = observed_run("momentum-sgd", self.spec, self.theta0,
                                     self.d_f, self.d_pt, cfg)
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
        traj = observed_run("adamw", self.spec, self.theta0, self.d_f,
                            self.d_pt, cfg, adam_params=ap)[0]
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
        a = observed_run("adamw", self.spec, self.theta0, self.d_f,
                         self.d_pt, cfg, adam_params=O.AdamParams())[0]
        b = observed_run("adamw", self.spec, self.theta0, self.d_f,
                         self.d_pt, cfg, adam_params=O.AdamParams(lr=cfg.eta))[0]
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
        with pytest.raises(ValueError, match="unknown optimizer: 'nesterov'"):
            O.lockstep_runs(self.spec, self.theta0, self.d_f, self.d_pt,
                            [("nesterov", base_config(), None)])


class TestKeepIterates:
    def setup_method(self):
        rng = np.random.default_rng(101)
        self.spec = M.ModelSpec(M.BIGRAM, 6)
        self.d_f, self.d_pt = make_data(rng, n=10)
        self.theta0 = M.init_params(self.spec, 14)
        self.cfg = base_config(T=6, clip=0.5, batch_forget=3, batch_pretrain=3,
                               seed=12)

    def run(self, rule, cfg=None, **kw):
        return observed_run(rule, self.spec, self.theta0, self.d_f, self.d_pt,
                            cfg or self.cfg, **kw)[0]

    @pytest.mark.parametrize("rule", O.OPTIMIZERS)
    def test_final_point_after_callback_stop_is_the_last_seen(self, rule):
        seen = []

        def stop_at_three(t, theta, teacher):
            seen.append((theta.copy(), teacher))
            return t == 3

        traj = self.run(rule, stop=stop_at_three)
        assert traj.ts == [0, 1, 2, 3] and len(seen) == 4
        assert traj.final_theta.tobytes() == seen[-1][0].tobytes()
        short = self.run(rule, dataclasses.replace(self.cfg, T=3))
        assert traj.final_theta.tobytes() == short.final_theta.tobytes()
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
    every evaluation re-checking and re-encoding raw ids, bit for bit.
    The reference ("ngd") is compared as mt_ngd_deviations runs it, at
    every step and with the clip off; it takes no batches."""

    @pytest.mark.parametrize("case", list(PREPARED_CASES))
    @pytest.mark.parametrize("rule", O.OPTIMIZERS + ("ngd",))
    @pytest.mark.parametrize("kind", list(SPECS))
    def test_runs_match_the_per_call_encoding(self, monkeypatch, kind, rule, case):
        spec = SPECS[kind]
        cfg = base_config(**dict(dict(T=5, clip=0.5, batch_forget=3,
                                      batch_pretrain=4, seed=7),
                                 **PREPARED_CASES[case]))
        theta0 = M.init_params(spec, 3)

        def run():
            """The arrays to compare: the deviations and every step's
            stack, or a run's final points and records."""
            data = sequence_data(spec, 5)
            if rule == "ngd":
                devs, stacks = deviation_stacks(
                    monkeypatch, spec, theta0, *data,
                    dataclasses.replace(cfg, clip=0.0), [0.5, 0.2], [5, 3])
                return [devs] + stacks
            traj = observed_run(rule, spec, theta0, *data, cfg)[0]
            return [traj.final_theta, traj.final_teacher] + [
                getattr(traj, name) for name in ("grad_norms", "loss_values",
                                                 "divergence_values", "clip_scales")]

        prepared = run()
        with monkeypatch.context() as mp:
            use_raw_forward(mp)
            raw = run()
        assert len(prepared) == len(raw) == 6
        assert all(same_bits(a, b) for a, b in zip(prepared, raw))

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
        observed_run(rule, spec, theta0, *sequence_data(spec, 8), cfg)
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
        at every step every row is bit for bit the iterate of its own run,
        a one-run lockstep_runs("mt") call or the step-by-step reference
        without and with the gradient lag, and each deviation is the
        largest gap of those runs."""
        spec = SPECS[kind]
        d_f, d_pt = sequence_data(spec, 5)
        theta0 = M.init_params(spec, 3)
        cfg = base_config(**LOCKSTEP_CASES[case])
        alphas, Ts = (0.5, 0.2, 0.3), (3, 7, 5)
        cfgs = [dataclasses.replace(cfg, alpha=a, T=T) for a, T in zip(alphas, Ts)]
        runs = [[observed_run("mt", spec, theta0, d_f, d_pt, c)[1]]
                + [damped_ngd_reference(spec, theta0, d_f, d_pt, c, lag)
                   for lag in (False, True)] for c in cfgs]
        devs, stacks = deviation_stacks(monkeypatch, spec, theta0, d_f, d_pt,
                                        cfg, alphas, Ts)
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
        cfg = base_config()
        devs = O.mt_ngd_deviations(spec, theta0, d_f, d_pt, cfg, [0.5, 0.2], [0, 2])
        assert devs[0].tolist() == [0.0, 0.0] and (devs[1] > 0).all()
        for alphas, Ts, match in (([0.0], [4], "alpha must be positive"),
                                  ([1.5], [4], "alpha must lie"),
                                  ([0.5], [-1], "T must be nonnegative"),
                                  ([0.5, 0.2], [4], "same length")):
            with pytest.raises(ValueError, match=match):
                O.mt_ngd_deviations(spec, theta0, d_f, d_pt, cfg, alphas, Ts)
        # A clipped "mt" run is not what the lockstep computes.
        with pytest.raises(ValueError, match="clip"):
            O.mt_ngd_deviations(spec, theta0, d_f, d_pt, base_config(clip=0.5),
                                [0.5], [4])

    def test_divergent_step_size_fails_at_the_runs_step(self):
        rng = np.random.default_rng(95)
        spec = M.ModelSpec(M.BIGRAM, 6)
        d_f, d_pt = make_data(rng)
        theta0 = M.init_params(spec, 8)
        cfg = base_config(eta=1e160, kappa=0.0, alpha=1.0, mu=0.0, T=5)
        with np.errstate(over="ignore"):
            with pytest.raises(TrainingError, match="non-finite") as run:
                observed_run("mt", spec, theta0, d_f, d_pt, cfg)
            with pytest.raises(TrainingError) as lockstep:
                O.mt_ngd_deviations(spec, theta0, d_f, d_pt, cfg, [cfg.alpha],
                                    [cfg.T])
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
    """observed_run of one run, with GROUP_ADAM for adamw."""
    return observed_run(opt, spec, theta0, d_f, d_pt, cfg,
                        GROUP_ADAM if opt == "adamw" else None, **kw)


def lockstep_group(spec, theta0, d_f, d_pt, cfgs, observe=None):
    return O.lockstep_runs(spec, theta0, d_f, d_pt, [
        (opt, cfg, GROUP_ADAM if opt == "adamw" else None)
        for (opt, _), cfg in zip(GROUP, cfgs)], observe)


def recorder(n):
    """An observer of n runs keeping, per run, every (theta, teacher) row
    it is given, as given and as copied at the call."""
    kept, copies = [[] for _ in range(n)], [[] for _ in range(n)]

    def observe(t, idx, thetas, teachers):
        assert thetas.shape == teachers.shape and len(thetas) == len(idx)
        for i, theta, teacher in zip(idx, thetas, teachers):
            kept[i].append((theta, teacher))
            copies[i].append((theta.copy(), teacher.copy()))
    return observe, kept, copies


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
        solos = [solo_run(opt, spec, theta0, d_f, d_pt, cfg)
                 for (opt, _), cfg in zip(GROUP, cfgs)]
        observe, kept_rows, copied_rows = recorder(len(GROUP))
        trajs = lockstep_group(spec, theta0, d_f, d_pt, cfgs, observe)
        for traj, (solo, thetas, teachers), kept, copies, cfg in zip(
                trajs, solos, kept_rows, copied_rows, cfgs):
            assert len(traj) == len(copies) == cfg.T + 1
            for name in TRAJECTORY_COLUMNS:
                assert same_bits(getattr(traj, name), getattr(solo, name)), name
            assert same_bits(traj.final_theta, solo.final_theta)
            assert same_bits(traj.final_teacher, solo.final_teacher)
            assert all(same_bits(a, b) and same_bits(c, d) for (a, c), b, d in
                       zip(copies, thetas, teachers))
            # The loop never writes into an array it gave the observer.
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
            alone = solo_run(GROUP[i][0], spec, theta0, d_f, d_pt, cfgs[i])[0]
            assert same_bits(outs[i].final_theta, alone.final_theta)
            assert same_bits(outs[i].loss_values, alone.loss_values)

    def test_callbacks_retire_rows_at_different_steps(self):
        spec = SPECS["mlp"]
        d_f, d_pt = sequence_data(spec, 5)
        theta0 = M.init_params(spec, 3)
        cfgs = group_configs(L.LossKind("nlul"), T=7)
        stops = (2, 6, 1, 4)

        trajs = lockstep_group(spec, theta0, d_f, d_pt, cfgs,
                               lambda t, idx, th, te: [t == stops[i] for i in idx])
        for (opt, _), cfg, n, traj in zip(GROUP, cfgs, stops, trajs):
            alone = solo_run(opt, spec, theta0, d_f, d_pt, cfg,
                             stop=lambda t, theta, teacher: t == n)[0]
            assert traj.ts == list(range(n + 1))
            for name in TRAJECTORY_COLUMNS:
                assert same_bits(getattr(traj, name), getattr(alone, name))
            assert same_bits(traj.final_theta, alone.final_theta)

    def test_one_observer_call_per_row_of_each_partition(self):
        """The observer sees the live runs of each partition once per
        recorded row, row 0 included, one partition after another, by
        their indices into the call's list; a true entry at row 0 ends
        that run there."""
        spec = SPECS["bigram"]
        d_f, d_pt = sequence_data(spec, 5)
        theta0 = M.init_params(spec, 3)
        shared = dict(batch_forget=3, batch_pretrain=4, seed=21)
        runs = [("mt-batched", base_config(T=3, **shared)),
                ("mt", base_config(T=2)),
                ("adamw", base_config(T=1, **shared)),
                ("mt-batched", base_config(T=4, **shared))]
        calls = []

        def observe(t, idx, th, te):
            calls.append((t, idx, th.shape, te.shape))
            return [t == 0 and i == 3 for i in idx]

        outs = O.lockstep_runs(spec, theta0, d_f, d_pt,
                               [(opt, c, None) for opt, c in runs], observe)
        dim = len(theta0)
        assert calls == [(t, idx, (len(idx), dim), (len(idx), dim)) for t, idx in [
            (0, [0, 2, 3]), (1, [0, 2]), (2, [0]), (3, [0]),
            (0, [1]), (1, [1]), (2, [1])]]
        assert [out.ts for out in outs] == [[0, 1, 2, 3], [0, 1, 2], [0, 1], [0]]
        assert same_bits(outs[3].final_theta, theta0)

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

        def spy(spec, theta0, d_f, d_pt, rows, observe):
            loops.append([names[id(c)] for _, c, _ in rows])
            return run(spec, theta0, d_f, d_pt, rows, observe)

        monkeypatch.setattr(O, "_run", spy)
        outs = O.lockstep_runs(spec, theta0, d_f, d_pt,
                               [(opt, c, None) for opt, c in runs.values()])
        assert loops == [["a", "b", "c", "ll"], ["seed", "seed2"],
                         ["full", "full-seed"], ["batch"], ["pretrain"],
                         ["npo", "npo2"], ["full-npo"]]
        monkeypatch.setattr(O, "_run", run)
        for (opt, c), out in zip(runs.values(), outs):
            alone = observed_run(opt, spec, theta0, d_f, d_pt, c)[0]
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
        observe, _, copied_rows = recorder(len(runs))
        with np.errstate(all="ignore"):
            outs = O.lockstep_runs(spec, theta0, d_f, d_pt, [
                (opt, c, GROUP_ADAM if opt == "adamw" else None)
                for opt, c in runs], observe)
            for (opt, c), out, copies in zip(runs, outs, copied_rows):
                try:
                    solo, thetas, teachers = solo_run(opt, spec, theta0, d_f,
                                                      d_pt, c)
                except TrainingError as exc:
                    assert isinstance(out, TrainingError)
                    assert str(out) == str(exc)
                    continue
                for name in TRAJECTORY_COLUMNS:
                    assert same_bits(getattr(out, name), getattr(solo, name)), name
                assert same_bits(out.final_theta, solo.final_theta)
                assert same_bits(out.final_teacher, solo.final_teacher)
                assert len(copies) == len(thetas)
                assert all(same_bits(a, b) and same_bits(e, f) for (a, e), b, f in
                           zip(copies, thetas, teachers))
        assert [isinstance(o, TrainingError) for o in outs] == \
            [i == 5 for i in range(len(runs))]
