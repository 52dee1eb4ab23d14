"""Corpus generation, memorization metrics, and the verification drivers."""

import dataclasses
import os

import numpy as np
import pytest

from mtunlearn import cli
from mtunlearn import divergence as Dv
from mtunlearn import harness as Hn
from mtunlearn import linalg
from mtunlearn import losses as L
from mtunlearn import model as M
from mtunlearn import optimizer as O
from mtunlearn.errors import ConfigError, PreconditionError, TrainingError

from conftest import observed_run


@pytest.fixture(scope="module")
def bigram_testbed():
    """Small memorized bigram target shared by the experiment tests."""
    setup = Hn.default_theorem_setup(seed=11)
    return setup


def forbid(monkeypatch, module, name):
    """Make module.name fail when called: the code under test must reject
    its arguments before it gets there."""
    def called(*args, **kwargs):
        raise AssertionError(f"{name} ran before the arguments were checked")
    monkeypatch.setattr(module, name, called)


def quick_config(**kw):
    defaults = dict(eta=0.05, kappa=0.5, alpha=0.5, mu=0.9, T=120,
                    loss=L.LossKind("nlul"), divergence=Dv.DivergenceKind("kl", 0.1),
                    clip=1.0, batch_forget=8, batch_pretrain=8, seed=42)
    defaults.update(kw)
    return O.MTConfig(**defaults)


class TestCorpusSpec:
    def test_validation(self):
        good = dict(vocab_size=8, n_sequences=4, seq_len=12)
        cases = [
            (dict(good, vocab_size=1), "vocab_size"),
            (dict(good, n_sequences=1), "2 sequences"),
            (dict(good, seq_len=1), "seq_len"),
            (dict(good, forget_fraction=0.0), "forget_fraction"),
            (dict(good, forget_fraction=1.0), "forget_fraction"),
            (dict(good, generator="markov"), "generator"),
            (dict(good, period=0), "period"),
            (dict(good, period=9), "period"),
        ]
        for kw, match in cases:
            with pytest.raises(ValueError, match=match):
                Hn.CorpusSpec(**kw)

    def test_forget_count_is_clamped_to_leave_both_splits(self):
        assert Hn.CorpusSpec(8, 5, 12, forget_fraction=0.9).n_forget == 4
        assert Hn.CorpusSpec(8, 2, 12, forget_fraction=0.9).n_forget == 1
        assert Hn.CorpusSpec(8, 10, 12, forget_fraction=0.05).n_forget == 1

    def test_patterned_token_disjoint_when_vocabulary_allows(self):
        """4 sequences of period 2 over 8 tokens: each sequence owns its
        two tokens outright and repeats them with period 2."""
        corpus = Hn.CorpusSpec(8, 4, 12, period=2, seed=3)
        forget, pretrain = Hn.generate_corpus(corpus)
        seqs = forget + pretrain
        assert len(forget) == 2 and len(pretrain) == 2
        used = [set(s) for s in seqs]
        for i in range(4):
            assert len(used[i]) == 2
            for j in range(i + 1, 4):
                assert not (used[i] & used[j])
        for s in seqs:
            assert list(s[:2]) * 6 == [int(x) for x in s]

    def test_patterned_pair_disjoint_when_tokens_must_be_shared(self):
        """6 sequences of period 2 over 8 tokens cannot be token-disjoint;
        the splits must still share no (context, next) pair and every
        sequence must start with a distinct token."""
        corpus = Hn.CorpusSpec(8, 6, 10, period=2, seed=4)
        forget, pretrain = Hn.generate_corpus(corpus)

        def pairs(seqs):
            return {(int(s[i]), int(s[i + 1]))
                    for s in seqs for i in range(len(s) - 1)}

        assert not (pairs(forget) & pairs(pretrain))
        starts = [int(s[0]) for s in forget + pretrain]
        assert len(set(starts)) == len(starts)

    def test_patterned_budget_failure_is_loud(self):
        with pytest.raises(ValueError, match="could not draw"):
            Hn.generate_corpus(Hn.CorpusSpec(4, 40, 8, period=2, seed=5))

    def test_patterned_transition_count_failure_is_loud(self):
        """4 start tokens suffice for 4 sequences, but 4 x 4 transitions
        exceed the 4 x 3 that V = 4 has."""
        with pytest.raises(ValueError, match="could not draw"):
            Hn.generate_corpus(Hn.CorpusSpec(4, 4, 8, period=4, seed=5))

    def test_random_generator_distinct_and_seed_deterministic(self):
        corpus = Hn.CorpusSpec(6, 8, 10, generator="random", seed=6)
        f1, p1 = Hn.generate_corpus(corpus)
        f2, p2 = Hn.generate_corpus(corpus)
        assert f1 == f2 and p1 == p2
        seqs = [tuple(s) for s in f1 + p1]
        assert len(set(seqs)) == len(seqs)
        f3, _ = Hn.generate_corpus(Hn.CorpusSpec(6, 8, 10, generator="random",
                                                 seed=7))
        assert f3 != f1

    def test_datasets_carry_sequences(self):
        corpus = Hn.CorpusSpec(8, 4, 12, seed=8)
        spec = M.ModelSpec(M.BIGRAM, 8)
        d_f, d_pt = Hn.corpus_datasets(spec, corpus)
        assert len(d_f.sequences) == 2 and len(d_pt.sequences) == 2
        assert len(d_f) == 2 * 11


class TestMemorization:
    def test_lcs_length(self):
        assert Hn.lcs_length([1, 2, 3], [1, 9, 3]) == 2
        assert Hn.lcs_length([1, 9, 2, 9, 3], [1, 2, 3]) == 3
        assert Hn.lcs_length([], [1, 2]) == 0
        assert Hn.lcs_length([4, 4, 4], [4, 4, 4]) == 3

    def test_handcrafted_memorizer_scores_perfectly(self):
        """A bigram table hard-wired to map 0 -> 1 -> 0 reproduces the
        alternating sequence exactly; a table mapping elsewhere misses."""
        spec = M.ModelSpec(M.BIGRAM, 4)
        table = np.zeros((4, 4))
        table[0, 1] = 10.0
        table[1, 0] = 10.0
        seqs = [[0, 1, 0, 1, 0, 1]]
        d = M.dataset_from_sequences(seqs, 1)
        rep = Hn.memorization_report(spec, table.ravel(), (d, d))
        assert rep.exact_match_rate == 1.0 and rep.lcs_ratio == 1.0
        assert rep.nll_forget < 1e-3
        wrong = np.zeros((4, 4))
        wrong[0, 2] = 10.0
        wrong[1, 3] = 10.0
        rep2 = Hn.memorization_report(spec, wrong.ravel(), (d, d))
        assert rep2.exact_match_rate == 0.0
        assert rep2.nll_forget > 1.0
        assert set(rep.as_dict()) == {"exact_match_rate", "lcs_ratio",
                                      "nll_forget", "nll_pretrain"}

    def test_prompt_and_completion_validation(self):
        spec = M.ModelSpec(M.BIGRAM, 4)
        d = M.dataset_from_sequences([[0, 1, 2, 3]], 1)
        theta = np.zeros(16)
        with pytest.raises(ValueError, match="exceeds"):
            Hn.memorization_report(spec, theta, (d, d), prompt_len=3,
                                   completion_len=3)
        with pytest.raises(ValueError, match="positive"):
            Hn.memorization_report(spec, theta, (d, d), prompt_len=0,
                                   completion_len=2)
        bare = M.TokenDataset(np.array([[0], [1]]), np.array([1, 2]))
        with pytest.raises(ValueError, match="whole sequences"):
            Hn.memorization_report(spec, theta, (bare, bare))

    def test_default_lens_split_the_sequence_evenly(self):
        spec = M.ModelSpec(M.BIGRAM, 4)
        table = np.zeros((4, 4))
        table[0, 1] = 10.0
        table[1, 0] = 10.0
        d = M.dataset_from_sequences([[0, 1, 0, 1, 0, 1]], 1)
        auto = Hn.memorization_report(spec, table.ravel(), (d, d))
        explicit = Hn.memorization_report(spec, table.ravel(), (d, d),
                                          prompt_len=3, completion_len=3)
        assert auto == explicit


class TestBuildTarget:
    def test_memorizes_small_corpus(self, bigram_testbed):
        s = bigram_testbed
        rep = Hn.memorization_report(s.spec, s.theta0, (s.d_f, s.d_pt))
        assert rep.exact_match_rate == 1.0
        assert rep.nll_forget < 0.05

    def test_undertrained_target_is_rejected(self):
        spec = M.ModelSpec(M.BIGRAM, 8)
        data = Hn.corpus_datasets(spec, Hn.CorpusSpec(8, 4, 12, seed=9))
        with pytest.raises(TrainingError, match="too weak"):
            Hn.build_target(spec, data, epochs=1, seed=9)

    def test_gate_can_be_skipped(self):
        spec = M.ModelSpec(M.BIGRAM, 8)
        data = Hn.corpus_datasets(spec, Hn.CorpusSpec(8, 4, 12, seed=9))
        theta = Hn.build_target(spec, data, epochs=1, seed=9,
                                require_exact_match=0.0)
        assert np.all(np.isfinite(theta))

    @pytest.mark.parametrize("kw,field", [
        (dict(epochs=0), "epochs"),
        (dict(require_exact_match=float("nan")), "require_exact_match"),
        (dict(require_exact_match=1.5), "require_exact_match"),
        (dict(require_exact_match=-0.1), "require_exact_match"),
        (dict(lr=-0.5), "lr"),
        (dict(lr=0.0), "lr"),
        (dict(lr=float("nan")), "lr"),
        (dict(momentum=1.5), "momentum"),
        (dict(momentum=-1.0), "momentum"),
    ])
    def test_arguments_rejected_before_training(self, monkeypatch, kw, field):
        forbid(monkeypatch, L, "batch_grad")
        args = dict(epochs=10, seed=9)
        args.update(kw)
        spec = M.ModelSpec(M.BIGRAM, 8)
        data = Hn.corpus_datasets(spec, Hn.CorpusSpec(8, 4, 12))
        with pytest.raises(ConfigError, match=field):
            Hn.build_target(spec, data, **args)

    def test_runaway_learning_rate_is_loud(self):
        """A two-token random corpus shares contexts across sequences, so
        gradients never vanish and near-critical momentum at an absurd
        learning rate accumulates to overflow."""
        spec = M.ModelSpec(M.BIGRAM, 2)
        data = Hn.corpus_datasets(
            spec, Hn.CorpusSpec(2, 4, 8, generator="random", seed=1))
        with np.errstate(all="ignore"), pytest.raises(TrainingError,
                                                      match="reduce lr"):
            Hn.build_target(spec, data, epochs=300, seed=2, lr=1e308,
                            momentum=0.999, require_exact_match=0.0)


class TestTheoremDriver:
    def test_alpha_validation(self, bigram_testbed):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            Hn.verify_theorem1(bigram_testbed, alphas=(2.0, 1.0))
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            Hn.verify_theorem1(bigram_testbed, alphas=(0.1,))
        # At alpha = 1 the check's abscissa log(alpha log(1/alpha)) is -inf.
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            Hn.verify_theorem1(bigram_testbed, alphas=(1.0, 0.5), t_gamma=0.01)
        with pytest.raises(ValueError, match="decreasing"):
            Hn.verify_theorem1(bigram_testbed, alphas=(0.1, 0.2))
        with pytest.raises(ValueError, match="strictly decreasing"):
            Hn.verify_theorem1(bigram_testbed, alphas=(0.1, 0.1))
        with pytest.raises(ValueError, match="gives T=0"):
            Hn.verify_theorem1(bigram_testbed, alphas=(0.2, 0.1),
                               t_gamma=1e-9)

    @pytest.mark.parametrize("kw,field", [
        (dict(t_gamma=0.0), "t_gamma"),
        (dict(t_gamma=float("nan")), "t_gamma"),
        (dict(alphas=(0.1, float("nan"))), "alphas"),
        (dict(t_gamma=1e-9), "T=0"),
        (dict(alphas=(1.0, 0.5), t_gamma=0.01), "alphas"),
        (dict(alphas=(0.1, 0.1)), "alphas"),
        (dict(slope_min=float("nan")), "slope_min"),
        (dict(slope_min=float("inf")), "slope_min"),
        # kappa = 0 gives gamma = 0, and 1e-320 underflows it to 0: no horizon.
        (dict(kappa=0.0), "kappa"),
        (dict(kappa=1e-320), "kappa"),
        # t_gamma / gamma overflows to inf: no horizon T.
        (dict(t_gamma=1e308), "t_gamma"),
    ])
    def test_arguments_rejected_before_any_run(self, bigram_testbed,
                                               monkeypatch, kw, field):
        """kappa is a setting of the testbed's base run, the rest are
        arguments of the check."""
        kw = dict(kw)
        setup = bigram_testbed
        if "kappa" in kw:
            setup = dataclasses.replace(setup, base_cfg=dataclasses.replace(
                setup.base_cfg, kappa=kw.pop("kappa")))
        forbid(monkeypatch, O, "mt_ngd_deviations")
        with pytest.raises(ConfigError, match=field):
            Hn.verify_theorem1(setup, **kw)

    def test_setup_checks_its_config_before_training(self, monkeypatch):
        forbid(monkeypatch, Hn, "build_target")
        with pytest.raises(ValueError, match="contract"):
            Hn.default_theorem_setup(eta=0.5, kappa=4.0)

    def test_short_horizon_run_structure(self, bigram_testbed):
        """Two loss weights at a short horizon: the step budget scales
        like 1/alpha at fixed t_gamma and both gradient-timing variants
        are reported."""
        result = Hn.verify_theorem1(bigram_testbed, alphas=(0.2, 0.1),
                                    t_gamma=0.05)
        assert result["check"] == "theorem1"
        assert len(result["rows"]) == 4
        assert {r["grad_lag"] for r in result["rows"]} == {False, True}
        for r in result["rows"]:
            assert set(r) == {"grad_lag", "alpha", "T", "gamma", "lam_bar",
                              "deviation"}
            assert np.isfinite(r["deviation"]) and r["deviation"] > 0
        by_alpha = {r["alpha"]: r["T"] for r in result["rows"]
                    if not r["grad_lag"]}
        assert by_alpha[0.1] == 2 * by_alpha[0.2]
        assert set(result["summary"]) == {"lag_false", "lag_true"}
        for entry in result["summary"].values():
            assert set(entry) == {"slope", "monotone", "deviations"}
        assert isinstance(result["passed"], bool)


    def test_deviations_equal_the_separate_runs(self, bigram_testbed):
        """Every row's deviation, for every alpha and both gradient
        conventions, is bit for bit the largest gap between mt_run and
        ngd_run run separately."""
        alphas = (0.2, 0.1, 0.05)
        result = Hn.verify_theorem1(bigram_testbed, alphas=alphas,
                                    t_gamma=0.05)
        assert [(r["grad_lag"], r["alpha"]) for r in result["rows"]] == [
            (lag, a) for lag in (False, True) for a in alphas]
        s = bigram_testbed
        for row in result["rows"]:
            cfg = dataclasses.replace(s.base_cfg, alpha=row["alpha"], T=row["T"])
            mt = observed_run(O.mt_run, s.spec, s.theta0, s.d_f, s.d_pt, cfg)[1]
            ngd = observed_run(O.ngd_run, s.spec, s.theta0, s.d_f, s.d_pt, cfg,
                               grad_lag=row["grad_lag"])[1]
            assert len(mt) == len(ngd) == row["T"] + 1
            dev = max(linalg.norm(x - y) for x, y in zip(mt, ngd))
            assert type(row["deviation"]) is float and row["deviation"] == dev


class TestLemmaDriver:
    def test_small_grid_holds(self):
        result = Hn.verify_lemma(mus=(0.0,), lams=(1.0,), T=50)
        assert result["passed"] is True
        assert len(result["rows"]) == 2
        for r in result["rows"]:
            assert r["holds"]
            assert r["max_ratio"] <= 1.0 + 1e-9
            assert r["min_margin"] >= 0.0

    def test_ratio_is_taken_above_the_roundoff_floor(self):
        """At the defaults the zero-error bound of four cells falls below
        the pass/fail slack; max_ratio skips those steps and floor_step
        names the first one.  Cells whose bound never gets there report
        no floor step."""
        result = Hn.verify_lemma()
        assert result["passed"] is True
        floors = {(r["mu"], r["lam"], r["mode"]): r["floor_step"]
                  for r in result["rows"]}
        assert {k: v for k, v in floors.items() if v is not None} == {
            (0.0, 1.0, "zero"): 292, (0.0, 10.0, "zero"): 62,
            (0.5, 1.0, "zero"): 139, (0.5, 10.0, "zero"): 75}
        for r in result["rows"]:
            assert r["holds"] and 0.8 < r["max_ratio"] < 1.0

    @pytest.mark.parametrize("step_scale", [1.5, 1.0, np.nextafter(1.0, 0.0)])
    def test_a_step_is_rejected_up_front_or_every_cell_runs(
            self, monkeypatch, step_scale):
        """Over 30 families, a step_scale either exits naming step_scale
        before the first ihvp_momentum call or runs the whole 18-cell grid.
        The check is the iteration's own eta < 1/(lam_max + lam): just
        below 1 rounding rejects 19 of the families, where step_scale < 1
        would pass all 30 into cells the iteration refuses."""
        rejected = 0
        for seed in range(30):
            family = Hn.LemmaFamily(seed=seed)
            try:
                result = Hn.verify_lemma(family, T=10, step_scale=step_scale)
            except ConfigError:
                with monkeypatch.context() as m:
                    forbid(m, Hn.curvature, "ihvp_momentum")
                    with pytest.raises(ConfigError, match="step_scale"):
                        Hn.verify_lemma(family, T=10, step_scale=step_scale)
                rejected += 1
            else:
                assert len(result["rows"]) == 18
        assert rejected == (30 if step_scale >= 1.0 else 19)

    def test_family_needs_a_dimension(self):
        with pytest.raises(ValueError, match="dim"):
            Hn.LemmaFamily(dim=0)

    @pytest.mark.parametrize("kw,field", [
        (dict(eig_low=float("nan")), "eig_low"),
        (dict(eig_high=float("inf")), "eig_high"),
        (dict(noise_scale=float("nan")), "noise_scale"),
        (dict(noise_scale=-0.01), "noise_scale"),
        (dict(eig_low=5.0, eig_high=0.5), "eig_high"),
        (dict(eig_low=-3.0), "eig_low"),
        (dict(eig_low=0.0), "eig_low"),
    ])
    def test_family_rejects_values_it_cannot_draw_from(self, kw, field):
        with pytest.raises(ValueError, match=field):
            Hn.LemmaFamily(**kw)

    def test_a_nan_distance_fails_its_cell(self, monkeypatch):
        """A NaN after a finite first step: the margin and ratio reductions
        must not skip it, as Python's min and max do."""
        real = Hn.curvature.ihvp_momentum

        def nan_at_step_3(H, g, cfg, eps=None):
            u, trace = real(H, g, cfg, eps)
            trace[3] = float("nan")
            return u, trace

        monkeypatch.setattr(Hn.curvature, "ihvp_momentum", nan_at_step_3)
        result = Hn.verify_lemma(mus=(0.0,), lams=(1.0,), T=10)
        assert result["passed"] is False
        for r in result["rows"]:
            assert r["holds"] is False
            assert np.isnan(r["min_margin"]) and np.isnan(r["max_ratio"])

    def test_unknown_error_mode_rejected(self):
        with pytest.raises(ValueError, match="error mode"):
            Hn.verify_lemma(mus=(0.0,), lams=(1.0,), modes=("ramp",), T=5)

    @pytest.mark.parametrize("kw,field", [
        (dict(modes=("zero", "ramp")), "error mode"),
        (dict(mus=()), "at least one"),
        (dict(lams=()), "at least one"),
        (dict(modes=()), "at least one"),
        (dict(T=-1), "T must be nonnegative"),
        (dict(step_scale=0.0), "step_scale"),
        (dict(step_scale=-0.5), "step_scale"),
        (dict(step_scale=float("nan")), "step_scale"),
        (dict(mus=(0.0, float("nan"))), "mus"),
        (dict(lams=(float("nan"),)), "lams"),
        (dict(mus=(1.0,)), "mus"),
        (dict(mus=(0.5, -0.1)), "mus"),
        (dict(lams=(-1.0,)), "lams"),
        (dict(lams=(1.0, 0.0)), "lams"),
        (dict(lams=(float("inf"),)), "lams"),
    ])
    def test_grid_rejected_before_the_first_cell(self, monkeypatch, kw, field):
        forbid(monkeypatch, Hn.curvature, "ihvp_momentum")
        grid = dict(mus=(0.0,), lams=(1.0,), T=5)
        grid.update(kw)
        with pytest.raises(ConfigError, match=field):
            Hn.verify_lemma(**grid)


class TestQuadraticDriver:
    def test_full_run_passes(self):
        result = Hn.verify_divergence_quadratic()
        assert result["passed"] is True
        combos = {(r["model"], r["kind"]) for r in result["rows"]}
        assert combos == {("bigram-softmax", "kl"), ("bigram-softmax", "qkl"),
                          ("bigram-softmax", "bregman"), ("mlp-1hidden", "kl"),
                          ("mlp-1hidden", "qkl")}
        assert len(result["rows"]) == 5 * 3

    @pytest.mark.parametrize("factor", [1.001, 0.999])
    @pytest.mark.parametrize("tag", ["kl", "qkl", "bregman"])
    def test_rejects_a_curvature_scale_off_by_a_tenth_of_a_percent(
            self, monkeypatch, tag, factor):
        """Mutants of the second-order coefficient, one divergence at a
        time: the unpatched check passes (test_full_run_passes), and each
        of these fails."""
        monkeypatch.setitem(Dv.CURVATURE_SCALE, tag,
                            Dv.CURVATURE_SCALE[tag] * factor)
        assert Hn.verify_divergence_quadratic()["passed"] is False

    def test_t_values_validation(self):
        with pytest.raises(ValueError, match="two positive"):
            Hn.verify_divergence_quadratic(t_values=(1e-2,))
        with pytest.raises(ValueError, match="two positive"):
            Hn.verify_divergence_quadratic(t_values=(1e-2, -1e-3))
        with pytest.raises(ConfigError, match="two positive"):
            Hn.verify_divergence_quadratic(t_values=(1e-2, float("nan")))
        with pytest.raises(ConfigError, match="two positive finite"):
            Hn.verify_divergence_quadratic(t_values=(float("inf"), 1e-2))
        # Equal sizes give equal ratios, which no instance can see decay.
        with pytest.raises(ConfigError, match="t_values must hold at least two distinct"):
            Hn.verify_divergence_quadratic(t_values=(1e-2, 1e-2))
        # 1e200 ** 2 overflows where the check divides by t^2; 1e150 runs.
        with pytest.raises(ConfigError, match="t_values entries must have a finite square"):
            Hn.verify_divergence_quadratic(t_values=(1e200, 1e-4))

    @pytest.mark.parametrize("decay_factor", [float("nan"), 0.0, -0.1,
                                              float("inf")])
    def test_decay_factor_validation(self, monkeypatch, decay_factor):
        forbid(monkeypatch, Dv, "local_quadratic_residual")
        with pytest.raises(ConfigError, match="decay_factor"):
            Hn.verify_divergence_quadratic(decay_factor=decay_factor)

    @pytest.mark.parametrize("seed", [13, 32, 60, 85, 98])
    def test_bregman_decays_off_the_shipped_seed(self, seed):
        """The check's three-point criterion on bigram instances where the
        double-nll form of bregman sat on its roundoff floor (decay
        ratios 0.11 to 0.32); the reversed-KL kernel clears it."""
        spec = Hn._QUADRATIC_CHECK_MODELS[0][1]
        theta_ref, batch, d = Hn._quadratic_check_instance(spec, seed)
        kind = Dv.DivergenceKind("bregman", 0.0)
        ratios = [Dv.local_quadratic_residual(kind, spec, theta_ref, d, t,
                                              batch) / t ** 2
                  for t in (1e-2, 1e-3, 1e-4)]
        assert ratios[-1] <= 0.1 * ratios[0] + 1e-18

    def test_unreachable_decay_fails_the_check(self):
        result = Hn.verify_divergence_quadratic(decay_factor=1e-12)
        assert result["passed"] is False


class TestDynamicsDriver:
    def test_unsaturated_target_raises_precondition(self):
        setup = Hn.default_dynamics_setup(seed=5, target_epochs=10)
        with pytest.raises(PreconditionError, match="not saturated"):
            Hn.gradient_dynamics_study(setup)

    @pytest.mark.parametrize("kw,text", [
        (dict(loss_tags=()), "loss_tags"),
        (dict(loss_tags=("nlul", "bogus")), "unknown loss tag"),
        (dict(loss_tags=("nlul", "npo"), beta=0.0), "beta > 0"),
        (dict(loss_tags=("ll", "nlul", "ll")), "loss_tags repeats"),
        (dict(saturation_min=float("nan")), "saturation_min"),
        (dict(ratio_min=float("nan")), "ratio_min"),
        (dict(raise_min=float("nan")), "raise_min"),
        (dict(hold_max=float("nan")), "hold_max"),
        (dict(saturation_min=1.5, loss_tags=("ll",)), "saturation_min"),
    ])
    def test_losses_rejected_before_the_saturation_check(self, kw, text):
        # An unsaturated target: the study would otherwise fail on it.
        setup = Hn.default_dynamics_setup(seed=5, target_epochs=10)
        with pytest.raises(ConfigError, match=text):
            Hn.gradient_dynamics_study(setup, **kw)


    def test_npo_base_values_are_computed_once(self, monkeypatch):
        """The study scores the forget set under the fixed base model once,
        and its npo run once more; the per-step npo gradient norms equal
        those recomputed from scratch at each iterate."""
        setup = Hn.default_dynamics_setup(seed=5, target_epochs=300)
        setup = dataclasses.replace(
            setup, base_cfg=dataclasses.replace(setup.base_cfg, T=6))
        real, calls = M.sequence_logprob, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        with monkeypatch.context() as mp:
            mp.setattr(M, "sequence_logprob", counted)
            result = Hn.gradient_dynamics_study(setup, loss_tags=("npo",))
        assert len(calls) == 2
        kind = L.LossKind("npo", beta=0.1)
        fresh = []
        pairs = L.npo_pairs(setup.spec, setup.d_f, setup.theta0)
        O.mt_run_batched(setup.spec, setup.theta0, setup.d_f, setup.d_pt,
                         dataclasses.replace(setup.base_cfg, loss=kind),
                         callback=lambda t, th, te: fresh.append(linalg.norm(
                             L.batch_grad(kind, setup.spec, th, pairs))))
        g0 = L.batch_grad(kind, setup.spec, setup.theta0, pairs)
        assert result["series"]["npo"]["loss_grad_norm"] == [linalg.norm(g0)] + fresh

    def test_study_is_its_runs_alone(self):
        """The study's lockstep equals one mt_run_batched run per loss with
        the same observations, bit for bit, and raises a run's error."""
        setup = Hn.default_dynamics_setup(seed=5, target_epochs=300)
        setup = dataclasses.replace(
            setup, base_cfg=dataclasses.replace(setup.base_cfg, T=30))
        tags = ("ll", "npo", "nlul", "it")
        result = Hn.gradient_dynamics_study(setup, loss_tags=tags)
        s = setup
        for tag in tags:
            kind = L.LossKind(tag, beta=0.1)
            forget = L.npo_pairs(s.spec, s.d_f, s.theta0) if tag == "npo" else s.d_f
            seen = {"nll_forget": [], "loss_grad_norm": [], "kl_to_teacher": []}

            def observe(t, th, teacher):
                seen["nll_forget"].append(L.batch_loss(L.LossKind("nll"), s.spec,
                                                       th, s.d_f))
                v, g = L.batch_value_and_grad(kind, s.spec, th, forget)
                seen["loss_grad_norm"].append(linalg.norm(g))
                seen["kl_to_teacher"].append(v)

            O.mt_run_batched(s.spec, s.theta0, s.d_f, s.d_pt,
                             dataclasses.replace(s.base_cfg, loss=kind),
                             callback=observe)
            entry = result["series"][tag]
            assert entry["t"] == list(range(31))
            for name in ("nll_forget", "loss_grad_norm") + (
                    ("kl_to_teacher",) if tag == "it" else ()):
                assert entry[name][1:] == seen[name], (tag, name)
            assert result["delta_nll"][tag] == \
                seen["nll_forget"][-1] - result["nll_forget_initial"]
        diverge = dataclasses.replace(setup, base_cfg=dataclasses.replace(
            setup.base_cfg, eta=1e160, kappa=0.0, mu=0.0, clip=0.0))
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingError, match="non-finite"):
                Hn.gradient_dynamics_study(diverge, loss_tags=tags)

    def test_target_epochs_rejected_before_training(self, monkeypatch):
        forbid(monkeypatch, Hn, "build_target")
        with pytest.raises(ConfigError, match="target_epochs"):
            Hn.default_dynamics_setup(target_epochs=0)


class TestStopRule:
    def test_comparisons(self):
        assert Hn.StopRule("nll_forget", 2.0, "geq").triggered(2.0)
        assert not Hn.StopRule("nll_forget", 2.0, "geq").triggered(1.9)
        assert Hn.StopRule("nll_pretrain", 0.5, "leq").triggered(0.4)
        assert not Hn.StopRule("nll_pretrain", 0.5, "leq").triggered(0.6)

    def test_validation(self):
        with pytest.raises(ValueError, match="metric"):
            Hn.StopRule(metric="accuracy")
        with pytest.raises(ValueError, match="comparison"):
            Hn.StopRule(comparison="gt")
        with pytest.raises(ValueError, match="check_every"):
            Hn.StopRule(check_every=0)
        with pytest.raises(ValueError, match="threshold"):
            Hn.StopRule(threshold=float("nan"))

    def test_stops_an_unlearning_run_early(self, bigram_testbed):
        s = bigram_testbed
        method = Hn.MethodSpec("mt", "mt-batched", quick_config(T=400))
        rule = Hn.StopRule("nll_forget", 0.5, "geq", check_every=5)
        result = Hn.unlearn_experiment(s.spec, s.theta0, s.d_f, s.d_pt,
                                       [method], stop_rule=rule)
        row = result["rows"][0]
        assert 0 < row["steps"] < 400
        assert row["steps"] % 5 == 0
        assert row["nll_forget_after"] >= 0.5

    @pytest.mark.parametrize("optimizer", ["mt", "mt-batched", "momentum-sgd",
                                           "adamw"])
    def test_every_optimizer_stops_at_the_first_check(self, bigram_testbed,
                                                      optimizer):
        s = bigram_testbed
        method = Hn.MethodSpec(optimizer, optimizer, quick_config(T=50))
        rule = Hn.StopRule("nll_forget", 0.0, "geq", check_every=1)
        result = Hn.unlearn_experiment(s.spec, s.theta0, s.d_f, s.d_pt,
                                       [method], stop_rule=rule)
        assert result["rows"][0]["steps"] == 1


class TestMethodSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="optimizer"):
            Hn.MethodSpec("m", "sgd", quick_config())
        with pytest.raises(ValueError, match="needs a config"):
            Hn.MethodSpec("m", "mt-batched", None)
        with pytest.raises(ValueError, match="rounds"):
            Hn.MethodSpec("m", "mt-batched", quick_config(), rounds=0)
        with pytest.raises(ValueError, match="adamw"):
            Hn.MethodSpec("m", "momentum-sgd", quick_config(),
                          adam=O.AdamParams())
        noop = Hn.MethodSpec("skip", "noop")
        assert noop.config is None


class TestUnlearnExperiment:
    def test_noop_method_is_bitwise_inert(self, bigram_testbed):
        s = bigram_testbed
        result = Hn.unlearn_experiment(s.spec, s.theta0, s.d_f, s.d_pt,
                                       [Hn.MethodSpec("skip", "noop")])
        row = result["rows"][0]
        np.testing.assert_array_equal(result["thetas"]["skip"], s.theta0)
        assert row["exact_match_after"] == row["exact_match_before"]
        assert row["drift"] == 0.0 and row["steps"] == 0
        assert row["status"] == "ok"

    def test_unlearning_raises_forget_nll_and_collects_rounds(self,
                                                              bigram_testbed):
        s = bigram_testbed
        methods = [Hn.MethodSpec("single", "mt-batched", quick_config()),
                   Hn.MethodSpec("split", "mt-batched",
                                 quick_config(T=60, seed=77), rounds=2)]
        result = Hn.unlearn_experiment(s.spec, s.theta0, s.d_f, s.d_pt,
                                       methods)
        single, split = result["rows"]
        assert single["nll_forget_after"] > single["nll_forget_before"]
        assert single["steps"] == 120
        assert len(result["trajectories"]["single"]) == 1
        assert len(result["trajectories"]["split"]) == 2
        assert split["steps"] == 120
        for name in ("single", "split"):
            assert np.all(np.isfinite(result["thetas"][name]))

    @pytest.mark.parametrize("methods,text", [
        ([], "at least one"),
        ([Hn.MethodSpec("same", "noop"), Hn.MethodSpec("same", "noop")],
         r"methods\[1\] repeats the method name 'same'"),
        ([Hn.MethodSpec("skip", "noop"),
          Hn.MethodSpec("split", "mt-batched", quick_config(T=5), rounds=3)],
         r"'rounds' of methods\[1\] is 3, above the 2 forget"),
    ])
    def test_method_list_rejected_before_the_report(self, bigram_testbed,
                                                    monkeypatch, methods, text):
        forbid(monkeypatch, Hn, "memorization_report")
        s = bigram_testbed
        with pytest.raises(ConfigError, match=text):
            Hn.unlearn_experiment(s.spec, s.theta0, s.d_f, s.d_pt, methods)

    def test_trajectories_keep_no_per_step_arrays(self, bigram_testbed):
        s = bigram_testbed
        methods = [Hn.MethodSpec(opt, opt, quick_config(T=20))
                   for opt in ("mt", "mt-batched", "momentum-sgd", "adamw")]
        result = Hn.unlearn_experiment(s.spec, s.theta0, s.d_f, s.d_pt,
                                       methods)
        for name, (traj,) in result["trajectories"].items():
            assert len(traj) == 21
            np.testing.assert_array_equal(traj.final_theta,
                                          result["thetas"][name])

    def test_diverged_method_reported_not_raised(self, bigram_testbed):
        s = bigram_testbed
        bad = Hn.MethodSpec("explode", "mt-batched",
                            quick_config(eta=1e160, kappa=0.0, mu=0.0,
                                         clip=0.0, T=5))
        with np.errstate(all="ignore"):
            result = Hn.unlearn_experiment(s.spec, s.theta0, s.d_f, s.d_pt,
                                           [bad])
        row = result["rows"][0]
        assert row["status"].startswith("diverged")
        assert np.isnan(row["drift"])
        assert "explode" not in result["thetas"]


def run_alone(monkeypatch):
    """Make every lockstep_runs call run each of its runs alone; returns
    the list of the runs each real call was given."""
    real, calls = O.lockstep_runs, []

    def alone(spec, theta0, d_f, d_pt, runs):
        calls.append(runs)
        return [real(spec, theta0, d_f, d_pt, [r])[0] for r in runs]

    monkeypatch.setattr(O, "lockstep_runs", alone)
    return calls


class TestLockstepGroups:
    def test_methods_that_draw_the_same_batches_share_a_group(
            self, bigram_testbed, monkeypatch):
        """The single-round methods that draw the same data run as one
        loop, whatever their losses, divergences and update rules; each
        round of a multi-round method is a loop of its own and the no-op
        none."""
        s = bigram_testbed
        qkl = Dv.DivergenceKind("qkl", 0.1)
        methods = [
            Hn.MethodSpec("a", "mt-batched", quick_config()),
            Hn.MethodSpec("seed", "mt-batched", quick_config(seed=43)),
            Hn.MethodSpec("b", "adamw", quick_config(eta=0.01, alpha=0.2)),
            Hn.MethodSpec("rounds", "mt-batched", quick_config(), rounds=2),
            Hn.MethodSpec("full", "mt", quick_config()),
            Hn.MethodSpec("skip", "noop"),
            Hn.MethodSpec("c", "momentum-sgd", quick_config(divergence=qkl, clip=0.0)),
            Hn.MethodSpec("batch", "mt-batched", quick_config(batch_forget=4)),
            Hn.MethodSpec("loss", "mt-batched", quick_config(loss=L.LossKind("ll"))),
            Hn.MethodSpec("npo", "mt-batched",
                          quick_config(loss=L.LossKind("npo", beta=0.5))),
            Hn.MethodSpec("seed2", "adamw", quick_config(seed=43)),
        ]
        # A distinct T per method names the rows each loop is given.
        methods = [dataclasses.replace(m, config=dataclasses.replace(m.config, T=5 + i))
                   if m.config is not None else m for i, m in enumerate(methods)]
        name_of = {m.config.T: m.name for m in methods if m.config is not None}
        loops, run = [], O._run

        def spy(spec, theta0, d_f, d_pt, rows):
            loops.append([name_of[c.T] for c, _, _ in rows])
            return run(spec, theta0, d_f, d_pt, rows)

        monkeypatch.setattr(O, "_run", spy)
        Hn.unlearn_experiment(s.spec, s.theta0, s.d_f, s.d_pt, methods)
        assert loops == [["a", "b", "c", "loss"], ["seed", "seed2"], ["full"],
                         ["batch"], ["npo"], ["rounds"], ["rounds"]]

    def test_a_stop_rule_retires_group_rows_at_different_steps(
            self, bigram_testbed, monkeypatch):
        """Each row of a group stops at its own step (or at T), and the
        experiment equals the one running every method alone."""
        s = bigram_testbed
        methods = [
            Hn.MethodSpec("fast", "mt-batched", quick_config(eta=0.2, kappa=0.2, T=150)),
            Hn.MethodSpec("slow", "mt-batched", quick_config(
                T=150, divergence=Dv.DivergenceKind("qkl", 0.1))),
            Hn.MethodSpec("sgd", "momentum-sgd", quick_config(T=150)),
            Hn.MethodSpec("adamw", "adamw", quick_config(T=150),
                          adam=O.AdamParams(lr=0.05))]
        rule = Hn.StopRule("nll_forget", 0.1, "geq", check_every=5)
        loops, run = [], O._run

        def spy(*args):
            loops.append(len(args[-1]))
            return run(*args)

        with monkeypatch.context() as mp:
            mp.setattr(O, "_run", spy)
            grouped = Hn.unlearn_experiment(s.spec, s.theta0, s.d_f, s.d_pt,
                                            methods, stop_rule=rule)
        assert loops == [4]
        run_alone(monkeypatch)
        alone = Hn.unlearn_experiment(s.spec, s.theta0, s.d_f, s.d_pt,
                                      methods, stop_rule=rule)
        assert [r["steps"] for r in grouped["rows"]] == [60, 140, 150, 150]
        assert grouped["rows"] == alone["rows"]
        for m in methods:
            assert grouped["thetas"][m.name].tobytes() == \
                alone["thetas"][m.name].tobytes()
            (a,), (b,) = grouped["trajectories"][m.name], alone["trajectories"][m.name]
            assert (a.loss_values, a.divergence_values, a.gaps) == \
                (b.loss_values, b.divergence_values, b.gaps)

    def test_single_round_methods_share_one_call_and_rounds_call_alone(
            self, bigram_testbed, monkeypatch):
        """Every single-round method, full-batch and of any loss, goes to
        one lockstep_runs call; a multi-round method makes one call per
        round and the no-op none."""
        s = bigram_testbed
        methods = [
            Hn.MethodSpec("a", "mt-batched", quick_config(T=5)),
            Hn.MethodSpec("rounds", "mt-batched", quick_config(T=5), rounds=2),
            Hn.MethodSpec("full", "mt", quick_config(T=5)),
            Hn.MethodSpec("skip", "noop"),
            Hn.MethodSpec("loss", "adamw", quick_config(T=5, loss=L.LossKind("ll"))),
        ]
        calls = run_alone(monkeypatch)
        Hn.unlearn_experiment(s.spec, s.theta0, s.d_f, s.d_pt, methods)
        assert [[c.seed for _, c, _, _ in runs] for runs in calls] == [
            [42, 42, 42], [42], [43]]
        assert [[opt for opt, _, _, _ in runs] for runs in calls] == [
            ["mt-batched", "mt", "adamw"], ["mt-batched"], ["mt-batched"]]


class TestRenderTables:
    def test_lemma_and_quadratic_tables(self, tmp_path):
        out = str(tmp_path)
        for result in (Hn.verify_lemma(mus=(0.0,), lams=(1.0,), T=20),
                       Hn.verify_divergence_quadratic()):
            cli._write_tables(out, cli.result_outputs(result)[0])
        assert os.path.exists(os.path.join(out, "lemma.csv"))
        assert os.path.exists(os.path.join(out, "divergence_quadratic.csv"))
        with open(os.path.join(out, "lemma.csv")) as fh:
            assert fh.readline().strip() == ("mu,lam,mode,eta,T,u0_dist,"
                                             "max_ratio,floor_step,min_margin,"
                                             "holds")

    def test_target_report_table(self, tmp_path):
        result = {"check": "train-target",
                  "report": {"exact_match_rate": 1.0, "lcs_ratio": 1.0,
                             "nll_forget": 0.01, "nll_pretrain": 0.02}}
        cli._write_tables(str(tmp_path), cli.result_outputs(result)[0])
        with open(os.path.join(str(tmp_path), "target_report.csv")) as fh:
            assert fh.readline().startswith("exact_match_rate,")
            assert fh.readline().strip() == "1.0,1.0,0.01,0.02"

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cannot render"):
            cli.result_outputs({"check": "mystery"})


class TestDefaultSetups:
    def test_theorem_testbed_settings(self, bigram_testbed):
        s = bigram_testbed
        assert s.spec.kind == M.BIGRAM and s.spec.vocab_size == 8
        cfg = s.base_cfg
        assert (cfg.eta, cfg.kappa, cfg.divergence.lam, cfg.mu) == (5e-4, 10.0, 0.5, 0.9)
        assert cfg.loss.tag == "it" and cfg.divergence.tag == "kl"

    def test_dynamics_testbed_settings(self):
        setup = Hn.default_dynamics_setup(seed=5, target_epochs=10)
        assert setup.spec.vocab_size == 16
        cfg = setup.base_cfg
        assert cfg.clip == 1.0 and cfg.T == 500
        assert cfg.batch_forget == 20 and cfg.batch_pretrain == 20
