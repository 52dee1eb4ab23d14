"""Corpus generation, memorization metrics, and the verification drivers."""

import dataclasses
import os

import numpy as np
import pytest

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
    ])
    def test_arguments_rejected_before_any_run(self, bigram_testbed,
                                               monkeypatch, kw, field):
        forbid(monkeypatch, O, "mt_ngd_deviations")
        with pytest.raises(ConfigError, match=field):
            Hn.verify_theorem1(bigram_testbed, **kw)

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
        assert result["passed"] is True and result["n_skipped"] == 0
        assert len(result["rows"]) == 2
        for r in result["rows"]:
            assert r["status"] == "ok" and r["holds"]
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

    def test_oversized_step_cells_are_skipped_with_warning(self):
        with pytest.warns(UserWarning, match="skipping"):
            result = Hn.verify_lemma(mus=(0.0,), lams=(1.0,), T=10,
                                     step_scale=1.5)
        assert result["n_skipped"] == 2 and result["passed"] is False
        assert all(r["status"] == "skipped" for r in result["rows"])

    def test_family_needs_a_dimension(self):
        with pytest.raises(ValueError, match="dim"):
            Hn.LemmaFamily(dim=0)

    def test_unknown_error_mode_rejected(self):
        with pytest.raises(ValueError, match="error mode"):
            Hn.verify_lemma(mus=(0.0,), lams=(1.0,), modes=("ramp",), T=5)

    @pytest.mark.parametrize("kw,field", [
        (dict(modes=("zero", "ramp")), "error mode"),
        (dict(mus=()), "at least one"),
        (dict(lams=()), "at least one"),
        (dict(modes=()), "at least one"),
        (dict(T=-1), "T must be nonnegative"),
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

    def test_t_values_validation(self):
        with pytest.raises(ValueError, match="two positive"):
            Hn.verify_divergence_quadratic(t_values=(1e-2,))
        with pytest.raises(ValueError, match="two positive"):
            Hn.verify_divergence_quadratic(t_values=(1e-2, -1e-3))
        with pytest.raises(ConfigError, match="two positive"):
            Hn.verify_divergence_quadratic(t_values=(1e-2, float("nan")))

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


class TestRenderTables:
    def test_lemma_and_quadratic_tables(self, tmp_path):
        out = str(tmp_path)
        Hn.render_result_tables(Hn.verify_lemma(mus=(0.0,), lams=(1.0,), T=20),
                                out)
        Hn.render_result_tables(Hn.verify_divergence_quadratic(), out)
        assert os.path.exists(os.path.join(out, "lemma.csv"))
        assert os.path.exists(os.path.join(out, "divergence_quadratic.csv"))
        with open(os.path.join(out, "lemma.csv")) as fh:
            assert fh.readline().strip() == ("mu,lam,mode,eta,T,u0_dist,"
                                             "max_ratio,floor_step,min_margin,"
                                             "holds,status")

    def test_target_report_table(self, tmp_path):
        result = {"check": "train-target",
                  "report": {"exact_match_rate": 1.0, "lcs_ratio": 1.0,
                             "nll_forget": 0.01, "nll_pretrain": 0.02}}
        Hn.render_result_tables(result, str(tmp_path))
        with open(os.path.join(str(tmp_path), "target_report.csv")) as fh:
            assert fh.readline().startswith("exact_match_rate,")
            assert fh.readline().strip() == "1.0,1.0,0.01,0.02"

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cannot render"):
            Hn.render_result_tables({"check": "mystery"}, str(tmp_path))


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
