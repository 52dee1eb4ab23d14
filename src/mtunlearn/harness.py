"""Desk-scale verification harness: synthetic token corpora, memorized
target models, and the checks that compare the optimizer against its
closed-form predictions.

The harness builds everything from seeds, so every experiment herein is
reproducible bit for bit.  Four checks are provided:

  verify_theorem1             the mean-teacher trajectory stays within
                              O(alpha log(1/alpha)) of the damped
                              natural-gradient reference over a fixed
                              rescaled horizon (every run of the check
                              advances in one lockstep loop on a stack
                              of parameter vectors),
  verify_lemma                the damped momentum iteration tracks the
                              inverse-curvature-vector product within the
                              closed-form per-step error bound,
  verify_divergence_quadratic proximity terms match their curvature
                              quadratic form to third order,
  gradient_dynamics_study     gradient norms and forgetting speed of the
                              unlearning losses at a memorized point.

plus `unlearn_experiment`, which runs full unlearning methods against a
memorized target and reports memorization and collateral-damage
metrics.  The dynamics study and the unlearning experiment hand their
runs to optimizer.lockstep_runs, which advances the runs that draw the
same data in lockstep.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import curvature
from . import divergence as Dmod
from . import linalg
from . import losses as Lmod
from . import model as M
from . import optimizer as O
from .errors import ConfigError, PreconditionError, TrainingError

CORPUS_GENERATORS = ("patterned", "random")

# Frozen instance family for the momentum-iteration bound check.  The
# bound is a worst-case envelope with a non-normal transient: on freely
# random instances the measured error can graze it from above, so the
# shipped check runs a fixed, pre-vetted family (plus a relative slack of
# a few ulps) rather than resampling instances per run.
LEMMA_FAMILY_SEED = 14
LEMMA_NOISE_SEED_OFFSET = 7000
LEMMA_BOUND_RTOL = 1e-12

# The dynamics study evaluates its runs' iterates in stacks of this many
# steps.  One stack of a whole 500-step run is slower, and holds about
# 4 MB of iterates and gradients at once.
OBSERVE_CHUNK = 16


@dataclass(frozen=True)
class CorpusSpec:
    """Synthetic token corpus: disjoint forget and pretrain splits.

    generator "patterned" builds periodic sequences (period `period`)
    that are token-disjoint across sequences when the vocabulary is large
    enough (n_sequences * period <= vocab_size) and otherwise
    pair-disjoint with unique start tokens, so no (context, next) pair is
    shared between splits.  generator "random" draws tokens uniformly and
    only guarantees the sequences themselves are distinct.
    """

    vocab_size: int
    n_sequences: int
    seq_len: int
    forget_fraction: float = 0.5
    generator: str = "patterned"
    period: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be at least 2")
        if self.n_sequences < 2:
            raise ValueError("need at least 2 sequences (one per split)")
        if self.seq_len < 2:
            raise ValueError("seq_len must be at least 2")
        if not (0.0 < self.forget_fraction < 1.0):
            raise ValueError("forget_fraction must lie strictly in (0, 1)")
        if self.generator not in CORPUS_GENERATORS:
            raise ValueError(f"unknown generator: {self.generator!r}")
        if self.generator == "patterned":
            if not (1 <= self.period <= self.vocab_size):
                raise ValueError("period must lie in [1, vocab_size]")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    @property
    def n_forget(self):
        n = int(round(self.n_sequences * self.forget_fraction))
        return min(max(n, 1), self.n_sequences - 1)


def _patterned_sequences(corpus, rng):
    V, n, p = corpus.vocab_size, corpus.n_sequences, corpus.period
    if n * p <= V:
        # Token-disjoint blocks of one vocabulary permutation.
        perm = rng.permutation(V)
        patterns = [perm[k * p:(k + 1) * p] for k in range(n)]
    else:
        # Pair-disjoint rejection sampling with unique start tokens: no
        # two sequences share any (token, next-token) transition
        # (including the wraparound one) or a start token.
        # Counting bounds: there are V start tokens and, for p >= 2,
        # V (V - 1) transitions between distinct tokens; an infeasible
        # corpus fails here instead of exhausting the rejection budget.
        infeasible = n > V or (p >= 2 and n * p > V * (V - 1))
        patterns, used_pairs, used_starts = [], set(), set()
        budget = 10000 * n
        while len(patterns) < n:
            budget -= 1
            if infeasible or budget < 0:
                raise ValueError("could not draw a pair-disjoint corpus; "
                                 "reduce n_sequences or period, or grow "
                                 "vocab_size")
            pat = rng.choice(V, p, replace=False)
            trans = [(int(pat[i]), int(pat[(i + 1) % p])) for i in range(p)]
            if int(pat[0]) in used_starts or any(tr in used_pairs for tr in trans):
                continue
            used_starts.add(int(pat[0]))
            used_pairs.update(trans)
            patterns.append(pat)
    return [[int(pat[i % p]) for i in range(corpus.seq_len)] for pat in patterns]


def _random_sequences(corpus, rng):
    V, n = corpus.vocab_size, corpus.n_sequences
    seqs, seen = [], set()
    budget = 10000 * n
    while len(seqs) < n:
        budget -= 1
        if budget < 0:
            raise ValueError("could not draw distinct random sequences; "
                             "grow vocab_size or seq_len")
        s = tuple(int(t) for t in rng.integers(0, V, corpus.seq_len))
        if s in seen:
            continue
        seen.add(s)
        seqs.append(list(s))
    return seqs


def generate_corpus(corpus):
    """Deterministically draw the corpus; returns (forget, pretrain)
    lists of token sequences with forget first."""
    rng = np.random.default_rng(corpus.seed)
    if corpus.generator == "patterned":
        seqs = _patterned_sequences(corpus, rng)
    else:
        seqs = _random_sequences(corpus, rng)
    k = corpus.n_forget
    return seqs[:k], seqs[k:]


def corpus_datasets(spec, corpus):
    """Forget and pretrain TokenDatasets for the given model spec."""
    forget, pretrain = generate_corpus(corpus)
    return (M.dataset_from_sequences(forget, spec.context_len),
            M.dataset_from_sequences(pretrain, spec.context_len))


@dataclass
class MemorizationReport:
    """Greedy-decode and likelihood metrics of a model on a corpus.

    exact_match_rate and lcs_ratio evaluate greedy continuations of the
    forget sequences (prompt of prompt_len tokens, completion_len decoded
    tokens; lcs_ratio is the longest-common-subsequence length divided by
    completion_len).  nll_forget and nll_pretrain are mean per-token
    negative log-likelihoods of the two splits.
    """

    exact_match_rate: float
    lcs_ratio: float
    nll_forget: float
    nll_pretrain: float

    def as_dict(self):
        return {"exact_match_rate": self.exact_match_rate,
                "lcs_ratio": self.lcs_ratio,
                "nll_forget": self.nll_forget,
                "nll_pretrain": self.nll_pretrain}


def lcs_length(a, b):
    """Length of the longest common subsequence of two token lists."""
    m, n = len(a), len(b)
    dp = np.zeros((m + 1, n + 1), dtype=int)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if a[i - 1] == b[j - 1]:
                dp[i, j] = dp[i - 1, j - 1] + 1
            else:
                dp[i, j] = max(dp[i - 1, j], dp[i, j - 1])
    return int(dp[m, n])


def report_lengths(sequences, prompt_len: int = None, completion_len: int = None):
    """(prompt_len, completion_len) for decoding the given sequences; each
    defaults to an even split of the shortest one.  Raises ValueError
    unless both are >= 1 and together fit in the shortest sequence."""
    if not sequences:
        raise ValueError("forget dataset must carry whole sequences")
    seq_len = min(len(s) for s in sequences)
    if prompt_len is None:
        prompt_len = seq_len // 2
    if completion_len is None:
        completion_len = seq_len - prompt_len
    if prompt_len < 1 or completion_len < 1:
        raise ValueError(f"prompt_len ({prompt_len}) and completion_len "
                         f"({completion_len}) must be positive")
    if prompt_len + completion_len > seq_len:
        raise ValueError(f"prompt_len + completion_len ({prompt_len} + "
                         f"{completion_len}) exceeds the shortest sequence "
                         f"({seq_len} tokens)")
    return prompt_len, completion_len


_NLL = Lmod.LossKind("nll")


def memorization_report(spec, theta, datasets, prompt_len=None, completion_len=None):
    """Evaluate memorization of the forget split and likelihood of both
    splits.  datasets is the (forget, pretrain) TokenDataset pair;
    prompt/completion lengths default to an even split of the sequence
    length."""
    d_f, d_pt = datasets
    prompt_len, completion_len = report_lengths(d_f.sequences, prompt_len,
                                                completion_len)
    hits, lcs_sum = 0, 0.0
    for s in d_f.sequences:
        s = [int(t) for t in s]
        out = M.greedy_continuation(spec, theta, s[:prompt_len], completion_len)
        truth = s[prompt_len:prompt_len + completion_len]
        hits += int(out == truth)
        lcs_sum += lcs_length(out, truth) / completion_len
    n = len(d_f.sequences)
    return MemorizationReport(
        exact_match_rate=hits / n,
        lcs_ratio=lcs_sum / n,
        nll_forget=Lmod.batch_loss(_NLL, spec, theta, d_f),
        nll_pretrain=Lmod.batch_loss(_NLL, spec, theta, d_pt),
    )


def build_target(spec, datasets, epochs: int, seed: int, lr=0.5, momentum=0.9,
                 require_exact_match=0.9, prompt_len=None, completion_len=None):
    """Memorize both splits of the (forget, pretrain) TokenDataset pair
    `datasets` with full-batch momentum SGD on the mean NLL and return the
    trained parameter vector.

    epochs counts raw full-batch steps.  After training, greedy decoding
    over all sequences must reach require_exact_match (set it to 0 to
    skip the gate); failure raises TrainingError since an unmemorized
    target makes the downstream checks meaningless.
    """
    if epochs < 1:
        raise ConfigError(f"epochs must be at least 1, got {epochs}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    if not 0 < lr < np.inf:
        raise ConfigError(f"lr must be positive and finite, got {lr}")
    if not 0 <= momentum < 1:
        raise ConfigError(f"momentum must lie in [0, 1), got {momentum}")
    if not 0 <= require_exact_match <= 1:
        raise ConfigError(f"require_exact_match must lie in [0, 1], got "
                          f"{require_exact_match}")
    d_f, d_pt = datasets
    d_all = M.dataset_from_sequences(d_f.sequences + d_pt.sequences,
                                     spec.context_len)
    theta = M.init_params(spec, seed)
    vel = np.zeros_like(theta)
    for t in range(1, epochs + 1):
        g = Lmod.batch_grad(_NLL, spec, theta, d_all)
        vel = momentum * vel + g
        theta = theta - lr * vel
        if not np.all(np.isfinite(theta)):
            raise TrainingError(f"non-finite parameters at step {t}; "
                                f"reduce lr={lr}")
    if require_exact_match > 0:
        rep = memorization_report(spec, theta, (d_all, d_all),
                                  prompt_len, completion_len)
        if rep.exact_match_rate < require_exact_match:
            raise TrainingError(
                f"target memorization too weak: exact match "
                f"{rep.exact_match_rate:.3f} < {require_exact_match}; "
                f"increase epochs or model capacity")
    return theta


# ---------------------------------------------------------------------------
# Trajectory-approximation check
# ---------------------------------------------------------------------------

@dataclass
class CheckSetup:
    """Frozen testbed of a verification check: a memorized target theta0,
    its datasets and the base run settings the check varies."""

    spec: M.ModelSpec
    theta0: np.ndarray
    d_f: M.TokenDataset
    d_pt: M.TokenDataset
    base_cfg: O.MTConfig


def default_theorem_setup(seed=11, eta=5e-4, kappa=10.0, lam=0.5, mu=0.9):
    """Bigram testbed: 4 token-disjoint periodic sequences over 8 tokens,
    memorized by momentum SGD, unlearned with the uniform-teacher
    imitation loss under a KL proximity term (step eta, teacher rate
    kappa, damping lam, momentum mu; the check sets alpha and T)."""
    base_cfg = O.MTConfig(eta=eta, kappa=kappa, alpha=0.1, mu=mu,
                          T=1, loss=Lmod.LossKind("it"),
                          divergence=Dmod.DivergenceKind("kl", lam))
    corpus = CorpusSpec(vocab_size=8, n_sequences=4, seq_len=12,
                        forget_fraction=0.5, generator="patterned",
                        period=2, seed=seed)
    spec = M.ModelSpec(M.BIGRAM, corpus.vocab_size)
    d_f, d_pt = corpus_datasets(spec, corpus)
    theta0 = build_target(spec, (d_f, d_pt), epochs=400, seed=seed,
                          lr=0.5, momentum=0.9)
    return CheckSetup(spec=spec, theta0=theta0, d_f=d_f, d_pt=d_pt,
                      base_cfg=base_cfg)


def verify_theorem1(setup=None, alphas=(0.1, 0.05, 0.025, 0.0125),
                    t_gamma=0.3, slope_min=0.8):
    """Compare the full-batch mean-teacher run against the damped
    natural-gradient reference over a fixed rescaled horizon.

    For each loss weight alpha the horizon is T = round(t_gamma / gamma)
    steps, so every run covers the same rescaled time.  The deviation of
    a reference is max_t ||theta_mt(t) - theta_ngd(t)||; all runs, per
    alpha the mean teacher and the reference under both
    gradient-evaluation conventions, advance in one lockstep loop
    (optimizer.mt_ngd_deviations), bit for bit the separate mt_run and
    ngd_run.  The check passes when, for both conventions, the deviation
    decreases monotonically in alpha and its log-log slope against
    alpha * log(1/alpha) is at least slope_min (slope 1 would be exact
    proportionality to the predicted rate).  alphas must decrease
    strictly within (0, 1), where log(alpha log(1/alpha)) is finite.
    """
    alphas = list(alphas)
    if len(alphas) < 2 or any(not (0 < a < 1) for a in alphas) \
            or any(not a > b for a, b in zip(alphas, alphas[1:])):
        raise ConfigError("alphas must be a strictly decreasing list of at "
                          "least two numbers in (0, 1)")
    if not 0 < t_gamma < np.inf:
        raise ConfigError("t_gamma must be positive and finite")
    if not np.isfinite(slope_min):
        raise ConfigError(f"slope_min must be finite, got {slope_min}")
    if setup is None:
        setup = default_theorem_setup()
    cfgs = [replace(setup.base_cfg, alpha=a) for a in alphas]
    derived = [O.DerivedNGDParams.from_config(cfg) for cfg in cfgs]
    if not all(d.gamma > 0 for d in derived):
        # gamma = kappa alpha eta / (1 - kappa eta) is 0 at kappa = 0, and
        # underflows to 0 for a tiny kappa.
        raise ConfigError(f"kappa={setup.base_cfg.kappa} gives a reference "
                          f"step gamma of 0; kappa must be positive")
    steps = [t_gamma / d.gamma for d in derived]
    if not np.isfinite(steps[-1]):
        # The last alpha has the longest horizon.
        raise ConfigError(f"horizon t_gamma={t_gamma} gives an infinite T "
                          f"at alpha={alphas[-1]}")
    Ts = [int(round(n)) for n in steps]
    if Ts[0] < 1:
        # The first alpha has the shortest horizon.
        raise ConfigError(f"horizon t_gamma={t_gamma} gives T=0 at "
                          f"alpha={alphas[0]}")
    devs = O.mt_ngd_deviations(setup.spec, setup.theta0, setup.d_f, setup.d_pt,
                               [replace(cfg, T=T) for cfg, T in zip(cfgs, Ts)])
    lag_rows = {lag: [{"grad_lag": lag, "alpha": a, "T": T, "gamma": d.gamma,
                       "lam_bar": d.lam_bar, "deviation": float(dev[int(lag)])}
                      for a, T, d, dev in zip(alphas, Ts, derived, devs)]
                for lag in (False, True)}
    rows, summary = lag_rows[False] + lag_rows[True], {}
    x = np.log([a * np.log(1.0 / a) for a in alphas])
    for lag, lag_row in lag_rows.items():
        devs = [r["deviation"] for r in lag_row]
        slope = float(np.polyfit(x, np.log(devs), 1)[0])
        monotone = bool(all(devs[i] > devs[i + 1] for i in range(len(devs) - 1)))
        summary["lag_true" if lag else "lag_false"] = {
            "slope": slope, "monotone": monotone, "deviations": devs}
    passed = bool(all(s["monotone"] and s["slope"] >= slope_min
                      for s in summary.values()))
    return {"check": "theorem1", "alphas": alphas, "t_gamma": t_gamma,
            "slope_min": slope_min, "rows": rows, "summary": summary,
            "passed": passed}


# ---------------------------------------------------------------------------
# Momentum-iteration error-bound check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaFamily:
    """Random SPD instance family for the bound check: H = Q diag(e) Q^T
    with Q a seeded random orthogonal matrix and eigenvalues e drawn
    uniformly from [eig_low, eig_high], 0 < eig_low <= eig_high; g
    standard normal."""

    dim: int = 8
    eig_low: float = 0.5
    eig_high: float = 5.0
    seed: int = LEMMA_FAMILY_SEED
    noise_scale: float = 0.01

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for name in ("eig_low", "eig_high"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.eig_low > 0:
            raise ValueError(f"eig_low must be positive (H is SPD), got {self.eig_low}")
        if not self.eig_low <= self.eig_high:
            raise ValueError(f"eig_high must be at least eig_low={self.eig_low}, "
                             f"got {self.eig_high}")
        if not 0 <= self.noise_scale < np.inf:
            raise ValueError(f"noise_scale must be nonnegative and finite, "
                             f"got {self.noise_scale}")


def lemma_instance(family):
    """Draw the (H, g) instance of the family (deterministic in the seed)."""
    rng = np.random.default_rng(family.seed)
    A = rng.standard_normal((family.dim, family.dim))
    Q, _ = np.linalg.qr(A)
    eigs = rng.uniform(family.eig_low, family.eig_high, family.dim)
    H = (Q * eigs) @ Q.T
    return 0.5 * (H + H.T), rng.standard_normal(family.dim)


def verify_lemma(family=None, mus=(0.0, 0.5, 0.9), lams=(0.1, 1.0, 10.0),
                 modes=("zero", "const"), T=400, step_scale=0.5):
    """Check the closed-form error bound of the damped momentum iteration
    on a grid of momentum (each in [0, 1)), damping (each positive and
    finite), and error-injection settings.

    Per cell the step size is eta = step_scale / (lam_max(H) + lam), which
    must meet the iteration's precondition eta < 1/(lam_max(H) + lam) for
    every lam before any cell runs; mode "zero" injects no error, "const"
    injects a fresh random direction of fixed norm each step (one draw of
    T directions, shared by every cell).  A cell passes when the measured
    distance to the exact solution stays at or below the bound at every
    step (up to a relative slack of LEMMA_BOUND_RTOL); a NaN distance or
    bound fails it.

    max_ratio (measured distance over bound) is taken only at steps where
    the bound exceeds that slack: below it both sides are roundoff, and
    their ratio says nothing.  floor_step is the first step where the
    bound is at or below the slack (None if it never gets there).
    """
    if T < 0:
        raise ConfigError(f"T must be nonnegative, got {T}")
    if min(len(mus), len(lams), len(modes)) < 1:
        raise ConfigError("mus, lams and modes must each list at least one value")
    if any(mode not in ("zero", "const") for mode in modes):
        raise ConfigError(f"unknown error mode in modes {list(modes)}; "
                          f"the modes are 'zero' and 'const'")
    if not all(0 <= mu < 1 for mu in mus):
        raise ConfigError(f"mus must lie in [0, 1), got {list(mus)}")
    if not all(0 < lam < np.inf for lam in lams):
        raise ConfigError(f"lams must be positive and finite, got {list(lams)}")
    if not step_scale > 0:
        raise ConfigError(f"step_scale must be positive, got {step_scale}")
    family = family or LemmaFamily()
    H, g = lemma_instance(family)
    lam_max = float(np.linalg.eigvalsh(H)[-1])
    # The inequality curvature.ihvp_momentum checks, in its arithmetic.
    for lam in lams:
        if not step_scale / (lam_max + lam) < 1.0 / (lam_max + lam):
            raise ConfigError(f"step_scale={step_scale} gives a step size at "
                              f"or above 1/(lam_max + lam) at lam={lam}")
    noise = np.random.default_rng(LEMMA_NOISE_SEED_OFFSET + family.seed) \
        .standard_normal((T, family.dim))
    for e in noise:
        e *= family.noise_scale / np.linalg.norm(e)
    errors = {"zero": (None, [0.0] * T),
              "const": (noise, [float(np.linalg.norm(e)) for e in noise])}
    rows = []
    for mu in mus:
        for lam in lams:
            eta = step_scale / (lam_max + lam)
            for mode in modes:
                eps, eps_norms = errors[mode]
                cfg = curvature.IHVPConfig(eta=eta, mu=mu, lam=lam, T=T)
                _, trace = curvature.ihvp_momentum(H, g, cfg, eps)
                u0_dist = trace[0]
                bounds = curvature.ihvp_error_bound(cfg, u0_dist, eps_norms)
                slack = LEMMA_BOUND_RTOL * (1.0 + u0_dist)
                margins = [b + slack - m for m, b in zip(trace, bounds)]
                # np.min and np.max keep a NaN, where min and max may skip it.
                min_margin = float(np.min(margins))
                ratios = [m / b for m, b in zip(trace[1:], bounds[1:]) if b > slack]
                floor_step = next((t for t, b in enumerate(bounds) if b <= slack),
                                  None)
                rows.append({"mu": mu, "lam": lam, "mode": mode, "eta": eta,
                             "T": T, "u0_dist": u0_dist,
                             "max_ratio": float(np.max(ratios)) if ratios else 0.0,
                             "floor_step": floor_step,
                             "min_margin": min_margin,
                             "holds": bool(min_margin >= 0.0)})
    return {"check": "lemma", "family_seed": family.seed, "T": T,
            "step_scale": step_scale, "rows": rows,
            "passed": all(r["holds"] for r in rows)}


# ---------------------------------------------------------------------------
# Proximity-term quadratic-order check
# ---------------------------------------------------------------------------

# The models of the divergence-quadratic check and their instance seeds.
_QUADRATIC_CHECK_MODELS = (
    ("bigram-softmax", M.ModelSpec(M.BIGRAM, 5), 3),
    ("mlp-1hidden", M.ModelSpec(M.MLP, 6, context_len=2, hidden_dim=4), 4))


def _quadratic_check_instance(spec, seed):
    """(theta_ref, batch, d) of the divergence-quadratic check on `spec`:
    theta_ref = init_params(spec, seed), and four sequences of six tokens
    and a unit direction d drawn from default_rng(100 + seed)."""
    rng = np.random.default_rng(100 + seed)
    seqs = [list(rng.integers(0, spec.vocab_size, 6)) for _ in range(4)]
    batch = M.dataset_from_sequences(seqs, spec.context_len)
    theta_ref = M.init_params(spec, seed)
    d = rng.standard_normal(M.param_count(spec))
    return theta_ref, batch, d / np.linalg.norm(d)


def verify_divergence_quadratic(t_values=(1e-2, 1e-3, 1e-4), decay_factor=0.1):
    """Check that each proximity term matches its curvature quadratic
    form to third order along a fixed random direction.

    For displacement size t the residual against the frozen quadratic
    model is O(t^3), so residual/t^2 must shrink linearly in t; the check
    requires the ratio at the smallest t to be at most decay_factor times
    the ratio at the largest t (decay_factor 0.1 over a 100x range of t
    leaves a 10x margin).  KL and quadratic-KL run on both model kinds;
    the Bregman term runs on the bigram model it is defined for.  At
    least two of t_values must differ: a ratio cannot decay between equal
    sizes.
    """
    if len(t_values) < 2 or any(not 0 < t < np.inf for t in t_values):
        raise ConfigError("t_values must list at least two positive finite "
                          "numbers")
    if any(not t * t < np.inf for t in t_values):
        raise ConfigError(f"t_values entries must have a finite square (the "
                          f"check divides by t^2), got {list(t_values)}")
    if len(set(t_values)) < 2:
        raise ConfigError(f"t_values must hold at least two distinct sizes, "
                          f"got {list(t_values)}")
    if not 0 < decay_factor < np.inf:
        raise ConfigError(f"decay_factor must be positive and finite, got "
                          f"{decay_factor}")
    t_values = sorted(t_values, reverse=True)
    rows, passed = [], True
    for name, spec, seed in _QUADRATIC_CHECK_MODELS:
        theta_ref, batch, d = _quadratic_check_instance(spec, seed)
        kinds = ["kl", "qkl"] + (["bregman"] if spec.kind == M.BIGRAM else [])
        for tag in kinds:
            kind = Dmod.DivergenceKind(tag, 0.0)
            ratios = []
            for t in t_values:
                res = Dmod.local_quadratic_residual(kind, spec, theta_ref,
                                                    d, t, batch)
                ratios.append(res / t ** 2)
                rows.append({"model": name, "kind": tag, "t": t,
                             "residual": res, "ratio": res / t ** 2})
            ok = ratios[-1] <= decay_factor * ratios[0] + 1e-18
            passed = passed and bool(ok)
    return {"check": "divergence-quadratic", "t_values": t_values,
            "decay_factor": decay_factor, "rows": rows, "passed": bool(passed)}


# ---------------------------------------------------------------------------
# Gradient-dynamics study
# ---------------------------------------------------------------------------

def default_dynamics_setup(seed=5, target_epochs=3000):
    """Bigram testbed: 8 token-disjoint periodic sequences over 16 tokens
    memorized to saturation, unlearned with batched mean-teacher runs."""
    if target_epochs < 1:
        raise ConfigError(f"target_epochs must be at least 1, got {target_epochs}")
    corpus = CorpusSpec(vocab_size=16, n_sequences=8, seq_len=12,
                        forget_fraction=0.5, generator="patterned",
                        period=2, seed=seed)
    spec = M.ModelSpec(M.BIGRAM, corpus.vocab_size)
    d_f, d_pt = corpus_datasets(spec, corpus)
    theta0 = build_target(spec, (d_f, d_pt), epochs=target_epochs, seed=seed,
                          lr=0.5, momentum=0.9, require_exact_match=0.0)
    base_cfg = O.MTConfig(eta=0.05, kappa=2.0, alpha=0.5, mu=0.9,
                          T=500, loss=Lmod.LossKind("nlul"),
                          divergence=Dmod.DivergenceKind("kl", 0.1),
                          clip=1.0, batch_forget=20, batch_pretrain=20,
                          seed=99)
    return CheckSetup(spec=spec, theta0=theta0, d_f=d_f, d_pt=d_pt,
                      base_cfg=base_cfg)


def gradient_dynamics_study(setup=None, loss_tags=("ll", "npo", "nlul", "it"),
                            beta=0.1, saturation_min=0.9, ratio_min=10.0,
                            raise_min=1.0, hold_max=0.1):
    """Compare unlearning losses started from a memorized (saturated)
    model: initial gradient norms, then per-step forget-set NLL under
    otherwise identical batched mean-teacher runs.

    Requires min_y p_y >= saturation_min on the forget set (the regime
    the comparison is about); below that the study raises a
    precondition error rather than reporting numbers it cannot support.
    The imitation loss additionally reports its KL-to-teacher series.

    When both the complement and plain log-likelihood losses are in
    loss_tags the study is also a check: it passes when the complement
    loss gradient is at least ratio_min times larger at the start and the
    runs raise forget NLL by at least raise_min (complement loss) while
    the plain loss moves it by at most hold_max (saturation stalls it).
    """
    if not loss_tags:
        raise ConfigError("loss_tags must list at least one loss")
    try:
        kinds = {tag: Lmod.LossKind(tag, beta=beta) for tag in loss_tags}
    except ValueError as exc:
        raise ConfigError(f"invalid loss_tags or beta: {exc}") from exc
    if len(kinds) != len(loss_tags):
        raise ConfigError(f"loss_tags repeats a loss: {list(loss_tags)}")
    for name, v in (("saturation_min", saturation_min), ("ratio_min", ratio_min),
                    ("raise_min", raise_min), ("hold_max", hold_max)):
        if np.isnan(v):
            raise ConfigError(f"{name} must be a number, got {v}")
    if saturation_min > 1:
        raise ConfigError(f"saturation_min must be at most 1 (p_y never exceeds "
                          f"1), got {saturation_min}")
    if setup is None:
        setup = default_dynamics_setup()
    spec, theta0 = setup.spec, setup.theta0
    d_f, d_pt = setup.d_f, setup.d_pt

    H = M.batch_logits(spec, theta0, d_f)
    P = M.softmax_rows(H)
    p_y = P[np.arange(len(d_f)), d_f.nexts]
    min_p = float(p_y.min())
    if min_p < saturation_min:
        raise PreconditionError(
            f"target is not saturated on the forget set: min p_y = "
            f"{min_p:.4f} < {saturation_min}; train the target longer")

    def observer(tag):
        """Start tag's series with its row 0 at theta0 and return the run
        callback, which keeps each step's (t, theta).  Every
        OBSERVE_CHUNK steps, and once more when the runs are over (see
        flushes), the kept iterates are stacked and evaluated with one
        call per quantity, each row bit for bit its own call.  The loss
        gradient is taken on the forget set, npo's carrying base
        log-probabilities computed once (theta0 is fixed); for it one
        value-and-gradient call also gives the KL to the teacher."""
        kind = kinds[tag]
        forget = Lmod.npo_pairs(spec, d_f, theta0) if tag == "npo" else d_f
        entry = series[tag] = {"t": [], "nll_forget": [], "loss_grad_norm": []}
        if tag == "it":
            entry["kl_to_teacher"] = []
        kept = []

        def append(ts, th):
            entry["t"].extend(ts)
            entry["nll_forget"].extend(np.atleast_1d(
                Lmod.batch_loss(_NLL, spec, th, d_f)).tolist())
            if tag == "it":
                kl, g = Lmod.batch_value_and_grad(kind, spec, th, forget)
                entry["kl_to_teacher"].extend(np.atleast_1d(kl).tolist())
            else:
                g = Lmod.batch_grad(kind, spec, th, forget)
            entry["loss_grad_norm"].extend(np.atleast_1d(linalg.norm(g)).tolist())

        def flush():
            if kept:
                ts, ths = zip(*kept)
                append(ts, np.stack(ths))
                kept.clear()

        def observe(t, th, teacher):
            kept.append((t, th))
            if len(kept) == OBSERVE_CHUNK:
                flush()
        append([0], theta0)
        flushes.append(flush)
        return observe

    series, flushes = {}, []
    runs = [("mt-batched", replace(setup.base_cfg, loss=kinds[tag]), None,
             observer(tag)) for tag in loss_tags]
    nll0 = series[loss_tags[0]]["nll_forget"][0]
    grad_norm0 = {tag: series[tag]["loss_grad_norm"][0] for tag in loss_tags}
    ratios = {}
    if "nlul" in grad_norm0:
        for other in ("ll", "npo", "it"):
            if other in grad_norm0 and grad_norm0[other] > 0:
                ratios[f"nlul_over_{other}"] = grad_norm0["nlul"] / grad_norm0[other]
    # The runs draw one batch stream (npo its own, of whole sequences), so
    # they advance in lockstep; the first run that diverged is raised.
    for out in O.lockstep_runs(spec, theta0, d_f, d_pt, runs):
        if isinstance(out, TrainingError):
            raise out
    for flush in flushes:
        flush()
    delta_nll = {tag: series[tag]["nll_forget"][-1] - nll0 for tag in loss_tags}

    passed = None
    if "nlul" in loss_tags and "ll" in loss_tags:
        passed = bool(ratios.get("nlul_over_ll", 0.0) >= ratio_min
                      and delta_nll["nlul"] >= raise_min
                      and delta_nll["ll"] <= hold_max)
    return {"check": "dynamics", "min_p_y": min_p, "nll_forget_initial": nll0,
            "grad_norm0": grad_norm0, "ratios": ratios,
            "delta_nll": delta_nll, "series": series,
            "thresholds": {"ratio_min": ratio_min, "raise_min": raise_min,
                           "hold_max": hold_max}, "passed": passed}


# ---------------------------------------------------------------------------
# End-to-end unlearning experiments
# ---------------------------------------------------------------------------

@dataclass
class StopRule:
    """Early-stopping rule evaluated during every optimizer's run.

    Every check_every steps the metric ("nll_forget" on the split being
    unlearned this round, or "nll_pretrain" on the full pretrain split)
    is computed at the current parameters and the run stops once it
    compares to threshold as requested ("geq" or "leq").
    """

    metric: str = "nll_forget"
    threshold: float = 2.0
    comparison: str = "geq"
    check_every: int = 10

    def __post_init__(self):
        if self.metric not in ("nll_forget", "nll_pretrain"):
            raise ValueError(f"unknown stop metric: {self.metric!r}")
        if self.comparison not in ("geq", "leq"):
            raise ValueError(f"unknown comparison: {self.comparison!r}")
        if self.check_every < 1:
            raise ValueError("check_every must be positive")
        if not np.isfinite(self.threshold):
            raise ValueError("threshold must be finite")

    def triggered(self, value):
        return value >= self.threshold if self.comparison == "geq" \
            else value <= self.threshold


@dataclass
class MethodSpec:
    """One unlearning method: optimizer kind, its config, and an optional
    round count for the sequential protocol (the forget sequences are
    split into `rounds` contiguous groups, unlearned one after another,
    each round running config.T steps with seed config.seed + round)."""

    name: str
    optimizer: str = "mt-batched"
    config: O.MTConfig = None
    rounds: int = 1
    adam: O.AdamParams = None

    def __post_init__(self):
        if self.optimizer not in O.OPTIMIZERS + ("noop",):
            raise ValueError(f"unknown optimizer: {self.optimizer!r}")
        if self.optimizer != "noop" and self.config is None:
            raise ValueError(f"method {self.name!r} needs a config")
        if self.rounds < 1:
            raise ValueError("rounds must be positive")
        if self.adam is not None and self.optimizer != "adamw":
            raise ValueError(f"an adam section applies to optimizer 'adamw' "
                             f"only, not {self.optimizer!r}")


def _stop_callback(stop_rule, spec, d_f, d_pt):
    """The run callback of a stop rule on forget split d_f (None without a
    rule)."""
    if stop_rule is None:
        return None
    ds = d_f if stop_rule.metric == "nll_forget" else d_pt

    def callback(t, th, teacher):
        return t % stop_rule.check_every == 0 and \
            stop_rule.triggered(Lmod.batch_loss(_NLL, spec, th, ds))
    return callback


def _run_round(methods, k, idx, spec, theta, d_f, d_pt, stop_rule):
    """Round k of the methods, on the forget sequences idx and from theta,
    in one lockstep_runs call: per method its Trajectory or the
    TrainingError that ended it."""
    d_fk = M.dataset_from_sequences([d_f.sequences[i] for i in idx],
                                    spec.context_len)
    callback = _stop_callback(stop_rule, spec, d_fk, d_pt)
    return O.lockstep_runs(spec, theta, d_fk, d_pt, [
        (m.optimizer, replace(m.config, seed=m.config.seed + k), m.adam, callback)
        for m in methods])


def unlearn_experiment(spec, theta_target, d_f, d_pt, methods,
                       prompt_len=None, completion_len=None, stop_rule=None):
    """Run each unlearning method against the memorized target and report
    before/after memorization metrics and pretrain-set damage.

    Returns {"before": metrics, "rows": per-method metrics, "thetas":
    final parameters per method, "trajectories": per-method list of
    round trajectories}.  drift is the increase in pretrain NLL.  A
    method whose run diverges is reported as a failed row rather than
    aborting the experiment.  Methods need unique names, and at most one
    round per forget sequence.  Every single-round method runs in one
    optimizer.lockstep_runs call, which advances the methods that draw the
    same data in lockstep; a multi-round method makes one call per round,
    each on its own part of the forget sequences and from the previous
    round's parameters.  Each method is bit for bit its run alone.
    """
    if not methods:
        raise ConfigError("methods must list at least one method")
    names, n = [m.name for m in methods], len(d_f.sequences)
    for i, m in enumerate(methods):
        if names.index(m.name) != i:
            raise ConfigError(f"methods[{i}] repeats the method name {m.name!r}")
        if m.rounds > n:
            raise ConfigError(f"field 'rounds' of methods[{i}] is {m.rounds}, "
                              f"above the {n} forget sequences (each round "
                              f"needs at least one)")
    before = memorization_report(spec, theta_target, (d_f, d_pt),
                                 prompt_len, completion_len)
    # Per method: the outcomes of its rounds, up to the first TrainingError.
    outcomes = {m.name: [] for m in methods}
    single = [m for m in methods if m.rounds == 1 and m.optimizer != "noop"]
    if single:
        for m, out in zip(single, _run_round(single, 0, range(n), spec, theta_target,
                                             d_f, d_pt, stop_rule)):
            outcomes[m.name].append(out)
    for m in methods:
        theta = theta_target
        for k, idx in enumerate(np.array_split(np.arange(n), m.rounds)
                                if m.rounds > 1 and m.optimizer != "noop" else ()):
            out, = _run_round([m], k, idx, spec, theta, d_f, d_pt, stop_rule)
            outcomes[m.name].append(out)
            if isinstance(out, TrainingError):
                break
            theta = out.final_theta
    rows, thetas, trajectories = [], {}, {}
    for method in methods:
        done = [o for o in outcomes[method.name] if not isinstance(o, TrainingError)]
        error = None if len(done) == len(outcomes[method.name]) \
            else outcomes[method.name][-1]
        trajectories[method.name] = done
        status = "ok" if error is None else f"diverged: {error}"
        if error is None:
            theta = done[-1].final_theta if done else \
                np.array(theta_target, dtype=float)
            after = memorization_report(spec, theta, (d_f, d_pt),
                                        prompt_len, completion_len)
            after_d = after.as_dict()
            drift = after.nll_pretrain - before.nll_pretrain
            thetas[method.name] = theta
        else:
            after_d = {k: float("nan") for k in before.as_dict()}
            drift = float("nan")
        rows.append({"name": method.name, "optimizer": method.optimizer,
                     "rounds": method.rounds,
                     "steps": sum(len(t) - 1 for t in done),
                     "exact_match_before": before.exact_match_rate,
                     "exact_match_after": after_d["exact_match_rate"],
                     "lcs_before": before.lcs_ratio,
                     "lcs_after": after_d["lcs_ratio"],
                     "nll_forget_before": before.nll_forget,
                     "nll_forget_after": after_d["nll_forget"],
                     "nll_pretrain_before": before.nll_pretrain,
                     "nll_pretrain_after": after_d["nll_pretrain"],
                     "drift": drift, "status": status})
    return {"check": "unlearn", "before": before.as_dict(), "rows": rows,
            "thetas": thetas, "trajectories": trajectories}


@dataclass
class UnlearnSetup:
    """Frozen testbed for end-to-end unlearning experiments."""

    spec: M.ModelSpec
    theta0: np.ndarray
    d_f: M.TokenDataset
    d_pt: M.TokenDataset
    methods: list
    prompt_len: int = 4
    completion_len: int = 4


def default_unlearn_setup(seed=7):
    """One-hidden-layer testbed: 24 pair-disjoint periodic sequences over
    32 tokens, 6 to forget, memorized to exact recall; a single-pass
    method, a 4-round sequential variant, and a no-op control."""
    corpus = CorpusSpec(vocab_size=32, n_sequences=24, seq_len=8,
                        forget_fraction=0.25, generator="patterned",
                        period=4, seed=seed)
    spec = M.ModelSpec(M.MLP, corpus.vocab_size, context_len=2, hidden_dim=32)
    d_f, d_pt = corpus_datasets(spec, corpus)
    theta0 = build_target(spec, (d_f, d_pt), epochs=8000, seed=seed,
                          lr=1.0, momentum=0.9, prompt_len=4, completion_len=4)
    single = O.MTConfig(eta=0.05, kappa=0.5, alpha=0.5, mu=0.9,
                        T=600, loss=Lmod.LossKind("nlul"),
                        divergence=Dmod.DivergenceKind("kl", 0.1), clip=1.0,
                        batch_forget=32, batch_pretrain=32, seed=123)
    # Each sequential round handles 1-2 sequences, so a gentler loss
    # weight and teacher rate suffice; the aggressive single-pass
    # settings compound restart transients into excess pretrain drift.
    sequential = replace(single, T=200, seed=200, alpha=0.2, kappa=0.2)
    methods = [
        MethodSpec("mt-nlul", "mt-batched", single),
        MethodSpec("mt-nlul-sequential", "mt-batched", sequential, rounds=4),
        MethodSpec("no-op", "noop"),
    ]
    return UnlearnSetup(spec=spec, theta0=theta0, d_f=d_f, d_pt=d_pt,
                        methods=methods, prompt_len=4, completion_len=4)
