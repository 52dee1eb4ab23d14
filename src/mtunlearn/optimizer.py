"""Mean-teacher proximal optimizer with norm clipping and momentum (full
batch or on sampled batches), first-order baselines, and the gap of the
mean teacher to the exact damped natural-gradient reference trajectory.

Mean-teacher update, starting from v_0 := 0 and teacher theta'_0 :=
theta_0.  Per step, form the gradient

    g = grad[ alpha L(theta_{t-1}) + D_lam(theta_{t-1}, theta'_{t-1}) ]

on the full forget and pretrain sets (optimizer "mt") or on a sampled
forget batch and pretrain batch ("mt-batched"), compute the clip scale l,
then

    v       <- mu v + l g
    theta_t  = theta_{t-1} - eta v
    theta'_t = (1 - l eta kappa) theta'_{t-1} + l eta kappa theta_t

The clip scale l = min(1, c/||g||) applies only to the current step:
clipping acts as a learning-rate reduction, and the teacher rate is
reduced by the same factor.  (The printed form l = 1/max(||g||, c) is the
same function at c = 1.)  At l = 1 the step is the heavy-ball form the
theory states, theta_t = theta_{t-1} - eta g + mu (theta_{t-1} -
theta_{t-2}) with theta_{-1} := theta_0, in a different float order.

Natural-gradient reference with derived constants
gamma = kappa alpha eta / (1 - kappa eta) and
lam_bar = lam + (1 - mu) kappa / (1 - eta kappa), with lam the damping of
the divergence term (cfg.divergence.lam):

    theta_{t+1} = theta_t - gamma (H(theta_t) + lam_bar I)^{-1} grad L

where grad L is evaluated at theta_t, or at theta_{t-1} with the
gradient lag.

Every run has a teacher and goes through one loop (_run), which advances
a list of runs that draw the same data in lockstep on one stack of
parameter vectors.  lockstep_runs, the one public run entry, takes any
list of runs, one run included, and partitions it by the data the runs
draw (the one lockstep rule), each bit for bit the run alone.  One
observer per call sees each partition's stacks of iterates and teachers
at every recorded step, and may end any of its runs there.
mt_ngd_deviations runs one unclipped full-batch config's mean-teacher
runs and references over a grid of loss weights and horizons in
lockstep, each mean teacher bit for bit its "mt" run alone, and returns
only the largest gap between them; every reference shares the one
damping lam_bar.
"""

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from . import curvature
from . import divergence as Dmod
from . import linalg
from . import losses as Lmod
from . import model as M
from .errors import TrainingError


# The cap on batch_forget and batch_pretrain: each step gathers a batch
# of that many rows for the runs of a loop.  The shipped configs use at
# most 32.
MAX_BATCH = 65_536

# The step cap: the most steps a run (T), a target's training (epochs) or
# a check's iteration takes, about 200 times the 4 776 steps of the
# longest default theorem1 horizon.
MAX_STEPS = 1_000_000


@dataclass
class MTConfig:
    """Full hyperparameter record for one optimizer run; the damping lam
    of the proximity term is divergence.lam."""

    eta: float
    kappa: float
    alpha: float
    mu: float
    T: int
    loss: Lmod.LossKind
    divergence: Dmod.DivergenceKind
    clip: float = 0.0            # 0 disables clipping
    batch_forget: int = 1
    batch_pretrain: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.eta < np.inf:
            raise ValueError("eta must be positive and finite")
        if not self.kappa >= 0:
            raise ValueError("kappa must be nonnegative")
        if not self.eta * self.kappa < 1.0:
            raise ValueError("eta * kappa must be below 1 (teacher update "
                             "must contract)")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if not (0.0 <= self.mu < 1.0):
            raise ValueError("mu must lie in [0, 1)")
        if not 0 <= self.T <= MAX_STEPS:
            raise ValueError(f"T must be nonnegative and at most the step cap "
                             f"{MAX_STEPS}, got {self.T}")
        if not self.clip >= 0:
            raise ValueError("clip must be nonnegative (0 disables)")
        for name in ("batch_forget", "batch_pretrain"):
            if not 1 <= getattr(self, name) <= MAX_BATCH:
                raise ValueError(f"{name} must lie in [1, {MAX_BATCH}], the "
                                 f"cap, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class DerivedNGDParams:
    """Reference-trajectory constants derived from an MTConfig."""

    gamma: float
    lam_bar: float

    @classmethod
    def from_config(cls, cfg):
        gamma = cfg.kappa * cfg.alpha * cfg.eta / (1.0 - cfg.kappa * cfg.eta)
        lam_bar = cfg.divergence.lam + (1.0 - cfg.mu) * cfg.kappa / (1.0 - cfg.eta * cfg.kappa)
        return cls(gamma=gamma, lam_bar=lam_bar)


@dataclass
class Trajectory:
    """Per-step records of one optimizer run.

    Row 0 describes the initial state (theta_0 = teacher, grad_norm 0,
    clip_scale 1, gap 0, values on the full datasets); row t >= 1
    describes the state after step t, with grad_norm and clip_scale of the
    update that produced it.  Its loss/divergence values are taken where
    step t + 1's gradient is: on the full datasets in full-batch mode, on
    the next batch drawn in batched mode (after the last step, one extra
    draw), which is independent of the batch that produced theta_t.  gap
    is the teacher-student distance ||theta_t - theta'_t||.  final_theta
    and final_teacher are set when the run ends; the iterates in between
    reach a caller only through lockstep_runs' observer.
    """

    ts: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    loss_values: list = field(default_factory=list)
    divergence_values: list = field(default_factory=list)
    clip_scales: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    final_theta: np.ndarray = None
    final_teacher: np.ndarray = None

    def __len__(self):
        return len(self.ts)

    def append(self, t, grad_norm, loss_value, div_value, clip_scale, gap):
        self.ts.append(int(t))
        self.grad_norms.append(float(grad_norm))
        self.loss_values.append(float(loss_value))
        self.divergence_values.append(float(div_value))
        self.clip_scales.append(float(clip_scale))
        self.gaps.append(float(gap))


def _check_finite(theta, t):
    if not np.isfinite(theta).all():
        raise TrainingError(f"non-finite parameters at step {t}")


def _plan(rows):
    """The kernel calls that evaluate these rows: per distinct loss kind
    the kind, its rows' indices and whether any of them needs the loss
    gradient; per distinct divergence kind the kind and its rows' indices.
    A LossKind holds its teacher's arrays and cannot key a dict, so a
    row's loss is keyed by the first equal one."""
    kinds = [r.cfg.loss for r in rows]
    by_loss, by_div = {}, {}
    for i, r in enumerate(rows):
        by_loss.setdefault(kinds.index(r.cfg.loss), []).append(i)
        by_div.setdefault(r.cfg.divergence, []).append(i)
    return ([(rows[idx[0]].cfg.loss, idx, any(rows[i].cfg.alpha != 0.0 for i in idx))
             for idx in by_loss.values()], list(by_div.items()))


def _evaluate(spec, rows, plan, fb, pb, value, grad):
    """(loss values, damped divergence values, objective gradients) of the
    runs `rows` at their iterates, one list entry per run; a part not
    asked for is None, and value-and-gradient takes one forward pass per
    argument.  A run's objective is alpha L(theta) + D_lam(theta,
    teacher).  The kernels always get the (n, dim) stack of the rows'
    iterates, or of a kind's subset of them: following _plan(rows), one
    stacked loss call serves each distinct loss kind and one stacked
    divergence call each distinct divergence kind, and a run's results
    are its row of each, bit for bit those of a call with that run
    alone.  The stack of the iterates comes first in the result."""
    n = len(rows)
    loss, div, g = [None] * n, [None] * n, [None] * n
    th = np.stack([r.theta for r in rows])
    losses, divergences = plan
    for kind, idx, loss_grad in losses:
        th_k = th if len(idx) == n else th[idx]
        v = gl = None
        if grad and loss_grad:
            if value:
                v, gl = Lmod.batch_value_and_grad(kind, spec, th_k, fb)
            else:
                gl = Lmod.batch_grad(kind, spec, th_k, fb)
        elif value:
            v = Lmod.batch_loss(kind, spec, th_k, fb)
        for j, i in enumerate(idx):
            loss[i] = None if v is None else v[j]
            g[i] = None if gl is None else gl[j]
    for dk, idx in divergences:
        th_k = th if len(idx) == n else th[idx]
        te_k = np.stack([rows[i].teacher for i in idx])
        v = gd = None
        if value and grad:
            v, gd = Dmod.damped_value_and_grad(dk, spec, th_k, te_k, pb)
        elif grad:
            gd = Dmod.damped_grad(dk, spec, th_k, te_k, pb)
        else:
            v = Dmod.damped_value(dk, spec, th_k, te_k, pb)
        for j, i in enumerate(idx):
            div[i] = None if v is None else v[j]
            if grad:
                a = rows[i].cfg.alpha
                g[i] = gd[j] if a == 0.0 else gd[j] + a * g[i]
    return th, loss, div, g


def _clip_scale(cfg, grad_norm):
    if cfg.clip <= 0 or grad_norm == 0.0:
        return 1.0
    return min(1.0, cfg.clip / grad_norm)


class _BatchSampler:
    """Seeded with-replacement sampler; one forget draw then one pretrain
    draw per step so runs are reproducible from the seed alone.  A batch
    gathers its rows of the datasets' encoded inputs.  An npo forget batch
    holds whole sequences: each draw gathers the pair rows and base
    log-probabilities of its sequences from the forget set."""

    def __init__(self, spec, cfg, d_f, d_pt):
        self.rng = np.random.default_rng(cfg.seed)
        self.cfg = cfg
        self.d_f = d_f
        self.d_pt = d_pt
        self.npo = cfg.loss.tag == "npo"
        if self.npo:
            self.seq_rows = [np.arange(a, a + len(s) - 1) for a, s in
                             zip(M.sequence_starts(spec, d_f), d_f.sequences)]
        for ds in (self.d_f, d_pt):
            ds.inputs(spec)

    def draw(self):
        if self.npo:
            fi = self.rng.integers(0, len(self.seq_rows), self.cfg.batch_forget)
            fb = self.d_f.subset(np.concatenate([self.seq_rows[i] for i in fi]), fi)
        else:
            fb = self.d_f.subset(
                self.rng.integers(0, len(self.d_f), self.cfg.batch_forget))
        pi = self.rng.integers(0, len(self.d_pt), self.cfg.batch_pretrain)
        return fb, self.d_pt.subset(pi)


@dataclass
class AdamParams:
    """Adam-style baseline settings; lr defaults to the config eta."""

    lr: float = 0.0
    betas: tuple = (0.9, 0.95)
    eps: float = 1e-8
    weight_decay: float = 0.0
    warmup: bool = True

    def __post_init__(self):
        if not 0 <= self.lr < np.inf:
            raise ValueError("lr must be nonnegative and finite (0 uses the "
                             "config eta)")
        if not 0 < self.eps < np.inf:
            raise ValueError("eps must be positive and finite")
        if len(self.betas) != 2 or not all(0.0 <= b < 1.0 for b in self.betas):
            raise ValueError("betas must be two numbers in [0, 1)")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError("weight_decay must be nonnegative and finite")


def _warmup_lr(base_lr, t, warmup):
    """First 100 steps at 10% of lr, next 100 ramping linearly to lr."""
    if not warmup:
        return base_lr
    if t <= 100:
        return 0.1 * base_lr
    if t <= 200:
        return base_lr * (0.1 + 0.9 * (t - 100) / 100.0)
    return base_lr


# Update rules: rule(t, theta, g), with g the objective gradient at theta,
# returns (new theta, teacher rate r, gradient norm to record, clip scale)
# and keeps its own state; the loop then moves the teacher to
# (1 - r) teacher + r theta.  `batched` makes the loop draw a batch per
# step.


def _velocity_step(cfg, theta, vel, lg):
    """(theta - eta v, v) with v = mu vel + lg, lg the clipped gradient;
    row by row for stacks."""
    vel = cfg.mu * vel + lg
    return theta - cfg.eta * vel, vel


class _ClippedVelocity:
    """The mean-teacher rule: v <- mu v + l g, theta - eta v, teacher rate
    l eta kappa with the clip scale l.  kappa = 0 freezes the teacher at
    theta_0, which is the momentum-SGD baseline."""

    def __init__(self, cfg, kappa, batched):
        self.cfg, self.kappa, self.batched, self.vel = cfg, kappa, batched, 0.0

    def __call__(self, t, theta, g):
        c = self.cfg
        gn = linalg.norm(g)
        l = _clip_scale(c, gn)
        theta, self.vel = _velocity_step(c, theta, self.vel, l * g)
        return theta, l * c.eta * self.kappa, gn, l


class _AdamW:
    """Decoupled-weight-decay Adam with bias correction and the staged
    warmup schedule; the teacher stays at theta_0."""

    batched = True

    def __init__(self, cfg, ap):
        self.ap, self.lr = ap, ap.lr if ap.lr > 0 else cfg.eta
        self.m = self.v2 = 0.0

    def __call__(self, t, theta, g):
        ap = self.ap
        b1, b2 = ap.betas
        lr_t = _warmup_lr(self.lr, t, ap.warmup)
        self.m = b1 * self.m + (1.0 - b1) * g
        self.v2 = b2 * self.v2 + (1.0 - b2) * g * g
        m_hat = self.m / (1.0 - b1 ** t)
        v_hat = self.v2 / (1.0 - b2 ** t)
        theta_new = theta - lr_t * (m_hat / (np.sqrt(v_hat) + ap.eps)
                                    + ap.weight_decay * theta)
        return theta_new, 0.0, linalg.norm(g), 1.0


def _damped_solve(spec, theta, d_pt, lam_bar, g):
    """(H(theta) + lam_bar I)^{-1} g with H on the pretrain data: the
    bigram model on the closed-form block solve, other models through
    the curvature factor (curvature.gnh_damped_solve).  A stack of
    parameter vectors (..., dim) is solved in one call with the one
    damping lam_bar, each row bit for bit its one-row call."""
    solve = (curvature.bigram_damped_solve if spec.kind == M.BIGRAM
             else curvature.gnh_damped_solve)
    return solve(spec, theta, d_pt, lam_bar, g)


class _Row:
    """One run of the loop: its index in lockstep_runs' list, config and
    update rule, its iterate, teacher and objective gradient, and its
    record.  outcome is None while the run is live, then its Trajectory
    or the TrainingError that ended it."""

    def __init__(self, index, cfg, rule, theta):
        self.index, self.cfg, self.rule = index, cfg, rule
        self.theta = self.teacher = theta
        self.g, self.grad_norm, self.clip = None, 0.0, 1.0
        self.traj, self.outcome = Trajectory(), None

    def step(self, t):
        theta, rate, self.grad_norm, self.clip = self.rule(t, self.theta, self.g)
        try:
            _check_finite(theta, t)
        except TrainingError as exc:
            self.outcome = exc
            return
        self.theta = theta
        if rate:
            self.teacher = (1.0 - rate) * self.teacher + rate * theta

    def record(self, t, loss, div, g, stop):
        """Append row t and keep g for step t + 1; True when the run ends
        here, at its horizon or because the observer says so."""
        self.traj.append(t, self.grad_norm, loss, div, self.clip,
                         linalg.norm(self.theta - self.teacher))
        self.g = g
        if not (stop or t == self.cfg.T):
            return False
        self.traj.final_theta = self.theta.copy()
        self.traj.final_teacher = self.teacher.copy()
        self.outcome = self.traj
        return True


def _run(spec, theta0, d_f, d_pt, runs, observe=None):
    """The optimizer loop every run shares.  `runs` is a list of (index,
    cfg, rule); they advance in lockstep from theta0, and the loop
    returns per run its Trajectory or the TrainingError that ended it.

    Row t records the state after step t where step t + 1's gradient is
    taken, so one value-and-gradient evaluation serves both (values only
    after the last step).  Full batch: that point is on the full datasets.
    Batched: step t + 1's batch is drawn right after step t, and one more
    draw after the last step supplies row T's batch; row 0 holds values on
    the full datasets, and step 1's gradient is taken alone on batch 1.
    observe(t, indices, thetas, teachers), if given, is called once per
    recorded row t, t = 0 included, with the indices of the live runs
    and the (n, dim) stacks of their iterates and teachers, fresh arrays
    the loop never writes into; a true entry of its return (None stops
    nothing) ends that run at row t.

    The runs draw the same data (see lockstep_runs), so one draw per step
    serves all.  Each step evaluates the live runs together on the stack
    of their iterates, one row each, a lone run included (see _evaluate),
    then takes each run's update rule, finiteness check, teacher update
    and record on that run alone, so every run is bit for bit the run
    alone.  A run leaves when its T ends, the observer stops it or its
    iterate turns non-finite; the others go on.
    """
    _, cfg, rule = runs[0]
    batched = rule.batched
    theta = np.asarray(theta0, dtype=float).copy()
    if cfg.loss.tag == "npo":
        d_f = Lmod.npo_pairs(spec, d_f, theta)
    sampler = _BatchSampler(spec, cfg, d_f, d_pt) if batched else None
    rows = [_Row(i, c, r, theta) for i, c, r in runs]
    live, fb, pb, plans = rows, d_f, d_pt, {}

    def evaluate(value, grad):
        """_evaluate on the live rows and the current batches, planned once
        per live set: rows only leave, so their number names the set."""
        if len(live) not in plans:
            plans[len(live)] = _plan(live)
        return _evaluate(spec, live, plans[len(live)], fb, pb, value, grad)

    for t in itertools.count():
        if t:
            for r in live:
                r.step(t)
            live = [r for r in live if r.outcome is None]
            if not live:
                break
            if batched:
                fb, pb = sampler.draw()
        th, loss, div, g = evaluate(True, (t > 0 or not batched)
                                    and any(t < r.cfg.T for r in live))
        stop = observe and observe(t, [r.index for r in live], th,
                                   np.stack([r.teacher for r in live]))
        if stop is None:
            stop = [False] * len(live)
        live = [r for r, *e in zip(live, loss, div, g, stop) if not r.record(t, *e)]
        if not live:
            break
        if t == 0 and batched:
            fb, pb = sampler.draw()
            for r, g in zip(live, evaluate(False, True)[3]):
                r.g = g
    return [r.outcome for r in rows]


# mt_ngd_deviations takes the norms of its gaps in stacks of this many
# steps.
DEVIATION_CHUNK = 16

# The optimizers a run can use, each named after its update rule.
OPTIMIZERS = ("mt", "mt-batched", "momentum-sgd", "adamw")


def _rule(optimizer, cfg, adam_params=None):
    """The update rule of an optimizer, one of OPTIMIZERS."""
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer: {optimizer!r}")
    if optimizer == "adamw":
        return _AdamW(cfg, adam_params or AdamParams())
    return _ClippedVelocity(cfg, 0.0 if optimizer == "momentum-sgd" else cfg.kappa,
                            batched=optimizer != "mt")


def mt_ngd_deviations(spec, theta0, d_f, d_pt, cfg, alphas, Ts):
    """The largest gap max_t ||theta_mt(t) - theta_ngd(t)|| between the
    full-batch mean teacher and the damped natural-gradient reference from
    theta0, for each loss weight alphas[i] (> 0) with horizon Ts[i] and
    both gradient conventions of the reference: an array of shape
    (len(alphas), 2) whose columns are without and with the gradient lag.
    Run i is cfg with alpha alphas[i] and T Ts[i]; cfg must not clip
    (ValueError).

    Only the reference step gamma = kappa alpha eta / (1 - kappa eta)
    depends on alpha: every reference solves with the one damping lam_bar
    of cfg.  All 3 len(alphas) runs advance in lockstep on one stack of
    parameter vectors, ordered by horizon, longest first, so that a run
    leaves the active prefix when its horizon ends.  Each step takes the
    velocity step of every mean teacher, both references' damped steps in
    one solve, one forget-loss gradient over the stack and one divergence
    gradient over the mean teachers.  Every mean teacher is bit for bit
    its "mt" run alone, and every reference the plain loop theta <- theta
    - gamma _damped_solve(theta, grad L); the iterates are not kept, and
    the Trajectory records, which the gap does not need, are not
    computed.
    """
    if len(alphas) != len(Ts):
        raise ValueError("alphas and Ts must have the same length")
    if not all(a > 0 for a in alphas):
        raise ValueError("every alpha must be positive")
    if cfg.clip > 0:
        raise ValueError("clip must be 0: the lockstep runs do not clip")
    theta0 = np.asarray(theta0, dtype=float)
    order = sorted(range(len(Ts)), key=lambda i: -Ts[i])
    T = [Ts[i] for i in order]
    alpha = np.array([alphas[i] for i in order])[:, None]
    # replace checks each alpha and T as a run's config would.
    gamma = np.array([DerivedNGDParams.from_config(
        replace(cfg, alpha=alphas[i], T=Ts[i])).gamma for i in order])[:, None, None]
    lam_bar = DerivedNGDParams.from_config(cfg).lam_bar
    if cfg.loss.tag == "npo":
        d_f = Lmod.npo_pairs(spec, d_f, theta0)

    def gradients(th, teacher):
        """Loss gradients of every row, and the mean teachers' objective
        gradients (divergence plus alpha times loss, as in _evaluate)."""
        g = Lmod.batch_grad(cfg.loss, spec, th.reshape(-1, th.shape[-1]),
                            d_f).reshape(th.shape)
        return g, (Dmod.damped_grad(cfg.divergence, spec, th[:, 0], teacher, d_pt)
                   + alpha[:len(th)] * g[:, 0])

    # Rows per alpha: mean teacher, reference, lagged reference.
    th = np.tile(theta0, (len(T), 3, 1))
    teacher = th[:, 0]
    vel = np.zeros_like(teacher)
    # The first step's gradients; a call whose horizons are all 0 takes
    # none.
    j = sum(n > 0 for n in T)
    if j:
        g, g_mt = gradients(th, teacher)
        g_lag = g[:, 2]
    rate = cfg.eta * cfg.kappa
    dev = np.zeros((len(T), 2))
    # The references' step gradients, and the gaps of the steps not yet
    # folded into dev: they are folded every DEVIATION_CHUNK steps and
    # before an alpha's runs leave.
    step_g = np.empty((len(T), 2, len(theta0)))
    gaps = np.empty((DEVIATION_CHUNK,) + step_g.shape)
    k = 0
    for t in range(1, T[0] + 1):
        new = np.empty((j,) + th.shape[1:])
        # With the clip off l = 1, and 1.0 * g is g.
        new[:, 0], vel = _velocity_step(cfg, th[:j, 0], vel[:j], g_mt[:j])
        step_g[:j, 0], step_g[:j, 1] = g[:j, 1], g_lag[:j]
        new[:, 1:] = th[:j, 1:] - gamma[:j] * _damped_solve(
            spec, th[:j, 1:], d_pt, lam_bar, step_g[:j])
        _check_finite(new, t)
        np.subtract(new[:, :1], new[:, 1:], out=gaps[k, :j])
        k += 1
        if k == DEVIATION_CHUNK or T[j - 1] == t:
            dev[:j] = np.maximum(dev[:j], linalg.norm(gaps[:k, :j]).max(axis=0))
            k = 0
        while j and T[j - 1] == t:
            j -= 1
        if rate:
            teacher = (1.0 - rate) * teacher[:j] + rate * new[:j, 0]
        th, g_lag = new[:j], g[:j, 2]
        if j:
            g, g_mt = gradients(th, teacher[:j])
    out = np.empty_like(dev)
    out[order] = dev
    return out


def lockstep_runs(spec, theta0, d_f, d_pt, runs, observe=None):
    """Any number of runs from theta0, those that draw the same data
    advanced in lockstep on one stack of parameter vectors.  `runs` is a
    list of (optimizer, cfg, adam_params), with optimizer one of
    OPTIMIZERS and adam_params used by "adamw" only (None for the
    defaults).  observe(t, indices, thetas, teachers), if given, watches
    every partition: it is called once per recorded row t of each, t = 0
    included, with the indices into `runs` of its live runs and the
    (n, dim) stacks of their iterates and teachers, and a true entry of
    its return ends that run at row t (see _run).

    The runs are partitioned by the data they draw, which is what
    _BatchSampler and _run's npo expansion read: full batch or batched,
    npo's sequence set or the plain forget set, and for batched runs the
    seed and both batch sizes.  Each partition is one loop (_run), run
    one after another; within it losses, divergences, update rules and
    every other setting may differ.  Returns per run, in input order, its
    Trajectory or the TrainingError that ended it (the other runs go on);
    each is bit for bit the run alone.
    """
    rows = [(cfg, _rule(opt, cfg, ap)) for opt, cfg, ap in runs]
    parts = {}
    for i, (c, rule) in enumerate(rows):
        draws = (c.seed, c.batch_forget, c.batch_pretrain) if rule.batched else ()
        parts.setdefault((rule.batched, c.loss.tag == "npo") + draws, []).append(i)
    out = [None] * len(rows)
    for idx in parts.values():
        for i, o in zip(idx, _run(spec, theta0, d_f, d_pt,
                                  [(i, *rows[i]) for i in idx], observe)):
            out[i] = o
    return out
