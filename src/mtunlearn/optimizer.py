"""Mean-teacher proximal optimizer with norm clipping and momentum (full
batch or on sampled batches), the exact damped natural-gradient reference
trajectory, and first-order baselines.

Mean-teacher update, starting from v_0 := 0 and teacher theta'_0 :=
theta_0.  Per step, form the gradient

    g = grad[ alpha L(theta_{t-1}) + D_lam(theta_{t-1}, theta'_{t-1}) ]

on the full forget and pretrain sets (mt_run) or on a sampled forget
batch and pretrain batch (mt_run_batched), compute the clip scale l, then

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

where grad L is evaluated at theta_t by default and at theta_{t-1} with
ngd_run's grad_lag.

Every run goes through one loop (_run), which advances a list of runs
that draw the same data in lockstep on one stack of parameter vectors:
mt_run, mt_run_batched, ngd_run and baseline_run give it one run, and
lockstep_runs any list of runs, partitioned by the data they draw (the
one lockstep rule), each bit for bit the run alone.
mt_ngd_deviations runs many unclipped full-batch mean-teacher runs and
their references in lockstep, bit for bit mt_run and ngd_run, and
returns only the largest gap between them.
"""

import itertools
from dataclasses import dataclass, field, fields

import numpy as np

from . import curvature
from . import divergence as Dmod
from . import linalg
from . import losses as Lmod
from . import model as M
from .errors import TrainingError


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
        if self.T < 0:
            raise ValueError("T must be nonnegative")
        if not self.clip >= 0:
            raise ValueError("clip must be nonnegative (0 disables)")
        if self.batch_forget < 1 or self.batch_pretrain < 1:
            raise ValueError("batch sizes must be positive")
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
    is the teacher-student distance ||theta_t - theta'_t||, None for a run
    without a teacher.  final_theta and final_teacher are set when the run
    ends; the iterates in between reach a caller only through the run's
    callback.
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
        self.gaps.append(None if gap is None else float(gap))


def _check_finite(theta, t):
    if not np.isfinite(theta).all():
        raise TrainingError(f"non-finite parameters at step {t}")


def _stack(arrays):
    """The kernels' argument for these rows: a single row alone, as a 1-d
    vector (the arithmetic of a solo run), else their stack."""
    return arrays[0] if len(arrays) == 1 else np.stack(arrays)


def _split(x, n):
    """The per-row entries of a kernel result for n rows passed as by
    _stack; n Nones for a result not asked for."""
    if x is None:
        return [None] * n
    return [x] if n == 1 else list(x)


def _plan(rows):
    """The kernel calls that evaluate these rows: per distinct loss kind
    the kind, its rows' indices and whether any of them needs the loss
    gradient; per distinct divergence kind of the rows with a teacher the
    kind and its rows' indices.  A LossKind holds its teacher's arrays and
    cannot key a dict, so a row's loss is keyed by the first equal one."""
    kinds = [r.cfg.loss for r in rows]
    by_loss, by_div = {}, {}
    for i, r in enumerate(rows):
        by_loss.setdefault(kinds.index(r.cfg.loss), []).append(i)
        if r.teacher is not None:
            by_div.setdefault(r.cfg.divergence, []).append(i)
    return ([(rows[idx[0]].cfg.loss, idx,
              any(rows[i].teacher is None or rows[i].cfg.alpha != 0.0 for i in idx))
             for idx in by_loss.values()], list(by_div.items()))


def _evaluate(spec, rows, plan, fb, pb, value, grad):
    """(loss values, damped divergence values, objective gradients) of the
    runs `rows` at their iterates, one list entry per run; a part not
    asked for is None, and value-and-gradient takes one forward pass per
    argument.  A run's objective is alpha L(theta) + D_lam(theta,
    teacher); without a teacher it is L alone and the divergence is NaN.
    Following _plan(rows), one stacked loss call serves each distinct loss
    kind and one stacked divergence call each distinct divergence kind, so
    every run's results are bit for bit those of a call with that run
    alone."""
    n = len(rows)
    loss, div, g = [None] * n, [float("nan")] * n, [None] * n
    th = _stack([r.theta for r in rows])
    losses, divergences = plan
    for kind, idx, loss_grad in losses:
        m = len(idx)
        th_k = th if m == n else _stack([rows[i].theta for i in idx])
        v = gl = None
        if grad and loss_grad:
            if value:
                v, gl = Lmod.batch_value_and_grad(kind, spec, th_k, fb)
            else:
                gl = Lmod.batch_grad(kind, spec, th_k, fb)
        elif value:
            v = Lmod.batch_loss(kind, spec, th_k, fb)
        for i, vi, gi in zip(idx, _split(v, m), _split(gl, m)):
            loss[i], g[i] = vi, gi
    for dk, idx in divergences:
        m = len(idx)
        th_k = th if m == n else _stack([rows[i].theta for i in idx])
        te_k = _stack([rows[i].teacher for i in idx])
        v = gd = None
        if value and grad:
            v, gd = Dmod.damped_value_and_grad(dk, spec, th_k, te_k, pb)
        elif grad:
            gd = Dmod.damped_grad(dk, spec, th_k, te_k, pb)
        else:
            v = Dmod.damped_value(dk, spec, th_k, te_k, pb)
        for i, vi, gi in zip(idx, _split(v, m), _split(gd, m)):
            div[i] = vi
            if grad:
                a = rows[i].cfg.alpha
                g[i] = gi if a == 0.0 else gi + a * g[i]
    return loss, div, g


def _clip_scale(cfg, grad_norm):
    if cfg.clip <= 0 or grad_norm == 0.0:
        return 1.0
    return min(1.0, cfg.clip / grad_norm)


class _BatchSampler:
    """Seeded with-replacement sampler; one forget draw then one pretrain
    draw per step so runs are reproducible from the seed alone.  A batch
    gathers its rows of the datasets' encoded inputs.  An npo forget batch
    holds whole sequences: the forget set is expanded into pairs once, and
    each draw gathers its sequences' pair rows and base log-probabilities."""

    def __init__(self, spec, cfg, d_f, d_pt):
        self.rng = np.random.default_rng(cfg.seed)
        self.cfg = cfg
        self.d_f = d_f
        self.d_pt = d_pt
        self.npo = cfg.loss.tag == "npo"
        if self.npo:
            self.d_f, starts = M.sequence_pairs(spec, d_f)
            self.seq_rows = [np.arange(a, a + len(s) - 1)
                             for a, s in zip(starts, self.d_f.sequences)]
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
# step, and a rule without a teacher optimizes the loss alone.


def _velocity_step(cfg, theta, vel, lg):
    """(theta - eta v, v) with v = mu vel + lg, lg the clipped gradient;
    row by row for stacks."""
    vel = cfg.mu * vel + lg
    return theta - cfg.eta * vel, vel


class _ClippedVelocity:
    """The mean-teacher rule: v <- mu v + l g, theta - eta v, teacher rate
    l eta kappa with the clip scale l.  kappa = 0 freezes the teacher at
    theta_0, which is the momentum-SGD baseline."""

    has_teacher = True

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

    batched, has_teacher = True, True

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
    bigram model on the closed-form block solve, other models on the dense
    assembly.  A stack of parameter vectors (..., dim), with lam_bar a
    number or one per row, is solved row by row: the bigram in one call,
    other models in a loop."""
    if spec.kind == M.BIGRAM:
        return curvature.bigram_damped_solve(spec, theta, d_pt, lam_bar, g)
    if theta.ndim > 1:
        dim, lams = theta.shape[-1], np.broadcast_to(lam_bar, theta.shape[:-1])
        return np.array([_damped_solve(spec, th, d_pt, lam, gi) for th, lam, gi in
                         zip(theta.reshape(-1, dim), lams.ravel(), g.reshape(-1, dim))]
                        ).reshape(theta.shape)
    H = curvature.assemble_gnh(spec, theta, d_pt)
    return linalg.solve_spd(H + lam_bar * np.eye(len(theta)), g)


class _DampedNGD:
    """theta - gamma (H(theta) + lam_bar I)^{-1} g (see _damped_solve).
    With lag the step uses the gradient one iterate back."""

    batched, has_teacher = False, False

    def __init__(self, spec, d_pt, cfg, lag):
        self.spec, self.d_pt, self.lag = spec, d_pt, lag
        self.derived = DerivedNGDParams.from_config(cfg)
        self.g_prev = None

    def __call__(self, t, theta, g):
        step_g = g if self.g_prev is None else self.g_prev
        if self.lag:
            self.g_prev = g
        step = _damped_solve(self.spec, theta, self.d_pt, self.derived.lam_bar, step_g)
        return (theta - self.derived.gamma * step, 0.0,
                linalg.norm(step_g), 1.0)


class _Row:
    """One run of the loop: its config, update rule and callback, its
    iterate, teacher and objective gradient, and its record.  outcome is
    None while the run is live, then its Trajectory or the TrainingError
    that ended it.  Each step makes new iterate and teacher arrays, so a
    callback may keep the ones it is given."""

    def __init__(self, cfg, rule, callback, theta):
        self.cfg, self.rule, self.callback = cfg, rule, callback
        self.theta = theta
        self.teacher = theta if rule.has_teacher else None
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

    def record(self, t, loss, div, g):
        """Append row t and keep g for step t + 1; True when the run ends
        here, at its horizon or because its callback (from t = 1) says so."""
        self.traj.append(t, self.grad_norm, loss, div, self.clip,
                         None if self.teacher is None
                         else linalg.norm(self.theta - self.teacher))
        self.g = g
        stop = t > 0 and self.callback is not None and \
            self.callback(t, self.theta, self.teacher)
        if not (stop or t == self.cfg.T):
            return False
        self.traj.final_theta = self.theta.copy()
        self.traj.final_teacher = None if self.teacher is None else self.teacher.copy()
        self.outcome = self.traj
        return True


def _run(spec, theta0, d_f, d_pt, runs):
    """The optimizer loop every run shares.  `runs` is a list of (cfg,
    rule, callback); they advance in lockstep from theta0, and the loop
    returns per run its Trajectory or the TrainingError that ended it.

    Row t records the state after step t where step t + 1's gradient is
    taken, so one value-and-gradient evaluation serves both (values only
    after the last step).  Full batch: that point is on the full datasets.
    Batched: step t + 1's batch is drawn right after step t, and one more
    draw after the last step supplies row T's batch; row 0 holds values on
    the full datasets, and step 1's gradient is taken alone on batch 1.
    callback(t, theta, teacher), if given, is invoked after each recorded
    step t >= 1 with the iterate and the teacher (None for a run without
    one); the loop never writes into either array, so a callback may keep
    them.  A truthy return stops the run early.

    The runs draw the same data (see lockstep_runs), so one draw per step
    serves all.  Each step evaluates the live runs together (see
    _evaluate), then takes each run's update rule, finiteness check,
    teacher update, record and callback on that run alone, so every run is
    bit for bit the run alone.  A run leaves when its T ends, its callback
    stops it or its iterate turns non-finite; the others go on.
    """
    cfg, rule, _ = runs[0]
    batched = rule.batched
    theta = np.asarray(theta0, dtype=float).copy()
    if cfg.loss.tag == "npo":
        d_f = Lmod.npo_pairs(spec, d_f, theta)
    sampler = _BatchSampler(spec, cfg, d_f, d_pt) if batched else None
    rows = [_Row(c, r, cb, theta) for c, r, cb in runs]
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
        loss, div, g = evaluate(True, (t > 0 or not batched)
                                and any(t < r.cfg.T for r in live))
        live = [r for r, *e in zip(live, loss, div, g) if not r.record(t, *e)]
        if not live:
            break
        if t == 0 and batched:
            fb, pb = sampler.draw()
            for r, g in zip(live, evaluate(False, True)[2]):
                r.g = g
    return [r.outcome for r in rows]


def _solo(spec, theta0, d_f, d_pt, cfg, rule, callback):
    """One run of the loop: its Trajectory, or its TrainingError raised."""
    out, = _run(spec, theta0, d_f, d_pt, [(cfg, rule, callback)])
    if isinstance(out, TrainingError):
        raise out
    return out


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


def mt_run(spec, theta0, d_f, d_pt, cfg, callback=None):
    """Full-batch mean-teacher run: mt_run_batched's rule, clip included,
    with every step on the entire forget and pretrain sets (the
    deterministic mode the trajectory-approximation check needs).
    callback observes each step and can stop the run early as in
    mt_run_batched.
    """
    return _solo(spec, theta0, d_f, d_pt, cfg, _rule("mt", cfg), callback)


def mt_run_batched(spec, theta0, d_f, d_pt, cfg, callback=None):
    """Batched mean-teacher run with norm clipping and a momentum buffer.

    Per step the clip scale l reduces both the gradient contribution and
    the teacher rate (kappa <- l kappa for that step only).
    callback(t, theta, teacher), if given, is invoked after each recorded
    step; a truthy return stops the run early.
    """
    return _solo(spec, theta0, d_f, d_pt, cfg, _rule("mt-batched", cfg), callback)


def ngd_run(spec, theta0, d_f, d_pt, cfg, callback=None, grad_lag=False):
    """Damped natural-gradient reference trajectory (full batch).

    Uses the derived constants gamma and lam_bar; the bigram model runs
    on the block-diagonal solver, other models on the dense assembly.
    With grad_lag each step uses the gradient at the previous iterate.
    It has no teacher: callback(t, theta, None) observes each iterate as
    in mt_run, and the divergence column is NaN.
    """
    return _solo(spec, theta0, d_f, d_pt, cfg, _DampedNGD(spec, d_pt, cfg, grad_lag),
                 callback)


def mt_ngd_deviations(spec, theta0, d_f, d_pt, cfgs):
    """The largest gap max_t ||theta_mt(t) - theta_ngd(t)|| between mt_run
    and ngd_run from theta0, for each config and both gradient conventions
    of the reference: an array of shape (len(cfgs), 2) whose columns are
    grad_lag False and True.

    The configs differ only in alpha (> 0) and T, and do not clip;
    anything else raises ValueError naming the field.  All 3 len(cfgs)
    runs advance in lockstep on one stack of parameter vectors, ordered by
    horizon, longest first, so that a run leaves the active prefix when
    its horizon ends.  Each step takes the velocity step of every mean
    teacher, both references' damped steps in one solve, one forget-loss
    gradient over the stack and one divergence gradient over the mean
    teachers.  Every row is bit for bit its own mt_run or ngd_run; the
    iterates are not kept, and the Trajectory records, which the gap does
    not need, are not computed.
    """
    if not all(c.alpha > 0 for c in cfgs):
        raise ValueError("every alpha must be positive")
    cfg = cfgs[0]
    for f in fields(MTConfig):
        if f.name not in ("alpha", "T") and any(
                getattr(c, f.name) != getattr(cfg, f.name) for c in cfgs):
            raise ValueError(f"configs differ in {f.name}; only alpha and T may")
    if cfg.clip > 0:
        raise ValueError("clip must be 0: the lockstep runs do not clip")
    theta0 = np.asarray(theta0, dtype=float)
    order = sorted(range(len(cfgs)), key=lambda i: -cfgs[i].T)
    T = [cfgs[i].T for i in order]
    derived = [DerivedNGDParams.from_config(cfgs[i]) for i in order]
    alpha = np.array([cfgs[i].alpha for i in order])[:, None]
    gamma = np.array([d.gamma for d in derived])[:, None, None]
    lam_bar = np.array([d.lam_bar for d in derived])[:, None]
    if cfg.loss.tag == "npo":
        d_f = Lmod.npo_pairs(spec, d_f, theta0)

    def gradients(th, teacher):
        """Loss gradients of every row, and the mean teachers' objective
        gradients (divergence plus alpha times loss, as in _evaluate)."""
        g = Lmod.batch_grad(cfg.loss, spec, th.reshape(-1, th.shape[-1]),
                            d_f).reshape(th.shape)
        return g, (Dmod.damped_grad(cfg.divergence, spec, th[:, 0], teacher, d_pt)
                   + alpha[:len(th)] * g[:, 0])

    # Rows per config: mean teacher, reference, lagged reference.
    th = np.tile(theta0, (len(cfgs), 3, 1))
    teacher = th[:, 0]
    vel = np.zeros_like(teacher)
    g, g_mt = gradients(th, teacher)
    g_lag = g[:, 2]
    rate = cfg.eta * cfg.kappa
    dev = np.zeros((len(cfgs), 2))
    # The references' step gradients, and the gaps of the steps not yet
    # folded into dev: they are folded every DEVIATION_CHUNK steps and
    # before a config leaves.
    step_g = np.empty((len(cfgs), 2, len(theta0)))
    gaps = np.empty((DEVIATION_CHUNK,) + step_g.shape)
    k = 0
    j = sum(n > 0 for n in T)
    for t in range(1, T[0] + 1):
        new = np.empty((j,) + th.shape[1:])
        # With the clip off l = 1, and 1.0 * g is g.
        new[:, 0], vel = _velocity_step(cfg, th[:j, 0], vel[:j], g_mt[:j])
        step_g[:j, 0], step_g[:j, 1] = g[:j, 1], g_lag[:j]
        new[:, 1:] = th[:j, 1:] - gamma[:j] * _damped_solve(
            spec, th[:j, 1:], d_pt, lam_bar[:j], step_g[:j])
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


def baseline_run(kind, spec, theta0, d_f, d_pt, cfg, adam_params=None,
                 callback=None):
    """First-order baselines on the same objective, anchored to theta_0.

    kind "momentum-sgd": v <- mu v + l g; theta <- theta - eta v, with the
    divergence reference frozen at theta_0 (a fixed teacher).
    kind "adamw": decoupled-weight-decay Adam with bias correction and the
    staged warmup schedule.
    Both sample batches exactly like the batched mean-teacher run, and
    callback(t, theta, teacher) observes and can stop either just as in
    that run.
    """
    if kind not in ("momentum-sgd", "adamw"):
        raise ValueError(f"unknown baseline kind: {kind!r}")
    return _solo(spec, theta0, d_f, d_pt, cfg, _rule(kind, cfg, adam_params),
                 callback)


def lockstep_runs(spec, theta0, d_f, d_pt, runs):
    """Any number of runs from theta0, those that draw the same data
    advanced in lockstep on one stack of parameter vectors.  `runs` is a
    list of (optimizer, cfg, adam_params, callback), with optimizer one of
    OPTIMIZERS, adam_params used by "adamw" only (None for the defaults)
    and callback as in mt_run_batched.

    The runs are partitioned by the data they draw, which is what
    _BatchSampler and _run's npo expansion read: full batch or batched,
    npo's sequence set or the plain forget set, and for batched runs the
    seed and both batch sizes.  Each partition is one loop (_run);
    within it losses, divergences, update rules and every other setting
    may differ.  Returns per run, in input order, its Trajectory or the
    TrainingError that ended it (the other runs go on); each is bit for
    bit the run alone.
    """
    rows = [(cfg, _rule(opt, cfg, ap), cb) for opt, cfg, ap, cb in runs]
    parts = {}
    for i, (c, rule, _) in enumerate(rows):
        draws = (c.seed, c.batch_forget, c.batch_pretrain) if rule.batched else ()
        parts.setdefault((rule.batched, c.loss.tag == "npo") + draws, []).append(i)
    out = [None] * len(rows)
    for idx in parts.values():
        for i, o in zip(idx, _run(spec, theta0, d_f, d_pt, [rows[i] for i in idx])):
            out[i] = o
    return out
