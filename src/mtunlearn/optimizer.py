"""Mean-teacher proximal optimizer, its batched variant with norm clipping
and momentum, the exact damped natural-gradient reference trajectory, and
first-order baselines.

Mean-teacher update (full-batch form), starting from theta_{-1} := theta_0
and teacher theta'_0 := theta_0:

    theta_t  = theta_{t-1}
               - eta * grad[ alpha L(theta_{t-1})
                             + D_lam(theta_{t-1}, theta'_{t-1}) ]
               + mu (theta_{t-1} - theta_{t-2})
    theta'_t = (1 - eta kappa) theta'_{t-1} + eta kappa theta_t

Batched form: per step, sample a forget batch and a pretrain batch, form
the same gradient g, compute the clip scale l, then

    v       <- mu v + l g
    theta_t  = theta_{t-1} - eta v
    theta'_t = (1 - l eta kappa) theta'_{t-1} + l eta kappa theta_t

The clip scale l = min(1, c/||g||) applies only to the current step:
clipping acts as a learning-rate reduction, and the teacher rate is
reduced by the same factor.  (The printed form l = 1/max(||g||, c) is the
same function at c = 1.)

Natural-gradient reference with derived constants
gamma = kappa alpha eta / (1 - kappa eta) and
lam_bar = lam + (1 - mu) kappa / (1 - eta kappa), with lam the damping of
the divergence term (cfg.divergence.lam):

    theta_{t+1} = theta_t - gamma (H(theta_t) + lam_bar I)^{-1} grad L

where grad L is evaluated at theta_t by default and at theta_{t-1} when
ngd_grad_lag is set.

mt_ngd_deviations runs many full-batch mean-teacher runs and their
references in lockstep on one stack of parameter vectors, bit for bit
mt_run and ngd_run, and returns only the largest gap between them.
"""

from dataclasses import dataclass, field

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
    ngd_grad_lag: bool = False

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("eta must be positive")
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


def _evaluate(cfg, spec, theta, teacher, fb, pb, base_theta, value, grad):
    """(loss value, damped divergence value, objective gradient) at theta;
    a part not asked for is None, and value-and-gradient takes one
    forward pass per argument.  The objective is alpha L(theta) +
    D_lam(theta, teacher); without a teacher it is L alone and the
    divergence is NaN."""
    loss = div = g = None
    weight = 1.0
    if teacher is None:
        div = float("nan")
    else:
        weight = cfg.alpha
        kind = cfg.divergence
        if value and grad:
            div, g = Dmod.damped_value_and_grad(kind, spec, theta, teacher, pb)
        elif grad:
            g = Dmod.damped_grad(kind, spec, theta, teacher, pb)
        else:
            div = Dmod.damped_value(kind, spec, theta, teacher, pb)
    if grad and weight != 0.0:
        if value:
            loss, g_loss = Lmod.batch_value_and_grad(cfg.loss, spec, theta, fb,
                                                     base_theta=base_theta)
        else:
            g_loss = Lmod.batch_grad(cfg.loss, spec, theta, fb, base_theta=base_theta)
        g = g_loss if g is None else g + weight * g_loss
    if value and loss is None:
        loss = Lmod.batch_loss(cfg.loss, spec, theta, fb, base_theta=base_theta)
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
            fb = self.d_f._take(np.concatenate([self.seq_rows[i] for i in fi]), fi)
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
        if not self.lr >= 0:
            raise ValueError("lr must be nonnegative (0 uses the config eta)")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if len(self.betas) != 2 or not all(0.0 <= b < 1.0 for b in self.betas):
            raise ValueError("betas must be two numbers in [0, 1)")
        if not self.weight_decay >= 0:
            raise ValueError("weight_decay must be nonnegative")


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


def _heavy_ball_step(cfg, theta, prev, g):
    """theta - eta g + mu (theta - theta_prev), row by row for stacks."""
    return theta - cfg.eta * g + cfg.mu * (theta - prev)


class _HeavyBall:
    """Full-batch mean teacher: theta - eta g + mu (theta - theta_prev),
    teacher rate eta kappa."""

    batched, has_teacher = False, True

    def __init__(self, cfg):
        self.cfg, self.prev = cfg, None

    def __call__(self, t, theta, g):
        c = self.cfg
        prev = theta if self.prev is None else self.prev
        self.prev = theta
        return (_heavy_ball_step(c, theta, prev, g), c.eta * c.kappa,
                linalg.norm(g), 1.0)


class _ClippedVelocity:
    """v <- mu v + l g, theta - eta v, teacher rate l eta kappa with the
    clip scale l.  kappa = 0 freezes the teacher at theta_0, which is the
    momentum-SGD baseline."""

    batched, has_teacher = True, True

    def __init__(self, cfg, kappa):
        self.cfg, self.kappa, self.vel = cfg, kappa, 0.0

    def __call__(self, t, theta, g):
        c = self.cfg
        gn = linalg.norm(g)
        l = _clip_scale(c, gn)
        self.vel = c.mu * self.vel + l * g
        return theta - c.eta * self.vel, l * c.eta * self.kappa, gn, l


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
    With ngd_grad_lag the step uses the gradient one iterate back."""

    batched, has_teacher = False, False

    def __init__(self, spec, d_pt, cfg):
        self.spec, self.d_pt, self.lag = spec, d_pt, cfg.ngd_grad_lag
        self.derived = DerivedNGDParams.from_config(cfg)
        self.g_prev = None

    def __call__(self, t, theta, g):
        step_g = g if self.g_prev is None else self.g_prev
        if self.lag:
            self.g_prev = g
        step = _damped_solve(self.spec, theta, self.d_pt, self.derived.lam_bar, step_g)
        return (theta - self.derived.gamma * step, 0.0,
                linalg.norm(step_g), 1.0)


def _run(spec, theta0, d_f, d_pt, cfg, rule, callback):
    """The optimizer loop every run shares.

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
    """
    theta = np.asarray(theta0, dtype=float).copy()
    base_theta = theta.copy()
    if cfg.loss.tag == "npo":
        d_f = Lmod.npo_pairs(spec, d_f, base_theta)
    teacher = theta.copy() if rule.has_teacher else None
    batched = rule.batched
    sampler = _BatchSampler(spec, cfg, d_f, d_pt) if batched else None
    fb, pb = d_f, d_pt
    traj = Trajectory()
    loss, div, g = _evaluate(cfg, spec, theta, teacher, fb, pb, base_theta,
                             True, not batched and cfg.T > 0)
    traj.append(0, 0.0, loss, div, 1.0, None if teacher is None else 0.0)
    if batched and cfg.T > 0:
        fb, pb = sampler.draw()
        g = _evaluate(cfg, spec, theta, teacher, fb, pb, base_theta,
                      False, True)[2]
    for t in range(1, cfg.T + 1):
        theta, rate, grad_norm, l = rule(t, theta, g)
        _check_finite(theta, t)
        if rate:
            teacher = (1.0 - rate) * teacher + rate * theta
        if batched:
            fb, pb = sampler.draw()
        loss, div, g = _evaluate(cfg, spec, theta, teacher, fb, pb, base_theta,
                                 True, t < cfg.T)
        traj.append(t, grad_norm, loss, div, l,
                    None if teacher is None else linalg.norm(theta - teacher))
        if callback is not None and callback(t, theta, teacher):
            break
    traj.final_theta = theta.copy()
    traj.final_teacher = None if teacher is None else teacher.copy()
    return traj


def mt_run(spec, theta0, d_f, d_pt, cfg, callback=None):
    """Full-batch mean-teacher run in the plain (heavy-ball) form: every
    step uses the entire forget and pretrain sets (the deterministic mode
    the trajectory-approximation check needs).  callback observes each
    step and can stop the run early as in mt_run_batched.
    """
    return _run(spec, theta0, d_f, d_pt, cfg, _HeavyBall(cfg), callback)


def mt_run_batched(spec, theta0, d_f, d_pt, cfg, callback=None):
    """Batched mean-teacher run with norm clipping and a momentum buffer.

    Per step the clip scale l reduces both the gradient contribution and
    the teacher rate (kappa <- l kappa for that step only).
    callback(t, theta, teacher), if given, is invoked after each recorded
    step; a truthy return stops the run early.
    """
    return _run(spec, theta0, d_f, d_pt, cfg, _ClippedVelocity(cfg, cfg.kappa),
                callback)


def ngd_run(spec, theta0, d_f, d_pt, cfg, callback=None):
    """Damped natural-gradient reference trajectory (full batch).

    Uses the derived constants gamma and lam_bar; the bigram model runs
    on the block-diagonal solver, other models on the dense assembly.
    It has no teacher: callback(t, theta, None) observes each iterate as
    in mt_run, and the divergence column is NaN.
    """
    return _run(spec, theta0, d_f, d_pt, cfg, _DampedNGD(spec, d_pt, cfg),
                callback)


def mt_ngd_deviations(spec, theta0, d_f, d_pt, cfgs):
    """The largest gap max_t ||theta_mt(t) - theta_ngd(t)|| between mt_run
    and ngd_run from theta0, for each config and both gradient conventions
    of the reference: an array of shape (len(cfgs), 2) whose columns are
    ngd_grad_lag False and True.

    The configs differ only in alpha (> 0) and T; the first supplies every
    other setting.  All 3 len(cfgs) runs advance in lockstep on one stack
    of parameter vectors, ordered by horizon, longest first, so that a run
    leaves the active prefix when its horizon ends.  Each step takes the
    heavy-ball step of every mean teacher, both references' damped steps
    in one solve, one forget-loss gradient over the stack and one
    divergence gradient over the mean teachers.  Every row is bit for bit
    its own mt_run or ngd_run; the iterates are not kept, and the
    Trajectory records, which the gap does not need, are not computed.
    """
    if not all(c.alpha > 0 for c in cfgs):
        raise ValueError("every alpha must be positive")
    cfg = cfgs[0]
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
        g = Lmod.batch_grad(cfg.loss, spec, th.reshape(-1, th.shape[-1]), d_f,
                            base_theta=theta0).reshape(th.shape)
        return g, (Dmod.damped_grad(cfg.divergence, spec, th[:, 0], teacher, d_pt)
                   + alpha[:len(th)] * g[:, 0])

    # Rows per config: mean teacher, reference, lagged reference.
    th = np.tile(theta0, (len(cfgs), 3, 1))
    prev = teacher = th[:, 0]
    g, g_mt = gradients(th, teacher)
    g_lag = g[:, 2]
    rate = cfg.eta * cfg.kappa
    dev = np.zeros((len(cfgs), 2))
    j = sum(n > 0 for n in T)
    for t in range(1, T[0] + 1):
        new = np.empty((j,) + th.shape[1:])
        new[:, 0] = _heavy_ball_step(cfg, th[:j, 0], prev[:j], g_mt[:j])
        step_g = np.stack([g[:j, 1], g_lag[:j]], axis=1)
        new[:, 1:] = th[:j, 1:] - gamma[:j] * _damped_solve(
            spec, th[:j, 1:], d_pt, lam_bar[:j], step_g)
        _check_finite(new, t)
        dev[:j] = np.maximum(dev[:j], linalg.norm(new[:, :1] - new[:, 1:]))
        while j and T[j - 1] == t:
            j -= 1
        if rate:
            teacher = (1.0 - rate) * teacher[:j] + rate * new[:j, 0]
        th, prev, g_lag = new[:j], th[:j, 0], g[:j, 2]
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
    if kind == "momentum-sgd":
        rule = _ClippedVelocity(cfg, 0.0)
    elif kind == "adamw":
        rule = _AdamW(cfg, adam_params or AdamParams())
    else:
        raise ValueError(f"unknown baseline kind: {kind!r}")
    return _run(spec, theta0, d_f, d_pt, cfg, rule, callback)
