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

The clip scale applies only to the current step.  Default clip semantics:
l = min(1, c/||g||) (clipping acts as a learning-rate reduction, and the
teacher rate is reduced by the same factor); the alternative printed form
l = 1/max(||g||, c) is available as clip_formula="alg2" (both agree at
c = 1).

Natural-gradient reference with derived constants
gamma = kappa alpha eta / (1 - kappa eta) and
lam_bar = lam + (1 - mu) kappa / (1 - eta kappa):

    theta_{t+1} = theta_t - gamma (H(theta_t) + lam_bar I)^{-1} grad L

where grad L is evaluated at theta_t by default and at theta_{t-1} when
ngd_grad_lag is set.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import curvature
from . import divergence as Dmod
from . import linalg
from . import losses as Lmod
from . import model as M
from .errors import TrainingError

PARAM_STORE_LIMIT = 4096


@dataclass
class MTConfig:
    """Full hyperparameter record for one optimizer run."""

    eta: float
    kappa: float
    alpha: float
    lam: float
    mu: float
    T: int
    loss: Lmod.LossKind
    divergence: Dmod.DivergenceKind
    clip: float = 0.0            # 0 disables clipping
    batch_forget: int = 1
    batch_pretrain: int = 1
    seed: int = 0
    clip_formula: str = "main"   # "main" or "alg2"
    ngd_grad_lag: bool = False

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if not self.eta * self.kappa < 1.0:
            raise ValueError("eta * kappa must be below 1 (teacher update "
                             "must contract)")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if not (0.0 <= self.mu < 1.0):
            raise ValueError("mu must lie in [0, 1)")
        if self.T < 0:
            raise ValueError("T must be nonnegative")
        if self.clip < 0:
            raise ValueError("clip must be nonnegative (0 disables)")
        if self.clip_formula not in ("main", "alg2"):
            raise ValueError(f"unknown clip_formula: {self.clip_formula!r}")
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
        lam_bar = cfg.lam + (1.0 - cfg.mu) * cfg.kappa / (1.0 - cfg.eta * cfg.kappa)
        return cls(gamma=gamma, lam_bar=lam_bar)


@dataclass
class Trajectory:
    """Per-step records of one optimizer run.

    Row 0 describes the initial state (theta_0 = teacher, grad_norm 0,
    clip_scale 1, values on the full datasets); row t >= 1 describes the
    state after step t, with grad_norm and clip_scale of the update that
    produced it and loss/divergence values on the batch that step saw
    (the full datasets in full-batch mode).  Parameter and teacher
    vectors are stored when dim(theta) <= 4096.
    """

    ts: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    loss_values: list = field(default_factory=list)
    divergence_values: list = field(default_factory=list)
    clip_scales: list = field(default_factory=list)
    thetas: list = field(default_factory=list)
    teachers: list = field(default_factory=list)
    batch_log: list = field(default_factory=list)
    final_theta: np.ndarray = None
    final_teacher: np.ndarray = None

    def __len__(self):
        return len(self.ts)

    def append(self, t, grad_norm, loss_value, div_value, clip_scale,
               theta, teacher, store_params):
        self.ts.append(int(t))
        self.grad_norms.append(float(grad_norm))
        self.loss_values.append(float(loss_value))
        self.divergence_values.append(float(div_value))
        self.clip_scales.append(float(clip_scale))
        if store_params:
            self.thetas.append(theta.copy())
            if teacher is not None:
                self.teachers.append(teacher.copy())
        self.final_theta = theta.copy()
        self.final_teacher = None if teacher is None else teacher.copy()


def trajectory_deviation(a, b):
    """max over t of ||theta_t(a) - theta_t(b)||; requires equal lengths
    and stored parameter vectors."""
    if len(a) != len(b):
        raise ValueError(f"trajectory length mismatch: {len(a)} vs {len(b)}")
    if not a.thetas or not b.thetas:
        raise ValueError("both trajectories must store parameter vectors")
    return max(float(np.linalg.norm(x - y)) for x, y in zip(a.thetas, b.thetas))


def _effective_divergence(cfg):
    """The run-level damping lam is authoritative for the divergence term."""
    return Dmod.DivergenceKind(cfg.divergence.tag, cfg.lam)


def _check_finite(theta, t):
    if not np.isfinite(theta).all():
        raise TrainingError(f"non-finite parameters at step {t}")


def _loss_value(cfg, spec, theta, fb, base_theta):
    return Lmod.batch_loss(cfg.loss, spec, theta, fb, base_theta=base_theta)


def _objective_grad(cfg, spec, theta, teacher, fb, pb, base_theta):
    g = Dmod.damped_grad(_effective_divergence(cfg), spec, theta, teacher, pb)
    if cfg.alpha != 0.0:
        g = g + cfg.alpha * Lmod.batch_grad(cfg.loss, spec, theta, fb,
                                            base_theta=base_theta)
    return g


def _objective_terms(cfg, spec, theta, teacher, fb, pb, base_theta):
    """(loss value, damped divergence value, objective gradient) at one
    point, one forward pass per argument; the gradient is bitwise
    _objective_grad's."""
    div, g = Dmod.damped_value_and_grad(_effective_divergence(cfg), spec, theta,
                                        teacher, pb)
    if cfg.alpha != 0.0:
        loss, g_loss = Lmod.batch_value_and_grad(cfg.loss, spec, theta, fb,
                                                 base_theta=base_theta)
        g = g + cfg.alpha * g_loss
    else:
        loss = _loss_value(cfg, spec, theta, fb, base_theta)
    return loss, div, g


def _clip_scale(cfg, grad_norm):
    if cfg.clip <= 0 or grad_norm == 0.0:
        return 1.0
    if cfg.clip_formula == "alg2":
        return 1.0 / max(grad_norm, cfg.clip)
    return min(1.0, cfg.clip / grad_norm)


class _BatchSampler:
    """Seeded with-replacement sampler; one forget draw then one pretrain
    draw per step so runs are reproducible from the seed alone.  An npo
    forget batch holds whole sequences, expanded into pairs once per draw."""

    def __init__(self, spec, cfg, d_f, d_pt):
        self.rng = np.random.default_rng(cfg.seed)
        self.spec = spec
        self.cfg = cfg
        self.d_f = d_f
        self.d_pt = d_pt
        self.npo = cfg.loss.tag == "npo"
        if self.npo and not d_f.sequences:
            raise ValueError("npo runs need forget data carrying whole sequences")

    def draw(self):
        if self.npo:
            n = len(self.d_f.sequences)
            fi = self.rng.integers(0, n, self.cfg.batch_forget)
            fb = M.dataset_from_sequences([self.d_f.sequences[i] for i in fi],
                                          self.spec.context_len)
        else:
            fi = self.rng.integers(0, len(self.d_f), self.cfg.batch_forget)
            fb = self.d_f.subset(fi)
        pi = self.rng.integers(0, len(self.d_pt), self.cfg.batch_pretrain)
        return fi, fb, pi, self.d_pt.subset(pi)


def _init_trajectory(cfg, spec, theta0, d_f, d_pt, base_theta, store_params):
    traj = Trajectory()
    div0 = Dmod.damped_value(_effective_divergence(cfg), spec, theta0, theta0, d_pt)
    loss0 = _loss_value(cfg, spec, theta0, d_f, base_theta)
    traj.append(0, 0.0, loss0, div0, 1.0, theta0, theta0, store_params)
    return traj


def mt_run(spec, theta0, d_f, d_pt, cfg):
    """Full-batch mean-teacher run in the plain (heavy-ball) form: every
    step uses the entire forget and pretrain sets (the deterministic mode
    the trajectory-approximation check needs).

    The values recorded after step t and the gradient of step t + 1 are
    taken at the same point on the same data, so one value-and-gradient
    evaluation serves both.
    """
    theta0 = np.asarray(theta0, dtype=float)
    store = M.param_count(spec) <= PARAM_STORE_LIMIT
    base_theta = theta0.copy()
    traj = Trajectory()
    theta = theta0.copy()
    theta_prev = theta0.copy()
    teacher = theta0.copy()
    loss, div, g = _objective_terms(cfg, spec, theta, teacher, d_f, d_pt, base_theta)
    traj.append(0, 0.0, loss, div, 1.0, theta, teacher, store)
    for t in range(1, cfg.T + 1):
        theta_new = theta - cfg.eta * g + cfg.mu * (theta - theta_prev)
        _check_finite(theta_new, t)
        teacher = (1.0 - cfg.eta * cfg.kappa) * teacher + cfg.eta * cfg.kappa * theta_new
        theta_prev, theta = theta, theta_new
        grad_norm = float(np.linalg.norm(g))
        loss, div, g = _objective_terms(cfg, spec, theta, teacher, d_f, d_pt, base_theta)
        traj.append(t, grad_norm, loss, div, 1.0, theta, teacher, store)
    return traj


def mt_run_batched(spec, theta0, d_f, d_pt, cfg, callback=None):
    """Batched mean-teacher run with norm clipping and a momentum buffer.

    Per step the clip scale l reduces both the gradient contribution and
    the teacher rate (kappa <- l kappa for that step only); batch index
    draws are logged in the trajectory.  callback(t, theta), if given, is
    invoked after each recorded step; a truthy return stops the run early.
    """
    theta0 = np.asarray(theta0, dtype=float)
    store = M.param_count(spec) <= PARAM_STORE_LIMIT
    base_theta = theta0.copy()
    sampler = _BatchSampler(spec, cfg, d_f, d_pt)
    traj = _init_trajectory(cfg, spec, theta0, d_f, d_pt, base_theta, store)
    theta = theta0.copy()
    teacher = theta0.copy()
    vel = np.zeros_like(theta0)
    for t in range(1, cfg.T + 1):
        fi, fb, pi, pb = sampler.draw()
        traj.batch_log.append((fi, pi))
        g = _objective_grad(cfg, spec, theta, teacher, fb, pb, base_theta)
        gn = float(np.linalg.norm(g))
        l = _clip_scale(cfg, gn)
        vel = cfg.mu * vel + l * g
        theta = theta - cfg.eta * vel
        _check_finite(theta, t)
        lek = l * cfg.eta * cfg.kappa
        teacher = (1.0 - lek) * teacher + lek * theta
        traj.append(t, gn, _loss_value(cfg, spec, theta, fb, base_theta),
                    Dmod.damped_value(_effective_divergence(cfg), spec, theta, teacher, pb),
                    l, theta, teacher, store)
        if callback is not None and callback(t, theta):
            break
    return traj


def ngd_run(spec, theta0, d_f, d_pt, cfg):
    """Damped natural-gradient reference trajectory (full batch).

    Uses the derived constants gamma and lam_bar; the bigram model runs
    on the block-diagonal solver, other models on the dense assembly.
    The teacher column holds the iterate itself (the reference has no
    separate teacher); the divergence column is NaN.
    """
    theta0 = np.asarray(theta0, dtype=float)
    store = M.param_count(spec) <= PARAM_STORE_LIMIT
    base_theta = theta0.copy()
    derived = DerivedNGDParams.from_config(cfg)
    traj = Trajectory()
    theta = theta0.copy()
    loss, g = Lmod.batch_value_and_grad(cfg.loss, spec, theta, d_f, base_theta=base_theta)
    traj.append(0, 0.0, loss, float("nan"), 1.0, theta, None, store)
    g_prev = g
    for t in range(1, cfg.T + 1):
        # The lagged reference steps with the gradient one iterate back.
        step_g = g_prev if cfg.ngd_grad_lag else g
        if spec.kind == M.BIGRAM:
            step = curvature.bigram_damped_solve(spec, theta, d_pt, derived.lam_bar, step_g)
        else:
            asm = curvature.assemble_gnh(spec, theta, d_pt)
            step = linalg.solve_spd(asm.H + derived.lam_bar * np.eye(len(theta)), step_g)
        theta = theta - derived.gamma * step
        _check_finite(theta, t)
        g_prev = g
        loss, g = Lmod.batch_value_and_grad(cfg.loss, spec, theta, d_f, base_theta=base_theta)
        traj.append(t, float(np.linalg.norm(step_g)), loss,
                    float("nan"), 1.0, theta, None, store)
    return traj


@dataclass
class AdamParams:
    """Adam-style baseline settings; lr defaults to the config eta."""

    lr: float = 0.0
    betas: tuple = (0.9, 0.95)
    eps: float = 1e-8
    weight_decay: float = 0.0
    warmup: bool = True


def _warmup_lr(base_lr, t, warmup):
    """First 100 steps at 10% of lr, next 100 ramping linearly to lr."""
    if not warmup:
        return base_lr
    if t <= 100:
        return 0.1 * base_lr
    if t <= 200:
        return base_lr * (0.1 + 0.9 * (t - 100) / 100.0)
    return base_lr


def baseline_run(kind, spec, theta0, d_f, d_pt, cfg, adam_params=None,
                 callback=None):
    """First-order baselines on the same objective, anchored to theta_0.

    kind "momentum-sgd": v <- mu v + l g; theta <- theta - eta v, with the
    divergence reference frozen at theta_0 (a fixed teacher).
    kind "adamw": decoupled-weight-decay Adam with bias correction and the
    staged warmup schedule.
    Both sample batches exactly like the batched mean-teacher run, and
    callback(t, theta) can stop either early just as in that run.
    """
    if kind not in ("momentum-sgd", "adamw"):
        raise ValueError(f"unknown baseline kind: {kind!r}")
    theta0 = np.asarray(theta0, dtype=float)
    store = M.param_count(spec) <= PARAM_STORE_LIMIT
    base_theta = theta0.copy()
    anchor = theta0.copy()
    sampler = _BatchSampler(spec, cfg, d_f, d_pt)
    traj = _init_trajectory(cfg, spec, theta0, d_f, d_pt, base_theta, store)
    theta = theta0.copy()
    vel = np.zeros_like(theta0)
    m = np.zeros_like(theta0)
    v2 = np.zeros_like(theta0)
    ap = adam_params or AdamParams()
    lr = ap.lr if ap.lr > 0 else cfg.eta
    b1, b2 = ap.betas
    for t in range(1, cfg.T + 1):
        fi, fb, pi, pb = sampler.draw()
        traj.batch_log.append((fi, pi))
        g = _objective_grad(cfg, spec, theta, anchor, fb, pb, base_theta)
        gn = float(np.linalg.norm(g))
        if kind == "momentum-sgd":
            l = _clip_scale(cfg, gn)
            vel = cfg.mu * vel + l * g
            theta = theta - cfg.eta * vel
        else:
            l = 1.0
            lr_t = _warmup_lr(lr, t, ap.warmup)
            m = b1 * m + (1.0 - b1) * g
            v2 = b2 * v2 + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v2 / (1.0 - b2 ** t)
            theta = theta - lr_t * (m_hat / (np.sqrt(v_hat) + ap.eps)
                                    + ap.weight_decay * theta)
        _check_finite(theta, t)
        traj.append(t, gn, _loss_value(cfg, spec, theta, fb, base_theta),
                    Dmod.damped_value(_effective_divergence(cfg), spec, theta, anchor, pb),
                    l, theta, anchor, store)
        if callback is not None and callback(t, theta):
            break
    return traj


def config_with(cfg, **kw):
    """Copy of cfg with the given fields replaced (validation re-runs)."""
    return replace(cfg, **kw)
