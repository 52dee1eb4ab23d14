"""Exact curvature machinery: Gauss-Newton matrix assembly, damped
natural-gradient solves, and the damped momentum iteration that tracks
inverse-curvature-vector products.

The curvature matrix of a softmax model on a batch is

    H(theta) = (1/N) sum_x J(x) S(h(x)) J(x)^T,
    S(h) = Diag(p) - p p^T,  p = softmax(h),

assembled densely and exactly (no factored approximations beyond the
algebraic identity S = B B^T used to keep the sum positive
semi-definite in floating point).  For the bigram model H is block
diagonal over table rows, which the solver exploits.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from . import losses as Lmod
from . import model as M

MAX_DENSE_DIM = 4096


@dataclass
class GNHAssembly:
    """Assembled curvature matrix with provenance."""

    H: np.ndarray
    theta_at: np.ndarray
    n_pairs: int
    spec: object = None


def _sqrt_factor(p):
    """B with B B^T = Diag(p) - p p^T, namely Diag(sqrt(p)) - p sqrt(p)^T."""
    s = np.sqrt(p)
    return np.diag(s) - np.outer(p, s)


def assemble_gnh(spec, theta, batch):
    """Dense curvature matrix on the batch contexts at theta.

    Exact symmetric PSD assembly; raises when dim(theta) exceeds the
    dense limit (use a smaller model).
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    dim = M.param_count(spec)
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"dim(theta)={dim} exceeds the dense assembly limit "
                         f"{MAX_DENSE_DIM}; use a smaller model")
    theta = np.asarray(theta, dtype=float)
    V = spec.vocab_size
    N = len(batch)
    H = np.zeros((dim, dim))
    if spec.kind == M.BIGRAM:
        for row, block in bigram_gnh_blocks(spec, theta, batch).items():
            i0 = row * V
            H[i0:i0 + V, i0:i0 + V] = block
    else:
        # Group identical contexts: they share J and S.
        ctxs, counts = np.unique(batch.contexts, axis=0, return_counts=True)
        P = M.softmax_rows(M.batch_logits(spec, theta, ctxs))
        for ctx, cnt, p in zip(ctxs, counts, P):
            J = M.logit_jacobian(spec, theta, ctx)
            Mfac = J @ _sqrt_factor(p)
            H += (cnt / N) * (Mfac @ Mfac.T)
    H = 0.5 * (H + H.T)
    return GNHAssembly(H=H, theta_at=theta.copy(), n_pairs=N, spec=spec)


def bigram_gnh_blocks(spec, theta, batch):
    """Bigram curvature as {table row: (count/N) * S(h_row)} blocks.

    The bigram Jacobian selects one table row per context, so the
    curvature matrix is block diagonal with one softmax-covariance block
    per visited row (rows never visited contribute zero).
    """
    if spec.kind != M.BIGRAM:
        raise ValueError("block assembly applies to the bigram model only")
    V = spec.vocab_size
    table = np.asarray(theta, dtype=float).reshape(V, V)
    rows, counts = np.unique(batch.contexts[:, -1], return_counts=True)
    P = M.softmax_rows(table[rows])
    out = {}
    for r, c, p in zip(rows, counts, P):
        out[int(r)] = (c / len(batch)) * (np.diag(p) - np.outer(p, p))
    return out


def natural_gradient(spec, theta, forget_batch, pretrain_batch, loss, lam_prime,
                     base_theta=None):
    """Damped natural gradient (H(theta) + lam' I)^{-1} grad L(theta).

    The curvature matrix is assembled on the pretrain batch, the loss
    gradient on the forget batch.  lam' must be positive, which makes the
    damped system positive definite.
    """
    if not lam_prime > 0:
        raise ValueError("lam_prime must be positive")
    g = Lmod.batch_grad(loss, spec, theta, forget_batch, base_theta=base_theta)
    asm = assemble_gnh(spec, theta, pretrain_batch)
    A = asm.H + lam_prime * np.eye(asm.H.shape[0])
    return linalg.solve_spd(A, g)


def bigram_damped_solve(spec, theta, pretrain_batch, lam_prime, g):
    """Solve (H(theta) + lam' I) x = g for the bigram model in closed form.

    The block of visited row r is c S(h_r) + lam' I = D - c p p^T with
    c = count/N and D = Diag(c p + lam'): a diagonal minus a rank-one
    term.  Sherman-Morrison solves every visited row at once,

        x = D^-1 g + c (D^-1 p) (p^T D^-1 g) / (1 - c p^T D^-1 p),

    and rows never visited scale by 1/lam'.  The denominator is
    lam' sum_i p_i / (c p_i + lam') > 0 in exact arithmetic; a value that
    is not positive raises.  assemble_gnh plus linalg.solve_spd is the
    dense oracle this matches.
    """
    if not lam_prime > 0:
        raise ValueError("lam_prime must be positive")
    V = spec.vocab_size
    table = np.asarray(theta, dtype=float).reshape(V, V)
    counts = np.bincount(pretrain_batch.contexts[:, -1], minlength=V)
    rows = np.flatnonzero(counts)
    c = (counts[rows] / len(pretrain_batch))[:, None]
    P = M.softmax_rows(table[rows])
    G = np.asarray(g, dtype=float).reshape(V, V)
    X = G / lam_prime
    D = c * P + lam_prime
    Dg = G[rows] / D
    Dp = P / D
    den = lam_prime * Dp.sum(axis=1, keepdims=True)
    if not np.all(den > 0):
        raise ValueError("damped bigram block is not positive definite "
                         f"(Sherman-Morrison denominator {float(den.min()):.3e})")
    X[rows] = Dg + (c * (P * Dg).sum(axis=1, keepdims=True) / den) * Dp
    return X.ravel()


@dataclass
class IHVPConfig:
    """Damped momentum iteration settings.

    eta: step size (must satisfy eta < 1/(max eigenvalue of H + lam)).
    mu: momentum in [0, 1).
    lam: damping > 0.
    T: number of iterations.
    error_injection: optional callable t -> vector giving the per-step
    perturbation eps_t (t = 1..T); None means eps = 0.
    """

    eta: float
    mu: float
    lam: float
    T: int
    error_injection: object = None

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if not (0.0 <= self.mu < 1.0):
            raise ValueError("mu must lie in [0, 1)")
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if self.T < 0:
            raise ValueError("T must be nonnegative")


def ihvp_momentum(H, g, cfg):
    """Damped momentum iteration toward u* = -(H + lam I)^{-1} g.

    Starting from u_0 = u_{-1} = 0, iterate

        u_{t+1} = u_t - (eta g + eta (H + lam I) u_t + eta eps_t)
                  + mu (u_t - u_{t-1}),

    and return (u_T, trace) where trace[t] = ||u_t - u*|| for t = 0..T.
    Raises when the step size violates eta < 1/(lam_max(H) + lam).
    """
    H = linalg.check_symmetric(np.asarray(H, dtype=float))
    g = np.asarray(g, dtype=float)
    dim = len(g)
    Hl = H + cfg.lam * np.eye(dim)
    lam_max = float(np.linalg.eigvalsh(H)[-1])
    if not cfg.eta < 1.0 / (lam_max + cfg.lam):
        raise ValueError(f"step size eta={cfg.eta} violates eta < 1/(lam_max + lam) "
                         f"= {1.0 / (lam_max + cfg.lam):.6g}")
    ustar = -linalg.solve_spd(Hl, g)
    u_prev = np.zeros(dim)
    u = np.zeros(dim)
    trace = [float(np.linalg.norm(u - ustar))]
    for t in range(1, cfg.T + 1):
        eps = np.zeros(dim)
        if cfg.error_injection is not None:
            eps = np.asarray(cfg.error_injection(t), dtype=float)
        u_new = u - (cfg.eta * g + cfg.eta * (Hl @ u) + cfg.eta * eps) + cfg.mu * (u - u_prev)
        u_prev, u = u, u_new
        trace.append(float(np.linalg.norm(u - ustar)))
    return u, trace


def ihvp_error_bound(cfg, u0_dist, eps_norms):
    """Closed-form per-step bound on ||u_t - u*|| for the momentum iteration:

        rate^t * ||u_0 - u*|| + sqrt(2) * max(eta/(1-sqrt(mu)),
                                              (1-mu)/lam) * max_{j<=t} ||eps_j||

    with rate = 1 - min(1 - sqrt(mu), eta lam / (1 - mu)).  Returns the
    list of bounds for t = 0..T (the t = 0 entry is u0_dist itself).
    eps_norms holds ||eps_t|| for t = 1..T.
    """
    rate = 1.0 - min(1.0 - np.sqrt(cfg.mu), cfg.eta * cfg.lam / (1.0 - cfg.mu))
    coef = np.sqrt(2.0) * max(cfg.eta / (1.0 - np.sqrt(cfg.mu)),
                              (1.0 - cfg.mu) / cfg.lam)
    bounds = [u0_dist]
    running_max = 0.0
    for t in range(1, cfg.T + 1):
        running_max = max(running_max, eps_norms[t - 1])
        bounds.append(rate ** t * u0_dist + coef * running_max)
    return bounds


def estimate_regularity_constant(spec, theta_samples, lam_set, forget_batch,
                                 pretrain_batch, loss, divergence_kind=None,
                                 base_theta=None, detail=False):
    """Empirical estimate of the smallest constant bounding four regularity
    quantities over the sample set (reported, never asserted):

      1. ||H_lam'(theta)||                       (operator norm)
      2. ||H_lam'(theta)^{-1} g(theta) - H_lam'(theta')^{-1} g(theta)||
         / ||theta - theta'||                    (solve-map Lipschitz ratio)
      3. ||grad D(theta, theta') - s H(theta)(theta - theta')||
         / ||theta - theta'||^2                  (quadratic remainder)
      4. ||H_lam'(theta)^{-1} g(theta)||         (natural-gradient norm)

    with g = the loss gradient on the forget batch, H assembled on the
    pretrain batch, and s the divergence's second-order coefficient.
    Returns the max over all samples, ordered pairs, and lam' values; with
    detail=True returns a dict of per-quantity maxima instead.
    """
    from . import divergence as Dmod

    if divergence_kind is None:
        divergence_kind = Dmod.DivergenceKind("kl")
    scale = Dmod.CURVATURE_SCALE[divergence_kind.tag]
    thetas = [np.asarray(th, dtype=float) for th in theta_samples]
    if not thetas:
        raise ValueError("need at least one sample point")
    asms = [assemble_gnh(spec, th, pretrain_batch) for th in thetas]
    grads = [Lmod.batch_grad(loss, spec, th, forget_batch, base_theta=base_theta)
             for th in thetas]
    opnorms = [float(np.linalg.eigvalsh(a.H)[-1]) for a in asms]
    eye = np.eye(asms[0].H.shape[0])

    q_opnorm = q_lipschitz = q_remainder = q_ngnorm = 0.0
    for lam_p in lam_set:
        if not lam_p > 0:
            raise ValueError("lam' values must be positive")
        nats = [linalg.solve_spd(a.H + lam_p * eye, g) for a, g in zip(asms, grads)]
        for i in range(len(thetas)):
            q_opnorm = max(q_opnorm, lam_p + opnorms[i])
            q_ngnorm = max(q_ngnorm, float(np.linalg.norm(nats[i])))
            for j in range(len(thetas)):
                if i == j:
                    continue
                diff = thetas[i] - thetas[j]
                dist = float(np.linalg.norm(diff))
                if dist == 0.0:
                    continue
                cross = linalg.solve_spd(asms[j].H + lam_p * eye, grads[i])
                q_lipschitz = max(q_lipschitz,
                                  float(np.linalg.norm(nats[i] - cross)) / dist)
    for i in range(len(thetas)):
        for j in range(len(thetas)):
            if i == j:
                continue
            diff = thetas[i] - thetas[j]
            dist = float(np.linalg.norm(diff))
            if dist == 0.0:
                continue
            grad_d = Dmod.damped_grad(Dmod.DivergenceKind(divergence_kind.tag, 0.0),
                                      spec, thetas[i], thetas[j], pretrain_batch)
            remainder = grad_d - scale * (asms[i].H @ diff)
            q_remainder = max(q_remainder, float(np.linalg.norm(remainder)) / dist ** 2)

    if detail:
        return {"opnorm": q_opnorm, "lipschitz": q_lipschitz,
                "remainder": q_remainder, "ng_norm": q_ngnorm}
    return max(q_opnorm, q_lipschitz, q_remainder, q_ngnorm)
