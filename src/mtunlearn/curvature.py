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
from . import model as M

MAX_DENSE_DIM = 4096


def assemble_gnh(spec, theta, batch):
    """Dense curvature matrix on the batch contexts at theta.

    Exact symmetric PSD assembly F^T F: F stacks sqrt(count/N) B^T J over
    the distinct contexts, with J their logit Jacobians (one backprop for
    all of them) and B^T = Diag(sqrt p) - sqrt(p) p^T, so that
    B B^T = Diag(p) - p p^T.  Raises when dim(theta) exceeds the dense
    limit (use a smaller model).
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    dim = M.param_count(spec)
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"dim(theta)={dim} exceeds the dense assembly limit "
                         f"{MAX_DENSE_DIM}; use a smaller model")
    theta = np.asarray(theta, dtype=float)
    # Group identical contexts: they share J and S.
    ctxs, counts = np.unique(batch.contexts, axis=0, return_counts=True)
    P = M.softmax_rows(M.batch_logits(spec, theta, ctxs))
    w = np.sqrt(counts / len(batch))[:, None] * np.sqrt(P)
    Bt = w[:, :, None] * (np.eye(spec.vocab_size) - P[:, None, :])
    F = (Bt @ M.logit_jacobians(spec, theta, ctxs)).reshape(-1, dim)
    H = F.T @ F
    del F  # not held beside H's symmetrised copy
    return 0.5 * (H + H.T)


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

    theta and g may be stacks of parameter vectors (..., V*V), solved row
    by row in the same operations, with lam_prime a number or an array
    over the leading axes (one damping per row); each row's solution is
    bit for bit that of a call with the row alone.
    """
    lam = np.asarray(lam_prime, dtype=float)
    if not (lam > 0).all():
        raise ValueError("lam_prime must be positive")
    if lam.ndim:
        lam = lam[..., None, None]
    V = spec.vocab_size
    theta = np.asarray(theta, dtype=float)
    lead = theta.shape[:-1]
    table = theta.reshape(lead + (V, V))
    rows, c = pretrain_batch.last_token_weights(spec)
    P = M.softmax_rows(table[..., rows, :])
    G = np.asarray(g, dtype=float).reshape(lead + (V, V))
    X = G / lam
    D = c * P + lam
    Dg = G[..., rows, :] / D
    Dp = P / D
    den = lam * Dp.sum(axis=-1, keepdims=True)
    if not (den > 0).all():
        raise ValueError("damped bigram block is not positive definite "
                         f"(Sherman-Morrison denominator {float(den.min()):.3e})")
    X[..., rows, :] = Dg + (c * (P * Dg).sum(axis=-1, keepdims=True) / den) * Dp
    return X.reshape(lead + (-1,))


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

