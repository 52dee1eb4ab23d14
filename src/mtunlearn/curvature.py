"""Exact curvature machinery: Gauss-Newton matrix assembly, damped
natural-gradient solves, and the exact error of the damped momentum
iteration that tracks inverse-curvature-vector products (one eigh of H
gives every cell's error, mode by mode) with its closed-form bound.

The curvature matrix of a softmax model on a batch is

    H(theta) = (1/N) sum_x J(x) S(h(x)) J(x)^T,
    S(h) = Diag(p) - p p^T,  p = softmax(h),

assembled densely and exactly (no factored approximations beyond the
algebraic identity S = B B^T used to keep the sum positive
semi-definite in floating point).  For the bigram model H is block
diagonal over table rows, which the solver exploits.
"""

import numpy as np

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
    by row in the same operations with the one damping lam_prime, a
    positive number; each row's solution is bit for bit that of a call
    with the row alone.
    """
    if np.ndim(lam_prime) or not lam_prime > 0:
        raise ValueError(f"lam_prime must be one positive number, got {lam_prime!r}")
    lam = float(lam_prime)
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


def momentum_error_traces(H, g, etas, mus, lams, noise, noisy):
    """Exact error ||u_t - u*||, t = 0..T, of the damped momentum iteration
    toward u* = -(H + lam I)^-1 g on a grid of cells, shape (cells, T + 1).

    Cell c runs, from u_0 = u_{-1} = 0,

        u_{t+1} = u_t - (eta g + eta (H + lam I) u_t + eta eps_t)
                  + mu (u_t - u_{t-1})

    with (eta, mu, lam) = (etas[c], mus[c], lams[c]), and eps_t the t-th
    row of the shared (T, dim) noise when noisy[c] holds, else zero.
    H is symmetric, so in its eigenbasis (one eigh for every cell) the
    error e_t = u_t - u* follows one scalar recurrence per mode i,

        e_{t+1,i} = (1 + mu - eta (h_i + lam)) e_{t,i} - mu e_{t-1,i}
                    - eta (Q^T eps_t)_i,

    from e_0 = e_{-1} = -u*, and the eigenbasis keeps norms.
    """
    h, Q = np.linalg.eigh(H)
    etas, mus, lams = (np.asarray(x, dtype=float)[:, None]
                       for x in (etas, mus, lams))
    e = e_prev = (Q.T @ g) / (h + lams)
    a = 1.0 + mus - etas * (h + lams)
    gain = etas * np.asarray(noisy, dtype=float)[:, None]
    traces = np.empty((len(e), len(noise) + 1))
    traces[:, 0] = np.linalg.norm(e, axis=1)
    for t, eps_t in enumerate(np.asarray(noise, dtype=float) @ Q, 1):
        e, e_prev = a * e - mus * e_prev - gain * eps_t, e
        traces[:, t] = np.linalg.norm(e, axis=1)
    return traces


def ihvp_error_bound(eta, mu, lam, u0_dist, eps_norms):
    """Closed-form per-step bound on ||u_t - u*|| for the momentum iteration:

        rate^t * ||u_0 - u*|| + sqrt(2) * max(eta/(1-sqrt(mu)),
                                              (1-mu)/lam) * max_{j<=t} ||eps_j||

    with rate = 1 - min(1 - sqrt(mu), eta lam / (1 - mu)).  Returns the
    list of bounds for t = 0..T (the t = 0 entry is u0_dist itself).
    eps_norms holds ||eps_t|| for t = 1..T.
    """
    rate = 1.0 - min(1.0 - np.sqrt(mu), eta * lam / (1.0 - mu))
    coef = np.sqrt(2.0) * max(eta / (1.0 - np.sqrt(mu)), (1.0 - mu) / lam)
    bounds = [u0_dist]
    running_max = 0.0
    for t, eps_norm in enumerate(eps_norms, 1):
        running_max = max(running_max, eps_norm)
        bounds.append(rate ** t * u0_dist + coef * running_max)
    return bounds

