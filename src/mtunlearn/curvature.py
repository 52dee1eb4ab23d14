"""Exact curvature machinery: the Gauss-Newton curvature factor, damped
natural-gradient solves, and the exact error of the damped momentum
iteration that tracks inverse-curvature-vector products (one eigh of H
gives every cell's error, mode by mode) with its closed-form bound.

The curvature matrix of a softmax model on a batch is

    H(theta) = (1/N) sum_x J(x)^T S(h(x)) J(x) = F^T F,
    S(h) = Diag(p) - p p^T = B B^T,  p = softmax(h),

with J(x) the (V, dim) logit Jacobian and F the stack of
sqrt(count/N) B^T J over the distinct contexts.  The damped solve goes
through the Gram matrix F F^T of F's rows and never forms H.  For the
bigram model H is block diagonal over table rows, and its damped solve
is in closed form.
"""

import numpy as np

from . import model as M

# Most rows of the curvature factor, the side of the Gram matrix a damped
# solve factors.
MAX_DENSE_DIM = 4096


def gnh_factor(spec, theta, batch):
    """Curvature factor F on the batch contexts at theta, H = F^T F: the
    stack of sqrt(count/N) B^T J over the distinct contexts, shape
    (contexts * V, dim), with J their logit Jacobians (one backprop for
    all of them) and B^T = Diag(sqrt p) - sqrt(p) p^T, so that
    B B^T = Diag(p) - p p^T.  A stack of parameter vectors (..., dim)
    gives (..., contexts * V, dim), each slice bit for bit its row's F.
    More than MAX_DENSE_DIM rows raise before the backprop.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    theta = np.asarray(theta, dtype=float)
    # Group identical contexts: they share J and S.
    ctxs, counts = np.unique(batch.contexts, axis=0, return_counts=True)
    r = len(ctxs) * spec.vocab_size
    if r > MAX_DENSE_DIM:
        raise ValueError(f"the curvature factor would have {r} rows, above the "
                         f"limit {MAX_DENSE_DIM}; use fewer distinct contexts")
    P = M.softmax_rows(M.batch_logits(spec, theta, ctxs))
    w = np.sqrt(counts / len(batch))[:, None] * np.sqrt(P)
    Bt = w[..., None] * (np.eye(spec.vocab_size) - P[..., None, :])
    F = Bt @ M.logit_jacobians(spec, theta, ctxs)
    return F.reshape(theta.shape[:-1] + (-1, theta.shape[-1]))


def _damping(lam_prime):
    if np.ndim(lam_prime) or not lam_prime > 0:
        raise ValueError(f"lam_prime must be one positive number, got {lam_prime!r}")
    return float(lam_prime)


def gnh_damped_solve(spec, theta, batch, lam_prime, g):
    """Solve (H(theta) + lam' I) x = g through the factor F of gnh_factor
    (H = F^T F, F of shape (r, dim)) by the Woodbury identity

        x = (g - F^T (lam' I + F F^T)^-1 F g) / lam',

    with one Cholesky of the r x r Gram matrix.  A matrix that is not
    positive definite raises.

    theta and g may be stacks of parameter vectors (..., dim), solved in
    the same batched operations with the one damping lam_prime, a
    positive number; each row's solution is bit for bit that of a call
    with the row alone.
    """
    lam = _damping(lam_prime)
    F = gnh_factor(spec, theta, batch)
    Ft = F.swapaxes(-1, -2)
    g = np.asarray(g, dtype=float)[..., None]
    try:
        L = np.linalg.cholesky(F @ Ft + lam * np.eye(F.shape[-2]))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"damped curvature is not positive definite: {exc}") from exc
    # numpy has no triangular solve; solve runs LU on each factor.
    x = np.linalg.solve(L.swapaxes(-1, -2), np.linalg.solve(L, F @ g))
    return ((g - Ft @ x) / lam)[..., 0]


def bigram_damped_solve(spec, theta, pretrain_batch, lam_prime, g):
    """Solve (H(theta) + lam' I) x = g for the bigram model in closed form.

    The block of visited row r is c S(h_r) + lam' I = D - c p p^T with
    c = count/N and D = Diag(c p + lam'): a diagonal minus a rank-one
    term.  Sherman-Morrison solves every visited row at once,

        x = D^-1 g + c (D^-1 p) (p^T D^-1 g) / (1 - c p^T D^-1 p),

    and rows never visited scale by 1/lam'.  The denominator is
    lam' sum_i p_i / (c p_i + lam') > 0 in exact arithmetic; a value that
    is not positive raises.

    theta and g may be stacks of parameter vectors (..., V*V), solved row
    by row in the same operations with the one damping lam_prime, a
    positive number; each row's solution is bit for bit that of a call
    with the row alone.
    """
    lam = _damping(lam_prime)
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

