"""Shared numerical helpers for the test suite."""

import json
import os

import numpy as np

from mtunlearn import losses as L
from mtunlearn import model as M


def central_difference_gradient(f, x, h=1e-5):
    """Central-difference gradient of a scalar function f at x.

    g_i = (f(x + h e_i) - f(x - h e_i)) / (2h), accurate to O(h^2).
    """
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def relative_error(approx, exact):
    """||approx - exact|| / max(||exact||, 1e-12)."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return float(np.linalg.norm(approx - exact)
                 / max(np.linalg.norm(exact), 1e-12))


def raw_forward(spec, theta, contexts):
    """The forward pass on raw context ids, as it ran before datasets kept
    their encoding: every call checks the ids and builds the one-hot
    matrix again, and the bigram gathers table rows.  Returns (H, aux)
    with aux the context rows (bigram) or (X, hidden activations).
    Contexts with leading axes (..., n, width), as model.logit_jacobians
    stacks them, give H and aux the same leading axes; so does a stack of
    parameter vectors (..., dim), as the divergences forward their two
    points, against 2-d contexts."""
    contexts = np.asarray(contexts, dtype=int)
    V = spec.vocab_size
    if contexts.size and (contexts.max() >= V or contexts.min() < M.PAD):
        raise ValueError(f"token id out of vocabulary (V={V})")
    if spec.kind == M.BIGRAM:
        rows = contexts[..., -1]
        if rows.size and rows.min() < 0:
            raise ValueError("bigram model requires a non-empty context")
        return theta.reshape(theta.shape[:-1] + (V, V))[..., rows, :], rows
    width = contexts.shape[-1]
    X = np.zeros(contexts.shape[:-1] + (V * spec.context_len,))
    for j in range(width):
        t = contexts[..., j]
        m = t >= 0
        X[np.nonzero(m) + ((spec.context_len - width + j) * V + t[m],)] = 1.0
    W1, b1, W2, b2 = M._unpack_mlp(spec, theta)
    A = np.tanh(X @ W1.swapaxes(-1, -2) + b1)
    return A @ W2.swapaxes(-1, -2) + b2, (X, A)


def raw_backprop(spec, theta, G, aux):
    """Backprop matching raw_forward, from the aux state it returned:
    np.add.at into the bigram table rows, the same products as
    model.grad_from_logit_grads for the MLP.  Seeds with leading axes
    (..., n, V), broadcasting against those of aux (and of a stack of
    parameter vectors), give one gradient per leading index."""
    G = np.asarray(G, dtype=float)
    flat = G.shape[:-2] + (-1,)
    if spec.kind == M.BIGRAM:
        V = spec.vocab_size
        rows = np.broadcast_to(aux, G.shape[:-1])
        dW = np.zeros(G.shape[:-2] + (V, V))
        np.add.at(dW, tuple(np.indices(rows.shape)[:-1]) + (rows,), G)
        return dW.reshape(flat)
    X, A = aux
    _, _, W2, _ = M._unpack_mlp(spec, theta)
    dZ = (G @ W2) * (1.0 - A * A)
    return np.concatenate([(dZ.swapaxes(-1, -2) @ X).reshape(flat),
                           dZ.sum(axis=-2),
                           (G.swapaxes(-1, -2) @ A).reshape(flat),
                           G.sum(axis=-2)], axis=-1)


def momentum_error_trace(H, g, eta, mu, lam, eps):
    """The exact error ||u_t - u*||, t = 0..T, of the damped momentum
    iteration curvature.ihvp_momentum runs, with eps the (T, dim) errors
    it injects (zeros for none).

    With e_t = u_t - u* and u* = -(H + lam I)^-1 g, the iteration reads
    e_{t+1} = e_t - eta (H + lam I) e_t - eta eps_t + mu (e_t - e_{t-1}).
    H is symmetric, so in its eigenbasis each mode i follows one scalar
    recurrence,

        e_{t+1,i} = (1 + mu - eta (h_i + lam)) e_{t,i} - mu e_{t-1,i}
                    - eta eps_{t,i},

    from e_0 = e_{-1} = -u* (u_0 = u_{-1} = 0), and the eigenbasis
    keeps norms."""
    h, Q = np.linalg.eigh(H)
    e = e_prev = (Q.T @ g) / (h + lam)
    a = 1.0 + mu - eta * (h + lam)
    trace = [np.linalg.norm(e)]
    for eps_t in np.asarray(eps, dtype=float) @ Q:
        e, e_prev = a * e - mu * e_prev - eta * eps_t, e
        trace.append(np.linalg.norm(e))
    return np.array(trace)


def use_raw_forward(monkeypatch):
    """Route every model evaluation through raw_forward/raw_backprop on
    raw context ids: datasets keep no encoding, and the bigram curvature
    weights are counted again on every solve."""
    def last_token_weights(ds, spec):
        counts = np.bincount(ds.contexts[:, -1], minlength=spec.vocab_size)
        rows = np.flatnonzero(counts)
        return rows, (counts[rows] / len(ds))[:, None]

    def raw_ids(spec, data):
        return data.contexts if isinstance(data, M.TokenDataset) else data

    monkeypatch.setattr(M.TokenDataset, "inputs", lambda ds, spec: ds.contexts)
    monkeypatch.setattr(M.TokenDataset, "last_token_weights", last_token_weights)
    monkeypatch.setattr(M, "model_inputs", raw_ids)
    monkeypatch.setattr(M, "_forward", raw_forward)
    monkeypatch.setattr(M, "grad_from_logit_grads", raw_backprop)


def same_bits(a, b):
    """Arrays of the same shape and dtype with identical bytes (unlike
    ==, this tells -0.0 from 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def artifact_mismatches(d1, d2):
    """How two output directories differ, as a list of messages (empty
    when they agree): the same file names, every file byte-equal, and
    manifest.json equal once its duration_s is dropped."""
    names1, names2 = sorted(os.listdir(d1)), sorted(os.listdir(d2))
    if names1 != names2:
        return [f"file sets differ: {names1} against {names2}"]
    bad = []
    for name in names1:
        with open(os.path.join(d1, name), "rb") as f1, \
                open(os.path.join(d2, name), "rb") as f2:
            b1, b2 = f1.read(), f2.read()
        if name == "manifest.json":
            m1, m2 = json.loads(b1), json.loads(b2)
            m1.pop("duration_s")
            m2.pop("duration_s")
            if m1 != m2:
                bad.append("manifest differs")
        elif b1 != b2:
            bad.append(f"{name} differs")
    return bad


def observed_run(run, spec, theta0, d_f, d_pt, cfg, **kw):
    """Call an optimizer run with a callback that records every iterate
    and teacher; returns (trajectory, thetas, teachers).  Row 0 of both
    lists is theta0, or None in teachers for a run without a teacher."""
    thetas, teachers = [theta0], []

    def record(t, theta, teacher):
        thetas.append(theta.copy())
        teachers.append(None if teacher is None else teacher.copy())

    traj = run(spec, theta0, d_f, d_pt, cfg, callback=record, **kw)
    teacher0 = None if traj.final_teacher is None else theta0
    return traj, thetas, [teacher0] + teachers


def bregman_oracle(spec, theta, theta_ref, batch):
    """The nll Bregman divergence as written and its gradient, from the
    public batch loss and gradient: L(theta) - L(theta_ref) -
    <grad L(theta_ref), theta - theta_ref> and grad L(theta) -
    grad L(theta_ref).  The oracle the divergence kernel's reversed-KL
    form is pinned to; theta may be a stack (..., dim) against one
    theta_ref."""
    nll = L.LossKind("nll")
    g_ref = L.batch_grad(nll, spec, theta_ref, batch)
    value = L.batch_loss(nll, spec, theta, batch) \
        - L.batch_loss(nll, spec, theta_ref, batch) \
        - ((theta - theta_ref) * g_ref).sum(axis=-1)
    return value, L.batch_grad(nll, spec, theta, batch) - g_ref


# Per-sequence npo, the oracle for the batched npo loss.  With L the
# sequence log-probability, npo(s) = (2/beta) softplus(beta (L_theta(s)
# - L_base(s))), its weight w(s) = sigmoid(beta (L_theta - L_base)) and
# its gradient 2 w(s) grad L_theta(s).

def grad_sequence_logprob(spec, theta, s):
    """Gradient w.r.t. theta of model.sequence_logprob of one sequence:
    the summed e_y - softmax rows of its pairs, backpropagated."""
    ds = M.dataset_from_sequences([np.asarray(s, dtype=int)], spec.context_len)
    H, aux = M._forward(spec, theta, ds.inputs(spec))
    G = -M.softmax_rows(H)
    G[np.arange(len(ds)), ds.nexts] += 1.0
    return M.grad_from_logit_grads(spec, theta, G, aux)


def npo_value(spec, s, theta, base_theta, beta):
    lt = M.sequence_logprob(spec, theta, s)
    lb = M.sequence_logprob(spec, base_theta, s)
    return float((2.0 / beta) * np.logaddexp(0.0, beta * (lt - lb)))


def npo_weight(spec, s, theta, base_theta, beta):
    lt = M.sequence_logprob(spec, theta, s)
    lb = M.sequence_logprob(spec, base_theta, s)
    return float(1.0 / (1.0 + np.exp(-beta * (lt - lb))))


def npo_grad(spec, s, theta, base_theta, beta):
    return 2.0 * npo_weight(spec, s, theta, base_theta, beta) * \
        grad_sequence_logprob(spec, theta, s)


# Row-wise nll, ll and nlul in log space, the oracle for the one-pass
# kernel losses._label_rows: 1 - p_y is formed as exp(logsumexp(h
# without y) - logsumexp(h)), a sum of positive terms.

def _rows(h):
    """h as a float matrix of logit rows (one row for a 1-d h)."""
    return np.atleast_2d(np.asarray(h, dtype=float))


def ll_value_rows(H, y):
    """Row-wise log softmax(h)_y."""
    H = _rows(H)
    return M.log_softmax_rows(H)[np.arange(len(H)), y]


def ll_grad_rows(H, y):
    """Row-wise gradient of ll_value_rows in logit space: e_y - softmax(h).

    The y entry is assembled as exp(log(1 - p_y)) = 1 - p_y computed in
    log space, so it stays exact when p_y saturates toward 1.
    """
    H = _rows(H)
    return _ll_grad(H, y, L._log_complement_rows(H, y))


def _ll_grad(H, y, log1mp):
    G = -M.softmax_rows(H)
    G[np.arange(len(H)), y] = np.exp(log1mp)
    return G


def nll_value_rows(H, y):
    return -ll_value_rows(H, y)


def nll_grad_rows(H, y):
    return -ll_grad_rows(H, y)


def nlul_value_rows(H, y):
    """Row-wise -log(1 - p_y) with p_y clamped to at most 1 - CLAMP_EPS."""
    return np.minimum(-L._log_complement_rows(_rows(H), y),
                      -np.log(L.CLAMP_EPS))


def nlul_grad_rows(H, y):
    """Row-wise gradient of nlul in logit space.

    Equals w * ll_grad_rows with w = p_y/(1 - p_y) at the clamped p_y.  The y
    entry reduces to exactly p_y (the weight cancels the complementary
    mass), so the gradient never underflows at memorized points.
    """
    H = _rows(H)
    log1mp = L._log_complement_rows(H, y)
    log1mp_c = np.maximum(log1mp, np.log(L.CLAMP_EPS))
    w = np.exp(ll_value_rows(H, y) - log1mp_c)
    return w[:, None] * _ll_grad(H, y, log1mp)
