"""Shared numerical helpers for the test suite."""

import numpy as np

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
    with aux the context rows (bigram) or (X, hidden activations)."""
    contexts = np.asarray(contexts, dtype=int)
    V = spec.vocab_size
    if contexts.size and (contexts.max() >= V or contexts.min() < M.PAD):
        raise ValueError(f"token id out of vocabulary (V={V})")
    if spec.kind == M.BIGRAM:
        rows = contexts[:, -1]
        if rows.size and rows.min() < 0:
            raise ValueError("bigram model requires a non-empty context")
        return theta.reshape(V, V)[rows], rows
    n, width = contexts.shape
    X = np.zeros((n, V * spec.context_len))
    for j in range(width):
        t = contexts[:, j]
        m = t >= 0
        X[np.nonzero(m)[0], (spec.context_len - width + j) * V + t[m]] = 1.0
    W1, b1, W2, b2 = M._unpack_mlp(spec, theta)
    A = np.tanh(X @ W1.T + b1)
    return A @ W2.T + b2, (X, A)


def raw_backprop(spec, theta, contexts, G, aux=None):
    """Backprop matching raw_forward: np.add.at into the bigram table
    rows, the same products as model.grad_from_logit_grads for the MLP."""
    G = np.asarray(G, dtype=float)
    if aux is None:
        _, aux = raw_forward(spec, theta, contexts)
    if spec.kind == M.BIGRAM:
        V = spec.vocab_size
        dW = np.zeros((V, V))
        np.add.at(dW, aux, G)
        return dW.ravel()
    X, A = aux
    _, _, W2, _ = M._unpack_mlp(spec, theta)
    dZ = (G @ W2) * (1.0 - A * A)
    return np.concatenate([(dZ.T @ X).ravel(), dZ.sum(axis=0),
                           (G.T @ A).ravel(), G.sum(axis=0)])


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


# Per-sequence npo, the oracle for the batched npo loss.  With L the
# sequence log-probability, npo(s) = (2/beta) softplus(beta (L_theta(s)
# - L_base(s))), its weight w(s) = sigmoid(beta (L_theta - L_base)) and
# its gradient 2 w(s) grad L_theta(s).

def grad_sequence_logprob(spec, theta, s):
    """Gradient w.r.t. theta of model.sequence_logprob of one sequence:
    the summed e_y - softmax rows of its pairs, backpropagated."""
    ds = M.dataset_from_sequences([np.asarray(s, dtype=int)], spec.context_len)
    G = -M.softmax_rows(M.batch_logits(spec, theta, ds))
    G[np.arange(len(ds)), ds.nexts] += 1.0
    return M.grad_from_logit_grads(spec, theta, ds, G)


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
