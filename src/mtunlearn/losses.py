"""Per-token and sequence-level unlearning losses with exact gradients.

All losses are written to be MINIMIZED.  In logit space, with
p = softmax(h):

  nll    -log p_y                  (the learning loss)
  ll     log p_y                   (= -nll; minimizing pushes p_y down)
  nlul   -log(1 - p_y)             (log-unlikelihood; gradient is the ll
                                    gradient reweighted by p_y/(1-p_y))
  it     KL(softmax(h) || softmax(h_teacher))
  npo    -(2/beta) log sigmoid(-beta (log pi_theta(s) - log pi_base(s))),
         a sequence-level loss whose gradient is the summed per-token ll
         gradient damped by 2 w(s), w = pi_theta^beta/(pi_theta^beta +
         pi_base^beta).

The saturated regime p_y -> 1 is handled exactly: the complementary mass
1 - p_y is a sum of positive terms, never the difference 1 - p_y.  The
batch losses take it, with everything else, from one exp pass per logit
matrix (_label_rows); rows where that sum underflows take it in log
space, as exp(logsumexp(h without y) - logsumexp(h)).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as M

LOSS_TAGS = ("nll", "ll", "nlul", "it", "npo")

# nlul clamps p_y to at most 1 - CLAMP_EPS.
CLAMP_EPS = 1e-12


@dataclass
class TeacherLogits:
    """Logit source for the it loss.

    With spec/theta unset the teacher is uniform: the all-zeros logit
    vector, whose softmax is the uniform distribution.
    """

    spec: object = None
    theta: object = None

    def __eq__(self, other):
        """Same model and parameters, compared as whole arrays."""
        return isinstance(other, TeacherLogits) and self.spec == other.spec \
            and np.array_equal(self.theta, other.theta)

    @property
    def is_uniform(self):
        return self.spec is None

    def batch(self, data, vocab_size):
        """Teacher logits of a TokenDataset or an array of contexts."""
        if self.is_uniform:
            return np.zeros((len(data), vocab_size))
        return M.batch_logits(self.spec, self.theta, data)

    def log_probs(self, data, vocab_size):
        """Teacher log-probabilities of the contexts; the uniform teacher's
        are the constant -log V, equal bit for bit to the log-softmax of
        its zero logits."""
        if self.is_uniform:
            return -np.log(vocab_size)
        return M.log_softmax_rows(self.batch(data, vocab_size))


@dataclass
class LossKind:
    """Loss selector plus its hyperparameters.

    tag: one of "nll", "ll", "nlul", "it", "npo".
    beta: npo inverse temperature (> 0).
    teacher: it logit source (defaults to uniform).
    """

    tag: str
    beta: float = 1.0
    teacher: TeacherLogits = field(default_factory=TeacherLogits)

    def __post_init__(self):
        if self.tag not in LOSS_TAGS:
            raise ValueError(f"unknown loss tag: {self.tag!r}")
        if not np.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if self.tag == "npo" and not self.beta > 0:
            raise ValueError("npo requires beta > 0")


def _logsumexp_rows(A):
    """Row-wise log sum_j exp(A_ij), exact in the saturated regime.

    The same arithmetic as scipy.special.logsumexp: the k maximal entries
    are kept out of the shifted sum s, and the result is
    log1p(s / k) + log(k) + max, so a row dominated by one entry keeps
    the precision of its small terms.
    """
    m = A.max(axis=1, keepdims=True)
    top = A == m
    k = top.sum(axis=1)
    E = np.exp(A - m)
    E[top] = 0.0
    return np.log1p(E.sum(axis=1) / k) + np.log(k) + m[:, 0]


def _sigmoid(x):
    """Entrywise 1 / (1 + exp(-x)), bitwise equal to scipy.special.expit.

    A per-entry loop over math.exp (npo batches hold a few sequences);
    exp(-x) overflows only where the result rounds to 0.
    """
    def one(v):
        try:
            return 1.0 / (1.0 + math.exp(-v))
        except OverflowError:
            return 0.0

    x = np.asarray(x, dtype=float)
    return np.array([one(v) for v in x.ravel()]).reshape(x.shape)


def _log_complement_rows(H, y):
    """log(1 - p_y) per row, exact in log space.

    Computed as logsumexp over the non-y logits minus the full logsumexp,
    which equals log(sum_{j != y} p_j) without forming 1 - p_y.  H is
    an (n, V) matrix of logit rows.
    """
    Hm = H.copy()
    Hm[np.arange(len(H)), y] = -np.inf
    return _logsumexp_rows(Hm) - _logsumexp_rows(H)


def _it_terms(H, log_q, grad):
    """Row-wise KL(softmax(h) || q) and, if grad, its logit gradient, from
    one exp pass; log_q is the teacher's log-probabilities (rows, or a
    scalar for a uniform teacher).  Bitwise equal to taking p and log p
    from softmax_rows and log_softmax_rows.  Rows run over the last axis
    of H, so a stack of logit matrices works row by row."""
    Z, E, S = M._exp_rows(H)
    return _kl_rows(E / S, Z - np.log(S), log_q, grad)


def _kl_rows(P, log_p, log_q, grad):
    """Row-wise KL(p || q) = sum_j p_j (log p_j - log q_j) over the last
    axis and, if grad, its gradient in the logits of p, p * (r - KL) with
    r = log p - log q."""
    R = log_p - log_q
    v = (P * R).sum(axis=-1)
    return v, (P * (R - v[..., None]) if grad else None)


def npo_pairs(spec, data, base):
    """The npo forget set of a run: data's sequences expanded into pairs
    once (model.sequence_pairs), carrying each sequence's log-probability
    under the fixed base model, whose parameters are `base`, so that its
    batches gather those values instead of recomputing them."""
    ds, _ = M.sequence_pairs(spec, data)
    return M.TokenDataset(ds.contexts, ds.nexts, ds.sequences,
                          M.sequence_logprob(spec, base, ds))


def _npo_terms(kind, spec, theta, batch, value, grad):
    """Batch-mean npo value and gradient from one forward pass over the
    batch's pairs at theta; the base model's sequence log-probabilities
    come from the batch's base_logprob (see npo_pairs).

    Per sequence the value is (2/beta) softplus(beta (L_theta - L_base))
    with L the sequence log-probability, and the gradient is 2 w(s) times
    the summed e_y - p rows of its pairs, w = sigmoid(beta (L_theta -
    L_base)); the rows are scaled before one backprop.  A stack of
    parameter vectors (theta of shape (..., dim)) gives one value and
    gradient per row, against the same base model.
    """
    lb = getattr(batch, "base_logprob", None)
    if lb is None:
        raise ValueError("npo needs a batch carrying the base model's "
                         "log-probabilities; build the forget set with npo_pairs")
    ds, starts = M.sequence_pairs(spec, batch)
    if np.shape(lb) != starts.shape:
        raise ValueError(f"base_logprob has shape {np.shape(lb)} for "
                         f"{len(starts)} sequences; build the forget set "
                         f"with npo_pairs")
    H, aux = M._forward(spec, theta, ds.inputs(spec))
    lt = M.segment_logprob(H, ds, starts)
    v = g = None
    if value:
        vals = (2.0 / kind.beta) * np.logaddexp(0.0, kind.beta * (lt - lb))
        v = _batch_mean(vals)
    if grad:
        w = _sigmoid(kind.beta * (lt - lb))
        G = -M.softmax_rows(H)
        G[..., np.arange(len(ds)), ds.nexts] += 1.0
        per_pair = np.repeat(2.0 * w / w.shape[-1],
                             np.diff(np.append(starts, len(ds))), axis=-1)
        g = M.grad_from_logit_grads(spec, theta, G * per_pair[..., None], aux)
    return v, g


_TINY = np.finfo(float).tiny


def _label_rows(kind, H, y, value, grad):
    """Row values and logit gradients of the nll, ll or nlul loss from one
    exp pass; a part not asked for is None.

    With Z, E, S from model._exp_rows, log p_y = Z_y - log S.  The
    complement mass Sc = sum_{j != y} E_j gives log(1 - p_y) = log Sc -
    log S, a sum of positive terms, so it stays accurate as p_y -> 1.
    Rows where Sc underflows (y leads every other logit by more than
    ~708) take log(1 - p_y) from _log_complement_rows, which is exact
    there.  Entries of E that underflow are meant to be zero, so underflow
    is not signalled.  The gradient is w (e_y - p) with w = 1 (ll), -1
    (nll) or p_y/(1 - p_y) at the clamped p_y (nlul).  H may be a stack
    of logit matrices (..., n, V) sharing the labels y.
    """
    rows = np.arange(H.shape[-2])
    v = G = None
    with np.errstate(under="ignore"):
        Z, E, S = M._exp_rows(H)
        logS = np.log(S[..., 0])
        logp = Z[..., rows, y] - logS
        if value and kind.tag != "nlul":
            v = logp if kind.tag == "ll" else -logp
        if not (grad or kind.tag == "nlul"):
            return v, None                  # ll and nll values need no Sc
        E[..., rows, y] = 0.0
        Sc = E.sum(axis=-1)
        low = Sc < _TINY
        log1mp = np.log(np.where(low, 1.0, Sc)) - logS
        if low.any():
            log1mp[low] = _log_complement_rows(H[low],
                                               np.broadcast_to(y, low.shape)[low])
        if value and kind.tag == "nlul":
            v = np.minimum(-log1mp, -np.log(CLAMP_EPS))
        if grad:
            sign = -1.0 if kind.tag == "nll" else 1.0
            G = E / (-sign * S)
            G[..., rows, y] = sign * np.exp(log1mp)
            if kind.tag == "nlul":
                G *= np.exp(logp - np.maximum(log1mp, np.log(CLAMP_EPS)))[..., None]
    return v, G


def _batch_mean(vals):
    """Mean over the last axis as sum / n, np.mean's own formula bit for
    bit without its wrapper: a float for one row of values, an array with
    one mean per row for a stack."""
    m = vals.sum(axis=-1) / vals.shape[-1]
    return float(m) if m.ndim == 0 else m


def _loss_terms(kind, spec, theta, batch, value, grad):
    """(batch-mean loss, its gradient) from one forward pass at theta;
    a part not asked for is None.  theta may be a stack of parameter
    vectors (..., dim): then each row gets its own mean and gradient, bit
    for bit those of a call with that row alone."""
    if kind.tag == "npo":
        return _npo_terms(kind, spec, theta, batch, value, grad)
    if len(batch) == 0:
        raise ValueError("empty batch")
    H, aux = M._forward(spec, theta, batch.inputs(spec))
    if kind.tag == "it":
        vals, G = _it_terms(H, kind.teacher.log_probs(batch, spec.vocab_size), grad)
    else:
        vals, G = _label_rows(kind, H, batch.nexts, value, grad)
    v = _batch_mean(vals) if value else None
    g = None
    if grad:
        g = M.grad_from_logit_grads(spec, theta, G / len(batch), aux)
    return v, g


def batch_loss(kind, spec, theta, batch):
    """Mean loss over the batch.

    For npo the batch is a set of whole sequences carrying the base
    model's log-probability of each (npo_pairs builds it, and the batches
    a run draws from it keep those values).  All other losses average per
    (context, next) pair.  A stack of parameter vectors, theta of shape
    (..., dim), gives one mean per row, as do batch_grad and
    batch_value_and_grad (one gradient per row).
    """
    return _loss_terms(kind, spec, theta, batch, True, False)[0]


def batch_grad(kind, spec, theta, batch):
    """Exact gradient of batch_loss w.r.t. theta."""
    return _loss_terms(kind, spec, theta, batch, False, True)[1]


def batch_value_and_grad(kind, spec, theta, batch):
    """(batch_loss, batch_grad) from one shared forward pass; bitwise equal
    to the two separate calls."""
    return _loss_terms(kind, spec, theta, batch, True, True)
