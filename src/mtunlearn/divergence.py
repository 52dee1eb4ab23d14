"""Proximity terms D(theta, theta_ref) anchoring the unlearning update.

Three divergences, each a batch mean over (context, next) pairs (labels
unused), with exact gradients w.r.t. the first argument:

  kl       KL(softmax(h(theta)) || softmax(h(theta_ref))), current model
           first, reference second.
  qkl      (h - h')^T S(h) (h - h') with S(h) = Diag(p) - p p^T evaluated
           at the CURRENT model's logits; the gradient differentiates
           through S as well (exact gradient of the written expression).
  bregman  L(theta) - L(theta_ref) - (theta - theta_ref)^T grad L(theta_ref)
           with L the batch nll loss of the bigram model, which is
           convex in the logit table.

The damped variant adds (lam/2) ||theta - theta_ref||^2, whose gradient
contributes lam (theta - theta_ref).

theta (and theta_ref) may be a stack of parameter vectors (..., dim):
every value and gradient is then one per row, bit for bit that of a call
with the row alone.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from . import losses
from . import model as M

DIVERGENCE_TAGS = ("kl", "qkl", "bregman")

# Second-order coefficient of each divergence relative to the shared
# curvature matrix H: D(theta_ref + t d, theta_ref) = scale * (t^2/2) d^T H d
# + O(t^3).  kl expands with the classic 1/2; qkl is the full quadratic
# form, twice that; the bregman remainder of the bigram nll matches kl.
CURVATURE_SCALE = {"kl": 1.0, "qkl": 2.0, "bregman": 1.0}


@dataclass
class DivergenceKind:
    """Divergence selector plus damping strength lam >= 0: the lam of
    D_lam, from which an optimizer run derives its reference damping."""

    tag: str
    lam: float

    def __post_init__(self):
        if self.tag not in DIVERGENCE_TAGS:
            raise ValueError(f"unknown divergence tag: {self.tag!r}")
        if not 0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and nonnegative")


def _check_batch(batch):
    if len(batch) == 0:
        raise ValueError("empty batch")


def _logit_terms(tag, spec, theta, theta_ref, batch, value, grad):
    """Batch-mean kl or qkl value and gradient from one forward pass at
    each point; a part not asked for is None."""
    _check_batch(batch)
    H, aux = M._forward(spec, theta, batch.inputs(spec))
    Href = M.batch_logits(spec, theta_ref, batch)
    if tag == "kl":
        vals, G = losses._it_terms(H, M.log_softmax_rows(Href), grad)
    else:
        vals, G = _qkl_terms(H, Href, value, grad)
    v = losses._batch_mean(vals) if value else None
    g = None
    if grad:
        g = M.grad_from_logit_grads(spec, theta, G / len(batch), aux)
    return v, g


def _qkl_terms(H, Href, value, grad):
    """Per-row quadratic form d^T S(h) d = sum_j p_j d_j^2 - (p^T d)^2 and,
    if grad, its exact logit-space gradient, from one softmax.

    With d = h - h', p = softmax(h), m1 = p^T d, m2 = p^T d^2, the
    product rule over both d and S(h) gives

      dQKL/dh = p * (2d - 2 m1 + d^2 - m2 - 2 m1 d + 2 m1^2).
    """
    P = M.softmax_rows(H)
    D = H - Href
    PD = P * D
    m1 = PD.sum(axis=-1, keepdims=True)
    m2 = (PD * D).sum(axis=-1, keepdims=True)
    v = G = None
    if value:
        v = (m2 - m1 * m1)[..., 0]
    if grad:
        G = P * (2.0 * D - 2.0 * m1 + D * D - m2 - 2.0 * m1 * D + 2.0 * m1 * m1)
    return v, G


_NLL = losses.LossKind("nll")


def _bregman_terms(spec, theta, theta_ref, batch, value, grad):
    """Bregman value and gradient of the batch nll loss from one forward
    pass at each point; a part not asked for is None.  The gradient is
    grad L(theta) - grad L(theta_ref)."""
    _check_batch(batch)
    if spec.kind != M.BIGRAM:
        raise ValueError("bregman divergence requires the bigram-softmax model "
                         "(the wrapped nll loss must be convex in theta)")
    theta = np.asarray(theta, dtype=float)
    theta_ref = np.asarray(theta_ref, dtype=float)
    v, g = losses._loss_terms(_NLL, spec, theta, batch, value, grad)
    v_ref, g_ref = losses._loss_terms(_NLL, spec, theta_ref, batch, value, True)
    return (v - v_ref - linalg.dot(theta - theta_ref, g_ref) if value else None,
            g - g_ref if grad else None)


def _divergence_terms(kind, spec, theta, theta_ref, batch, value, grad):
    if kind.tag == "bregman":
        return _bregman_terms(spec, theta, theta_ref, batch, value, grad)
    return _logit_terms(kind.tag, spec, theta, theta_ref, batch, value, grad)


def divergence_value(kind, spec, theta, theta_ref, batch):
    """Raw divergence value D(theta, theta_ref) for the selected kind."""
    return _divergence_terms(kind, spec, theta, theta_ref, batch, True, False)[0]


def _damped_terms(kind, spec, theta, theta_ref, batch, value, grad):
    """Damped divergence value and gradient; a part not asked for is None."""
    v, g = _divergence_terms(kind, spec, theta, theta_ref, batch, value, grad)
    diff = np.asarray(theta, dtype=float) - np.asarray(theta_ref, dtype=float)
    if value:
        v = v + 0.5 * kind.lam * linalg.dot(diff, diff)
    if grad and kind.lam:
        g = g + kind.lam * diff
    return v, g


def damped_value(kind, spec, theta, theta_ref, batch):
    """D(theta, theta_ref) + (lam/2) ||theta - theta_ref||^2."""
    return _damped_terms(kind, spec, theta, theta_ref, batch, True, False)[0]


def damped_grad(kind, spec, theta, theta_ref, batch):
    """Exact gradient of the damped divergence w.r.t. theta:
    grad D(theta, theta_ref) + lam (theta - theta_ref)."""
    return _damped_terms(kind, spec, theta, theta_ref, batch, False, True)[1]


def damped_value_and_grad(kind, spec, theta, theta_ref, batch):
    """(damped_value, damped_grad) from one forward pass at each point;
    bitwise equal to the two separate calls."""
    return _damped_terms(kind, spec, theta, theta_ref, batch, True, True)


def curvature_quadratic_form(spec, theta_ref, batch, d):
    """d^T H(theta_ref) d for the shared curvature matrix H (batch mean of
    J S J^T), computed matrix-free via the logit directional derivative:
    each context contributes u^T S u with u = J^T d."""
    U = M.logit_jvp(spec, theta_ref, batch, d)
    H = M.batch_logits(spec, theta_ref, batch)
    P = M.softmax_rows(H)
    m1 = (P * U).sum(axis=1)
    m2 = (P * U * U).sum(axis=1)
    return float((m2 - m1 * m1).mean())


def local_quadratic_residual(kind, spec, theta_ref, d, t, batch):
    """|D(theta_ref + t d, theta_ref) - scale * (t^2/2) d^T H(theta_ref) d|
    for a unit direction d.

    H is frozen at theta_ref, so the residual captures every term beyond
    second order; it decays like t^3 as t -> 0 for all three divergences.
    scale is the divergence's second-order coefficient (2 for qkl, 1
    otherwise).
    """
    d = np.asarray(d, dtype=float)
    nd = float(np.linalg.norm(d))
    if not np.isclose(nd, 1.0, atol=1e-8):
        raise ValueError(f"direction must be a unit vector, got norm {nd}")
    if t < 0:
        raise ValueError("scale t must be nonnegative")
    _check_batch(batch)
    value = divergence_value(kind, spec, np.asarray(theta_ref, dtype=float) + t * d, theta_ref, batch)
    q = curvature_quadratic_form(spec, theta_ref, batch, d)
    return abs(value - CURVATURE_SCALE[kind.tag] * 0.5 * t * t * q)
