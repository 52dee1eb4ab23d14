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
           convex in the logit table; computed as its exact equal, the
           reversed KL(softmax(h(theta_ref)) || softmax(h(theta))).

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


@dataclass(frozen=True)
class DivergenceKind:
    """Divergence selector plus damping strength lam >= 0: the lam of
    D_lam, from which an optimizer run derives its reference damping.
    Frozen, so that equal kinds hash alike."""

    tag: str
    lam: float

    def __post_init__(self):
        if self.tag not in DIVERGENCE_TAGS:
            raise ValueError(f"unknown divergence tag: {self.tag!r}")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lambda must be finite and nonnegative, got {self.lam}")


def _check_batch(batch):
    if len(batch) == 0:
        raise ValueError("empty batch")


def _logit_terms(tag, spec, theta, theta_ref, batch, value, grad):
    """Batch-mean value and gradient of the divergence `tag` from one
    forward pass over the stack [theta, theta_ref] (a reference that
    broadcasts against a stack of theta is broadcast first) and one exp
    pass over its logits; a part not asked for is None.  The two points
    share only the leading stack axis, so each logit row is bit for bit
    that of a forward pass at its point alone.

    kl is the mean row KL(p || p_ref), in the it loss's row kernel.
    bregman is the mean row KL(p_ref || p): on the bigram the logits are
    linear in theta and the label terms of the nll cancel, so the
    convexity gap is that KL exactly, and its logit gradient is p - p_ref.
    """
    _check_batch(batch)
    if tag == "bregman" and spec.kind != M.BIGRAM:
        raise ValueError("bregman divergence requires the bigram-softmax model "
                         "(the wrapped nll loss must be convex in theta)")
    theta = np.asarray(theta, dtype=float)
    theta_ref = np.asarray(theta_ref, dtype=float)
    if theta.shape != theta_ref.shape:
        theta, theta_ref = np.broadcast_arrays(theta, theta_ref)
    H, aux = M._forward(spec, np.array([theta, theta_ref]), batch.inputs(spec))
    Z, E, S = M._exp_rows(H)
    P = E / S
    if tag == "qkl":
        vals, G = _qkl_terms(H[0] - H[1], P[0], value, grad)
    else:
        L = Z - np.log(S)
        if tag == "kl":
            vals, G = losses._kl_rows(P[0], L[0], L[1], grad)
        else:
            vals = losses._kl_rows(P[1], L[1], L[0], False)[0] if value else None
            G = P[0] - P[1] if grad else None
    v = losses._batch_mean(vals) if value else None
    g = None
    if grad:
        aux = aux if spec.kind == M.BIGRAM else (aux[0], aux[1][0])
        g = M.grad_from_logit_grads(spec, theta, G / len(batch), aux)
    return v, g


def _qkl_terms(D, P, value, grad):
    """Per-row quadratic form d^T S(h) d = sum_j p_j d_j^2 - (p^T d)^2 and,
    if grad, its exact logit-space gradient, from the logit difference
    d = h - h' and p = softmax(h).

    With m1 = p^T d, m2 = p^T d^2, the product rule over both d and S(h)
    gives

      dQKL/dh = p * (2d - 2 m1 + d^2 - m2 - 2 m1 d + 2 m1^2).
    """
    PD = P * D
    m1 = PD.sum(axis=-1, keepdims=True)
    m2 = (PD * D).sum(axis=-1, keepdims=True)
    v = G = None
    if value:
        v = (m2 - m1 * m1)[..., 0]
    if grad:
        G = P * (2.0 * D - 2.0 * m1 + D * D - m2 - 2.0 * m1 * D + 2.0 * m1 * m1)
    return v, G


def divergence_value(kind, spec, theta, theta_ref, batch):
    """Raw divergence value D(theta, theta_ref) for the selected kind."""
    return _logit_terms(kind.tag, spec, theta, theta_ref, batch, True, False)[0]


def _damped_terms(kind, spec, theta, theta_ref, batch, value, grad):
    """Damped divergence value and gradient; a part not asked for is None."""
    v, g = _logit_terms(kind.tag, spec, theta, theta_ref, batch, value, grad)
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
    """(damped_value, damped_grad) from one forward pass over both points;
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
