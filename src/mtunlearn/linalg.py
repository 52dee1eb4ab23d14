"""Dense real matrix kernel: symmetry checks and symmetric solves.

All operations are pure functions on numpy arrays.  Vectors are 1-d float
arrays, matrices are 2-d row-major float arrays; `dot` and `norm` also
take stacks of vectors and give one result per row.  Every public
operation validates shapes and returns finite results or raises.

scipy.linalg is imported on the first solve_spd call, not with the
package: only the dense curvature oracle, the MLP route of ngd_run and
verify lemma factorise a matrix, and loading scipy (with numpy.testing,
unittest, email and socket behind it) would slow the start of every
other command.
"""

import math

import numpy as np

SYMMETRY_ATOL = 1e-12


def _as_matrix(A):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={A.ndim}")
    return A


def _as_vector(x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got ndim={x.ndim}")
    return x


def dot(a, b):
    """a . b over the last axis: a float for two 1-d vectors, and for
    stacks of them (..., n) one product per row, each bit for bit the 1-d
    product (a batched 1 x n by n x 1 matmul runs the same dot kernel)."""
    if a.ndim == 1:
        return float(a @ b)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def norm(x):
    """Euclidean norm of a 1-d float vector: sqrt(x . x), np.linalg.norm's
    own formula (bit for bit) without its wrapper, for per-step use; a
    stack of vectors (..., n) gives one norm per row."""
    if x.ndim == 1:
        return math.sqrt(x.dot(x))
    return np.sqrt(dot(x, x))


def check_symmetric(A):
    """Raise if A is not symmetric within
    |A_ij - A_ji| <= SYMMETRY_ATOL * max(1, |A_ij|)."""
    A = _as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix is not square: shape {A.shape}")
    scale = np.maximum(1.0, np.abs(A))
    if not np.all(np.abs(A - A.T) <= SYMMETRY_ATOL * scale):
        worst = float(np.max(np.abs(A - A.T) / scale))
        raise ValueError(f"matrix is not symmetric: max scaled asymmetry {worst:.3e}")
    return A


def solve_spd(A, b):
    """Solve A x = b for symmetric positive-definite A via Cholesky.

    The factorization failure signal is surfaced (naming the offending
    pivot) rather than silently falling back to a pseudo-inverse: a
    non-SPD system here indicates a bug upstream and must be visible.
    """
    A = check_symmetric(_as_matrix(A))
    b = _as_vector(b)
    if A.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: A is {A.shape}, b has length {len(b)}")
    import scipy.linalg
    try:
        c, low = scipy.linalg.cho_factor(A, lower=True, check_finite=True)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError(f"matrix is not positive definite: {exc}") from exc
    return scipy.linalg.cho_solve((c, low), b, check_finite=True)

