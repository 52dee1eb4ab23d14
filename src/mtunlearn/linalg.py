"""Dense real matrix kernel: symmetry checks, symmetric solves, eigen bounds.

All operations are pure functions on numpy arrays.  Vectors are 1-d float
arrays, matrices are 2-d row-major float arrays.  Every public operation
validates shapes and returns finite results or raises.
"""

import numpy as np
import scipy.linalg

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


def check_symmetric(A, atol=SYMMETRY_ATOL):
    """Raise if A is not symmetric within |A_ij - A_ji| <= atol*max(1, |A_ij|)."""
    A = _as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix is not square: shape {A.shape}")
    scale = np.maximum(1.0, np.abs(A))
    if not np.all(np.abs(A - A.T) <= atol * scale):
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
    try:
        c, low = scipy.linalg.cho_factor(A, lower=True, check_finite=True)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError(f"matrix is not positive definite: {exc}") from exc
    return scipy.linalg.cho_solve((c, low), b, check_finite=True)


def min_eigenvalue_bound(A):
    """Lower bound on the spectrum of a symmetric matrix.

    Computed as the exact smallest eigenvalue (LAPACK symmetric
    eigensolver), tight to ~1e-8 for well-scaled matrices up to a few
    hundred dimensions.  Raises on non-symmetric input.
    """
    A = check_symmetric(_as_matrix(A))
    if A.shape[0] == 0:
        raise ValueError("empty matrix has no spectrum")
    return float(np.linalg.eigvalsh(A)[0])
