"""Per-step vector kernels: dot products and Euclidean norms.

Pure functions on numpy float arrays.  A 1-d vector gives a float; a
stack of vectors (..., n) gives one result per row, each bit for bit
the 1-d result.
"""

import math

import numpy as np


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
