"""Dense linear-algebra kernel: SPD solves and spectrum bounds."""

import numpy as np
import pytest

from mtunlearn import linalg


def random_spd(rng, n, eig_low=0.5, eig_high=4.0):
    """SPD matrix with a controlled spectrum: Q diag(eigs) Q^T."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(eig_low, eig_high, n)
    A = (Q * eigs) @ Q.T
    return 0.5 * (A + A.T)


class TestSolveSpd:
    def test_matches_reference_solve(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            A = random_spd(rng, 8)
            b = rng.standard_normal(8)
            x = linalg.solve_spd(A, b)
            np.testing.assert_allclose(x, np.linalg.solve(A, b),
                                       rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(A @ x, b, rtol=1e-9, atol=1e-11)

    def test_rejects_asymmetric(self):
        A = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            linalg.solve_spd(A, np.ones(2))

    def test_rejects_indefinite(self):
        A = np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match="positive definite"):
            linalg.solve_spd(A, np.ones(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            linalg.solve_spd(np.eye(3), np.ones(2))


class TestMinEigenvalueBound:
    def test_matches_eigvalsh(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            A = random_spd(rng, 6, eig_low=-1.0, eig_high=3.0)
            np.testing.assert_allclose(linalg.min_eigenvalue_bound(A),
                                       np.linalg.eigvalsh(A)[0], atol=1e-10)

    def test_diagonal_exact(self):
        A = np.diag([3.0, -2.0, 5.0])
        assert linalg.min_eigenvalue_bound(A) == pytest.approx(-2.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            linalg.min_eigenvalue_bound(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            linalg.min_eigenvalue_bound(np.zeros((0, 0)))


class TestCheckSymmetric:
    def test_accepts_tiny_asymmetry(self):
        A = np.eye(3)
        A[0, 1] = 1e-14
        linalg.check_symmetric(A)

    def test_rejects_visible_asymmetry(self):
        A = np.eye(3)
        A[0, 1] = 1e-6
        with pytest.raises(ValueError, match="asymmetry"):
            linalg.check_symmetric(A)
