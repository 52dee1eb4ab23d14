"""Dense linear-algebra kernel: SPD solves and spectrum bounds."""

import ast
import glob
import os

import numpy as np
import pytest

from mtunlearn import linalg

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "mtunlearn")


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_nonfinite_right_hand_side(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            linalg.solve_spd(np.eye(2), np.array([1.0, bad]))


class TestNumpyOnly:
    def test_no_module_imports_scipy(self):
        """numpy is the package's only runtime dependency: no module, at
        any depth (a function-level import included), imports scipy."""
        paths = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
        assert paths, PACKAGE
        offenders = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                offenders += [(os.path.basename(path), node.lineno, name)
                              for name in names if name.split(".")[0] == "scipy"]
        assert not offenders, offenders

    def test_runtime_dependencies_are_numpy_only(self):
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert project["dependencies"] == ["numpy>=1.24"]


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


class TestNorm:
    def test_is_numpy_norm_bit_for_bit(self):
        """2 400 random vectors: lengths 1 to 3 000, scales 1e-150 to 1e150,
        zeros and signed zeros included."""
        rng = np.random.default_rng(7)
        for i in range(2400):
            x = rng.standard_normal(int(rng.integers(1, 3000)))
            x *= 10.0 ** rng.uniform(-150, 150)
            if i % 7 == 0:
                x[: len(x) // 2] = -0.0
            assert linalg.norm(x) == np.linalg.norm(x)
            assert type(linalg.norm(x)) is float
        assert linalg.norm(np.zeros(4)) == 0.0

    def test_stacks_give_the_norm_and_dot_of_each_row(self):
        rng = np.random.default_rng(8)
        for n in (1, 7, 64, 300):
            x = rng.standard_normal((3, 2, n)) * 10.0 ** rng.uniform(-50, 50)
            y = rng.standard_normal(x.shape)
            norms, dots = linalg.norm(x), linalg.dot(x, y)
            assert norms.shape == dots.shape == (3, 2)
            for i in np.ndindex(3, 2):
                assert norms[i] == linalg.norm(x[i])
                assert dots[i] == linalg.dot(x[i], y[i]) == float(x[i] @ y[i])
