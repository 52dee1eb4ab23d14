"""Dense linear-algebra kernel: SPD solves and spectrum bounds."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from mtunlearn import linalg

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# Runs in a fresh interpreter: importing the package and the command line,
# then a small target, unlearning and artifact run, must not load scipy;
# the first dense solve loads it and still reports a non-SPD matrix.
IMPORT_GRAPH_SCRIPT = textwrap.dedent("""
    import dataclasses, sys, tempfile
    import numpy as np

    def scipy_modules():
        return [m for m in sys.modules if m.split(".")[0] == "scipy"]

    import mtunlearn
    import mtunlearn.cli
    assert not scipy_modules(), scipy_modules()
    from mtunlearn import artifacts as A, divergence as Dv, harness as Hn
    from mtunlearn import linalg, losses as L, model as M, optimizer as O

    spec = M.ModelSpec(M.BIGRAM, 8)
    corpus = Hn.CorpusSpec(vocab_size=8, n_sequences=4, seq_len=12, seed=11)
    d_f, d_pt = Hn.corpus_datasets(spec, corpus)
    theta = Hn.build_target(spec, (d_f, d_pt), epochs=200, seed=11)
    cfg = O.MTConfig(eta=0.05, kappa=0.5, alpha=0.5, mu=0.9, T=10,
                     loss=L.LossKind("nlul"), divergence=Dv.DivergenceKind("kl", 0.1),
                     clip=1.0, batch_forget=2, batch_pretrain=4)
    O.mt_run_batched(spec, theta, d_f, d_pt, cfg)
    O.mt_run_batched(spec, theta, d_f, d_pt,
                     dataclasses.replace(cfg, loss=L.LossKind("npo", beta=0.5)))
    with tempfile.TemporaryDirectory() as out:
        result = Hn.unlearn_experiment(spec, theta, d_f, d_pt,
                                       [Hn.MethodSpec("mt", "mt-batched", cfg)])
        mtunlearn.cli._write_tables(out, mtunlearn.cli.result_outputs(result)[0])
        A.write_trajectory_csv(out + "/trajectory.csv",
                               result["trajectories"]["mt"][0])
        A.save_params(out + "/mt.npy", result["thetas"]["mt"])
        A.write_results_json(out, {"check": "unlearn"})
        A.write_manifest(out, "unlearn", {}, 0, 0.0)
    assert not scipy_modules(), scipy_modules()

    x = linalg.solve_spd(np.array([[4.0, 1.0], [1.0, 3.0]]), np.ones(2))
    assert np.allclose(x, [2.0 / 11.0, 3.0 / 11.0])
    try:
        linalg.solve_spd(np.diag([1.0, -1.0]), np.ones(2))
        raise SystemExit("non-SPD matrix accepted")
    except ValueError as exc:
        assert "matrix is not positive definite" in str(exc), exc
""")


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


class TestLazyScipy:
    def test_scipy_is_loaded_only_by_the_first_dense_solve(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-c", IMPORT_GRAPH_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr


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
