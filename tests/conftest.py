"""Shared numerical helpers for the test suite."""

import numpy as np


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
