"""Built-in invariant checks behind the ``quadpath validate`` command.

These are fast self-contained versions of the core model and solver
properties; the acceptance suite in tests/ runs the same functions.  Each
check takes a numpy random generator (used or not) and returns
``(ok, detail)``.
"""

from __future__ import annotations

import numpy as np

from .dynamics import (
    ModelParams,
    body_angular_velocity,
    dynamics,
    rk4_step,
    rotation_jacobian,
    rotation_matrix,
)
from .paths import make_path
from .solver import DenseNlp, solve


def check_rotation(rng) -> tuple[bool, str]:
    att = rng.uniform(-1.0, 1.0, size=(1000, 3))
    R = rotation_matrix(att)
    orth = np.max(np.abs(R @ np.swapaxes(R, -1, -2) - np.eye(3)))
    det = np.max(np.abs(np.linalg.det(R) - 1.0))
    ok = orth < 1e-12 and det < 1e-12
    return ok, f"rotation orthonormality {orth:.2e}, det error {det:.2e}"


def check_body_rates(rng) -> tuple[bool, str]:
    att = rng.uniform(-1.0, 1.0, size=(1000, 3))
    rate = rng.uniform(-1.0, 1.0, size=(1000, 3))
    R = rotation_matrix(att)
    J = rotation_jacobian(att)
    oracle = np.einsum("...ji,...jk,...k->...i", R, J, rate)
    err = np.max(np.abs(body_angular_velocity(att, rate) - oracle))
    return err < 1e-12, f"body-rate oracle error {err:.2e}"


def check_hover(_rng) -> tuple[bool, str]:
    err = np.max(np.abs(dynamics(np.zeros(9), np.zeros(4), ModelParams())))
    return err == 0.0, f"hover equilibrium derivative {err:.2e}"


def check_rk4_order(_rng) -> tuple[bool, str]:
    params = ModelParams()
    x = np.zeros(9)
    x[3:6] = [0.1, -0.05, 0.08]
    x[6:9] = [0.15, -0.1, 0.3]
    u = np.array([0.02, 0.2, -0.15, 0.3])
    ref = rk4_step(x, u, 0.2, params, substeps=1024)
    e1 = np.linalg.norm(rk4_step(x, u, 0.2, params, substeps=8) - ref)
    e2 = np.linalg.norm(rk4_step(x, u, 0.2, params, substeps=16) - ref)
    ratio = e1 / e2
    return 14.0 <= ratio <= 18.0, f"step-halving error ratio {ratio:.2f}"


def check_path_derivatives(_rng) -> tuple[bool, str]:
    h = 1e-6
    worst = 0.0
    for name in ("spiral", "lemniscate", "sinusoid"):
        path = make_path(name)
        s = np.linspace(-1.0 + h, -h, 101)
        fd = (path.point(s + h) - path.point(s - h)) / (2.0 * h)
        err = np.max(np.abs(fd - path.derivative(s)) / np.maximum(np.abs(path.derivative(s)), 1.0))
        worst = max(worst, float(err))
    return worst < 1e-5, f"path derivative vs finite differences {worst:.2e}"


def check_solver(_rng) -> tuple[bool, str]:
    inf = np.inf
    a = np.array([1.0, -2.0, 0.5])
    r1 = solve(DenseNlp(3, lambda w: w - a, lambda w: np.eye(3),
                        np.full(3, -inf), np.full(3, inf)), np.zeros(3))
    ok1 = r1.status == "converged" and np.max(np.abs(r1.decision - a)) < 1e-8

    r2 = solve(DenseNlp(1, lambda w: w - 2.0, lambda w: np.eye(1),
                        np.array([-inf]), np.array([1.0])), np.array([0.0]))
    ok2 = r2.status == "converged" and abs(r2.decision[0] - 1.0) < 1e-5

    r3 = solve(DenseNlp(2, lambda w: w, lambda w: np.eye(2),
                        np.full(2, -inf), np.full(2, inf),
                        equality=lambda w: np.array([w[0] + w[1] - 1.0]),
                        equality_jacobian=lambda w: np.array([[1.0, 1.0]])),
               np.array([3.0, -1.0]))
    ok3 = r3.status == "converged" and np.max(np.abs(r3.decision - 0.5)) < 1e-8
    return ok1 and ok2 and ok3, "three analytic optimization problems"


CHECKS = (
    ("rotation matrix", check_rotation),
    ("body angular velocity", check_body_rates),
    ("hover equilibrium", check_hover),
    ("integrator order", check_rk4_order),
    ("path derivatives", check_path_derivatives),
    ("nlp solver", check_solver),
)


def run_all(emit=print) -> int:
    """Run every check; returns the number of failures."""
    rng = np.random.default_rng(7)
    failures = 0
    for name, check in CHECKS:
        ok, detail = check(rng)
        emit(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failures += 0 if ok else 1
    return failures
