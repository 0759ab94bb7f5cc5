"""Independent reference implementations the tests check quadpath against.

None of these run in a flight; each restates a quantity the library
computes another way:

- ``stage_cost``, ``terminal_cost`` and ``quadrature_cost`` evaluate the
  horizon cost by direct quadrature, against the weighted residual route of
  ``OcpProblem.residual``;
- ``timing_law`` is the continuous timing law that ``step_timing``
  integrates in closed form;
- ``nominal_yaw_rate`` is the yaw rate the tangential sinusoid reference
  demands at a given progress rate;
- ``kkt_residual`` is a standalone stationarity measure for a solve result.
"""

import numpy as np

from quadpath.dynamics import output_map
from quadpath.paths import path_error
from quadpath.solver import _barrier_terms, _frozen_mask
from quadpath.transcription import OcpConfig


def stage_cost(e, xi_dot, z_path, u, nu, config: OcpConfig) -> float:
    """Weighted quadratic running cost of one stage (before quadrature)."""
    vec_q = np.concatenate([np.atleast_1d(e), np.atleast_1d(xi_dot), np.atleast_1d(z_path)])
    vec_r = np.concatenate([np.atleast_1d(u), np.atleast_1d(nu)])
    nq = config.q_weight.shape[0]
    nr = config.r_weight.shape[0]
    if vec_q.shape != (nq,) or vec_r.shape != (nr,):
        raise ValueError("stage cost arguments do not match the configured weights")
    return float(vec_q @ config.q_weight @ vec_q + vec_r @ config.r_weight @ vec_r)


def terminal_cost(z_terminal, config: OcpConfig) -> float:
    """Quadratic pull of the final progress (and corridor offset) to zero."""
    z = np.atleast_1d(np.asarray(z_terminal, dtype=float))
    cost = config.terminal_weight * float(z[0]) ** 2
    if config.corridor:
        cost += config.terminal_weight_s2 * float(z[1]) ** 2
    return cost


def quadrature_cost(problem, w) -> float:
    """Rectangle-rule quadrature of the stage cost plus terminal cost."""
    X, U, Z, V = problem.unpack(w)
    config = problem.config
    total = 0.0
    for k in range(config.horizon):
        e = path_error(output_map(X[k]), problem._reference(Z[k]))
        zpart = Z[k, 0:2] if config.corridor else Z[k, 0:1]
        total += config.delta * stage_cost(e, X[k, 3:6], zpart, U[k], V[k], config)
    return total + terminal_cost(Z[config.horizon], config)


def timing_law(z, nu) -> np.ndarray:
    """Double-integrator progress dynamics d[s, s_dot]/dt = [s_dot, nu].

    Works for any number of parallel chains with the state ordered
    positions first, rates second (classic ``[s, s_dot]``, corridor
    ``[s1, s2, s1_dot, s2_dot]``).
    """
    z = np.asarray(z, dtype=float)
    n = z.shape[-1] // 2
    nu = np.broadcast_to(np.asarray(nu, dtype=float), z.shape[:-1] + (n,))
    return np.concatenate([z[..., n:], nu], axis=-1)


def nominal_yaw_rate(s, s_dot):
    """Yaw rate required to stay tangential to the sinusoid at progress rate
    ``s_dot``, assuming exact tracking."""
    s = np.asarray(s, dtype=float)
    a = 2.0 * np.pi * s
    rate = 2.0 * np.pi**2 * np.sin(a) / (np.pi**2 * np.cos(a) ** 2 + 1.0) * np.asarray(s_dot, dtype=float)
    if rate.ndim == 0:
        return float(rate)
    return rate


def kkt_residual(problem, point, multipliers, mu: float) -> float:
    """Infinity norm of barrier stationarity stacked with equality residual.

    Raises ``ValueError`` when the point is not strictly interior to the box
    (frozen coordinates must sit on their pin).
    """
    w = np.asarray(point, dtype=float)
    lo = np.asarray(problem.lower, dtype=float)
    hi = np.asarray(problem.upper, dtype=float)
    frozen = _frozen_mask(lo, hi)
    active = ~frozen
    if np.any(active & np.isfinite(lo) & (w <= lo)) or np.any(active & np.isfinite(hi) & (w >= hi)):
        raise ValueError("point is not strictly interior to the box bounds")
    if np.any(np.abs(w[frozen] - lo[frozen]) > 1e-9):
        raise ValueError("frozen coordinate off its pinned value")
    _, bgrad = _barrier_terms(w, lo, hi, active)
    r = problem.residual(w)
    J = problem.residual_jacobian(w)
    c = problem.equality(w)
    A = problem.equality_jacobian(w)
    lam = np.asarray(multipliers, dtype=float)
    g = 2.0 * (J.T @ r) + mu * bgrad
    if A.shape[0]:
        g = g + A.T @ lam
    stat = np.max(np.abs(g[active])) if np.any(active) else 0.0
    eq = np.max(np.abs(c)) if c.size else 0.0
    return float(max(stat, eq))
