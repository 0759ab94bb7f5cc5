"""Independent reference implementations the tests check quadpath against.

None of these run in a flight; each restates a quantity the library
computes another way:

- ``stage_cost``, ``terminal_cost`` and ``quadrature_cost`` evaluate the
  horizon cost by direct quadrature, against the weighted residual route of
  ``OcpProblem.evaluate``;
- ``timing_law`` is the continuous timing law that ``step_timing``
  integrates in closed form;
- ``nominal_yaw_rate`` is the yaw rate the tangential sinusoid reference
  demands at a given progress rate;
- ``kkt_residual`` is the primal barrier measure of a solve result (the
  barrier gradient ``mu / gap`` in place of the bound duals), not the
  primal-dual error ``solve`` stops on;
- ``newton_direction`` solves the dense KKT system of a Newton step in
  one piece, against the condensed ``OcpStructure.kkt_step`` and
  ``kkt_feedback``;
- ``held_states_rejected`` is the two-test rule for held states, the
  structural rank of ``input_sensitivity_pattern`` (by a Kuhn matching,
  ``_structural_rank``) and the numerical rank at hover, against the one
  numerical rank test of ``OcpStructure``;
- ``_barrier_terms`` is the log barrier over full-length masks, against
  the barrier on the faces of ``solver.Box``;
- ``frozen_mask`` and ``project_interior`` are the frozen entries and the
  interior projection over full-length masks, against ``Box.free`` and the
  face-wise ``Box.project``;
- ``residual_jacobian_loop`` and ``equality_jacobian_loop`` build the
  dense residual and equality Jacobians stage by stage, with the same
  arithmetic as the stage blocks of ``OcpStructure.row_blocks``, so the
  rows the solver's products ``jt_dot`` and ``at_dot`` give for unit
  vectors agree with them bitwise (up to the sign of zero);
- ``dynamics_jacobians`` differentiates ``dynamics`` by hand, and
  ``rk4_step_chain_rule`` carries those Jacobians through the four RK4
  stages as 9x9 chain products, against the structured
  ``rk4_step_with_jacobians``;
- ``rk4_step_loop`` integrates stage by stage through ``dynamics``, whose
  results ``rk4_step`` must equal bitwise;
- ``rk4_step_with_jacobians_stage_major`` forms the RK4 step and its
  sensitivities on stage-first arrays with the components last, the layout
  ``rk4_step_with_jacobians`` used before it moved the components first,
  with the same floating-point operations, so the two agree bitwise;
- ``curve_stack`` evaluates the three curves by stacking their columns with
  ``np.stack``, against the preallocated columns of ``quadpath.paths``;
- ``linearize_assembly`` assembles the residual, the gaps and the stage
  blocks through ``path_error``, ``output_map`` and ``np.concatenate``,
  against the preallocated vectors of ``OcpProblem.evaluate`` and the
  blocks of ``OcpStructure.row_blocks``.

``x_slice``, ``u_slice``, ``z_slice`` and ``nu_slice`` are the slices of
one stage's block in a horizon problem's decision vector, which the stage
loops index with.
"""

import numpy as np

from quadpath.dynamics import (
    ATT,
    N_INPUTS,
    N_STATES,
    POS,
    VEL,
    _attitude_trig,
    _step_constants,
    _thrust_axis,
    dynamics,
    output_map,
    rk4_step_with_jacobians,
)
from quadpath.paths import TWO_PI, path_error, timing_matrices
from quadpath.transcription import OcpConfig


def x_slice(problem, k: int) -> slice:
    n = problem.structure.n_x
    return slice(k * n, (k + 1) * n)


def u_slice(problem, k: int) -> slice:
    o, n = problem.structure.ou, problem.structure.n_u
    return slice(o + k * n, o + (k + 1) * n)


def z_slice(problem, k: int) -> slice:
    o, n = problem.structure.oz, problem.structure.n_z
    return slice(o + k * n, o + (k + 1) * n)


def nu_slice(problem, k: int) -> slice:
    o, n = problem.structure.ov, problem.structure.n_nu
    return slice(o + k * n, o + (k + 1) * n)


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
    st = problem.structure
    X, U, Z, V = st.unpack(w)
    config = st.config
    total = 0.0
    for k in range(config.horizon):
        e = path_error(output_map(X[k]), st._path_values(Z[k])[0])
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


def frozen_mask(lower, upper) -> np.ndarray:
    """Entries with finite bounds at most 1e-12 apart, or whose upper bound
    has no float between it and the lower one."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    both = np.isfinite(lower) & np.isfinite(upper)
    return both & ((upper - lower <= 1e-12) | (np.nextafter(upper, -np.inf) <= lower))


def project_interior(w, lower, upper, margin_scale: float = 1e-6) -> np.ndarray:
    """Project a point strictly inside the box (frozen entries go to the pin).

    The margin is ``margin_scale`` times the bound range (capped at a quarter
    of the range for narrow boxes, and an absolute ``margin_scale`` for
    one-sided bounds).
    """
    w = np.array(w, dtype=float)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    frozen = frozen_mask(lo, hi)
    rng = hi - lo
    both = np.isfinite(lo) & np.isfinite(hi) & ~frozen
    margin = np.where(both, np.minimum(margin_scale * rng, 0.25 * rng), margin_scale)
    lo_eff = np.where(np.isfinite(lo), lo + margin, -np.inf)
    hi_eff = np.where(np.isfinite(hi), hi - margin, np.inf)
    w = np.clip(w, lo_eff, hi_eff)
    w[frozen] = 0.5 * (lo[frozen] + hi[frozen])
    return w


def _barrier_terms(w, lower, upper, active):
    """Barrier value and gradient over the active mask (inf when infeasible)."""
    lo_gap = np.where(active & np.isfinite(lower), w - lower, np.inf)
    hi_gap = np.where(active & np.isfinite(upper), upper - w, np.inf)
    if np.any(lo_gap <= 0.0) or np.any(hi_gap <= 0.0):
        return np.inf, None
    value = -(np.sum(np.log(lo_gap[np.isfinite(lo_gap)])) + np.sum(np.log(hi_gap[np.isfinite(hi_gap)])))
    inv_lo = np.where(np.isfinite(lo_gap), 1.0 / lo_gap, 0.0)
    inv_hi = np.where(np.isfinite(hi_gap), 1.0 / hi_gap, 0.0)
    grad = -inv_lo + inv_hi
    return value, grad


def kkt_residual(problem, point, multipliers, mu: float) -> float:
    """Infinity norm of the primal barrier stationarity (barrier gradient
    ``mu / gap``, no bound duals) stacked with the equality residual.

    This is not the stopping test of ``solve``, which measures stationarity
    with its bound duals and adds their complementarity: a face that a
    fraction-to-boundary cut leaves a hair away makes this measure large
    while the face's dual has already settled.

    Raises ``ValueError`` when the point is not strictly interior to the box
    (frozen coordinates must sit on their pin).
    """
    w = np.asarray(point, dtype=float)
    lo, hi = problem.box.lower, problem.box.upper
    frozen = frozen_mask(lo, hi)
    active = ~frozen
    if np.any(active & np.isfinite(lo) & (w <= lo)) or np.any(active & np.isfinite(hi) & (w >= hi)):
        raise ValueError("point is not strictly interior to the box bounds")
    if np.any(np.abs(w[frozen] - lo[frozen]) > 1e-9):
        raise ValueError("frozen coordinate off its pinned value")
    _, bgrad = _barrier_terms(w, lo, hi, active)
    r, c, kept = problem.evaluate(w)
    blocks = problem.row_blocks(kept, ...)
    lam = np.asarray(multipliers, dtype=float)
    g = 2.0 * problem.jt_dot(blocks, r) + mu * bgrad
    if c.size:
        g = g + problem.at_dot(blocks, lam)
    stat = np.max(np.abs(g[active])) if np.any(active) else 0.0
    eq = np.max(np.abs(c)) if c.size else 0.0
    return float(max(stat, eq))


def newton_direction(h, g, a, c, free, keep, reg):
    """``(dw, lam)`` of the KKT system ``[[H + reg I, A^T], [A, 0]]`` with
    gradient ``g`` and equality values ``c``, on the ``free`` variables and
    the ``keep`` rows; ``dw`` is zero off ``free`` and ``lam`` off ``keep``."""
    hf = h[np.ix_(free, free)] + reg * np.eye(int(np.sum(free)))
    af = a[np.ix_(keep, free)]
    kkt = np.block([[hf, af.T], [af, np.zeros((af.shape[0], af.shape[0]))]])
    sol = np.linalg.solve(kkt, -np.concatenate([g[free], c[keep]]))
    dw = np.zeros(free.shape)
    dw[free] = sol[:hf.shape[0]]
    lam = np.zeros(keep.shape)
    lam[keep] = sol[hf.shape[0]:]
    return dw, lam


def input_sensitivity_pattern() -> np.ndarray:
    """Entries of ``rk4_step_with_jacobians``'s ``bu`` that can be nonzero,
    as a boolean mask.

    Position and velocity rows see every input through the stage thrust
    axes, except that the vertical axis component does not depend on the
    yaw-rate command; each attitude row sees only its own command.
    """
    bu = np.zeros((N_STATES, N_INPUTS), dtype=bool)
    bu[0:6] = True
    bu[ATT, 1:] = np.eye(3, dtype=bool)
    bu[[2, 5], 3] = False
    return bu


def _structural_rank(pattern) -> int:
    """Structural rank of a boolean pattern: the size of a maximum matching
    of its rows to distinct columns (augmenting paths, Kuhn 1955)."""
    owner = [-1] * pattern.shape[1]

    def augment(i, seen):
        for j in np.flatnonzero(pattern[i]):
            if not seen[j]:
                seen[j] = True
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return sum(augment(i, [False] * pattern.shape[1]) for i in range(pattern.shape[0]))


def held_states_rejected(config: OcpConfig, params) -> bool:
    """Whether the free stage inputs of ``config``'s box fail to move its
    held states independently: the held rows of the stage input
    sensitivity, over the free inputs, have structural rank (of
    :func:`input_sensitivity_pattern` and the timing input block) or
    numerical rank at hover below their count."""
    zlo, zhi = config.z_bounds()
    vlo, vhi = config.nu_bounds()
    held = frozen_mask(np.concatenate([config.state_lower, zlo]), np.concatenate([config.state_upper, zhi]))
    free = ~frozen_mask(np.concatenate([config.input_lower, vlo]), np.concatenate([config.input_upper, vhi]))
    if not held.any():
        return False
    bd = timing_matrices(config.n_z // 2, config.delta)[1]
    sens = np.zeros((N_STATES + bd.shape[0], N_INPUTS + bd.shape[1]))
    sens[:N_STATES, :N_INPUTS] = rk4_step_with_jacobians(np.zeros(N_STATES), np.zeros(N_INPUTS),
                                                         config.delta, params)[2]
    sens[N_STATES:, N_INPUTS:] = bd
    pattern = np.zeros(sens.shape, dtype=bool)
    pattern[:N_STATES, :N_INPUTS] = input_sensitivity_pattern()
    pattern[N_STATES:, N_INPUTS:] = bd != 0.0
    count = int(held.sum())
    return (_structural_rank(pattern[held][:, free]) < count
            or np.linalg.matrix_rank(sens[held][:, free]) < count)


def residual_jacobian_loop(problem, w) -> np.ndarray:
    """The dense residual Jacobian of an ``OcpProblem``, one stage block at
    a time."""
    st = problem.structure
    X, U, Z, V = st.unpack(w)
    cfg = st.config
    N = cfg.horizon
    nq, nr = st.n_res_q, st.n_res_r
    lq, lr = st.lq, st.lr
    J = np.zeros((st.m_res, st.n))
    # the derivative does not depend on a corridor's offset
    offset = (np.zeros(N),) if cfg.corridor else ()
    dp = st.path.point_and_derivative(np.clip(Z[:N, 0], -1.0, 0.0), *offset)[1]
    dx = np.zeros((nq, st.n_x))
    dx[0:3, 0:3] = np.eye(3)
    dx[3, 8] = 1.0
    dx[4:7, 3:6] = np.eye(3)
    for k in range(N):
        dz = np.zeros((nq, st.n_z))
        dz[0:4, 0] = -dp[k]
        dz[7, 0] = 1.0
        if cfg.corridor:
            dz[0:4, 1] = -st.path.direction
            dz[8, 1] = 1.0
        rows = slice(k * nq, (k + 1) * nq)
        J[rows, x_slice(problem, k)] = lq @ dx
        J[rows, z_slice(problem, k)] = lq @ dz
    for k in range(N):
        rows = slice(N * nq + k * nr, N * nq + (k + 1) * nr)
        J[rows, u_slice(problem, k)] = lr[:, :st.n_u]
        J[rows, nu_slice(problem, k)] = lr[:, st.n_u:]
    trow = N * (nq + nr)
    J[trow, z_slice(problem, N).start] = np.sqrt(cfg.terminal_weight)
    if cfg.corridor:
        J[trow + 1, z_slice(problem, N).start + 1] = np.sqrt(cfg.terminal_weight_s2)
    return J


def equality_jacobian_loop(problem, w) -> np.ndarray:
    """The dense equality Jacobian of an ``OcpProblem``, one stage block at
    a time."""
    st = problem.structure
    X, U, Z, V = st.unpack(w)
    N = st.config.horizon
    nx, nz = st.n_x, st.n_z
    A = np.zeros((st.m_eq, st.n))
    A[0:nx, x_slice(problem, 0)] = np.eye(nx)
    A[nx:nx + nz, z_slice(problem, 0)] = np.eye(nz)
    _, ax, bu = rk4_step_with_jacobians(X[:N], U, st.config.delta, st.params)
    r0 = nx + nz
    for k in range(N):
        rows = slice(r0 + k * nx, r0 + (k + 1) * nx)
        A[rows, x_slice(problem, k + 1)] = np.eye(nx)
        A[rows, x_slice(problem, k)] = -ax[k]
        A[rows, u_slice(problem, k)] = -bu[k]
    z0row = r0 + N * nx
    for k in range(N):
        rows = slice(z0row + k * nz, z0row + (k + 1) * nz)
        A[rows, z_slice(problem, k + 1)] = np.eye(nz)
        A[rows, z_slice(problem, k)] = -st.ad
        A[rows, nu_slice(problem, k)] = -st.bd
    return A


def rk4_step_loop(state, inp, dt: float, params, substeps: int = 1) -> np.ndarray:
    """Classical RK4 with one :func:`dynamics` call per stage."""
    x = np.asarray(state, dtype=float)
    u = np.asarray(inp, dtype=float)
    h = dt / substeps
    for _ in range(substeps):
        k1 = dynamics(x, u, params)
        k2 = dynamics(x + 0.5 * h * k1, u, params)
        k3 = dynamics(x + 0.5 * h * k2, u, params)
        k4 = dynamics(x + h * k3, u, params)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def dynamics_jacobians(state, inp, params):
    """Analytic Jacobians ``(fx, fu)`` of :func:`dynamics` w.r.t. state and
    input, shapes ``(..., 9, 9)`` and ``(..., 9, 4)``."""
    x = np.asarray(state, dtype=float)
    u = np.asarray(inp, dtype=float)
    return _dynamics_with_jacobians(x, u, params)[1:]


def _dynamics_with_jacobians(x, u, params):
    """``(dynamics, fx, fu)`` at one point."""
    batch = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
    att = np.moveaxis(x[..., ATT], -1, 0)
    trig = _attitude_trig(att)
    cph, sph, cth, sth, cps, sps = trig
    axis = np.moveaxis(_thrust_axis(trig, np.empty(att.shape)), 0, -1)
    scale = (u[..., 0] + params.mass * params.gravity) / params.mass

    fx = np.zeros(batch + (N_STATES, N_STATES), dtype=float)
    fx[..., 0, 3] = 1.0
    fx[..., 1, 4] = 1.0
    fx[..., 2, 5] = 1.0
    # d(acc)/d(roll, pitch, yaw)
    fx[..., 3, 6] = scale * (cph * sps - sph * cps * sth)
    fx[..., 4, 6] = scale * (-sph * sps * sth - cps * cph)
    fx[..., 5, 6] = scale * (-sph * cth)
    fx[..., 3, 7] = scale * (cph * cps * cth)
    fx[..., 4, 7] = scale * (cph * sps * cth)
    fx[..., 5, 7] = scale * (-cph * sth)
    fx[..., 3, 8] = scale * (sph * cps - cph * sps * sth)
    fx[..., 4, 8] = scale * (cph * cps * sth + sps * sph)
    fx[..., 6, 6] = -1.0 / params.tau_roll
    fx[..., 7, 7] = -1.0 / params.tau_pitch

    fu = np.zeros(batch + (N_STATES, N_INPUTS), dtype=float)
    fu[..., 3:6, 0] = axis / params.mass
    fu[..., 6, 1] = 1.0 / params.tau_roll
    fu[..., 7, 2] = 1.0 / params.tau_pitch
    fu[..., 8, 3] = 1.0
    return dynamics(x, u, params), fx, fu


def rk4_step_chain_rule(state, inp, dt: float, params):
    """RK4 step plus its sensitivities ``(x_next, d x_next/dx, d x_next/du)``,
    by the chain rule through the four stages."""
    x = np.asarray(state, dtype=float)
    u = np.asarray(inp, dtype=float)
    batch = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
    eye = np.broadcast_to(np.eye(N_STATES), batch + (N_STATES, N_STATES))

    k1, a1, b1 = _dynamics_with_jacobians(x, u, params)

    x2 = x + 0.5 * dt * k1
    k2, a2, b2 = _dynamics_with_jacobians(x2, u, params)
    k2x = a2 @ (eye + 0.5 * dt * a1)
    k2u = a2 @ (0.5 * dt * b1) + b2

    x3 = x + 0.5 * dt * k2
    k3, a3, b3 = _dynamics_with_jacobians(x3, u, params)
    k3x = a3 @ (eye + 0.5 * dt * k2x)
    k3u = a3 @ (0.5 * dt * k2u) + b3

    x4 = x + dt * k3
    k4, a4, b4 = _dynamics_with_jacobians(x4, u, params)
    k4x = a4 @ (eye + dt * k3x)
    k4u = a4 @ (dt * k3u) + b4

    x_next = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    ax = eye + (dt / 6.0) * (a1 + 2.0 * k2x + 2.0 * k3x + k4x)
    bu = (dt / 6.0) * (b1 + 2.0 * k2u + 2.0 * k3u + k4u)
    return x_next, ax, bu


def _components_last(trig, out):
    """``_thrust_axis`` with the components on the last axis of ``out``."""
    cph, sph, cth, sth, cps, sps = trig
    out[..., 0] = sph * sps + cph * cps * sth
    out[..., 1] = cph * sps * sth - cps * sph
    out[..., 2] = cph * cth
    return out


def rk4_step_with_jacobians_stage_major(state, inp, dt: float, params):
    """``(x_next, ax, bu)`` with the stage attitudes, stage derivatives and
    thrust-axis sources on stage-first arrays, components last."""
    x = np.asarray(state, dtype=float)
    u = np.asarray(inp, dtype=float)
    h = dt
    batch = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
    c = (0.5 * h, 0.5 * h, h)
    c_stage = np.reshape(c, (3,) + (1,) * len(batch))
    k = np.empty((4,) + batch + (N_STATES,))
    att = np.empty((4,) + batch + (3,))
    att[0] = x[..., ATT]
    k[..., 8] = u[..., 3]
    att[1:, ..., 2] = x[..., 8] + c_stage * u[..., 3]
    cmd, tau = u[..., 1:3], np.array([params.tau_roll, params.tau_pitch])
    angles, rates = att[..., 0:2], k[..., 6:8]
    for i in range(3):
        np.divide(cmd - angles[i], tau, out=rates[i])
        np.add(x[..., 6:8], c[i] * rates[i], out=angles[i + 1])
    np.divide(cmd - angles[3], tau, out=rates[3])
    cos, sin = np.cos(att), np.sin(att)
    trig = cos[..., 0], sin[..., 0], cos[..., 1], sin[..., 1], cos[..., 2], sin[..., 2]
    axis = _components_last(trig, np.empty(att.shape))
    thrust = u[..., 0] + params.mass * params.gravity
    k[..., VEL] = (thrust[..., None] / params.mass) * axis - np.array([0.0, 0.0, params.gravity])
    k[0, ..., POS] = x[..., VEL]
    k[1:, ..., POS] = x[..., VEL] + c_stage[..., None] * k[:3, ..., VEL]
    x_next = x + (h / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])

    _, _, weights, sens0 = _step_constants(float(dt), params)
    cph, sph, cth, sth, cps, sps = trig
    src = np.empty(axis.shape + (4,))
    _components_last((-sph, cph, cth, sth, cps, sps), src[..., 0])
    src[..., 0, 1] = cph * cps * cth
    src[..., 1, 1] = cph * sps * cth
    src[..., 2, 1] = -cph * sth
    src[..., 0, 2] = -axis[..., 1]
    src[..., 1, 2] = axis[..., 0]
    src[..., 2, 2] = 0.0
    src[..., 3] = axis
    src[..., :3] *= ((u[..., 0] + params.mass * params.gravity) / params.mass)[..., None, None]
    rows = np.einsum("i...km,imrc->...rkc", src, weights).reshape(batch + (6, 7))
    ax = np.empty(batch + (N_STATES, N_STATES))
    ax[...] = sens0[:, :N_STATES]
    ax[..., 0:6, ATT] = rows[..., 0:3]
    bu = np.empty(batch + (N_STATES, N_INPUTS))
    bu[...] = sens0[:, N_STATES:]
    bu[..., 0:6, :] = rows[..., 3:7]
    return x_next, ax, bu


def curve_stack(name: str, s):
    """``(point, derivative)`` of the spiral, lemniscate or sinusoid curve,
    each column computed whole and stacked with ``np.stack``."""
    s = np.asarray(s, dtype=float)
    a = TWO_PI * s
    sin_a, cos_a = np.sin(a), np.cos(a)
    zero = np.zeros_like(s)
    if name == "spiral":
        point = np.stack([0.25 * cos_a, 0.25 * sin_a, 0.65 + 0.4 * s, zero], axis=-1)
        deriv = np.stack([-0.5 * np.pi * sin_a, 0.5 * np.pi * cos_a, np.full_like(s, 0.4), zero], axis=-1)
    elif name == "lemniscate":
        den = sin_a**2 + 1.0
        point = np.stack([0.5 * cos_a / den, 0.5 * sin_a * cos_a / den, np.full_like(s, 0.5), zero], axis=-1)
        den = den**2
        dx = -0.5 * sin_a * (cos_a**2 + 2.0) / den
        dy = 0.5 * (cos_a**4 - sin_a**4 - sin_a**2) / den
        deriv = np.stack([TWO_PI * dx, TWO_PI * dy, zero, zero], axis=-1)
    elif name == "sinusoid":
        point = np.stack([0.25 * sin_a, 0.25 + 0.5 * s, np.full_like(s, 0.5),
                          np.arctan2(0.5, 0.5 * np.pi * cos_a)], axis=-1)
        dyaw = 2.0 * np.pi**2 * sin_a / (np.pi**2 * cos_a**2 + 1.0)
        deriv = np.stack([0.5 * np.pi * cos_a, np.full_like(s, 0.5), zero, dyaw], axis=-1)
    else:
        raise ValueError(f"no stacked oracle for {name!r}")
    return point, deriv


def linearize_assembly(problem, w):
    """``(r, c, js, f, g)`` of a horizon problem at ``w``, each vector
    concatenated from its stage pieces."""
    st = problem.structure
    X, U, Z, V = st.unpack(w)
    cfg = st.config
    N = cfg.horizon
    s1 = np.clip(Z[:N, 0], -1.0, 0.0)
    if cfg.corridor:
        lo, hi = cfg.s2_bounds
        p, dp = st.path.point_and_derivative(s1, np.clip(Z[:N, 1], lo, hi))
    else:
        p, dp = st.path.point_and_derivative(s1)

    e = path_error(output_map(X[:N]), p)
    zpart = Z[:N, 0:2] if cfg.corridor else Z[:N, 0:1]
    q_vec = np.concatenate([e, X[:N, 3:6], zpart], axis=1)
    r_vec = np.concatenate([U, V], axis=1)
    term = [np.sqrt(cfg.terminal_weight) * Z[N, 0]]
    if cfg.corridor:
        term.append(np.sqrt(cfg.terminal_weight_s2) * Z[N, 1])
    r = np.concatenate([(q_vec @ st.lq.T).ravel(), (r_vec @ st.lr.T).ravel(), np.array(term)])

    dz = np.zeros((N, st.n_res_q))
    dz[:, 0:4] = -dp
    dz[:, 7] = 1.0
    js = st.js.copy()
    js[:, :, st.n_x] = dz @ st.lq.T

    fx, ax, bu = rk4_step_with_jacobians(X[:N], U, cfg.delta, st.params)
    gz = Z[:N] @ st.ad.T + V @ st.bd.T
    c = np.concatenate([X[0] - problem.x0, Z[0] - problem.z0, (X[1:] - fx).ravel(), (Z[1:] - gz).ravel()])
    f = st.f.copy()
    f[:, :st.n_x, :st.n_x] = ax
    g = st.g.copy()
    g[:, :st.n_x, :st.n_u] = bu
    return r, c, js, f, g
