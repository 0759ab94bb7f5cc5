"""Quadrotor model with the attitude loop abstracted as first-order lags.

State layout (9-vector):
    [x, y, z, vx, vy, vz, roll, pitch, yaw]
Input layout (4-vector):
    [dT, roll_cmd, pitch_cmd, yawrate_cmd]

``dT`` is the differential thrust on top of the hover feed-forward ``m*g``,
so the all-zero state with all-zero input is an exact hover equilibrium.
The onboard attitude controller is not modelled explicitly; its closed loop
is approximated by first-order roll/pitch responses and a direct yaw-rate
command.

All functions broadcast over leading batch dimensions, e.g. a ``(N, 9)``
stack of states with a ``(N, 4)`` stack of inputs.

The attitude subsystem is linear and ignores position and velocity, so an
RK4 step computes its four stage attitudes first.  One trigonometric pass
over the stacked stage attitudes then gives every stage's thrust axis, and
the step sensitivities are sums over the stages: the stage attitudes depend
on the initial attitude and the commands through constant coefficients, so
no 9x9 chain product through the stages is needed.  The stage arrays hold
the state components on their first axis, so that every elementwise numpy
call runs over contiguous batch rows: at these sizes a call costs its
overhead, not its arithmetic, and the operations stay those of ``dynamics``.

The step has two routes with the same floating-point operations, so the
same bits.  The stack pass ``_rk4_stages`` integrates a whole stack at once
and keeps the stage quantities the sensitivities need; the horizon
problem's evaluation and ``rk4_step_with_jacobians`` call it.  The
one-state kernel ``_rk4_one`` runs in Python floats, one row at a time, for
``rk4_step``: the plant, the warm shift's last node, the rollout and
``validate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

N_STATES = 9
N_INPUTS = 4

POS = slice(0, 3)
VEL = slice(3, 6)
ATT = slice(6, 9)


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the low-level-controlled quadrotor.

    Defaults are nominal Crazyflie 2.0 values; all are overridable through
    the scenario configuration.
    """

    mass: float = 0.033       # kg
    gravity: float = 9.81     # m/s^2
    tau_roll: float = 0.2     # s, closed-loop roll time constant
    tau_pitch: float = 0.2    # s, closed-loop pitch time constant

    def __post_init__(self) -> None:
        for name in ("mass", "gravity", "tau_roll", "tau_pitch"):
            if not np.isfinite(getattr(self, name)) or getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive and finite")


def rotation_matrix(attitude) -> np.ndarray:
    """Body-to-world rotation for yaw-pitch-roll (ZYX) Euler angles.

    Parameters
    ----------
    attitude : array_like, shape (..., 3)
        ``[roll, pitch, yaw]`` in radians.

    Returns
    -------
    ndarray, shape (..., 3, 3)
    """
    att = np.asarray(attitude, dtype=float)
    trig = _attitude_trig(np.moveaxis(att, -1, 0))
    cph, sph, cth, sth, cps, sps = trig

    R = np.empty(att.shape[:-1] + (3, 3), dtype=float)
    R[..., 0, 0] = cps * cth
    R[..., 0, 1] = cps * sph * sth - cph * sps
    R[..., 1, 0] = cth * sps
    R[..., 1, 1] = cph * cps + sph * sps * sth
    R[..., 2, 0] = -sth
    R[..., 2, 1] = cth * sph
    # the third column is the thrust axis the dynamics use
    _thrust_axis(trig, np.moveaxis(R[..., :, 2], -1, 0))
    return R


def rotation_jacobian(attitude) -> np.ndarray:
    """Map from Euler-angle rates to the world-frame angular velocity.

    Assembled from the sum of the yaw, pitch and roll axis contributions,
    each rotated into the world frame: column order ``[roll, pitch, yaw]``.
    """
    att = np.asarray(attitude, dtype=float)
    cth, sth = np.cos(att[..., 1]), np.sin(att[..., 1])
    cps, sps = np.cos(att[..., 2]), np.sin(att[..., 2])

    J = np.zeros(att.shape[:-1] + (3, 3), dtype=float)
    J[..., 0, 0] = cps * cth
    J[..., 0, 1] = -sps
    J[..., 1, 0] = sps * cth
    J[..., 1, 1] = cps
    J[..., 2, 0] = -sth
    J[..., 2, 2] = 1.0
    return J


def body_angular_velocity(attitude, attitude_rate) -> np.ndarray:
    """Body-frame angular velocity for given Euler angles and their rates."""
    att = np.asarray(attitude, dtype=float)
    rate = np.asarray(attitude_rate, dtype=float)
    cph, sph = np.cos(att[..., 0]), np.sin(att[..., 0])
    cth, sth = np.cos(att[..., 1]), np.sin(att[..., 1])
    dph, dth, dps = rate[..., 0], rate[..., 1], rate[..., 2]

    return np.stack(
        [
            dph - sth * dps,
            cph * dth + sph * cth * dps,
            -sph * dth + cph * cth * dps,
        ],
        axis=-1,
    )


def _attitude_trig(att):
    """Cosines and sines of roll, pitch and yaw, ``(cph, sph, cth, sth, cps,
    sps)``, of attitudes ``att`` with the components on the first axis."""
    cos, sin = np.cos(att), np.sin(att)
    return cos[0], sin[0], cos[1], sin[1], cos[2], sin[2]


def _thrust_axis(trig, out) -> np.ndarray:
    """World-frame direction of the body thrust axis (third rotation column),
    from the attitude's :func:`_attitude_trig`, written into ``out`` (shape
    ``(3, ...)``, components first) and returned."""
    cph, sph, cth, sth, cps, sps = trig
    np.add(sph * sps, cph * cps * sth, out=out[0, ...])
    np.subtract(cph * sps * sth, cps * sph, out=out[1, ...])
    np.multiply(cph, cth, out=out[2, ...])
    return out


def dynamics(state, inp, params: ModelParams) -> np.ndarray:
    """Continuous-time state derivative.

    Rows 0-2 copy the velocity, rows 3-5 are the Newton translational
    acceleration under gravity and total thrust ``dT + m*g`` along the body
    axis, rows 6-8 are the first-order attitude responses.  Position never
    feeds back; attitude rows depend on attitude and commands only.
    """
    x, u = _state_and_input(state, inp)
    att = np.moveaxis(x[..., ATT], -1, 0)
    axis = np.moveaxis(_thrust_axis(_attitude_trig(att), np.empty(att.shape)), 0, -1)
    thrust = u[..., 0] + params.mass * params.gravity
    acc = (thrust[..., None] / params.mass) * axis
    acc = acc - np.array([0.0, 0.0, params.gravity])

    out = np.empty(x.shape)
    out[..., POS] = x[..., VEL]
    out[..., VEL] = acc
    out[..., 6] = (u[..., 1] - x[..., 6]) / params.tau_roll
    out[..., 7] = (u[..., 2] - x[..., 7]) / params.tau_pitch
    out[..., 8] = u[..., 3]
    return out


def output_map(state) -> np.ndarray:
    """Project a state onto the controlled output ``[x, y, z, yaw]``."""
    x = np.asarray(state, dtype=float)
    return np.concatenate([x[..., POS], x[..., 8:9]], axis=-1)


def _check_dt(dt) -> None:
    if not 0.0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")


def _state_and_input(state, inp):
    """Float arrays of a state and an input, refused without 9 and 4 components, broadcast to one batch."""
    x, u = np.asarray(state, dtype=float), np.asarray(inp, dtype=float)
    if x.shape[-1:] != (N_STATES,) or u.shape[-1:] != (N_INPUTS,):
        raise ValueError(f"states need {N_STATES} components and inputs {N_INPUTS}")
    if x.shape[:-1] != u.shape[:-1]:
        batch = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
        x, u = np.broadcast_to(x, batch + (N_STATES,)), np.broadcast_to(u, batch + (N_INPUTS,))
    return x, u


def _rk4_stages(x, u, h: float, params: ModelParams, c, tau):
    """One RK4 step of length ``h`` from states ``x`` under inputs ``u`` of
    one batch shape: ``(x_next, trig, axis, scale)``, with the
    :func:`_attitude_trig` and thrust axes of the four stage attitudes, each
    of shape ``(3, 4) + batch`` (component, stage), and the thrust per mass.
    ``c`` and ``tau`` are the stage offsets and time constants of
    :func:`_step_constants` for ``h``, which the caller looks up once.

    The attitude rows do not depend on position or velocity, so the stage
    attitudes come first and one trig pass serves all four stages.  Every
    component is formed with the floating-point operations of
    :func:`dynamics` stage by stage, so ``x_next`` is bitwise that route's.
    """
    batch = x.shape[:-1]
    # components first: xt[j] and ut[j] have the batch shape
    first = (x.ndim - 1, *range(x.ndim - 1))
    xt, ut = x.transpose(first), u.transpose(first)
    # stage i + 1 starts at x + c_i k_i; k holds the stage derivatives
    ones = (1,) * len(batch)
    c_col = c.reshape((3,) + ones)
    att = np.empty((3, 4) + batch, dtype=float)
    k = np.empty((4, N_STATES) + batch, dtype=float)
    att[2, 0], k[:, 8] = xt[8], ut[3]
    np.add(xt[8], c_col * ut[3], out=att[2, 1:])
    # roll and pitch lag their commands: k = (cmd - angle) / tau, stage by
    # stage, written in place into att and k
    tau = tau.reshape((2,) + ones)
    cmd, x_angles, angles = ut[1:3], xt[6:8], att[0:2]
    angles[:, 0] = x_angles
    for i in range(3):
        np.divide(cmd - angles[:, i], tau, out=k[i, 6:8])
        np.add(x_angles, c[i] * k[i, 6:8], out=angles[:, i + 1])
    np.divide(cmd - angles[:, 3], tau, out=k[3, 6:8])

    trig = _attitude_trig(att)
    axis = _thrust_axis(trig, np.empty(att.shape))
    scale = (ut[0] + params.mass * params.gravity) / params.mass
    np.multiply(scale, axis, out=k[:, VEL].swapaxes(0, 1))
    k[:, 5] -= params.gravity  # gravity is (0, 0, g), and x - 0.0 is x bit for bit
    k[0, POS] = xt[VEL]
    np.add(xt[VEL], c_col[:, None] * k[:3, VEL], out=k[1:, POS])
    k_mid = 2.0 * k[1:3]
    x_next = xt + (h / 6.0) * (k[0] + k_mid[0] + k_mid[1] + k[3])
    return x_next.transpose((*range(1, x.ndim), 0)), trig, axis, scale


def rk4_step(state, inp, dt: float, params: ModelParams, substeps: int = 1) -> np.ndarray:
    """Classical fourth-order Runge-Kutta step under zero-order-hold input,
    split into ``substeps`` equal steps, one row of a stack at a time."""
    _check_dt(dt)
    if isinstance(substeps, bool) or not isinstance(substeps, Integral) or substeps < 1:
        raise ValueError("substeps must be a positive integer")
    x, u = _state_and_input(state, inp)
    h = float(dt / substeps)
    rows = [_rk4_one(xi, ui, h, substeps, params)
            for xi, ui in zip(x.reshape(-1, N_STATES).tolist(), u.reshape(-1, N_INPUTS).tolist())]
    return np.array(rows, dtype=float).reshape(x.shape)


def _rk4_one(x, u, h: float, substeps: int, params: ModelParams) -> list:
    """``substeps`` RK4 steps of length ``h`` from one state ``x`` under one
    input ``u``, lists of Python floats (IEEE doubles, never contracted), with
    the operations of :func:`_rk4_stages` in their order; the stage attitudes'
    trigonometry goes through ``np.cos`` and ``np.sin``, as in the stack pass."""
    c, w = 0.5 * h, h / 6.0
    m, g, t_r, t_p = params.mass, params.gravity, params.tau_roll, params.tau_pitch
    d_thrust, r_cmd, p_cmd, yaw_rate = u
    scale = (d_thrust + m * g) / m
    # the yaw rate is every stage's yaw derivative
    yaw_mid, yaw_end = c * yaw_rate, h * yaw_rate
    yaw_sum = ((yaw_rate + 2.0 * yaw_rate) + 2.0 * yaw_rate) + yaw_rate
    for _ in range(substeps):
        px, py, pz, vx, vy, vz, ph, th, ps = x
        # roll and pitch lag their commands, stage by stage
        r0, q0 = (r_cmd - ph) / t_r, (p_cmd - th) / t_p
        ph1, th1 = ph + c * r0, th + c * q0
        r1, q1 = (r_cmd - ph1) / t_r, (p_cmd - th1) / t_p
        ph2, th2 = ph + c * r1, th + c * q1
        r2, q2 = (r_cmd - ph2) / t_r, (p_cmd - th2) / t_p
        ph3, th3 = ph + h * r2, th + h * q2
        r3, q3 = (r_cmd - ph3) / t_r, (p_cmd - th3) / t_p
        ps1 = ps + yaw_mid
        att = np.array([ph, ph1, ph2, ph3, th, th1, th2, th3, ps, ps1, ps1, ps + yaw_end])
        cos, sin = np.cos(att).tolist(), np.sin(att).tolist()
        # stage accelerations: thrust along the body axis, then gravity
        ax, ay, az = [], [], []
        for i in range(4):
            cph, sph, cth, sth, cps, sps = cos[i], sin[i], cos[4 + i], sin[4 + i], cos[8 + i], sin[8 + i]
            ax.append(scale * (sph * sps + cph * cps * sth))
            ay.append(scale * (cph * sps * sth - cps * sph))
            az.append(scale * (cph * cth) - g)
        x = []
        for p, v, (a0, a1, a2, _) in ((px, vx, ax), (py, vy, ay), (pz, vz, az)):
            x.append(p + w * (((v + 2.0 * (v + c * a0)) + 2.0 * (v + c * a1)) + (v + h * a2)))
        for v, (a0, a1, a2, a3) in ((vx, ax), (vy, ay), (vz, az)):
            x.append(v + w * (((a0 + 2.0 * a1) + 2.0 * a2) + a3))
        x += [ph + w * (((r0 + 2.0 * r1) + 2.0 * r2) + r3),
              th + w * (((q0 + 2.0 * q1) + 2.0 * q2) + q3),
              ps + w * yaw_sum]
    return x


@lru_cache(maxsize=16)
def _step_constants(h: float, params: ModelParams):
    """Constants of an RK4 step of length ``h`` and of its sensitivities.

    Returns ``(c, tau, weights, sens0)``.  ``c`` holds the stage offsets
    ``(h/2, h/2, h)`` and ``tau`` the roll and pitch time constants.
    ``weights[i, m, r, c]`` maps source
    ``m`` of stage ``i`` (``d axis/d roll``, ``/d pitch``, ``/d yaw`` times
    the thrust per mass, then the axis itself) to column ``c`` (roll, pitch,
    yaw, dT, roll_cmd, pitch_cmd, yawrate_cmd) of the position (``r = 0``)
    or velocity (``r = 1``) rows.  ``sens0 = [ax0 | bu0]`` holds the entries
    of the state and input sensitivities that do not depend on the state:
    identities, ``h`` in d pos/d vel and the attitude diagonals.
    """
    rate = np.array([-1.0 / params.tau_roll, -1.0 / params.tau_pitch, 0.0])
    gain = np.array([1.0 / params.tau_roll, 1.0 / params.tau_pitch, 1.0])
    # d(stage attitude)/d(attitude) and /d(command), per component
    d_att = np.ones((4, 3))
    d_cmd = np.zeros((4, 3))
    for i, c in enumerate((0.5 * h, 0.5 * h, h)):
        d_att[i + 1] = 1.0 + c * rate * d_att[i]
        d_cmd[i + 1] = c * (rate * d_cmd[i] + gain)
    # v+ = v + h/6 (a1 + 2 a2 + 2 a3 + a4),  p+ = p + h v + h^2/6 (a1 + a2 + a3)
    stage = np.array([[h * h / 6.0, h * h / 6.0, h * h / 6.0, 0.0],
                      [h / 6.0, h / 3.0, h / 3.0, h / 6.0]]).T
    weights = np.zeros((4, 4, 2, 7))
    for j in range(3):
        weights[:, j, :, j] = stage * d_att[:, j, None]
        weights[:, j, :, 4 + j] = stage * d_cmd[:, j, None]
    weights[:, 3, :, 3] = stage / params.mass

    rk_weights = np.array([1.0, 2.0, 2.0, 1.0]) * (h / 6.0)
    ax0 = np.eye(N_STATES)
    ax0[POS, VEL] = h * np.eye(3)
    ax0[ATT, ATT] = np.diag(1.0 + rk_weights @ (rate * d_att))
    bu0 = np.zeros((N_STATES, N_INPUTS))
    bu0[ATT, 1:] = np.diag(rk_weights @ (rate * d_cmd + gain))
    consts = (np.array([0.5 * h, 0.5 * h, h]), np.array([params.tau_roll, params.tau_pitch]),
              weights, np.hstack([ax0, bu0]))
    for a in consts:
        a.flags.writeable = False
    return consts


def rk4_step_with_jacobians(state, inp, dt: float, params: ModelParams):
    """RK4 step plus its sensitivities ``(x_next, d x_next/dx, d x_next/du)``.

    The Jacobians are exact derivatives of the discrete map (not of the
    continuous flow), and ``x_next`` is bitwise :func:`rk4_step`'s: the
    composition of :func:`_rk4_stages` and :func:`_rk4_sensitivities`.
    """
    _check_dt(dt)
    x, u = _state_and_input(state, inp)
    c, tau, weights, sens0 = _step_constants(float(dt), params)
    x_next, trig, axis, scale = _rk4_stages(x, u, dt, params, c, tau)
    return (x_next, *_rk4_sensitivities(trig, axis, scale, weights, sens0))


def _rk4_sensitivities(trig, axis, scale, weights, sens0):
    """``(d x_next/dx, d x_next/du)`` of an RK4 step from the stage
    quantities ``trig``, ``axis`` and ``scale`` that :func:`_rk4_stages`
    returned for it (or a slice of them over the batch axes), and the
    ``weights`` and ``sens0`` of :func:`_step_constants`.

    The stage attitudes are linear in the attitude and the commands with
    constant coefficients, and the position and velocity rows are sums over
    the stage accelerations, so the sensitivities are one contraction of
    the stage thrust-axis derivatives over the stage axis.
    """
    batch = scale.shape
    cph, sph, cth, sth, cps, sps = trig
    # per stage: d axis/d(roll, pitch, yaw) and the axis, components first:
    # src[k, m] holds source m of axis component k, shape (4,) + batch
    src = np.empty((3, 4, 4) + batch, dtype=float)
    # the axis is linear in (cos roll, sin roll): its roll derivative is the
    # axis with (cph, sph) replaced by (-sph, cph)
    _thrust_axis((-sph, cph, cth, sth, cps, sps), src[:, 0])
    src[0, 1], src[1, 1], src[2, 1] = cph * cps * cth, cph * sps * cth, -cph * sth
    src[0, 2], src[1, 2], src[2, 2] = -axis[1], axis[0], 0.0
    src[:, 3] = axis
    src[:, :3] *= scale
    # contracted over a stage-first copy, shape (4,) + batch + (3, 4)
    src = src.transpose((2, *range(3, 3 + len(batch)), 0, 1)).copy()
    rows = np.einsum("i...km,imrc->...rkc", src, weights)

    # ax and bu are the column blocks of one array [ax | bu]
    sens = np.empty(batch + (N_STATES, N_STATES + N_INPUTS), dtype=float)
    sens[...] = sens0
    sens[..., 0:6, ATT.start:] = rows.reshape(batch + (6, 7))
    return sens[..., :N_STATES], sens[..., N_STATES:]
