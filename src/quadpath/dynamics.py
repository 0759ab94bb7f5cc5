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
"""

from __future__ import annotations

from dataclasses import dataclass

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
    trig = _attitude_trig(att)
    cph, sph, cth, sth, cps, sps = trig

    R = np.empty(att.shape[:-1] + (3, 3), dtype=float)
    R[..., 0, 0] = cps * cth
    R[..., 0, 1] = cps * sph * sth - cph * sps
    R[..., 1, 0] = cth * sps
    R[..., 1, 1] = cph * cps + sph * sps * sth
    R[..., 2, 0] = -sth
    R[..., 2, 1] = cth * sph
    # the third column is the thrust axis the dynamics use
    R[..., :, 2] = _thrust_axis(trig)
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
    """Cosines and sines of roll, pitch and yaw:
    ``(cph, sph, cth, sth, cps, sps)``."""
    return (
        np.cos(att[..., 0]), np.sin(att[..., 0]),
        np.cos(att[..., 1]), np.sin(att[..., 1]),
        np.cos(att[..., 2]), np.sin(att[..., 2]),
    )


def _thrust_axis(trig) -> np.ndarray:
    """World-frame direction of the body thrust axis (third rotation column),
    from the attitude's :func:`_attitude_trig`."""
    cph, sph, cth, sth, cps, sps = trig
    return np.stack(
        [
            sph * sps + cph * cps * sth,
            cph * sps * sth - cps * sph,
            cph * cth,
        ],
        axis=-1,
    )


def dynamics(state, inp, params: ModelParams) -> np.ndarray:
    """Continuous-time state derivative.

    Rows 0-2 copy the velocity, rows 3-5 are the Newton translational
    acceleration under gravity and total thrust ``dT + m*g`` along the body
    axis, rows 6-8 are the first-order attitude responses.  Position never
    feeds back; attitude rows depend on attitude and commands only.
    """
    x = np.asarray(state, dtype=float)
    u = np.asarray(inp, dtype=float)
    return _derivative(x, u, _thrust_axis(_attitude_trig(x[..., ATT])), params)


def _derivative(x, u, axis, params: ModelParams) -> np.ndarray:
    """:func:`dynamics` given the thrust axis at ``x``."""
    thrust = u[..., 0] + params.mass * params.gravity
    acc = (thrust[..., None] / params.mass) * axis
    acc = acc - np.array([0.0, 0.0, params.gravity])

    out = np.empty(np.broadcast_shapes(x.shape[:-1], u.shape[:-1]) + (N_STATES,), dtype=float)
    out[..., POS] = x[..., VEL]
    out[..., VEL] = acc
    out[..., 6] = (u[..., 1] - x[..., 6]) / params.tau_roll
    out[..., 7] = (u[..., 2] - x[..., 7]) / params.tau_pitch
    out[..., 8] = u[..., 3]
    return out


def dynamics_jacobians(state, inp, params: ModelParams):
    """Analytic Jacobians of :func:`dynamics` w.r.t. state and input.

    Returns ``(fx, fu)`` with shapes ``(..., 9, 9)`` and ``(..., 9, 4)``.
    """
    x = np.asarray(state, dtype=float)
    u = np.asarray(inp, dtype=float)
    return _dynamics_with_jacobians(x, u, params)[1:]


def _dynamics_with_jacobians(x, u, params: ModelParams):
    """``(dynamics, fx, fu)`` at one point, with the attitude trigonometry
    evaluated once."""
    batch = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
    trig = _attitude_trig(x[..., ATT])
    cph, sph, cth, sth, cps, sps = trig
    axis = _thrust_axis(trig)
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
    return _derivative(x, u, axis, params), fx, fu


def output_map(state) -> np.ndarray:
    """Project a state onto the controlled output ``[x, y, z, yaw]``."""
    x = np.asarray(state, dtype=float)
    return np.concatenate([x[..., POS], x[..., 8:9]], axis=-1)


def rk4_step(state, inp, dt: float, params: ModelParams, substeps: int = 1) -> np.ndarray:
    """Classical fourth-order Runge-Kutta step under zero-order-hold input."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
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


def rk4_step_with_jacobians(state, inp, dt: float, params: ModelParams):
    """RK4 step plus its sensitivities ``(x_next, d x_next/dx, d x_next/du)``.

    The Jacobians follow the chain rule through the four stages, so they are
    exact derivatives of the discrete map (not of the continuous flow).
    """
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
