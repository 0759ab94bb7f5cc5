import numpy as np
import pytest

from quadpath.dynamics import (
    ModelParams,
    body_angular_velocity,
    dynamics,
    dynamics_jacobians,
    output_map,
    rk4_step,
    rk4_step_with_jacobians,
    rotation_jacobian,
    rotation_matrix,
)

PARAMS = ModelParams()


def elementary_rotation_product(attitude):
    """Independent oracle: assemble the rotation from elementary matrices."""
    phi, th, psi = attitude
    rx = np.array([[1, 0, 0], [0, np.cos(phi), -np.sin(phi)], [0, np.sin(phi), np.cos(phi)]])
    ry = np.array([[np.cos(th), 0, np.sin(th)], [0, 1, 0], [-np.sin(th), 0, np.cos(th)]])
    rz = np.array([[np.cos(psi), -np.sin(psi), 0], [np.sin(psi), np.cos(psi), 0], [0, 0, 1]])
    return rz @ ry @ rx


class TestRotationMatrix:
    def test_zero_angles_identity(self):
        assert np.array_equal(rotation_matrix([0.0, 0.0, 0.0]), np.eye(3))

    def test_pure_yaw_maps_x_to_y(self):
        R = rotation_matrix([0.0, 0.0, np.pi / 2])
        np.testing.assert_allclose(R @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)

    def test_matches_elementary_composition(self):
        att = np.array([0.1, 0.2, 0.3])
        np.testing.assert_allclose(rotation_matrix(att), elementary_rotation_product(att), atol=1e-14)

    def test_orthonormal_unit_determinant(self):
        rng = np.random.default_rng(0)
        att = rng.uniform(-1.0, 1.0, size=(1000, 3))
        R = rotation_matrix(att)
        gram = R @ np.swapaxes(R, -1, -2)
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12
        assert np.max(np.abs(np.linalg.det(R) - 1.0)) < 1e-12


class TestRotationJacobian:
    def test_zero_angles_identity(self):
        assert np.array_equal(rotation_jacobian([0.0, 0.0, 0.0]), np.eye(3))

    def test_first_row_second_entry_is_minus_sin_yaw(self):
        J = rotation_jacobian([0.0, np.pi / 6, 0.4])
        assert J[0, 1] == pytest.approx(-np.sin(0.4), abs=1e-15)

    def test_matches_axis_contribution_sum(self):
        # oracle: yaw axis + yaw-rotated pitch axis + yaw-pitch-rotated roll axis
        rng = np.random.default_rng(1)
        for _ in range(200):
            att = rng.uniform(-1.0, 1.0, 3)
            rate = rng.uniform(-1.0, 1.0, 3)
            phi, th, psi = att
            rz = elementary_rotation_product([0.0, 0.0, psi])
            rzy = elementary_rotation_product([0.0, th, psi])
            omega = (
                np.array([0.0, 0.0, rate[2]])
                + rz @ np.array([0.0, rate[1], 0.0])
                + rzy @ np.array([rate[0], 0.0, 0.0])
            )
            np.testing.assert_allclose(rotation_jacobian(att) @ rate, omega, atol=1e-12)


class TestBodyAngularVelocity:
    def test_identity_at_zero_attitude(self):
        np.testing.assert_array_equal(
            body_angular_velocity([0.0, 0.0, 0.0], [0.3, -0.2, 0.9]), [0.3, -0.2, 0.9]
        )

    def test_matches_rotation_oracle(self):
        rng = np.random.default_rng(2)
        att = rng.uniform(-1.0, 1.0, size=(1000, 3))
        rate = rng.uniform(-1.0, 1.0, size=(1000, 3))
        R = rotation_matrix(att)
        J = rotation_jacobian(att)
        oracle = np.einsum("...ji,...jk,...k->...i", R, J, rate)
        assert np.max(np.abs(body_angular_velocity(att, rate) - oracle)) < 1e-12


class TestDynamics:
    def test_hover_equilibrium_exact_zero(self):
        xdot = dynamics(np.zeros(9), np.zeros(4), PARAMS)
        assert np.array_equal(xdot, np.zeros(9))

    def test_roll_lag(self):
        x = np.zeros(9)
        x[6] = 0.1
        xdot = dynamics(x, np.zeros(4), ModelParams(tau_roll=0.2))
        assert xdot[6] == pytest.approx(-0.5, abs=1e-15)

    def test_thrust_step_vertical_acceleration(self):
        u = np.array([0.1 * PARAMS.mass * PARAMS.gravity, 0.0, 0.0, 0.0])
        xdot = dynamics(np.zeros(9), u, PARAMS)
        assert xdot[5] == pytest.approx(0.1 * PARAMS.gravity, rel=1e-12)
        np.testing.assert_allclose(xdot[3:5], 0.0, atol=1e-15)

    def test_acceleration_is_rotated_thrust(self):
        # ties the model's thrust direction to the validated rotation matrix
        rng = np.random.default_rng(17)
        x = rng.uniform(-1.0, 1.0, size=(1000, 9))
        u = rng.uniform(-0.15, 0.15, size=(1000, 4))
        thrust = (u[:, 0] + PARAMS.mass * PARAMS.gravity) / PARAMS.mass
        body = np.zeros((1000, 3))
        body[:, 2] = thrust
        expected = np.einsum("...ij,...j->...i", rotation_matrix(x[:, 6:9]), body)
        expected[:, 2] -= PARAMS.gravity
        assert np.max(np.abs(dynamics(x, u, PARAMS)[:, 3:6] - expected)) < 1e-12

    def test_position_never_feeds_back(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.3, 0.3, 9)
        u = rng.uniform(-0.1, 0.1, 4)
        shifted = x.copy()
        shifted[0:3] += rng.uniform(-5.0, 5.0, 3)
        np.testing.assert_array_equal(dynamics(x, u, PARAMS), dynamics(shifted, u, PARAMS))

    def test_attitude_rows_ignore_velocity(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-0.3, 0.3, 9)
        u = rng.uniform(-0.1, 0.1, 4)
        shifted = x.copy()
        shifted[3:6] += rng.uniform(-1.0, 1.0, 3)
        np.testing.assert_array_equal(
            dynamics(x, u, PARAMS)[6:9], dynamics(shifted, u, PARAMS)[6:9]
        )

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.3, 0.3, 9)
        u = rng.uniform(-0.1, 0.1, 4)
        fx, fu = dynamics_jacobians(x, u, PARAMS)
        h = 1e-6
        for i in range(9):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            col = (dynamics(xp, u, PARAMS) - dynamics(xm, u, PARAMS)) / (2 * h)
            np.testing.assert_allclose(fx[:, i], col, atol=1e-7)
        for i in range(4):
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            col = (dynamics(x, up, PARAMS) - dynamics(x, um, PARAMS)) / (2 * h)
            np.testing.assert_allclose(fu[:, i], col, atol=1e-7)


class TestOutputMap:
    def test_projection(self):
        x = np.array([1.0, 2.0, 3.0, 0.4, 0.5, 0.6, 0.7, 0.8, 0.5])
        np.testing.assert_array_equal(output_map(x), [1.0, 2.0, 3.0, 0.5])

    def test_zero_state(self):
        np.testing.assert_array_equal(output_map(np.zeros(9)), np.zeros(4))

    def test_roll_pitch_do_not_appear(self):
        x = np.zeros(9)
        y0 = output_map(x).copy()
        x[6:8] = [0.3, -0.2]
        np.testing.assert_array_equal(output_map(x), y0)


class TestRk4:
    def test_equilibrium_fixed_point(self):
        x = rk4_step(np.zeros(9), np.zeros(4), 0.5, PARAMS)
        assert np.array_equal(x, np.zeros(9))

    def test_attitude_decay_matches_exponential(self):
        x = np.zeros(9)
        x[6] = 0.1
        out = rk4_step(x, np.zeros(4), 0.05, ModelParams(tau_roll=0.2))
        assert out[6] == pytest.approx(0.1 * np.exp(-0.25), abs=1e-6)

    def test_fourth_order_step_halving(self):
        x = np.zeros(9)
        x[3:6] = [0.1, -0.05, 0.08]
        x[6:9] = [0.15, -0.1, 0.3]
        u = np.array([0.02, 0.2, -0.15, 0.3])
        ref = rk4_step(x, u, 0.2, PARAMS, substeps=1024)
        e1 = np.linalg.norm(rk4_step(x, u, 0.2, PARAMS, substeps=8) - ref)
        e2 = np.linalg.norm(rk4_step(x, u, 0.2, PARAMS, substeps=16) - ref)
        assert 14.0 <= e1 / e2 <= 18.0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            rk4_step(np.zeros(9), np.zeros(4), 0.0, PARAMS)

    def test_step_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-0.3, 0.3, 9)
        u = rng.uniform(-0.1, 0.1, 4)
        x_next, ax, bu = rk4_step_with_jacobians(x, u, 0.05, PARAMS)
        np.testing.assert_allclose(x_next, rk4_step(x, u, 0.05, PARAMS), atol=1e-15)
        h = 1e-6
        for i in range(9):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            col = (rk4_step(xp, u, 0.05, PARAMS) - rk4_step(xm, u, 0.05, PARAMS)) / (2 * h)
            np.testing.assert_allclose(ax[:, i], col, atol=1e-8)
        for i in range(4):
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            col = (rk4_step(x, up, 0.05, PARAMS) - rk4_step(x, um, 0.05, PARAMS)) / (2 * h)
            np.testing.assert_allclose(bu[:, i], col, atol=1e-8)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(mass=0.0)
    with pytest.raises(ValueError):
        ModelParams(tau_pitch=-0.1)
