import numpy as np
import pytest

from quadpath.paths import (
    CorridorPath,
    PATH_NAMES,
    eval_lemniscate,
    eval_sinusoid,
    eval_spiral,
    make_path,
    path_error,
    step_timing,
    timing_matrices,
    wrap_angle,
)

from oracles import nominal_yaw_rate, timing_law


class TestSpiral:
    def test_endpoints_and_midpoint(self):
        np.testing.assert_allclose(eval_spiral(-1.0), [0.25, 0.0, 0.25, 0.0], atol=1e-15)
        np.testing.assert_allclose(eval_spiral(0.0), [0.25, 0.0, 0.65, 0.0], atol=1e-15)
        np.testing.assert_allclose(eval_spiral(-0.5), [-0.25, 0.0, 0.45, 0.0], atol=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            eval_spiral(-1.2)
        with pytest.raises(ValueError):
            eval_spiral(0.1)


class TestLemniscate:
    def test_closed_curve(self):
        np.testing.assert_allclose(eval_lemniscate(0.0), [0.5, 0.0, 0.5, 0.0], atol=1e-15)
        np.testing.assert_allclose(eval_lemniscate(-1.0), [0.5, 0.0, 0.5, 0.0], atol=1e-12)

    def test_quarter_point(self):
        np.testing.assert_allclose(eval_lemniscate(-0.25), [0.0, 0.0, 0.5, 0.0], atol=1e-15)


class TestSinusoid:
    def test_start_point(self):
        p = eval_sinusoid(-1.0)
        np.testing.assert_allclose(p[:3], [0.0, -0.25, 0.5], atol=1e-15)
        assert p[3] == pytest.approx(0.30817, abs=1e-5)

    def test_midpoint(self):
        p = eval_sinusoid(-0.5)
        np.testing.assert_allclose(p[:3], [0.0, 0.0, 0.5], atol=1e-15)
        assert p[3] == pytest.approx(2.83342, abs=1e-5)

    def test_yaw_is_tangential(self):
        s = np.linspace(-0.99, -0.01, 57)
        path = make_path("sinusoid")
        d = path.derivative(s)
        forward = d[:, 0] > 1e-6
        tan_yaw = np.tan(path.point(s)[:, 3])
        np.testing.assert_allclose(
            tan_yaw[forward], d[forward, 1] / d[forward, 0], rtol=1e-9
        )


class TestDerivatives:
    @pytest.mark.parametrize("name", ["spiral", "lemniscate", "sinusoid", "hover"])
    def test_matches_central_differences(self, name):
        path = make_path(name)
        h = 1e-6
        s = np.linspace(-1.0 + h, -h, 101)
        fd = (path.point(s + h) - path.point(s - h)) / (2.0 * h)
        an = path.derivative(s)
        assert np.max(np.abs(fd - an) / np.maximum(np.abs(an), 1.0)) < 1e-5

    @pytest.mark.parametrize("name", ["spiral", "lemniscate"])
    def test_zero_yaw_paths(self, name):
        path = make_path(name)
        s = np.linspace(-1.0, 0.0, 101)
        assert np.all(path.point(s)[:, 3] == 0.0)


class TestNominalYawRate:
    def test_linear_in_rate(self):
        assert nominal_yaw_rate(-0.3, 0.0) == 0.0

    def test_peak_value(self):
        assert nominal_yaw_rate(-0.75, 0.02) == pytest.approx(0.39478, abs=1e-4)

    def test_zero_at_start(self):
        assert nominal_yaw_rate(-1.0, 0.02) == pytest.approx(0.0, abs=1e-12)

    def test_matches_path_derivative(self):
        rng = np.random.default_rng(7)
        s = rng.uniform(-1.0, 0.0, 100)
        d_yaw = make_path("sinusoid").derivative(s)[:, 3]
        np.testing.assert_allclose(nominal_yaw_rate(s, 0.02), d_yaw * 0.02, atol=1e-9)


class TestCorridor:
    corridor = make_path("sinusoid-corridor")

    def test_zero_offset_equals_base(self):
        s = np.linspace(-1.0, 0.0, 11)
        np.testing.assert_array_equal(self.corridor.point(s, np.zeros(11)), eval_sinusoid(s))

    def test_offset_additivity(self):
        p = self.corridor.point(-1.0, 0.5)
        base = eval_sinusoid(-1.0)
        assert p[3] == pytest.approx(base[3] + 0.5, abs=1e-12)
        np.testing.assert_array_equal(p[:3], base[:3])

    def test_boundary_offset(self):
        p = self.corridor.point(-1.0, -0.5 * np.pi)
        assert p[3] == pytest.approx(0.30817 - 0.5 * np.pi, abs=1e-5)

    def test_rejects_out_of_corridor(self):
        with pytest.raises(ValueError):
            self.corridor.point(-0.5, 0.5 * np.pi + 1e-3)

    def test_corridor_path_requires_zero_inside(self):
        base = make_path("sinusoid")
        with pytest.raises(ValueError):
            CorridorPath(base, s2_bounds=(0.1, 0.5))
        CorridorPath(base, s2_bounds=(0.0, 0.0))  # degenerate corridor is allowed

    def test_direction_only_offsets_yaw(self):
        path = make_path("sinusoid-corridor")
        np.testing.assert_array_equal(path.direction, [0.0, 0.0, 0.0, 1.0])
        p = path.point(-0.3, 0.7)
        np.testing.assert_array_equal(p[:3], make_path("sinusoid").point(-0.3)[:3])


class TestTimingLaw:
    def test_direct_read(self):
        np.testing.assert_array_equal(timing_law([-1.0, 0.04], 0.0), [0.04, 0.0])
        np.testing.assert_array_equal(timing_law([-0.5, 0.02], 0.1), [0.02, 0.1])

    def test_corridor_direct_read(self):
        z = np.array([-1.0, 0.0, 0.04, 0.0])
        np.testing.assert_array_equal(timing_law(z, np.zeros(2)), [0.04, 0.0, 0.0, 0.0])
        dz = timing_law(z, np.array([0.0, 0.1]))
        assert dz[1] == 0.0 and dz[3] == 0.1

    def test_projection_reproduces_single_chain(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            z4 = rng.uniform(-1.0, 1.0, 4)
            nu2 = rng.uniform(-1.0, 1.0, 2)
            z4_next = step_timing(z4, nu2, 0.05)
            z2_next = step_timing(z4[[0, 2]], nu2[0], 0.05)
            np.testing.assert_array_equal(z4_next[[0, 2]], z2_next)

    def test_superposition_to_machine_precision(self):
        rng = np.random.default_rng(9)
        za, zb = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        na, nb = 0.3, -0.7
        lhs = timing_law(2.0 * za + 3.0 * zb, 2.0 * na + 3.0 * nb)
        rhs = 2.0 * timing_law(za, na) + 3.0 * timing_law(zb, nb)
        np.testing.assert_array_equal(lhs, rhs)

    def test_exact_discrete_step(self):
        np.testing.assert_allclose(
            step_timing([-1.0, 0.04], 0.0, 0.05), [-0.998, 0.04], atol=1e-15
        )
        z = step_timing([-0.5, 0.02], 0.02, 0.05)
        assert z[1] == pytest.approx(0.021, abs=1e-15)
        assert z[0] == pytest.approx(-0.5 + 0.02 * 0.05 + 0.5 * 0.02 * 0.0025, abs=1e-15)

    def test_step_matches_generic_rk4(self):
        # the chains are double integrators, so one RK4 step is exact;
        # classic chain, then the corridor's two chains
        dt = 0.05
        for z, nu in (
            (np.array([-0.4, 0.01]), 0.03),
            (np.array([-0.4, 0.7, 0.01, -0.2]), np.array([0.03, -0.4])),
        ):
            k1 = timing_law(z, nu)
            k2 = timing_law(z + 0.5 * dt * k1, nu)
            k3 = timing_law(z + 0.5 * dt * k2, nu)
            k4 = timing_law(z + dt * k3, nu)
            rk4 = z + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            np.testing.assert_allclose(step_timing(z, nu, dt), rk4, atol=1e-18)

    def test_timing_matrices_match_step(self):
        ad, bd = timing_matrices(2, 0.05)
        z = np.array([-0.5, 0.2, 0.01, -0.04])
        nu = np.array([0.02, -0.3])
        np.testing.assert_allclose(ad @ z + bd @ nu, step_timing(z, nu, 0.05), atol=1e-18)


class TestPathError:
    def test_zero(self):
        y = np.array([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_array_equal(path_error(y, y), np.zeros(4))

    def test_simple_difference(self):
        e = path_error([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(e, [1.0, 0.0, 0.0, 0.0])

    def test_yaw_wraps_across_seam(self):
        e = path_error([0.0, 0.0, 0.0, 3.0], [0.0, 0.0, 0.0, -3.0])
        assert e[3] == pytest.approx(-0.28319, abs=1e-5)

    def test_wrap_angle_range(self):
        rng = np.random.default_rng(10)
        a = rng.uniform(-20.0, 20.0, 1000)
        w = wrap_angle(a)
        assert np.all(w > -np.pi) and np.all(w <= np.pi)
        np.testing.assert_allclose(np.cos(w), np.cos(a), atol=1e-12)
        np.testing.assert_allclose(np.sin(w), np.sin(a), atol=1e-12)


def test_make_path_names():
    assert PATH_NAMES == ("spiral", "lemniscate", "sinusoid", "sinusoid-corridor", "hover")
    for name in PATH_NAMES:
        make_path(name)
    assert make_path("sinusoid-corridor", s2_bounds=(0.0, 0.0)).s2_bounds == (0.0, 0.0)
    with pytest.raises(ValueError):
        make_path("zigzag")
