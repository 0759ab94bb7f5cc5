import numpy as np
import pytest

from quadpath.paths import (
    CorridorPath,
    PATH_NAMES,
    make_path,
    path_error,
    step_timing,
    timing_matrices,
    wrap_angle,
)

from quadpath.transcription import OcpConfig

from oracles import curve_stack, nominal_yaw_rate, timing_law


class TestSpiral:
    path = make_path("spiral")

    def test_endpoints_and_midpoint(self):
        np.testing.assert_allclose(self.path.point(-1.0), [0.25, 0.0, 0.25, 0.0], atol=1e-15)
        np.testing.assert_allclose(self.path.point(0.0), [0.25, 0.0, 0.65, 0.0], atol=1e-15)
        np.testing.assert_allclose(self.path.point(-0.5), [-0.25, 0.0, 0.45, 0.0], atol=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            self.path.point(-1.2)
        with pytest.raises(ValueError):
            self.path.point(0.1)


class TestLemniscate:
    path = make_path("lemniscate")

    def test_closed_curve(self):
        np.testing.assert_allclose(self.path.point(0.0), [0.5, 0.0, 0.5, 0.0], atol=1e-15)
        np.testing.assert_allclose(self.path.point(-1.0), [0.5, 0.0, 0.5, 0.0], atol=1e-12)

    def test_quarter_point(self):
        np.testing.assert_allclose(self.path.point(-0.25), [0.0, 0.0, 0.5, 0.0], atol=1e-15)


class TestSinusoid:
    def test_start_point(self):
        p = make_path("sinusoid").point(-1.0)
        np.testing.assert_allclose(p[:3], [0.0, -0.25, 0.5], atol=1e-15)
        assert p[3] == pytest.approx(0.30817, abs=1e-5)

    def test_midpoint(self):
        p = make_path("sinusoid").point(-0.5)
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


class TestPointAndDerivative:
    """One evaluation gives both values, bitwise those of the two parts."""

    @staticmethod
    def offset(path, s):
        # the corridor path also takes its offset parameter
        return (np.full(np.shape(s), 0.3),) if isinstance(path, CorridorPath) else ()

    @pytest.mark.parametrize("name", PATH_NAMES)
    @pytest.mark.parametrize("s", [-0.37, np.linspace(-1.0, 0.0, 41)], ids=["scalar", "array"])
    def test_equals_point_and_derivative_bitwise(self, name, s):
        path = make_path(name)
        offset = self.offset(path, s)
        p, d = path.point_and_derivative(s, *offset)
        for got, want in ((p, path.point(s, *offset)), (d, path.derivative(s))):
            assert got.shape == want.shape == np.shape(s) + (4,)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", PATH_NAMES)
    @pytest.mark.parametrize("s", [-1.2, 0.1, np.array([-0.5, 0.01])])
    def test_rejects_out_of_domain(self, name, s):
        path = make_path(name)
        offset = self.offset(path, s)
        for call in (lambda: path.point_and_derivative(s, *offset),
                     lambda: path.point(s, *offset),
                     lambda: path.derivative(s)):
            with pytest.raises(ValueError, match=r"outside \[-1, 0\]"):
                call()


class TestStackOracle:
    """The preallocated columns of each curve against columns stacked with
    ``np.stack``: the same operations, so the same bits."""

    SAMPLES = [-1.0, 0.0, -0.37, np.linspace(-1.0, 0.0, 41), np.linspace(-1.0, 0.0, 24).reshape(4, 6)]

    @pytest.mark.parametrize("name", ["spiral", "lemniscate", "sinusoid"])
    @pytest.mark.parametrize("s", SAMPLES, ids=["start", "end", "0-d", "1-d", "2-d"])
    def test_equals_stacked_columns_bitwise(self, name, s):
        got = make_path(name).point_and_derivative(s)
        for a, b in zip(got, curve_stack(name, s)):
            assert a.shape == b.shape == np.shape(s) + (4,)
            assert a.tobytes() == b.tobytes()


class TestRejectsNan:
    """NaN fails the domain tests instead of giving a NaN point."""

    @pytest.mark.parametrize("name", PATH_NAMES)
    @pytest.mark.parametrize("s", [np.nan, np.array([-0.5, np.nan]), np.array([[np.nan], [-1.0]])],
                             ids=["0-d", "1-d", "2-d"])
    def test_progress(self, name, s):
        path = make_path(name)
        offset = (np.zeros(np.shape(s)),) if isinstance(path, CorridorPath) else ()
        with pytest.raises(ValueError, match=r"outside \[-1, 0\]"):
            path.point(s, *offset)
        with pytest.raises(ValueError, match=r"outside \[-1, 0\]"):
            path.derivative(s)

    @pytest.mark.parametrize("s2", [np.nan, np.array([0.2, np.nan])], ids=["0-d", "1-d"])
    def test_corridor_offset(self, s2):
        path = make_path("sinusoid-corridor")
        with pytest.raises(ValueError, match="corridor offset must be finite"):
            path.point(-0.5, s2)
        with pytest.raises(ValueError, match="corridor offset must be finite"):
            path.point_and_derivative(np.full(np.shape(s2), -0.5), s2)


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
        np.testing.assert_array_equal(self.corridor.point(s, np.zeros(11)), make_path("sinusoid").point(s))

    def test_offset_additivity(self):
        p = self.corridor.point(-1.0, 0.5)
        base = make_path("sinusoid").point(-1.0)
        assert p[3] == pytest.approx(base[3] + 0.5, abs=1e-12)
        np.testing.assert_array_equal(p[:3], base[:3])

    def test_boundary_offset(self):
        p = self.corridor.point(-1.0, -0.5 * np.pi)
        assert p[3] == pytest.approx(0.30817 - 0.5 * np.pi, abs=1e-5)

    def test_corridor_path_requires_zero_inside(self):
        # the corridor's bounds are the horizon problem's, so the
        # configuration checks them
        with pytest.raises(ValueError, match="must contain 0"):
            OcpConfig(corridor=True, s2_bounds=(0.1, 0.5))
        OcpConfig(corridor=True, s2_bounds=(0.0, 0.0))  # degenerate corridor is allowed

    def test_direction_only_offsets_yaw(self):
        path = make_path("sinusoid-corridor")
        np.testing.assert_array_equal(path.direction, [0.0, 0.0, 0.0, 1.0])
        assert path.direction is CorridorPath.direction
        with pytest.raises(ValueError, match="read-only"):
            path.direction[0] = 1.0
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
    with pytest.raises(ValueError):
        make_path("zigzag")
