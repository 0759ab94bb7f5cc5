import numpy as np
import pytest

from quadpath.dynamics import ModelParams
from quadpath.paths import make_path
from quadpath.transcription import OcpConfig, build_ocp

from oracles import quadrature_cost, stage_cost, terminal_cost

PARAMS = ModelParams()


def classic_problem(s0=-1.0, s_dot0=1e-5):
    cfg = OcpConfig()
    path = make_path("spiral")
    p0 = path.point(s0)
    x0 = np.zeros(9)
    x0[:3] = p0[:3]
    x0[8] = p0[3]
    return build_ocp(x0, np.array([s0, s_dot0]), path, cfg, PARAMS), cfg


def corridor_problem():
    cfg = OcpConfig(corridor=True)
    path = make_path("sinusoid-corridor")
    p0 = path.point(-1.0, 0.0)
    x0 = np.zeros(9)
    x0[:3] = p0[:3]
    x0[8] = p0[3]
    return build_ocp(x0, np.array([-1.0, 0.0, 1e-5, 0.0]), path, cfg, PARAMS), cfg


def random_feasible_vector(prob, cfg, rng):
    w = rng.uniform(-0.2, 0.2, prob.n)
    for k in range(cfg.horizon + 1):
        zs = prob.z_slice(k)
        w[zs.start] = rng.uniform(-0.9, -0.1)
        if cfg.corridor:
            w[zs.start + 1] = rng.uniform(-1.0, 1.0)
            w[zs.start + 2] = rng.uniform(1e-4, 0.9 * cfg.s_dot_max)
            w[zs.start + 3] = rng.uniform(-0.3, 0.3)
        else:
            w[zs.start + 1] = rng.uniform(1e-4, 0.9 * cfg.s_dot_max)
    return w


class TestBookkeeping:
    def test_classic_dimensions(self):
        prob, cfg = classic_problem()
        assert prob.n == 6 * (9 + 2) + 5 * (4 + 1) == 91
        assert prob.m_eq == 5 * 11 + 11 == 66

    def test_corridor_dimensions(self):
        prob, cfg = corridor_problem()
        assert prob.n == 6 * (9 + 4) + 5 * (4 + 2) == 108
        assert prob.m_eq == 6 * 13 == 78

    def test_no_inequality_rows(self):
        prob, _ = classic_problem()
        assert not hasattr(prob, "inequality")
        assert prob.lower.shape == prob.upper.shape == (prob.n,)


class TestStageCost:
    def test_zero_at_origin(self):
        cfg = OcpConfig()
        assert stage_cost(np.zeros(4), np.zeros(3), [0.0], np.zeros(4), [0.0], cfg) == 0.0

    def test_unit_error_identity_weight(self):
        cfg = OcpConfig(q_weight=np.ones(8), r_weight=np.ones(5))
        val = stage_cost([1.0, 0, 0, 0], np.zeros(3), [0.0], np.zeros(4), [0.0], cfg)
        assert val == pytest.approx(1.0, abs=1e-15)

    def test_quadratic_homogeneity(self):
        cfg = OcpConfig()
        rng = np.random.default_rng(11)
        e, v, z, u, nu = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 3), [0.3], rng.uniform(-1, 1, 4), [0.02]
        base = stage_cost(e, v, z, u, nu, cfg)
        scaled = stage_cost(2 * e, 2 * v, [0.6], 2 * u, [0.04], cfg)
        assert scaled == pytest.approx(4.0 * base, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        cfg = OcpConfig()
        with pytest.raises(ValueError):
            stage_cost(np.zeros(3), np.zeros(3), [0.0], np.zeros(4), [0.0], cfg)


class TestTerminalCost:
    def test_zero_at_path_end(self):
        assert terminal_cost([0.0, 0.01], OcpConfig()) == 0.0

    def test_quadratic(self):
        cfg = OcpConfig(terminal_weight=10.0)
        assert terminal_cost([-1.0, 0.01], cfg) == pytest.approx(10.0, abs=1e-15)

    def test_corridor_offset_term(self):
        cfg = OcpConfig(corridor=True, terminal_weight=10.0, terminal_weight_s2=1.0)
        base = terminal_cost([-1.0, 0.0, 0.01, 0.0], cfg)
        with_s2 = terminal_cost([-1.0, 0.5 * np.pi, 0.01, 0.0], cfg)
        assert with_s2 - base == pytest.approx(np.pi**2 / 4.0, rel=1e-12)


class TestEqualityConstraints:
    def test_rollout_is_feasible(self):
        prob, cfg = classic_problem()
        rng = np.random.default_rng(12)
        u_seq = rng.uniform(-0.05, 0.05, (cfg.horizon, 4))
        nu_seq = rng.uniform(-0.01, 0.01, (cfg.horizon, 1))
        w = prob.rollout(u_seq, nu_seq)
        assert np.max(np.abs(prob.equality(w))) < 1e-10

    def test_corridor_rollout_is_feasible(self):
        prob, cfg = corridor_problem()
        w = prob.rollout()
        assert np.max(np.abs(prob.equality(w))) < 1e-10

    @pytest.mark.parametrize("make", [classic_problem, corridor_problem])
    def test_jacobian_matches_finite_differences(self, make):
        prob, cfg = make()
        rng = np.random.default_rng(13)
        h = 1e-6
        for _ in range(3):
            w = random_feasible_vector(prob, cfg, rng)
            A = prob.equality_jacobian(w)
            for i in rng.choice(prob.n, size=25, replace=False):
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                col = (prob.equality(wp) - prob.equality(wm)) / (2 * h)
                denom = np.maximum(np.abs(col), 1.0)
                assert np.max(np.abs(A[:, i] - col) / denom) < 1e-5


class TestCost:
    @pytest.mark.parametrize("make", [classic_problem, corridor_problem])
    def test_residual_route_equals_quadrature_route(self, make):
        prob, cfg = make()
        rng = np.random.default_rng(14)
        for _ in range(5):
            w = random_feasible_vector(prob, cfg, rng)
            r = prob.residual(w)
            assert abs(float(r @ r) - quadrature_cost(prob, w)) < 1e-10

    @pytest.mark.parametrize("make", [classic_problem, corridor_problem])
    def test_gauss_newton_gradient_matches_finite_differences(self, make):
        prob, cfg = make()
        rng = np.random.default_rng(15)
        h = 1e-6
        for _ in range(3):
            w = random_feasible_vector(prob, cfg, rng)
            g = 2.0 * prob.residual_jacobian(w).T @ prob.residual(w)
            for i in rng.choice(prob.n, size=25, replace=False):
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                fd = (quadrature_cost(prob, wp) - quadrature_cost(prob, wm)) / (2 * h)
                assert abs(g[i] - fd) / max(abs(fd), 1.0) < 1e-5

    def test_hover_at_path_end_candidate_is_cheap(self):
        cfg = OcpConfig()
        path = make_path("spiral")
        s0 = -2.0 * cfg.s_dot_floor * cfg.horizon * cfg.delta
        p_end = path.point(s0)
        x0 = np.zeros(9)
        x0[:3] = p_end[:3]
        x0[8] = p_end[3]
        prob = build_ocp(x0, np.array([s0, cfg.s_dot_floor]), path, cfg, PARAMS)
        cost = quadrature_cost(prob, prob.rollout())
        assert cost < 1e-6  # only the progress-rate floor contributes


class TestBounds:
    def test_ordering_and_progress_box(self):
        prob, cfg = classic_problem()
        assert np.all(prob.lower <= prob.upper)
        for k in range(1, cfg.horizon + 1):
            zs = prob.z_slice(k)
            assert prob.lower[zs.start] == -1.0
            assert prob.upper[zs.start] == 0.0
            assert prob.lower[zs.start + 1] == cfg.s_dot_floor
            assert prob.upper[zs.start + 1] == cfg.s_dot_max

    def test_stage_zero_pin_is_freed(self):
        prob, _ = classic_problem()
        assert np.all(np.isinf(prob.lower[prob.x_slice(0)]))
        assert np.all(np.isinf(prob.upper[prob.z_slice(0)]))

    def test_out_of_box_pin_reports_clamping_event(self):
        cfg = OcpConfig()
        path = make_path("spiral")
        x0 = np.zeros(9)
        x0[:3] = path.point(-1.0)[:3]
        x0[2] = 2.0  # above the 1.2 m ceiling
        prob = build_ocp(x0, np.array([-1.0, 1e-5]), path, cfg, PARAMS)
        assert any("state[2]" in e for e in prob.clamp_events)


class TestConfigValidation:
    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            OcpConfig(horizon=0)

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            OcpConfig(delta=-0.1)

    def test_wrong_weight_size(self):
        with pytest.raises(ValueError):
            OcpConfig(q_weight=np.ones(7))

    def test_non_positive_definite_weight(self):
        q = np.eye(8)
        q[0, 0] = -1.0
        with pytest.raises(np.linalg.LinAlgError):
            OcpConfig(q_weight=q)

    def test_asymmetric_weight(self):
        q = np.eye(8)
        q[0, 1] = 0.5
        with pytest.raises(ValueError):
            OcpConfig(q_weight=q)

    def test_path_config_mismatch(self):
        cfg = OcpConfig(corridor=True)
        with pytest.raises(ValueError):
            build_ocp(np.zeros(9), np.zeros(4), make_path("spiral"), cfg, PARAMS)
