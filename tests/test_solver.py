import io
import re

import numpy as np
import pytest

from quadpath.dynamics import ModelParams, rk4_step
from quadpath.paths import make_path, step_timing
from quadpath.solver import (
    CONVERGED,
    DenseNlp,
    SolverSettings,
    project_interior,
    solve,
    warm_start_shift,
)
from quadpath.solver import _newton_direction, _barrier_terms
from quadpath.transcription import OcpConfig, build_ocp

from oracles import kkt_residual

INF = np.inf


def quadratic_problem(target):
    target = np.asarray(target, dtype=float)
    n = target.size
    return DenseNlp(
        n,
        residual=lambda w: w - target,
        residual_jacobian=lambda w: np.eye(n),
        lower=np.full(n, -INF),
        upper=np.full(n, INF),
    )


class TestAnalyticProblems:
    def test_unconstrained_quadratic_single_step(self):
        a = np.array([1.0, -2.0, 0.5])
        res = solve(quadratic_problem(a), np.zeros(3))
        assert res.status == CONVERGED
        assert np.max(np.abs(res.decision - a)) < 1e-8
        assert res.iterations <= 2

    def test_active_upper_bound(self):
        prob = DenseNlp(
            1,
            residual=lambda w: w - 2.0,
            residual_jacobian=lambda w: np.eye(1),
            lower=np.array([-INF]),
            upper=np.array([1.0]),
        )
        res = solve(prob, np.array([0.0]))
        assert res.status == CONVERGED
        assert abs(res.decision[0] - 1.0) < 1e-5
        assert res.decision[0] < 1.0  # strictly feasible

    def test_equality_constrained_least_squares(self):
        prob = DenseNlp(
            2,
            residual=lambda w: w,
            residual_jacobian=lambda w: np.eye(2),
            lower=np.full(2, -INF),
            upper=np.full(2, INF),
            equality=lambda w: np.array([w[0] + w[1] - 1.0]),
            equality_jacobian=lambda w: np.array([[1.0, 1.0]]),
        )
        res = solve(prob, np.array([3.0, -1.0]))
        assert res.status == CONVERGED
        assert np.max(np.abs(res.decision - 0.5)) < 1e-8


class TestKktResidual:
    def make_problem(self):
        return DenseNlp(
            2,
            residual=lambda w: w - np.array([2.0, -1.0]),
            residual_jacobian=lambda w: np.eye(2),
            lower=np.array([-3.0, -3.0]),
            upper=np.array([1.5, 3.0]),
            equality=lambda w: np.array([w[0] - w[1] - 1.0]),
            equality_jacobian=lambda w: np.array([[1.0, -1.0]]),
        )

    def test_small_at_solution(self):
        prob = self.make_problem()
        res = solve(prob, np.array([0.0, 0.0]))
        assert res.status == CONVERGED
        final_mu = 2.56e-8  # last stage of the default schedule
        assert kkt_residual(prob, res.decision, res.multipliers, final_mu) <= 1e-6

    def test_larger_away_from_solution(self):
        prob = self.make_problem()
        res = solve(prob, np.array([0.0, 0.0]))
        at_sol = kkt_residual(prob, res.decision, res.multipliers, 2.56e-8)
        rng = np.random.default_rng(16)
        for _ in range(20):
            w = rng.uniform([-2.9, -2.9], [1.4, 2.9])
            assert kkt_residual(prob, w, res.multipliers, 2.56e-8) > at_sol

    def test_rejects_non_interior_point(self):
        prob = self.make_problem()
        with pytest.raises(ValueError):
            kkt_residual(prob, np.array([1.5, 0.0]), np.zeros(1), 1e-6)

    def test_vanishes_at_unconstrained_minimum(self):
        a = np.array([0.3, 0.7])
        prob = quadratic_problem(a)
        assert kkt_residual(prob, a, np.zeros(0), 1e-12) < 1e-12


class TestGlobalization:
    def test_merit_non_increasing_within_each_stage(self):
        cfg = OcpConfig()
        path = make_path("spiral")
        p0 = path.point(-1.0)
        x0 = np.zeros(9)
        x0[:3] = p0[:3]
        x0[8] = p0[3]
        prob = build_ocp(x0, np.array([-1.0, 1e-5]), path, cfg, ModelParams())
        trace = io.StringIO()
        res = solve(prob, prob.rollout(), log=trace)
        assert res.status == CONVERGED
        rows = re.findall(r"merit=(\S+) merit_before=(\S+)", trace.getvalue())
        assert len(rows) == res.iterations
        for merit, merit_before in rows:
            assert float(merit) <= float(merit_before) + 1e-12

    def test_newton_direction_is_merit_descent(self):
        prob = DenseNlp(
            2,
            residual=lambda w: w - np.array([2.0, 2.0]),
            residual_jacobian=lambda w: np.eye(2),
            lower=np.array([-1.0, -1.0]),
            upper=np.array([1.0, 1.0]),
            equality=lambda w: np.array([w[0] - 0.2]),
            equality_jacobian=lambda w: np.array([[1.0, 0.0]]),
        )
        w = np.array([0.5, 0.5])
        r = prob.residual(w)
        J = prob.residual_jacobian(w)
        c = prob.equality(w)
        A = prob.equality_jacobian(w)
        mu = 1e-2
        _, bgrad = _barrier_terms(w, prob.lower, prob.upper, np.ones(2, bool))
        g = 2.0 * J.T @ r + mu * bgrad
        h = 2.0 * J.T @ J + np.eye(2) * 1e-8
        free = np.ones(2, dtype=bool)
        keep = np.ones(1, dtype=bool)
        dw, _ = _newton_direction(h, g, A, c, free, keep, 0.0)
        rho = 1e3
        directional = float(g @ dw) - rho * float(np.sum(np.abs(c)))
        assert directional < 0.0

    def test_infeasible_problem_returns_best_iterate(self):
        prob = DenseNlp(
            1,
            residual=lambda w: w,
            residual_jacobian=lambda w: np.eye(1),
            lower=np.array([-INF]),
            upper=np.array([INF]),
            equality=lambda w: np.array([w[0] - 1.0, w[0] + 1.0]),
            equality_jacobian=lambda w: np.array([[1.0], [1.0]]),
        )
        res = solve(prob, np.array([0.3]))
        assert res.status != CONVERGED
        assert np.all(np.isfinite(res.decision))

    def test_determinism_bitwise(self):
        cfg = OcpConfig()
        path = make_path("spiral")
        p0 = path.point(-1.0)
        x0 = np.zeros(9)
        x0[:3] = p0[:3]
        x0[8] = p0[3]
        prob = build_ocp(x0, np.array([-1.0, 1e-5]), path, cfg, ModelParams())
        guess = prob.rollout()
        res1 = solve(prob, guess)
        res2 = solve(prob, guess)
        assert np.array_equal(res1.decision, res2.decision)
        assert res1.iterations == res2.iterations
        assert res1.status == res2.status


class TestFrozenCoordinates:
    def test_zero_width_box_pins_variable(self):
        prob = DenseNlp(
            2,
            residual=lambda w: w - np.array([2.0, 2.0]),
            residual_jacobian=lambda w: np.eye(2),
            lower=np.array([-INF, 0.5]),
            upper=np.array([INF, 0.5]),
        )
        res = solve(prob, np.array([0.0, 0.5]))
        assert res.status == CONVERGED
        assert res.decision[1] == 0.5
        assert abs(res.decision[0] - 2.0) < 1e-8

    def test_consistent_pin_row_is_dropped(self):
        # equality touching only the frozen coordinate, already satisfied
        prob = DenseNlp(
            2,
            residual=lambda w: w - np.array([2.0, 2.0]),
            residual_jacobian=lambda w: np.eye(2),
            lower=np.array([-INF, 0.5]),
            upper=np.array([INF, 0.5]),
            equality=lambda w: np.array([w[1] - 0.5]),
            equality_jacobian=lambda w: np.array([[0.0, 1.0]]),
        )
        res = solve(prob, np.array([0.0, 0.5]))
        assert res.status == CONVERGED
        assert abs(res.decision[0] - 2.0) < 1e-8


class TestProjectInterior:
    def test_pushes_strictly_inside(self):
        lo = np.array([0.0, -1.0])
        hi = np.array([1.0, 1.0])
        w = project_interior(np.array([0.0, 2.0]), lo, hi)
        assert np.all(w > lo) and np.all(w < hi)

    def test_frozen_goes_to_pin(self):
        w = project_interior(np.array([3.0]), np.array([0.5]), np.array([0.5]))
        assert w[0] == 0.5


class TestWarmStartShift:
    def make_problem(self, x0, z0, cfg=None):
        cfg = cfg if cfg is not None else OcpConfig()
        path = make_path("spiral")
        return build_ocp(x0, z0, path, cfg, ModelParams()), cfg

    def test_stationary_hover_is_fixed_point(self):
        cfg = OcpConfig()
        path = make_path("spiral")
        p_mid = path.point(-0.5)
        x_h = np.zeros(9)
        x_h[:3] = p_mid[:3]
        prob, _ = self.make_problem(x_h, np.array([-0.5, 1e-5]), cfg)
        N = cfg.horizon
        X = np.tile(x_h, (N + 1, 1))
        U = np.zeros((N, 4))
        Z = np.tile([-0.5, cfg.s_dot_floor], (N + 1, 1))
        V = np.zeros((N, 1))
        w = prob.pack(X, U, Z, V)
        from quadpath.solver import SolveResult
        prev = SolveResult(w, CONVERGED, 0.0, 0.0, 0, 0.0, np.zeros(prob.m_eq))
        shifted = prob.unpack(warm_start_shift(prev, prob))
        np.testing.assert_array_equal(shifted[0], X)   # hover propagates to itself
        np.testing.assert_array_equal(shifted[1], U)
        assert np.max(np.abs(shifted[2] - Z)) < 1e-4   # progress creeps by the floor drift
        np.testing.assert_array_equal(shifted[3], V)

    def test_result_respects_bounds(self):
        prob, cfg = self.make_problem(
            np.concatenate([make_path("spiral").point(-1.0)[:3], np.zeros(6)]),
            np.array([-1.0, 1e-5]),
        )
        res = solve(prob, prob.rollout())
        shifted = warm_start_shift(res, prob)
        free = np.isfinite(prob.lower)
        assert np.all(shifted[free] >= prob.lower[free])
        assert np.all(shifted[~np.isinf(prob.upper)] <= prob.upper[~np.isinf(prob.upper)])

    def test_layout_mismatch_rejected(self):
        prob_classic, _ = self.make_problem(
            np.concatenate([make_path("spiral").point(-1.0)[:3], np.zeros(6)]),
            np.array([-1.0, 1e-5]),
        )
        res = solve(prob_classic, prob_classic.rollout())
        cfg_c = OcpConfig(corridor=True)
        path_c = make_path("sinusoid-corridor")
        x0 = np.zeros(9)
        x0[:3] = path_c.point(-1.0, 0.0)[:3]
        prob_corridor = build_ocp(x0, np.array([-1.0, 0.0, 1e-5, 0.0]), path_c, cfg_c, ModelParams())
        with pytest.raises(ValueError):
            warm_start_shift(res, prob_corridor)

    def test_warm_start_saves_iterations_closed_loop(self):
        # paired cold/warm measurement over a short spiral segment
        cfg = OcpConfig()
        path = make_path("spiral")
        params = ModelParams()
        p0 = path.point(-1.0)
        x = np.zeros(9)
        x[:3] = p0[:3]
        z = np.array([-1.0, cfg.s_dot_floor])
        warm_settings = SolverSettings(barrier_initial=1e-7)
        last = None
        warm_iters, cold_iters = [], []
        for _ in range(25):
            prob = build_ocp(x, z, path, cfg, params)
            cold = solve(prob, prob.rollout())
            if last is not None:
                warm = solve(prob, warm_start_shift(last, prob), warm_settings,
                             multipliers=last.multipliers)
                warm_iters.append(warm.iterations)
                cold_iters.append(cold.iterations)
                last = warm
            else:
                last = cold
            X, U, Z, V = prob.unpack(last.decision)
            x = rk4_step(x, U[0], cfg.delta, params)
            z = np.clip(step_timing(z, V[0], cfg.delta),
                        [-1.0, cfg.s_dot_floor], [0.0, cfg.s_dot_max])
        assert np.median(warm_iters) <= np.median(cold_iters)


def test_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(barrier_decrease=1.5)
    with pytest.raises(ValueError):
        SolverSettings(kkt_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverSettings(linesearch_backtrack=1.0)
