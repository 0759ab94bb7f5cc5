import inspect
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadpath.dynamics import ModelParams, rk4_step
from quadpath.paths import make_path, step_timing
from quadpath.solver import (
    CONVERGED,
    LINESEARCH_FAILURE,
    MAX_ITERATIONS,
    Box,
    DenseNlp,
    SolveResult,
    prepare,
    solve,
)
from quadpath import controller as controller_module
from quadpath import solver as solver_module
from quadpath import transcription
from quadpath.simulate import run_scenario, scenario_config
from quadpath.transcription import OcpConfig, OcpStructure, build_ocp, warm_start_shift

from oracles import _barrier_terms, frozen_mask, kkt_residual, newton_direction, project_interior

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

    @pytest.mark.parametrize("half", [
        {"equality": lambda w: np.array([w[0] + w[1] - 1.0])},
        {"equality_jacobian": lambda w: np.array([[1.0, 1.0]])},
    ], ids=["equality-alone", "jacobian-alone"])
    def test_half_an_equality_rejected(self, half):
        # the values alone failed in solve with a TypeError; the Jacobian
        # alone was dropped, and the unconstrained problem converged
        with pytest.raises(ValueError, match="equality and equality_jacobian"):
            DenseNlp(2, residual=lambda w: w, residual_jacobian=lambda w: np.eye(2),
                     lower=np.full(2, -INF), upper=np.full(2, INF), **half)


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
        assert kkt_residual(prob, res.decision, res.multipliers, solver_module._MU) <= 1e-6

    def test_larger_away_from_solution(self):
        prob = self.make_problem()
        res = solve(prob, np.array([0.0, 0.0]))
        at_sol = kkt_residual(prob, res.decision, res.multipliers, solver_module._MU)
        rng = np.random.default_rng(16)
        for _ in range(20):
            w = rng.uniform([-2.9, -2.9], [1.4, 2.9])
            assert kkt_residual(prob, w, res.multipliers, solver_module._MU) > at_sol

    def test_rejects_non_interior_point(self):
        prob = self.make_problem()
        with pytest.raises(ValueError):
            kkt_residual(prob, np.array([1.5, 0.0]), np.zeros(1), 1e-6)

    def test_vanishes_at_unconstrained_minimum(self):
        a = np.array([0.3, 0.7])
        prob = quadratic_problem(a)
        assert kkt_residual(prob, a, np.zeros(0), 1e-12) < 1e-12


class TestStoppingTest:
    """``solve`` stops on the primal-dual optimality error, with the bound
    duals in place of ``mu / gap``; a step at the rounding floor resets
    duals that lag behind the primal once, then ends the solve."""

    @staticmethod
    def bounded_problem():
        # w - 2 on w <= 1: the optimum sits mu / 2 below the face
        return DenseNlp(1, residual=lambda w: w - 2.0, residual_jacobian=lambda w: np.eye(1),
                        lower=np.array([-INF]), upper=np.array([1.0]))

    def test_dual_only_step_at_the_rounding_floor(self):
        # the primal reaches the optimum in two iterations while the dual
        # lags at about half of mu / gap; one dual-only iteration recentres it
        trace = io.StringIO()
        res = solve(self.bounded_problem(), np.array([0.0]), log=trace)
        assert res.status == CONVERGED and res.kkt_residual <= 1e-6
        lines = trace.getvalue().splitlines()[1:]
        assert len(lines) == res.iterations == 3
        assert "alpha=0.000e+00" in lines[-1] and lines[-1].endswith("trials=0 soc=0")
        merit, merit_before = re.search(r"merit=(\S+) merit_before=(\S+)", lines[-1]).groups()
        assert merit == merit_before

    def test_floor_with_centred_duals_ends_the_solve(self):
        # the primal stalls after its first step, the prepared system's
        # (kkt_feedback): one dual-only iteration, then the floor with the
        # duals at mu / gap stops the solve
        prob = self.bounded_problem()
        original = prob.kkt_step

        def stalling(blocks, g, c, sigma, reg):
            dw, lam = original(blocks, g, c, sigma, reg)
            return np.zeros_like(dw), lam
        prob.kkt_step = stalling
        trace = io.StringIO()
        res = solve(prob, np.array([0.0]), log=trace)
        assert res.status == MAX_ITERATIONS and res.iterations == 2
        assert res.kkt_residual > 1e-6
        assert trace.getvalue().splitlines()[2].endswith("trials=0 soc=0")

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_box_constrained_least_squares(self, n, seed):
        # min ||D (w - a)||^2 on a box with at least one a_i outside it (and
        # every other a_i at least 0.05 inside), some sides unbounded: the
        # optimum is clip(a, lb, ub), up to the barrier's offset of
        # mu / (2 d_i^2 |a_i - bound|) <= 4e-6
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.5, 5.0, n)
        lb = rng.uniform(-2.0, 1.0, n)
        ub = lb + rng.uniform(0.2, 3.0, n)
        side = rng.integers(0, 3, n)  # 0 inside, 1 below, 2 above
        side[rng.integers(n)] = rng.integers(1, 3)
        a = np.where(side == 1, lb - rng.uniform(0.05, 2.0, n),
                     np.where(side == 2, ub + rng.uniform(0.05, 2.0, n),
                              rng.uniform(lb + 0.05, ub - 0.05)))
        lb[(side != 1) & (rng.random(n) < 0.25)] = -INF
        ub[(side != 2) & (rng.random(n) < 0.25)] = INF
        prob = DenseNlp(n, residual=lambda w: d * (w - a), residual_jacobian=lambda w: np.diag(d),
                        lower=lb, upper=ub)
        res = solve(prob, rng.uniform(-3.0, 3.0, n))
        assert res.status == CONVERGED
        assert np.max(np.abs(res.decision - np.clip(a, lb, ub))) <= 1e-5
        assert res.kkt_residual <= 1e-6


class TestGlobalization:
    def test_merit_non_increasing_within_each_stage(self):
        cfg = OcpConfig()
        path = make_path("spiral")
        p0 = path.point(-1.0)
        x0 = np.zeros(9)
        x0[:3] = p0[:3]
        x0[8] = p0[3]
        prob = build_ocp(x0, np.array([-1.0, 1e-5]), OcpStructure(path, cfg, ModelParams()))
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
        _, bgrad = _barrier_terms(w, prob.box.lower, prob.box.upper, np.ones(2, bool))
        g = 2.0 * J.T @ r + mu * bgrad
        h = 2.0 * J.T @ J + np.eye(2) * 1e-8
        free = np.ones(2, dtype=bool)
        keep = np.ones(1, dtype=bool)
        dw, _ = newton_direction(h, g, A, c, free, keep, 0.0)
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
        prob = build_ocp(x0, np.array([-1.0, 1e-5]), OcpStructure(path, cfg, ModelParams()))
        guess = prob.rollout()
        res1 = solve(prob, guess)
        res2 = solve(prob, guess)
        assert np.array_equal(res1.decision, res2.decision)
        assert res1.iterations == res2.iterations
        assert res1.status == res2.status


def trials_per_iteration(log_text):
    return [int(k) for k in re.findall(r"trials=(\d+)", log_text)]


def corrections_per_iteration(log_text):
    return [k == "1" for k in re.findall(r"soc=(\d)", log_text)]


def check_evaluation_order(events, trials, corrections):
    """``events`` are the ``("values", points)`` and ``("blocks", point)``
    calls of one solve in call order, ``points`` a stack (of one row for a
    one-point evaluation), on a solve whose second-order corrections fall
    inside the box.  Every examined point is valued: the start, each
    iteration's first trial and, after a rejected first trial, the
    second-order correction, one point each, then the halvings in passes of
    at most ``_PASS_ROWS``, up to the pass that holds the accepted one.
    Jacobians are built exactly once at the start and once per iteration
    that moved, at the point it accepted, the last it examined: never at a
    rejected point."""
    it = iter(events)

    def one_point():
        kind, points = next(it)
        assert kind == "values" and len(points) == 1
        return points[0]

    def blocks_at(point):
        kind, at = next(it)
        assert kind == "blocks" and np.array_equal(at, point)

    blocks_at(one_point())
    for t, soc in zip(trials, corrections):
        if t == 0:
            continue  # a dual-only iteration examines no point
        examined = [one_point()]
        if t >= 2:
            examined.append(one_point())
            assert soc == (t == 2)
        while len(examined) < t:
            kind, rows = next(it)
            assert kind == "values" and 1 <= len(rows) <= solver_module._PASS_ROWS
            examined.extend(rows)
        blocks_at(examined[t - 1])
    assert next(it, None) is None


class TestEvaluations:
    def test_one_evaluation_per_point(self):
        # values are computed once per evaluated point, and Jacobians once
        # at the start and once per iteration, at its accepted point, never
        # at a rejected one
        calls = {"residual": [], "equality": [], "residual_jacobian": [], "equality_jacobian": []}

        def recorded(name, f):
            def call(w):
                calls[name].append(w.copy())
                return f(w)
            return call

        prob = DenseNlp(
            2,
            residual=recorded("residual", lambda w: np.arctan(w - np.array([0.0, 1.0]))),
            residual_jacobian=recorded(
                "residual_jacobian", lambda w: np.diag(1.0 / (1.0 + (w - np.array([0.0, 1.0])) ** 2))),
            lower=np.full(2, -INF),
            upper=np.full(2, INF),
            equality=recorded("equality", lambda w: np.array([w[0] + 0.1 * w[1] ** 2 - 0.1])),
            equality_jacobian=recorded("equality_jacobian", lambda w: np.array([[1.0, 0.2 * w[1]]])),
        )
        events = []
        evaluate, row_blocks = prob.evaluate, prob.row_blocks
        prob.evaluate = lambda W: events.append(("values", np.atleast_2d(W).copy())) or evaluate(W)
        prob.row_blocks = lambda kept, i: events.append(("blocks", kept[i].copy())) or row_blocks(kept, i)

        trace = io.StringIO()
        res = solve(prob, np.array([4.0, -3.0]), log=trace)
        assert res.status == CONVERGED
        # trials= counts the points each iteration examined, the
        # second-order correction included
        trials = trials_per_iteration(trace.getvalue())
        assert len(trials) == res.iterations
        assert res.trials == sum(trials) > res.iterations  # some step backtracked
        check_evaluation_order(events, trials, corrections_per_iteration(trace.getvalue()))
        assert max(trials) >= 3  # some step backtracked past the correction
        values = [p for kind, points in events if kind == "values" for p in points]
        blocks = [p for kind, p in events if kind == "blocks"]
        np.testing.assert_array_equal(calls["residual"], values)
        np.testing.assert_array_equal(calls["equality"], values)
        np.testing.assert_array_equal(calls["residual_jacobian"], blocks)
        np.testing.assert_array_equal(calls["equality_jacobian"], blocks)
        assert len({p.tobytes() for p in values}) == len(values)
        assert min(trials) >= 1 and len(blocks) == 1 + len(trials)

    def test_one_integration_per_point(self, monkeypatch):
        # the horizon problem integrates each evaluated point or stack once
        # and never through the plain RK4 step; the sensitivities come from
        # that integration, at the start and the accepted points alone
        structure = OcpStructure(make_path("spiral"), OcpConfig(), ModelParams())
        prob = build_ocp(np.concatenate([make_path("spiral").point(-1.0)[:3], np.zeros(6)]),
                         np.array([-1.0, 1e-5]), structure)
        guess = prob.rollout()
        calls = {"rk4_step": 0, "rk4_step_with_jacobians": 0, "_rk4_stages": 0, "_rk4_sensitivities": 0,
                 "residual": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, call)

        for name in ("rk4_step", "rk4_step_with_jacobians", "_rk4_stages", "_rk4_sensitivities"):
            counted(transcription, name)
        counted(prob, "residual")
        # the blocks of point i are those of point i (row i, or ... for one
        # point) of the last evaluation
        events, last = [], []
        evaluate, row_blocks = prob.evaluate, prob.row_blocks

        def evaluated(W):
            events.append(("values", np.atleast_2d(W).copy()))
            last[:] = [W.copy()]
            return evaluate(W)
        monkeypatch.setattr(prob, "evaluate", evaluated)
        monkeypatch.setattr(prob, "row_blocks",
                            lambda kept, i: events.append(("blocks", last[0][i])) or row_blocks(kept, i))
        trace = io.StringIO()
        res = solve(prob, guess, log=trace)
        assert res.status == CONVERGED
        trials = trials_per_iteration(trace.getvalue())
        assert max(trials) >= 3
        check_evaluation_order(events, trials, corrections_per_iteration(trace.getvalue()))
        assert calls["rk4_step"] == calls["residual"] == calls["rk4_step_with_jacobians"] == 0
        assert calls["_rk4_stages"] == sum(kind == "values" for kind, _ in events)
        assert calls["_rk4_sensitivities"] == sum(kind == "blocks" for kind, _ in events) == 1 + res.iterations


class RowByRow:
    """A problem that evaluates a stack one row per call of the problem it
    wraps, each row as one point; one point passes through."""

    def __init__(self, problem):
        self.problem = problem

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def evaluate(self, W):
        if W.ndim == 1:
            return self.problem.evaluate(W)
        rows = [self.problem.evaluate(w) for w in W]
        return np.stack([r[0] for r in rows]), np.stack([r[1] for r in rows]), [r[2] for r in rows]

    def row_blocks(self, kept, i):
        if i is Ellipsis:
            return self.problem.row_blocks(kept, i)
        return self.problem.row_blocks(kept[i], ...)


@pytest.fixture(scope="module")
def corridor_cluster():
    """The problem, guess and multipliers of the solve with the most line-
    search trials among the steps at 12.7-14.7 s of the default
    sinusoid-corridor flight, where its long solves cluster."""
    captured = []

    def recording(problem, guess, multipliers=None, log=None, start=None):
        result = solve(problem, guess, multipliers=multipliers, log=log, start=start)
        if 12.7 <= 0.05 * len(captured) <= 14.7:
            captured.append((result.trials, problem, guess.copy(), multipliers))
        else:
            captured.append((0, None, None, None))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(controller_module, "solve", recording)
        run_scenario(scenario_config("sinusoid-corridor", total_time=14.7))
    return max(captured, key=lambda c: c[0])[1:]


class TestBatchedBacktracking:
    """The batched line search gives what evaluating one row at a time
    gives, bit for bit."""

    def circle_problem(self):
        # the unit circle with the target outside it: every step is cut to
        # alpha = 2**-9, so every iteration backtracks through the batch
        return DenseNlp(
            2,
            residual=lambda w: w - np.array([2.0, 0.0]),
            residual_jacobian=lambda w: np.eye(2),
            lower=np.full(2, -INF),
            upper=np.full(2, INF),
            equality=lambda w: np.array([w[0] ** 2 + w[1] ** 2 - 1.0]),
            equality_jacobian=lambda w: np.array([[2.0 * w[0], 2.0 * w[1]]]),
        )

    circle_guess = np.array([np.cos(0.5), np.sin(0.5)])

    @staticmethod
    def logged_solve(prob, guess, multipliers=None):
        log = io.StringIO()
        return solve(prob, guess, multipliers=multipliers, log=log), log.getvalue()

    @staticmethod
    def assert_same_solve(want, got):
        (want, want_log), (got, got_log) = want, got
        for name in ("status", "kkt_residual", "iterations", "trials"):
            assert getattr(got, name) == getattr(want, name), name
        for name in ("decision", "multipliers"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got_log.encode() == want_log.encode()

    def assert_row_by_row_same(self, prob, guess, multipliers=None):
        want = self.logged_solve(prob, guess, multipliers)
        self.assert_same_solve(want, self.logged_solve(RowByRow(prob), guess, multipliers))
        return want[0], trials_per_iteration(want[1])

    def test_dense_one_point_equals_its_stacked_row(self):
        prob = self.circle_problem()
        W = self.circle_guess + np.linspace(0.0, 1.0, 6)[:, None] * np.array([0.3, -0.7])
        R, C, kept = prob.evaluate(W)
        for i, w in enumerate(W):
            r, c, one = prob.evaluate(w)
            assert r.shape == (2,) and c.shape == (1,)
            for got, ref in zip((r, c, *prob.row_blocks(one, ...)), (R[i], C[i], *prob.row_blocks(kept, i))):
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_unit_circle(self):
        res, trials = self.assert_row_by_row_same(self.circle_problem(), self.circle_guess)
        assert res.iterations == 50 and min(trials) >= 4

    def test_corridor_cluster(self, corridor_cluster):
        res, trials = self.assert_row_by_row_same(*corridor_cluster)
        assert max(trials) >= 3

    @pytest.mark.parametrize("rows", [1, 3])
    def test_pass_size_leaves_the_solve_unchanged(self, monkeypatch, corridor_cluster, rows):
        # one halving a pass examines them as the unbatched line search
        # did; three a pass makes the circle's nine halvings take three
        for prob, guess, multipliers in ((self.circle_problem(), self.circle_guess, None), corridor_cluster):
            want = self.logged_solve(prob, guess, multipliers)
            with monkeypatch.context() as mp:
                mp.setattr(solver_module, "_PASS_ROWS", rows)
                got = self.logged_solve(prob, guess, multipliers)
            self.assert_same_solve(want, got)
            assert max(trials_per_iteration(want[1])) - 2 > rows


class TestSecondOrderCorrection:
    def circle_problem(self):
        # least squares on the unit circle: the optimum is (1, 0), and a
        # full step along the tangent leaves the circle quadratically
        target = np.array([0.9, 0.0])
        return DenseNlp(
            2,
            residual=lambda w: 3.0 * (w - target),
            residual_jacobian=lambda w: 3.0 * np.eye(2),
            lower=np.full(2, -INF),
            upper=np.full(2, INF),
            equality=lambda w: np.array([w[0] ** 2 + w[1] ** 2 - 1.0]),
            equality_jacobian=lambda w: np.array([[2.0 * w[0], 2.0 * w[1]]]),
        )

    def test_full_step_accepted_through_correction(self):
        # without the correction the l1 merit cuts every step to
        # alpha = 2**-5 or 2**-6 and the solve stops at the iteration cap
        trace = io.StringIO()
        res = solve(self.circle_problem(), np.array([np.cos(0.2), np.sin(0.2)]), log=trace)
        assert res.status == CONVERGED
        assert res.iterations <= 10
        np.testing.assert_allclose(res.decision, [1.0, 0.0], atol=1e-6)
        first = trace.getvalue().splitlines()[1]
        assert "alpha=1.000e+00" in first and first.endswith("trials=2 soc=1")


class TestLineSearchAcceptance:
    """The one test every examined point passes or fails: the Armijo bound,
    or a predicted decrease under the rounding noise."""

    @staticmethod
    def one_sided(residual, jacobian, n):
        return DenseNlp(n, residual=residual, residual_jacobian=jacobian,
                        lower=np.full(n, -INF), upper=np.full(n, INF))

    def test_exhausted_line_search(self):
        # a wrong-sign Jacobian predicts a decrease along a step that only
        # raises the merit: the first trial, the correction (the same point,
        # with no equality to correct) and all 29 halvings are rejected
        a = np.array([1.0, -2.0])
        prob = self.one_sided(lambda w: w - a, lambda w: -np.eye(2), 2)
        rows = []
        evaluate = prob.evaluate
        prob.evaluate = lambda W: rows.append(len(np.atleast_2d(W))) or evaluate(W)
        trace = io.StringIO()
        res = solve(prob, np.zeros(2), log=trace)
        assert res.status == LINESEARCH_FAILURE
        assert res.iterations == 0 and res.trials == 0
        np.testing.assert_array_equal(res.decision, np.zeros(2))
        # the start, the first trial, the correction, then passes of halvings
        assert rows == [1, 1, 1, 12, 12, 5] and sum(rows) == 32
        assert trace.getvalue() == "# solve n=2 m=0\n"

    def test_a_rise_under_the_rounding_noise_is_accepted(self):
        # a merit of about 1e6 rounds a predicted decrease of 2e-10 away, so
        # the full step is taken although the merit rose
        prob = self.one_sided(lambda w: np.array([w[0] - 1.0, 1e3]), lambda w: np.array([[-1.0], [0.0]]), 1)
        trace = io.StringIO()
        solve(prob, np.array([1.0 + 1e-5]), log=trace)
        first = trace.getvalue().splitlines()[1]
        assert "merit=1000000.0000000003 merit_before=1000000.0000000001 alpha=1.000e+00" in first
        assert first.endswith("trials=1 soc=0")


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

    def test_violated_pin_row_fails_the_line_search(self):
        # equality touching only the frozen coordinate, which it cannot meet:
        # the dense step refuses the row, and the solve stops at once
        prob = DenseNlp(
            2,
            residual=lambda w: w - np.array([2.0, 2.0]),
            residual_jacobian=lambda w: np.eye(2),
            lower=np.array([-INF, 0.5]),
            upper=np.array([INF, 0.5]),
            equality=lambda w: np.array([w[1] - 0.7]),
            equality_jacobian=lambda w: np.array([[0.0, 1.0]]),
        )
        res = solve(prob, np.array([0.0, 0.5]))
        assert res.status == LINESEARCH_FAILURE
        assert res.iterations == 0


class TestProtocol:
    """``solve`` touches a problem only through the protocol the solver
    module documents."""

    PROTOCOL = ("box", "evaluate", "row_blocks", "jt_dot", "at_dot", "fill_pins", "kkt_step", "kkt_system",
                "kkt_feedback")

    class Proxy:
        def __init__(self, problem, allowed):
            self._problem, self._allowed = problem, allowed

        def __getattr__(self, name):
            if name not in self._allowed:
                raise AssertionError(f"solve used {name!r}, outside the problem protocol")
            return getattr(self._problem, name)

    def test_documented_protocol(self):
        doc = solver_module.__doc__.split("Problem objects must expose:")[1]
        names = re.findall(r"^- ``(\w+)[^`]*``(?: and ``(\w+)[^`]*``)?", doc, re.MULTILINE)
        assert tuple(n for pair in names for n in pair if n) == self.PROTOCOL
        assert "``kkt_step(blocks, g, c, sigma, reg) -> (dw, lam)``" in doc
        for cls in (DenseNlp, transcription.OcpStructure):
            params = list(inspect.signature(cls.kkt_step).parameters)
            assert params == ["self", "blocks", "g", "c", "sigma", "reg"]
            assert list(inspect.signature(cls.kkt_system).parameters) == ["self", "blocks", "g", "c", "sigma"]
            assert list(inspect.signature(cls.kkt_feedback).parameters) == ["self", "system", "c"]

    @staticmethod
    def problems():
        dense = DenseNlp(
            2,
            residual=lambda w: w,
            residual_jacobian=lambda w: np.eye(2),
            lower=np.array([-INF, 0.2]),
            upper=np.array([INF, INF]),
            equality=lambda w: np.array([w[0] + w[1] - 1.0]),
            equality_jacobian=lambda w: np.array([[1.0, 1.0]]),
        )
        yield dense, np.array([3.0, 1.0])
        for width in (None, (0.0, 0.0)):
            if width is None:
                path, cfg = make_path("spiral"), OcpConfig()
                p0, z0 = path.point(-1.0), np.array([-1.0, 1e-5])
            else:
                path = make_path("sinusoid-corridor")
                cfg = OcpConfig(corridor=True, s2_bounds=width)
                p0, z0 = path.point(-1.0, 0.0), np.array([-1.0, 0.0, 1e-5, 0.0])
            x0 = np.zeros(9)
            x0[:3] = p0[:3]
            prob = build_ocp(x0, z0, OcpStructure(path, cfg, ModelParams()))
            yield prob, prob.rollout()

    def test_solve_uses_only_the_protocol(self):
        for prob, guess in self.problems():
            want = solve(prob, guess)
            got = solve(self.Proxy(prob, self.PROTOCOL), guess)
            assert want.status == CONVERGED
            assert got.status == want.status and got.iterations == want.iterations
            assert got.decision.tobytes() == want.decision.tobytes()
            # and warm, with multipliers
            warm = solve(self.Proxy(prob, self.PROTOCOL), want.decision, multipliers=want.multipliers)
            assert warm.status == CONVERGED


class TestPrepareThenFeedback:
    """``solve(problem, guess, multipliers)`` is ``prepare`` followed by the
    feedback, bit for bit, whether the start is prepared on the problem or,
    for a horizon problem, on its pin-free structure."""

    @staticmethod
    def run(prob, guess, multipliers, start=None):
        log = io.StringIO()
        result = solve(prob, guess, multipliers=multipliers, log=log, start=start)
        return (result.decision.tobytes(), result.multipliers.tobytes(), result.status, result.iterations,
                result.trials, result.kkt_residual, log.getvalue())

    @pytest.mark.parametrize("kind", ["dense", "classic", "corridor"])
    def test_solve_equals_prepare_then_feedback(self, kind):
        prob, guess = list(TestProtocol.problems())[["dense", "classic", "corridor"].index(kind)]
        cold = solve(prob, guess)
        # a cold start, and a warm one from a perturbed optimum, which takes
        # iterations
        warm_guess = cold.decision + 1e-3 * np.sin(np.arange(cold.decision.size))
        owners = [prob] + ([prob.structure] if kind != "dense" else [])
        for guess, multipliers in ((guess, None), (warm_guess, cold.multipliers)):
            want = self.run(prob, guess, multipliers)
            assert want[3] > 0
            for owner in owners:
                assert self.run(prob, guess, multipliers, prepare(owner, guess, multipliers)) == want

    @pytest.mark.parametrize("kind", ["dense", "classic"])
    def test_a_singular_first_system_falls_back_to_the_regularised_step(self, kind):
        # the prepared system made singular: the first iteration's step is
        # the in-loop kkt_step at the first regularization
        prob, guess = list(TestProtocol.problems())[["dense", "classic"].index(kind)]
        kkt_system, kkt_step = prob.kkt_system, prob.kkt_step
        regs = []

        def singular(*args):
            if kind == "dense":
                system = kkt_system(*args)
                system[0][0][:] = 0.0  # the dense KKT matrix, factored by the feedback
                return system
            # the condensed matrix, factored by kkt_system: its LU sees zeros
            lu = np.linalg.solve
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(np.linalg, "solve", lambda a, b: lu(np.zeros_like(a), b))
                return kkt_system(*args)
        prob.kkt_system = singular
        if kind == "classic":
            assert prepare(prob, guess).system is None
        prob.kkt_step = lambda blocks, g, c, sigma, reg: regs.append(reg) or kkt_step(blocks, g, c, sigma, reg)
        result = solve(prob, guess)
        assert result.status == CONVERGED
        assert regs[0] == solver_module._REG_FLOOR

    def test_the_structure_leaves_only_the_pin_rows_to_the_problem(self):
        _, prob, _ = (p for p, _ in TestProtocol.problems())
        w = prob.rollout() + 1e-3
        r, c, _ = prob.evaluate(w)
        r_free, c_free, _ = prob.structure.evaluate(w)
        ns = prob.structure.n_x + prob.structure.n_z
        assert r.tobytes() == r_free.tobytes() and c[ns:].tobytes() == c_free[ns:].tobytes()
        prob.fill_pins(w, c_free)
        assert c.tobytes() == c_free.tobytes()


class TestBoxIndexSets:
    """The barrier on the faces of a :class:`Box`, built once per problem,
    against the full-length mask oracle, bit for bit."""

    @staticmethod
    def box(kind):
        if kind == "ocp":
            cfg = OcpConfig(horizon=20)
            structure = OcpStructure(make_path("spiral"), cfg, ModelParams())
            prob = build_ocp(np.zeros(9), np.array([-1.0, 1e-5]), structure)
            return prob.box.lower, prob.box.upper
        # both sides, upper only, lower only, neither, frozen; over 128
        # faces a side, where the pairwise sum works in blocks
        rng = np.random.default_rng(7)
        lo = rng.uniform(-2.0, 0.0, 400)
        hi = lo + rng.uniform(0.1, 3.0, 400)
        sort = rng.integers(0, 5, 400)
        lo[sort == 1] = -INF
        hi[sort == 2] = INF
        lo[sort == 3], hi[sort == 3] = -INF, INF
        hi[sort == 4] = lo[sort == 4]
        return lo, hi

    @staticmethod
    def interior_points(lo, hi, count):
        rng = np.random.default_rng(3)
        for _ in range(count):
            u = rng.uniform(1e-9, 1.0, lo.size)
            w = 5.0 * u - 2.5
            w[np.isfinite(lo)] = lo[np.isfinite(lo)] + 10.0 * u[np.isfinite(lo)]
            w[np.isfinite(hi)] = hi[np.isfinite(hi)] - 10.0 * u[np.isfinite(hi)]
            both = np.isfinite(lo) & np.isfinite(hi)
            w[both] = lo[both] + u[both] * (hi[both] - lo[both])
            yield w

    @pytest.mark.parametrize("kind", ["mixed", "ocp"])
    def test_barrier_equals_mask_oracle_bitwise(self, kind):
        lo, hi = self.box(kind)
        free = ~frozen_mask(lo, hi)
        box = Box(lo, hi)
        assert np.array_equal(box.free, free)
        for w in self.interior_points(lo, hi, 20):
            value, grad, gap = box.barrier(w)
            want_value, want_grad = _barrier_terms(w, lo, hi, free)
            assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
            assert grad.tobytes() == want_grad.tobytes()
            assert np.all(gap > 0.0)
        for bound in (lo, hi):
            on_face = w.copy()
            face = np.flatnonzero(free & np.isfinite(bound))[0]
            on_face[face] = bound[face]
            assert box.barrier(on_face) == (INF, None, None)
            assert _barrier_terms(on_face, lo, hi, free) == (INF, None)

    def test_step_to_boundary_keeps_a_fraction_of_every_gap(self):
        lo, hi = self.box("mixed")
        box = Box(lo, hi)
        w = next(self.interior_points(lo, hi, 1))
        dw = np.random.default_rng(5).standard_normal(lo.size) * 100.0
        _, _, gap = box.barrier(w)
        alpha = box.step_to_boundary(gap, dw, 0.995)
        assert 0.0 < alpha < 1.0
        _, _, gap_new = box.barrier(w + alpha * dw)
        # the nearest face keeps exactly the fraction, up to the cancellation
        # in its new gap
        assert np.min(gap_new / gap) == pytest.approx(1.0 - 0.995, rel=1e-9)

    @pytest.mark.parametrize("kind", ["mixed", "ocp"])
    def test_free_index_picks_the_free_mask_entries(self, kind):
        box = Box(*self.box(kind))
        v = np.random.default_rng(2).standard_normal(box.n)
        assert v[box.free_idx].tobytes() == v[box.free].tobytes()


class TestProjectInterior:
    """``Box.project`` on the faces, against the full-length mask oracle."""

    def test_pushes_strictly_inside(self):
        lo = np.array([0.0, -1.0])
        hi = np.array([1.0, 1.0])
        w = Box(lo, hi).project(np.array([0.0, 2.0]), 1e-6)
        assert np.all(w > lo) and np.all(w < hi)

    def test_frozen_goes_to_pin(self):
        w = Box(np.array([0.5]), np.array([0.5])).project(np.array([3.0]), 1e-6)
        assert w[0] == 0.5

    @pytest.mark.parametrize("margin_scale", [1e-6, 1e-2, 0.5, solver_module._COLD_MARGIN])
    def test_matches_mask_oracle_bitwise(self, margin_scale):
        # both sides, upper only, lower only, neither, frozen (equal bounds
        # and a range under the 1e-12 tolerance), and narrow boxes whose
        # range is under four margins; at 0.5 the quarter-range cap binds
        rng = np.random.default_rng(11)
        for _ in range(20):
            lo = rng.uniform(-2.0, 2.0, 300)
            hi = lo + rng.uniform(0.1, 3.0, 300)
            sort = rng.integers(0, 7, 300)
            lo[sort == 1] = -INF
            hi[sort == 2] = INF
            lo[sort == 3], hi[sort == 3] = -INF, INF
            hi[sort == 4] = lo[sort == 4]
            hi[sort == 5] = lo[sort == 5] + rng.uniform(0.0, 1e-12, np.sum(sort == 5))
            hi[sort == 6] = lo[sort == 6] + rng.uniform(2e-12, 4.0 * margin_scale, np.sum(sort == 6))
            box = Box(lo, hi)
            # points inside, outside and on the faces
            w = rng.uniform(-4.0, 4.0, 300)
            w[::7] = np.where(np.isfinite(lo[::7]), lo[::7], w[::7])
            w[3::7] = np.where(np.isfinite(hi[3::7]), hi[3::7], w[3::7])
            got = box.project(w, margin_scale)
            want = project_interior(w, lo, hi, margin_scale)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(box.free, ~frozen_mask(lo, hi))

    @pytest.mark.parametrize("kind", ["spiral", "zero-width"])
    def test_horizon_box_at_the_solver_margins_matches_the_mask_oracle_bitwise(self, kind):
        # the limits the box computes once for the cold and the warm margin,
        # on the horizon problem's box (the zero-width corridor's holds its
        # offsets frozen), at points inside, outside and on the faces
        if kind == "spiral":
            path, cfg = make_path("spiral"), OcpConfig()
        else:
            path, cfg = make_path("sinusoid-corridor"), OcpConfig(corridor=True, s2_bounds=(0.0, 0.0))
        box = OcpStructure(path, cfg, ModelParams()).box
        lo, hi = box.lower, box.upper
        rng = np.random.default_rng(13)
        for margin_scale in (solver_module._COLD_MARGIN, solver_module._WARM_MARGIN):
            assert margin_scale in box.limits
            for _ in range(20):
                w = rng.uniform(-2.0, 2.0, box.n)
                w[::5] = np.where(np.isfinite(lo[::5]), lo[::5], w[::5])
                w[2::5] = np.where(np.isfinite(hi[2::5]), hi[2::5], w[2::5])
                want = project_interior(w, lo, hi, margin_scale)
                assert box.project(w, margin_scale).tobytes() == want.tobytes()

    def test_sub_ulp_margin_leaves_the_faces(self):
        # margins under half an ulp of their bounds: a two-sided box 2e-12
        # wide and one-sided bounds at 1e12
        lo = np.array([1.0, 1e12, -INF])
        hi = np.array([1.0 + 2e-12, INF, -1e12])
        box = Box(lo, hi)
        for w in (np.array([0.0, 0.0, 0.0]), np.array([5.0, 1e12, -1e12])):
            got = box.project(w, 1e-6)
            assert np.all(got > lo) and np.all(got < hi)
            assert np.array_equal(got[1:], [np.nextafter(1e12, INF), np.nextafter(-1e12, -INF)])

    @pytest.mark.parametrize("multipliers", [None, np.zeros(0)], ids=["cold", "warm"])
    def test_bounds_with_no_float_between_freeze_the_entry(self, multipliers):
        # 1.8e-12 apart, above the frozen tolerance, but adjacent floats:
        # no point lies strictly inside, so the entry is frozen
        upper = np.nextafter(1e4, INF)
        prob = DenseNlp(n=1, residual=lambda w: w, residual_jacobian=lambda w: np.eye(1),
                        lower=[1e4], upper=[upper])
        assert not prob.box.free[0]
        res = solve(prob, np.array([0.0]), multipliers=multipliers)
        assert res.status == CONVERGED and res.iterations == 0
        assert 1e4 <= res.decision[0] <= upper

    def test_warm_solve_on_a_sub_ulp_margin_returns_a_result(self):
        prob = DenseNlp(n=1, residual=lambda w: w, residual_jacobian=lambda w: np.eye(1),
                        lower=[1.0], upper=[1.0 + 2e-12])
        res = solve(prob, np.array([0.0]), multipliers=np.zeros(0))
        assert isinstance(res, SolveResult)
        assert 1.0 < res.decision[0] < 1.0 + 2e-12

    def test_projection_leaves_the_input_and_the_box_unchanged(self):
        lo, hi = np.array([0.0, 0.5]), np.array([1.0, 0.5])
        box = Box(lo, hi)
        w = np.array([-1.0, 3.0])
        box.project(w, 1e-2)
        assert np.array_equal(w, [-1.0, 3.0])
        lo[0] = -5.0  # the box holds its own copies
        assert box.lower[0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            box.free[0] = False


class TestWarmStartShift:
    def make_problem(self, x0, z0, cfg=None):
        cfg = cfg if cfg is not None else OcpConfig()
        path = make_path("spiral")
        return build_ocp(x0, z0, OcpStructure(path, cfg, ModelParams())), cfg

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
        w = np.empty(prob.structure.n)
        for view, value in zip(prob.structure.unpack(w), (X, U, Z, V)):
            view[:] = value
        from quadpath.solver import SolveResult
        prev = SolveResult(w, CONVERGED, 0.0, 0, 0.0, np.zeros(prob.structure.m_eq), 0)
        shifted = prob.structure.unpack(warm_start_shift(prev, prob.structure))
        np.testing.assert_array_equal(shifted[0], X)   # hover propagates to itself
        np.testing.assert_array_equal(shifted[1], U)
        assert np.max(np.abs(shifted[2] - Z)) < 1e-4   # progress creeps by the floor drift
        np.testing.assert_array_equal(shifted[3], V)

    def test_result_respects_bounds(self, monkeypatch):
        # the warm solve starts from the shifted plan moved inside the box
        prob, cfg = self.make_problem(
            np.concatenate([make_path("spiral").point(-1.0)[:3], np.zeros(6)]),
            np.array([-1.0, 1e-5]),
        )
        res = solve(prob, prob.rollout())
        visited = []
        evaluate = prob.evaluate
        monkeypatch.setattr(prob, "evaluate", lambda W: visited.append(W.copy()) or evaluate(W))
        solve(prob, warm_start_shift(res, prob.structure), multipliers=res.multipliers)
        start = visited[0]
        lo, hi = prob.box.lower, prob.box.upper
        assert np.all(start[np.isfinite(lo)] >= lo[np.isfinite(lo)])
        assert np.all(start[np.isfinite(hi)] <= hi[np.isfinite(hi)])

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
        structure = OcpStructure(path_c, cfg_c, ModelParams())
        prob_corridor = build_ocp(x0, np.array([-1.0, 0.0, 1e-5, 0.0]), structure)
        with pytest.raises(ValueError):
            warm_start_shift(res, prob_corridor.structure)

    def test_warm_start_saves_iterations_closed_loop(self):
        # paired cold/warm measurement over a short spiral segment
        cfg = OcpConfig()
        path = make_path("spiral")
        params = ModelParams()
        p0 = path.point(-1.0)
        x = np.zeros(9)
        x[:3] = p0[:3]
        z = np.array([-1.0, cfg.s_dot_floor])
        structure = OcpStructure(path, cfg, params)
        last = None
        warm_iters, cold_iters = [], []
        for _ in range(25):
            prob = build_ocp(x, z, structure)
            cold = solve(prob, prob.rollout())
            if last is not None:
                warm = solve(prob, warm_start_shift(last, prob.structure), multipliers=last.multipliers)
                warm_iters.append(warm.iterations)
                cold_iters.append(cold.iterations)
                last = warm
            else:
                last = cold
            X, U, Z, V = prob.structure.unpack(last.decision)
            x = rk4_step(x, U[0], cfg.delta, params)
            z = np.clip(step_timing(z, V[0], cfg.delta),
                        [-1.0, cfg.s_dot_floor], [0.0, cfg.s_dot_max])
        assert np.median(warm_iters) <= np.median(cold_iters)
