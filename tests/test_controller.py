import copy
from dataclasses import replace

import numpy as np
import pytest

from quadpath import controller as controller_module
from quadpath import paths, solver, transcription
from quadpath.cli import FAILURE_BUDGET
from quadpath.controller import PathController
from quadpath.dynamics import ModelParams, rk4_step
from quadpath.paths import make_path
from quadpath.simulate import build_components, run_scenario, scenario_config, sense
from quadpath.solver import CONVERGED, MAX_ITERATIONS
from quadpath.transcription import OcpConfig, build_ocp, warm_start_shift

PARAMS = ModelParams()


def spiral_controller(**cfg_overrides):
    cfg = OcpConfig(**cfg_overrides)
    return PathController(make_path("spiral"), cfg, PARAMS), cfg


def state_on_path(path, s, corridor=False):
    p = path.point(s, 0.0) if corridor else path.point(s)
    x = np.zeros(9)
    x[:3] = p[:3]
    x[8] = p[3]
    return x


class TestControlStep:
    def test_hover_at_path_end_returns_near_zero_input(self):
        controller, cfg = spiral_controller()
        controller.path_state = np.array([0.0, cfg.s_dot_floor])
        measured = state_on_path(controller.path, 0.0)
        inp, nu, diag = controller.control_step(measured)
        assert np.max(np.abs(inp)) < 1e-3
        assert diag.solve.status == CONVERGED

    def test_displacement_contracts_over_horizon(self):
        controller, cfg = spiral_controller()
        controller.path_state = np.array([-0.5, 0.02])
        measured = state_on_path(controller.path, -0.5)
        measured[0] += 0.1
        inp, nu, diag = controller.control_step(measured)
        from quadpath.dynamics import output_map
        from quadpath.paths import path_error
        problem = build_ocp(measured, controller.path_state, controller.structure)
        X, _, Z, _ = problem.structure.unpack(diag.solve.decision)
        pred_out = output_map(X)
        refs = controller.path.point(Z[:, 0])
        errs = path_error(pred_out, refs)
        assert abs(errs[-1, 0]) < abs(errs[0, 0])
        assert abs(errs[0, 0] - 0.1) < 1e-9

    def test_identical_controllers_give_identical_outputs(self):
        controller, cfg = spiral_controller()
        twin = copy.deepcopy(controller)
        measured = state_on_path(controller.path, -1.0)
        inp_a, nu_a, diag_a = controller.control_step(measured)
        inp_b, nu_b, diag_b = twin.control_step(measured)
        assert np.array_equal(inp_a, inp_b)
        assert np.array_equal(nu_a, nu_b)
        assert diag_a.solve.iterations == diag_b.solve.iterations

    def test_rejects_non_finite_measurement(self):
        controller, _ = spiral_controller()
        bad = np.zeros(9)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            controller.control_step(bad)

    def test_out_of_box_measurement_is_clamping_event_not_crash(self):
        controller, _ = spiral_controller()
        measured = state_on_path(controller.path, -1.0)
        measured[2] = 2.0  # above the altitude box
        inp, nu, diag = controller.control_step(measured)
        assert controller.clamp_log
        assert np.all(np.isfinite(inp))

    def test_out_of_box_pin_reports_clamping_event(self):
        controller, _ = spiral_controller()
        x0 = np.zeros(9)
        x0[:3] = controller.path.point(-1.0)[:3]
        x0[2] = 2.0  # above the 1.2 m ceiling
        controller.control_step(x0)
        assert any("state[2]" in e for e in controller.clamp_log)

    @pytest.mark.parametrize("corridor", [False, True])
    def test_first_inputs_are_copies_of_the_plan(self, corridor):
        name = "sinusoid-corridor" if corridor else "spiral"
        controller = PathController(make_path(name), OcpConfig(corridor=corridor), PARAMS)
        x = state_on_path(controller.path, -1.0, corridor)
        for _ in range(2):  # the rollout solve, then a warm one
            inp, nu, diag = controller.control_step(x)
            decision = controller.last_solution.decision
            kept = decision.copy()
            _, U, _, V = controller.structure.unpack(decision)
            assert inp.tobytes() == U[0].tobytes() and nu.tobytes() == V[0].tobytes()
            inp[:] = 7.0
            nu[:] = 7.0
            assert decision.tobytes() == kept.tobytes()
            controller.advance_path_state(V[0])


class TestPinCheck:
    """The pins are tested against their box in one comparison, which
    writes the same messages in the same order as the per-coordinate loop
    over the state pin, then the timing pin."""

    @staticmethod
    def per_coordinate(config, x_pin, z_pin):
        zlo, zhi = config.z_bounds()
        log = []
        for name, value, lo, hi in (
            ("state", x_pin, config.state_lower, config.state_upper),
            ("path", z_pin, zlo, zhi),
        ):
            for idx in np.flatnonzero((value < lo) | (value > hi)):
                log.append(f"pinned {name}[{idx}]={value[idx]:.6g} outside box [{lo[idx]:.6g}, {hi[idx]:.6g}]")
        return log

    @pytest.mark.parametrize("corridor", [False, True])
    @pytest.mark.parametrize("outside", [(), ("state",), ("path",), ("state", "path")])
    def test_messages_match_the_per_coordinate_loop(self, corridor, outside):
        name = "sinusoid-corridor" if corridor else "spiral"
        cfg = OcpConfig(corridor=corridor)
        controller = PathController(make_path(name), cfg, PARAMS)
        x_pin = state_on_path(controller.path, -0.5, corridor)
        z_pin = controller.path_state.copy()  # on the faces of its box
        if "state" in outside:
            x_pin[2], x_pin[7] = 2.0, -0.5  # above the ceiling, below the pitch bound
        if "path" in outside:
            z_pin[-1] = 1.0  # the last rate above its bound
            z_pin[0] = -1.5  # before the path start
        controller._log_pins_outside_box(x_pin, z_pin)
        assert controller.clamp_log == self.per_coordinate(cfg, x_pin, z_pin)
        assert len(controller.clamp_log) == 2 * len(outside)


class TestAdvancePathState:
    def test_closed_form_update(self):
        controller, _ = spiral_controller()
        controller.path_state = np.array([-1.0, 0.04])
        z = controller.advance_path_state(np.array([0.0]))
        np.testing.assert_allclose(z, [-0.998, 0.04], atol=1e-15)

    def test_acceleration_update(self):
        controller, _ = spiral_controller()
        controller.path_state = np.array([-0.5, 0.02])
        z = controller.advance_path_state(np.array([0.02]))
        assert z[1] == pytest.approx(0.021, abs=1e-15)
        assert z[0] == pytest.approx(-0.5 + 0.02 * 0.05 + 0.5 * 0.02 * 0.0025, abs=1e-16)

    def test_clamps_at_path_end_and_logs(self):
        controller, _ = spiral_controller()
        controller.path_state = np.array([-0.001, 0.04])
        before = len(controller.clamp_log)
        z = controller.advance_path_state(np.array([0.0]))
        assert z[0] == 0.0
        assert len(controller.clamp_log) > before

    @pytest.mark.parametrize("nu", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_virtual_input(self, nu):
        controller, _ = spiral_controller()
        before = controller.path_state.copy()
        with pytest.raises(ValueError, match="finite"):
            controller.advance_path_state(np.array([nu]))
        np.testing.assert_array_equal(controller.path_state, before)


class TestClosedLoopProperties:
    def test_progress_monotone_and_inputs_in_box(self):
        controller, cfg = spiral_controller()
        x = state_on_path(controller.path, -1.0)
        s_values = []
        for _ in range(40):
            inp, nu, diag = controller.control_step(x)
            assert np.all(inp >= cfg.input_lower - 1e-9)
            assert np.all(inp <= cfg.input_upper + 1e-9)
            vlo, vhi = cfg.nu_bounds()
            assert np.all(nu >= vlo - 1e-9) and np.all(nu <= vhi + 1e-9)
            x = rk4_step(x, inp, cfg.delta, PARAMS)
            controller.advance_path_state(nu)
            s_values.append(controller.path_state[0])
        diffs = np.diff(np.array(s_values))
        assert np.all(diffs >= 0.0)

    def test_warm_start_consistency_under_nominal_dynamics(self):
        # boxes wide and progress pressure off, so no bound is active
        cfg = OcpConfig(
            state_lower=np.full(9, -np.inf),
            state_upper=np.full(9, np.inf),
            input_lower=-np.ones(4) * 10.0,
            input_upper=np.ones(4) * 10.0,
            s_dot_max=10.0,
            nu_bound=10.0,
            q_weight=np.array([80.0, 80.0, 100.0, 20.0, 1.0, 1.0, 1.0, 1e-6]),
            terminal_weight=0.0,
        )
        controller = PathController(make_path("spiral"), cfg, PARAMS)
        controller.path_state = np.array([-0.5, 0.02])
        x = state_on_path(controller.path, -0.5)
        for _ in range(4):
            inp, nu, diag = controller.control_step(x)
            x = rk4_step(x, inp, cfg.delta, PARAMS)  # plant identical to the model
            controller.advance_path_state(nu)
        problem = build_ocp(x, controller.path_state, controller.structure)
        guess = warm_start_shift(controller.last_solution, problem.structure)
        assert np.max(np.abs(problem.equality(guess))) < 1e-8


class TestWarmStartFlight:
    @pytest.mark.parametrize("scenario, warm_mean_max, warm_max", [("spiral", 2.5, 11), ("hover", 2.0, 10)],
                             ids=["spiral", "hover"])
    def test_every_step_converges_on_its_first_attempt(self, monkeypatch, scenario, warm_mean_max,
                                                       warm_max):
        # the warm guess keeps its active bounds, the second-order
        # correction lets the full step through, and the primal-dual stopping
        # test ends a solve once its bound duals have settled: every solve
        # converges, warm solves average 2.24 iterations on spiral and 1.56
        # on hover (3.34 and 3.70 when the primal barrier gradient was
        # tested), and hover's largest warm solve takes 8 (33 at its path end)
        attempts = []
        original = controller_module.solve

        def recorded(problem, guess, multipliers=None, log=None, start=None):
            result = original(problem, guess, multipliers=multipliers, log=log, start=start)
            attempts.append((multipliers is not None, result))
            return result
        monkeypatch.setattr(controller_module, "solve", recorded)
        _, metrics = run_scenario(scenario_config(scenario))
        assert len(attempts) == metrics.steps
        assert all(result.status == CONVERGED for _, result in attempts)
        warm = [result.iterations for is_warm, result in attempts if is_warm]
        assert len(warm) == metrics.steps - 1
        assert np.mean(warm) <= warm_mean_max
        assert max(warm) <= warm_max


class TestStageBlockedPath:
    """The horizon problem reaches the solver as stage blocks."""

    @staticmethod
    def fly(controller, cfg, steps):
        x = state_on_path(controller.path, -1.0)
        results = []
        for _ in range(steps):
            inp, nu, diag = controller.control_step(x)
            results.append(diag.solve)
            x = rk4_step(x, inp, cfg.delta, PARAMS)
            controller.advance_path_state(nu)
        return results

    def test_no_full_width_matrix_on_the_ocp_path(self, monkeypatch):
        # a cold step, then warm ones, at N=20; the dense routes raise, and
        # numpy in the controller, solver and transcription refuses to
        # return an array of two or more dimensions with one of length n,
        # but for the stack of line-search candidates OcpProblem.evaluate
        # is valuing, itself; the dense step (DenseNlp.kkt_step, which
        # its kkt_system returns) refuses too
        controller, cfg = spiral_controller(horizon=20)
        n = controller.structure.n
        stacks = []
        evaluate = transcription.OcpProblem.evaluate

        def evaluating(self, W):
            stacks.append(W)
            try:
                return evaluate(self, W)
            finally:
                stacks.pop()
        monkeypatch.setattr(transcription.OcpProblem, "evaluate", evaluating)

        def refuse(*args, **kwargs):
            raise AssertionError("dense Jacobian or KKT matrix on the OCP path")
        monkeypatch.setattr(transcription.OcpProblem, "equality_jacobian", refuse)
        monkeypatch.setattr(solver.DenseNlp, "kkt_step", refuse)

        class NoFullWidth:
            def __getattr__(self, name):
                attr = getattr(np, name)
                if not callable(attr) or isinstance(attr, type):
                    return attr

                def checked(*args, **kwargs):
                    out = attr(*args, **kwargs)
                    if isinstance(out, np.ndarray) and out.ndim >= 2 and n in out.shape:
                        if not (stacks and out.shape == stacks[-1].shape
                                and out.tobytes() == stacks[-1].tobytes()):
                            raise AssertionError(f"np.{name} returned an array of shape {out.shape}")
                    return out
                return checked
        for module in (controller_module, solver, transcription):
            monkeypatch.setattr(module, "np", NoFullWidth())
        results = self.fly(controller, cfg, 3)
        assert all(r.iterations > 0 for r in results)

    def test_control_steps_share_read_only_constant_blocks(self, monkeypatch):
        built = []
        original = controller_module.build_ocp

        def recorded(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]
        monkeypatch.setattr(controller_module, "build_ocp", recorded)
        controller, cfg = spiral_controller()
        self.fly(controller, cfg, 2)
        first, second = built
        assert first is not second
        assert first.structure is second.structure is controller.structure
        assert first.box is second.box is controller.structure.box
        arrays = [v for owner in (first.structure, first.box) for v in vars(owner).values()
                  if isinstance(v, np.ndarray) and v.size]
        assert len(arrays) > 20
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = a[(0,) * a.ndim]

    def test_one_box_per_controller(self, monkeypatch):
        # a cold step and two warm ones on each of two controllers
        built = []
        original = solver.Box.__init__

        def counted(box, *args, **kwargs):
            built.append(box)
            original(box, *args, **kwargs)
        monkeypatch.setattr(solver.Box, "__init__", counted)
        for count in (1, 2):
            controller, cfg = spiral_controller()
            results = self.fly(controller, cfg, 3)
            assert all(r.status == CONVERGED for r in results)
            assert len(built) == count
            assert built[-1] is controller.structure.box


class TestFirstSolve:
    @pytest.mark.parametrize("horizon", [5, 20])
    def test_first_step_converges_well_inside_the_cap(self, horizon):
        # the first step of a spiral flight is one rollout solve (see
        # TestFallbackChain); it must leave a margin under the iteration
        # cap, so last-digit changes cannot decide its status
        path, ocp, params = build_components(scenario_config("spiral", horizon=horizon))
        controller = PathController(path, ocp, params)
        _, _, diag = controller.control_step(state_on_path(path, -1.0))
        assert diag.solve.status == CONVERGED
        assert diag.solve.iterations <= solver._ITERATION_CAP - 15


# (scenario, horizon, seed of 2 mm position noise or None)
FIRST_SOLVES = ([("spiral", n, None) for n in (3, 5, 8, 10, 12, 20, 40)]
                + [(name, 5, None) for name in ("lemniscate", "sinusoid", "sinusoid-corridor", "hover")]
                + [("spiral", 20, seed) for seed in range(21, 31)])


class TestColdStart:
    """The first solve starts from the accelerating timing guess with cold
    bound duals; it converges in at most 12 iterations at every horizon,
    with noise too, to the first input that the zero-rate rollout with the
    duals at ``mu / gap`` reaches in 14 to 45."""

    @staticmethod
    def zero_rate_solve(problem):
        class MuOverGap(solver._BoundDuals):
            def __init__(self, box, gap, cold=False):
                super().__init__(box, gap)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_BoundDuals", MuOverGap)
            return solver.solve(problem, problem.rollout())

    @pytest.mark.parametrize("scenario, horizon, seed", FIRST_SOLVES)
    def test_first_solve_in_at_most_12_iterations(self, monkeypatch, scenario, horizon, seed):
        cfg = scenario_config(scenario, horizon=horizon, seed=seed or 0,
                              position_noise=0.0 if seed is None else 0.002)
        path, ocp, params = build_components(cfg)
        controller = PathController(path, ocp, params)
        measured = sense(state_on_path(path, -1.0, cfg.corridor), [], cfg, np.random.default_rng(cfg.seed))
        problems, solve = [], controller_module.solve

        def recording(problem, *args, **kwargs):
            problems.append(problem)
            return solve(problem, *args, **kwargs)
        monkeypatch.setattr(controller_module, "solve", recording)
        inp, nu, diag = controller.control_step(measured)
        assert diag.solve.status == CONVERGED and diag.solve.iterations <= 12
        reference = self.zero_rate_solve(problems[0])
        assert reference.status == CONVERGED and reference.iterations > diag.solve.iterations
        st = controller.structure
        np.testing.assert_allclose(np.concatenate((inp, nu)),
                                   reference.decision[np.r_[st.u0, st.v0]], rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("scenario", ["spiral", "sinusoid-corridor"])
    def test_the_guess_accelerates_progress_then_holds(self, scenario):
        path, cfg, params = build_components(scenario_config(scenario, horizon=20))
        controller = PathController(path, cfg, params)
        x0 = state_on_path(path, -1.0, cfg.corridor)
        problem = build_ocp(x0, controller._feasible_pin(), controller.structure)
        _, U, Z, V = controller.structure.unpack(controller._cold_guess(problem))
        rate, v = Z[:, cfg.n_z // 2], V[:, 0]
        a, cap = controller_module._COLD_TIMING * cfg.nu_bound, controller_module._COLD_TIMING * cfg.s_dot_max
        assert not U.any() and not V[:, 1:].any()
        # full acceleration while the next rate stays under the cap, then the
        # one partial step that meets it, then none
        full = rate[:-1] + a * cfg.delta <= cap
        assert full[0] and not full[-1]
        np.testing.assert_allclose(v[full], a, rtol=1e-12)
        assert 0.0 < v[~full][0] <= a and not v[~full][1:].any()
        assert rate[-1] == pytest.approx(cap, rel=1e-12)


class TestFallbackChain:
    """What ``control_step`` falls back on: nothing but the solve it ran.
    The first step is one cold solve from a rollout and every later step
    one warm solve; a solve that does not converge is not retried, its
    iterate is applied and kept for the next warm start, and the step is
    flagged as a failure."""

    @staticmethod
    def record(monkeypatch, failing):
        """Patch ``solve`` so that the attempts named in ``failing``
        (``"warm"``, ``"rollout"``) report ``max-iterations``; returns the
        list the attempts ``(kind, problem, guess, multipliers, result)`` go
        to.  ``failing`` is read at each call."""
        attempts = []
        original = controller_module.solve

        def patched(problem, guess, multipliers=None, log=None, start=None):
            kind = "rollout" if multipliers is None else "warm"
            result = original(problem, guess, multipliers=multipliers, log=log, start=start)
            if kind in failing:
                result = replace(result, status=MAX_ITERATIONS)
            attempts.append((kind, problem, guess.copy(), multipliers, result))
            return result
        monkeypatch.setattr(controller_module, "solve", patched)
        return attempts

    @classmethod
    def second_step(cls, monkeypatch, failing):
        """A first control step, then a second one under :meth:`record`;
        returns the controller, the plant state after the second step, the
        second step's attempts and what it returned."""
        controller, cfg = spiral_controller()
        x = state_on_path(controller.path, -1.0)
        inp, nu, _ = controller.control_step(x)
        x = rk4_step(x, inp, cfg.delta, PARAMS)
        controller.advance_path_state(nu)
        attempts = cls.record(monkeypatch, failing)
        inp, nu, diag = controller.control_step(x)
        x = rk4_step(x, inp, cfg.delta, PARAMS)
        controller.advance_path_state(nu)
        return controller, x, attempts, (inp, nu, diag)

    def test_first_step_is_the_rollout_alone(self, monkeypatch):
        controller, _ = spiral_controller()
        attempts = self.record(monkeypatch, {"rollout"})
        _, _, diag = controller.control_step(state_on_path(controller.path, -1.0))
        assert [a[0] for a in attempts] == ["rollout"]
        assert attempts[0][1].box is controller.structure.box
        assert diag.solve is attempts[0][4] and diag.solve.status != CONVERGED

    def test_failure_only_when_every_attempt_fails(self, monkeypatch):
        # a later step runs one warm attempt, so its failure is that attempt's
        _, _, attempts, (_, _, diag) = self.second_step(monkeypatch, {"rollout"})
        assert [a[0] for a in attempts] == ["warm"] and diag.solve.status == CONVERGED
        monkeypatch.undo()
        controller, _, attempts, (_, _, diag) = self.second_step(monkeypatch, {"warm"})
        assert [a[0] for a in attempts] == ["warm"]
        assert diag.solve is attempts[0][4] and diag.solve.status != CONVERGED
        assert controller.last_solution is diag.solve

    def test_failed_warm_solve_applies_its_own_iterate(self, monkeypatch):
        _, _, attempts, (inp, nu, diag) = self.second_step(monkeypatch, {"warm"})
        (_, problem, _, _, result), = attempts
        _, U, _, V = problem.structure.unpack(result.decision)
        assert diag.solve.status != CONVERGED
        assert inp.tobytes() == U[0].tobytes() and nu.tobytes() == V[0].tobytes()

    def test_next_step_warm_starts_from_the_failed_result(self, monkeypatch):
        failing = {"warm"}
        controller, x, attempts, (_, _, diag) = self.second_step(monkeypatch, failing)
        failed = diag.solve
        failing.clear()
        _, _, diag = controller.control_step(x)
        assert [a[0] for a in attempts] == ["warm", "warm"]
        _, problem, guess, multipliers, result = attempts[1]
        assert multipliers is failed.multipliers
        assert guess.tobytes() == warm_start_shift(failed, problem.structure).tobytes()
        assert diag.solve is result and diag.solve.status == CONVERGED


class TestVelocityKick:
    """A [2, 0, -1] m/s velocity kick at step 100 of a 300-step spiral
    flight makes about ten warm solves fail: each of them is still the
    step's only solve."""

    def test_one_solve_per_step_through_failed_warm_solves(self, monkeypatch):
        cfg = scenario_config("spiral")
        path, ocp, params = build_components(cfg)
        controller = PathController(path, ocp, params)
        results = []
        original = controller_module.solve

        def recorded(problem, guess, multipliers=None, log=None, start=None):
            results.append(original(problem, guess, multipliers=multipliers, log=log, start=start))
            return results[-1]
        monkeypatch.setattr(controller_module, "solve", recorded)

        x = state_on_path(path, -1.0)
        steps = []
        for k in range(300):
            if k == 100:
                x[3:6] += [2.0, 0.0, -1.0]
            before = len(results)
            inp, nu, diag = controller.control_step(x)
            steps.append(results[before:])
            assert np.all(inp >= ocp.input_lower) and np.all(inp <= ocp.input_upper)
            x = rk4_step(x, inp, cfg.delta, params, substeps=cfg.plant_substeps)
            assert np.all(np.isfinite(x))
            controller.advance_path_state(nu)
        failed = [k for k, attempts in enumerate(steps) if attempts[-1].status != CONVERGED]
        assert failed and min(failed) >= 100
        for attempts in steps[1:]:
            assert len(attempts) == 1
            assert attempts[0].iterations <= solver._ITERATION_CAP
        assert len(failed) <= FAILURE_BUDGET * len(steps)


class TestOnePassPerPoint:
    """Each point a solve evaluates is evaluated once, in one pass per
    stack of points with one path evaluation, and the barrier is evaluated
    once per examined point.  ``OcpStructure.evaluate`` is the one
    evaluation route: a start is prepared on the structure, and a pinned
    problem's ``evaluate`` calls it."""

    @pytest.mark.parametrize("scenario", ["spiral", "sinusoid-corridor"])
    def test_one_path_and_barrier_evaluation_per_linearization(self, monkeypatch, scenario):
        cfg = OcpConfig(corridor=scenario.endswith("corridor"))
        path = make_path(scenario)
        controller = PathController(path, cfg, PARAMS)
        x = state_on_path(path, -1.0, cfg.corridor)
        stacks, path_calls, in_box = [], [], []

        def recorded(owner, name, record):
            original = getattr(owner, name)

            def call(*args, **kwargs):
                out = original(*args, **kwargs)
                record(args, out)
                return out
            monkeypatch.setattr(owner, name, call)

        def refuse(*args, **kwargs):
            raise AssertionError("a second evaluation of a visited point")
        recorded(transcription.OcpStructure, "evaluate",
                 lambda args, _: stacks.append(np.atleast_2d(args[1]).copy()))
        recorded(type(path), "point_and_derivative", lambda args, _: path_calls.append(1))
        recorded(solver.Box, "barrier",
                 lambda args, out: out[2] is not None and in_box.append(args[1].copy()))
        for owner, name in ((transcription.OcpProblem, "residual"),
                            (transcription.OcpProblem, "residual_jacobian"),
                            (transcription.OcpProblem, "equality"),
                            (paths.Path, "point"), (paths.Path, "derivative"),
                            (paths.CorridorPath, "point")):
            monkeypatch.setattr(owner, name, refuse)

        results = []
        for _ in range(3):  # a cold step, then two warm ones
            inp, nu, diag = controller.control_step(x)
            results.append(diag.solve)
            x = rk4_step(x, inp, cfg.delta, PARAMS)
            controller.advance_path_state(nu)
        assert len(results) == 3 and all(r.status == CONVERGED for r in results)
        assert sum(r.trials for r in results) > sum(r.iterations for r in results)
        assert len(path_calls) == len(stacks)
        evaluated = [w.tobytes() for stack in stacks for w in stack]
        assert len(set(evaluated)) == len(evaluated)
        # the in-box barrier evaluations are those of each start (the three
        # solves' and the one the last advance prepared) and of the examined
        # trials: in order, a non-empty prefix of each evaluated stack (the
        # whole of a one-point stack); candidates of a pass past the
        # accepted one are evaluated, not examined
        assert len(in_box) == len(results) + 1 + sum(r.trials for r in results)
        seen = 0
        for stack in stacks:
            examined = 0
            while (examined < len(stack) and seen < len(in_box)
                   and in_box[seen].tobytes() == stack[examined].tobytes()):
                examined += 1
                seen += 1
            assert examined >= 1, "a stack none of whose points was examined"
        assert seen == len(in_box)


class TestCorridorMode:
    def test_mode_flag(self):
        cfg = OcpConfig(corridor=True)
        controller = PathController(make_path("sinusoid-corridor"), cfg, PARAMS)
        assert controller.config.corridor
        assert controller.path_state.shape == (4,)

    def test_zero_width_corridor_reproduces_classic_inputs(self):
        yaw_bound = np.array([0.15, 0.35, 0.35, 0.2])
        classic_cfg = OcpConfig(
            s_dot_max=0.02,
            input_lower=-yaw_bound,
            input_upper=yaw_bound,
        )
        corridor_cfg = OcpConfig(
            corridor=True,
            s_dot_max=0.02,
            input_lower=-yaw_bound,
            input_upper=yaw_bound,
            s2_bounds=(0.0, 0.0),
        )
        classic = PathController(make_path("sinusoid"), classic_cfg, PARAMS)
        corridor = PathController(make_path("sinusoid-corridor"), corridor_cfg, PARAMS)
        x_c = state_on_path(classic.path, -1.0)
        x_k = x_c.copy()
        for _ in range(10):
            inp_c, nu_c, _ = classic.control_step(x_c)
            inp_k, nu_k, _ = corridor.control_step(x_k)
            np.testing.assert_allclose(inp_k, inp_c, atol=1e-6)
            assert abs(nu_k[0] - nu_c[0]) < 1e-6
            assert abs(nu_k[1]) < 1e-6
            x_c = rk4_step(x_c, inp_c, classic_cfg.delta, PARAMS)
            x_k = rk4_step(x_k, inp_k, corridor_cfg.delta, PARAMS)
            classic.advance_path_state(nu_c)
            corridor.advance_path_state(nu_k)

    def test_path_type_must_match_config(self):
        with pytest.raises(ValueError):
            PathController(make_path("spiral"), OcpConfig(corridor=True), PARAMS)


class TestPrepareFeedback:
    """``PathController.advance_path_state`` ends by preparing the next warm
    solve's measurement-free work, ahead of the measurement, and
    ``control_step`` is the feedback: every solve starts from a start
    prepared on the structure, the split changes no bit, and a prepared
    start serves one solve."""

    @staticmethod
    def fly(scenario, forced, steps=60):
        """Inputs, decisions and multipliers of a flight of ``control_step``
        and ``advance_path_state``; when ``forced``, each step is made to
        prepare its own start, the advance's dropped."""
        path, ocp, params = build_components(scenario_config(scenario))
        controller = PathController(path, ocp, params)
        x = state_on_path(path, -1.0, ocp.corridor)
        out = []
        for _ in range(steps):
            inp, nu, diag = controller.control_step(x)
            out += [inp.tobytes(), nu.tobytes(), diag.solve.decision.tobytes(), diag.solve.multipliers.tobytes()]
            x = rk4_step(x, inp, ocp.delta, params)
            controller.advance_path_state(nu)
            if forced:
                controller._prepared = None
        return out

    @pytest.mark.parametrize("scenario", ["spiral", "sinusoid-corridor"])
    def test_flight_identical_prepared_in_the_step_or_the_advance(self, scenario):
        assert self.fly(scenario, forced=True) == self.fly(scenario, forced=False)

    @staticmethod
    def count_preparations(monkeypatch):
        """Count the starts prepared on the structure and on a pinned
        problem (by a solve that prepares for itself)."""
        counts = {"structure": 0, "problem": 0}
        original = solver.prepare

        def counted(problem, *args, **kwargs):
            counts["structure" if isinstance(problem, transcription.OcpStructure) else "problem"] += 1
            return original(problem, *args, **kwargs)
        monkeypatch.setattr(solver, "prepare", counted)
        monkeypatch.setattr(controller_module, "prepare_start", counted)
        return counts

    def test_every_start_is_prepared_on_the_structure(self, monkeypatch):
        counts = self.count_preparations(monkeypatch)
        controller, cfg = spiral_controller()
        x = state_on_path(controller.path, -1.0)
        seen = []
        for _ in range(4):
            inp, nu, diag = controller.control_step(x)
            assert diag.solve.status == CONVERGED
            seen.append(dict(counts))
            x = rk4_step(x, inp, cfg.delta, PARAMS)
            controller.advance_path_state(nu)
        # the cold step prepares its own start, and each advance the next
        # step's, which that step then uses; none is prepared on a problem
        assert [(c["structure"], c["problem"]) for c in seen] == [(1, 0), (2, 0), (3, 0), (4, 0)]
        assert counts == {"structure": 5, "problem": 0}
        # a prepared start serves one step: a second step with no advance
        # between prepares its own
        controller.control_step(x)
        controller.control_step(x)
        assert counts == {"structure": 6, "problem": 0}

    def test_a_solution_replaced_after_the_advance_is_not_served_the_old_start(self, monkeypatch):
        counts = self.count_preparations(monkeypatch)
        controller, cfg = spiral_controller()
        x = state_on_path(controller.path, -1.0)
        inp, nu, diag = controller.control_step(x)
        controller.advance_path_state(nu)
        controller.last_solution = replace(controller.last_solution)
        controller.control_step(rk4_step(x, inp, cfg.delta, PARAMS))
        assert (counts["structure"], counts["problem"]) == (3, 0)

    def test_the_controller_passes_multipliers_by_keyword(self, monkeypatch):
        # perfbench tells a warm solve from a cold one by this keyword
        calls = []
        original = controller_module.solve

        def recorded(problem, guess, *args, **kwargs):
            calls.append((args, kwargs))
            return original(problem, guess, *args, **kwargs)
        monkeypatch.setattr(controller_module, "solve", recorded)
        controller, cfg = spiral_controller()
        x = state_on_path(controller.path, -1.0)
        for _ in range(2):  # a cold step, then a warm one
            last = controller.last_solution
            inp, nu, _ = controller.control_step(x)
            args, kwargs = calls[-1]
            assert args == () and kwargs["start"] is not None
            assert kwargs["multipliers"] is (None if last is None else last.multipliers)
            x = rk4_step(x, inp, cfg.delta, PARAMS)
            controller.advance_path_state(nu)

    def test_the_prepared_start_reads_no_pin(self, monkeypatch):
        # two controllers, one solution, advanced to two timing states: the
        # advances prepare one start
        starts, feedbacks = [], []
        controller, cfg = spiral_controller()
        x = state_on_path(controller.path, -1.0)
        inp, nu, _ = controller.control_step(x)
        x = rk4_step(x, inp, cfg.delta, PARAMS)
        twin = copy.deepcopy(controller)
        original = controller_module.prepare_start
        monkeypatch.setattr(controller_module, "prepare_start",
                            lambda *args: starts.append(original(*args)) or starts[-1])
        ns = controller.structure.n_x + controller.structure.n_z

        def start_bytes(start):
            """Every array of a start but its empty pin rows, and its time."""
            values = [v.z if isinstance(v, solver._BoundDuals) else v for v in start[:-1]]
            values[2] = start[2][ns:]  # c
            return [np.asarray(a).tobytes() for v in values for a in (v if isinstance(v, tuple) else (v,))]

        controller.advance_path_state(nu)
        twin.advance_path_state(nu + 0.01)
        assert not np.array_equal(twin.path_state, controller.path_state)
        assert len(starts) == 2
        assert start_bytes(starts[0]) == start_bytes(starts[1])

        # the first Newton step is the prepared system's feedback: both
        # controllers solve one system, and the feedback reads c's pin rows
        # alone
        kkt_feedback = transcription.OcpStructure.kkt_feedback

        def recorded(structure, system, c):
            feedbacks.append((structure, system, c.copy()))
            return kkt_feedback(structure, system, c)
        monkeypatch.setattr(transcription.OcpStructure, "kkt_feedback", recorded)
        controller.control_step(x)
        measured = x.copy()
        measured[0] += 0.02
        twin.control_step(measured)
        assert len(starts) == 2  # both steps were served the advance's start
        assert len(feedbacks) == 2
        (structure, system_a, c_a), (_, system_b, c_b) = feedbacks
        assert all(a.tobytes() == b.tobytes() for a, b in zip(system_a, system_b))
        assert c_a[ns:].tobytes() == c_b[ns:].tobytes()
        assert not np.array_equal(c_a[:ns], c_b[:ns])
        for c in (c_a, c_b):
            pins_only = np.full(c.shape, np.nan)
            pins_only[:ns] = c[:ns]
            steps = [kkt_feedback(structure, system, rows) for system in (system_a, system_b)
                     for rows in (c, pins_only)]
            assert len({b"".join(a.tobytes() for a in step) for step in steps}) == 1

    @pytest.mark.parametrize("horizon", [5, 20])
    def test_the_feedback_factors_nothing_before_its_first_trial(self, monkeypatch, horizon):
        # a warm step from a prepared start: its first Newton step is the
        # prepared pin response, so no LU solve and no sweep runs between
        # the measurement and the first line-search evaluation
        controller, cfg = spiral_controller(horizon=horizon)
        x = state_on_path(controller.path, -1.0)
        inp, nu, _ = controller.control_step(x)
        x = rk4_step(x, inp, cfg.delta, PARAMS)
        controller.advance_path_state(nu)  # prepares the next step's start
        events = []

        def recorded(name, original):
            def call(*args, **kwargs):
                events.append(name)
                return original(*args, **kwargs)
            return call
        monkeypatch.setattr(np.linalg, "solve", recorded("solve", np.linalg.solve))
        for name in ("_condense", "evaluate", "kkt_feedback"):
            monkeypatch.setattr(transcription.OcpStructure, name,
                                recorded(name, getattr(transcription.OcpStructure, name)))
        _, _, diag = controller.control_step(x)
        assert diag.solve.status == CONVERGED and diag.solve.iterations >= 1
        first = events.index("evaluate")
        assert events[:first] == ["kkt_feedback"]
        assert "solve" in events[first:]  # the probe sees the in-loop solves
