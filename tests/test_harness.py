import csv
import dataclasses
import json
import os
import re

import numpy as np
import pytest

from quadpath import simulate
from quadpath.cli import FAILURE_BUDGET, VIOLATION_LIMIT
from quadpath.cli import main as cli_main
from quadpath.dynamics import ModelParams
from quadpath.simulate import (
    CSV_HEADER,
    RunMetrics,
    ScenarioConfig,
    SimLog,
    StepRecord,
    build_components,
    compare_corridor,
    compute_metrics,
    export_csv,
    load_config,
    metrics_from_summary,
    run_scenario,
    scenario_config,
    sense,
    sim_time,
    summarize_json,
)
from quadpath.transcription import OcpConfig, OcpStructure

from oracles import rk4_step_loop


class TestSense:
    def cfg(self, sensor="fd"):
        return scenario_config("hover", sensor=sensor, total_time=5.0)

    def test_exact_mode_is_identity(self):
        cfg = self.cfg("exact")
        state = np.arange(9.0)
        np.testing.assert_array_equal(sense(state, [np.zeros(3)], cfg), state)

    def test_warmup_falls_back_to_exact_velocity(self):
        cfg = self.cfg()
        state = np.arange(9.0)
        np.testing.assert_array_equal(sense(state, [], cfg), state)

    def test_constant_velocity_exact_after_warmup(self):
        cfg = self.cfg()
        v = np.array([0.3, -0.1, 0.05])
        times = np.arange(10) * cfg.delta
        positions = [t * v for t in times]
        state = np.zeros(9)
        state[0:3] = positions[-1]
        state[3:6] = 99.0  # garbage that the sensor must replace
        measured = sense(state, positions[:-1], cfg)
        np.testing.assert_allclose(measured[3:6], v, atol=1e-9)

    def test_sinusoid_transfer_lags_and_attenuates(self):
        # oracle-computed: error vs cos(t) is lag-dominated (group delay
        # 2.5*delta); after lag compensation the residual error is small
        cfg = self.cfg()
        d = cfg.delta
        times = np.arange(0.0, 2.0 * np.pi + 6 * d, d)
        positions = [np.array([np.sin(t), 0.0, 0.0]) for t in times]
        raw_err, lag_err = [], []
        for k in range(6, len(times)):
            state = np.zeros(9)
            state[0:3] = positions[k]
            est = sense(state, positions[:k], cfg)[3]
            raw_err.append(est - np.cos(times[k]))
            lag_err.append(est - np.cos(times[k] - 2.5 * d))
        assert 0.10 < np.max(np.abs(raw_err)) < 0.15
        assert np.max(np.abs(lag_err)) < 0.01

    def test_fd_reads_the_last_window_of_positions_only(self):
        # run_scenario keeps FD_WINDOW past positions: a longer history must
        # measure the same bits, a shorter one must not
        cfg = scenario_config("hover", sensor="fd", position_noise=0.002, seed=1, total_time=5.0)
        rng = np.random.default_rng(3)
        history = [rng.normal(size=3) for _ in range(12)]
        state = rng.normal(size=9)
        long, trimmed, short = (sense(state, history[-keep:], cfg, np.random.default_rng(cfg.seed))
                                for keep in (len(history), simulate.FD_WINDOW, simulate.FD_WINDOW - 1))
        assert long.tobytes() == trimmed.tobytes()
        assert not np.array_equal(short[3:6], long[3:6])


@pytest.fixture(scope="module")
def hover_run():
    cfg = scenario_config("hover", total_time=6.0)
    return cfg, *run_scenario(cfg)


class TestHoverScenario:
    def test_quadrotor_hovers(self, hover_run):
        cfg, log, metrics = hover_run
        assert metrics.rms_position_error < 0.01

    def test_fd_sensor_closed_loop_stays_stable(self):
        cfg = scenario_config("spiral", sensor="fd", total_time=8.0)
        _, metrics = run_scenario(cfg)
        assert metrics.failures == 0
        assert metrics.rms_position_error < 0.05

    def test_timestamps_equidistant(self, hover_run):
        cfg, log, metrics = hover_run
        ts = np.array([r.t for r in log.records])
        np.testing.assert_allclose(np.diff(ts), cfg.delta, atol=1e-12)

    def test_states_respect_boxes(self, hover_run):
        cfg, log, metrics = hover_run
        assert metrics.constraint_violation_max <= 1e-6


class TestOffNominalSample:
    """Full spiral flights with a thrust or mass mismatch, or the
    finite-difference sensor under position noise, keep the robustness
    invariants: no exception, no box violation, failures within budget,
    monotone progress and the path end reached."""

    @pytest.mark.parametrize("overrides", [
        dict(thrust_scale=0.9),
        dict(mass_error=0.05),
        dict(sensor="fd", position_noise=0.01),
    ], ids=["thrust_scale-0.9", "mass_error-0.05", "fd-noise-0.01"])
    def test_flight_keeps_the_invariants(self, overrides):
        log, metrics = run_scenario(scenario_config("spiral", **overrides))
        assert metrics.constraint_violation_max <= VIOLATION_LIMIT
        assert metrics.failures <= FAILURE_BUDGET * metrics.steps
        progress = np.array([r.path_state[0] for r in log.records])
        assert np.all(np.diff(progress) >= 0.0)
        assert metrics.time_to_path_end is not None


class TestPlant:
    """The plant's offset-mass parameters are built once per flight, its
    states are those of parameters built afresh at every step, integrated
    stage by stage, and a non-finite state stops the flight."""

    def test_params_built_once_per_flight(self, monkeypatch):
        built = []
        real = simulate.ModelParams

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(simulate, "ModelParams", counting)
        _, metrics = run_scenario(scenario_config("spiral", total_time=0.5, mass_error=0.05))
        assert metrics.steps == 10
        assert len(built) == 2  # the controller's model and the plant

    def test_states_equal_per_step_params_bitwise(self):
        cfg = scenario_config("spiral", total_time=1.0, mass_error=0.05, thrust_scale=1.05)
        log, _ = run_scenario(cfg)
        m, g = cfg.mass, cfg.gravity
        for before, after in zip(log.records, log.records[1:]):
            plant = ModelParams(m * (1.0 + cfg.mass_error), g, cfg.tau_roll, cfg.tau_pitch)
            u = np.array(before.inp)
            u[0] = cfg.thrust_scale * (u[0] + m * g) - plant.mass * plant.gravity
            step = rk4_step_loop(before.state, u, cfg.delta, plant, substeps=cfg.plant_substeps)
            assert step.tobytes() == after.state.tobytes()

    def test_non_finite_state_names_the_step(self, monkeypatch):
        real, steps = simulate.PathController.control_step, []

        def nan_thrust_at_fourth_step(controller, measured):
            inp, nu, diag = real(controller, measured)
            steps.append(len(steps))
            if len(steps) == 4:
                inp[0] = np.nan
            return inp, nu, diag
        monkeypatch.setattr(simulate.PathController, "control_step", nan_thrust_at_fourth_step)
        with pytest.raises(RuntimeError, match=r"^plant state became non-finite at t=0\.150s$"):
            run_scenario(scenario_config("hover", total_time=1.0))
        assert len(steps) == 4


class TestExportCsv:
    def test_header_and_row_count(self, hover_run, tmp_path):
        cfg, log, metrics = hover_run
        short = type(log)(log.config, log.records[:3])
        out = tmp_path / "log.csv"
        export_csv(short, str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == CSV_HEADER

    def test_round_trip_precision(self, hover_run, tmp_path):
        cfg, log, metrics = hover_run
        out = tmp_path / "log.csv"
        export_csv(log, str(out))
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(log.records)
        for row, rec in zip(rows[:10], log.records[:10]):
            assert abs(float(row["t"]) - rec.t) < 1e-12
            assert abs(float(row["x"]) - rec.state[0]) < 1e-12
            assert abs(float(row["dT"]) - rec.inp[0]) < 1e-12
            assert abs(float(row["s1"]) - rec.path_state[0]) < 1e-12
            assert row["s2"] == ""  # classic run leaves corridor columns empty
            assert row["nu2"] == ""

    def test_write_failure_carries_path(self, hover_run):
        cfg, log, metrics = hover_run
        with pytest.raises(OSError, match="no/such"):
            export_csv(log, "/no/such/dir/log.csv")


class TestSummarizeJson:
    REQUIRED_KEYS = {
        "scenario", "rms_position_error_m", "max_abs_yaw_rate_rad_s",
        "time_to_path_end_s", "constraint_violation_max", "mean_solver_iters",
        "max_solve_time_ms", "failures",
    }

    def test_required_keys_present(self, hover_run, tmp_path):
        cfg, log, metrics = hover_run
        out = tmp_path / "summary.json"
        summarize_json(metrics, str(out))
        doc = json.loads(out.read_text())
        assert self.REQUIRED_KEYS <= set(doc)
        assert doc["scenario"] == "hover"

    def test_rerun_identical_except_timing(self, tmp_path):
        cfg = scenario_config("hover", total_time=3.0)
        docs = []
        for i in range(2):
            _, metrics = run_scenario(cfg)
            out = tmp_path / f"summary{i}.json"
            summarize_json(metrics, str(out))
            docs.append(json.loads(out.read_text()))
        timing_keys = {"mean_solve_time_ms", "max_solve_time_ms", "prepare_time_ms_p50", "prepare_time_ms_max",
                       "solve_time_ms_p50", "solve_time_ms_p99", "deadline_misses", "period_time_ms_p50",
                       "period_time_ms_p99"}
        for key in docs[0]:
            if key not in timing_keys:
                assert docs[0][key] == docs[1][key], key

    def test_empty_run_rejected(self, hover_run, tmp_path):
        cfg, log, metrics = hover_run
        import dataclasses
        empty = dataclasses.replace(metrics, steps=0)
        with pytest.raises(ValueError):
            summarize_json(empty, str(tmp_path / "x.json"))

    def test_metrics_round_trip(self, hover_run, tmp_path):
        cfg, log, metrics = hover_run
        out = tmp_path / "summary.json"
        summarize_json(metrics, str(out))
        assert metrics_from_summary(str(out)) == metrics

    APPENDED_KEYS = ("longest_stall_s", "prepare_time_ms_p50", "prepare_time_ms_max", "solve_time_ms_p50",
                     "solve_time_ms_p99", "deadline_misses", "total_solver_iters", "period_time_ms_p50",
                     "period_time_ms_p99")

    def test_appended_keys_last_in_order_and_optional_on_read(self, hover_run, tmp_path):
        cfg, log, metrics = hover_run
        out = tmp_path / "summary.json"
        summarize_json(metrics, str(out))
        doc = json.loads(out.read_text())
        assert tuple(doc)[-len(self.APPENDED_KEYS):] == self.APPENDED_KEYS
        assert doc["total_solver_iters"] == sum(r.solve_iterations for r in log.records)
        # summaries written before the stall key, before the step-time
        # keys or before the period keys were appended still read
        for first in (0, 1, 7):
            missing = self.APPENDED_KEYS[first:]
            out.write_text(json.dumps({k: v for k, v in doc.items() if k not in missing}))
            assert metrics_from_summary(str(out)) == dataclasses.replace(metrics, **dict.fromkeys(missing))


class TestStepTimes:
    """The appended step-time keys: feedback solve time p50 / p99, the
    preparation's p50 / max, feedback solves over the control period, the
    iterations of the flight and the period (preparation plus feedback)
    p50 / p99."""

    def test_percentiles_misses_and_iterations(self):
        cfg = scenario_config("spiral", total_time=10.0)
        solve_ms = [1.0, 2.0, 60.0, 3.0, 50.0, 51.0]
        prepare_ms = [9.0, 0.5, 0.25, 0.5, 1.0, 0.75]
        log = SimLog(cfg)
        for k, (solve_time, prepare_time) in enumerate(zip(solve_ms, prepare_ms)):
            log.records.append(StepRecord(
                t=k * cfg.delta, state=np.zeros(9), inp=np.zeros(4), nu=np.zeros(1),
                path_state=np.array([-1.0, 0.02]), reference=np.zeros(4), error=np.zeros(4),
                solve_iterations=k + 1, solve_time_ms=solve_time, status="converged",
                prepare_time_ms=prepare_time))
        metrics = compute_metrics(log, build_components(cfg)[1])
        assert metrics.solve_time_ms_p50 == 26.5
        assert metrics.solve_time_ms_p99 == pytest.approx(59.55)
        assert (metrics.prepare_time_ms_p50, metrics.prepare_time_ms_max) == (0.625, 9.0)
        assert metrics.deadline_misses == 2  # 50 ms is on the period, not over it
        assert metrics.total_solver_iters == 21
        # the period of a step is its preparation plus its feedback
        assert metrics.period_time_ms_p50 == 30.5
        assert metrics.period_time_ms_p99 == pytest.approx(59.825)

    def test_flight_records_the_feedback_and_the_preparation(self):
        log, metrics = run_scenario(scenario_config("spiral", total_time=1.0))
        prepare_ms = [r.prepare_time_ms for r in log.records]
        assert all(t > 0.0 for t in prepare_ms)
        assert metrics.prepare_time_ms_max == max(prepare_ms)
        assert metrics.solve_time_ms_p50 == float(np.median([r.solve_time_ms for r in log.records]))
        periods = [r.prepare_time_ms + r.solve_time_ms for r in log.records]
        assert metrics.period_time_ms_p50 == float(np.median(periods)) > metrics.solve_time_ms_p50


class TestLongestStall:
    """``longest_stall_s`` is the longest run of steps with a progress rate
    under 1e-3 before the path end, in seconds."""

    @staticmethod
    def flight(scenario, rates, progress):
        cfg = scenario_config(scenario, total_time=10.0)
        log = SimLog(cfg)
        for k, (rate, s) in enumerate(zip(rates, progress)):
            z = np.array([s, 0.1, rate, 0.0]) if cfg.corridor else np.array([s, rate])
            log.records.append(StepRecord(
                t=sim_time(k, cfg.delta), state=np.zeros(9), inp=np.zeros(4), nu=np.zeros(2),
                path_state=z, reference=np.zeros(4), error=np.zeros(4),
                solve_iterations=1, solve_time_ms=1.0, status="converged"))
        return cfg, compute_metrics(log, build_components(cfg)[1])

    @pytest.mark.parametrize("scenario", ["spiral", "sinusoid-corridor"])
    def test_longest_run_before_the_path_end(self, scenario):
        # runs of 2 and 3 slow steps, a step at exactly the threshold, then
        # the path end (s >= -1e-3) and a longer stall after it
        rates = [5e-4, 5e-4, 0.02, 1e-4, 0.0, 9e-4, 1e-3, 5e-4, 0.0, 0.0, 0.0, 0.0, 0.0]
        progress = [-1.0, -0.9, -0.8, -0.7, -0.6, -0.5, -0.4, -0.3, -1e-3, -5e-4, 0.0, 0.0, 0.0]
        cfg, metrics = self.flight(scenario, rates, progress)
        assert metrics.longest_stall_s == sim_time(3, cfg.delta)
        assert metrics.time_to_path_end == sim_time(8, cfg.delta)

    def test_whole_flight_when_the_end_is_not_reached(self):
        cfg, metrics = self.flight("spiral", [1e-5] * 6, np.linspace(-1.0, -0.5, 6))
        assert metrics.longest_stall_s == sim_time(6, cfg.delta)
        assert metrics.time_to_path_end is None

    def test_no_stall_reads_zero(self):
        _, metrics = self.flight("spiral", [0.02] * 5, np.linspace(-1.0, -0.5, 5))
        assert metrics.longest_stall_s == 0.0


class TestSimTime:
    """Step k is stamped at k periods counted in decimal and rounded once, and
    so are the path end and the longest stall: they read their decimal values,
    not k * delta (0.15000000000000002 at k = 3)."""

    def test_decimal_periods(self):
        assert [sim_time(k, 0.05) for k in (0, 3, 514)] == [0.0, 0.15, 25.7]
        assert sim_time(3, 0.1) == 0.3
        assert sim_time(3, np.float64(0.05)) == 0.15

    def test_a_short_flight_reads_decimal_times(self, tmp_path):
        # a slow progress ramp: three stalled steps, and the path end at step
        # 328, where 328 * 0.05 is 16.400000000000002
        cfg_file = tmp_path / "slow-hover.cfg"
        cfg_file.write_text("scenario = hover\ns_dot_max = 0.115\nnu_bound = 0.008\ntotal_time = 20\n")
        assert cli_main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "log.csv") as fh:
            stamps = [float(row["t"]) for row in csv.DictReader(fh)]
        assert stamps == [float(f"{5 * k}e-2") for k in range(len(stamps))]
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["time_to_path_end_s"] == 16.4
        assert summary["longest_stall_s"] == 0.15


# every bound and weight key of a scenario file
BOUND_AND_WEIGHT_KEYS = ("yawrate_cmd_bound", "thrust_bound", "tilt_cmd_bound", "xy_bound", "z_min", "z_max",
                         "vel_bound", "tilt_bound", "nu_bound", "s2_min", "s2_max", "s_dot_max",
                         "terminal_weight", "terminal_weight_s2", "q_diag", "r_diag")


def config_value(scenario, key, value):
    """``value`` for a scalar key; for a weight diagonal, ``value`` and then
    ones, at the scenario's length."""
    if key not in ("q_diag", "r_diag"):
        return value
    size = {"q_diag": 8, "r_diag": 5}[key] + (scenario == "sinusoid-corridor")
    return ",".join([value] + ["1"] * (size - 1))


class TestScenarioConfig:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            scenario_config("barrel-roll")

    def test_horizon_must_fit(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="hover", horizon=5, delta=0.05, total_time=0.2)

    def test_thrust_scale_range(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="spiral", thrust_scale=0.4)

    def test_negative_position_noise_rejected(self):
        with pytest.raises(ValueError, match="position_noise"):
            ScenarioConfig(scenario="hover", position_noise=-0.5)

    @pytest.mark.parametrize("position_noise", [np.inf, np.nan])
    def test_non_finite_position_noise_rejected(self, position_noise):
        # an infinite noise would build the controller, then overflow in sense()
        with pytest.raises(ValueError, match="position_noise"):
            scenario_config("hover", position_noise=position_noise)

    @pytest.mark.parametrize("mass_error", [-1.0, -1.5])
    def test_nonpositive_mass_rejected(self, mass_error):
        with pytest.raises(ValueError, match="mass_error"):
            ScenarioConfig(scenario="hover", mass_error=mass_error)

    @pytest.mark.parametrize("mass_error", [np.inf, np.nan])
    def test_non_finite_mass_error_rejected(self, mass_error):
        # an infinite mass error would fail only at the first plant step
        with pytest.raises(ValueError, match="mass_error"):
            scenario_config("hover", mass_error=mass_error)

    @pytest.mark.parametrize("key, value", [
        ("plant_substeps", 2.5), ("plant_substeps", True),
        ("horizon", 2.5), ("horizon", False),
        ("seed", 1.5), ("seed", True),
    ])
    def test_integer_fields_rejected_unless_integer(self, key, value):
        with pytest.raises(ValueError, match=key):
            scenario_config("hover", **{key: value})

    def test_load_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment\n"
            "scenario = lemniscate\n"
            "total_time = 12.5\n"
            "thrust_scale = 0.98\n"
            "sensor = fd\n"
            "mass = 0.035\n"
            "q_diag = 80,80,100,20,1,1,1,5\n"
        )
        cfg = load_config(str(cfg_file))
        assert cfg.scenario == "lemniscate"
        assert cfg.total_time == 12.5
        assert cfg.thrust_scale == 0.98
        assert cfg.sensor == "fd"
        assert cfg.mass == 0.035
        assert cfg.q_diag == (80.0, 80.0, 100.0, 20.0, 1.0, 1.0, 1.0, 5.0)

    def test_a_file_of_every_default_loads_as_the_defaults(self, tmp_path):
        # each value parsed by its field's annotation, to the annotated type
        default = ScenarioConfig()
        lines = []
        for f in dataclasses.fields(ScenarioConfig):
            value = getattr(default, f.name)
            if value is not None:
                text = ",".join(map(repr, value)) if isinstance(value, tuple) else str(value)
                lines.append(f"{f.name} = {text}\n")
        cfg_file = tmp_path / "defaults.cfg"
        cfg_file.write_text("".join(lines))
        cfg = load_config(str(cfg_file))
        assert cfg == default
        for f in dataclasses.fields(ScenarioConfig):
            assert type(getattr(cfg, f.name)) is type(getattr(default, f.name)), f.name

    def test_defaults_agree_with_the_model_and_the_horizon_problem(self):
        # ScenarioConfig restates defaults of OcpConfig and ModelParams
        _, ocp, params = build_components(ScenarioConfig())
        assert params == ModelParams()
        default = OcpConfig()
        for f in dataclasses.fields(OcpConfig):
            ours, theirs = getattr(ocp, f.name), getattr(default, f.name)
            if isinstance(theirs, np.ndarray):
                ours, theirs = ((a.dtype, a.shape, a.tobytes()) for a in (ours, theirs))
            assert ours == theirs, f.name

    def test_load_config_scenario_override_wins(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("scenario = lemniscate\ntotal_time = 12.5\n")
        cfg = load_config(str(cfg_file), scenario="hover")
        assert cfg.scenario == "hover"
        assert cfg.total_time == 12.5

    def test_load_config_rejects_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("warp_speed = 9\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config(str(cfg_file))

    @pytest.mark.parametrize("line", ["horizon = 5.0", "thrust_bound = abc", "q_diag = 1,x"])
    def test_load_config_names_the_line_of_a_bad_value(self, tmp_path, line):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"# comment\n{line}\n")
        key = line.split(" =")[0]
        with pytest.raises(ValueError, match=f"^{re.escape(str(cfg_file))}:2: bad value for '{key}'"):
            load_config(str(cfg_file))

    @pytest.mark.parametrize("total_time", [np.nan, np.inf])
    def test_non_finite_total_time_rejected(self, total_time):
        with pytest.raises(ValueError, match="total_time"):
            scenario_config("hover", total_time=total_time)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            scenario_config("hover", seed=-3)

    @pytest.mark.parametrize("scenario", ["spiral", "sinusoid-corridor"])
    @pytest.mark.parametrize("key", BOUND_AND_WEIGHT_KEYS)
    def test_nan_bound_or_weight_refused(self, tmp_path, scenario, key):
        # a NaN bound would drop its box faces, a NaN weight every solve
        cfg_file = tmp_path / "nan.cfg"
        cfg_file.write_text(f"scenario = {scenario}\n{key} = {config_value(scenario, key, 'nan')}\n")
        with pytest.raises(ValueError):
            build_components(load_config(str(cfg_file)))

    @pytest.mark.parametrize("key", ["terminal_weight", "terminal_weight_s2", "q_diag", "r_diag"])
    def test_infinite_weight_refused(self, tmp_path, key):
        cfg_file = tmp_path / "inf.cfg"
        value = config_value("sinusoid-corridor", key, "inf")
        cfg_file.write_text(f"scenario = sinusoid-corridor\n{key} = {value}\n")
        with pytest.raises(ValueError, match="finite"):
            build_components(load_config(str(cfg_file)))

    @pytest.mark.parametrize("key, value", [("xy_bound", "inf"), ("vel_bound", "inf"), ("z_min", "-inf"),
                                            ("z_max", "inf"), ("yawrate_cmd_bound", "inf"), ("nu_bound", "inf")])
    def test_infinite_bound_drops_its_faces(self, tmp_path, key, value):
        # +-inf is no bound, as for yaw by default
        cfg_file = tmp_path / "inf.cfg"
        cfg_file.write_text(f"scenario = spiral\n{key} = {value}\n")
        default = OcpStructure(*build_components(scenario_config("spiral"))).box
        box = OcpStructure(*build_components(load_config(str(cfg_file)))).box
        unbounded = [np.isinf(b.lower).sum() + np.isinf(b.upper).sum() for b in (default, box)]
        assert unbounded[1] > unbounded[0]


class TestCompareCorridor:
    def make_metrics(self, path_name, s_dot_max, t_end, **kw):
        base = dict(
            scenario="sinusoid", path_name=path_name, s_dot_max=s_dot_max,
            config_hash="x", rms_position_error=0.01, max_abs_yaw_rate=0.1,
            time_to_path_end=t_end, constraint_violation_max=0.0,
            mean_solver_iters=5.0, max_solver_iters=9, mean_solve_time_ms=10.0,
            max_solve_time_ms=20.0, failures=0, steps=100,
        )
        base.update(kw)
        return RunMetrics(**base)

    def test_reports_reduction(self):
        classic = self.make_metrics("sinusoid", 0.02, 80.0)
        corridor = self.make_metrics("sinusoid", 0.02, 60.0, max_abs_s2=1.2, terminal_abs_s2=0.05)
        report = compare_corridor(classic, corridor)
        assert report["time_reduction_s"] == pytest.approx(20.0)
        assert report["relative_reduction"] == pytest.approx(0.25)

    def test_rejects_mismatched_paths(self):
        with pytest.raises(ValueError):
            compare_corridor(self.make_metrics("spiral", 0.02, 50.0),
                             self.make_metrics("sinusoid", 0.02, 40.0))

    def test_rejects_mismatched_rate_limits(self):
        with pytest.raises(ValueError):
            compare_corridor(self.make_metrics("sinusoid", 0.02, 50.0),
                             self.make_metrics("sinusoid", 0.04, 40.0))

    def test_rejects_swapped_or_classic_only_runs(self):
        # the corridor run has an offset to report, the classic run none
        classic = self.make_metrics("sinusoid", 0.02, 80.0)
        corridor = self.make_metrics("sinusoid", 0.02, 60.0, max_abs_s2=1.2, terminal_abs_s2=0.05)
        for pair in ((corridor, classic), (classic, classic), (corridor, corridor)):
            with pytest.raises(ValueError, match="corridor offset"):
                compare_corridor(*pair)


class TestCli:
    def test_exit_code_policy(self, hover_run):
        import dataclasses
        from quadpath.cli import exit_code_for
        cfg, log, metrics = hover_run
        assert exit_code_for(metrics) == 0
        violated = dataclasses.replace(metrics, constraint_violation_max=1e-3)
        assert exit_code_for(violated) == 2
        failing = dataclasses.replace(metrics, failures=metrics.steps)
        assert exit_code_for(failing) == 3
        both = dataclasses.replace(metrics, failures=metrics.steps,
                                   constraint_violation_max=1e-3)
        assert exit_code_for(both) == 3  # failure budget outranks violations

    @staticmethod
    def write_compare_runs(tmp_path, metrics):
        """A classic and a corridor sinusoid ``summary.json`` made from one
        run's metrics; returns their two directories."""
        import dataclasses
        runs = {
            "classic": dataclasses.replace(metrics, path_name="sinusoid", time_to_path_end=80.0,
                                           max_abs_s2=None, terminal_abs_s2=None),
            "corridor": dataclasses.replace(metrics, path_name="sinusoid", time_to_path_end=60.0,
                                            max_abs_s2=0.8, terminal_abs_s2=0.01),
        }
        for name, run in runs.items():
            (tmp_path / name).mkdir()
            summarize_json(run, str(tmp_path / name / "summary.json"))
        return str(tmp_path / "classic"), str(tmp_path / "corridor")

    def test_run_and_compare_cycle(self, tmp_path, capsys):
        cfg_file = tmp_path / "tiny.cfg"
        cfg_file.write_text("scenario = hover\ntotal_time = 3.0\n")
        out_dir = tmp_path / "out"
        code = cli_main(["run", "--config", str(cfg_file), "--out", str(out_dir), "--verbose"])
        assert code == 0
        assert (out_dir / "log.csv").exists()
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "solver.log").exists()

        classic, corridor = self.write_compare_runs(
            tmp_path, metrics_from_summary(str(out_dir / "summary.json")))
        capsys.readouterr()
        assert cli_main(["compare", "--classic", classic, "--corridor", corridor]) == 0
        assert json.loads(capsys.readouterr().out)["time_reduction_s"] == 20.0
        assert cli_main(["compare", "--classic", corridor, "--corridor", classic]) == 1

    def assert_one_line_refusal(self, code, capsys, text):
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("quadpath: ") and text in err
        assert "Traceback" not in err

    def test_swapped_compare_is_one_line_not_traceback(self, hover_run, tmp_path, capsys):
        _, _, metrics = hover_run
        classic, corridor = self.write_compare_runs(tmp_path, metrics)
        code = cli_main(["compare", "--classic", corridor, "--corridor", classic])
        self.assert_one_line_refusal(code, capsys, "in that order")

    def test_unknown_config_key_is_one_line_not_traceback(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("scenario = hover\nwingspan = 3.0\n")
        code = cli_main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        self.assert_one_line_refusal(code, capsys, "unknown key 'wingspan'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", BOUND_AND_WEIGHT_KEYS)
    def test_nan_bound_or_weight_is_one_line_not_traceback(self, tmp_path, capsys, key):
        cfg_file = tmp_path / "nan.cfg"
        cfg_file.write_text(f"scenario = sinusoid-corridor\ntotal_time = 1.0\n"
                            f"{key} = {config_value('sinusoid-corridor', key, 'nan')}\n")
        code = cli_main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        self.assert_one_line_refusal(code, capsys, "")

    @pytest.mark.parametrize("text", ["scenario = sinusoid\nyawrate_cmd_bound = nan\n",
                                      "scenario = spiral\nz_min = 0.5\nz_max = 0.5\nthrust_bound = 0\n"],
                             ids=["nan-bound", "frozen-z"])
    def test_refused_config_creates_no_output(self, tmp_path, capsys, text):
        # the OcpConfig checks and the horizon problem's own run before the
        # output directory or solver.log is made
        cfg_file = tmp_path / "refused.cfg"
        cfg_file.write_text(text)
        out = tmp_path / "out"
        code = cli_main(["run", "--config", str(cfg_file), "--out", str(out), "--verbose"])
        self.assert_one_line_refusal(code, capsys, "")
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["hover", "spiral"])
    def test_run_rejects_scenario_with_config(self, tmp_path, capsys, scenario):
        # a config file names its own scenario, so --scenario beside it is
        # refused rather than ignored
        cfg_file = tmp_path / "tiny.cfg"
        cfg_file.write_text("scenario = hover\ntotal_time = 3.0\n")
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", "--config", str(cfg_file), "--scenario", scenario, "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "log.csv").exists()

    @pytest.mark.parametrize("end, text", [(25.700000000000003, "path end at 25.70 s,"),
                                           (None, "path end not reached,")])
    def test_run_prints_path_end(self, hover_run, tmp_path, monkeypatch, capsys, end, text):
        import dataclasses
        cfg, log, metrics = hover_run
        ended = dataclasses.replace(metrics, time_to_path_end=end)
        monkeypatch.setattr("quadpath.cli.run_scenario", lambda *a, **k: (log, ended))
        assert cli_main(["run", "--scenario", "hover", "--out", str(tmp_path)]) == 0
        line = capsys.readouterr().out.strip()
        assert text in line
        assert line.startswith(f"hover: {metrics.steps} steps, ")
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["time_to_path_end_s"] == end  # stored unrounded

    def test_validate_passes(self, capsys):
        assert cli_main(["validate"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines)
        assert any("integrator sensitivities" in line for line in lines)

    def test_sensitivity_check_catches_wrong_jacobian(self, monkeypatch):
        from quadpath import validate
        from quadpath.dynamics import rk4_step_with_jacobians

        def off_by_1e6(*args):
            x_next, ax, bu = rk4_step_with_jacobians(*args)
            return x_next, ax, bu + 1e-6
        monkeypatch.setattr(validate, "rk4_step_with_jacobians", off_by_1e6)
        ok, _ = validate.check_rk4_sensitivities(np.random.default_rng(7))
        assert not ok


def test_metrics_require_records():
    cfg = scenario_config("hover", total_time=3.0)
    _, ocp, _ = build_components(cfg)
    with pytest.raises(ValueError):
        compute_metrics(SimLog(cfg), ocp)
