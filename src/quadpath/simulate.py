"""Closed-loop simulation harness: scenarios, plant, sensing, logs, metrics.

The plant is the same model the controller predicts with, integrated at a
finer RK4 substep, optionally with a multiplicative error on the generated
thrust and an offset on the plant mass to emulate model mismatch.  Scenario
definitions mirror the three flight experiments (spiral, lemniscate,
sinusoid with a yaw-rate limit) plus the corridor variant and a degenerate
hover scenario.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from decimal import Decimal
from typing import Optional

import numpy as np

from .controller import PathController
from .dynamics import ModelParams, output_map, rk4_step
from .paths import PATH_NAMES, make_path, path_error
from .transcription import OcpConfig

# a scenario flies the path of the same name
SCENARIOS = PATH_NAMES

PATH_END_THRESHOLD = -1e-3   # progress value treated as "path end reached"
SETTLE_ERROR = 0.02          # output-error norm required while settling
SETTLE_TIME = 1.0            # seconds the settle condition must hold
SETTLE_S2 = 0.08             # corridor runs also need the offset unwound
STALL_RATE = 1e-3            # progress rate under which a step counts as stalled
FD_WINDOW = 5                # position differences the fd sensor averages


@dataclass
class ScenarioConfig:
    scenario: str = "spiral"
    s_dot_max: float = 0.04
    horizon: int = 5
    delta: float = 0.05
    total_time: float = 40.0
    thrust_scale: float = 1.0
    mass_error: float = 0.0
    sensor: str = "exact"           # "exact" | "fd"
    plant_substeps: int = 5
    seed: int = 0
    position_noise: float = 0.0     # uniform +-noise on sensed position, meters
    yawrate_cmd_bound: float = 0.5
    thrust_bound: float = 0.15
    tilt_cmd_bound: float = 0.35
    xy_bound: float = 1.5
    z_min: float = 0.05
    z_max: float = 1.2
    vel_bound: float = 1.0
    tilt_bound: float = 0.35
    nu_bound: float = 0.05
    s2_min: float = -0.5 * math.pi
    s2_max: float = 0.5 * math.pi
    q_diag: Optional[tuple] = None
    r_diag: Optional[tuple] = None
    terminal_weight: float = 50.0
    terminal_weight_s2: float = 5.0
    mass: float = 0.033
    gravity: float = 9.81
    tau_roll: float = 0.2
    tau_pitch: float = 0.2

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        for name in (f.name for f in fields(self) if f.type == "int"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not np.isfinite(self.total_time):
            raise ValueError("total_time must be finite")
        if self.horizon * self.delta > self.total_time:
            raise ValueError("horizon must fit inside the total simulation time")
        if not (0.5 < self.thrust_scale < 1.5):
            raise ValueError("thrust_scale must lie in (0.5, 1.5)")
        if self.sensor not in ("exact", "fd"):
            raise ValueError("sensor must be 'exact' or 'fd'")
        if self.plant_substeps < 1:
            raise ValueError("plant_substeps must be at least 1")
        if not 0.0 <= self.position_noise < np.inf:
            raise ValueError("position_noise must be nonnegative and finite")
        if not -1.0 < self.mass_error < np.inf:
            raise ValueError("mass_error must be finite and greater than -1 (the plant mass must stay positive)")

    @property
    def corridor(self) -> bool:
        return self.scenario == "sinusoid-corridor"

    def config_hash(self) -> str:
        payload = repr(sorted(asdict(self).items())).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


# the sinusoid scenarios weight yaw error and yaw-rate usage more heavily:
# the tangential-yaw reference makes progress trade off directly against
# yaw tracking, which the default weighting undervalues
_SINUSOID_Q = (80.0, 80.0, 100.0, 200.0, 1.0, 1.0, 1.0, 5.0)
_SINUSOID_R = (20.0, 10.0, 10.0, 30.0, 2.0)

# departures from the ScenarioConfig defaults, by scenario
_SCENARIO_DEFAULTS = {
    "sinusoid": dict(s_dot_max=0.02, total_time=120.0, yawrate_cmd_bound=0.2,
                     q_diag=_SINUSOID_Q, r_diag=_SINUSOID_R),
    "sinusoid-corridor": dict(s_dot_max=0.02, total_time=100.0, yawrate_cmd_bound=0.2,
                              q_diag=_SINUSOID_Q + (2.0,), r_diag=_SINUSOID_R + (0.5,),
                              terminal_weight_s2=1.0),
    "hover": dict(total_time=30.0),
}


def scenario_config(name: str, **overrides) -> ScenarioConfig:
    """Scenario defaults by name, with keyword overrides."""
    kwargs = dict(_SCENARIO_DEFAULTS.get(name, {}))
    kwargs.update(overrides)
    return ScenarioConfig(scenario=name, **kwargs)


# a scenario-file value's parser, by its field's annotation; a field whose
# annotation is missing here fails at import
_PARSERS = {"str": str, "int": int, "float": float,
            "Optional[tuple]": lambda val: tuple(float(v) for v in val.split(","))}
_CONFIG_PARSERS = {f.name: _PARSERS[f.type] for f in fields(ScenarioConfig)}


def load_config(path: str, **overrides) -> ScenarioConfig:
    """Read a flat ``key = value`` scenario file ('#' starts a comment);
    keyword overrides, ``scenario`` included, win over the file."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read scenario file {path}: {exc.strerror}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_PARSERS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](val)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    values.update(overrides)
    name = values.pop("scenario", "spiral")
    return scenario_config(name, **values)


def build_components(cfg: ScenarioConfig):
    """Path, OCP configuration and model parameters for a scenario."""
    path = make_path(cfg.scenario)
    params = ModelParams(cfg.mass, cfg.gravity, cfg.tau_roll, cfg.tau_pitch)
    input_bound = np.array([cfg.thrust_bound, cfg.tilt_cmd_bound,
                            cfg.tilt_cmd_bound, cfg.yawrate_cmd_bound])
    state_upper = np.array([cfg.xy_bound, cfg.xy_bound, cfg.z_max,
                            cfg.vel_bound, cfg.vel_bound, cfg.vel_bound,
                            cfg.tilt_bound, cfg.tilt_bound, np.inf])
    state_lower = -state_upper.copy()
    state_lower[2] = cfg.z_min
    ocp = OcpConfig(
        horizon=cfg.horizon,
        delta=cfg.delta,
        corridor=cfg.corridor,
        q_weight=np.asarray(cfg.q_diag, dtype=float) if cfg.q_diag else None,
        r_weight=np.asarray(cfg.r_diag, dtype=float) if cfg.r_diag else None,
        terminal_weight=cfg.terminal_weight,
        terminal_weight_s2=cfg.terminal_weight_s2,
        state_lower=state_lower,
        state_upper=state_upper,
        input_lower=-input_bound,
        input_upper=input_bound,
        s_dot_max=cfg.s_dot_max,
        s2_bounds=(cfg.s2_min, cfg.s2_max),
        nu_bound=cfg.nu_bound,
    )
    return path, ocp, params


@dataclass
class StepRecord:
    t: float
    state: np.ndarray
    inp: np.ndarray
    nu: np.ndarray
    path_state: np.ndarray
    reference: np.ndarray
    error: np.ndarray
    solve_iterations: int
    solve_time_ms: float
    status: str
    prepare_time_ms: float = 0.0


@dataclass
class SimLog:
    """The records of one flight and the configuration it flew; the
    scenario, control period and corridor mode are read from ``config``."""

    config: ScenarioConfig
    records: list = field(default_factory=list)


@dataclass
class RunMetrics:
    scenario: str
    path_name: str
    s_dot_max: float
    config_hash: str
    rms_position_error: float
    max_abs_yaw_rate: float
    time_to_path_end: Optional[float]
    constraint_violation_max: float
    mean_solver_iters: float
    max_solver_iters: int
    mean_solve_time_ms: float
    max_solve_time_ms: float
    failures: int
    steps: int
    max_abs_s2: Optional[float] = None
    terminal_abs_s2: Optional[float] = None
    longest_stall_s: Optional[float] = None
    prepare_time_ms_p50: Optional[float] = None
    prepare_time_ms_max: Optional[float] = None
    solve_time_ms_p50: Optional[float] = None
    solve_time_ms_p99: Optional[float] = None
    deadline_misses: Optional[int] = None
    total_solver_iters: Optional[int] = None
    period_time_ms_p50: Optional[float] = None
    period_time_ms_p99: Optional[float] = None


def sense(plant_state, position_history, cfg: ScenarioConfig, rng=None):
    """Measurement model.

    Exact mode returns the plant state.  Finite-difference mode replaces the
    velocity by consecutive-position differences smoothed with a moving
    average over the last ``FD_WINDOW`` differences, so only the last
    ``FD_WINDOW`` past positions are read; with no prior position it falls
    back to the exact velocity (warm-up).  Optional uniform position noise
    is for robustness experiments only.
    """
    measured = np.array(plant_state, dtype=float)
    if cfg.position_noise > 0.0 and rng is not None:
        measured[0:3] += rng.uniform(-cfg.position_noise, cfg.position_noise, 3)
    if cfg.sensor != "fd" or len(position_history) < 1:
        return measured
    positions = list(position_history[-FD_WINDOW:]) + [measured[0:3]]
    diffs = np.diff(np.asarray(positions), axis=0) / cfg.delta
    measured[3:6] = diffs.mean(axis=0)
    return measured


def _plant_step(state, inp, cfg: ScenarioConfig, params: ModelParams,
                plant_params: ModelParams) -> np.ndarray:
    """Integrate the plant over one control interval.

    Thrust generation errors scale the commanded total thrust; the commanded
    hover feed-forward always uses the controller's mass model (``params``),
    while the plant accelerates its own (possibly offset) mass
    (``plant_params``, :func:`run_scenario` builds it once per flight).
    """
    thrust_total = cfg.thrust_scale * (inp[0] + params.mass * params.gravity)
    u_eff = np.array(inp, dtype=float)
    u_eff[0] = thrust_total - plant_params.mass * plant_params.gravity
    return rk4_step(state, u_eff, cfg.delta, plant_params, substeps=cfg.plant_substeps)


def sim_time(k: int, delta: float) -> float:
    """The simulated time of step ``k``, or of ``k`` steps: ``k`` periods of
    ``delta`` counted in decimal and rounded once, so step 3 at 0.05 s is
    0.15, where ``3 * 0.05`` is 0.15000000000000002."""
    return float(k * Decimal(repr(float(delta))))


def run_scenario(cfg: ScenarioConfig, solver_log=None) -> tuple[SimLog, RunMetrics]:
    """Run the closed loop until the time budget or settled path end."""
    path, ocp, params = build_components(cfg)
    controller = PathController(path, ocp, params, solver_log=solver_log)
    plant_params = ModelParams(params.mass * (1.0 + cfg.mass_error), params.gravity,
                               params.tau_roll, params.tau_pitch)
    rng = np.random.default_rng(cfg.seed)

    # the path point at the timing state's positions: progress (and offset)
    p0 = path.point(*controller.path_state[:ocp.n_z // 2])
    state = np.zeros(9)
    state[0:3] = p0[0:3]
    state[8] = p0[3]

    log = SimLog(cfg)
    position_history: list[np.ndarray] = []
    settle_needed = int(math.ceil(SETTLE_TIME / cfg.delta))
    settled = 0
    n_steps = int(round(cfg.total_time / cfg.delta))

    for k in range(n_steps):
        t = sim_time(k, cfg.delta)
        measured = sense(state, position_history, cfg, rng)
        inp, nu, diag = controller.control_step(measured)
        z_now = controller.path_state.copy()  # after the feasible-pin guards
        ref = path.point(*z_now[:ocp.n_z // 2])
        err = path_error(output_map(state), ref)
        log.records.append(StepRecord(
            t=t, state=state.copy(), inp=inp, nu=nu, path_state=z_now,
            reference=ref, error=err,
            solve_iterations=diag.solve.iterations,
            solve_time_ms=1e3 * diag.solve.solve_time,
            status=diag.solve.status,
            prepare_time_ms=1e3 * diag.solve.prepare_time,
        ))
        position_history.append(measured[0:3].copy())
        del position_history[:-FD_WINDOW]
        state = _plant_step(state, inp, cfg, params, plant_params)
        if not np.all(np.isfinite(state)):
            raise RuntimeError(f"plant state became non-finite at t={t:.3f}s")
        controller.advance_path_state(nu)

        done = controller.path_state[0] >= PATH_END_THRESHOLD and np.linalg.norm(err) < SETTLE_ERROR
        if cfg.corridor:
            # at the true path end the corridor offset must have unwound too
            done = done and abs(controller.path_state[1]) < SETTLE_S2
        settled = settled + 1 if done else 0
        if settled >= settle_needed or k + 1 == n_steps:
            break

    metrics = compute_metrics(log, ocp)
    return log, metrics


def compute_metrics(log: SimLog, ocp: OcpConfig) -> RunMetrics:
    if not log.records:
        raise ValueError("cannot summarize an empty run")
    cfg = log.config
    errors = np.array([r.error for r in log.records])
    states = np.array([r.state for r in log.records])
    inputs = np.array([r.inp for r in log.records])
    zs = np.array([r.path_state for r in log.records])
    nus = np.array([r.nu for r in log.records])

    rms_pos = float(np.sqrt(np.mean(np.sum(errors[:, 0:3] ** 2, axis=1))))
    max_yaw_rate = float(np.max(np.abs(inputs[:, 3])))

    t_end = None
    reached = np.flatnonzero(zs[:, 0] >= PATH_END_THRESHOLD)
    if reached.size:
        t_end = float(log.records[reached[0]].t)
    # the longest run of consecutive steps under the stall rate, before the path end
    longest = run = 0
    for slow in zs[:reached[0] if reached.size else len(zs), ocp.n_z // 2] < STALL_RATE:
        run = run + 1 if slow else 0
        longest = max(longest, run)

    zlo, zhi = ocp.z_bounds()
    vlo, vhi = ocp.nu_bounds()
    violation = 0.0
    for values, lo, hi in (
        (states, ocp.state_lower, ocp.state_upper),
        (inputs, ocp.input_lower, ocp.input_upper),
        (zs, zlo, zhi),
        (nus, vlo, vhi),
    ):
        over = np.maximum(values - hi, 0.0)
        under = np.maximum(lo - values, 0.0)
        finite = np.isfinite(over) & np.isfinite(under)
        worst = np.maximum(over, under)[finite]
        if worst.size:
            violation = max(violation, float(np.max(worst)))

    iters = np.array([r.solve_iterations for r in log.records])
    times = np.array([r.solve_time_ms for r in log.records])
    prepare_times = np.array([r.prepare_time_ms for r in log.records])
    # a step's period: its preparation, then its feedback
    periods = prepare_times + times
    failures = sum(1 for r in log.records if r.status != "converged")

    max_s2 = terminal_s2 = None
    if cfg.corridor:
        max_s2 = float(np.max(np.abs(zs[:, 1])))
        terminal_s2 = float(abs(zs[-1, 1]))

    return RunMetrics(
        scenario=cfg.scenario,
        path_name=cfg.scenario.removesuffix("-corridor"),
        s_dot_max=cfg.s_dot_max,
        config_hash=cfg.config_hash(),
        rms_position_error=rms_pos,
        max_abs_yaw_rate=max_yaw_rate,
        time_to_path_end=t_end,
        constraint_violation_max=violation,
        mean_solver_iters=float(np.mean(iters)),
        max_solver_iters=int(np.max(iters)),
        mean_solve_time_ms=float(np.mean(times)),
        max_solve_time_ms=float(np.max(times)),
        failures=failures,
        steps=len(log.records),
        max_abs_s2=max_s2,
        terminal_abs_s2=terminal_s2,
        longest_stall_s=sim_time(longest, cfg.delta),
        prepare_time_ms_p50=float(np.median(prepare_times)),
        prepare_time_ms_max=float(np.max(prepare_times)),
        solve_time_ms_p50=float(np.median(times)),
        solve_time_ms_p99=float(np.percentile(times, 99)),
        deadline_misses=int(np.sum(times > 1e3 * cfg.delta)),
        total_solver_iters=int(np.sum(iters)),
        period_time_ms_p50=float(np.median(periods)),
        period_time_ms_p99=float(np.percentile(periods, 99)),
    )


def compare_corridor(classic: RunMetrics, corridor: RunMetrics) -> dict:
    """Timing benefit of the corridor run over the classic run."""
    if classic.path_name != "sinusoid" or corridor.path_name != "sinusoid":
        raise ValueError("comparison requires two sinusoid-path runs")
    if classic.s_dot_max != corridor.s_dot_max:
        raise ValueError("comparison requires identical progress-rate limits")
    if classic.time_to_path_end is None or corridor.time_to_path_end is None:
        raise ValueError("both runs must reach the path end")
    if classic.max_abs_s2 is not None or corridor.max_abs_s2 is None:
        raise ValueError("comparison requires a classic run, with no corridor offset, and a corridor run, "
                         "with one, in that order")
    reduction = classic.time_to_path_end - corridor.time_to_path_end
    return {
        "classic_time_s": classic.time_to_path_end,
        "corridor_time_s": corridor.time_to_path_end,
        "time_reduction_s": reduction,
        "relative_reduction": reduction / classic.time_to_path_end,
        "max_abs_s2": corridor.max_abs_s2,
        "terminal_abs_s2": corridor.terminal_abs_s2,
    }


CSV_HEADER = (
    "t,x,y,z,vx,vy,vz,roll,pitch,yaw,dT,roll_cmd,pitch_cmd,yawrate_cmd,"
    "s1,s1dot,s2,s2dot,nu1,nu2,px,py,pz,pyaw,ex,ey,ez,eyaw,"
    "solve_iters,solve_time_ms,status"
)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def export_csv(log: SimLog, path: str) -> None:
    """One header row, then one row per step; corridor-only columns are left
    empty on classic runs; floats carry 17 significant digits."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER.split(","))
            for r in log.records:
                if log.config.corridor:
                    s2, s2dot, nu2 = _fmt(r.path_state[1]), _fmt(r.path_state[3]), _fmt(r.nu[1])
                    s1dot = _fmt(r.path_state[2])
                else:
                    s2 = s2dot = nu2 = ""
                    s1dot = _fmt(r.path_state[1])
                row = (
                    [_fmt(r.t)] + [_fmt(v) for v in r.state] + [_fmt(v) for v in r.inp]
                    + [_fmt(r.path_state[0]), s1dot, s2, s2dot, _fmt(r.nu[0]), nu2]
                    + [_fmt(v) for v in r.reference] + [_fmt(v) for v in r.error]
                    + [str(r.solve_iterations), _fmt(r.solve_time_ms), r.status]
                )
                writer.writerow(row)
    except OSError as exc:
        raise OSError(f"failed to write log to {path!r}: {exc}") from exc


# summary.json holds RunMetrics' fields in order, under their own names but these
_RENAMED = {"path_name": "path", "rms_position_error": "rms_position_error_m",
            "max_abs_yaw_rate": "max_abs_yaw_rate_rad_s", "time_to_path_end": "time_to_path_end_s"}
# RunMetrics field -> summary.json key, in the order of the file
_JSON_KEYS = tuple((f.name, _RENAMED.get(f.name, f.name)) for f in fields(RunMetrics))
# the keys from longest_stall_s on were appended: older summaries lack them
_FIRST_APPENDED = [name for name, _ in _JSON_KEYS].index("longest_stall_s")


def summarize_json(metrics: RunMetrics, path: str) -> None:
    """Flat JSON summary of a completed run."""
    if metrics.steps == 0:
        raise ValueError("refusing to summarize an empty run")
    doc = {key: getattr(metrics, name) for name, key in _JSON_KEYS}
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed to write summary to {path!r}: {exc}") from exc


def metrics_from_summary(path: str) -> RunMetrics:
    """Rebuild RunMetrics from an exported summary (for the compare CLI);
    an unreadable or incomplete one is a ``ValueError`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read summary {path}: {exc.strerror}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"summary {path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"summary {path} is not a JSON object")
    missing = [key for _, key in _JSON_KEYS[:_FIRST_APPENDED] if key not in doc]
    if missing:
        raise ValueError(f"summary {path} lacks {', '.join(map(repr, missing))}")
    return RunMetrics(**{name: doc[key] for name, key in _JSON_KEYS[:_FIRST_APPENDED]},
                      **{name: doc.get(key) for name, key in _JSON_KEYS[_FIRST_APPENDED:]})
