"""Closed-loop control-step benchmark for quadpath.

Flies one workload through the public entry point,
``quadpath.cli.main(["run", "--config", <file>, "--out", <dir>])``, checks
the outputs, and prints a report followed by one JSON line:

    python3 perfbench/run.py --workload spiral --seed 1 --seconds 30 --trace 0

With ``--trace 0`` only ``PathController.control_step`` and the controller's
``solve`` are wrapped (the probe), and the end-to-end metrics are reported.
With ``--trace 1`` one flight with the probe alone is followed by flights that
record a span at every layer boundary, and the per-layer metrics are
reported.  The final line holds the metrics listed in ``BENCHMARK.json``; the
report above it holds all of them.  The exit code is 0 only when every check
passed.  README.md in this directory defines every metric.

The load is a closed loop with one client, the simulated plant, which waits
for each control step.  Simulated time does not follow wall time, so a slow
step counts as a deadline miss and never builds a backlog.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads (here and in the set-up children)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from measures import deadline_misses, log_digest, median, tail  # noqa: E402
from spans import Tracer, totals, write_csv  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

POSITION_NOISE = 0.002  # m; the seed drives this sensor noise
SETUP_REPEATS = 9
SETUP_REF_S = 0.025     # setup_s is the set-up time when setup_child's reference takes this
MIN_FLIGHTS = 2         # repeated flights are compared byte for byte

# Every workload is one flight configuration; its seed is the benchmark seed.
WORKLOADS = {
    # The nominal classic flight to the path end at N=5.  Model-side work
    # (RK4 sensitivities, residuals, path points) is about half a step, so a
    # change to the linearization shows here.
    "spiral": {"scenario": "spiral"},
    # N=20 gives a 562x562 dense KKT system: solver arithmetic is most of a
    # step and every step misses the period.  A structured KKT solve shows
    # here and a model-side change does not.  The full path takes a minute
    # of wall time, so the flight covers its first 4 s.
    "spiral-h20": {"scenario": "spiral", "horizon": 20, "total_time": 4.0},
    # 4-dim timing state, 2 virtual inputs, CorridorPath and an active
    # yaw-rate limit.  The full flight (1743 steps) takes about a minute of
    # wall time, too long to fly twice per run.  Its first 15 s hold every
    # long solve of its first 35 s (28 steps of 10 or more iterations at
    # seeds 1 and 3), so the tail percentile of the window falls among them.
    # README.md gives the share of the full flight's long solves it holds.
    "corridor": {"scenario": "sinusoid-corridor", "total_time": 15.0},
}

# name -> unit, for every metric the report can print
END_TO_END_UNITS = {
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "deadline_miss_rate": "ratio",
    "iters_per_step": "count",
    "failure_rate": "ratio",
    "rms_position_error_m": "m",
    "time_to_path_end_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "step_p50_ref": "ref",
    "step_tail_ref": "ref",
    "loop_mean_ref": "ref",
}

# (module, attribute, span name); each name is patched where it is looked up
PROBE_TRACE = (
    ("quadpath.controller:PathController", "control_step", "controller.control_step"),
    ("quadpath.controller", "solve", "solver.solve"),
)
FULL_TRACE = PROBE_TRACE + (
    ("quadpath.cli", "run_scenario", "simulate.run_scenario"),
    ("quadpath.cli", "export_csv", "simulate.export_csv"),
    ("quadpath.cli", "summarize_json", "simulate.summarize_json"),
    ("quadpath.simulate", "sense", "simulate.sense"),
    ("quadpath.simulate", "rk4_step", "simulate.plant_step"),
    ("quadpath.simulate", "compute_metrics", "simulate.compute_metrics"),
    ("quadpath.controller", "build_ocp", "transcription.build_ocp"),
    ("quadpath.controller", "warm_start_shift", "solver.warm_start_shift"),
    ("quadpath.transcription:OcpProblem", "residual", "transcription.residual"),
    ("quadpath.transcription:OcpProblem", "residual_jacobian", "transcription.residual_jacobian"),
    ("quadpath.transcription:OcpProblem", "equality", "transcription.equality"),
    ("quadpath.transcription:OcpProblem", "equality_jacobian", "transcription.equality_jacobian"),
    ("quadpath.transcription", "rk4_step", "dynamics.rk4_step"),
    ("quadpath.transcription", "rk4_step_with_jacobians", "dynamics.rk4_step_with_jacobians"),
    ("quadpath.paths:Path", "point", "paths.point"),
    ("quadpath.paths:Path", "derivative", "paths.derivative"),
    ("quadpath.paths:CorridorPath", "point", "paths.corridor_point"),
)


def _observe_solve(_args, kwargs, result):
    return result, kwargs.get("multipliers") is not None  # warm start


class Reference:
    """A fixed computation, independent of quadpath, timed right after each
    control step on the same thread.

    On a shared VM, while another tenant loads the sibling hardware thread,
    the same work can take 1.7 times as long (measured on a 2-vCPU VM), in
    phases of a few hundred milliseconds to minutes.  The reference slows
    with it, so a step's time over the reference time next to it stays
    steady where raw wall time does not.  Its mix mirrors a control step:
    dense solves the size of the horizon problem's KKT system and
    small-array numpy calls.
    """

    def __init__(self, kkt_size: int):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((kkt_size, kkt_size)) + 20.0 * np.eye(kkt_size)
        self.b = rng.standard_normal(kkt_size)
        self.x = rng.standard_normal((5, 9))
        self.e = np.eye(9)

    def __call__(self):
        for _ in range(2):
            y = np.linalg.solve(self.a, self.b)
        for _ in range(20):
            y = np.sin(self.x) * np.cos(self.x) + self.x @ self.e
        return y


def kkt_size(cfg) -> int:
    """Rows of the dense KKT system of one horizon problem: the decision
    vector plus the equality rows (states and timing states are pinned and
    linked stage by stage)."""
    n_z, n_nu = (4, 2) if cfg.corridor else (2, 1)
    nodes = (cfg.horizon + 1) * (9 + n_z)
    return 2 * nodes + cfg.horizon * (4 + n_nu)


def _resolve(target: str):
    module_name, _, cls = target.partition(":")
    module = sys.modules[module_name]
    return getattr(module, cls) if cls else module


@dataclass
class Flight:
    code: int
    wall: float
    spans: list
    summary: dict
    digest: str
    log_rows: int

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    @property
    def steps(self) -> int:
        return len(self.named("controller.control_step"))

    @property
    def step_seconds(self) -> list:
        return [s.duration for s in self.named("controller.control_step")]

    @property
    def ref_seconds(self) -> list:
        return [s.duration for s in self.named("bench.reference")]

    @property
    def work_wall(self) -> float:
        """Flight wall time without the reference computations."""
        return self.wall - sum(self.ref_seconds)

    @property
    def ref_brackets(self) -> list:
        """Per control step, the mean of the reference times just before and
        just after it; a step longer than the host's speed phases is then
        read against both ends."""
        r = self.ref_seconds
        return [(a + b) / 2.0 for a, b in zip(r[:1] + r[:-1], r)]

    @property
    def step_refs(self) -> list:
        """Each control step's time in reference units."""
        return [s / r for s, r in zip(self.step_seconds, self.ref_brackets)]

    @property
    def loop_refs(self) -> list:
        """Each closed-loop step (sense, control, plant, log: from one
        control step's start to the next, less the reference) in reference
        units."""
        starts = [s.start for s in self.named("controller.control_step")]
        return [(b - a - r) / ref for a, b, r, ref in
                zip(starts, starts[1:], self.ref_seconds, self.ref_brackets)]

    @property
    def iterations(self) -> int:
        return sum(s.info[0].iterations for s in self.named("solver.solve"))

    @property
    def rk4_calls(self) -> int:
        return (len(self.named("dynamics.rk4_step"))
                + len(self.named("dynamics.rk4_step_with_jacobians")))


def fly(cli, cfg_path: Path, out_dir: Path, full: bool, reference: Reference) -> Flight:
    """One flight through ``cli.main``, with the probe or the full trace."""
    tracer = Tracer("simulate.sense" if full else "controller.control_step")

    def observe_step(args, _kwargs, result):
        tracer.call("bench.reference", reference)
        return args[0], result[2].solve  # the controller and its kept attempt

    observers = {"controller.control_step": observe_step, "solver.solve": _observe_solve}
    with tracer:
        for target, attr, name in FULL_TRACE if full else PROBE_TRACE:
            tracer.wrap(_resolve(target), attr, name, observers.get(name))
        t0 = perf_counter()
        code = tracer.call("cli.main", cli.main,
                           ["run", "--config", str(cfg_path), "--out", str(out_dir)])
        wall = perf_counter() - t0
    log_text = (out_dir / "log.csv").read_text(encoding="utf-8")
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    return Flight(code, wall, tracer.spans, summary, log_digest(log_text),
                  log_text.count("\n") - 1)


def fly_for(cli, cfg_path, out_dir, seconds, full, minimum, start, reference) -> list:
    """Fly until another flight of typical length would overrun ``seconds``
    counted from ``start``, but at least ``minimum`` times."""
    flights: list = []
    while (len(flights) < minimum or
           perf_counter() - start + median([f.wall for f in flights]) <= seconds):
        flights.append(fly(cli, cfg_path, out_dir, full, reference))
    return flights


def setup_seconds(cfg_path: Path) -> tuple[float, float]:
    """Set-up time over fresh interpreters (``setup_child.py``).

    Each interpreter's set-up time is divided by the mean of the reference
    times just before and just after it, which cancels the host's speed
    phases.  Returns the median ratio times ``SETUP_REF_S``, and the median
    raw set-up time.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ratios, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, str(HERE / "setup_child.py"), str(cfg_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        before, setup, after = (float(v) for v in done.stdout.split()[-3:])
        ratios.append(setup / ((before + after) / 2.0))
        raw.append(setup)
    return SETUP_REF_S * median(ratios), median(raw)


def end_to_end(flights, setup: tuple, delta: float) -> tuple[dict, dict]:
    """All end-to-end metrics, and notes on how they were taken."""
    step_s = [t for f in flights for t in f.step_seconds]
    tails = [tail(f.step_seconds) for f in flights]
    first = flights[0]
    metrics = {
        "steps_per_s": sum(f.steps for f in flights) / sum(f.work_wall for f in flights),
        "step_ms_p50": 1e3 * median(step_s),
        "step_ms_tail": 1e3 * median([v for _, v in tails]),
        "deadline_miss_rate": deadline_misses(step_s, delta) / len(step_s),
        "iters_per_step": first.iterations / first.steps,
        "failure_rate": first.summary["failures"] / first.steps,
        "rms_position_error_m": first.summary["rms_position_error_m"],
        "time_to_path_end_s": first.summary["time_to_path_end_s"],
        "setup_s": setup[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "step_p50_ref": median([r for f in flights for r in f.step_refs]),
        "step_tail_ref": median([tail(f.step_refs)[1] for f in flights]),
        "loop_mean_ref": float(np.mean([r for f in flights for r in f.loop_refs])),
    }
    notes = {
        "tail percentile": f"p{tails[0][0]} of each flight's {first.steps} steps, "
                           f"median over {len(flights)} flights",
        "deadline misses": f"{deadline_misses(step_s, delta)} of {len(step_s)} steps "
                           f"over delta = {delta} s",
        "reference": f"median {1e3 * median([r for f in flights for r in f.ref_seconds]):.4f} ms "
                     f"after each step (host speed)",
        "set-up": f"median raw {setup[1]:.4f} s over {SETUP_REPEATS} interpreters; setup_s is "
                  f"given at a reference time of {SETUP_REF_S} s",
    }
    return metrics, notes


def layer_metrics(flight: Flight) -> dict:
    """Per-layer metrics of one traced flight (times in us unless named)."""
    t = totals(flight.spans)

    def calls(name):
        return t.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return t.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return t.get(name, (0, 0.0, 0.0))[2]

    def per_call_us(name, seconds):
        return 1e6 * seconds / calls(name) if calls(name) else 0.0

    steps, iters = flight.steps, flight.iterations
    solves = flight.named("solver.solve")
    attempts: dict = {}
    for s in solves:
        attempts.setdefault(s.parent, []).append(s.info)
    wasted = fallback = 0
    for i, span in enumerate(flight.spans):
        if span.name == "controller.control_step":
            tried = attempts.get(i, [])
            fallback += len(tried) > 1
            wasted += sum(r.iterations for r, _ in tried if r is not span.info[1])
    warm = [r for r, is_warm in (s.info for s in solves) if is_warm]
    controller = flight.named("controller.control_step")[-1].info[0]

    m = {
        "solver.self_us_per_iter": 1e6 * own("solver.solve") / iters,
        "solver.solve_calls": len(solves),
        "solver.iterations": iters,
        "solver.converged_ratio": sum(s.info[0].status == "converged" for s in solves) / len(solves),
        "solver.evals_per_iter": calls("transcription.equality") / iters,
        "solver.linearizations_per_iter": calls("transcription.equality_jacobian") / iters,
        "solver.warm_start_shift_us": per_call_us("solver.warm_start_shift",
                                                  incl("solver.warm_start_shift")),
    }
    for fn in ("residual", "residual_jacobian", "equality", "equality_jacobian"):
        name = f"transcription.{fn}"
        m[f"{name}_calls"] = calls(name)
        m[f"{name}_self_us"] = per_call_us(name, own(name))
    m["transcription.linearize_us_per_iter"] = 1e6 * (
        incl("transcription.residual_jacobian") + incl("transcription.equality_jacobian")) / iters
    m["transcription.build_ocp_us"] = per_call_us("transcription.build_ocp",
                                                  incl("transcription.build_ocp"))
    for name in ("dynamics.rk4_step", "dynamics.rk4_step_with_jacobians",
                 "paths.point", "paths.derivative", "paths.corridor_point"):
        m[f"{name}_calls"] = calls(name)
        m[f"{name}_us"] = per_call_us(name, incl(name))
    m["dynamics.rk4_per_iter"] = flight.rk4_calls / iters
    m.update({
        "controller.self_us": 1e6 * own("controller.control_step") / steps,
        "controller.solve_attempts_per_step": len(solves) / steps,
        "controller.fallback_steps": fallback,
        "controller.warm_converged_ratio": (sum(r.status == "converged" for r in warm) / len(warm)
                                            if warm else 0.0),
        "controller.wasted_iter_ratio": wasted / iters,
        "controller.clamp_events": len(controller.clamp_log),
        "simulate.plant_step_us": per_call_us("simulate.plant_step", incl("simulate.plant_step")),
        "simulate.sense_us": per_call_us("simulate.sense", incl("simulate.sense")),
        "simulate.loop_self_us": 1e6 * own("simulate.run_scenario") / steps,
        "simulate.compute_metrics_ms": 1e3 * incl("simulate.compute_metrics"),
        "simulate.export_ms": 1e3 * (incl("simulate.export_csv") + incl("simulate.summarize_json")),
        "cli.run_self_ms": 1e3 * own("cli.main"),
    })
    return m


# metrics of a traced flight that must repeat exactly
EXACT_LAYER = ("solver.solve_calls", "solver.iterations", "dynamics.rk4_per_iter",
               "transcription.equality_calls", "controller.clamp_events")


def layer_units(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us") or name.endswith("_us_per_iter"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def checks_for(flights, full_length: bool) -> list:
    """``(name, ok)`` pairs of the correctness gate over repeated flights of
    one workload and seed."""
    out = []
    for i, f in enumerate(flights):
        out.append((f"flight {i} exits 0 through exit_code_for", f.code == 0))
        out.append((f"flight {i} logs one row per control step",
                    f.log_rows == f.steps == f.summary["steps"]))
        if full_length:
            out.append((f"flight {i} reaches the path end",
                        f.summary["time_to_path_end_s"] is not None))
    out.append(("log.csv identical across flights (solve_time_ms aside)",
                len({f.digest for f in flights}) == 1))
    out.append(("iterations identical across flights", len({f.iterations for f in flights}) == 1))
    return out


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_id = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def cpu_ticks():
    """``(steal, total)`` jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]), sum(int(v) for v in fields[1:])
    except (OSError, IndexError, ValueError):
        return None


def steal_note(before, after) -> str:
    if before is None or after is None:
        return "steal: /proc/stat unavailable"
    steal, total = after[0] - before[0], after[1] - before[1]
    return f"steal: {steal} of {total} CPU ticks ({100.0 * steal / max(total, 1):.2f}%)"


def write_config(path: Path, workload: str, seed: int) -> None:
    values = dict(WORKLOADS[workload], seed=seed, position_noise=POSITION_NOISE)
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "quadpath" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no quadpath sources under {SRC} (or no BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import quadpath
    from quadpath import cli
    from quadpath.simulate import load_config
    if Path(quadpath.__file__).resolve().parent != SRC / "quadpath":
        print(f"quadpath imported from {quadpath.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = out_dir / "flight.cfg"
    write_config(cfg_path, args.workload, args.seed)
    cfg = load_config(str(cfg_path))
    full_length = "total_time" not in WORKLOADS[args.workload]
    env = environment()
    ticks0 = cpu_ticks()

    flight_dir = out_dir / "flight"
    reference = Reference(kkt_size(cfg))
    if args.trace:
        start = perf_counter()
        base = fly(cli, cfg_path, flight_dir, False, reference)
        traced = fly_for(cli, cfg_path, flight_dir, args.seconds, True, MIN_FLIGHTS, start,
                         reference)
        checks = checks_for([base] + traced, full_length)
        per_flight = [layer_metrics(f) for f in traced]
        metrics = {k: median([p[k] for p in per_flight]) for k in per_flight[0]}
        traced_loop = float(np.mean([r for f in traced for r in f.loop_refs]))
        metrics["trace.slowdown_ratio"] = traced_loop / float(np.mean(base.loop_refs))
        for k in EXACT_LAYER:
            checks.append((f"{k} identical across traced flights",
                           len({p[k] for p in per_flight}) == 1))
        checks.append(("traced solver.iterations equal the untraced count",
                        metrics["solver.iterations"] == base.iterations))
        flights, units = [base] + traced, {k: layer_units(k) for k in metrics}
        notes = {"tracing overhead": f"untraced {base.steps / base.work_wall:.2f} steps/s, traced "
                                     f"{median([f.steps / f.work_wall for f in traced]):.2f} "
                                     f"steps/s over {len(traced)} traced flights; closed-loop "
                                     f"step in reference units {np.mean(base.loop_refs):.4g} "
                                     f"untraced, {traced_loop:.4g} traced"}
        for i, f in enumerate(traced):
            write_csv(f.spans, str(out_dir / f"spans-seed{args.seed}-flight{i}.csv"))
        selected = spec["per_layer"]
    else:
        setup = setup_seconds(cfg_path)
        flights = fly_for(cli, cfg_path, flight_dir, args.seconds, False, MIN_FLIGHTS,
                          perf_counter(), reference)
        checks = checks_for(flights, full_length)
        metrics, notes = end_to_end(flights, setup, cfg.delta)
        units = END_TO_END_UNITS
        selected = spec["end_to_end"]
    ticks1 = cpu_ticks()

    correct = all(ok for _, ok in checks)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(flights)} flights")
    print("env: " + json.dumps(env))
    print(steal_note(ticks0, ticks1))
    for key, note in notes.items():
        print(f"{key}: {note}")
    for name, value in metrics.items():
        shown = "omitted (flight ends before the path end)" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown} {units[name]}")
    for name, ok in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")

    result = {}
    for entry in selected:
        name = entry["name"]
        if units.get(name) != entry["unit"] or metrics.get(name) is None:
            print(f"BENCHMARK.json metric {name} [{entry['unit']}] is not measured",
                  file=sys.stderr)
            return 2
        result[name] = {"value": metrics[name], "unit": entry["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(f.steps for f in flights),
        "failed": sum(f.summary["failures"] for f in flights),
        "metrics": result,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
