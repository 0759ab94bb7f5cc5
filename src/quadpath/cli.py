"""Command-line entry points: run a scenario, compare runs, validate."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import validate as validation
from .simulate import (
    SCENARIOS,
    build_components,
    compare_corridor,
    export_csv,
    load_config,
    metrics_from_summary,
    run_scenario,
    scenario_config,
    summarize_json,
)
from .transcription import OcpStructure

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONSTRAINT_VIOLATION = 2
EXIT_SOLVER_BUDGET = 3

VIOLATION_LIMIT = 1e-6
FAILURE_BUDGET = 0.05


def exit_code_for(metrics) -> int:
    """Exit-code policy: solver-failure budget first, then box violations."""
    if metrics.failures > FAILURE_BUDGET * metrics.steps:
        return EXIT_SOLVER_BUDGET
    if metrics.constraint_violation_max > VIOLATION_LIMIT:
        return EXIT_CONSTRAINT_VIOLATION
    return EXIT_OK


def _cmd_run(args) -> int:
    overrides = {}
    if args.thrust_scale is not None:
        overrides["thrust_scale"] = args.thrust_scale
    if args.sensor is not None:
        overrides["sensor"] = args.sensor
    if args.config:
        cfg = load_config(args.config, **overrides)
    else:
        cfg = scenario_config(args.scenario or "spiral", **overrides)

    # the horizon problem's checks run before anything is created, so a
    # refused config leaves no output behind
    OcpStructure(*build_components(cfg))
    os.makedirs(args.out, exist_ok=True)
    solver_log = None
    if args.verbose:
        solver_log = open(os.path.join(args.out, "solver.log"), "w", encoding="utf-8")
    try:
        log, metrics = run_scenario(cfg, solver_log=solver_log)
    finally:
        if solver_log is not None:
            solver_log.close()

    export_csv(log, os.path.join(args.out, "log.csv"))
    summarize_json(metrics, os.path.join(args.out, "summary.json"))
    end = metrics.time_to_path_end
    print(f"{cfg.scenario}: {metrics.steps} steps, "
          f"rms position error {metrics.rms_position_error:.4f} m, "
          + ("path end not reached, " if end is None else f"path end at {end:.2f} s, ")
          + f"{metrics.failures} solver failures")

    code = exit_code_for(metrics)
    if code == EXIT_SOLVER_BUDGET:
        print("solver-failure budget exceeded", file=sys.stderr)
    elif code == EXIT_CONSTRAINT_VIOLATION:
        print("constraint violation detected", file=sys.stderr)
    return code


def _cmd_compare(args) -> int:
    classic = metrics_from_summary(os.path.join(args.classic, "summary.json"))
    corridor = metrics_from_summary(os.path.join(args.corridor, "summary.json"))
    report = compare_corridor(classic, corridor)
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _cmd_validate(_args) -> int:
    failures = validation.run_all(print)
    return EXIT_OK if failures == 0 else EXIT_FAILURE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="quadpath",
                                     description="quadrotor path-following simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one closed-loop scenario")
    source = run_p.add_mutually_exclusive_group()
    source.add_argument("--scenario", choices=SCENARIOS, help="scenario defaults by name (spiral)")
    source.add_argument("--config", help="flat key=value scenario file")
    run_p.add_argument("--out", default="out", help="output directory")
    run_p.add_argument("--thrust-scale", type=float, dest="thrust_scale")
    run_p.add_argument("--sensor", choices=("exact", "fd"))
    run_p.add_argument("--verbose", action="store_true")
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="compare classic vs corridor runs")
    cmp_p.add_argument("--classic", required=True, help="directory of the classic run")
    cmp_p.add_argument("--corridor", required=True, help="directory of the corridor run")
    cmp_p.set_defaults(func=_cmd_compare)

    val_p = sub.add_parser("validate", help="run the built-in invariant checks")
    val_p.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # a refused input (a bad config file, runs compared in the wrong
        # order) is one line, not a traceback
        print(f"quadpath: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
