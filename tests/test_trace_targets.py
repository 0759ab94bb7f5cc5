"""The benchmark's tracer patches quadpath names by string, and its step
probe reads the step's solve from what ``control_step`` returns; a change
on the quadpath side that breaks either must fail here rather than only
in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import quadpath.cli  # noqa: F401  (loads every module the trace names)
from quadpath import controller as controller_module
from quadpath.simulate import build_components, scenario_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_full_trace_targets_resolve(monkeypatch):
    # run.py pins the BLAS thread variables on import; restore them after
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    for target, attr, name in run.FULL_TRACE:
        assert callable(getattr(run._resolve(target), attr, None)), f"{target} {attr} ({name})"


def test_step_diagnostics_carry_the_steps_one_solve(monkeypatch):
    # the benchmark's step probe reads result[2].solve of control_step
    path, ocp, params = build_components(scenario_config("spiral"))
    controller = controller_module.PathController(path, ocp, params)
    results = []
    original = controller_module.solve

    def recorded(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]
    monkeypatch.setattr(controller_module, "solve", recorded)

    p = path.point(-1.0)
    x = np.zeros(9)
    x[:3], x[8] = p[:3], p[3]
    for step in range(2):  # the rollout solve, then a warm one
        result = controller.control_step(x)
        assert len(results) == step + 1
        assert result[2].solve is results[-1]
        controller.advance_path_state(result[1])
