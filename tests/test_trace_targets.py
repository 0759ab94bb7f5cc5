"""The benchmark's tracer patches quadpath names by string; a rename on the
quadpath side must fail here rather than only under ``--trace 1``."""

import importlib.util
import sys
from pathlib import Path

import quadpath.cli  # noqa: F401  (loads every module the trace names)

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
