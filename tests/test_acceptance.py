"""Acceptance suite: one test per criterion, printing one PASS line each.

The closed-loop scenario runs are shared through module-scoped fixtures, so
the whole module performs each flight once.  Run with ``pytest -v -s
tests/test_acceptance.py`` to see the per-criterion lines as they complete.
"""

import csv
import time

import numpy as np
import pytest

from quadpath.dynamics import ModelParams
from quadpath.paths import make_path
from quadpath.simulate import (
    compare_corridor,
    export_csv,
    run_scenario,
    scenario_config,
)
from quadpath.transcription import OcpConfig, OcpStructure, build_ocp
from quadpath.validate import (
    check_body_rates,
    check_hover,
    check_rk4_order,
    check_rotation,
    check_solver,
)

from oracles import nominal_yaw_rate, quadrature_cost, z_slice

PARAMS = ModelParams()


def timed_run(name, **overrides):
    cfg = scenario_config(name, **overrides)
    t0 = time.perf_counter()
    log, metrics = run_scenario(cfg)
    return cfg, log, metrics, time.perf_counter() - t0


@pytest.fixture(scope="module")
def spiral_run():
    return timed_run("spiral")


@pytest.fixture(scope="module")
def lemniscate_run():
    return timed_run("lemniscate")


@pytest.fixture(scope="module")
def sinusoid_run():
    return timed_run("sinusoid")


@pytest.fixture(scope="module")
def corridor_run():
    return timed_run("sinusoid-corridor")


@pytest.fixture(scope="module")
def corridor_disabled_run():
    return timed_run("sinusoid-corridor", s2_min=0.0, s2_max=0.0)


@pytest.fixture(scope="module")
def mismatch_run():
    return timed_run("spiral", thrust_scale=0.97)


def progress_rate_slow_intervals(log, s_dot_max):
    """Disjoint [start, end] intervals with the realized rate below half max."""
    zs = np.array([r.path_state for r in log.records])
    ts = np.array([r.t for r in log.records])
    slow = zs[:, 1 if not log.config.corridor else 2] < 0.5 * s_dot_max
    intervals, start = [], None
    for i, flag in enumerate(slow):
        if flag and start is None:
            start = ts[i]
        if not flag and start is not None:
            intervals.append((start, ts[i]))
            start = None
    if start is not None:
        intervals.append((start, ts[-1]))
    return [(a, b) for a, b in intervals if b - a >= 1.0]


def saturation_and_line_deviation(log, s_dot_max):
    zs = np.array([r.path_state for r in log.records])
    ts = np.array([r.t for r in log.records])
    sat = np.flatnonzero(zs[:, 1] >= 0.95 * s_dot_max)
    t_sat = ts[sat[0]] if sat.size else np.inf
    end = np.flatnonzero(zs[:, 0] >= -1e-3)
    i_end = end[0] if end.size else len(ts) - 1
    sel = slice(sat[0], i_end + 1)
    basis = np.vstack([ts[sel], np.ones_like(ts[sel])]).T
    coef, *_ = np.linalg.lstsq(basis, zs[sel, 0], rcond=None)
    deviation = float(np.max(np.abs(basis @ coef - zs[sel, 0])))
    return t_sat, deviation


def test_criterion_1_model_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    details = []
    for check in (check_rotation, check_body_rates, check_hover, check_rk4_order):
        ok, detail = check(rng)
        assert ok, detail
        details.append(detail)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1: PASS — model properties hold "
          f"({'; '.join(details)}; {elapsed:.2f}s)")


def test_criterion_2_solver_correctness():
    ok, detail = check_solver(np.random.default_rng(20))
    assert ok, detail

    # cost and constraint Jacobians vs central differences, 20 random points
    cfg = OcpConfig()
    path = make_path("spiral")
    p0 = path.point(-1.0)
    x0 = np.zeros(9)
    x0[:3] = p0[:3]
    x0[8] = p0[3]
    prob = build_ocp(x0, np.array([-1.0, cfg.s_dot_floor]), OcpStructure(path, cfg, PARAMS))
    rng = np.random.default_rng(21)
    h = 1e-6
    worst_grad = worst_jac = 0.0
    for _ in range(20):
        w = rng.uniform(-0.2, 0.2, prob.structure.n)
        for k in range(cfg.horizon + 1):
            zs = z_slice(prob, k)
            w[zs.start] = rng.uniform(-0.9, -0.1)
            w[zs.start + 1] = rng.uniform(1e-4, 0.9 * cfg.s_dot_max)
        r, _, kept = prob.evaluate(w)
        g = 2.0 * prob.jt_dot(prob.row_blocks(kept, ...), r)
        A = prob.equality_jacobian(w)
        for i in rng.choice(prob.structure.n, size=12, replace=False):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd = (quadrature_cost(prob, wp) - quadrature_cost(prob, wm)) / (2 * h)
            worst_grad = max(worst_grad, abs(g[i] - fd) / max(abs(fd), 1.0))
            col = (prob.equality(wp) - prob.equality(wm)) / (2 * h)
            worst_jac = max(worst_jac, np.max(np.abs(A[:, i] - col) / np.maximum(np.abs(col), 1.0)))
    assert worst_grad < 1e-5 and worst_jac < 1e-5
    print(f"ACCEPTANCE 2: PASS — analytic optima hit, Jacobian FD mismatch "
          f"(cost {worst_grad:.1e}, constraints {worst_jac:.1e})")


def test_criterion_3_spiral_scenario(spiral_run):
    cfg, log, metrics, wall = spiral_run
    assert metrics.time_to_path_end is not None
    assert 24.0 <= metrics.time_to_path_end <= 32.0
    t_sat, deviation = saturation_and_line_deviation(log, cfg.s_dot_max)
    assert t_sat <= 10.0
    assert deviation < 0.02
    assert metrics.rms_position_error < 0.05
    assert metrics.constraint_violation_max <= 1e-6
    assert wall < 60.0
    print(f"ACCEPTANCE 3: PASS — spiral end at {metrics.time_to_path_end:.2f}s, "
          f"rms {metrics.rms_position_error:.3f}m, line dev {deviation:.3f}, wall {wall:.0f}s")


def test_criterion_4_lemniscate_scenario(lemniscate_run):
    cfg, log, metrics, wall = lemniscate_run
    assert metrics.time_to_path_end is not None
    assert 24.0 <= metrics.time_to_path_end <= 32.0
    t_sat, deviation = saturation_and_line_deviation(log, cfg.s_dot_max)
    assert t_sat <= 10.0
    assert deviation < 0.02
    assert metrics.rms_position_error < 0.05
    terminal_error = float(np.linalg.norm(log.records[-1].error[:3]))
    assert terminal_error < 0.05
    # closed curve: start and end references coincide
    path = make_path("lemniscate")
    assert np.max(np.abs(path.point(-1.0) - path.point(0.0))) < 1e-12
    assert wall < 60.0
    print(f"ACCEPTANCE 4: PASS — lemniscate end at {metrics.time_to_path_end:.2f}s, "
          f"rms {metrics.rms_position_error:.3f}m, terminal error {terminal_error:.3f}m")


def test_criterion_5_sinusoid_scenario(sinusoid_run):
    cfg, log, metrics, wall = sinusoid_run
    assert metrics.max_abs_yaw_rate <= 0.2 + 1e-6
    intervals = progress_rate_slow_intervals(log, cfg.s_dot_max)
    assert len(intervals) >= 2
    assert nominal_yaw_rate(-0.75, 0.02) == pytest.approx(0.39478, abs=1e-4)
    spans = [f"{a:.1f}-{b:.1f}s" for a, b in intervals]
    print(f"ACCEPTANCE 5: PASS — yaw-rate max {metrics.max_abs_yaw_rate:.4f} <= 0.2, "
          f"{len(intervals)} slowdown intervals ({', '.join(spans)})")


def test_criterion_6_corridor_benefit(sinusoid_run, corridor_run, corridor_disabled_run):
    _, _, classic, _ = sinusoid_run
    _, log_c, corridor, _ = corridor_run
    _, _, disabled, _ = corridor_disabled_run
    report = compare_corridor(classic, corridor)
    assert report["relative_reduction"] >= 0.20
    assert corridor.max_abs_s2 <= 0.5 * np.pi + 1e-6
    assert corridor.terminal_abs_s2 < 0.1
    assert disabled.time_to_path_end is not None
    assert abs(disabled.time_to_path_end - classic.time_to_path_end) < 1.0
    print(f"ACCEPTANCE 6: PASS — corridor saves {report['time_reduction_s']:.1f}s "
          f"({report['relative_reduction']:.0%}), max |s2| {corridor.max_abs_s2:.2f}, "
          f"terminal |s2| {corridor.terminal_abs_s2:.3f}, "
          f"disabled-corridor timing gap {abs(disabled.time_to_path_end - classic.time_to_path_end):.2f}s")


def test_criterion_7_thrust_mismatch(spiral_run, mismatch_run):
    _, log_n, _, _ = spiral_run
    _, log_m, _, _ = mismatch_run
    mean_nominal = float(np.mean([r.error[2] for r in log_n.records]))
    mean_mismatch = float(np.mean([r.error[2] for r in log_m.records]))
    assert mean_mismatch < 0.0
    assert abs(mean_mismatch) > 3.0 * abs(mean_nominal)
    print(f"ACCEPTANCE 7: PASS — mean altitude error {mean_mismatch:.4f}m under 3% thrust "
          f"deficit vs {mean_nominal:.4f}m nominal ({abs(mean_mismatch)/abs(mean_nominal):.1f}x)")


def test_criterion_8_determinism(tmp_path):
    cfg_kwargs = dict(total_time=6.0)
    paths = []
    for i in range(2):
        cfg = scenario_config("spiral", **cfg_kwargs)
        log, _ = run_scenario(cfg)
        out = tmp_path / f"log{i}.csv"
        export_csv(log, str(out))
        paths.append(out)
    rows = []
    for p in paths:
        with open(p) as fh:
            rows.append(list(csv.reader(fh)))
    assert len(rows[0]) == len(rows[1])
    header = rows[0][0]
    skip = {header.index("solve_time_ms")}
    for ra, rb in zip(rows[0], rows[1]):
        for j, (va, vb) in enumerate(zip(ra, rb)):
            if j not in skip:
                assert va == vb
    print("ACCEPTANCE 8: PASS — reruns produce identical logs up to solve-time columns")
