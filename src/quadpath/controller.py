"""Receding-horizon path-following controller.

Each control step builds the horizon NLP pinned at the measured state and
the controller's own timing state, on the constant structure the controller
built once, and runs one solve: from the input rollout on the first step,
from the shifted previous solution on every later one.  A solve that does
not converge is not retried: its returned iterate is applied and kept as
the next warm start, and the step is flagged as a failure.  That iterate is
the shifted plan or a point the merit line search accepted over it, and the
fraction-to-boundary rule keeps it inside the box.  The step applies the
first input interval and advances the timing state in closed form with the
first virtual input.
Advancing the controller copy of the timing state by the applied virtual
input, instead of reading back the solver prediction, keeps the plant-side
and controller-side progress consistent even when a solve fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import ModelParams
from .paths import step_timing
from .solver import (
    CONVERGED,
    SolveResult,
    solve,
    warm_start_shift,
)
from .transcription import OcpConfig, OcpStructure, build_ocp


@dataclass
class ControlDiagnostics:
    solve: SolveResult
    failure: bool
    clamp_events: list = field(default_factory=list)


class PathController:
    """Owns the timing-law state, the solver instance and the warm start.

    One controller drives one simulation; instances are not shareable
    across concurrent runs.
    """

    def __init__(self, path, config: OcpConfig, params: ModelParams, solver_log=None):
        # the path, model, layout, constant blocks and box every control
        # step shares
        self.structure = OcpStructure(path, config, params)
        self.path = path
        self.config = config
        self.solver_log = solver_log
        if config.corridor:
            self.path_state = np.array([-1.0, 0.0, config.s_dot_floor, 0.0])
        else:
            self.path_state = np.array([-1.0, config.s_dot_floor])
        self.last_solution: Optional[SolveResult] = None
        self.clamp_log: list[str] = []

    def control_step(self, measured):
        """Solve the horizon problem at the measured state; return the first
        physical input, the first virtual input and diagnostics."""
        measured = np.asarray(measured, dtype=float)
        if not np.all(np.isfinite(measured)):
            raise ValueError("measured state must be finite")

        z_pin = self._feasible_pin()
        problem = build_ocp(measured, z_pin, self.structure)
        events = list(problem.clamp_events)
        self.clamp_log.extend(events)

        if self.last_solution is None:
            result = solve(problem, problem.rollout(), log=self.solver_log)
        else:
            guess = warm_start_shift(self.last_solution, problem)
            result = solve(problem, guess, multipliers=self.last_solution.multipliers, log=self.solver_log)

        _, U, _, V = problem.unpack(result.decision)
        self.last_solution = result
        diag = ControlDiagnostics(solve=result, failure=result.status != CONVERGED, clamp_events=events)
        return U[0].copy(), V[0].copy(), diag

    def _feasible_pin(self) -> np.ndarray:
        """Progress state to pin the horizon problem at.

        Two guards keep the pinned chain able to respect s <= 0 together
        with the strictly positive rate floor.  The stored rate is capped by
        the remaining-path budget ``-s / (N * delta)`` (above it, every
        in-horizon progress profile overruns the path end), which brakes the
        chain geometrically near the end.  The pinned progress additionally
        holds two floor-drift lengths short of zero, because at the floor the
        chain must still advance by ``floor * N * delta``; the stored
        progress keeps creeping to exactly zero per the admissible-box
        clamp.  Both guards are logged when they bind.
        """
        horizon_time = self.config.horizon * self.config.delta
        rate_idx = 2 if self.config.corridor else 1
        budget = -self.path_state[0] / horizon_time
        cap = max(self.config.s_dot_floor, budget)
        if self.path_state[rate_idx] > cap:
            self.clamp_log.append(
                f"progress rate {self.path_state[rate_idx]:.6g} capped to "
                f"remaining-path budget {cap:.6g}"
            )
            self.path_state[rate_idx] = cap
        z_pin = self.path_state.copy()
        # twice the floor drift, so the horizon-end node stays strictly interior
        s_hold = -2.0 * self.config.s_dot_floor * horizon_time
        if z_pin[0] > s_hold:
            self.clamp_log.append(
                f"pinned progress {z_pin[0]:.6g} held at {s_hold:.6g} (path end)"
            )
            z_pin[0] = s_hold
        return z_pin

    def advance_path_state(self, nu_applied, dt: float) -> np.ndarray:
        """Integrate the timing chains exactly over ``dt`` and clamp to the
        admissible progress box (clamping is logged, not an error)."""
        if not 0.0 < dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if not np.all(np.isfinite(nu_applied)):
            raise ValueError("virtual input must be finite")
        z = step_timing(self.path_state, nu_applied, dt)
        lo, hi = self.config.z_bounds()
        clipped = np.clip(z, lo, hi)
        moved = np.abs(clipped - z) > 1e-12
        for idx in np.flatnonzero(moved):
            self.clamp_log.append(
                f"path state [{idx}] clamped {z[idx]:.9g} -> {clipped[idx]:.9g}"
            )
        self.path_state = clipped
        return self.path_state.copy()
