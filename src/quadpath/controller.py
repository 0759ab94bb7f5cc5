"""Receding-horizon path-following controller.

Each control step builds the horizon NLP pinned at the measured state and
the controller's own timing state, on the constant structure the controller
built once, and runs one solve: from the input rollout on the first step,
from the shifted previous solution on every later one.  The step returns
the first input and the first virtual input; the caller applies the input
and then advances the timing state in closed form over one control period
with :meth:`PathController.advance_path_state`.  Advancing the controller
copy of the timing state by the applied virtual input, instead of reading
back the solver prediction, keeps the plant-side and controller-side
progress consistent even when a solve fails.

A warm solve runs in two phases: :meth:`PathController.prepare`, after
the timing state is advanced and before the next measurement, shifts the
last solution and prepares the solve's start on the pin-free structure;
:meth:`PathController.control_step`, the feedback, pins the problem at the
measurement and solves from that start, or from one the solve prepares
itself when none was prepared from the last solution (the first step).

A solve that does not converge is not retried: its returned iterate is
applied and kept as the next warm start, and its status marks the step as
a failure.  That iterate is the shifted plan or a point the merit line
search accepted over it, and the fraction-to-boundary rule keeps it inside
the box.  Every clamp the controller applies or meets is one message in its
``clamp_log``: the rate and progress guards of the pin, a pinned coordinate
outside the configured box, and the timing state clipped to its box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import ModelParams
from .paths import step_timing
from .solver import SolveResult, solve
from .solver import prepare as prepare_start
from .transcription import OcpConfig, OcpStructure, build_ocp, warm_start_shift


@dataclass
class ControlDiagnostics:
    """What a control step returns besides its inputs: the step's one solve
    (its status says whether the step failed)."""

    solve: SolveResult


class PathController:
    """Owns the timing-law state, the previous solve and the clamp log.

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
        # the timing box, and the box of the pins (measured state, then
        # timing state), both fixed by the configuration
        zlo, zhi = self._z_box = config.z_bounds()
        self._pin_box = (np.concatenate((config.state_lower, zlo)), np.concatenate((config.state_upper, zhi)))
        self.last_solution: Optional[SolveResult] = None
        # (the solution it was shifted from, the start of its shifted plan)
        self._prepared = None
        self.clamp_log: list[str] = []

    def prepare(self) -> None:
        """Prepare the next warm solve from the last solution, before the
        measurement; the next :meth:`control_step` consumes it."""
        if self.last_solution is not None:
            guess = warm_start_shift(self.last_solution, self.structure)
            self._prepared = (self.last_solution,
                              prepare_start(self.structure, guess, self.last_solution.multipliers))

    def control_step(self, measured):
        """Solve the horizon problem at the measured state; return the first
        physical input, the first virtual input and diagnostics."""
        measured = np.asarray(measured, dtype=float)
        if not np.all(np.isfinite(measured)):
            raise ValueError("measured state must be finite")

        z_pin = self._feasible_pin()
        problem = build_ocp(measured, z_pin, self.structure)
        self._log_pins_outside_box(measured, z_pin)

        prepared, self._prepared = self._prepared, None
        if self.last_solution is None:
            result = solve(problem, problem.rollout(), multipliers=None, log=self.solver_log)
        else:
            if prepared is not None and prepared[0] is self.last_solution:
                # the start's point is the shifted plan, projected into the
                # box; solve prepares nothing from it
                start = prepared[1]
                guess = start.w
            else:
                guess, start = warm_start_shift(self.last_solution, self.structure), None
            result = solve(problem, guess, multipliers=self.last_solution.multipliers, log=self.solver_log,
                           start=start)

        w, st = result.decision, self.structure
        self.last_solution = result
        return w[st.u0].copy(), w[st.v0].copy(), ControlDiagnostics(solve=result)

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

    def _log_pins_outside_box(self, x_pin, z_pin) -> None:
        """One message per pinned coordinate outside the configured box."""
        lo, hi = self._pin_box
        pins, nx = np.concatenate((x_pin, z_pin)), x_pin.size
        for i in np.flatnonzero((pins < lo) | (pins > hi)):
            name = f"state[{i}]" if i < nx else f"path[{i - nx}]"
            self.clamp_log.append(
                f"pinned {name}={pins[i]:.6g} outside box [{lo[i]:.6g}, {hi[i]:.6g}]"
            )

    def advance_path_state(self, nu_applied) -> np.ndarray:
        """Integrate the timing chains exactly over one control period
        ``config.delta`` and clamp to the admissible progress box (clamping
        is logged, not an error)."""
        if not np.all(np.isfinite(nu_applied)):
            raise ValueError("virtual input must be finite")
        z = step_timing(self.path_state, nu_applied, self.config.delta)
        lo, hi = self._z_box
        clipped = np.clip(z, lo, hi)
        moved = np.abs(clipped - z) > 1e-12
        for idx in np.flatnonzero(moved):
            self.clamp_log.append(
                f"path state [{idx}] clamped {z[idx]:.9g} -> {clipped[idx]:.9g}"
            )
        self.path_state = clipped
        return self.path_state.copy()
