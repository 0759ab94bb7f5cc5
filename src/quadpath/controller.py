"""Receding-horizon path-following controller.

Each control step builds the horizon NLP pinned at the measured state and
the controller's own timing state, on the constant structure the controller
built once, and runs one solve: on the first step a cold solve from the
rollout of a timing guess that accelerates progress
(:meth:`PathController._cold_guess`), on every later one a warm solve from
the shifted previous solution.  The step returns
the first input and the first virtual input; the caller applies the input
and then advances the timing state in closed form over one control period
with :meth:`PathController.advance_path_state`.  Advancing the controller
copy of the timing state by the applied virtual input, instead of reading
back the solver prediction, keeps the plant-side and controller-side
progress consistent even when a solve fails.

Every solve starts from a start prepared on the pin-free structure
(``solver.prepare``), which reads no measurement:
:meth:`PathController.advance_path_state` ends by preparing the next one
from the shifted last solution, and :meth:`PathController.control_step`,
the feedback, pins the problem at the measurement and solves from it.  The
first step, and a step with no advance since the last, prepares its own.

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

# the first solve's progress guess, as a fraction of the progress input's
# bound and of the rate's upper bound.  The optimum accelerates progress at
# the input's face for most of the horizon; a guess on that face must leave
# it, which a barrier Newton step does only geometrically.  First-solve
# iterations, fewest to most over the five scenarios, each at seeds 1-3 and
# 21-25 with 2 mm position noise and at seed 1 without (50 is the cap, and
# a * marks solves that did not converge); "cold duals" start the bound
# duals at max(mu / gap, 1), the others at mu / gap:
#
#   start                     N=3   5      8      10     12     15     20     30     40
#   rate held, mu / gap       14    15-18  19-22  21-26  22-24  24-27  28-34  36-39  41-45
#   rate held, cold duals     14-15 14-20  18-25  22-25  23-27  25-29  29-33  48-50* 50*
#   0.9, mu / gap             9-14  11-45  14-50* 16-50* 18-50  18-36  16-29  19-24  18-23
#   0.5, cold duals           6     7      7-13   8-10   8-13   10-12  11-12  11-13  12-13
#   0.9, cold duals           4     4-5    5-7    6-9    6-11   6-11   10-11  10-11  10-12
#   0.99, cold duals          3     3-4    3-25   4-29   5-24   5-14   8-10   8-9    8-9
#
# Every converged first input was within 1.9e-7 of the held rate's.
_COLD_TIMING = 0.9


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
        # at the path start, the progress rate at its floor
        self.path_state = np.zeros(config.n_z)
        self.path_state[[0, config.n_z // 2]] = -1.0, config.s_dot_floor
        # the timing box, and the box of the pins (measured state, then
        # timing state), both fixed by the configuration
        zlo, zhi = self._z_box = config.z_bounds()
        self._pin_box = (np.concatenate((config.state_lower, zlo)), np.concatenate((config.state_upper, zhi)))
        self.last_solution: Optional[SolveResult] = None
        # (the last solution when it was prepared, the next solve's start)
        self._prepared = None
        self.clamp_log: list[str] = []

    def control_step(self, measured):
        """Solve the horizon problem at the measured state; return the first
        physical input, the first virtual input and diagnostics."""
        measured = np.asarray(measured, dtype=float)
        if not np.all(np.isfinite(measured)):
            raise ValueError("measured state must be finite")

        z_pin = self._feasible_pin()
        problem = build_ocp(measured, z_pin, self.structure)
        self._log_pins_outside_box(measured, z_pin)

        last = self.last_solution
        if self._prepared is None or self._prepared[0] is not last:
            # the first step, or no advance since the last solution
            self._prepare(self._cold_guess(problem) if last is None else warm_start_shift(last, self.structure))
        start, self._prepared = self._prepared[1], None
        # the start's point is the guess projected into the box; solve
        # prepares nothing from it
        result = solve(problem, start.w, multipliers=None if last is None else last.multipliers,
                       log=self.solver_log, start=start)

        w, st = result.decision, self.structure
        self.last_solution = result
        return w[st.u0].copy(), w[st.v0].copy(), ControlDiagnostics(solve=result)

    def _prepare(self, guess) -> None:
        """Prepare the next solve's start from ``guess`` on the structure:
        cold before the first solution, warm from its multipliers after."""
        last = self.last_solution
        self._prepared = (last, prepare_start(self.structure, guess, None if last is None else last.multipliers))

    def _cold_guess(self, problem) -> np.ndarray:
        """The first solve's guess: the rollout from the pins with the
        physical inputs and the corridor offset input at 0, and the progress
        input at ``_COLD_TIMING * nu_bound`` from the pinned rate until the
        rate reaches ``_COLD_TIMING * s_dot_max``, then at 0."""
        cfg = self.config
        rate = problem.z0[cfg.n_z // 2]
        ramp = rate + _COLD_TIMING * cfg.nu_bound * cfg.delta * np.arange(cfg.horizon + 1)
        nu = np.zeros((cfg.horizon, cfg.n_nu))
        nu[:, 0] = np.diff(np.minimum(ramp, max(rate, _COLD_TIMING * cfg.s_dot_max))) / cfg.delta
        return problem.rollout(nu_seq=nu)

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
        rate_idx = self.config.n_z // 2
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
        is logged, not an error), then prepare the next warm solve from the
        last solution, before the next measurement."""
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
        if self.last_solution is not None:
            self._prepare(warm_start_shift(self.last_solution, self.structure))
        return self.path_state.copy()
