"""Dense Gauss-Newton SQP with a logarithmic barrier for box constraints.

Solves problems of the form

    minimize    ||r(w)||^2
    subject to  c(w) = 0,   lb <= w <= ub

by a homotopy over the barrier weight mu: at each mu the box is replaced by
a log barrier, the cost is approximated by its Gauss-Newton model, and the
equality-constrained Newton step comes from one dense, symmetric KKT system.
The barrier subproblems are stepped in primal-dual form (bound duals scale
the Hessian diagonal) which avoids the step-length collapse of pure primal
barrier Newton near active bounds; convergence of each stage is still
measured by the primal barrier stationarity.  A backtracking line search on
the exact-penalty merit

    ||r(w)||^2 + mu * B(w) + rho * ||c(w)||_1

globalizes the iteration; a fraction-to-boundary rule keeps every iterate
strictly interior, so ``r`` and ``c`` are never evaluated outside the box.

The problems here are tiny (around a hundred variables), so everything is
dense.  Degenerate box entries with lb == ub are treated as frozen
variables: they never move, carry no barrier term, and equality rows that
involve only frozen variables are dropped when trivially satisfied.

Problem objects must expose: ``n``, ``residual(w)``, ``residual_jacobian(w)``,
``equality(w)``, ``equality_jacobian(w)``, ``lower`` and ``upper``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

CONVERGED = "converged"
MAX_ITERATIONS = "max-iterations"
LINESEARCH_FAILURE = "linesearch-failure"

_FROZEN_TOL = 1e-12
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 30
_MAX_REG_ESCALATIONS = 24
_DUAL_SAFEGUARD = 1e10


@dataclass
class SolverSettings:
    kkt_tolerance: float = 1e-6
    max_iterations: int = 50
    barrier_initial: float = 1e-2
    barrier_decrease: float = 0.2
    barrier_floor: float = 1e-8
    linesearch_backtrack: float = 0.5
    merit_penalty: float = 1e3
    regularization_floor: float = 1e-8

    def __post_init__(self) -> None:
        positives = (
            self.kkt_tolerance, self.max_iterations, self.barrier_initial,
            self.barrier_decrease, self.barrier_floor, self.linesearch_backtrack,
            self.merit_penalty, self.regularization_floor,
        )
        if any(v <= 0 for v in positives):
            raise ValueError("solver settings must be positive")
        if not (0.0 < self.barrier_decrease < 1.0):
            raise ValueError("barrier_decrease must be in (0, 1)")
        if not (0.0 < self.linesearch_backtrack < 1.0):
            raise ValueError("linesearch_backtrack must be in (0, 1)")


@dataclass
class SolveResult:
    decision: np.ndarray
    status: str
    kkt_residual: float
    equality_residual_inf: float
    iterations: int
    solve_time: float
    multipliers: np.ndarray


@dataclass
class DenseNlp:
    """Minimal problem container for standalone (non-OCP) optimizations."""

    n: int
    residual: Callable[[np.ndarray], np.ndarray]
    residual_jacobian: Callable[[np.ndarray], np.ndarray]
    lower: np.ndarray
    upper: np.ndarray
    equality: Callable[[np.ndarray], np.ndarray] = field(default=None)
    equality_jacobian: Callable[[np.ndarray], np.ndarray] = field(default=None)

    def __post_init__(self):
        if self.equality is None:
            self.equality = lambda w: np.zeros(0)
            self.equality_jacobian = lambda w: np.zeros((0, self.n))
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)


def _frozen_mask(lower, upper) -> np.ndarray:
    return np.isfinite(lower) & np.isfinite(upper) & (upper - lower <= _FROZEN_TOL)


def project_interior(w, lower, upper, margin_scale: float = 1e-6) -> np.ndarray:
    """Project a point strictly inside the box (frozen entries go to the pin).

    The margin is ``margin_scale`` times the bound range (capped at a quarter
    of the range for narrow boxes, and an absolute ``margin_scale`` for
    one-sided bounds).
    """
    w = np.array(w, dtype=float)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    frozen = _frozen_mask(lo, hi)
    rng = hi - lo
    both = np.isfinite(lo) & np.isfinite(hi) & ~frozen
    margin = np.where(both, np.minimum(margin_scale * rng, 0.25 * rng), margin_scale)
    lo_eff = np.where(np.isfinite(lo), lo + margin, -np.inf)
    hi_eff = np.where(np.isfinite(hi), hi - margin, np.inf)
    w = np.clip(w, lo_eff, hi_eff)
    w[frozen] = 0.5 * (lo[frozen] + hi[frozen])
    return w


def _barrier_terms(w, lower, upper, active):
    """Barrier value and gradient over the active mask (inf when infeasible)."""
    lo_gap = np.where(active & np.isfinite(lower), w - lower, np.inf)
    hi_gap = np.where(active & np.isfinite(upper), upper - w, np.inf)
    if np.any(lo_gap <= 0.0) or np.any(hi_gap <= 0.0):
        return np.inf, None
    value = -(np.sum(np.log(lo_gap[np.isfinite(lo_gap)])) + np.sum(np.log(hi_gap[np.isfinite(hi_gap)])))
    inv_lo = np.where(np.isfinite(lo_gap), 1.0 / lo_gap, 0.0)
    inv_hi = np.where(np.isfinite(hi_gap), 1.0 / hi_gap, 0.0)
    grad = -inv_lo + inv_hi
    return value, grad


def _barrier_schedule(settings: SolverSettings) -> list[float]:
    mus = [settings.barrier_initial]
    while mus[-1] > 10.0 * settings.barrier_floor:
        mus.append(max(mus[-1] * settings.barrier_decrease, settings.barrier_floor))
    return mus


def _step_to_boundary(w, dw, lower, upper, active, tau: float) -> float:
    alpha = 1.0
    neg = active & (dw < 0.0) & np.isfinite(lower)
    if np.any(neg):
        alpha = min(alpha, tau * np.min((w[neg] - lower[neg]) / -dw[neg]))
    pos = active & (dw > 0.0) & np.isfinite(upper)
    if np.any(pos):
        alpha = min(alpha, tau * np.min((upper[pos] - w[pos]) / dw[pos]))
    return max(alpha, 0.0)


def _newton_direction(h, g, a, c, free, keep_rows, reg):
    nf = int(np.sum(free))
    hf = h[np.ix_(free, free)] + reg * np.eye(nf)
    af = a[np.ix_(keep_rows, free)]
    mk = af.shape[0]
    kkt = np.zeros((nf + mk, nf + mk))
    kkt[:nf, :nf] = hf
    kkt[:nf, nf:] = af.T
    kkt[nf:, :nf] = af
    rhs = np.concatenate([-g[free], -c[keep_rows]])
    sol = np.linalg.solve(kkt, rhs)
    if not np.all(np.isfinite(sol)):
        raise np.linalg.LinAlgError("non-finite KKT solution")
    dw = np.zeros(g.shape)
    dw[free] = sol[:nf]
    lam_new = np.zeros(c.shape)
    lam_new[keep_rows] = sol[nf:]
    return dw, lam_new


class _BoundDuals:
    """Multiplier estimates for the box bounds (the primal-dual device)."""

    def __init__(self, w, lower, upper, active, mu):
        self.has_lo = active & np.isfinite(lower)
        self.has_hi = active & np.isfinite(upper)
        self.lower = lower
        self.upper = upper
        self.z_lo = np.where(self.has_lo, mu / np.where(self.has_lo, w - lower, 1.0), 0.0)
        self.z_hi = np.where(self.has_hi, mu / np.where(self.has_hi, upper - w, 1.0), 0.0)
        self.clip(w, mu)

    def sigma(self, w) -> np.ndarray:
        d_lo = np.where(self.has_lo, w - self.lower, 1.0)
        d_hi = np.where(self.has_hi, self.upper - w, 1.0)
        return np.where(self.has_lo, self.z_lo / d_lo, 0.0) + np.where(self.has_hi, self.z_hi / d_hi, 0.0)

    def update(self, w_old, step, mu, tau):
        """Linearized-complementarity dual step for the accepted primal step."""
        for z, has, gap_sign in ((self.z_lo, self.has_lo, 1.0), (self.z_hi, self.has_hi, -1.0)):
            if not np.any(has):
                continue
            d = np.where(has, gap_sign * (w_old - (self.lower if gap_sign > 0 else self.upper)), 1.0)
            dz = np.where(has, (mu - z * d - gap_sign * z * step) / d, 0.0)
            alpha = 1.0
            shrink = has & (dz < 0.0)
            if np.any(shrink):
                alpha = min(alpha, tau * np.min(z[shrink] / -dz[shrink]))
            z += alpha * dz

    def clip(self, w, mu):
        d_lo = np.where(self.has_lo, w - self.lower, 1.0)
        d_hi = np.where(self.has_hi, self.upper - w, 1.0)
        self.z_lo = np.where(
            self.has_lo,
            np.clip(self.z_lo, mu / (_DUAL_SAFEGUARD * d_lo), _DUAL_SAFEGUARD * mu / d_lo),
            0.0,
        )
        self.z_hi = np.where(
            self.has_hi,
            np.clip(self.z_hi, mu / (_DUAL_SAFEGUARD * d_hi), _DUAL_SAFEGUARD * mu / d_hi),
            0.0,
        )

    def recenter(self, w, mu):
        """Reset the duals to exact complementarity at the current point
        (used at barrier-stage entry, where the point sits on or near the
        central path of the previous stage)."""
        d_lo = np.where(self.has_lo, w - self.lower, 1.0)
        d_hi = np.where(self.has_hi, self.upper - w, 1.0)
        self.z_lo = np.where(self.has_lo, mu / d_lo, 0.0)
        self.z_hi = np.where(self.has_hi, mu / d_hi, 0.0)


def solve(problem, initial_guess, settings: Optional[SolverSettings] = None,
          multipliers: Optional[np.ndarray] = None, log=None) -> SolveResult:
    """Run the barrier homotopy to the stated KKT tolerance.

    The guess is pushed strictly inside the box before iterating.  On line
    search failure or iteration exhaustion the best (current) iterate is
    returned with the corresponding status; the caller decides what to do
    with a non-converged first input.
    """
    t_start = time.perf_counter()
    st = settings if settings is not None else SolverSettings()
    lo = np.asarray(problem.lower, dtype=float)
    hi = np.asarray(problem.upper, dtype=float)
    frozen = _frozen_mask(lo, hi)
    free = ~frozen
    # push the start away from the box faces proportionally to the first
    # barrier weight: Newton leaves a near-active bound only geometrically,
    # so starting deep in the barrier well wastes iterations
    push = min(1e-2, max(1e-6, 0.1 * np.sqrt(st.barrier_initial)))
    w = project_interior(np.asarray(initial_guess, dtype=float), lo, hi, push)

    c0 = problem.equality(w)
    m = c0.shape[0]
    lam = np.zeros(m) if multipliers is None else np.asarray(multipliers, dtype=float).copy()
    if lam.shape != (m,):
        raise ValueError("multiplier vector has the wrong length")

    rho = st.merit_penalty
    schedule = _barrier_schedule(st)
    duals = _BoundDuals(w, lo, hi, free, schedule[0])
    iters = 0
    kkt_val = np.inf
    eq_val = np.inf

    def _finish(stat):
        return SolveResult(
            decision=w, status=stat, kkt_residual=float(kkt_val),
            equality_residual_inf=float(eq_val), iterations=iters,
            solve_time=time.perf_counter() - t_start, multipliers=lam,
        )

    if log is not None:
        log.write(f"# solve n={problem.n} m={m}\n")

    for stage, mu in enumerate(schedule):
        last_stage = stage == len(schedule) - 1
        stage_tol = st.kkt_tolerance if last_stage else max(st.kkt_tolerance, mu)
        tau = max(0.995, 1.0 - mu)
        duals.recenter(w, mu)
        while True:
            r = problem.residual(w)
            J = problem.residual_jacobian(w)
            c = problem.equality(w)
            A = problem.equality_jacobian(w)
            bval, bgrad = _barrier_terms(w, lo, hi, free)
            g = 2.0 * (J.T @ r) + mu * bgrad
            g_lam = g + (A.T @ lam if m else 0.0)
            stat = float(np.max(np.abs(g_lam[free]))) if np.any(free) else 0.0
            eq_val = float(np.max(np.abs(c))) if m else 0.0
            kkt_val = max(stat, eq_val)
            if kkt_val <= stage_tol:
                break
            if iters >= st.max_iterations:
                return _finish(MAX_ITERATIONS)

            # rows acting only on frozen coordinates must hold already
            if m:
                keep = np.max(np.abs(A[:, free]), axis=1) > 1e-14 if np.any(free) else np.zeros(m, bool)
                bad = ~keep & (np.abs(c) > 1e-9)
                if np.any(bad):
                    return _finish(LINESEARCH_FAILURE)
            else:
                keep = np.zeros(0, dtype=bool)

            h = 2.0 * (J.T @ J)
            h[np.diag_indices_from(h)] += duals.sigma(w)

            c_l1 = float(np.sum(np.abs(c)))
            reg = 0.0
            direction = None
            for _ in range(_MAX_REG_ESCALATIONS):
                try:
                    dw, lam_new = _newton_direction(h, g, A, c, free, keep, reg)
                except np.linalg.LinAlgError:
                    reg = max(st.regularization_floor, reg * 10.0) if reg else st.regularization_floor
                    continue
                descent = float(g @ dw) - rho * c_l1
                if descent < 0.0 or not np.any(dw):
                    direction = (dw, lam_new, descent)
                    break
                reg = max(st.regularization_floor, reg * 10.0) if reg else st.regularization_floor
            if direction is None:
                return _finish(LINESEARCH_FAILURE)
            dw, lam_new, descent = direction
            # the l1 penalty is exact only above the multiplier scale; grow it
            # when the fresh multiplier estimate exceeds the current weight
            if lam_new.size and 2.0 * float(np.max(np.abs(lam_new))) > rho:
                rho = 2.0 * float(np.max(np.abs(lam_new)))
                descent = float(g @ dw) - rho * c_l1
                if descent >= 0.0 and np.any(dw):
                    return _finish(LINESEARCH_FAILURE)
            merit0 = float(r @ r) + mu * bval + rho * c_l1
            if np.max(np.abs(dw)) <= 100.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(w))):
                break  # step at the rounding floor: stage converged numerically

            noise = 16.0 * np.finfo(float).eps * (1.0 + abs(merit0))
            alpha = _step_to_boundary(w, dw, lo, hi, free, tau)
            accepted = False
            merit = merit0
            for _ in range(_MAX_BACKTRACKS):
                trial = w + alpha * dw
                bt, _ = _barrier_terms(trial, lo, hi, free)
                if np.isfinite(bt):
                    rt = problem.residual(trial)
                    ct = problem.equality(trial)
                    merit = float(rt @ rt) + mu * bt + rho * float(np.sum(np.abs(ct)))  # same rho as merit0
                    if merit <= merit0 + _ARMIJO * alpha * descent or abs(alpha * descent) <= noise:
                        accepted = True
                        break
                alpha *= st.linesearch_backtrack
            if not accepted:
                return _finish(LINESEARCH_FAILURE)

            step = alpha * dw
            duals.update(w, step, mu, tau)
            w = w + step
            duals.clip(w, mu)
            lam = lam_new.copy()
            iters += 1
            if log is not None:
                log.write(
                    f"mu={mu:9.3e} it={iters:3d} merit={merit:.17g} "
                    f"merit_before={merit0:.17g} "
                    f"alpha={alpha:8.3e} kkt={kkt_val:9.3e} eq={eq_val:9.3e}\n"
                )

    status = CONVERGED if (kkt_val <= st.kkt_tolerance and eq_val <= st.kkt_tolerance) else MAX_ITERATIONS
    return _finish(status)


def warm_start_shift(previous: SolveResult, problem_new) -> np.ndarray:
    """Receding-horizon initial guess from the previous optimum.

    States, inputs and timing quantities are shifted one stage left; the last
    input (and virtual input) is duplicated and the final state/timing node is
    re-propagated with it, so a model-consistent previous solution stays
    feasible.  The result is projected strictly inside the new bounds.
    """
    X, U, Z, V = problem_new.unpack(previous.decision)
    X_new = np.vstack([X[1:], problem_new.step_state(X[-1], U[-1])])
    U_new = np.vstack([U[1:], U[-1]])
    Z_new = np.vstack([Z[1:], problem_new.step_timing(Z[-1], V[-1])])
    V_new = np.vstack([V[1:], V[-1]])
    w = problem_new.pack(X_new, U_new, Z_new, V_new)
    return project_interior(w, problem_new.lower, problem_new.upper)
