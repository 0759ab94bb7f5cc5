"""Gauss-Newton SQP with a logarithmic barrier for box constraints.

Solves problems of the form

    minimize    ||r(w)||^2
    subject to  c(w) = 0,   lb <= w <= ub

at one barrier weight mu = 1e-7: the box is replaced by a log barrier, the
cost is approximated by its Gauss-Newton model, and the
equality-constrained Newton step comes from one symmetric KKT system.
The barrier problem is stepped in primal-dual form (bound duals scale the
Hessian diagonal) which avoids the step-length collapse of pure primal
barrier Newton near active bounds, and convergence is measured in the same
form, by the primal-dual optimality error of IPOPT (Waechter & Biegler 2006,
Math. Program. 106(1), sec. 2.1)

    E = max(|2 J^T r + A^T lam - sum sign * z|, |c|, |z * gap - mu| * tol / mu)

on the free entries, with the bound duals ``z`` in place of the primal
barrier gradient ``mu / gap``: a face that a fraction-to-boundary cut
leaves a hair away blows ``mu / gap`` up long after its dual has settled.
The complementarity term passes when ``|z * gap - mu| <= mu``.  When the
step falls to the rounding floor while ``z`` is off ``mu / gap``, one
dual-only iteration resets ``z`` to ``mu / gap`` and the test is taken
again.  A backtracking line search on the exact-penalty merit

    ||r(w)||^2 + mu * B(w) + rho * ||c(w)||_1

globalizes the iteration; a fraction-to-boundary rule keeps every iterate
strictly interior, so the problem is never evaluated outside the box.
Every point the solve examines is valued once, by the problem's
``evaluate``: the start, each iteration's first line-search trial inside
the box and, when that is rejected, the second-order correction below,
one point each; when that fails too, every halving left of the step in
order, in batched passes over the ones inside the box, up to 12 halvings
a pass, the next pass only when none of a pass is accepted.  Jacobians
(``row_blocks``) are built from what that evaluation kept, at the start
and at each iteration's accepted point alone, so a rejected point never
pays for them.  The barrier is evaluated once per examined point as
well, on the faces of the problem's :class:`Box`, and the value and
gradient of the accepted one travel with its values.

Along a full Gauss-Newton step the equality gaps grow quadratically (the
Maratos effect), so the l1 merit can reject steps that are good.  When the
first in-box trial of an iteration fails the Armijo test, one second-order
correction is tried (Waechter & Biegler 2006, Math. Program. 106(1), sec.
2.4): the same KKT system is solved with the gaps ``alpha * c + c(trial)``,
and the corrected point, cut by the fraction-to-boundary rule, is accepted
with its multipliers if it meets the original step's Armijo bound;
otherwise the original direction is backtracked.

Cold starts are pushed ``0.1 * sqrt(mu)`` away from the box faces.  A guess
passed with ``multipliers`` is taken to be a shifted previous optimum
(``quadpath.transcription.warm_start_shift``) and is only moved just
inside the box (:meth:`Box.project` at a margin of 1e-6), so the bounds
that were active stay active.
Either way the bound duals start at ``mu / gap``, which at a converged
point gives back the previous duals.

A solve is a preparation (:func:`prepare`), which reads no pin (measured
state) and can run on a pin-free structure before the measurement, then
the feedback (:func:`solve`), which fills the pin rows of ``c`` and iterates.
The preparation builds and solves the first iteration's Newton system at
``reg = 0`` with the pins left open (``kkt_system``), so the feedback's
first step only applies the pins to that solved system (``kkt_feedback``):
for the horizon problem two matrix-vector products, and no factorization
after the measurement.  A prepared system that is singular is handed over
as ``None``, and the feedback's first step is then ``kkt_step`` at the
first regularization.

The problem keeps its own Jacobians and solves its own KKT system, so it
can use its structure: :class:`DenseNlp` holds dense matrices and factors
the dense KKT matrix, and the horizon problem
(``quadpath.transcription.OcpProblem``) holds stage blocks and condenses
its states out.
Degenerate box entries (lb == ub, up to 1e-12 or to adjacent floats) are
treated as frozen variables: they never move and carry no barrier term.
The box is a :class:`Box`, which the problem builds once: its frozen mask,
faces and projection margins are fixed for every solve of that problem
(for the horizon problem, of every problem of one controller).  Equality
rows that act on frozen variables alone are the problem's business: the
horizon problem rejects boxes that would make them, and :class:`DenseNlp`
drops them in its own step when they hold.

Problem objects must expose:

- ``box``, a :class:`Box`;
- ``evaluate(W) -> (R, C, kept)``: the residuals and the equality values
  at ``W``, one point (shape ``(n,)``) or a stack of them (shape
  ``(k, n)``), stacked like ``W``, each row bitwise what the point alone
  gives, and whatever the problem ``kept`` to build Jacobians later;
- ``row_blocks(kept, i) -> blocks``: the problem's own representation of
  the Jacobians ``J`` and ``A`` at point ``i`` of that evaluation (row
  ``i`` of a stack, ``...`` for one point), which the solver only passes
  back;
- ``jt_dot(blocks, v)`` and ``at_dot(blocks, v)``: the products ``J^T v``
  and ``A^T v``;
- ``fill_pins(w, c)``: writes in place the rows of ``c`` at ``w`` that read
  a pin (a measured state), which a pin-free evaluation leaves empty;
- ``kkt_step(blocks, g, c, sigma, reg) -> (dw, lam)``: the step and the
  equality multipliers that solve the KKT system with Hessian
  ``2 J^T J + diag(sigma)`` plus ``reg`` on the diagonal, gradient ``g``
  and linearized equalities ``A dw + c = 0``, on the ``box.free`` entries
  (``dw`` is zero off ``box.free``);
  it raises ``numpy.linalg.LinAlgError`` when the system is singular;
- ``kkt_system(blocks, g, c, sigma)`` and ``kkt_feedback(system, c)``:
  ``kkt_step``'s ``(dw, lam)`` at ``reg = 0`` in two parts, the system,
  built without reading a pin row of ``c``, and the step from it, which
  reads only the pin rows of ``c``; either may raise
  ``numpy.linalg.LinAlgError`` when the system is singular (the horizon
  problem's ``kkt_system`` factors it, a dense ``kkt_feedback`` does).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

CONVERGED = "converged"
MAX_ITERATIONS = "max-iterations"
LINESEARCH_FAILURE = "linesearch-failure"

_FROZEN_TOL = 1e-12
# the barrier weight of every solve, and the fraction-to-boundary factor
_MU = 1e-7
_TAU = 1.0 - _MU
# the margin inside the box of a cold start: Newton leaves a near-active
# bound only geometrically, so starting deep in the barrier well wastes
# iterations
_COLD_MARGIN = 0.1 * np.sqrt(_MU)
# the margin inside the box of a warm start
_WARM_MARGIN = 1e-6
_TOLERANCE = 1e-6
_ITERATION_CAP = 50
_BACKTRACK = 0.5
_PENALTY = 1e3
_REG_FLOOR = 1e-8
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 30
# halvings valued in one pass once the first trial and the second-order
# correction are rejected: the deepest backtracking of a 70 s
# sinusoid-corridor flight accepts the 11th, and at N = 5 a pass of 12
# costs about one linearization
_PASS_ROWS = 12
_MAX_REG_ESCALATIONS = 24
_DUAL_SAFEGUARD = 1e10
_EPS = np.finfo(float).eps


@dataclass
class SolveResult:
    decision: np.ndarray
    status: str
    kkt_residual: float
    iterations: int
    solve_time: float
    multipliers: np.ndarray
    # line-search trials over all iterations: the points examined up to
    # each acceptance, the second-order correction included
    trials: int
    prepare_time: float = 0.0


class Box:
    """The box ``lower <= w <= upper`` of a problem, decided once.

    An entry with finite bounds at most 1e-12 apart, or with no float
    strictly between them, is frozen: it sits at the middle of its bounds
    and carries no barrier term.  The finite bounds of the ``free`` entries
    are the faces, stacked lower faces first, then upper ones, with their
    indices ``idx``, bounds ``bound`` and signs ``sign``; the projection,
    the barrier and the step to the boundary work on them without
    full-length masks.  Every array is read-only.
    """

    def __init__(self, lower, upper):
        lower = np.array(lower, dtype=float)
        upper = np.array(upper, dtype=float)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be vectors of one length")
        both = np.isfinite(lower) & np.isfinite(upper)
        frozen = both & ((upper - lower <= _FROZEN_TOL) | (np.nextafter(lower, np.inf) >= upper))
        free = ~frozen
        lo_idx = np.flatnonzero(free & np.isfinite(lower))
        hi_idx = np.flatnonzero(free & np.isfinite(upper))
        self.lower, self.upper, self.free = lower, upper, free
        self.free_idx = np.flatnonzero(free)
        self.n = lower.size
        self.n_lo = lo_idx.size
        self.idx = np.concatenate([lo_idx, hi_idx])
        self.bound = np.concatenate([lower[lo_idx], upper[hi_idx]])
        # the gap to a face is sign * (w - bound), which for an upper face
        # is upper - w bit for bit while it is nonzero; a step approaches a
        # face at -sign * dw
        self.sign = np.concatenate([np.ones(lo_idx.size), -np.ones(hi_idx.size)])
        self.neg_sign = -self.sign
        # the first float strictly inside each face
        self.inside = np.nextafter(self.bound, self.sign * np.inf)
        self.two_sided = both[self.idx]
        self.width = (upper - lower)[self.idx]
        self.frozen_idx = np.flatnonzero(frozen)
        self.pin = 0.5 * (lower[self.frozen_idx] + upper[self.frozen_idx])
        # the projection's limits at the solver's two margin scales
        self.limits = {scale: self._limits_at(scale) for scale in (_COLD_MARGIN, _WARM_MARGIN)}
        for value in (*vars(self).values(), *(a for pair in self.limits.values() for a in pair)):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def _limits_at(self, margin_scale: float):
        """Full-length lower and upper limits of :meth:`project`: the faces
        moved in, and infinite where an entry has no face or is frozen."""
        width = self.width
        margin = np.where(self.two_sided, np.minimum(margin_scale * width, 0.25 * width), margin_scale)
        k = self.n_lo
        lo, hi = np.full(self.n, -np.inf), np.full(self.n, np.inf)
        lo[self.idx[:k]] = np.maximum(self.bound[:k] + margin[:k], self.inside[:k])
        hi[self.idx[k:]] = np.minimum(self.bound[k:] - margin[k:], self.inside[k:])
        return lo, hi

    def project(self, w, margin_scale: float) -> np.ndarray:
        """A copy of ``w`` strictly inside the box, frozen entries at their
        pins.

        Each face moves in by ``margin_scale`` times its entry's bound range,
        capped at a quarter of the range, or by ``margin_scale`` itself when
        the entry is bounded on one side only.  A margin under half an ulp of
        its bound would leave the face where it is; that face moves in to
        the first float inside it instead.  The moved faces of the solver's
        two margin scales are computed once, with the box.
        """
        lo, hi = self.limits.get(margin_scale) or self._limits_at(margin_scale)
        w = np.maximum(np.asarray(w, dtype=float), lo)
        np.minimum(w, hi, out=w)
        w[self.frozen_idx] = self.pin
        return w

    def strictly_inside(self, points) -> np.ndarray:
        """Whether each row of ``points`` has every gap positive, that is,
        a finite :meth:`barrier`."""
        return ~(self.sign * (points[:, self.idx] - self.bound) <= 0.0).any(axis=1)

    def barrier(self, w):
        """``(value, gradient, gaps)`` of the log barrier at ``w``;
        ``(inf, None, None)`` unless every gap is positive."""
        gap = self.sign * (w[self.idx] - self.bound)
        if (gap <= 0.0).any():
            return np.inf, None, None
        logs = np.log(gap)
        # one sum per side: a single sum over both would round differently
        value = -(logs[:self.n_lo].sum() + logs[self.n_lo:].sum())
        return value, np.bincount(self.idx, self.neg_sign / gap, self.n), gap

    def step_to_boundary(self, gap, dw, tau: float) -> float:
        """Largest step along ``dw`` (at most 1) that keeps a fraction
        ``1 - tau`` of every gap."""
        approach = self.neg_sign * dw[self.idx]
        hit = approach > 0.0
        return max(min(1.0, tau * (gap[hit] / approach[hit]).min(initial=np.inf)), 0.0)


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
        if (self.equality is None) != (self.equality_jacobian is None):
            raise ValueError("give both equality and equality_jacobian, or neither")
        if self.equality is None:
            self.equality = lambda w: np.zeros(0)
            self.equality_jacobian = lambda w: np.zeros((0, self.n))
        self.box = Box(self.lower, self.upper)

    def evaluate(self, W):
        """``(R, C, W)``: the residuals and the equality values at ``W``, one
        point or a stack of them, one point at a time, stacked like ``W``;
        the points are kept for :meth:`row_blocks`."""
        W = np.asarray(W, dtype=float)
        rows = [(self.residual(w), self.equality(w)) for w in W.reshape(-1, self.n)]
        R, C = (np.stack(v) for v in zip(*rows))
        batch = W.shape[:-1]
        return R.reshape(batch + R.shape[1:]), C.reshape(batch + C.shape[1:]), W

    def row_blocks(self, kept, i):
        """``(J, A)`` at point ``i`` of an :meth:`evaluate` call."""
        return self.residual_jacobian(kept[i]), self.equality_jacobian(kept[i])

    def fill_pins(self, w, c):
        """No row reads a pin."""

    def jt_dot(self, blocks, v):
        return blocks[0].T @ v

    def at_dot(self, blocks, v):
        return blocks[1].T @ v

    def kkt_step(self, blocks, g, c, sigma, reg):
        """Newton step of the dense KKT system with Hessian ``2 J^T J + sigma``
        (plus ``reg`` on the free variables) on the rows with an entry above
        1e-14 on a free variable at this point; the others carry no multiplier
        and must hold already (to 1e-9), else ``LinAlgError``."""
        return self.kkt_feedback(self._kkt_system(blocks, g, c, sigma, reg), c)

    def kkt_system(self, blocks, g, c, sigma):
        """The dense KKT matrix and right-hand side of :meth:`kkt_step` at
        ``reg = 0``; no row reads a pin."""
        return self._kkt_system(blocks, g, c, sigma, 0.0)

    def kkt_feedback(self, system, c):
        """The step of a :meth:`kkt_system`: its LU solve."""
        kkt, rhs, keep = system
        if np.any(np.abs(c[~keep]) > 1e-9):
            raise np.linalg.LinAlgError("an equality row on frozen variables alone does not hold")
        sol = np.linalg.solve(kkt, rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError("non-finite KKT solution")
        free = self.box.free
        nf = int(np.sum(free))
        dw = np.zeros(free.shape)
        dw[free] = sol[:nf]
        lam_new = np.zeros(keep.shape)
        lam_new[keep] = sol[nf:]
        return dw, lam_new

    def _kkt_system(self, blocks, g, c, sigma, reg):
        J, A = blocks
        free = self.box.free
        keep = np.max(np.abs(A[:, free]), axis=1, initial=0.0) > 1e-14
        h = 2.0 * (J.T @ J)
        h[np.diag_indices_from(h)] += sigma
        nf = int(np.sum(free))
        af = A[np.ix_(keep, free)]
        mk = af.shape[0]
        kkt = np.zeros((nf + mk, nf + mk))
        kkt[:nf, :nf] = h[np.ix_(free, free)] + reg * np.eye(nf)
        kkt[:nf, nf:] = af.T
        kkt[nf:, :nf] = af
        return kkt, np.concatenate([-g[free], -c[keep]]), keep


class _BoundDuals:
    """Multiplier estimates ``z`` for the faces of a :class:`Box` (the
    primal-dual device), starting at exact complementarity ``mu / gap``;
    every method takes the gaps at the current point."""

    def __init__(self, box: Box, gap):
        self.box = box
        self.z = _MU / gap

    def sigma(self, gap) -> np.ndarray:
        return np.bincount(self.box.idx, self.z / gap, self.box.n)

    def gradient(self) -> np.ndarray:
        """The bound-dual term ``-sum sign * z`` of the Lagrangian gradient,
        full length."""
        return np.bincount(self.box.idx, self.box.neg_sign * self.z, self.box.n)

    @staticmethod
    def complementarity(zgap) -> float:
        """``max |z * gap - mu|`` of the products ``zgap = z * gap``, scaled
        by ``tol / mu``, so that it meets the tolerance when every
        ``|z * gap - mu| <= mu``."""
        return float(np.abs(zgap - _MU).max(initial=0.0)) * (_TOLERANCE / _MU)

    def update(self, gap, zgap, step):
        """Linearized-complementarity dual step for the accepted primal step,
        cut per side by the fraction-to-boundary rule; ``zgap`` is
        ``z * gap``."""
        z, k = self.z, self.box.n_lo
        dz = (_MU - zgap - self.box.sign * z * step[self.box.idx]) / gap
        ratio = np.divide(z, -dz, out=np.full(z.shape, np.inf), where=dz < 0.0)
        z[:k] += min(1.0, _TAU * ratio[:k].min(initial=np.inf)) * dz[:k]
        z[k:] += min(1.0, _TAU * ratio[k:].min(initial=np.inf)) * dz[k:]

    def clip(self, gap):
        self.z = self.z.clip(_MU / (_DUAL_SAFEGUARD * gap), _DUAL_SAFEGUARD * _MU / gap)


def _first_order(problem, blocks, r, bgrad, duals, lam):
    """The step's gradient ``g`` and the stationarity term of ``E`` at a
    point."""
    grad_r = 2.0 * problem.jt_dot(blocks, r)
    stat = float(np.abs((grad_r + duals.gradient() + problem.at_dot(blocks, lam))[problem.box.free_idx])
                 .max(initial=0.0))
    return grad_r + _MU * bgrad, stat


class Start(NamedTuple):
    """A solve's start, as :func:`prepare` makes it: the projected guess
    ``w`` with its residuals ``r``, equality values ``c`` (pin rows empty),
    Jacobian ``blocks`` and barrier ``(bval, bgrad, gap)``, the equality
    multipliers ``lam``, the bound ``duals``, the step's gradient ``g``,
    the stationarity term ``stat`` and ``sigma``; ``system``, the first
    Newton system at ``reg = 0`` with its pins open (``kkt_system``), or
    ``None`` when it is singular; and the seconds it took."""

    w: np.ndarray
    r: np.ndarray
    c: np.ndarray
    blocks: object
    bval: float
    bgrad: np.ndarray
    gap: np.ndarray
    lam: np.ndarray
    duals: _BoundDuals
    g: np.ndarray
    stat: float
    sigma: np.ndarray
    system: object
    prepare_time: float


def prepare(problem, initial_guess, multipliers: Optional[np.ndarray] = None) -> Start:
    """A solve's :class:`Start`: all of its first iteration that reads no
    pin row of ``c``, the first Newton system included; :func:`solve`
    consumes it.  A cold guess (no ``multipliers``) is pushed strictly
    inside the box; a warm guess, such as the plan
    ``quadpath.transcription.warm_start_shift`` returns, is only moved just
    inside it (:meth:`Box.project` at a margin of 1e-6), which keeps its
    active bounds where they are."""
    t_start = time.perf_counter()
    box = problem.box
    # a warm guess is a shifted optimum: keep its active bounds where they are
    w = box.project(initial_guess, _COLD_MARGIN if multipliers is None else _WARM_MARGIN)
    r, c, kept = problem.evaluate(w)
    blocks = problem.row_blocks(kept, ...)
    bval, bgrad, gap = box.barrier(w)
    m = c.shape[0]
    lam = np.zeros(m) if multipliers is None else np.asarray(multipliers, dtype=float).copy()
    if lam.shape != (m,):
        raise ValueError("multiplier vector has the wrong length")
    duals = _BoundDuals(box, gap)
    g, stat = _first_order(problem, blocks, r, bgrad, duals, lam)
    sigma = duals.sigma(gap)
    try:
        system = problem.kkt_system(blocks, g, c, sigma)
    except np.linalg.LinAlgError:
        system = None
    return Start(w, r, c, blocks, bval, bgrad, gap, lam, duals, g, stat, sigma, system,
                 time.perf_counter() - t_start)


def solve(problem, initial_guess, multipliers: Optional[np.ndarray] = None, log=None,
          start: Optional[Start] = None) -> SolveResult:
    """Solve the barrier problem at ``mu = 1e-7`` until its primal-dual
    optimality error (the module docstring's ``E``) is at most 1e-6.

    It runs :func:`prepare`, unless ``start`` holds what ``prepare`` made
    of ``initial_guess`` and ``multipliers`` on ``problem`` or on its
    pin-free structure, then the feedback, whose first Newton step is the
    prepared system with the pins applied (``kkt_feedback``); a
    regularization, a second-order correction and every later iteration
    take ``kkt_step``, and so does the first when the prepared system is
    singular, at the first regularization.  On line search failure, iteration
    exhaustion (50 iterations, dual-only ones included) or a step at the
    rounding floor with the bound duals already at ``mu / gap``, the current
    iterate is returned with the corresponding status; the caller decides what to do with a non-converged first input.
    ``SolveResult.kkt_residual`` is ``E`` at the returned point;
    ``solve_time`` is the feedback's time, ``prepare_time`` the start's.
    """
    if start is None:
        start = prepare(problem, initial_guess, multipliers)
    t_start = time.perf_counter()
    box = problem.box
    # r, c and blocks always hold the values and the Jacobians at w, terms
    # its merit terms, and bval, bgrad and gap its barrier: the accepted
    # line-search point brings its values, merit terms and barrier along,
    # and its Jacobians come from what its evaluation kept; sigma is the
    # bound duals' at w, None once they move
    w, r, c, blocks = start.w, start.r, start.c, start.blocks
    bval, bgrad, gap = start.bval, start.bgrad, start.gap
    lam, duals, g, stat, sigma = start.lam, start.duals, start.g, start.stat, start.sigma
    problem.fill_pins(w, c)
    # the prepared system serves the first attempt of the first iteration
    # alone; a singular one fails that attempt, as its solve would
    prepared = True

    rho = _PENALTY
    iters = 0
    total_trials = 0

    def _finish(stat):
        return SolveResult(
            decision=w, status=stat, kkt_residual=float(kkt_val), iterations=iters,
            solve_time=time.perf_counter() - t_start, multipliers=lam, trials=total_trials,
            prepare_time=start.prepare_time,
        )

    def merit_terms(r, c):
        """``(r @ r, |c|, ||c||_1)`` of a point's residual and equality
        values: its merit's terms but the barrier."""
        abs_c = np.abs(c)
        return float(r @ r), abs_c, float(abs_c.sum())

    def merit_of(terms, bval):
        """Merit at the current rho of a point's merit terms and barrier
        value."""
        return terms[0] + _MU * bval + rho * terms[2]

    terms = merit_terms(r, c)
    if log is not None:
        log.write(f"# solve n={box.n} m={c.shape[0]}\n")

    while True:
        rr, abs_c, c_l1 = terms
        eq_val = float(abs_c.max(initial=0.0))
        # the stopping test and the dual update read the same products
        zgap = duals.z * gap
        kkt_val = max(stat, eq_val, duals.complementarity(zgap))
        if kkt_val <= _TOLERANCE:
            return _finish(CONVERGED)
        if iters >= _ITERATION_CAP:
            return _finish(MAX_ITERATIONS)

        if sigma is None:
            sigma = duals.sigma(gap)
        reg = 0.0
        direction = None
        for _ in range(_MAX_REG_ESCALATIONS):
            first, prepared = prepared, False
            try:
                if not first:
                    dw, lam_new = problem.kkt_step(blocks, g, c, sigma, reg)
                elif start.system is None:
                    raise np.linalg.LinAlgError("singular prepared system")
                else:
                    dw, lam_new = problem.kkt_feedback(start.system, c)
            except np.linalg.LinAlgError:
                reg = max(_REG_FLOOR, reg * 10.0) if reg else _REG_FLOOR
                continue
            descent = float(g @ dw) - rho * c_l1
            if descent < 0.0 or not dw.any():
                direction = (dw, lam_new, descent)
                break
            reg = max(_REG_FLOOR, reg * 10.0) if reg else _REG_FLOOR
        if direction is None:
            return _finish(LINESEARCH_FAILURE)
        dw, lam_new, descent = direction
        # the l1 penalty is exact only above the multiplier scale; grow it
        # when the fresh multiplier estimate exceeds the current weight
        lam_max = float(np.abs(lam_new).max(initial=0.0))
        if 2.0 * lam_max > rho:
            rho = 2.0 * lam_max
            descent = float(g @ dw) - rho * c_l1
            if descent >= 0.0 and dw.any():
                return _finish(LINESEARCH_FAILURE)
        merit0 = rr + _MU * bval + rho * c_l1
        if np.abs(dw).max() <= 100.0 * _EPS * (1.0 + np.abs(w).max()):
            # step at the rounding floor above the tolerance: the primal has
            # no progress left, but duals that lag behind it do; once they
            # sit at mu / gap, nothing has
            if np.array_equal(duals.z, _MU / gap):
                return _finish(MAX_ITERATIONS)
            duals, sigma = _BoundDuals(box, gap), None
            g, stat = _first_order(problem, blocks, r, bgrad, duals, lam)
            iters += 1
            if log is not None:
                _log_line(log, iters, merit0, merit0, 0.0, kkt_val, eq_val, 0, False)
            continue

        noise = 16.0 * _EPS * (1.0 + abs(merit0))
        alpha = box.step_to_boundary(gap, dw, _TAU)
        # the first trial inside the box; most iterations accept it.  point
        # is the candidate, val its (r, c, kept), at its index in kept (...
        # for one point, its row for a pass of halvings) and new_terms its
        # merit terms
        for left in range(_MAX_BACKTRACKS - 1, -1, -1):
            step = alpha * dw
            point = w + step
            bar = box.barrier(point)
            if bar[2] is not None:
                break
            alpha *= _BACKTRACK
        else:
            return _finish(LINESEARCH_FAILURE)
        val, at = problem.evaluate(point), ...
        trials = 1
        soc = False
        new_terms = merit_terms(val[0], val[1])
        merit = merit_of(new_terms, bar[0])  # same rho as merit0
        bound = merit0 + _ARMIJO * alpha * descent
        if not (merit <= bound or abs(alpha * descent) <= noise):
            step = None
            try:
                # second-order correction: the full step's constraint
                # curvature (RK4 gaps grow quadratically along it) makes
                # the l1 merit reject it; re-solve with the trial's gaps
                # and accept the corrected point on the same Armijo bound
                dw_soc, lam_soc = problem.kkt_step(blocks, g, alpha * c + val[1], sigma, reg)
            except np.linalg.LinAlgError:
                pass
            else:
                soc_step = box.step_to_boundary(gap, dw_soc, _TAU) * dw_soc
                point = w + soc_step
                bar_soc = box.barrier(point)
                if bar_soc[2] is not None:
                    val_soc = problem.evaluate(point)
                    trials += 1
                    terms_soc = merit_terms(val_soc[0], val_soc[1])
                    merit_soc = merit_of(terms_soc, bar_soc[0])
                    if merit_soc <= bound:
                        step, merit, val, new_terms, bar, lam_new, soc = (soc_step, merit_soc, val_soc, terms_soc,
                                                                          bar_soc, lam_soc, True)
            if step is None:
                # the halvings left, examined in order; each pass values the
                # next _PASS_ROWS of them inside the box at once
                alphas = []
                for _ in range(left):
                    alpha *= _BACKTRACK
                    alphas.append(alpha)
                steps = np.array(alphas)[:, None] * dw
                points = w + steps
                for head in range(0, left, _PASS_ROWS):
                    rows = head + np.flatnonzero(box.strictly_inside(points[head:head + _PASS_ROWS]))
                    if rows.size:
                        R, C, kept = problem.evaluate(points[rows])
                    for i, j in enumerate(rows):
                        bar = box.barrier(points[j])
                        trials += 1
                        new_terms = merit_terms(R[i], C[i])
                        merit = merit_of(new_terms, bar[0])
                        alpha = alphas[j]
                        if merit <= merit0 + _ARMIJO * alpha * descent or abs(alpha * descent) <= noise:
                            break
                    else:
                        continue
                    step, point = steps[j], points[j]
                    val, at = (R[i], C[i], kept), i
                    break
                else:
                    return _finish(LINESEARCH_FAILURE)

        duals.update(gap, zgap, step)
        w, terms = point, new_terms
        r, c, kept = val
        blocks = problem.row_blocks(kept, at)
        bval, bgrad, gap = bar
        duals.clip(gap)
        sigma = None
        lam = lam_new
        g, stat = _first_order(problem, blocks, r, bgrad, duals, lam)
        iters += 1
        total_trials += trials
        if log is not None:
            _log_line(log, iters, merit, merit0, alpha, kkt_val, eq_val, trials, soc)


def _log_line(log, iters, merit, merit0, alpha, kkt_val, eq_val, trials, soc):
    log.write(
        f"mu={_MU:9.3e} it={iters:3d} merit={merit:.17g} "
        f"merit_before={merit0:.17g} "
        f"alpha={alpha:8.3e} kkt={kkt_val:9.3e} eq={eq_val:9.3e} "
        f"trials={trials} soc={int(soc)}\n"
    )

