"""Multiple-shooting transcription of the path-following OCP.

The horizon of ``N`` equidistant intervals of length ``delta`` is transcribed
with every shooting node as a decision variable.  The decision vector has a
fixed, documented layout:

    [ x_0 .. x_N | u_0 .. u_{N-1} | z_0 .. z_N | v_0 .. v_{N-1} ]

where ``x`` are 9-dim quadrotor states, ``u`` 4-dim inputs, ``z`` the timing
states (2-dim classic, 4-dim corridor ordered [s1, s2, s1_dot, s2_dot]) and
``v`` the virtual inputs (1- or 2-dim).  Equality constraints stack, in
order: the two initial-condition pins, then the state shooting gaps
``x_{k+1} - F(x_k, u_k)`` for k = 0..N-1, then the timing gaps.

The quadratic running cost (rectangle-rule quadrature of the stage cost plus
a terminal cost) is encoded as a weighted least-squares residual, which is
what the Gauss-Newton solver consumes.

No m x n matrix is formed on the solver's path.  With the stage state
``s_k = (x_k, z_k)`` and stage input ``q_k = (u_k, v_k)``, no residual couples
two stages or a state with an input, and the gap into ``s_{k+1}`` involves
only ``s_k`` and ``q_k``.  ``OcpStructure.evaluate`` takes one point or a
stack of them, gathers their stage vectors with index arrays, makes one
path evaluation and one RK4 stage pass for all of them and writes the
stacked residuals ``r`` and gaps ``c`` but the pin rows block by block;
``OcpStructure.row_blocks`` builds the :class:`StageBlocks` of one point
from the path derivatives and stage quantities that pass kept: the path
residual rows over each ``s_k`` and the transitions built from the RK4
sensitivities and the constant timing blocks.  The products the solver
needs (``J^T v`` and ``A^T v``) and the Newton step, which condenses the
shooting states out of the KKT system and solves for the inputs alone, work
on those blocks.
The condensing runs backward, in O(N^2): a forward sweep carries each state
step's dependence on the inputs, a backward sweep gathers the cost gradient
the later stages pass back to each state, and the condensed Hessian and
gradient and the equality multipliers are read off that sweep.  A state the
box holds (freezes) goes through both sweeps like any other, with its hold
``ds_k = 0`` as one more equality: the hold rows border the condensed
Hessian, and their multipliers are extra columns of the backward sweep, so
held and free states take one path.  Everything that does not depend on the
pins has one owner, the read-only :class:`OcpStructure` a controller builds
once: the path, configuration and model, the layout, index arrays, constant
blocks, the box and its held states, and every operation that reads no pin
(``unpack``, ``evaluate`` but its pin rows, ``row_blocks``, ``jt_dot``,
``at_dot``, ``kkt_step``, ``kkt_system`` and ``kkt_feedback``), so a
solve's start, its first Newton system included, is prepared on it before
the measurement.  A problem
(:class:`OcpProblem`) is its two pins on a structure: it defines only what
reads them, ``fill_pins``, ``evaluate`` and ``rollout``.
:func:`warm_start_shift` moves a solution onto the structure's layout,
pin-free too.  The structure rejects a box whose held states the free
inputs of a stage cannot move independently (the held rows of the input
sensitivity at hover have numerical rank below their count): their gap rows
would repeat the pins, and every Newton step would be singular.  The
corridor offset is bounded by ``OcpConfig.s2_bounds`` alone: the box and
the path evaluation read the same bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import ClassVar, NamedTuple

import numpy as np

from .dynamics import (
    ModelParams,
    N_INPUTS,
    N_STATES,
    _rk4_sensitivities,
    _rk4_stages,
    _step_constants,
    rk4_step,
    rk4_step_with_jacobians,
)
from .paths import CorridorPath, step_timing, timing_matrices, wrap_angle
from .solver import Box, SolveResult

INF = np.inf

DEFAULT_STATE_LOWER = np.array([-1.5, -1.5, 0.05, -1.0, -1.0, -1.0, -0.35, -0.35, -INF])
DEFAULT_STATE_UPPER = np.array([1.5, 1.5, 1.2, 1.0, 1.0, 1.0, 0.35, 0.35, INF])
DEFAULT_INPUT_BOUND = np.array([0.15, 0.35, 0.35, 0.5])

DEFAULT_Q_DIAG = np.array([80.0, 80.0, 100.0, 20.0, 1.0, 1.0, 1.0, 5.0])
DEFAULT_R_DIAG = np.array([20.0, 10.0, 10.0, 5.0, 2.0])
DEFAULT_Q_S2 = 5.0
DEFAULT_R_NU2 = 2.0

_STATE_NAMES = ("x", "y", "z", "vx", "vy", "vz", "roll", "pitch", "yaw")


def _as_weight_matrix(diag, size: int, name: str) -> np.ndarray:
    """The diagonal weight matrix of a positive diagonal of length ``size``."""
    diag = np.asarray(diag, dtype=float)
    if diag.shape != (size,):
        raise ValueError(f"{name} diagonal must have length {size}")
    if not np.all((diag > 0.0) & (diag < INF)):
        raise ValueError(f"{name} must be positive definite and finite")
    return np.diag(diag)


@dataclass
class OcpConfig:
    """Horizon, weights and box constraints of the path-following OCP.

    ``corridor=True`` switches to the 4-dim timing state and widens the
    weight matrices by one yaw-offset entry on each of Q and R.
    ``q_weight`` and ``r_weight`` take the diagonals of Q and R; the
    configuration holds the diagonal matrices.  ``s2_bounds`` is the one
    bound of the corridor offset, and must contain 0 in corridor mode.
    """

    horizon: int = 5
    delta: float = 0.05
    corridor: bool = False
    q_weight: np.ndarray | None = None
    r_weight: np.ndarray | None = None
    terminal_weight: float = 50.0
    terminal_weight_s2: float = 5.0
    state_lower: np.ndarray = field(default_factory=lambda: DEFAULT_STATE_LOWER.copy())
    state_upper: np.ndarray = field(default_factory=lambda: DEFAULT_STATE_UPPER.copy())
    input_lower: np.ndarray = field(default_factory=lambda: -DEFAULT_INPUT_BOUND.copy())
    input_upper: np.ndarray = field(default_factory=lambda: DEFAULT_INPUT_BOUND.copy())
    s_dot_max: float = 0.04
    # strictly positive floor realizing "progress rate > 0" as a closed box;
    # small enough that the floor-induced progress drift over one horizon
    # stays below the solver tolerance at the path end
    s_dot_floor: ClassVar[float] = 1e-5
    s2_bounds: tuple[float, float] = (-0.5 * np.pi, 0.5 * np.pi)
    s2_dot_bound: float = 0.5
    nu_bound: float = 0.05
    nu2_bound: float = 0.5

    def __post_init__(self) -> None:
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, Integral):
            raise ValueError("horizon must be an integer")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not (np.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError("delta must be positive and finite")
        if not (0.0 <= self.terminal_weight < INF and 0.0 <= self.terminal_weight_s2 < INF):
            raise ValueError("terminal weights must be nonnegative and finite")
        if not (0.0 < self.s_dot_floor < self.s_dot_max):
            raise ValueError("need 0 < s_dot_floor < s_dot_max")
        nq, nr = (9, 6) if self.corridor else (8, 5)
        if self.q_weight is None:
            diag = DEFAULT_Q_DIAG if not self.corridor else np.append(DEFAULT_Q_DIAG, DEFAULT_Q_S2)
            self.q_weight = np.diag(diag)
        else:
            self.q_weight = _as_weight_matrix(self.q_weight, nq, "Q")
        if self.r_weight is None:
            diag = DEFAULT_R_DIAG if not self.corridor else np.append(DEFAULT_R_DIAG, DEFAULT_R_NU2)
            self.r_weight = np.diag(diag)
        else:
            self.r_weight = _as_weight_matrix(self.r_weight, nr, "R")
        self.state_lower = np.asarray(self.state_lower, dtype=float)
        self.state_upper = np.asarray(self.state_upper, dtype=float)
        self.input_lower = np.asarray(self.input_lower, dtype=float)
        self.input_upper = np.asarray(self.input_upper, dtype=float)
        for lo, hi, what in (
            (self.state_lower, self.state_upper, "state"),
            (self.input_lower, self.input_upper, "input"),
        ):
            if not np.all(lo <= hi):
                raise ValueError(f"{what} bounds are NaN or inverted")
        # a negative half-width is an inverted box, which the solver would
        # otherwise take for a frozen variable
        for name in ("nu_bound", "nu2_bound", "s2_dot_bound"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be nonnegative")
        lo, hi = self.s2_bounds
        if self.corridor and not lo <= 0.0 <= hi:
            raise ValueError("corridor s2_bounds must contain 0")
        if not lo <= hi:
            raise ValueError("s2_bounds are inverted")

    @property
    def n_z(self) -> int:
        return 4 if self.corridor else 2

    @property
    def n_nu(self) -> int:
        return 2 if self.corridor else 1

    def z_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        if self.corridor:
            lo = np.array([-1.0, self.s2_bounds[0], self.s_dot_floor, -self.s2_dot_bound])
            hi = np.array([0.0, self.s2_bounds[1], self.s_dot_max, self.s2_dot_bound])
        else:
            lo = np.array([-1.0, self.s_dot_floor])
            hi = np.array([0.0, self.s_dot_max])
        return lo, hi

    def nu_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        if self.corridor:
            return (
                np.array([-self.nu_bound, -self.nu2_bound]),
                np.array([self.nu_bound, self.nu2_bound]),
            )
        return np.array([-self.nu_bound]), np.array([self.nu_bound])


class StageBlocks(NamedTuple):
    """The point-dependent stage blocks of a horizon problem's Jacobians.

    With ``s_k = (x_k, z_k)`` and ``q_k = (u_k, v_k)``: ``js[k]`` holds the
    path residual rows of stage k over ``s_k`` (only the progress column
    depends on the point); ``f[k] = d s_{k+1}/d s_k`` is
    ``blockdiag(ax_k, Ad)`` and ``g[k] = d s_{k+1}/d q_k`` is
    ``blockdiag(bu_k, Bd)``, with ``ax_k`` and ``bu_k`` the RK4 step
    sensitivities and the constant timing blocks ``Ad``,
    ``Bd``.  The input residual rows and the terminal rows are constant
    (:class:`OcpStructure` ``lr`` and ``jt``).
    """

    js: np.ndarray
    f: np.ndarray
    g: np.ndarray


class OcpStructure:
    """Everything of a horizon problem that does not depend on its pins.

    It holds the path, the configuration and the model parameters, and
    what they fix: the layout and index arrays, the constant Jacobian
    blocks, the box and the held (frozen) states.  It owns every operation
    that reads no pin: :meth:`unpack`, the evaluation of all but the pin
    rows (:meth:`evaluate`), the stage blocks of an evaluation
    (:meth:`row_blocks`), the Jacobian products, the condensed Newton step
    (:meth:`kkt_step`, and split at the pins, :meth:`kkt_system` and
    :meth:`kkt_feedback`).  A controller builds one structure and shares
    it between the problems of its control steps; all of its arrays are
    read-only.

    Raises ``ValueError`` when the path type does not match
    ``config.corridor``, and when the free inputs of a stage cannot move
    the held states independently: the held rows of the stage input
    sensitivity at hover, over the free inputs, have numerical rank below
    their count.
    """

    def __init__(self, path, config: OcpConfig, params: ModelParams):
        if isinstance(path, CorridorPath) != config.corridor:
            raise ValueError("path type does not match config.corridor")
        self.path = path
        self.config = config
        self.params = params
        N = config.horizon
        nx, nu, nz, nv = N_STATES, N_INPUTS, config.n_z, config.n_nu
        nq, nr = config.q_weight.shape[0], config.r_weight.shape[0]
        n_term = 2 if config.corridor else 1
        ns = nx + nz
        self.n_x, self.n_u, self.n_z, self.n_nu = nx, nu, nz, nv
        self.n_res_q, self.n_res_r = nq, nr
        self.n = (N + 1) * ns + N * (nu + nv)
        self.m_eq = (N + 1) * ns
        self.m_res = N * (nq + nr) + n_term

        # decision-vector block offsets
        self.ou = (N + 1) * nx
        self.oz = self.ou + N * nu
        self.ov = self.oz + (N + 1) * nz
        # the first input and the first virtual input, the ones a control
        # step applies
        self.u0 = slice(self.ou, self.ou + nu)
        self.v0 = slice(self.ov, self.ov + nv)

        # index arrays of the stage blocks: state s_k for k = 0..N, input
        # q_k for k < N, and the equality rows of row block k (the pins for
        # k = 0, else the gap into s_k)
        nodes = np.arange(N + 1)[:, None]
        stages = np.arange(N)[:, None]
        self.state_idx = np.hstack([nodes * nx + np.arange(nx),
                                    self.oz + nodes * nz + np.arange(nz)])
        self.input_idx = np.hstack([self.ou + stages * nu + np.arange(nu),
                                    self.ov + stages * nv + np.arange(nv)])
        gap_x = ns                      # row of the gap into x_1
        gap_z = gap_x + N * nx          # row of the gap into z_1
        rows = np.hstack([gap_x + (nodes - 1) * nx + np.arange(nx),
                          gap_z + (nodes - 1) * nz + np.arange(nz)])
        rows[0] = np.arange(ns)         # the pins
        self.row_idx = rows

        # residual rows: path stages, inputs, terminal cost
        sd = np.sqrt(config.delta)
        self.lq = sd * np.linalg.cholesky(config.q_weight).T
        self.lr = sd * np.linalg.cholesky(config.r_weight).T
        dx = np.zeros((nq, nx))
        dx[0:3, 0:3] = np.eye(3)
        dx[3, 8] = 1.0
        dx[4:7, 3:6] = np.eye(3)
        js = np.zeros((N, nq, ns))
        js[:, :, :nx] = self.lq @ dx
        if config.corridor:
            ds2 = np.zeros(nq)
            ds2[0:4] = -path.direction
            ds2[8] = 1.0
            js[:, :, nx + 1] = self.lq @ ds2
        self.js = js  # the progress column is filled per point
        # the entries of w in each stage vector (output, velocity, progress,
        # offset), and the template of the progress column before lq
        self.q_idx = self.state_idx[:N, [0, 1, 2, 8, 3, 4, 5, nx, nx + 1][:nq]]
        self.dz = np.zeros((N, nq))
        self.dz[:, 7] = 1.0
        self.jt = np.zeros((n_term, ns))
        self.jt[0, nx] = np.sqrt(config.terminal_weight)
        if config.corridor:
            self.jt[1, nx + 1] = np.sqrt(config.terminal_weight_s2)
        self.hs_terminal = 2.0 * (self.jt.T @ self.jt)
        # the square roots of the terminal weights, the terminal residual's
        # factors of the final timing state
        self.term_roots = self.jt[:, nx:].diagonal().copy()
        # the constants of one RK4 step of length delta and its sensitivities
        self.rk4_constants = _step_constants(float(config.delta), params)

        # transitions: the constant timing blocks
        self.ad, self.bd = timing_matrices(nz // 2, config.delta)
        self.f = np.zeros((N, ns, ns))
        self.f[:, nx:, nx:] = self.ad
        self.g = np.zeros((N, ns, nu + nv))
        self.g[:, nx:, nu:] = self.bd

        # the box; the equality pin owns stage 0, so its box is freed and
        # the barrier never conflicts with the measurement
        zlo, zhi = config.z_bounds()
        vlo, vhi = config.nu_bounds()
        lower = np.concatenate([np.tile(config.state_lower, N + 1), np.tile(config.input_lower, N),
                                np.tile(zlo, N + 1), np.tile(vlo, N)])
        upper = np.concatenate([np.tile(config.state_upper, N + 1), np.tile(config.input_upper, N),
                                np.tile(zhi, N + 1), np.tile(vhi, N)])
        lower[self.state_idx[0]] = -INF
        upper[self.state_idx[0]] = INF
        self.box = Box(lower, upper)

        # the held (frozen) states and the free inputs, the same at every
        # stage past the first (the box tiles the bounds, the pins free stage
        # 0); the held rows of s_1 see the free inputs of stage 0 alone, so
        # they need full row rank there, or those gap rows repeat the pins
        # and every Newton step is singular.  The rank is taken at hover: at
        # level attitude the vertical thrust axis does not move with the
        # tilt commands, so z and vz see the thrust alone
        fq = self.box.free[self.input_idx[0]]
        self.held = ~self.box.free[self.state_idx[1]]
        if self.held.any():
            g0 = self.g[0].copy()
            g0[:nx, :nu] = rk4_step_with_jacobians(np.zeros(nx), np.zeros(nu), config.delta, params)[2]
            reach = g0[self.held][:, fq]
            timing = ("s1", "s2", "s1dot", "s2dot") if config.corridor else ("s1", "s1dot")
            names = np.array(_STATE_NAMES + timing)[self.held]
            stuck = ~reach.any(axis=1)
            if stuck.any():
                raise ValueError(f"the box freezes the state {', '.join(names[stuck])} and every input "
                                 "that drives it at hover: its gap rows repeat the pins and every Newton "
                                 "step is singular")
            rank = np.linalg.matrix_rank(reach)
            if rank < reach.shape[0]:
                raise ValueError(f"the box freezes the states {', '.join(names)}, which the free inputs reach "
                                 f"with numerical rank {rank} at hover: every Newton step is singular")

        # the free columns of a stage input, the indices of the free inputs
        # and their block of the input Hessian
        self.q_free = np.flatnonzero(fq)
        self.q_free_idx = self.input_idx[:, self.q_free].ravel()
        self.hq_free = 2.0 * (self.lr.T @ self.lr)[np.ix_(self.q_free, self.q_free)]
        # the holds E_k ds_k = 0 of the held states, k = 1..N, as columns:
        # held row j of stage k has its 1 in column (k - 1) n_held + j
        nh = int(self.held.sum())
        self.e_cols = np.zeros((N + 1, ns, N * nh))
        self.e_cols[1:, self.held] = np.eye(N * nh).reshape(N, nh, N * nh)
        # flat positions of the stage-diagonal blocks: G_k in X_{k+1} (shape
        # (ns, width)) and H_q in row block k of the condensed rows (shape
        # (nfi, width)), at the free-input columns of stage k; row 0 for the
        # sweep of the loop, row 1 for the prepared one, whose ns pin columns
        # come before the input columns
        nfi = self.q_free.size
        self.n_kkt = N * (nfi + nh)
        blk = stages[:, :, None]
        pos = []
        for p in (0, ns):
            width = 1 + p + self.n_kkt
            cols = 1 + p + blk * nfi + np.arange(nfi)
            pos.append((((blk + 1) * ns + np.arange(ns)[:, None]) * width + cols,
                        (blk * nfi + np.arange(nfi)[:, None]) * width + cols))
        self.g_pos, self.hq_pos = (np.stack(a) for a in zip(*pos))
        # where a step's dw reads each entry from [ds_0 .. ds_N | dq | 0]
        # (the 0 for the held states and the frozen inputs), and lam each
        # row from the stacked L v
        n_s = self.state_idx.size
        moved = np.ones((N + 1, ns), bool)
        moved[1:] = ~self.held
        self.dw_src = np.full(self.n, n_s + self.q_free_idx.size)
        self.dw_src[self.state_idx[moved]] = np.flatnonzero(moved)
        self.dw_src[self.q_free_idx] = n_s + np.arange(self.q_free_idx.size)
        self.lam_src = np.argsort(self.row_idx.ravel())

        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def unpack(self, w):
        """Views ``(X, U, Z, V)`` of a decision vector, or of a stack of
        them over leading axes."""
        w = np.asarray(w, dtype=float)
        if w.shape[-1:] != (self.n,):
            raise ValueError(f"decision vector must have length {self.n}")
        batch, N = w.shape[:-1], self.config.horizon
        X = w[..., :self.ou].reshape(batch + (N + 1, self.n_x))
        U = w[..., self.ou:self.oz].reshape(batch + (N, self.n_u))
        Z = w[..., self.oz:self.ov].reshape(batch + (N + 1, self.n_z))
        V = w[..., self.ov:].reshape(batch + (N, self.n_nu))
        return X, U, Z, V

    def _path_values(self, Z):
        """Path points and derivatives at the stage progress values.

        The progress is clipped to the path domain and the offset to
        ``config.s2_bounds`` before evaluation: the bounded stages stay
        strictly inside the box anyway, and the pinned (box-free) stage 0
        may wander by linear-solver roundoff.
        """
        s1 = Z[..., 0].clip(-1.0, 0.0)
        if self.config.corridor:
            return self.path.point_and_derivative(s1, Z[..., 1].clip(*self.config.s2_bounds))
        return self.path.point_and_derivative(s1)

    def row_blocks(self, kept, i) -> StageBlocks:
        """The :class:`StageBlocks` of point ``i`` of an
        :meth:`OcpProblem.evaluate` call, from the path derivatives and RK4 stage quantities it
        ``kept``: row ``i`` of a stack, or ``...`` for one point.  No point
        is integrated twice."""
        nx = self.n_x
        dp, trig, axis, scale = kept
        if i is not Ellipsis:
            # row i of a stack; one point's quantities (i is ...) are used as
            # they are: views of them through ... cost 1% of a spiral solve
            dp, trig, axis, scale = dp[i], [t[:, i] for t in trig], axis[:, :, i], scale[i]
        # the path residual rows over s_k depend on w in the progress column
        dz = self.dz.copy()
        np.negative(dp, out=dz[:, 0:4])
        js = self.js.copy()
        js[:, :, nx] = dz @ self.lq.T
        ax, bu = _rk4_sensitivities(trig, axis, scale, *self.rk4_constants[2:])
        f = self.f.copy()
        f[:, :nx, :nx] = ax
        g = self.g.copy()
        g[:, :nx, :self.n_u] = bu
        return StageBlocks(js, f, g)

    # ----- cost and equality constraints, in one pass -------------------------

    def evaluate(self, W):
        """``(R, C, kept)`` at ``W``, one point (shape ``(n,)``) or a stack
        of them (shape ``(k, n)``): the residuals and the equality values,
        stacked like ``W``, with one path evaluation and one RK4 stage pass
        for the whole stack, and the path derivatives and RK4 stage
        quantities ``kept`` from which :meth:`row_blocks` builds the blocks
        of one row.  ``R`` and ``C`` are written block by block, and each
        row is bitwise what the same routine gives for that row alone.  The
        pin rows of ``C`` are left empty (:meth:`OcpProblem.fill_pins`)."""
        W = np.asarray(W, dtype=float)
        X, U, Z, V = self.unpack(W)
        batch, N = W.shape[:-1], self.config.horizon
        nx, nz, nq, nr = self.n_x, self.n_z, self.n_res_q, self.n_res_r
        p, dp = self._path_values(Z[..., :N, :])

        # residual: path stages, inputs, terminal cost; the stage vector is
        # [output - path point (yaw wrapped), velocity, progress (, offset)]
        q = W.take(self.q_idx, axis=-1)
        q[..., 0:4] -= p
        q[..., 3] = wrap_angle(q[..., 3])
        R = np.empty(batch + (self.m_res,))
        np.matmul(q, self.lq.T, out=R[..., :N * nq].reshape(batch + (N, nq)))
        np.matmul(W.take(self.input_idx, axis=-1), self.lr.T,
                  out=R[..., N * nq:N * (nq + nr)].reshape(batch + (N, nr)))
        np.multiply(self.term_roots, Z[..., N, :self.term_roots.size], out=R[..., N * (nq + nr):])

        # gaps: one integration of every row; its stage quantities give the
        # sensitivities of a row on demand
        c_stage, tau = self.rk4_constants[:2]
        fx, trig, axis, scale = _rk4_stages(X[..., :N, :], U, self.config.delta, self.params, c_stage, tau)
        gz = Z[..., :N, :] @ self.ad.T + V @ self.bd.T
        C = np.empty(batch + (self.m_eq,))
        ns, gap_z = nx + nz, nx + nz + N * nx
        np.subtract(X[..., 1:, :], fx, out=C[..., ns:gap_z].reshape(batch + (N, nx)))
        np.subtract(Z[..., 1:, :], gz, out=C[..., gap_z:].reshape(batch + (N, nz)))
        return R, C, (dp, trig, axis, scale)

    # ----- products of the Jacobians ------------------------------------------

    def jt_dot(self, blocks: StageBlocks, v) -> np.ndarray:
        """``J^T v`` for a residual-space vector ``v``."""
        N = self.config.horizon
        nq, nr = self.n_res_q, self.n_res_r
        gs = np.empty(self.state_idx.shape)
        gs[:N] = (v[:N * nq].reshape(N, 1, nq) @ blocks.js)[:, 0]
        gs[N] = v[N * (nq + nr):] @ self.jt
        out = np.empty(self.n)
        out[self.state_idx] = gs
        out[self.input_idx] = v[N * nq:N * (nq + nr)].reshape(N, nr) @ self.lr
        return out

    def at_dot(self, blocks: StageBlocks, v) -> np.ndarray:
        """``A^T v`` for an equality-space vector ``v``: row block k + 1
        reads ``s_{k+1} - f_k s_k - g_k q_k``."""
        vs = v[self.row_idx]
        out = np.empty(self.n)
        out[self.input_idx] = -(vs[1:, None, :] @ blocks.g)[:, 0]
        vs[:-1] -= (vs[1:, None, :] @ blocks.f)[:, 0]
        out[self.state_idx] = vs
        return out

    # ----- Newton step by condensing ------------------------------------------

    def kkt_step(self, blocks: StageBlocks, g, c, sigma, reg):
        """Gauss-Newton step ``(dw, lam)`` with the states condensed out.

        Solves the same system as the dense route of the solver, whose
        Hessian is ``2 J^T J + diag(sigma)`` plus ``reg`` on the free
        diagonal: stationarity on the free entries and every row of
        ``A dw + c = 0``, with frozen entries of ``dw`` at zero.  No residual
        couples two stages, or a state with an input, so the Hessian is
        block diagonal.  The gap rows give every state step as
        ``ds_k = S_k dq + s0_k`` in the input steps, which leaves a system in
        the N*(n_u + n_nu) inputs.  A held state is a state like any other
        here, with its hold ``E_k ds_k = 0`` (k = 1..N) added as an equality
        with its own multiplier ``mu_k``.  That problem has the same ``dw``
        and ``lam``; the held rows of its stationarity in the states only
        fix ``mu``.

        The condensing runs backward (Andersson, Frasch, Vukov & Diehl 2013,
        "A condensing algorithm for nonlinear MPC with a quadratic runtime
        in horizon length"), in O(N^2) instead of O(N^3):

        - forward, ``X_k = [s0_k | S_k | 0] = F_{k-1} X_{k-1} +
          [-c_k | G_{k-1} | 0]``, zero in the columns of ``mu``; the held
          rows of ``X_k`` are the hold rows;
        - backward, ``L_N = Y_N`` and ``L_k = Y_k + F_k^T L_{k+1}``, with
          ``Y_k = [H_s X_k + g_s | E_k^T]`` (``g_s`` in column 0, the hold
          columns ``OcpStructure.e_cols``); ``L_k [1; dq; mu]`` is the
          gradient that the states from stage k on pass back to ``ds_k``;
        - row block i of the condensed Hessian and gradient is
          ``G_i^T L_{i+1}``, plus ``H_q`` and ``g_q``; its hold columns
          are the hold rows transposed, which border the condensed Hessian.

        After the LU solve for ``(dq, mu)``, stationarity in the states,
        ``lam_k = F_k^T lam_{k+1} - (H_s ds + g_s + E^T mu)_k``, is read off
        the backward sweep as ``lam_k = -L_k [1; dq; mu]``.
        Raises ``LinAlgError`` when the condensed system is singular.
        """
        X, L, aug = self._condense(blocks, g, c, sigma, reg, False)
        sol = np.linalg.solve(aug[:, 1:], -aug[:, 0])
        if not np.isfinite(sol).all():
            raise np.linalg.LinAlgError("non-finite KKT solution")
        v = np.empty(aug.shape[1])
        v[0] = 1.0
        v[1:] = sol
        n_s, nf = self.state_idx.size, self.q_free_idx.size
        steps = np.empty(n_s + nf + 1)
        np.matmul(X, v, out=steps[:n_s].reshape(X.shape[:2]))
        steps[n_s:-1] = sol[:nf]
        steps[-1] = 0.0
        lam = L @ v
        np.negative(lam, out=lam)
        return steps[self.dw_src], lam.reshape(-1)[self.lam_src]

    def kkt_system(self, blocks: StageBlocks, g, c, sigma):
        """The step of :meth:`kkt_step` at ``reg = 0`` as its response to
        the pins, which reads no pin row of ``c``.  Both sweeps and the
        condensed rows carry the pins' effect as ``ns`` more columns after
        column 0 (``X_0 = [0 | I | 0]``, so they hold ``F_{k-1} .. F_0``),
        and column 0 is the system with zero pin rows.  One LU solve of the
        condensed matrix for those ``1 + ns`` right-hand sides gives
        ``(dq, mu)`` as ``S u`` in ``u = [1; -c_pin]``, and the state steps,
        input steps and multipliers follow as ``[X_u + X_q S_q; S_q; 0]``
        and ``-(L_u + L_q S)``, with ``S_q`` the rows of ``dq`` and ``X_u``,
        ``L_u`` (``X_q``, ``L_q``) the sweeps' columns of ``u`` (of the
        inputs and holds).  Those two matrices, ``1 + ns`` columns wide,
        are the system :meth:`kkt_feedback` applies the pins to.  Raises
        ``LinAlgError`` when the condensed system is singular or its
        response not finite."""
        X, L, aug = self._condense(blocks, g, c, sigma, 0.0, True)
        n_s, nf = self.state_idx.size, self.q_free_idx.size
        nc = 1 + self.state_idx.shape[1]
        sol = np.linalg.solve(aug[:, nc:], -aug[:, :nc])
        if not np.isfinite(sol).all():
            raise np.linalg.LinAlgError("non-finite KKT solution")
        # one row per state entry; the hold columns of X are zero, as the
        # holds do not move the states
        X, L = X.reshape(n_s, -1), L.reshape(n_s, -1)
        steps = np.empty((n_s + nf + 1, nc))
        np.matmul(X[:, nc:nc + nf], sol[:nf], out=steps[:n_s])
        steps[:n_s] += X[:, :nc]
        steps[n_s:-1] = sol[:nf]
        steps[-1] = 0.0
        lam = L[:, nc:] @ sol
        lam += L[:, :nc]
        np.negative(lam, out=lam)
        return steps, lam

    def kkt_feedback(self, system, c):
        """:meth:`kkt_step` at ``reg = 0`` from the :meth:`kkt_system` of
        its arguments but ``c``, of which it reads the pin rows alone: the
        state and input steps and the multipliers are the system's two
        matrices times ``u = [1; -c_pin]``, two matrix-vector products, and
        no sweep or LU solve runs again.  Raises ``LinAlgError`` when the
        step is not finite."""
        steps, lam = system
        u = np.empty(steps.shape[1])
        u[0] = 1.0
        np.negative(c[:u.size - 1], out=u[1:])
        steps = steps @ u
        lam = lam @ u
        if not (np.isfinite(steps).all() and np.isfinite(lam).all()):
            raise np.linalg.LinAlgError("non-finite KKT solution")
        return steps[self.dw_src], lam[self.lam_src]

    def _condense(self, blocks: StageBlocks, g, c, sigma, reg, pins: bool):
        """The forward sweep ``X``, the backward sweep ``L`` and the
        condensed rows ``aug = [-rhs | kkt]`` of :meth:`kkt_step`, with the
        pin rows of ``c`` in column 0, or with ``pins`` the ``ns`` pin
        columns of :meth:`kkt_system` after it."""
        N = self.config.horizon
        si, qf, ri, held = self.state_idx, self.q_free_idx, self.row_idx, self.held
        ns, nf = si.shape[1], qf.size
        p = ns if pins else 0
        width = 1 + p + self.n_kkt

        # stage Hessians of the states
        jp = blocks.js
        hs = np.empty((N + 1, ns, ns))
        hs[:N] = 2.0 * (jp.transpose(0, 2, 1) @ jp)
        hs[N] = self.hs_terminal
        hs.reshape(N + 1, ns * ns)[:, ::ns + 1] += sigma[si] + reg

        # forward sweep over X_k = [s0_k | S_k | 0] in the free inputs (the
        # hold multipliers do not move the states); row block k + 1 reads
        # ds_{k+1} - F_k ds_k - G_k dq_k + c = 0, and the pins ds_0 + c = 0
        F, G = blocks.f, blocks.g.take(self.q_free, axis=2)
        X = np.zeros((N + 1, ns, width))
        if pins:
            np.negative(c[ri[1:]], out=X[1:, :, 0])
            X[0].reshape(-1)[1:ns * (width + 1):width + 1] = 1.0
        else:
            np.negative(c[ri], out=X[:, :, 0])
        X.reshape(-1)[self.g_pos[int(pins)]] = G
        for f, prev, cur in zip(F, X[:-1], X[1:]):
            cur += f @ prev

        # backward sweep, in place on Y
        L = hs @ X
        L[:, :, 0] += g[si]
        L[:, :, 1 + p + nf:] = self.e_cols
        for f, prev, cur in zip(F[::-1], L[-2::-1], L[:0:-1]):
            prev += f.T @ cur

        # condensed system in the free inputs, bordered by the holds, as
        # [-rhs | kkt]: the gradient rows over the hold rows
        aug = np.empty((self.n_kkt, width))
        np.matmul(G.transpose(0, 2, 1), L[1:], out=aug[:nf].reshape(N, -1, width))
        aug.reshape(-1)[self.hq_pos[int(pins)]] += self.hq_free
        if nf < self.n_kkt:  # some state is held
            aug[nf:] = X[1:, held].reshape(-1, width)
        aug[:nf, 0] += g[qf]
        aug.reshape(-1)[1 + p:nf * (width + 1):width + 1] += sigma[qf] + reg
        return X, L, aug


class OcpProblem:
    """One horizon problem: its two pins ``x0`` and ``z0`` on a shared
    :class:`OcpStructure`, built per control step and treated as immutable.

    It binds the structure's box and pin-free solver members (``row_blocks``,
    ``jt_dot``, ``at_dot``, ``kkt_step``, ``kkt_system``, ``kkt_feedback``),
    and defines only what reads the
    pins: :meth:`fill_pins`, :meth:`evaluate`, :meth:`rollout` and the views
    of one point's evaluation for checks.  The box frees the pinned stage-0 coordinates:
    the equality pin wins over the box.
    """

    def __init__(self, x0, z0, structure: OcpStructure):
        self.structure = structure
        self.box = structure.box
        self.row_blocks, self.jt_dot = structure.row_blocks, structure.jt_dot
        self.at_dot, self.kkt_step = structure.at_dot, structure.kkt_step
        self.kkt_system, self.kkt_feedback = structure.kkt_system, structure.kkt_feedback
        self.x0 = np.asarray(x0, dtype=float).copy()
        self.z0 = np.asarray(z0, dtype=float).copy()
        if self.x0.shape != (N_STATES,):
            raise ValueError("x0 must be a 9-vector")
        if self.z0.shape != (structure.n_z,):
            raise ValueError(f"z0 must have length {structure.n_z}")
        if not np.all(np.isfinite(self.x0)) or not np.all(np.isfinite(self.z0)):
            raise ValueError("initial conditions must be finite")

    def rollout(self, u_seq=None, nu_seq=None) -> np.ndarray:
        """Single-shooting rollout from the pinned initial conditions.

        By construction the result satisfies every shooting gap exactly;
        useful as a cold-start guess and as the feasibility oracle in tests.
        """
        st = self.structure
        w = np.zeros(st.n)
        X, U, Z, V = st.unpack(w)  # views into w
        if u_seq is not None:
            U[:] = np.reshape(u_seq, U.shape)
        if nu_seq is not None:
            V[:] = np.reshape(nu_seq, V.shape)
        X[0] = self.x0
        Z[0] = self.z0
        delta = st.config.delta
        for k in range(st.config.horizon):
            X[k + 1] = rk4_step(X[k], U[k], delta, st.params)
            Z[k + 1] = step_timing(Z[k], V[k], delta)
        return w

    def fill_pins(self, W, C):
        """Write the pin rows of ``C`` at ``W``, which the structure's
        :meth:`~OcpStructure.evaluate` leaves empty."""
        st, nx = self.structure, self.structure.n_x
        np.subtract(W[..., :nx], self.x0, out=C[..., :nx])
        np.subtract(W[..., st.oz:st.oz + st.n_z], self.z0, out=C[..., nx:nx + st.n_z])

    def evaluate(self, W):
        """:meth:`OcpStructure.evaluate` at ``W`` with its pin rows filled."""
        W = np.asarray(W, dtype=float)
        R, C, kept = self.structure.evaluate(W)
        self.fill_pins(W, C)
        return R, C, kept

    # views of one point's evaluation and blocks, for checks; no solve calls
    # them

    def residual(self, w) -> np.ndarray:
        return self.evaluate(w)[0]

    def residual_jacobian(self, w) -> np.ndarray:
        """The path residual rows over ``s_k``, shape ``(N, n_res_q, n_x +
        n_z)``: the blocks of the residual Jacobian that depend on ``w``, in
        their progress column only."""
        return self.row_blocks(self.evaluate(w)[2], ...).js

    def equality(self, w) -> np.ndarray:
        return self.evaluate(w)[1]

    def equality_jacobian(self, w) -> np.ndarray:
        """Dense equality Jacobian at ``w``, its rows ``A^T e_i`` from
        :meth:`at_dot`."""
        blocks = self.row_blocks(self.evaluate(w)[2], ...)
        return np.array([self.at_dot(blocks, e) for e in np.eye(self.structure.m_eq)])


def build_ocp(x0, z0, structure: OcpStructure) -> OcpProblem:
    """Assemble the horizon NLP on ``structure``, pinned at the measured
    state and progress."""
    return OcpProblem(x0, z0, structure)


def warm_start_shift(previous: SolveResult, structure: OcpStructure) -> np.ndarray:
    """Receding-horizon initial guess from the previous optimum; it reads
    no pin, only the layout and model of ``structure``.

    States, inputs and timing quantities are shifted one stage left; the last
    input (and virtual input) is duplicated and the final state/timing node is
    re-propagated with it, so a model-consistent previous solution stays
    feasible.  The shifted plan is returned as it is: the solver projects
    a warm guess strictly inside the box.
    """
    X, U, Z, V = structure.unpack(previous.decision)
    w = np.empty(structure.n)
    X_new, U_new, Z_new, V_new = structure.unpack(w)  # views into w
    delta = structure.config.delta
    X_new[:-1], X_new[-1] = X[1:], rk4_step(X[-1], U[-1], delta, structure.params)
    U_new[:-1], U_new[-1] = U[1:], U[-1]
    Z_new[:-1], Z_new[-1] = Z[1:], step_timing(Z[-1], V[-1], delta)
    V_new[:-1], V_new[-1] = V[1:], V[-1]
    return w
