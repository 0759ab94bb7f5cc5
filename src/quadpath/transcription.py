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
what the Gauss-Newton solver consumes.  The solver's Newton step comes from
``OcpProblem.kkt_step``, which condenses the shooting states out of the KKT
system and solves for the inputs alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .dynamics import (
    ModelParams,
    N_INPUTS,
    N_STATES,
    output_map,
    rk4_step,
    rk4_step_with_jacobians,
)
from .paths import CorridorPath, Path, path_error, step_timing, timing_matrices

INF = np.inf

DEFAULT_STATE_LOWER = np.array([-1.5, -1.5, 0.05, -1.0, -1.0, -1.0, -0.35, -0.35, -INF])
DEFAULT_STATE_UPPER = np.array([1.5, 1.5, 1.2, 1.0, 1.0, 1.0, 0.35, 0.35, INF])
DEFAULT_INPUT_BOUND = np.array([0.15, 0.35, 0.35, 0.5])

DEFAULT_Q_DIAG = np.array([80.0, 80.0, 100.0, 20.0, 1.0, 1.0, 1.0, 5.0])
DEFAULT_R_DIAG = np.array([20.0, 10.0, 10.0, 5.0, 2.0])
DEFAULT_Q_S2 = 5.0
DEFAULT_R_NU2 = 2.0


def _as_weight_matrix(w, size: int, name: str) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        if w.shape != (size,):
            raise ValueError(f"{name} diagonal must have length {size}")
        if np.any(w <= 0.0):
            raise ValueError(f"{name} must be positive definite")
        return np.diag(w)
    if w.shape != (size, size):
        raise ValueError(f"{name} must be {size}x{size}")
    if not np.allclose(w, w.T, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    np.linalg.cholesky(w)  # raises if not positive definite
    return w


@dataclass
class OcpConfig:
    """Horizon, weights and box constraints of the path-following OCP.

    ``corridor=True`` switches to the 4-dim timing state and widens the
    weight matrices by one yaw-offset entry on each of Q and R.
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
    s_dot_floor: float = 1e-5
    s2_bounds: tuple[float, float] = (-0.5 * np.pi, 0.5 * np.pi)
    s2_dot_bound: float = 0.5
    nu_bound: float = 0.05
    nu2_bound: float = 0.5

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.terminal_weight < 0.0 or self.terminal_weight_s2 < 0.0:
            raise ValueError("terminal weights must be nonnegative")
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
            if np.any(lo > hi):
                raise ValueError(f"{what} bounds are inverted")

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


class OcpProblem:
    """NLP view of one horizon: residuals, equalities, box bounds and the
    structured Newton step.

    Instances are built per control step (the initial conditions are baked
    in) and treated as immutable.  The bound vectors free the pinned stage-0
    coordinates (the equality pin wins over the box; a clamping event is
    recorded when the measurement violates the original box).
    """

    def __init__(self, x0, z0, path, config: OcpConfig, params: ModelParams):
        self.config = config
        self.params = params
        self.path = path
        self.x0 = np.asarray(x0, dtype=float).copy()
        self.z0 = np.asarray(z0, dtype=float).copy()
        if self.x0.shape != (N_STATES,):
            raise ValueError("x0 must be a 9-vector")
        if self.z0.shape != (config.n_z,):
            raise ValueError(f"z0 must have length {config.n_z}")
        if not np.all(np.isfinite(self.x0)) or not np.all(np.isfinite(self.z0)):
            raise ValueError("initial conditions must be finite")
        corridor_path = isinstance(path, CorridorPath)
        if corridor_path != config.corridor:
            raise ValueError("path type does not match config.corridor")

        N = config.horizon
        self.n_x = N_STATES
        self.n_u = N_INPUTS
        self.n_z = config.n_z
        self.n_nu = config.n_nu
        self.n = (N + 1) * (self.n_x + self.n_z) + N * (self.n_u + self.n_nu)
        self.m_eq = (N + 1) * (self.n_x + self.n_z)

        # decision-vector block offsets
        self._ox = 0
        self._ou = (N + 1) * self.n_x
        self._oz = self._ou + N * self.n_u
        self._ov = self._oz + (N + 1) * self.n_z

        sd = np.sqrt(config.delta)
        self._lq = sd * np.linalg.cholesky(config.q_weight).T
        self._lr = sd * np.linalg.cholesky(config.r_weight).T
        self.n_res_q = config.q_weight.shape[0]
        self.n_res_r = config.r_weight.shape[0]
        self._n_term = 2 if config.corridor else 1
        self.m_res = N * (self.n_res_q + self.n_res_r) + self._n_term

        self._ad, self._bd = timing_matrices(self.n_z // 2, config.delta)

        self.lower, self.upper, self.clamp_events = self._assemble_bounds()
        self._init_stage_indices()
        self._init_residual_jacobian()

    # ----- layout helpers ---------------------------------------------------

    def x_slice(self, k: int) -> slice:
        return slice(self._ox + k * self.n_x, self._ox + (k + 1) * self.n_x)

    def u_slice(self, k: int) -> slice:
        return slice(self._ou + k * self.n_u, self._ou + (k + 1) * self.n_u)

    def z_slice(self, k: int) -> slice:
        return slice(self._oz + k * self.n_z, self._oz + (k + 1) * self.n_z)

    def nu_slice(self, k: int) -> slice:
        return slice(self._ov + k * self.n_nu, self._ov + (k + 1) * self.n_nu)

    def _init_stage_indices(self):
        """Index arrays of the stage blocks: state s_k = (x_k, z_k) for
        k = 0..N, input q_k = (u_k, v_k) for k < N, the equality rows of row
        block k (the pins for k = 0, else the gap into s_k) and the residual
        rows of the path stages, the inputs and the terminal cost."""
        N = self.config.horizon
        nx, nz = self.n_x, self.n_z
        nodes = np.arange(N + 1)[:, None]
        stages = np.arange(N)[:, None]
        self._state_idx = np.hstack([self._ox + nodes * nx + np.arange(nx),
                                     self._oz + nodes * nz + np.arange(nz)])
        self._input_idx = np.hstack([self._ou + stages * self.n_u + np.arange(self.n_u),
                                     self._ov + stages * self.n_nu + np.arange(self.n_nu)])
        gap_x = nx + nz                 # row of the gap into x_1
        gap_z = gap_x + N * nx          # row of the gap into z_1
        rows = np.hstack([gap_x + (nodes - 1) * nx + np.arange(nx),
                          gap_z + (nodes - 1) * nz + np.arange(nz)])
        rows[0] = np.arange(nx + nz)    # the pins
        self._row_idx = rows
        nq, nr = self.n_res_q, self.n_res_r
        self._path_rows = np.arange(N * nq).reshape(N, nq)
        self._input_rows = N * nq + np.arange(N * nr).reshape(N, nr)
        self._term_rows = np.arange(N * (nq + nr), self.m_res)

    def unpack(self, w):
        w = np.asarray(w, dtype=float)
        if w.shape != (self.n,):
            raise ValueError(f"decision vector must have length {self.n}")
        N = self.config.horizon
        X = w[self._ox:self._ou].reshape(N + 1, self.n_x)
        U = w[self._ou:self._oz].reshape(N, self.n_u)
        Z = w[self._oz:self._ov].reshape(N + 1, self.n_z)
        V = w[self._ov:].reshape(N, self.n_nu)
        return X, U, Z, V

    def pack(self, X, U, Z, V) -> np.ndarray:
        return np.concatenate([np.ravel(X), np.ravel(U), np.ravel(Z), np.ravel(V)])

    # ----- model propagation (shared with warm starting) ---------------------

    def step_state(self, x, u) -> np.ndarray:
        return rk4_step(x, u, self.config.delta, self.params)

    def step_timing(self, z, nu) -> np.ndarray:
        return step_timing(z, nu, self.config.delta)

    def rollout(self, u_seq=None, nu_seq=None) -> np.ndarray:
        """Single-shooting rollout from the pinned initial conditions.

        By construction the result satisfies every shooting gap exactly;
        useful as a cold-start guess and as the feasibility oracle in tests.
        """
        N = self.config.horizon
        U = np.zeros((N, self.n_u)) if u_seq is None else np.asarray(u_seq, dtype=float).reshape(N, self.n_u)
        V = np.zeros((N, self.n_nu)) if nu_seq is None else np.asarray(nu_seq, dtype=float).reshape(N, self.n_nu)
        X = np.empty((N + 1, self.n_x))
        Z = np.empty((N + 1, self.n_z))
        X[0] = self.x0
        Z[0] = self.z0
        for k in range(N):
            X[k + 1] = self.step_state(X[k], U[k])
            Z[k + 1] = self.step_timing(Z[k], V[k])
        return self.pack(X, U, Z, V)

    # ----- bounds -----------------------------------------------------------

    def _assemble_bounds(self):
        N = self.config.horizon
        zlo, zhi = self.config.z_bounds()
        vlo, vhi = self.config.nu_bounds()
        lower = np.concatenate([
            np.tile(self.config.state_lower, N + 1),
            np.tile(self.config.input_lower, N),
            np.tile(zlo, N + 1),
            np.tile(vlo, N),
        ])
        upper = np.concatenate([
            np.tile(self.config.state_upper, N + 1),
            np.tile(self.config.input_upper, N),
            np.tile(zhi, N + 1),
            np.tile(vhi, N),
        ])
        events = []
        for name, value, lo, hi in (
            ("state", self.x0, self.config.state_lower, self.config.state_upper),
            ("path", self.z0, zlo, zhi),
        ):
            bad = (value < lo) | (value > hi)
            for idx in np.flatnonzero(bad):
                events.append(
                    f"pinned {name}[{idx}]={value[idx]:.6g} outside box "
                    f"[{lo[idx]:.6g}, {hi[idx]:.6g}]"
                )
        # the equality pin owns stage 0; free its box so the barrier never
        # conflicts with the measurement
        lower[self.x_slice(0)] = -INF
        upper[self.x_slice(0)] = INF
        lower[self.z_slice(0)] = -INF
        upper[self.z_slice(0)] = INF
        return lower, upper, events

    # ----- cost --------------------------------------------------------------

    def _reference(self, Z):
        """Path points at the stage progress values.

        The progress is clipped to the path domain before evaluation: the
        bounded stages stay strictly inside [-1, 0] anyway, and the pinned
        (box-free) stage 0 may wander by linear-solver roundoff.
        """
        s1 = np.clip(Z[..., 0], -1.0, 0.0)
        if self.config.corridor:
            lo, hi = self.path.s2_bounds
            p = self.path.point(s1, np.clip(Z[..., 1], lo, hi))
        else:
            p = self.path.point(s1)
        return p

    def residual(self, w) -> np.ndarray:
        X, U, Z, V = self.unpack(w)
        N = self.config.horizon
        p = self._reference(Z[:N])
        e = path_error(output_map(X[:N]), p)
        if self.config.corridor:
            zpart = Z[:N, 0:2]
        else:
            zpart = Z[:N, 0:1]
        q_vec = np.concatenate([e, X[:N, 3:6], zpart], axis=1)
        r_vec = np.concatenate([U, V], axis=1)
        res_q = q_vec @ self._lq.T
        res_r = r_vec @ self._lr.T
        term = [np.sqrt(self.config.terminal_weight) * Z[N, 0]]
        if self.config.corridor:
            term.append(np.sqrt(self.config.terminal_weight_s2) * Z[N, 1])
        return np.concatenate([res_q.ravel(), res_r.ravel(), np.array(term)])

    def _init_residual_jacobian(self):
        """The residual Jacobian's constant entries; only the path-error rows
        of the progress columns depend on the iterate."""
        N = self.config.horizon
        dx = np.zeros((self.n_res_q, self.n_x))
        dx[0:3, 0:3] = np.eye(3)
        dx[3, 8] = 1.0
        dx[4:7, 3:6] = np.eye(3)
        J = np.zeros((self.m_res, self.n))
        rows = self._path_rows[:, :, None]
        J[rows, self._state_idx[:N, None, :self.n_x]] = self._lq @ dx
        J[self._input_rows[:, :, None], self._input_idx[:, None, :]] = self._lr
        zN = self.z_slice(N).start
        J[self._term_rows[0], zN] = np.sqrt(self.config.terminal_weight)
        if self.config.corridor:
            J[self._term_rows[1], zN + 1] = np.sqrt(self.config.terminal_weight_s2)
        self._jac = J
        # d(stage residual)/dz before the weighting, less the -dp column
        dz = np.zeros((N, self.n_res_q, self.n_z))
        dz[:, 7, 0] = 1.0
        if self.config.corridor:
            dz[:, 0:4, 1] = -self.path.direction
            dz[:, 8, 1] = 1.0
        self._dz = dz
        self._dz_at = (rows, self._state_idx[:N, None, self.n_x:])

    def residual_jacobian(self, w) -> np.ndarray:
        _, _, Z, _ = self.unpack(w)
        N = self.config.horizon
        dz = self._dz.copy()
        dz[:, 0:4, 0] = -self.path.derivative(np.clip(Z[:N, 0], -1.0, 0.0))
        J = self._jac.copy()
        J[self._dz_at] = self._lq @ dz
        return J

    # ----- equality constraints ----------------------------------------------

    def _gaps(self, w):
        """Equality values ``c`` and their Jacobian ``A`` at ``w``: one RK4
        integration gives the state gaps and their sensitivities."""
        X, U, Z, V = self.unpack(w)
        N = self.config.horizon
        fx, ax, bu = rk4_step_with_jacobians(X[:N], U, self.config.delta, self.params)
        gz = Z[:N] @ self._ad.T + V @ self._bd.T
        c = np.concatenate([
            X[0] - self.x0,
            Z[0] - self.z0,
            (X[1:] - fx).ravel(),
            (Z[1:] - gz).ravel(),
        ])
        # row block k holds the pins (k = 0) or the gap into s_k = (x_k, z_k)
        nx, nu = self.n_x, self.n_u
        rows = self._row_idx[:, :, None]
        si, qi = self._state_idx[:, None, :], self._input_idx[:, None, :]
        A = np.zeros((self.m_eq, self.n))
        A[rows, si] = np.eye(nx + self.n_z)
        A[rows[1:, :nx], si[:N, :, :nx]] = -ax
        A[rows[1:, nx:], si[:N, :, nx:]] = -self._ad
        A[rows[1:, :nx], qi[:, :, :nu]] = -bu
        A[rows[1:, nx:], qi[:, :, nu:]] = -self._bd
        return c, A

    def equality(self, w) -> np.ndarray:
        return self._gaps(w)[0]

    def equality_jacobian(self, w) -> np.ndarray:
        return self._gaps(w)[1]

    def linearize(self, w):
        """``(r, J, c, A)`` at ``w``, with one RK4 integration."""
        c, A = self._gaps(w)
        return self.residual(w), self.residual_jacobian(w), c, A

    # ----- Newton step by condensing ------------------------------------------

    def kkt_step(self, J, A, g, c, sigma, free, keep, reg):
        """Gauss-Newton step ``(dw, lam)`` with the states condensed out.

        Solves the same system as the dense route of the solver, whose
        Hessian is ``2 J^T J + diag(sigma)`` plus ``reg`` on the free
        diagonal: stationarity on the free entries and the ``keep`` rows of
        ``A dw + c = 0``, with frozen entries of ``dw`` and the multipliers of
        dropped rows at zero.  No residual couples two stages, or a state
        with an input, so the Hessian is block diagonal.  The gap rows give
        every state step as ``ds = S dq + s0`` in the input steps, which
        leaves a system in the N*(n_u + n_nu) inputs.  A frozen state is held
        at zero; its kept gap row becomes an equality row of that system.
        The other multipliers follow backward from stationarity in the
        states.  Raises ``LinAlgError`` when the condensed system is singular.
        """
        N = self.config.horizon
        si, qi, ri = self._state_idx, self._input_idx, self._row_idx
        ns, nqi = si.shape[1], qi.shape[1]
        nq = N * nqi

        # stage Hessians of the states and of the inputs
        jp = J[self._path_rows[:, :, None], si[:N, None, :]]
        jt = J[self._term_rows[:, None], si[N]]
        hs = np.empty((N + 1, ns, ns))
        hs[:N] = 2.0 * (jp.transpose(0, 2, 1) @ jp)
        hs[N] = 2.0 * (jt.T @ jt)
        diag = np.arange(ns)
        hs[:, diag, diag] += sigma[si] + reg
        ju = J[self._input_rows[:, :, None], qi[:, None, :]]
        hq = 2.0 * (ju.transpose(0, 2, 1) @ ju)
        diag = np.arange(nqi)
        hq[:, diag, diag] += sigma[qi] + reg

        # row block k + 1 reads ds_{k+1} - F_k ds_k - G_k dq_k + c = 0
        F = -A[ri[1:, :, None], si[:N, None, :]]
        G = -A[ri[1:, :, None], qi[:, None, :]]
        cs = c[ri]
        held = ~free[si]
        fixed = held & keep[ri]
        S = np.zeros((N + 1, ns, nq))
        s0 = np.empty((N + 1, ns))
        s0[0] = -cs[0]
        e_rows, e_vals = [], []
        for k in range(N + 1):
            if k:  # s_k moves with the inputs before stage k only
                done = (k - 1) * nqi
                S[k, :, :done] = F[k - 1] @ S[k - 1, :, :done]
                S[k, :, done:done + nqi] = G[k - 1]
                s0[k] = F[k - 1] @ s0[k - 1] - cs[k]
            if held[k].any():
                e_rows.append(-S[k, fixed[k]])
                e_vals.append(-s0[k, fixed[k]])
                S[k, held[k]] = 0.0
                s0[k, held[k]] = 0.0

        # condensed system in the free inputs, with the frozen states' rows
        flat = S.reshape(-1, nq)
        hc = flat.T @ (hs @ S).reshape(-1, nq)
        stage = np.arange(N)
        hc.reshape(N, nqi, N, nqi)[stage, :, stage, :] += hq
        gc = flat.T @ ((hs @ s0[..., None])[..., 0] + g[si]).ravel() + g[qi].ravel()
        fq = free[qi].ravel()
        nf = int(np.sum(fq))
        eq = np.vstack(e_rows)[:, fq] if e_rows else np.zeros((0, nf))
        me = eq.shape[0]
        kkt = np.zeros((nf + me, nf + me))
        kkt[:nf, :nf] = hc[fq][:, fq]
        kkt[:nf, nf:] = eq.T
        kkt[nf:, :nf] = eq
        rhs = -np.concatenate([gc[fq]] + e_vals)
        sol = np.linalg.solve(kkt, rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError("non-finite KKT solution")

        dq = np.zeros(nq)
        dq[fq] = sol[:nf]
        ds = S @ dq + s0
        # stationarity in s_k: lam_k = F_k^T lam_{k+1} - (H_s ds + g_s)_k
        v = (hs @ ds[..., None])[..., 0] + g[si]
        lam_s = np.zeros((N + 1, ns))
        lam_s[fixed] = sol[nf:]
        lam_s[N] = np.where(held[N], lam_s[N], -v[N])
        for k in range(N - 1, -1, -1):
            lam_s[k] = np.where(held[k], lam_s[k], F[k].T @ lam_s[k + 1] - v[k])

        dw = np.zeros(self.n)
        dw[si] = ds
        dw[qi] = dq.reshape(N, nqi)
        lam = np.zeros(self.m_eq)
        lam[ri] = lam_s
        return dw, lam


def build_ocp(x0, z0, path: Union[Path, CorridorPath], config: OcpConfig, params: ModelParams) -> OcpProblem:
    """Assemble the horizon NLP pinned at the measured state and progress."""
    return OcpProblem(x0, z0, path, config, params)
