import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadpath.dynamics import ModelParams
from quadpath.paths import make_path
from quadpath.simulate import run_scenario, scenario_config
from quadpath.solver import prepare
from quadpath.transcription import (
    DEFAULT_INPUT_BOUND,
    DEFAULT_STATE_LOWER,
    DEFAULT_STATE_UPPER,
    OcpConfig,
    OcpProblem,
    OcpStructure,
    build_ocp,
)

from oracles import (
    _barrier_terms,
    equality_jacobian_loop,
    frozen_mask,
    held_states_rejected,
    linearize_assembly,
    newton_direction,
    project_interior,
    quadrature_cost,
    residual_jacobian_loop,
    stage_cost,
    terminal_cost,
    x_slice,
    z_slice,
)

PARAMS = ModelParams()


def classic_problem(s0=-1.0, s_dot0=1e-5):
    cfg = OcpConfig()
    path = make_path("spiral")
    p0 = path.point(s0)
    x0 = np.zeros(9)
    x0[:3] = p0[:3]
    x0[8] = p0[3]
    return build_ocp(x0, np.array([s0, s_dot0]), OcpStructure(path, cfg, PARAMS)), cfg


def corridor_problem():
    cfg = OcpConfig(corridor=True)
    path = make_path("sinusoid-corridor")
    p0 = path.point(-1.0, 0.0)
    x0 = np.zeros(9)
    x0[:3] = p0[:3]
    x0[8] = p0[3]
    return build_ocp(x0, np.array([-1.0, 0.0, 1e-5, 0.0]), OcpStructure(path, cfg, PARAMS)), cfg


def random_path_point(prob, rng):
    """A box-interior point whose progress lies in [-0.9, -0.1] and whose
    offset lies inside ``config.s2_bounds`` at every stage, the box-free
    stage 0 included, so the path evaluation clips neither."""
    st = prob.structure
    w = random_interior_iterate(prob, rng)
    _, _, Z, _ = st.unpack(w)  # a view into w
    Z[:, 0] = rng.uniform(-0.9, -0.1, len(Z))
    if st.config.corridor:
        Z[:, 1] = rng.uniform(*st.config.s2_bounds, len(Z))
    return w


def finite_difference_columns(prob, w, rng, h, size=25):
    """Up to ``size`` free columns of ``w`` whose steps ``+-h`` keep the
    offset inside ``config.s2_bounds``, where the path evaluation clips it:
    on a zero-width corridor the pinned stage-0 offset sits on the kink of
    that clip, and every later offset is held."""
    ok = prob.box.free.copy()
    st = prob.structure
    if st.config.corridor:
        s2 = st.state_idx[:, st.n_x + 1]
        lo, hi = st.config.s2_bounds
        ok[s2] &= (w[s2] - h >= lo) & (w[s2] + h <= hi)
    cols = np.flatnonzero(ok)
    return rng.choice(cols, size=min(size, cols.size), replace=False)


# the finite-difference checks draw a horizon for each point; the narrow
# corridor's offset can reach its bounds, the zero-width one's is held
FINITE_DIFFERENCE_KINDS = pytest.mark.parametrize(
    "kind", ["classic", "corridor", "zero-width", "narrow"],
    ids=["classic_problem", "corridor_problem", "zero_width_problem", "narrow_corridor_problem"])


class TestBookkeeping:
    def test_classic_dimensions(self):
        prob, cfg = classic_problem()
        assert prob.structure.n == 6 * (9 + 2) + 5 * (4 + 1) == 91
        assert prob.structure.m_eq == 5 * 11 + 11 == 66

    def test_corridor_dimensions(self):
        prob, cfg = corridor_problem()
        assert prob.structure.n == 6 * (9 + 4) + 5 * (4 + 2) == 108
        assert prob.structure.m_eq == 6 * 13 == 78

    def test_no_inequality_rows(self):
        prob, _ = classic_problem()
        assert not hasattr(prob, "inequality")
        assert prob.box.lower.shape == prob.box.upper.shape == (prob.structure.n,)


class TestStageCost:
    def test_zero_at_origin(self):
        cfg = OcpConfig()
        assert stage_cost(np.zeros(4), np.zeros(3), [0.0], np.zeros(4), [0.0], cfg) == 0.0

    def test_unit_error_identity_weight(self):
        cfg = OcpConfig(q_weight=np.ones(8), r_weight=np.ones(5))
        val = stage_cost([1.0, 0, 0, 0], np.zeros(3), [0.0], np.zeros(4), [0.0], cfg)
        assert val == pytest.approx(1.0, abs=1e-15)

    def test_quadratic_homogeneity(self):
        cfg = OcpConfig()
        rng = np.random.default_rng(11)
        e, v, z, u, nu = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 3), [0.3], rng.uniform(-1, 1, 4), [0.02]
        base = stage_cost(e, v, z, u, nu, cfg)
        scaled = stage_cost(2 * e, 2 * v, [0.6], 2 * u, [0.04], cfg)
        assert scaled == pytest.approx(4.0 * base, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        cfg = OcpConfig()
        with pytest.raises(ValueError):
            stage_cost(np.zeros(3), np.zeros(3), [0.0], np.zeros(4), [0.0], cfg)


class TestTerminalCost:
    def test_zero_at_path_end(self):
        assert terminal_cost([0.0, 0.01], OcpConfig()) == 0.0

    def test_quadratic(self):
        cfg = OcpConfig(terminal_weight=10.0)
        assert terminal_cost([-1.0, 0.01], cfg) == pytest.approx(10.0, abs=1e-15)

    def test_corridor_offset_term(self):
        cfg = OcpConfig(corridor=True, terminal_weight=10.0, terminal_weight_s2=1.0)
        base = terminal_cost([-1.0, 0.0, 0.01, 0.0], cfg)
        with_s2 = terminal_cost([-1.0, 0.5 * np.pi, 0.01, 0.0], cfg)
        assert with_s2 - base == pytest.approx(np.pi**2 / 4.0, rel=1e-12)


class TestEqualityConstraints:
    def test_rollout_is_feasible(self):
        prob, cfg = classic_problem()
        rng = np.random.default_rng(12)
        u_seq = rng.uniform(-0.05, 0.05, (cfg.horizon, 4))
        nu_seq = rng.uniform(-0.01, 0.01, (cfg.horizon, 1))
        w = prob.rollout(u_seq, nu_seq)
        assert np.max(np.abs(prob.equality(w))) < 1e-10

    def test_corridor_rollout_is_feasible(self):
        prob, cfg = corridor_problem()
        w = prob.rollout()
        assert np.max(np.abs(prob.equality(w))) < 1e-10

    @FINITE_DIFFERENCE_KINDS
    def test_jacobian_matches_finite_differences(self, kind):
        rng = np.random.default_rng(13)
        h = 1e-6
        for _ in range(3):
            prob = horizon_problem(kind, int(rng.integers(1, 13)))
            w = random_path_point(prob, rng)
            A = prob.equality_jacobian(w)
            for i in finite_difference_columns(prob, w, rng, h):
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                col = (prob.equality(wp) - prob.equality(wm)) / (2 * h)
                denom = np.maximum(np.abs(col), 1.0)
                assert np.max(np.abs(A[:, i] - col) / denom) < 1e-5


class TestResidualJacobian:
    """The stage blocks of one point's evaluation against the dense stage
    loops."""

    @pytest.mark.parametrize("kind", ["classic", "corridor", "zero-width"])
    @pytest.mark.parametrize("horizon", [1, 5, 20])
    def test_equals_stage_loop_bitwise(self, kind, horizon):
        # the rows J^T e_i of the solver's product and the rows A^T e_i of
        # the equality_jacobian view are the loops' (array_equal: -0.0 is
        # 0.0), and the other three check views are the evaluation's
        prob = horizon_problem(kind, horizon)
        rng = np.random.default_rng(17)
        for _ in range(5):
            w = random_interior_iterate(prob, rng)
            r, c, blocks = linearized(prob, w)
            J = np.array([prob.jt_dot(blocks, e) for e in np.eye(prob.structure.m_res)])
            assert np.array_equal(J, residual_jacobian_loop(prob, w))
            assert np.array_equal(prob.equality_jacobian(w), equality_jacobian_loop(prob, w))
            for got, ref in ((prob.residual(w), r), (prob.equality(w), c), (prob.residual_jacobian(w), blocks.js)):
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("kind", ["classic", "corridor", "zero-width"])
    @pytest.mark.parametrize("horizon", [1, 5, 20])
    def test_linearize_equals_concatenated_assembly_bitwise(self, kind, horizon):
        # one point's evaluation and its blocks (row_blocks at ...) are the
        # assembly's, and every row of one batched evaluation, with its
        # blocks, is that row's evaluation alone
        prob = horizon_problem(kind, horizon)
        rng = np.random.default_rng(23)
        yaw = np.arange(horizon + 1) * prob.structure.n_x + 8
        W = np.empty((6, prob.structure.n))
        for trial, w in enumerate(W):
            w[:] = random_interior_iterate(prob, rng)
            if trial % 2:
                # yaw errors across the wrap seam; yaw has no box
                w[yaw] += rng.uniform(-3.0 * np.pi, 3.0 * np.pi, horizon + 1)
            r, c, kept = prob.evaluate(w)
            one = (r, c, *prob.row_blocks(kept, ...))
            for got, ref in zip(one, linearize_assembly(prob, w)):
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        R, C, kept = prob.evaluate(W)
        for i, w in enumerate(W):
            r, c, one = prob.evaluate(w)
            for got, ref in zip((R[i], C[i], *prob.row_blocks(kept, i)), (r, c, *prob.row_blocks(one, ...))):
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("kind", ["classic", "corridor", "zero-width"])
    @pytest.mark.parametrize("horizon", [1, 5, 20])
    def test_products_match_dense(self, kind, horizon):
        prob = horizon_problem(kind, horizon)
        free = ~frozen_mask(prob.box.lower, prob.box.upper)
        assert np.array_equal(prob.box.free, free)
        rng = np.random.default_rng(19)
        for _ in range(3):
            w = random_interior_iterate(prob, rng)
            r, c, blocks = linearized(prob, w)
            J, A = residual_jacobian_loop(prob, w), equality_jacobian_loop(prob, w)
            lam = rng.normal(0.0, 1.0, prob.structure.m_eq)
            for got, ref in ((prob.jt_dot(blocks, r), J.T @ r), (prob.at_dot(blocks, lam), A.T @ lam)):
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
            # every equality row involves a free variable
            assert np.all(np.max(np.abs(A[:, free]), axis=1) > 1e-14)


# the structure's members a problem binds
PIN_FREE_MEMBERS = ("row_blocks", "jt_dot", "at_dot", "kkt_step", "kkt_system", "kkt_feedback")


class TestPinIndependence:
    """Only the pin rows of ``C`` read the pins: two problems on one
    structure agree in everything else, and share its pin-free members."""

    @pytest.mark.parametrize("kind", ["classic", "corridor", "zero-width"])
    @pytest.mark.parametrize("horizon", [1, 5, 20])
    def test_problems_on_one_structure_differ_only_in_the_pin_rows(self, kind, horizon):
        prob = horizon_problem(kind, horizon)
        st = prob.structure
        rng = np.random.default_rng(29)
        other = build_ocp(prob.x0 + rng.normal(0.0, 0.05, 9), prob.z0 + rng.uniform(0.01, 0.02, st.n_z), st)
        pins = st.n_x + st.n_z
        W = np.stack([random_interior_iterate(prob, rng) for _ in range(3)])
        for w in (W[0], W):
            (R, C, kept), (R2, C2, kept2) = prob.evaluate(w), other.evaluate(w)
            assert R.tobytes() == R2.tobytes()
            for a, b in zip((kept[0], *kept[1], *kept[2:]), (kept2[0], *kept2[1], *kept2[2:])):
                assert a.tobytes() == b.tobytes()
            assert C[..., pins:].tobytes() == C2[..., pins:].tobytes()
            assert np.all(C[..., :pins] != C2[..., :pins])
        for p in (prob, other):
            assert set(vars(p)) == {"structure", "box", "x0", "z0", *PIN_FREE_MEMBERS}
            assert p.box is st.box
            for name in PIN_FREE_MEMBERS:
                member = getattr(p, name)
                assert member.__self__ is st and member.__func__ is getattr(OcpStructure, name)

    @pytest.mark.parametrize("kind", ["classic", "corridor", "zero-width"])
    @pytest.mark.parametrize("horizon", [1, 5, 20])
    def test_the_prepared_system_reads_no_pin(self, kind, horizon):
        # the first Newton system of a start prepared on the structure, on
        # two pinned problems of it, and built with NaN pin rows in c
        prob = horizon_problem(kind, horizon)
        st = prob.structure
        rng = np.random.default_rng(31)
        other = build_ocp(prob.x0 + rng.normal(0.0, 0.05, 9), prob.z0 + rng.uniform(0.01, 0.02, st.n_z), st)
        guess = random_interior_iterate(prob, rng)
        multipliers = rng.normal(0.0, 1.0, st.m_eq)
        starts = [prepare(owner, guess, multipliers) for owner in (st, prob, other)]
        _, _, c, blocks, _, _, _, _, _, g, _, sigma, system, _ = starts[0]
        c = c.copy()
        c[:st.n_x + st.n_z] = np.nan
        systems = [start[12] for start in starts] + [st.kkt_system(blocks, g, c, sigma)]
        assert all(np.isfinite(a).all() for a in system)
        for other_system in systems[1:]:
            assert [a.tobytes() for a in other_system] == [a.tobytes() for a in system]


# the values at which ``horizon_problem`` holds a quadrotor state
HOLD_VALUES = {"x": 0.0, "y": 0.0, "z": 0.5, "vx": 0.0, "vy": 0.0, "vz": 0.0, "pitch": 0.0}
STATE_NAMES = ["x", "y", "z", "vx", "vy", "vz", "roll", "pitch", "yaw", "s1", "s2", "s1dot", "s2dot"]


def horizon_problem(kind, horizon, freeze_input=False, hold=(), **overrides):
    """Classic, corridor, zero-width-corridor, narrow-corridor (offset
    within 0.1) or planar (roll and roll command frozen at zero) problem at
    the path start; ``freeze_input`` closes the yaw-rate command's box to
    zero, ``hold`` names quadrotor states whose box closes at
    ``HOLD_VALUES``, and ``overrides`` are further :class:`OcpConfig`
    fields."""
    kw = {"horizon": horizon}
    if hold:
        kw["state_lower"] = DEFAULT_STATE_LOWER.copy()
        kw["state_upper"] = DEFAULT_STATE_UPPER.copy()
        for name in hold:
            j = STATE_NAMES.index(name)
            kw["state_lower"][j] = kw["state_upper"][j] = HOLD_VALUES[name]
    if freeze_input or kind == "planar":
        kw["input_lower"] = -DEFAULT_INPUT_BOUND.copy()
        kw["input_upper"] = DEFAULT_INPUT_BOUND.copy()
    if freeze_input:
        kw["input_lower"][3] = kw["input_upper"][3] = 0.0
    if kind == "planar":
        kw["input_lower"][1] = kw["input_upper"][1] = 0.0
        kw.setdefault("state_lower", DEFAULT_STATE_LOWER.copy())
        kw.setdefault("state_upper", DEFAULT_STATE_UPPER.copy())
        kw["state_lower"][6] = kw["state_upper"][6] = 0.0
    if kind in ("classic", "planar"):
        path = make_path("spiral")
        p0, z0 = path.point(-1.0), np.array([-1.0, 1e-5])
    else:
        widths = {"zero-width": (0.0, 0.0), "narrow": (-0.1, 0.1)}
        kw.update(corridor=True, s2_bounds=widths.get(kind, (-0.5 * np.pi, 0.5 * np.pi)))
        path = make_path("sinusoid-corridor")
        p0, z0 = path.point(-1.0, 0.0), np.array([-1.0, 0.0, 1e-5, 0.0])
    x0 = np.zeros(9)
    x0[:3] = p0[:3]
    x0[8] = p0[3]
    return build_ocp(x0, z0, OcpStructure(path, OcpConfig(**kw, **overrides), PARAMS))


def linearized(prob, w):
    """``(r, c, blocks)`` at ``w``: one point's evaluation and the stage
    blocks of what it kept."""
    r, c, kept = prob.evaluate(w)
    return r, c, prob.row_blocks(kept, ...)


def random_interior_iterate(prob, rng):
    """A perturbed rollout, strictly inside the box (off the gap manifold)."""
    st = prob.structure
    N = st.config.horizon
    w = prob.rollout(rng.uniform(-0.1, 0.1, (N, st.n_u)), rng.uniform(-0.01, 0.01, (N, st.n_nu)))
    return project_interior(w + rng.normal(0.0, 0.05, st.n), prob.box.lower, prob.box.upper, 1e-3)


def kkt_relative_residual(h, g, A, c, free, keep, dw, lam):
    """Normwise backward error of ``(dw, lam)`` in the dense KKT system."""
    hf = h[np.ix_(free, free)]
    af = A[np.ix_(keep, free)]
    kkt = np.block([[hf, af.T], [af, np.zeros((af.shape[0], af.shape[0]))]])
    x = np.concatenate([dw[free], lam[keep]])
    b = -np.concatenate([g[free], c[keep]])
    return np.max(np.abs(kkt @ x - b)) / (np.linalg.norm(kkt, np.inf) * np.max(np.abs(x))
                                         + np.max(np.abs(b)))


def check_condensed_step(prob, rng, sigma_max, regs, check_lam):
    """``kkt_step`` at a random interior iterate against the dense KKT solve:
    ``dw`` to 1e-9 and the KKT backward error to 1e-12 (both routes), and
    with ``check_lam`` the multipliers of the kept rows to 1e-10."""
    free = prob.box.free
    w = random_interior_iterate(prob, rng)
    r, c, blocks = linearized(prob, w)
    J, A = residual_jacobian_loop(prob, w), equality_jacobian_loop(prob, w)
    _, bgrad = _barrier_terms(w, prob.box.lower, prob.box.upper, free)
    g = 2.0 * J.T @ r + 1e-2 * bgrad
    sigma = np.where(free, rng.uniform(0.0, sigma_max, prob.structure.n), 0.0)
    keep = np.max(np.abs(A[:, free]), axis=1) > 1e-14
    assert keep.all()
    h = 2.0 * J.T @ J + np.diag(sigma)
    for reg in regs:
        dw_ref, lam_ref = newton_direction(h, g, A, c, free, keep, reg)
        dw, lam = prob.kkt_step(blocks, g, c, sigma, reg)
        assert np.max(np.abs(dw - dw_ref)) <= 1e-9 * np.max(np.abs(dw_ref))
        assert not np.any(dw[~free])
        if check_lam:
            assert np.max(np.abs(lam - lam_ref)) <= 1e-10 * np.max(np.abs(lam_ref))
        hr = h + reg * np.diag(free.astype(float))
        for d, l in ((dw, lam), (dw_ref, lam_ref)):
            assert kkt_relative_residual(hr, g, A, c, free, keep, d, l) <= 1e-12


class TestCondensedStep:
    """``OcpStructure.kkt_step`` against the dense KKT solve."""

    @pytest.mark.parametrize("kind", ["classic", "corridor", "zero-width"])
    @pytest.mark.parametrize("horizon", [1, 5, 20, 40])
    def test_matches_dense_newton_direction(self, kind, horizon):
        # the zero-width corridor holds s2 at every stage past the first:
        # its multipliers agree with the dense route only to about 1e-8, so
        # it keeps the backward-error check alone
        rng = np.random.default_rng(18)
        for freeze_input in (False, True):
            prob = horizon_problem(kind, horizon, freeze_input)
            assert np.sum(~prob.box.free) == horizon * (freeze_input + (kind == "zero-width"))
            for _ in range(2):
                check_condensed_step(prob, rng, 10.0, (0.0, 1e-4), kind != "zero-width")

    @pytest.mark.parametrize("kind", ["classic", "corridor", "zero-width"])
    @pytest.mark.parametrize("horizon", [1, 5, 20])
    def test_feedback_matches_the_loop_step_and_the_dense_route(self, kind, horizon):
        # random pins applied to the prepared system: the step of the
        # in-loop kkt_step at reg = 0 and of the dense KKT solve
        rng = np.random.default_rng(37)
        prob = horizon_problem(kind, horizon)
        st, free = prob.structure, prob.box.free
        ns = st.n_x + st.n_z
        for _ in range(3):
            w = random_interior_iterate(prob, rng)
            r, c, blocks = linearized(prob, w)
            J, A = residual_jacobian_loop(prob, w), equality_jacobian_loop(prob, w)
            g = 2.0 * J.T @ r
            sigma = np.where(free, rng.uniform(0.0, 10.0, st.n), 0.0)
            open_pins = c.copy()
            open_pins[:ns] = np.nan
            system = st.kkt_system(blocks, g, open_pins, sigma)
            c[:ns] = rng.normal(0.0, 0.05, ns)
            dw, lam = st.kkt_feedback(system, c)
            dw_loop, lam_loop = st.kkt_step(blocks, g, c, sigma, 0.0)
            assert np.max(np.abs(dw - dw_loop)) <= 1e-10 * np.max(np.abs(dw_loop))
            assert np.max(np.abs(lam - lam_loop)) <= 1e-10 * np.max(np.abs(lam_loop))
            # the held offsets of the zero-width corridor leave its systems
            # conditioned so that the dense route agrees only to about 1e-8:
            # it keeps the backward-error check alone
            h = 2.0 * J.T @ J + np.diag(sigma)
            keep = np.ones(st.m_eq, bool)
            dw_ref, lam_ref = newton_direction(h, g, A, c, free, keep, 0.0)
            assert kkt_relative_residual(h, g, A, c, free, keep, dw, lam) <= 1e-12
            if kind != "zero-width":
                assert np.max(np.abs(dw - dw_ref)) <= 1e-9 * np.max(np.abs(dw_ref))
                assert np.max(np.abs(lam - lam_ref)) <= 1e-10 * np.max(np.abs(lam_ref))

    def test_non_finite_steps_are_refused(self):
        # a NaN gradient at a free input reaches every step of the sweeps'
        # solve, and NaN pin rows every step of the feedback
        prob = horizon_problem("classic", 5)
        st = prob.structure
        w = project_interior(prob.rollout(), prob.box.lower, prob.box.upper, 1e-3)
        r, c, blocks = linearized(prob, w)
        g = 2.0 * prob.jt_dot(blocks, r)
        sigma = np.zeros(st.n)
        system = st.kkt_system(blocks, g, c, sigma)
        nan_pins = c.copy()
        nan_pins[:st.n_x + st.n_z] = np.nan
        g[st.q_free_idx[0]] = np.nan
        for refused in (lambda: st.kkt_step(blocks, g, c, sigma, 0.0), lambda: st.kkt_system(blocks, g, c, sigma),
                        lambda: st.kkt_feedback(system, nan_pins)):
            with pytest.raises(np.linalg.LinAlgError, match="non-finite KKT solution"):
                refused()

    @settings(max_examples=100, deadline=None)
    @given(horizon=st.integers(1, 12), kind=st.sampled_from(["classic", "corridor", "zero-width"]),
           freeze_input=st.booleans(), hold=st.sets(st.sampled_from(["z", "pitch"])),
           seed=st.integers(0, 2**32 - 1), sigma_max=st.floats(0.0, 10.0),
           reg=st.sampled_from([0.0, 1e-4]))
    def test_matches_dense_newton_direction_on_drawn_problems(self, horizon, kind, freeze_input, hold,
                                                             seed, sigma_max, reg):
        # 0 to 3 held states: z, pitch and the zero-width corridor's s2
        prob = horizon_problem(kind, horizon, freeze_input, hold)
        check_condensed_step(prob, np.random.default_rng(seed), sigma_max, (reg,), False)


class TestFrozenBoxes:
    """A box is rejected when the structure is built if the free inputs of a
    stage cannot move its held states independently (numerical rank of the
    held rows at the hover linearization below their count): the first gap
    rows of those states would repeat the pins, so every Newton step would
    be singular."""

    @pytest.mark.parametrize("kind, horizon, overrides, message", [
        ("planar", 1, {}, "freezes the state roll and every input"),
        ("planar", 5, {}, "freezes the state roll and every input"),
        ("planar", 20, {}, "freezes the state roll and every input"),
        ("corridor", 5, {"s2_dot_bound": 0.0, "nu2_bound": 0.0}, "freezes the state s2dot and every input"),
        ("zero-width", 5, {"nu2_bound": 0.0}, "freezes the state s2 and every input"),
        # six held rows, each reached by some input, on four inputs
        ("classic", 5, {"hold": ["x", "y", "z", "vx", "vy", "vz"]},
         "freezes the states x, y, z, vx, vy, vz, which the free inputs reach with numerical rank 3 at hover"),
        # a full matching (z to thrust, vz to a tilt command), but at level
        # attitude z and vz see the thrust alone
        ("classic", 1, {"hold": ["z", "vz"]},
         "freezes the states z, vz, which the free inputs reach with numerical rank 1 at hover"),
        ("corridor", 5, {"hold": ["z", "vz"]},
         "freezes the states z, vz, which the free inputs reach with numerical rank 1 at hover"),
    ], ids=["planar-1", "planar-5", "planar-20", "s2dot-and-nu2", "s2-and-nu2", "position-and-velocity",
            "z-and-vz-1", "z-and-vz-corridor-5"])
    def test_state_frozen_with_its_inputs_rejected(self, kind, horizon, overrides, message):
        with pytest.raises(ValueError, match=message):
            horizon_problem(kind, horizon, **overrides)

    @pytest.mark.parametrize("kind, freeze_input, held", [
        ("zero-width", False, ["s2"]),
        ("classic", True, []),
        ("corridor", True, []),
        ("classic", False, ["z"]),
        ("zero-width", False, ["z", "pitch", "s2"]),
    ], ids=["zero-width", "classic-freeze-input", "corridor-freeze-input", "held-z", "held-z-pitch-s2"])
    def test_boxes_a_free_input_reaches_still_build(self, kind, freeze_input, held):
        hold = [name for name in held if name in HOLD_VALUES]
        rng = np.random.default_rng(23)
        for horizon in (1, 5, 20):
            prob = horizon_problem(kind, horizon, freeze_input, hold)
            st = prob.structure
            assert [STATE_NAMES[j] for j in np.flatnonzero(st.held)] == held
            assert st.e_cols.shape == (horizon + 1, st.held.size, horizon * len(held))
            # the pins free stage 0; every later stage holds the same states
            assert np.array_equal(~prob.box.free[st.state_idx], np.vstack([np.zeros_like(st.held)]
                                                                           + [st.held] * horizon))
            check_condensed_step(prob, rng, 10.0, (0.0, 1e-4), not held)

    @settings(max_examples=300, deadline=None)
    @given(corridor=st.booleans(), held=st.sets(st.sampled_from(STATE_NAMES[:9] + ["s2", "s2dot"])),
           frozen=st.sets(st.integers(0, 5)))
    def test_rejected_exactly_when_the_two_test_rule_says(self, corridor, held, frozen):
        # held quadrotor states and frozen inputs (the yaw-rate command
        # included) close their boxes at zero; the corridor holds s2 and
        # s2dot and freezes its virtual inputs through its bounds
        kw = {"horizon": 1, "corridor": corridor}
        lower, upper = DEFAULT_STATE_LOWER.copy(), DEFAULT_STATE_UPPER.copy()
        for name in held & set(STATE_NAMES[:9]):
            j = STATE_NAMES.index(name)
            lower[j] = upper[j] = 0.0
        in_lower, in_upper = -DEFAULT_INPUT_BOUND.copy(), DEFAULT_INPUT_BOUND.copy()
        for j in frozen & {0, 1, 2, 3}:
            in_lower[j] = in_upper[j] = 0.0
        if 4 in frozen:
            kw["nu_bound"] = 0.0
        if corridor:
            kw["s2_bounds"] = (0.0, 0.0) if "s2" in held else (-0.5 * np.pi, 0.5 * np.pi)
            kw["s2_dot_bound"] = 0.0 if "s2dot" in held else 0.5
            kw["nu2_bound"] = 0.0 if 5 in frozen else 0.5
        cfg = OcpConfig(state_lower=lower, state_upper=upper, input_lower=in_lower, input_upper=in_upper, **kw)
        path = make_path("sinusoid-corridor" if corridor else "spiral")
        if held_states_rejected(cfg, PARAMS):
            with pytest.raises(ValueError, match="the box freezes the state"):
                OcpStructure(path, cfg, PARAMS)
        else:
            OcpStructure(path, cfg, PARAMS)


class TestCost:
    @pytest.mark.parametrize("make", [classic_problem, corridor_problem])
    def test_residual_route_equals_quadrature_route(self, make):
        prob, _ = make()
        rng = np.random.default_rng(14)
        for _ in range(5):
            w = random_path_point(prob, rng)
            r = prob.residual(w)
            assert abs(float(r @ r) - quadrature_cost(prob, w)) < 1e-10

    @FINITE_DIFFERENCE_KINDS
    def test_gauss_newton_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(15)
        h = 1e-6
        for _ in range(3):
            prob = horizon_problem(kind, int(rng.integers(1, 13)))
            w = random_path_point(prob, rng)
            r, _, blocks = linearized(prob, w)
            g = 2.0 * prob.jt_dot(blocks, r)
            for i in finite_difference_columns(prob, w, rng, h):
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                fd = (quadrature_cost(prob, wp) - quadrature_cost(prob, wm)) / (2 * h)
                assert abs(g[i] - fd) / max(abs(fd), 1.0) < 1e-5

    def test_hover_at_path_end_candidate_is_cheap(self):
        cfg = OcpConfig()
        path = make_path("spiral")
        s0 = -2.0 * cfg.s_dot_floor * cfg.horizon * cfg.delta
        p_end = path.point(s0)
        x0 = np.zeros(9)
        x0[:3] = p_end[:3]
        x0[8] = p_end[3]
        prob = build_ocp(x0, np.array([s0, cfg.s_dot_floor]), OcpStructure(path, cfg, PARAMS))
        cost = quadrature_cost(prob, prob.rollout())
        assert cost < 1e-6  # only the progress-rate floor contributes


class TestBounds:
    def test_ordering_and_progress_box(self):
        prob, cfg = classic_problem()
        assert np.all(prob.box.lower <= prob.box.upper)
        for k in range(1, cfg.horizon + 1):
            zs = z_slice(prob, k)
            assert prob.box.lower[zs.start] == -1.0
            assert prob.box.upper[zs.start] == 0.0
            assert prob.box.lower[zs.start + 1] == cfg.s_dot_floor
            assert prob.box.upper[zs.start + 1] == cfg.s_dot_max

    def test_stage_zero_pin_is_freed(self):
        prob, _ = classic_problem()
        assert np.all(np.isinf(prob.box.lower[x_slice(prob, 0)]))
        assert np.all(np.isinf(prob.box.upper[z_slice(prob, 0)]))


class TestConfigValidation:
    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            OcpConfig(horizon=0)

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            OcpConfig(delta=-0.1)

    def test_wrong_weight_size(self):
        with pytest.raises(ValueError):
            OcpConfig(q_weight=np.ones(7))

    def test_non_positive_definite_weight(self):
        for bad in (-1.0, 0.0):
            q = np.ones(8)
            q[0] = bad
            with pytest.raises(ValueError, match="Q must be positive definite"):
                OcpConfig(q_weight=q)

    @pytest.mark.parametrize("x0, z0, message", [
        (np.zeros(8), [-1.0, 1e-5], "x0 must be a 9-vector"),
        (np.zeros(9), [-1.0, 1e-5, 0.0], "z0 must have length 2"),
        (np.r_[np.nan, np.zeros(8)], [-1.0, 1e-5], "initial conditions must be finite"),
    ], ids=["short-x0", "long-z0", "nan-x0"])
    def test_bad_initial_conditions_rejected(self, x0, z0, message):
        structure = OcpStructure(make_path("spiral"), OcpConfig(), PARAMS)
        with pytest.raises(ValueError, match=message):
            OcpProblem(x0, z0, structure)

    def test_path_config_mismatch(self):
        with pytest.raises(ValueError):
            OcpStructure(make_path("spiral"), OcpConfig(corridor=True), PARAMS)

    @pytest.mark.parametrize("name", ["nu_bound", "nu2_bound", "s2_dot_bound"])
    def test_negative_half_width_rejected(self, name):
        # an inverted box would otherwise be taken for a frozen variable
        with pytest.raises(ValueError, match=name):
            OcpConfig(corridor=True, **{name: -0.01})
        OcpConfig(corridor=True, **{name: 0.0})  # a closed box is allowed

    def test_scenario_with_inverted_box_fails_before_flying(self):
        # it used to fly with the virtual input frozen and fail every step
        with pytest.raises(ValueError, match="nu_bound"):
            run_scenario(scenario_config("spiral", total_time=3.0, nu_bound=-0.01))

    def test_scenario_freezing_tilt_and_tilt_command_fails_before_flying(self):
        # it used to fly with roll, pitch and their commands frozen and fail
        # every step
        with pytest.raises(ValueError, match="freezes the state roll, pitch and every input"):
            run_scenario(scenario_config("spiral", total_time=3.0, tilt_bound=0.0, tilt_cmd_bound=0.0))

    def test_inverted_s2_bounds_rejected(self):
        for corridor in (False, True):
            with pytest.raises(ValueError, match="s2_bounds"):
                OcpConfig(corridor=corridor, s2_bounds=(0.2, -0.2))

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta"):
            OcpConfig(delta=delta)

    @pytest.mark.parametrize("horizon", [2.5, 5.0, True])
    def test_horizon_must_be_integer(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            OcpConfig(horizon=horizon)
        assert OcpConfig(horizon=np.int64(3)).horizon == 3
