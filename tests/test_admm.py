import math

import numpy as np
import pytest

import minsplit.admm
from minsplit import (
    PartialMatrix,
    Prng,
    SepProblem,
    admm_auglag_step,
    admm_avg_step,
    admm_solve,
    asalm_init,
    asalm_solve,
    asalm_step,
    averaged_to_auglag,
    consensus_spread,
    cycle_laplacian,
    dual_ops,
    gen_consensus,
    gen_rpca,
    identity_prox_block,
    kkt_residual,
    mt_step,
    op_norm,
    pdhg_solve,
    pdhg_stepsizes,
    prox_abs,
    prox_l1,
    rpca_problem,
)
from minsplit.admm import _DualBlockOp
from minsplit.errors import ParameterError, SubproblemError

from conftest import count_calls, firmness_gap, quadratic_block


def quad_problem(n_blocks, m, seed, ridge=0.4):
    r = np.random.default_rng(seed)
    qs, qv, amats = [], [], []
    for _ in range(n_blocks):
        p_ = r.standard_normal((3, 3))
        qs.append(p_.T @ p_ + ridge * np.eye(3))
        qv.append(r.standard_normal(3))
        amats.append(r.standard_normal((m, 3)))
    b = r.standard_normal(m)
    blocks = tuple(quadratic_block(qs[i], qv[i], amats[i]) for i in range(n_blocks))
    return SepProblem(blocks=blocks, b=b), (qs, qv, amats, b)


def analytic_kkt(qs, qv, amats, b):
    n = len(qs)
    dims = [q.shape[0] for q in qs]
    m = b.size
    total = sum(dims) + m
    key = np.zeros((total, total))
    rhs = np.zeros(total)
    off = 0
    offsets = []
    for i in range(n):
        offsets.append(off)
        key[off : off + dims[i], off : off + dims[i]] = qs[i]
        key[off : off + dims[i], -m:] = amats[i].T
        key[-m:, off : off + dims[i]] = amats[i]
        rhs[off : off + dims[i]] = -qv[i]
        off += dims[i]
    rhs[-m:] = b
    sol = np.linalg.solve(key, rhs)
    w_star = [sol[offsets[i] : offsets[i] + dims[i]] for i in range(n)]
    return w_star, sol[-m:]


# ---------------------------------------------------------------------------
# averaged form


def test_avg_step_trivial_zero_recursion():
    blocks = tuple(quadratic_block(np.zeros((2, 2)), np.zeros(2), np.eye(2))
                   for _ in range(3))
    p = SepProblem(blocks=blocks, b=np.zeros(2))
    z, w = admm_avg_step(p, np.zeros((2, 2)), 0.5)
    assert np.array_equal(z, np.zeros((2, 2)))
    assert all(np.array_equal(wi, np.zeros(2)) for wi in w)


def test_two_block_matches_direct_relaxed_recursion():
    # direct transcription of the two-block recursion as the oracle
    p, (qs, qv, amats, b) = quad_problem(2, 4, seed=1)
    gamma = 0.9
    z = np.zeros((1, 4))
    z_direct = np.zeros(4)
    b1, b2 = p.blocks
    for _ in range(200):
        z, w = admm_avg_step(p, z, gamma)
        u1 = b1.solve(z_direct)
        u2 = b2.solve(2.0 * b1.apply(u1) - b + z_direct)
        z_direct = z_direct + gamma * (b1.apply(u1) + b2.apply(u2) - b)
        assert np.linalg.norm(w[0] - u1) <= 1e-10
        assert np.linalg.norm(w[1] - u2) <= 1e-10
        assert np.linalg.norm(z[0] - z_direct) <= 1e-10


def test_lasso_style_two_block():
    # split l1-regularised least squares: w1 carries the l1 term with
    # identity map, w2 the quadratic, constraint w1 - w2 = 0
    r = np.random.default_rng(7)
    x_mat = r.standard_normal((8, 3))
    y_vec = r.standard_normal(8)
    lam = 0.3
    l1 = identity_prox_block(lambda u: prox_l1(u, lam), 3, coercive=True, label="l1")
    quad = quadratic_block(x_mat.T @ x_mat, -x_mat.T @ y_vec, -np.eye(3))
    p = SepProblem(blocks=(l1, quad), b=np.zeros(3))
    rep = admm_solve(p, form="averaged", gamma=0.9, tol=1e-12, max_iter=20000)
    assert rep.converged
    w = rep.w[0]
    # subgradient optimality of the lasso solution
    grad = x_mat.T @ (x_mat @ w - y_vec)
    for j in range(3):
        if abs(w[j]) > 1e-10:
            assert abs(grad[j] + lam * np.sign(w[j])) <= 1e-6
        else:
            assert abs(grad[j]) <= lam + 1e-6


def test_avg_solve_reaches_analytic_kkt():
    p, data = quad_problem(2, 4, seed=2)
    w_star, x_star = analytic_kkt(*data)
    rep = admm_solve(p, form="averaged", gamma=0.9, tol=1e-12, max_iter=50000)
    assert rep.converged
    for i in range(2):
        assert np.linalg.norm(rep.w[i] - w_star[i]) <= 1e-8


def test_infeasible_problem_reports_nonconvergence():
    a_col = np.array([[1.0], [0.0]])
    blocks = tuple(
        quadratic_block(np.array([[1.0]]), np.zeros(1), a_col) for _ in range(2)
    )
    p = SepProblem(blocks=blocks, b=np.array([0.0, 1.0]))
    rep = admm_solve(p, form="averaged", gamma=0.5, tol=1e-8, max_iter=500)
    assert not rep.converged


def test_point_blocks_immediately_feasible():
    target = np.array([1.0, -2.0, 0.5])
    point = identity_prox_block(lambda u: target.copy(), 3, coercive=True)
    p = SepProblem(blocks=(point,) * 3, b=3.0 * target)
    z, w = admm_avg_step(p, np.zeros((2, 3)), 0.5)
    assert np.linalg.norm(sum(w) - p.b) <= 1e-14


# ---------------------------------------------------------------------------
# augmented Lagrangian form


@pytest.mark.parametrize("n_blocks,gamma", [(2, 0.6), (3, 0.3), (3, 0.95), (4, 0.8)])
def test_form_equivalence(n_blocks, gamma):
    p, _ = quad_problem(n_blocks, 5, seed=10 + n_blocks)
    z = np.zeros((n_blocks - 1, 5))
    mu, w_prev = averaged_to_auglag(p, z, gamma)
    z_avg, _ = admm_avg_step(p, z, gamma)
    worst = 0.0
    for _ in range(300):
        z_avg, w_avg = admm_avg_step(p, z_avg, gamma)
        mu, w_aug = admm_auglag_step(p, mu, w_prev, gamma)
        w_prev = w_aug
        for i in range(n_blocks):
            worst = max(worst, float(np.linalg.norm(w_avg[i] - w_aug[i])))
    assert worst <= 1e-10


def test_auglag_gamma_one_collapses_to_classical_admm():
    p, _ = quad_problem(2, 4, seed=3)
    b1, b2 = p.blocks
    mu = np.zeros((2, 4))
    w_prev = [np.zeros(3), np.zeros(3)]
    mus, w1s, w2s = [], [], []
    for _ in range(60):
        mu, w = admm_auglag_step(p, mu, w_prev, 1.0)
        w_prev = w
        mus.append(mu.copy())
        w1s.append(w[0])
        w2s.append(w[1])
    # at gamma = 1 the two multiplier blocks coincide exactly
    assert all(np.array_equal(m[0], m[1]) for m in mus)
    # and the sweep is classical single-multiplier ADMM (second block first)
    m_cl = mus[0][1].copy()
    u1 = w1s[0].copy()
    for t in range(1, 60):
        u2 = b2.solve(b1.apply(u1) - p.b + m_cl)
        u1_next = b1.solve(b2.apply(u2) - p.b + m_cl)
        m_cl = m_cl + b1.apply(u1_next) + b2.apply(u2) - p.b
        assert np.linalg.norm(u2 - w2s[t - 1]) <= 1e-10
        assert np.linalg.norm(u1_next - w1s[t]) <= 1e-10
        u1 = u1_next


def test_auglag_solver_converges():
    p, data = quad_problem(3, 4, seed=4)
    w_star, _ = analytic_kkt(*data)
    rep = admm_solve(p, form="auglag", gamma=0.8, tol=1e-11, max_iter=50000)
    assert rep.converged
    for i in range(3):
        assert np.linalg.norm(rep.w[i] - w_star[i]) <= 1e-7


def test_dual_reconstruction_consistency():
    p, data = quad_problem(3, 4, seed=5)
    tol = 1e-10
    rep = admm_solve(p, form="averaged", gamma=0.8, tol=tol, max_iter=100000)
    assert rep.converged
    assert rep.kkt.dual_spread <= 10.0 * tol
    _, x_star = analytic_kkt(*data)
    assert np.linalg.norm(rep.duals[0] - x_star) <= 1e-6


def test_auglag_solve_seeded_by_averaged_to_auglag_tracks_the_averaged_form():
    # the rpca workload's start: the seeded run's sweep k gives the averaged form's
    # w at sweep k + 1; unseeded, the same run starts from zero multipliers
    inst = gen_rpca(10, 10, 3)
    p = rpca_problem(PartialMatrix(values=inst.observed, mask=inst.omega), 0.25, 0.1)
    z0 = np.zeros((p.n - 1, p.b.size))

    def gap(a, b):
        return max(float(np.max(np.abs(u - v))) for u, v in zip(a.w, b.w))

    for sweeps in range(2, 7):
        averaged = admm_solve(p, gamma=0.8, tol=0.0, max_iter=sweeps)
        seeded = admm_solve(p, form="auglag", gamma=0.8, init=averaged_to_auglag(p, z0, 0.8),
                            tol=0.0, max_iter=sweeps - 1)
        cold = admm_solve(p, form="auglag", gamma=0.8, tol=0.0, max_iter=sweeps - 1)
        assert gap(averaged, seeded) <= 1e-10
        assert gap(averaged, cold) > 1e-2


# ---------------------------------------------------------------------------
# dual operator bridge


def test_dual_ops_reproduce_averaged_iteration():
    p, _ = quad_problem(3, 5, seed=6)
    fops = dual_ops(p)
    z_dual = np.zeros((2, 5))
    z_admm = np.zeros((2, 5))
    for _ in range(200):
        z_dual, _ = mt_step(z_dual, fops, 0.7)
        z_admm, _ = admm_avg_step(p, z_admm, 0.7)
        assert np.linalg.norm(z_dual - z_admm) <= 1e-10


def test_dual_ops_are_firmly_nonexpansive(rng):
    p, _ = quad_problem(2, 4, seed=7)
    for op in dual_ops(p):
        for _ in range(50):
            gap = firmness_gap(op, rng.standard_normal(4), rng.standard_normal(4))
            assert gap <= 1e-10
    with pytest.raises(ParameterError):
        dual_ops(p)[0].resolvent(np.zeros(4), step=0.5)


# ---------------------------------------------------------------------------
# composition rule for proximity operators: a dual block's resolvent is the
# proximity operator of h(z) = f^*(-A^T z) (+ <b, z>)


def prox_compose_check(block, z, b, h_fn, seed=0, trials=50):
    """Certify ``_DualBlockOp(block, b).resolvent`` by the proximal inequality.

    For the output ``w`` and random competitors ``q`` the gap
    ``h(w) + 0.5||w - z||^2 - h(q) - 0.5||q - z||^2`` must stay nonpositive
    (up to roundoff).  Returns ``(w, worst_gap)``; a non-finite gap ends the
    check with ``worst_gap = inf``.
    """
    w = _DualBlockOp(block, b).resolvent(z)
    value = h_fn(w) + 0.5 * float(np.linalg.norm(w - z) ** 2)
    prng = Prng(seed)
    worst = -math.inf
    for _ in range(trials):
        scale = 10.0 ** float(prng.uniforms(1)[0] * 2 - 1)
        q = w + scale * prng.normals(z.size)
        gap = value - h_fn(q) - 0.5 * float(np.linalg.norm(q - z) ** 2)
        if not math.isfinite(gap):
            return w, math.inf
        worst = max(worst, gap)
    return w, worst


def test_prox_compose_quadratic_closed_form(rng):
    # f = 0.5||.||^2 with identity map: the composed function is again
    # 0.5||.||^2, whose proximity operator is z / 2
    blk = quadratic_block(np.eye(3), np.zeros(3), np.eye(3))
    z = rng.standard_normal(3)
    assert np.linalg.norm(_DualBlockOp(blk).resolvent(z) - z / 2.0) <= 1e-12
    w, gap = prox_compose_check(blk, z, None, lambda u: 0.5 * float(u @ u),
                                seed=5, trials=100)
    assert gap <= 1e-8


def test_prox_compose_offset_forces_constraint_value(rng):
    blk = quadratic_block(np.eye(3), np.zeros(3), np.eye(3))
    z = rng.standard_normal(3)
    b = rng.standard_normal(3)
    w = _DualBlockOp(blk, b).resolvent(z)
    # direct minimisation: x_hat = argmin 0.5||x||^2 + 0.5||x - b + z||^2
    x_hat = (b - z) / 2.0
    assert np.linalg.norm(w - (z + x_hat - b)) <= 1e-12
    # composed function: h(u) = 0.5||u||^2 + <b, u>
    _, gap = prox_compose_check(blk, z, b, lambda u: 0.5 * float(u @ u) + float(b @ u),
                                seed=6, trials=100)
    assert gap <= 1e-8


def test_prox_compose_check_fails_on_a_non_finite_function_value(rng):
    blk = quadratic_block(np.eye(3), np.zeros(3), np.eye(3))
    _, gap = prox_compose_check(blk, rng.standard_normal(3), None, lambda u: math.nan)
    assert gap == math.inf


def test_prox_compose_zero_map_gives_linear_prox(rng):
    # A = 0: the composed function is linear, so the prox is a shift
    blk = quadratic_block(np.eye(2), np.zeros(2), np.zeros((3, 2)))
    z = rng.standard_normal(3)
    b = rng.standard_normal(3)
    assert np.linalg.norm(_DualBlockOp(blk, b).resolvent(z) - (z - b)) <= 1e-12


# ---------------------------------------------------------------------------
# KKT residuals


def test_kkt_residual_at_analytic_pair():
    p, data = quad_problem(2, 4, seed=8)
    w_star, x_star = analytic_kkt(*data)
    kr = kkt_residual(p, w_star, x_star)
    assert kr.primal <= 1e-9
    assert np.all(kr.subgradient <= 1e-9)


def test_kkt_residual_perturbed_dual():
    p, data = quad_problem(2, 4, seed=9)
    w_star, x_star = analytic_kkt(*data)
    base = kkt_residual(p, w_star, x_star)
    shifted = kkt_residual(p, w_star, x_star + 1.0)
    assert shifted.primal == base.primal
    assert np.all(shifted.subgradient >= base.subgradient)
    assert shifted.subgradient.max() > 1e-3


def test_kkt_residual_reads_the_last_row_of_stacked_duals(rng):
    p, _ = quad_problem(3, 4, seed=8)
    w = [rng.standard_normal(3) for _ in range(3)]
    duals = rng.standard_normal((2, 4))
    stacked = kkt_residual(p, w, duals)
    last = kkt_residual(p, w, duals[-1])
    assert stacked.primal == last.primal
    assert np.array_equal(stacked.subgradient, last.subgradient)
    assert stacked.dual_spread == consensus_spread(duals)
    # a 1-d dual is one row, so it has no spread
    assert last.dual_spread == 0.0


@pytest.mark.parametrize("form", ["averaged", "auglag"])
def test_admm_kkt_is_the_kkt_residual_of_the_reported_duals(form):
    p, _ = quad_problem(3, 4, seed=10)
    rep = admm_solve(p, form=form, gamma=0.8, tol=0.0, max_iter=25)
    kkt = kkt_residual(p, rep.w, rep.duals)
    assert (rep.kkt.primal, rep.kkt.dual_spread) == (kkt.primal, kkt.dual_spread)
    assert np.array_equal(rep.kkt.subgradient, kkt.subgradient)


def test_kkt_residual_at_admm_exit():
    p, _ = quad_problem(3, 4, seed=10)
    tol = 1e-9
    rep = admm_solve(p, form="averaged", gamma=0.8, tol=tol, max_iter=100000)
    assert rep.converged
    assert rep.kkt.primal <= 10.0 * tol


# ---------------------------------------------------------------------------
# robust PCA pieces


def test_asalm_zero_instance_stays_zero():
    observed = PartialMatrix(values=np.zeros((4, 4)), mask=np.ones((4, 4), dtype=bool))
    state = asalm_step(asalm_init((4, 4)), observed, 0.25, 0.1)
    for field in (state.fit, state.sparse, state.low_rank, state.multiplier):
        assert np.array_equal(field, np.zeros((4, 4)))


def test_asalm_unconstrained_fit_is_exact(rng):
    inst = gen_rpca(6, 6, 2)
    observed = PartialMatrix(values=inst.observed, mask=inst.omega)
    state = asalm_init((6, 6))
    state = asalm_step(state, observed, 0.25, 0.1)
    # rerun the fit update with an effectively unconstrained ball
    big = asalm_step(state, observed, 0.25, 1e30)
    expected = observed.observed() - state.low_rank - state.sparse - state.multiplier
    assert np.linalg.norm(big.fit - expected) <= 1e-12


def test_asalm_relative_change_decays():
    inst = gen_rpca(20, 20, 1)
    observed = PartialMatrix(values=inst.observed, mask=inst.omega)
    state, trace = asalm_solve(observed, 0.25, 0.1, max_iter=400)
    assert trace.last("relative_change") <= 1e-5
    assert trace.last("primal_residual_omega") <= 1e-4


@pytest.mark.parametrize("form", ["averaged", "auglag"])
def test_dual_spread_is_computed_once_from_the_final_duals(monkeypatch, form):
    p, _ = quad_problem(3, 4, seed=6)
    calls = count_calls(monkeypatch, minsplit.admm, "consensus_spread")
    rep = admm_solve(p, form=form, gamma=0.8, tol=0.0, max_iter=30)
    assert rep.iterations == 30 and len(calls) == 1
    assert rep.trace.column_names == ["primal_residual", "relative_change"]
    assert rep.kkt.dual_spread == consensus_spread(rep.duals)


@pytest.mark.parametrize("sweeps", [1, 2, 7])
def test_averaged_duals_are_the_last_sweeps_prefix_sums(monkeypatch, sweeps):
    # the duals are built once, after the last sweep, from that sweep's
    # start z and its constraint contributions
    p, _ = quad_problem(4, 4, seed=12)
    calls = count_calls(monkeypatch, minsplit.admm, "accumulate")
    rep = admm_solve(p, form="averaged", gamma=0.8, tol=0.0, max_iter=sweeps)
    assert len(calls) == 1
    z = np.zeros((3, p.b.size))
    for _ in range(sweeps):
        z_pre = z
        z, w = admm_avg_step(p, z, 0.8)
    prefix = np.zeros(p.b.size)
    for i in range(3):
        prefix = prefix + p.blocks[i].apply(w[i])
        assert np.array_equal(rep.duals[i], z_pre[i] + prefix)


def test_auglag_duals_are_a_copy_of_the_last_multipliers():
    p, _ = quad_problem(3, 4, seed=12)
    rep = admm_solve(p, form="auglag", gamma=0.8, tol=0.0, max_iter=5)
    assert np.array_equal(rep.duals, rep.mu)
    assert not np.shares_memory(rep.duals, rep.mu)


@pytest.mark.parametrize("form", ["averaged", "auglag"])
def test_diverged_admm_still_reports_its_last_duals(form):
    blow = identity_prox_block(lambda u: u * 1e200 + 1.0, 2, coercive=True)
    half = identity_prox_block(lambda u: 0.5 * u, 2, coercive=True)
    p = SepProblem(blocks=(blow, half, half), b=np.array([1.0, -2.0]))
    with np.errstate(over="ignore"):
        rep = admm_solve(p, form=form, gamma=0.9, tol=1e-9, max_iter=50)
    assert rep.diverged and rep.kkt is None
    assert rep.duals.shape == ((2, 2) if form == "averaged" else (3, 2))
    assert np.all(np.isfinite(rep.duals))


def test_pdhg_solve_matches_reference_loop(rng):
    # the primal-dual step written out: shrink after a dual descent step, then
    # ascend along L at the extrapolated primal, with pdhg_solve's grouping
    inst = gen_consensus(6, 3)
    lap = cycle_laplacian(6)
    tau, sigma = pdhg_stepsizes(op_norm(lap), 2)
    x0, y0 = rng.standard_normal(6), rng.standard_normal(6)
    rep = pdhg_solve(inst.c, lap, tau, sigma, x0=x0, y0=y0, tol=0.0, max_iter=40)
    x, y = x0, y0
    for _ in range(40):
        x_next = prox_abs(x - tau * (lap @ y), inst.c, tau)
        x, y = x_next, y + sigma * (lap @ (2.0 * x_next - x))
    assert np.array_equal(rep.x, x) and np.array_equal(rep.y, y)


def test_rpca_admm_boundedness_and_determinism():
    inst = gen_rpca(12, 12, 3)
    observed = PartialMatrix(values=inst.observed, mask=inst.omega)
    p = rpca_problem(observed, 0.25, 0.1)
    runs = []
    for _ in range(2):
        rep = admm_solve(p, form="averaged", gamma=0.8, tol=0.0, max_iter=2000,
                         metric_blocks=(1, 2))
        bound = max(float(np.linalg.norm(wi)) for wi in rep.w)
        runs.append((bound, [wi.copy() for wi in rep.w]))
        assert np.isfinite(bound)
    assert runs[0][0] == runs[1][0]
    for a, b in zip(runs[0][1], runs[1][1]):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# primal-dual baseline


def test_pdhg_decoupled_when_graph_absent(rng):
    # a zero coupling matrix reduces the step to a plain shrink towards c
    c = rng.standard_normal(5)
    x = rng.standard_normal(5)
    y = rng.standard_normal(5)
    rep = pdhg_solve(c, np.zeros((5, 5)), 0.7, 0.7, x0=x, y0=y, tol=0.0, max_iter=1)
    assert np.array_equal(rep.x, prox_abs(x, c, 0.7))
    assert np.array_equal(rep.y, y)


def test_pdhg_stepsize_pairs_satisfy_constraint():
    lap = cycle_laplacian(10)
    norm = op_norm(lap)
    for variant in (1, 2, 3):
        tau, sigma = pdhg_stepsizes(norm, variant)
        assert tau * sigma * norm**2 < 1.0


def test_pdhg_rejects_boundary_product():
    lap = cycle_laplacian(10)
    norm = op_norm(lap)
    with pytest.raises(ParameterError, match="must be < 1"):
        pdhg_solve(np.zeros(10), lap, 1.0 / norm, 1.0 / norm)


@pytest.mark.parametrize("lam, delta", [(math.nan, 0.1), (0.25, math.nan)])
def test_asalm_step_rejects_nan_parameters(lam, delta):
    observed = PartialMatrix(values=np.zeros((4, 4)), mask=np.ones((4, 4), dtype=bool))
    name = "lam" if math.isnan(lam) else "delta"
    with pytest.raises(ParameterError, match=f"{name} must be positive, got nan"):
        asalm_step(asalm_init((4, 4)), observed, lam, delta)


@pytest.mark.parametrize("lam, delta, message", [
    (math.nan, 0.1, "lam must be nonnegative, got nan"),
    (-1.0, 0.1, "lam must be nonnegative, got -1.0"),
    (0.25, math.nan, "delta must be positive, got nan"),
    (0.25, 0.0, "delta must be positive, got 0.0"),
])
def test_rpca_problem_checks_lam_and_delta(lam, delta, message):
    observed = PartialMatrix(values=np.zeros((4, 4)), mask=np.ones((4, 4), dtype=bool))
    with pytest.raises(ParameterError, match=message):
        rpca_problem(observed, lam, delta)


def test_pdhg_rejects_nan_steps():
    lap = cycle_laplacian(4)
    with pytest.raises(ParameterError, match="lap_norm"):
        pdhg_stepsizes(math.nan, 1)
    with pytest.raises(ParameterError, match="tau and sigma"):
        pdhg_solve(np.zeros(4), lap, math.nan, 0.1)


def test_pdhg_consensus_median():
    inst = gen_consensus(10, 1)
    lap = cycle_laplacian(10)
    tau, sigma = pdhg_stepsizes(op_norm(lap), 1)
    rep = pdhg_solve(inst.c, lap, tau, sigma, tol=1e-10, max_iter=200000)
    lo, hi = inst.median_interval()
    assert rep.converged
    for xi in rep.x:
        assert lo - 1e-6 <= xi <= hi + 1e-6


# ---------------------------------------------------------------------------
# problem validation


def test_sep_problem_requires_flags():
    bad = identity_prox_block(lambda u: u, 3, coercive=False)
    bad = type(bad)(**{**bad.__dict__, "gram_invertible": False})
    with pytest.raises(ParameterError):
        SepProblem(blocks=(bad, bad), b=np.zeros(3))


def test_subproblem_failure_carries_block_index():
    def boom(_):
        raise RuntimeError("inner solver exploded")

    blocks = (
        identity_prox_block(lambda u: u, 2, coercive=True),
        identity_prox_block(boom, 2, coercive=True),
    )
    p = SepProblem(blocks=blocks, b=np.zeros(2))
    with pytest.raises(SubproblemError) as err:
        admm_avg_step(p, np.zeros((1, 2)), 0.5)
    assert err.value.block_index == 2
