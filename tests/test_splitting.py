import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import minsplit.splitting
from minsplit import (
    AffineOp,
    AffineSetIndicator,
    PointIndicator,
    ProxOp,
    ZeroOp,
    averagedness_check,
    consensus_spread,
    dr_step,
    eval_scheme,
    gen_affine_monotone,
    gen_consensus,
    make_nodes,
    mt_solve,
    mt_step,
    pr_solve,
    product_dr_solve,
    run_protocol,
    ryu3_solve,
    ryu3_step,
    ryu4_scheme,
)
from minsplit.errors import ParameterError, ShapeError

from conftest import affine_ops, count_calls


def zeros_ops(n):
    return [ZeroOp() for _ in range(n)]


def iterate_mt(z, ops, gamma, k):
    for _ in range(k):
        z, x = mt_step(z, ops, gamma)
    return z, x


# ---------------------------------------------------------------------------
# the core step


def test_mt_step_requires_two_ops():
    with pytest.raises(ParameterError):
        mt_step(np.zeros((0, 1)), [ZeroOp()], 0.9)
    with pytest.raises(ParameterError):
        mt_step(np.zeros((1, 1)), zeros_ops(2), 1.5)
    with pytest.raises(ShapeError):
        mt_step(np.zeros((3, 1)), zeros_ops(2), 0.9)


def test_mt_step_n2_is_relaxed_douglas_rachford(rng):
    inst, ops = affine_ops(2, 3, seed=1)
    for gamma in (0.2, 0.7, 0.99):
        for _ in range(20):
            z = rng.standard_normal((1, 3))
            z_mt, x_mt = mt_step(z, ops, gamma)
            z_dr, x1, x2 = dr_step(z[0], ops[0], ops[1], gamma)
            assert np.linalg.norm(z_mt[0] - z_dr) <= 1e-12
            assert np.linalg.norm(x_mt[0] - x1) <= 1e-12
            assert np.linalg.norm(x_mt[1] - x2) <= 1e-12


def test_mt_trajectories_match_dr_100_steps(rng):
    inst, ops = affine_ops(2, 4, seed=2)
    z_mt = rng.standard_normal((1, 4))
    z_dr = z_mt[0].copy()
    for _ in range(100):
        z_mt, _ = mt_step(z_mt, ops, 0.9)
        z_dr, _, _ = dr_step(z_dr, ops[0], ops[1], 0.9)
        assert np.linalg.norm(z_mt[0] - z_dr) <= 1e-12


def test_mt_step_zero_ops_gamma_one_is_exact_shift(rng):
    for n in (3, 5, 7):
        z = rng.standard_normal((n - 1, 2))
        z_next, x = mt_step(z, zeros_ops(n), 1.0)
        assert np.array_equal(z_next, np.roll(z, -1, axis=0))
        assert np.array_equal(x[: n - 1], z)


def test_mt_step_fixed_point(rng):
    inst, ops = affine_ops(3, 3, seed=3)
    report = mt_solve(ops, gamma=0.9, tol=1e-13, max_iter=100000, dim=3)
    assert report.converged
    z = report.state.z
    z_next, x = mt_step(z, ops, 0.9)
    assert np.linalg.norm(z_next - z) <= 1e-10
    assert consensus_spread(x) <= 1e-10
    assert np.linalg.norm(x[0] - inst.solution) <= 1e-8


@pytest.mark.parametrize("shape", [(4, 3), (50, 7), (200, 2), (2, 3600), (3, 3600), (40, 150)])
def test_consensus_spread_equals_the_difference_tensor_bit_for_bit(rng, shape):
    # one block of rows, several blocks with a remainder, and a row at a time
    x = 10.0 * rng.standard_normal(shape)
    diffs = x[:, None, :] - x[None, :, :]
    assert consensus_spread(x) == float(np.sqrt((diffs**2).sum(axis=2)).max())


def test_residual_equals_stencil_norm(rng):
    inst, ops = affine_ops(4, 2, seed=4)
    z = rng.standard_normal((3, 2))
    for gamma in (0.3, 0.9):
        z_next, x = mt_step(z, ops, gamma)
        residual = np.linalg.norm(z_next - z) / gamma
        stencil = np.linalg.norm(x[1:] - x[:-1])
        assert abs(residual - stencil) <= 1e-12 * (1.0 + stencil)


# ---------------------------------------------------------------------------
# solver loop


def test_mt_solve_consensus_median():
    inst = gen_consensus(10, 1)
    report = mt_solve(inst.operators(), gamma=0.9, tol=1e-8, max_iter=50000, dim=1)
    lo, hi = inst.median_interval()
    assert report.converged
    assert lo - 1e-6 <= report.final_x[0] <= hi + 1e-6


def test_mt_solve_point_indicators_one_step():
    p = np.array([1.5, -2.0])
    ops = [PointIndicator(p) for _ in range(4)]
    report = mt_solve(ops, gamma=0.5, tol=1e-12, max_iter=10, dim=2)
    assert report.converged
    assert report.iterations == 1
    assert np.array_equal(report.final_x, p)
    assert report.consensus_spread == 0.0


def test_mt_solve_requires_gamma_below_one():
    with pytest.raises(ParameterError):
        mt_solve(zeros_ops(3), gamma=1.0, dim=1)


def test_mt_solve_reports_nonconvergence():
    # a deliberately expansive fake resolvent trips the divergence guard
    bad = ProxOp(lambda y, step: 3.0 * y)
    report = mt_solve([bad, bad, bad], gamma=0.9,
                      z0=np.ones((2, 1)), tol=1e-8, max_iter=500)
    assert not report.converged
    assert report.diverged


def test_mt_solve_fejer_monotone():
    inst, ops = affine_ops(3, 3, seed=6)
    ref = mt_solve(ops, gamma=0.9, tol=1e-13, max_iter=100000, dim=3)
    z_bar = ref.state.z
    z = np.ones((2, 3))
    prev = np.linalg.norm(z - z_bar)
    for _ in range(200):
        z, _ = mt_step(z, ops, 0.9)
        dist = np.linalg.norm(z - z_bar)
        assert dist <= prev + 1e-10
        prev = dist


def test_mt_solve_final_spread_within_ten_tol():
    inst, ops = affine_ops(4, 2, seed=7)
    tol = 1e-9
    report = mt_solve(ops, gamma=0.9, tol=tol, max_iter=200000, dim=2)
    assert report.converged
    assert report.consensus_spread <= 10.0 * tol


def test_mt_solve_inclusion_residual_through_graphs():
    inst, ops = affine_ops(4, 3, seed=8)
    report = mt_solve(ops, gamma=0.9, tol=1e-10, max_iter=200000, dim=3)
    z = report.state.z
    _, x = mt_step(z, ops, 0.9)
    n = len(ops)
    y = np.empty_like(x)
    y[0] = z[0]
    for i in range(1, n - 1):
        y[i] = z[i] + (x[i - 1] - z[i - 1])
    y[n - 1] = x[0] + (x[n - 2] - z[n - 2])
    assert np.linalg.norm((y - x).sum(axis=0)) <= 1e-7


# ---------------------------------------------------------------------------
# gamma = 1 under declared uniform monotonicity


def test_pr_solve_strongly_monotone_converges():
    inst, ops = affine_ops(3, 4, seed=11, moduli=(0.0, 0.5, 0.5))
    report = pr_solve(ops, tol=1e-8, max_iter=10000, dim=4)
    assert report.converged
    assert report.consensus_spread <= 1e-8
    assert np.linalg.norm(report.final_x - inst.solution) <= 1e-6


def test_pr_solve_zero_ops_does_not_converge(rng):
    z0 = rng.standard_normal((2, 3))
    report = pr_solve(zeros_ops(3), z0=z0, tol=1e-8, max_iter=300)
    assert not report.converged


def test_pr_solve_n2_matches_dr_at_gamma_one(rng):
    inst, ops = affine_ops(2, 3, seed=12, moduli=(0.0, 0.8))
    z = rng.standard_normal((1, 3))
    z_dr = z[0].copy()
    for _ in range(50):
        z, _ = mt_step(z, ops, 1.0)
        z_dr, _, _ = dr_step(z_dr, ops[0], ops[1], 1.0)
        assert np.linalg.norm(z[0] - z_dr) <= 1e-12
    report = pr_solve(ops, z0=rng.standard_normal((1, 3)), tol=1e-9, max_iter=20000)
    assert report.converged


# ---------------------------------------------------------------------------
# Douglas-Rachford


def test_dr_step_zero_ops(rng):
    z = rng.standard_normal(3)
    z_next, x1, x2 = dr_step(z, ZeroOp(), ZeroOp(), 1.0)
    assert np.array_equal(z_next, z)


def test_dr_step_two_lines_intersection():
    # lines {t*(1,0)} and {(0,1) + t*(1,1)} intersect at (-1, 0)
    l1 = AffineSetIndicator(np.zeros(2), np.array([[1.0, 0.0]]))
    l2 = AffineSetIndicator(np.array([0.0, 1.0]), np.array([[1.0, 1.0]]))
    z = np.array([2.0, 3.0])
    for _ in range(2000):
        z, x1, x2 = dr_step(z, l1, l2, 1.0)
    assert np.linalg.norm(x1 - np.array([-1.0, 0.0])) <= 1e-8
    assert np.linalg.norm(x1 - x2) <= 1e-8


def test_dr_step_gamma_range():
    with pytest.raises(ParameterError):
        dr_step(np.zeros(2), ZeroOp(), ZeroOp(), 2.0)


# ---------------------------------------------------------------------------
# three-operator scheme


def test_ryu3_zero_ops_hand_evaluation(rng):
    # literal evaluation with identity resolvents:
    #   x1 = z1, x2 = z2 + x1, x3 = x1 - z1 + x2 - z2 = z1
    # so the update is z + gamma*(x3 - x1, x3 - x2) = (z1, (1-gamma) z2)
    gamma = 0.4
    z = rng.standard_normal((2, 3))
    z_next, x = ryu3_step(z, zeros_ops(3), gamma)
    assert np.allclose(x[0], z[0], atol=1e-14)
    assert np.allclose(x[1], z[0] + z[1], atol=1e-14)
    assert np.allclose(x[2], z[0], atol=1e-14)
    assert np.allclose(z_next[0], z[0], atol=1e-14)
    assert np.allclose(z_next[1], (1.0 - gamma) * z[1], atol=1e-14)


def test_ryu3_fixed_point_solves_inclusion():
    inst, ops = affine_ops(3, 3, seed=14)
    report = ryu3_solve(ops, gamma=0.9, tol=1e-12, max_iter=100000, dim=3)
    assert report.converged
    assert report.consensus_spread <= 1e-8
    assert np.linalg.norm(report.final_x - inst.solution) <= 1e-8


def test_ryu3_and_mt_find_same_zero():
    inst, ops = affine_ops(3, 4, seed=15)
    a = ryu3_solve(ops, gamma=0.9, tol=1e-10, max_iter=100000, dim=4)
    b = mt_solve(ops, gamma=0.9, tol=1e-10, max_iter=100000, dim=4)
    assert np.linalg.norm(a.final_x - b.final_x) <= 1e-6


# ---------------------------------------------------------------------------
# the divergent four-operator extension


def test_ryu4_zero_ops_divergence_rate():
    for gamma in (0.25, 0.5, 0.9):
        s = ryu4_scheme(gamma)
        z = np.array([[0.0], [0.0], [1.0]])
        for k in range(1, 41):
            z = eval_scheme(s, z, zeros_ops(4))[0]
            ratio = np.linalg.norm(z) / (1.0 + gamma) ** k
            assert abs(ratio - 1.0) <= 1e-9


def test_ryu4_fixed_point_encodes_zero():
    # the step is affine for affine operators: solve for its fixed point
    # directly and check the consensus property there
    inst, ops = affine_ops(4, 3, seed=9)
    dim = 3

    def apply_t(vec):
        z = vec.reshape(3, dim)
        z_next, _, x, _ = eval_scheme(ryu4_scheme(0.5), z, ops)
        return z_next.ravel(), x

    base, _ = apply_t(np.zeros(9))
    mat = np.empty((9, 9))
    for j in range(9):
        unit = np.zeros(9)
        unit[j] = 1.0
        mat[:, j] = apply_t(unit)[0] - base
    z_fix = np.linalg.solve(np.eye(9) - mat, base)
    moved, x = apply_t(z_fix)
    assert np.linalg.norm(moved - z_fix) <= 1e-10
    assert consensus_spread(x) <= 1e-10
    assert np.linalg.norm(x[0] - inst.solution) <= 1e-10


@pytest.mark.xfail(
    strict=True,
    reason=(
        "with the update reproducing the documented zero-operator divergence "
        "witness (growth (1+gamma)^k from z0=(0,0,1)), a strongly monotone "
        "fourth operator cannot restore averagedness: the third block keeps "
        "the expansion factor 1+gamma for every modulus, so the iteration "
        "still diverges"
    ),
)
def test_ryu4_strongly_monotone_fourth_operator_converges():
    inst, ops = affine_ops(4, 3, seed=16)
    ops = list(ops)
    # make the fourth operator 1-strongly monotone, rebalancing its offset
    # so the recorded zero is unchanged
    ops[3] = AffineOp(inst.mats[3] + np.eye(3), inst.offsets[3] - inst.solution)
    s = ryu4_scheme(0.5)
    z = np.zeros((3, 3))
    for _ in range(5000):
        z, _, x, _ = eval_scheme(s, z, ops)
        if np.linalg.norm(z) > 1e12:
            pytest.fail("iteration diverged")
    assert consensus_spread(x) <= 1e-6


# ---------------------------------------------------------------------------
# product-space Douglas-Rachford


def test_product_dr_single_operator_is_proximal_point(rng):
    inst, ops = affine_ops(1, 3, seed=17)
    op = ops[0]
    z0 = rng.standard_normal((1, 3))
    report = product_dr_solve([op], gamma=0.9, z0=z0.copy(), tol=1e-12, max_iter=5000)
    z = z0[0].copy()
    for _ in range(report.iterations):
        z = z + 0.9 * (op.resolvent(z) - z)
    assert np.linalg.norm(report.state.z[0] - z) <= 1e-10


def test_product_dr_consensus_median():
    inst = gen_consensus(10, 1)
    report = product_dr_solve(inst.operators(), gamma=0.9, tol=1e-10,
                              max_iter=200000, dim=1)
    lo, hi = inst.median_interval()
    assert report.converged
    assert lo - 1e-6 <= report.final_x[0] <= hi + 1e-6


def test_product_dr_zero_ops_mean(rng):
    z0 = rng.standard_normal((4, 2))
    report = product_dr_solve(zeros_ops(4), gamma=1.0, z0=z0.copy(), tol=1e-12,
                              max_iter=50)
    assert report.converged
    # one step lands on the diagonal, the next certifies the zero residual
    assert report.iterations <= 2
    assert np.allclose(report.final_x, z0.mean(axis=0), atol=1e-12)


# ---------------------------------------------------------------------------
# averagedness inequality


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
def test_averagedness_inequality(n, gamma):
    worst = -np.inf
    for seed in range(10):
        inst, ops = affine_ops(n, 3, seed=100 * n + seed)
        worst = max(worst, averagedness_check(ops, gamma, trials=10, dim=3, seed=seed))
    assert worst <= 1e-9


# a subnormal gamma is left out: there (1 - gamma) / gamma overflows to inf,
# and the sampler reports the resulting non-finite slack as a failure
@given(n=st.integers(2, 8), dim=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=False))
def test_averagedness_inequality_on_drawn_instances(n, dim, seed, gamma):
    ops = gen_affine_monotone(n, dim, seed).operators()
    assert averagedness_check(ops, gamma, 10, dim=dim, seed=seed) <= 1e-9


def test_averagedness_isometry_equality():
    # zero operators at gamma = 1: the map is a permutation, the middle term
    # vanishes and the block sums cancel, so the inequality is tight
    slack = averagedness_check(zeros_ops(4), 1.0, trials=50, dim=3, seed=0)
    assert abs(slack) <= 1e-12


def test_dr_two_term_inequality_gamma_up_to_two(rng):
    # for two operators the combined form holds on (0, 2):
    # ||dT||^2 + (2-gamma)/gamma ||d(I-T)||^2 <= ||dz||^2
    inst, ops = affine_ops(2, 3, seed=18)
    for gamma in (0.5, 1.0, 1.5, 1.9):
        for _ in range(200):
            z = rng.standard_normal(3)
            z_bar = rng.standard_normal(3)
            tz, _, _ = dr_step(z, ops[0], ops[1], gamma)
            tz_bar, _, _ = dr_step(z_bar, ops[0], ops[1], gamma)
            r = z - tz
            r_bar = z_bar - tz_bar
            lhs = np.linalg.norm(tz - tz_bar) ** 2
            lhs += (2.0 - gamma) / gamma * np.linalg.norm(r - r_bar) ** 2
            rhs = np.linalg.norm(z - z_bar) ** 2
            assert lhs <= rhs + 1e-9 * (1.0 + rhs)


# ---------------------------------------------------------------------------
# diagnostics: one consensus spread per solve, unless the stop test reads it


ONE_SPREAD_SOLVES = {
    "mt_solve": lambda ops, z0: mt_solve(ops, z0=z0, tol=0.0, max_iter=7),
    "ryu3_solve": lambda ops, z0: ryu3_solve(ops, z0=z0, tol=0.0, max_iter=7),
    "product_dr_solve": lambda ops, z0: product_dr_solve(ops, dim=2, tol=0.0, max_iter=7),
    "run_protocol": lambda ops, z0: run_protocol(make_nodes(ops, z0), 0.9, 7)[0],
}


@pytest.mark.parametrize("name", sorted(ONE_SPREAD_SOLVES))
def test_spread_is_computed_once_from_the_final_outputs(monkeypatch, name):
    _, ops = affine_ops(3, 2, seed=41)
    z0 = np.arange(4.0).reshape(2, 2)
    calls = count_calls(monkeypatch, minsplit.splitting, "consensus_spread")
    report = ONE_SPREAD_SOLVES[name](ops, z0)
    assert report.iterations == 7
    assert len(calls) == 1
    assert report.trace.column_names == ["residual"]
    assert report.consensus_spread == consensus_spread(report.state.x)


def test_pr_solve_computes_the_spread_its_stop_test_reads(monkeypatch):
    _, ops = affine_ops(3, 2, seed=42, moduli=[0.0, 1.0, 1.0])
    calls = count_calls(monkeypatch, minsplit.splitting, "consensus_spread")
    report = pr_solve(ops, dim=2, tol=1e-12, max_iter=40)
    assert len(calls) == report.iterations
    assert report.trace.column_names == ["residual", "spread"]
    assert report.consensus_spread == report.trace.last("spread")
    assert report.consensus_spread == consensus_spread(report.state.x)


def test_scalar_path_reports_the_spread_of_its_final_outputs():
    report = mt_solve(gen_consensus(10, 3).operators(), dim=1, tol=1e-8, max_iter=300)
    assert report.trace.column_names == ["residual"]
    assert report.consensus_spread == consensus_spread(report.state.x)


def test_stop_at_tol_rejects_nan():
    with pytest.raises(ParameterError, match="tol"):
        minsplit.splitting.stop_at_tol(float("nan"))
