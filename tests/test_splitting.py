import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import minsplit.splitting
from minsplit import (
    AbsValue,
    AffineOp,
    MonotoneOp,
    Prng,
    ProxOp,
    ZeroOp,
    averagedness_check,
    consensus_spread,
    dr_step,
    eval_scheme,
    gen_affine_monotone,
    gen_consensus,
    make_nodes,
    mt_scheme,
    mt_solve,
    mt_step,
    pr_solve,
    product_dr_solve,
    run_protocol,
    ryu3_solve,
    ryu3_scheme,
    ryu3_step,
    ryu4_scheme,
)
from minsplit.errors import ParameterError, ShapeError
from minsplit.splitting import (
    _column_sweeps,
    _norm,
    _solve_report,
    _split_solve,
    averagedness_sample,
)

from conftest import PointIndicator, affine_ops, count_calls


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


@pytest.mark.parametrize("solve", [mt_solve, pr_solve])
@pytest.mark.parametrize("dim", [1, 3])
def test_vector_centred_abs_values_raise_shape_error_at_any_dim(solve, dim):
    # a two-entry centre has no resolvent_scalar, so dim 1 takes the array path too
    ops = [AbsValue([1.0, 2.0]), AbsValue([3.0, 4.0]), AbsValue([0.0, 1.0])]
    with pytest.raises(ShapeError, match=f"shapes disagree: y \\({dim},\\), c \\(2,\\)"):
        solve(ops, dim=dim)


@pytest.mark.parametrize("third", [AbsValue([0.5]), AffineOp([[1.0]], [0.0])])
def test_multi_entry_point_indicator_raises_shape_error_at_dim_one(third):
    # a PointIndicator has no float form: both op lists take the array path and fail alike
    ops = [PointIndicator([1.0, 2.0]), ZeroOp(), third]
    with pytest.raises(ShapeError) as err:
        mt_solve(ops, dim=1, tol=0, max_iter=5)
    assert str(err.value) == "shapes disagree: y (1,), p (2,)"


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


@given(n=st.integers(1, 40), seed=st.integers(0, 2**32))
def test_consensus_spread_equals_the_difference_tensor_at_any_magnitude(n, seed):
    # the column-at-a-time sum below 8 entries against numpy's sum over the last axis,
    # at every dim 1..12, with normal mantissas times 1e-20 to 1e20
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((n, 12)) * 10.0 ** rng.integers(-20, 21, (n, 12))
    for dim in range(1, 13):
        x = blocks[:, :dim]
        diffs = x[:, None, :] - x[None, :, :]
        assert consensus_spread(x) == float(np.sqrt((diffs**2).sum(axis=2).max())), dim


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
    # lines {t*(1,0)} and {(0,1) + t*(1,1)} intersect at (-1, 0); their
    # resolvents are the orthogonal projections onto them
    l1 = ProxOp(lambda y, step: np.array([y[0], 0.0]))
    l2 = ProxOp(lambda y, step: np.array([0.0, 1.0]) + 0.5 * (y[0] + y[1] - 1.0) * np.ones(2))
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
# and the sampler rejects it (test_averagedness_sample_rejects_gamma)
@given(n=st.integers(2, 8), dim=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=False))
def test_averagedness_inequality_on_drawn_instances(n, dim, seed, gamma):
    ops = gen_affine_monotone(n, dim, seed).operators()
    assert averagedness_check(ops, gamma, 10, dim=dim, seed=seed) <= 1e-9


def reference_averagedness_sample(update, gamma, prng, blocks, dim, pairs):
    # the sampler drawing pair by pair with one normals call per point, kept
    # as the reference: the same operations in the same order
    worst = -np.inf
    for _ in range(pairs):
        z = prng.normals(blocks * dim).reshape(blocks, dim)
        z_bar = prng.normals(blocks * dim).reshape(blocks, dim)
        tz = update(z)
        tz_bar = update(z_bar)
        r = z - tz
        r_bar = z_bar - tz_bar
        lhs = float(np.linalg.norm(tz - tz_bar) ** 2)
        lhs += (1.0 - gamma) / gamma * float(np.linalg.norm(r - r_bar) ** 2)
        lhs += float(np.linalg.norm((r - r_bar).sum(axis=0)) ** 2) / gamma
        rhs = float(np.linalg.norm(z - z_bar) ** 2)
        slack = (lhs - rhs) / (1.0 + rhs)
        if not np.isfinite(slack):
            return np.inf
        worst = max(worst, slack)
    return worst


SAMPLED_SCHEMES = {"mt_scheme(4)": lambda gamma: mt_scheme(4, gamma),
                   "ryu3_scheme": ryu3_scheme, "ryu4_scheme": ryu4_scheme}


@given(name=st.sampled_from(["mt_step", *SAMPLED_SCHEMES]), n=st.integers(2, 6),
       dim=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), gamma=st.floats(0.05, 0.95),
       pairs=st.integers(1, 140), poison=st.none() | st.integers(0, 279))
def test_averagedness_sample_matches_pair_at_a_time_reference(name, n, dim, seed, gamma, pairs,
                                                              poison):
    # same worst slack bits, same points, one point per map call, and the
    # generator left where the reference leaves it, also after a NaN output
    if name == "mt_step":
        ops = gen_affine_monotone(n, dim, seed).operators()
        blocks, step = n - 1, lambda z: mt_step(z, ops, gamma)[0]
    else:
        sch = SAMPLED_SCHEMES[name](gamma)
        ops = gen_affine_monotone(sch.n, dim, seed).operators()
        blocks, step = sch.d, lambda z: eval_scheme(sch, z, ops)[0]

    def recorded(points):
        def update(z):
            points.append(z.copy())
            return step(z) * np.nan if len(points) - 1 == poison else step(z)
        return update

    got, want = [], []
    bulk, single = Prng(seed), Prng(seed)
    worst = averagedness_sample(recorded(got), gamma, bulk, blocks, dim, pairs)
    ref = reference_averagedness_sample(recorded(want), gamma, single, blocks, dim, pairs)
    assert np.float64(worst).tobytes() == np.float64(ref).tobytes()
    calls = 2 * pairs if poison is None or poison >= 2 * pairs else 2 * (poison // 2 + 1)
    assert len(got) == len(want) == calls
    assert all(z.shape == (blocks, dim) for z in got)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert bulk.uniforms(2).tobytes() == single.uniforms(2).tobytes()


# above 1, (1 - gamma) / gamma is negative and would pass maps that are not averaged
@pytest.mark.parametrize("gamma", [5e-324, 1e-310, 0.0, -0.5, float("nan"), 1.5, 2.0])
def test_averagedness_sample_rejects_gamma(gamma):
    ops = gen_affine_monotone(3, 2, 0).operators()
    with pytest.raises(ParameterError, match="gamma"):
        averagedness_sample(lambda z: mt_step(z, ops, 0.5)[0], gamma, Prng(0), 2, 2, 10)


@given(v=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
                   elements=st.floats(-10.0, 10.0) | st.floats()),
       view=st.sampled_from(["as is", "transposed", "every other row"]))
def test_norm_equals_numpy_norm_bit_for_bit(v, view):
    v = {"as is": v, "transposed": v.T, "every other row": v[::2]}[view]
    with np.errstate(over="ignore"):
        assert np.float64(_norm(v)).tobytes() == np.float64(np.linalg.norm(v)).tobytes()


def test_averagedness_check_rejects_subnormal_gamma():
    with pytest.raises(ParameterError, match="gamma must be positive with"):
        averagedness_check(gen_affine_monotone(2, 1, 0).operators(), 5e-324, 10)


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


def test_iterate_rejects_nan_tol():
    # before the max_iter check, so this error wins over a bad budget
    with pytest.raises(ParameterError, match="tol must be nonnegative, got nan"):
        minsplit.splitting.iterate(lambda: {"residual": 1.0}, None, 0, tol=float("nan"))
    with pytest.raises(ParameterError, match="tol must be nonnegative, got nan"):
        mt_solve(gen_consensus(3, 1).operators(), dim=1, tol=float("nan"))


# ---------------------------------------------------------------------------
# one resolvent call per operator per sweep, on the pure-float and array paths


class CountingOp(MonotoneOp):
    """Counts the array resolvent calls of a wrapped operator."""

    entry_calls = ()

    def __init__(self, op):
        self.op, self.array_calls, self.scalar_calls = op, 0, 0

    def resolvent(self, y, step=1.0):
        self.array_calls += 1
        return self.op.resolvent(y, step)


class CountingScalarOp(CountingOp):
    """:class:`CountingOp` that also offers, and counts, ``resolvent_scalar``."""

    def resolvent_scalar(self, y, step=1.0):
        self.scalar_calls += 1
        return self.op.resolvent_scalar(y, step)


class CountingEntryOp(CountingScalarOp):
    """:class:`CountingScalarOp` that also offers ``entry_resolvents``, counting per entry."""

    def entry_resolvents(self, dim):
        self.entry_calls = [0] * dim

        def counted(j, res):
            def call(y, step=1.0):
                self.entry_calls[j] += 1
                return res(y, step)
            return call

        return [counted(j, res) for j, res in enumerate(self.op.entry_resolvents(dim))]


CALL_SOLVES = {
    "mt_solve": lambda ops, dim: mt_solve(ops, gamma=0.9, dim=dim, tol=1e-8, max_iter=300),
    "pr_solve": lambda ops, dim: pr_solve(ops, dim=dim, tol=1e-8, max_iter=300),
    "run_protocol": lambda ops, dim: run_protocol(
        make_nodes(ops, np.zeros((len(ops) - 1, dim))), 0.9, 300, tol=1e-8)[0],
}


@pytest.mark.parametrize("name", sorted(CALL_SOLVES))
@pytest.mark.parametrize("n", [2, 3, 10])
@pytest.mark.parametrize("path", ["float", "array dim 2", "array one op without scalar",
                                  "column dim 2"])
def test_one_resolvent_call_per_operator_per_sweep(name, n, path):
    rng = np.random.default_rng(n)
    dim = 2 if path.endswith("dim 2") else 1
    wrap = CountingEntryOp if path == "column dim 2" else CountingScalarOp
    ops = [wrap(AbsValue(rng.standard_normal(dim))) for _ in range(n)]
    if path == "array one op without scalar":
        ops[n // 2] = CountingOp(ops[n // 2].op)
    report = CALL_SOLVES[name](ops, dim)
    k = report.iterations
    assert 1 <= k <= 300
    for op in ops:
        if path == "float" and name == "mt_solve":
            assert (op.scalar_calls, op.array_calls) == (k, 0)
        elif path == "column dim 2" and name != "pr_solve":
            # entry_resolvents resets the counts, so [k] * dim also pins one binding per run
            assert (op.entry_calls, op.scalar_calls, op.array_calls) == ([k] * dim, 0, 0)
        else:  # pr_solve stops on the spread, which only the array path computes per sweep;
            # a protocol node without entry_resolvents makes one array call per round
            assert (sum(op.entry_calls), op.scalar_calls, op.array_calls) == (0, 0, k)


# ---------------------------------------------------------------------------
# the one-pass pure-float sweep against the three-pass sweep it replaced


def three_pass_scalar_sweeps(ops, gamma, z0):
    # the reference: chain, then relaxation, then residual, each a pass over the blocks
    n = len(ops)
    z = [float(v) for v in z0[:, 0]]
    x = [0.0] * n
    res = [op.resolvent_scalar for op in ops]

    def step():
        nonlocal z
        x[0] = res[0](z[0])
        for i in range(1, n - 1):
            x[i] = res[i](z[i] + (x[i - 1] - z[i - 1]))
        x[n - 1] = res[n - 1](x[0] + (x[n - 2] - z[n - 2]))
        sq = 0.0
        if gamma == 1.0:
            z_next = [x[i + 1] + (z[i] - x[i]) for i in range(n - 1)]
        else:
            z_next = [z[i] + gamma * (x[i + 1] - x[i]) for i in range(n - 1)]
        for a, b in zip(z, z_next):
            d = a - b
            sq += d * d
        z = z_next
        return {"residual": math.sqrt(sq) / gamma}

    return step, lambda: (np.asarray(z)[:, None], np.asarray(x)[:, None], np.array(x[:1]))


class FloatIdentity(MonotoneOp):
    """The zero operator's resolvent with both pure-float forms, at any ``dim``."""

    def resolvent(self, y, step=1.0):
        return np.array(y, dtype=np.float64)

    def resolvent_scalar(self, y, step=1.0):
        return y

    def entry_resolvents(self, dim):
        return [self.resolvent_scalar] * dim


class FloatConstant(MonotoneOp):
    """A point's constant resolvent ``p`` with both pure-float forms, at ``p``'s length."""

    def __init__(self, p):
        self.p = np.atleast_1d(np.asarray(p, dtype=np.float64))

    def resolvent(self, y, step=1.0):
        return self.p.copy()

    def resolvent_scalar(self, y, step=1.0):
        return self.p.item()

    def entry_resolvents(self, dim):
        return [lambda y, step=1.0, p=p: p for p in self.p.tolist()]


FLOAT_KINDS = {"abs": AbsValue, "identity": lambda c: FloatIdentity(), "constant": FloatConstant}


def _float_ops(kinds, centres):
    return [FLOAT_KINDS[k]([c]) for k, c in zip(kinds, centres)]


def _nan_as_nan(a):
    # float.hex already prints every NaN as "nan"; arrays need one NaN pattern
    return np.where(np.isnan(a), math.nan, a).tobytes()


def _solve_bits(report):
    # every non-NaN bit, signed zeros and infinities included; which NaN float + or
    # numpy propagates is not fixed, so any NaN compares equal to any other
    return (report.iterations, report.converged, report.diverged,
            {name: [v.hex() for v in col] for name, col in report.trace.columns.items()},
            report.consensus_spread.hex(), _nan_as_nan(report.state.z),
            _nan_as_nan(report.state.x), _nan_as_nan(report.final_x))


SIGNED_FLOATS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))


@st.composite
def float_sweep_cases(draw):
    n = draw(st.integers(2, 40))
    kinds = draw(st.lists(st.sampled_from(["abs", "abs", "identity", "constant"]),
                          min_size=n, max_size=n))
    centres = draw(st.lists(SIGNED_FLOATS, min_size=n, max_size=n))
    z0 = draw(st.lists(SIGNED_FLOATS, min_size=n - 1, max_size=n - 1))
    bad = draw(st.one_of(st.none(), st.tuples(st.integers(0, n - 2),
                                              st.sampled_from([math.inf, -math.inf, math.nan]))))
    if bad is not None:
        z0[bad[0]] = bad[1]
    return kinds, centres, z0


@given(case=float_sweep_cases(),
       gamma=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
       tol=st.sampled_from([0.0, 1e-8]), max_iter=st.integers(1, 60))
@example(case=(["abs", "identity", "abs"], [0.5, 0.0, -0.0], [-0.0, 0.0]),
         gamma=1.0, tol=0.0, max_iter=20)
@example(case=(["abs"] * 10, [float(i) for i in range(10)], [0.25 * i for i in range(9)]),
         gamma=1.0, tol=1e-8, max_iter=60)
@example(case=(["identity"] * 4, [0.0] * 4, [1.5, -0.0, math.nan]),
         gamma=0.9, tol=0.0, max_iter=5)
def test_one_pass_scalar_sweep_equals_three_pass_reference(case, gamma, tol, max_iter):
    kinds, centres, z0 = case
    ops = _float_ops(kinds, centres)
    z0 = np.array(z0)[:, None]
    with np.errstate(invalid="ignore"):
        got = _split_solve(ops, gamma, z0, tol, max_iter, None)
        step, final = three_pass_scalar_sweeps(_float_ops(kinds, centres), gamma, z0)
        want = _solve_report(step, max_iter, tol, final)
    assert _solve_bits(got) == _solve_bits(want)


# ---------------------------------------------------------------------------
# the per-column pure-float sweep against the array sweep


def _entry_ops(kinds, centres):
    return [FLOAT_KINDS[k](c) for k, c in zip(kinds, centres)]


@st.composite
def column_sweep_cases(draw):
    n, dim = draw(st.integers(2, 40)), draw(st.integers(2, 6))
    kinds = draw(st.lists(st.sampled_from(["abs", "abs", "identity", "constant"]),
                          min_size=n, max_size=n))
    centres = draw(hnp.arrays(np.float64, (n, dim), elements=SIGNED_FLOATS))
    z0 = draw(hnp.arrays(np.float64, (n - 1, dim), elements=SIGNED_FLOATS))
    bad = draw(st.one_of(st.none(), st.tuples(st.integers(0, n - 2), st.integers(0, dim - 1),
                                              st.sampled_from([math.inf, -math.inf, math.nan]))))
    if bad is not None:
        z0[bad[:2]] = bad[2]
    return kinds, centres, z0


@given(case=column_sweep_cases(),
       gamma=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
       tol=st.sampled_from([0.0, 1e-8]), max_iter=st.integers(1, 60))
@example(case=(["abs"] * 10, np.arange(30.0).reshape(10, 3) % 7.0, np.zeros((9, 3))),
         gamma=0.9, tol=1e-8, max_iter=60)
@example(case=(["abs", "identity", "constant"], np.array([[0.5, -0.0], [0.0, 0.0], [-0.0, 2.0]]),
               np.array([[-0.0, 0.0], [0.0, math.nan]])),
         gamma=1.0, tol=0.0, max_iter=20)
@example(case=(["abs", "abs"], np.zeros((2, 2)), np.array([[math.inf, 0.0]])),
         gamma=1.0, tol=0.0, max_iter=1)  # the two paths' z may hold NaNs of either sign
def test_column_sweep_equals_the_array_sweep(case, gamma, tol, max_iter):
    # CountingOp offers no entry resolvents, so the reference takes the array path
    kinds, centres, z0 = case
    ops = _entry_ops(kinds, centres)
    assert _column_sweeps(ops, gamma, z0) is not None
    with np.errstate(invalid="ignore", over="ignore"):
        got = _split_solve(ops, gamma, z0, tol, max_iter, None)
        want = _split_solve([CountingOp(op) for op in ops], gamma, z0, tol, max_iter, None)
    assert _solve_bits(got) == _solve_bits(want)


@pytest.mark.parametrize("dim", [1, 2])  # resolvent_scalar at dim 1, entry_resolvents at 2
def test_float32_gamma_keeps_the_float_paths_at_mt_step_bits(dim):
    # mt_step's float64 arrays promote an np.float32 gamma, so the float sweeps must too
    rng = np.random.default_rng(dim)
    ops = [AbsValue(rng.standard_normal(dim)) for _ in range(5)]
    state = mt_solve(ops, gamma=np.float32(0.9), dim=dim, tol=0, max_iter=5).state
    z = np.zeros((4, dim))
    for _ in range(5):
        z, x = mt_step(z, ops, np.float32(0.9))
    assert (state.z.dtype, state.x.dtype) == (np.float64, np.float64)
    assert (state.z.tobytes(), state.x.tobytes()) == (z.tobytes(), x.tobytes())
