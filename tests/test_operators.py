import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from minsplit import (
    AbsValue,
    AffineOp,
    MonotoneOp,
    PartialMatrix,
    ProxOp,
    SepProblem,
    ZeroOp,
    dual_ops,
    prox_abs,
    prox_l1,
    prox_nuclear,
    project_partial_ball,
)
from minsplit.admm import _DualBlockOp
from minsplit.errors import ParameterError, ShapeError

from conftest import PointIndicator, affine_ops, firmness_gap, quadratic_block


def grid_argmin(f, lo, hi, steps=400001):
    xs = np.linspace(lo, hi, steps)
    return xs[np.argmin(f(xs))]


# ---------------------------------------------------------------------------
# prox_abs


def test_prox_abs_shrinks_past_threshold():
    out = prox_abs(np.array([5.0]), np.array([0.0]), 1.0)
    assert out[0] == 4.0


def test_prox_abs_fixes_minimizer():
    c = np.array([0.3, -2.0])
    for step in (0.5, 1.0, 7.0):
        assert np.array_equal(prox_abs(c, c, step), c)


def test_prox_abs_matches_grid_search():
    # independent oracle: brute-force the 1-d objective |x| + (x - y)^2 / 2
    y = 0.3
    oracle = grid_argmin(lambda x: np.abs(x) + 0.5 * (x - y) ** 2, -2.0, 2.0)
    out = prox_abs(np.array([y]), np.array([0.0]), 1.0)
    assert abs(oracle) <= 1e-5
    assert out[0] == 0.0
    # and off-centre with a generic step
    y, c, step = 1.7, 0.4, 0.6
    oracle = grid_argmin(lambda x: step * np.abs(x - c) + 0.5 * (x - y) ** 2, -3.0, 3.0)
    out = prox_abs(np.array([y]), np.array([c]), step)
    assert abs(out[0] - oracle) <= 1e-5


def test_prox_abs_scalar_path_matches_array_path(rng):
    op = AbsValue(np.array([0.7]))
    for _ in range(200):
        y = float(rng.standard_normal())
        step = float(rng.uniform(0.1, 3.0))
        assert op.resolvent_scalar(y, step) == op.resolvent(np.array([y]), step)[0]


def _same_bits(a, b):
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


EDGE_PAIRS = [(-0.0, -0.0), (0.0, -0.0), (-0.5, -0.0), (0.5, -0.0), (5e-324, -5e-324),
              (-2.5e-308, 1e-310), (math.nan, 0.1), (math.inf, math.inf), (-math.inf, 2.0)]


@given(pairs=st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=6),
       step=st.floats(min_value=0.0, exclude_min=True))
@example(pairs=[(math.nan, 0.1)], step=1.0)
@example(pairs=[(-0.0, -0.0)], step=1.0)
@example(pairs=[(0.0, -0.0)], step=1.0)
@example(pairs=[(math.inf, math.inf)], step=1.0)
@example(pairs=[(-math.inf, 2.0)], step=math.inf)
@example(pairs=[(5e-324, 0.0)], step=5e-324)
@example(pairs=[(-0.5, -0.0)], step=1.0)
@example(pairs=EDGE_PAIRS[:6], step=1.0)
@example(pairs=EDGE_PAIRS[3:], step=math.inf)
@example(pairs=EDGE_PAIRS[:6], step=5e-324)
def test_prox_abs_scalar_path_equals_array_path_bit_for_bit(pairs, step):
    # AbsValue's float paths against the numpy reference prox_abs, NaN compared as NaN
    y = np.array([p[0] for p in pairs])
    c = np.array([p[1] for p in pairs])
    op = AbsValue(c)
    with np.errstate(invalid="ignore", over="ignore"):
        want = prox_abs(y, c, step)
    got = op.resolvent(y, step)
    assert got.dtype == np.float64 and got.shape == c.shape
    assert not np.shares_memory(got, y) and not np.shares_memory(got, c)
    assert all(_same_bits(a, b) for a, b in zip(got.tolist(), want.tolist()))
    if len(pairs) == 1:
        assert _same_bits(op.resolvent_scalar(pairs[0][0], step), float(want[0]))
    else:
        assert not hasattr(op, "resolvent_scalar")


@pytest.mark.parametrize("c", [np.array([0.7]), np.array([0.7, -1.3, 0.0])])
@pytest.mark.parametrize("y, step", [
    ("ones", 0.0), ("ones", -1.0), ("ones", math.nan),
    (np.ones(4), 1.0), (np.ones((3, 2)), 1.0), ([1.0] * 4, 1.0)])
def test_abs_value_resolvent_raises_the_prox_abs_errors(c, y, step):
    # zero, negative and NaN steps; a mismatched shape, a 2-D batch and a list input
    y = np.ones(c.shape) if isinstance(y, str) else y
    with pytest.raises((ParameterError, ShapeError)) as want:
        prox_abs(y, c, step)
    with pytest.raises(type(want.value)) as got:
        AbsValue(c).resolvent(y, step)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("y, step", [
    ([0.25, -3.0], 0.3),
    (np.array([0.25, -3.0], dtype=np.float32), 0.3),
    (np.array(["0.25", "-3.0"]), 0.3),
    (np.array([0.25, -3.0]), np.float32(0.3)),
    (np.array([0.25, -3.0]), np.float64(0.3)),
    (np.array([2, -3]), 1)])
def test_abs_value_resolvent_equals_prox_abs_off_the_float_path(y, step):
    # lists, float32, string and integer inputs and non-float steps keep prox_abs's bits
    c = np.array([0.1, 0.7])
    want = prox_abs(y, c, step)
    got = AbsValue(c).resolvent(y, step)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("c, scalar", [
    (0.3, True), ([0.3], True), (np.array([[0.3]]), True),
    ([0.3, 1.0], False), (np.zeros((1, 2)), False), (np.zeros(6), False)])
def test_resolvent_scalar_exists_for_one_entry_centres_only(c, scalar):
    # CountedScalarOp and the solvers' scalar-path choice read this attribute
    assert hasattr(AbsValue(c), "resolvent_scalar") is scalar


@pytest.mark.parametrize("p", [0.3, [-0.0], np.array([[0.3]]), [0.3, 1.0], np.zeros((1, 2)),
                               np.zeros(6)])
def test_point_indicator_offers_no_float_form_and_pickles(p):
    # no workload sweeps a PointIndicator in Python floats, so it offers no float form
    fresh = PointIndicator(p)
    for op in (fresh, pickle.loads(pickle.dumps(fresh))):
        assert not hasattr(op, "resolvent_scalar") and not hasattr(op, "entry_resolvents")
        y = np.full(op.p.shape, 7.5)
        assert op.resolvent(y, 0.5).tobytes() == op.p.tobytes()


def test_zero_op_offers_no_float_form():
    assert not hasattr(ZeroOp(), "resolvent_scalar") and not hasattr(ZeroOp(), "entry_resolvents")


@pytest.mark.parametrize("op, dim, offered", [
    (AbsValue([0.3, -1.0]), 2, True), (AbsValue([0.3, -1.0]), 3, False),
    (AbsValue([-0.0]), 1, True), (AbsValue(0.3), 2, False), (AbsValue(np.zeros((1, 2))), 2, False)])
def test_entry_resolvents_are_offered_at_the_operators_own_length_only(op, dim, offered):
    # the solvers' column path needs exactly dim of them; entry j has the resolvent's bits
    for op in (op, pickle.loads(pickle.dumps(op))):
        entries = op.entry_resolvents(dim)
        assert (entries is not None) is offered
        if offered:
            y = np.array([-0.0, 7.5, -2.0, 0.25, math.inf][:dim])
            want = op.resolvent(y).tolist()
            assert len(entries) == dim
            assert all(_same_bits(f(v), w) for f, v, w in zip(entries, y.tolist(), want))


@pytest.mark.parametrize("p, y", [
    ([1.0, 2.0], np.ones(1)), ([1.0], np.ones(2)), ([1.0, 2.0], np.ones((1, 2))),
    ([1.0], 3.0), ([1.0, 2.0], [1.0])])
def test_point_indicator_rejects_a_mismatched_shape(p, y):
    want = f"shapes disagree: y {np.shape(y)}, p {np.shape(p)}"
    with pytest.raises(ShapeError) as err:
        PointIndicator(p).resolvent(y)
    assert str(err.value) == want


@pytest.mark.parametrize("c", [[0.3], [0.3, -1.0]])
def test_abs_value_pickles(c):
    op = pickle.loads(pickle.dumps(AbsValue(c)))
    assert np.array_equal(op.c, c) and hasattr(op, "resolvent_scalar") is (len(c) == 1)
    y = np.full(len(c), 2.0)
    assert op.resolvent(y, 0.5).tolist() == prox_abs(y, c, 0.5).tolist()


def test_prox_abs_rejects_bad_step():
    with pytest.raises(ParameterError):
        prox_abs(np.array([1.0]), np.array([0.0]), 0.0)


NAN_PARAMETER_CALLS = {
    "prox_abs step": lambda: prox_abs(np.array([1.0]), np.array([0.0]), math.nan),
    "prox_l1 lam": lambda: prox_l1(np.ones(3), math.nan),
    "prox_nuclear lam": lambda: prox_nuclear(np.ones((3, 3)), math.nan),
    "project_partial_ball delta": lambda: project_partial_ball(
        np.ones((2, 2)), np.ones((2, 2), dtype=bool), math.nan),
    "AffineOp step": lambda: AffineOp(np.eye(2), np.zeros(2)).resolvent(np.zeros(2), math.nan),
}


@pytest.mark.parametrize("name", sorted(NAN_PARAMETER_CALLS))
def test_range_checks_reject_nan(name):
    with pytest.raises(ParameterError, match=name.split()[1]):
        NAN_PARAMETER_CALLS[name]()


# ---------------------------------------------------------------------------
# prox_l1 / prox_nuclear


def test_prox_l1_zero_lambda_is_identity(rng):
    y = rng.standard_normal((3, 4))
    assert np.array_equal(prox_l1(y, 0.0), y)


def test_prox_l1_threshold_boundary():
    assert prox_l1(np.array([[0.25]]), 0.25)[0, 0] == 0.0


def test_prox_l1_matches_scalar_grid(rng):
    y = rng.standard_normal((3, 3))
    lam = 0.1
    out = prox_l1(y, lam)
    for i in range(3):
        for j in range(3):
            oracle = grid_argmin(
                lambda x, t=y[i, j]: lam * np.abs(x) + 0.5 * (x - t) ** 2, -4.0, 4.0
            )
            assert abs(out[i, j] - oracle) <= 1e-5


def test_prox_nuclear_zero_lambda(rng):
    y = rng.standard_normal((4, 3))
    assert np.linalg.norm(prox_nuclear(y, 0.0) - y) <= 1e-10


def test_prox_nuclear_rank_one():
    u = np.array([3.0, 0.0, 4.0]) / 5.0
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    y = 2.0 * np.outer(u, v)
    assert np.linalg.norm(prox_nuclear(y, 1.0) - np.outer(u, v)) <= 1e-10


def test_prox_nuclear_full_shrinkage(rng):
    y = rng.standard_normal((3, 3))
    top = np.linalg.norm(y, 2)
    assert np.linalg.norm(prox_nuclear(y, top + 0.1)) <= 1e-10


def test_prox_nuclear_prox_inequality(rng):
    # f(p) + 0.5 ||p - y||^2 <= f(q) + 0.5 ||q - y||^2 for random competitors
    y = rng.standard_normal((4, 4))
    lam = 0.7
    p = prox_nuclear(y, lam)
    fp = lam * np.linalg.norm(p, "nuc") + 0.5 * np.linalg.norm(p - y) ** 2
    for _ in range(100):
        q = p + rng.standard_normal((4, 4)) * rng.uniform(0.01, 2.0)
        fq = lam * np.linalg.norm(q, "nuc") + 0.5 * np.linalg.norm(q - y) ** 2
        assert fp <= fq + 1e-8


# ---------------------------------------------------------------------------
# project_partial_ball


def _ball_oracle(v, mask, delta):
    # independent route: solve ||v_mask|| / (1 + lam) = delta for the
    # multiplier by bisection instead of using the radial formula
    out = v.copy()
    obs = np.linalg.norm(v[mask])
    if obs <= delta:
        return out
    lo, hi = 0.0, obs / delta
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if obs / (1.0 + mid) > delta:
            lo = mid
        else:
            hi = mid
    out[mask] = v[mask] / (1.0 + 0.5 * (lo + hi))
    return out


def test_project_partial_ball_feasible_unchanged(rng):
    mask = rng.random((4, 4)) < 0.5
    v = rng.standard_normal((4, 4)) * 0.01
    assert np.array_equal(project_partial_ball(v, mask, 10.0), v)


def test_project_partial_ball_radial():
    mask = np.array([[True, False], [False, True]])
    v = np.array([[3.0, 7.0], [-5.0, 4.0]])
    delta = 0.5 * np.linalg.norm(v[mask])
    out = project_partial_ball(v, mask, delta)
    assert np.allclose(out[mask], 0.5 * v[mask], atol=1e-12)
    assert np.array_equal(out[~mask], v[~mask])


def test_project_partial_ball_is_projection(rng):
    mask = rng.random((5, 5)) < 0.4
    v = rng.standard_normal((5, 5)) * 2.0
    delta = 0.8
    out = project_partial_ball(v, mask, delta)
    assert np.linalg.norm(out - _ball_oracle(v, mask, delta)) <= 1e-10
    # optimality against random feasible competitors
    dist = np.linalg.norm(out - v)
    for _ in range(100):
        q = rng.standard_normal((5, 5))
        qn = np.linalg.norm(q[mask])
        if qn > delta:
            q[mask] *= delta / qn * rng.random()
        assert dist <= np.linalg.norm(q - v) + 1e-10


def test_project_partial_ball_idempotent(rng):
    mask = rng.random((4, 6)) < 0.4
    v = rng.standard_normal((4, 6)) * 3.0
    once = project_partial_ball(v, mask, 0.3)
    twice = project_partial_ball(once, mask, 0.3)
    assert np.linalg.norm(twice - once) <= 1e-12


# ---------------------------------------------------------------------------
# affine resolvents and shifts


def test_affine_op_resolvent_trivial(rng):
    y = rng.standard_normal(4)
    out = AffineOp(np.zeros((4, 4)), np.zeros(4)).resolvent(y, 1.0)
    assert np.allclose(out, y, atol=1e-12)
    out = AffineOp(np.eye(4), np.zeros(4)).resolvent(y, 1.0)
    assert np.allclose(out, y / 2.0, atol=1e-12)
    # m = 0 is the constant operator x -> c, whose resolvent is the shift y - step * c
    c = rng.standard_normal(4)
    out = AffineOp(np.zeros((4, 4)), c).resolvent(y, 0.7)
    assert np.allclose(out, y - 0.7 * c, atol=1e-12)


def test_affine_op_firmly_nonexpansive(rng):
    a = rng.standard_normal((4, 4))
    k = rng.standard_normal((4, 4))
    m = a.T @ a + 0.5 * (k - k.T)
    c = rng.standard_normal(4)
    op = AffineOp(m, c)
    for _ in range(100):
        gap = firmness_gap(op, rng.standard_normal(4), rng.standard_normal(4))
        assert gap <= 1e-10


def test_affine_op_caches_inverse_and_shift_per_step(rng):
    a = rng.standard_normal((4, 4))
    k = rng.standard_normal((4, 4))
    m = a.T @ a + 0.5 * (k - k.T)
    c = rng.standard_normal(4)
    op = AffineOp(m, c)
    for _ in range(3):
        for step in (1.0, 0.3):
            y = rng.standard_normal(4)
            fresh = np.linalg.inv(np.eye(4) + step * m) @ (y - step * c)
            assert op.resolvent(y, step).tobytes() == fresh.tobytes()
    assert sorted(op._cache) == [0.3, 1.0]


def test_affine_op_rejects_nonmonotone():
    with pytest.raises(ParameterError):
        AffineOp(-np.eye(2), np.zeros(2))


def test_prox_abs_prox_inequality(rng):
    c = rng.standard_normal(4)
    y = rng.standard_normal(4)
    step = 1.3
    p = prox_abs(y, c, step)
    fp = step * np.abs(p - c).sum() + 0.5 * np.linalg.norm(p - y) ** 2
    for _ in range(100):
        q = p + rng.standard_normal(4) * rng.uniform(0.01, 2.0)
        assert fp <= step * np.abs(q - c).sum() + 0.5 * np.linalg.norm(q - y) ** 2 + 1e-8


# ---------------------------------------------------------------------------
# the operator zoo is firmly nonexpansive


def _zoo(rng, dim=3, seed=77):
    # one operator of every class in the package, each acting on R^dim: among
    # them a projection (PointIndicator) and a constant shift (AffineOp with
    # m = 0); the dual block operators come from a two-block quadratic problem
    inst, ops = affine_ops(2, dim, seed=seed)
    blocks = []
    for _ in range(2):
        p_ = rng.standard_normal((3, 3))
        blocks.append(quadratic_block(p_.T @ p_ + 0.4 * np.eye(3), rng.standard_normal(3),
                                      rng.standard_normal((dim, 3))))
    duals = dual_ops(SepProblem(blocks=tuple(blocks), b=rng.standard_normal(dim)))
    return [
        ZeroOp(),
        AbsValue(rng.standard_normal(dim)),
        ops[0],
        PointIndicator(rng.standard_normal(dim)),
        AffineOp(np.zeros((dim, dim)), rng.standard_normal(dim)),
        ProxOp(prox_l1),
        *duals,
    ]


def test_zoo_firmly_nonexpansive(rng):
    for op in _zoo(rng):
        worst = max(
            firmness_gap(op, rng.standard_normal(3), rng.standard_normal(3))
            for _ in range(100)
        )
        assert worst <= 1e-10, type(op).__name__


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 5), step=st.floats(0.05, 20.0))
def test_every_operator_class_is_firmly_nonexpansive(seed, dim, step):
    # J_{step*A} is the resolvent of step*A, so a drawn step rescales each operator;
    # the dual block resolvents exist only at unit step
    rng = np.random.default_rng(seed)
    zoo = _zoo(rng, dim, seed)
    package_classes = {c for c in MonotoneOp.__subclasses__() if c.__module__.startswith("minsplit")}
    assert package_classes <= {type(op) for op in zoo}
    for op in zoo:
        op_step = 1.0 if isinstance(op, _DualBlockOp) else step
        for _ in range(5):
            gap = firmness_gap(op, rng.standard_normal(dim), rng.standard_normal(dim), op_step)
            assert gap <= 1e-10, type(op).__name__


def test_partial_matrix_validation(rng):
    vals = rng.standard_normal((3, 4))
    pm = PartialMatrix(values=vals, mask=vals > 0)
    assert np.array_equal(pm.observed()[~pm.mask], np.zeros((~pm.mask).sum()))
    with pytest.raises(ShapeError):
        PartialMatrix(values=vals, mask=np.ones((2, 2), dtype=bool))
