import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from minsplit import (
    AbsValue,
    AffineOp,
    AffineSetIndicator,
    ConstantOp,
    MonotoneOp,
    PartialMatrix,
    PointIndicator,
    ProxOp,
    ScaledOp,
    SepProblem,
    ZeroOp,
    dual_ops,
    firmness_gap,
    prox_abs,
    prox_l1,
    prox_nuclear,
    project_partial_ball,
    quadratic_block,
)
from minsplit.errors import ParameterError, ShapeError

from conftest import affine_ops


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


@given(y=st.floats(), c=st.floats(), step=st.floats(min_value=0.0, exclude_min=True))
@example(y=math.nan, c=0.1, step=1.0)
@example(y=-0.0, c=-0.0, step=1.0)
@example(y=0.0, c=-0.0, step=1.0)
@example(y=math.inf, c=math.inf, step=1.0)
@example(y=-math.inf, c=2.0, step=math.inf)
def test_prox_abs_scalar_path_equals_array_path_bit_for_bit(y, c, step):
    op = AbsValue(np.array([c]))
    with np.errstate(invalid="ignore", over="ignore"):
        array = float(op.resolvent(np.array([y]), step)[0])
    assert _same_bits(op.resolvent_scalar(y, step), array)


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
    "ScaledOp alpha": lambda: ScaledOp(ZeroOp(), math.nan),
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


def test_affine_op_firmly_nonexpansive(rng):
    a = rng.standard_normal((4, 4))
    k = rng.standard_normal((4, 4))
    m = a.T @ a + 0.5 * (k - k.T)
    c = rng.standard_normal(4)
    op = AffineOp(m, c)
    for _ in range(100):
        gap = firmness_gap(op, rng.standard_normal(4), rng.standard_normal(4))
        assert gap <= 1e-10


def test_affine_op_rejects_nonmonotone():
    with pytest.raises(ParameterError):
        AffineOp(-np.eye(2), np.zeros(2))


def test_constant_op_shift(rng):
    # x -> -b has the resolvent y + step * b, bit for bit
    y = np.array([0.0, 0.0])
    assert np.array_equal(ConstantOp(-np.zeros(2)).resolvent(y, 1.0), y)
    b = np.array([1.0, 0.0])
    assert np.array_equal(ConstantOp(-b).resolvent(y, 1.0), np.array([1.0, 0.0]))
    b, y = rng.standard_normal(5), rng.standard_normal(5)
    assert np.array_equal(ConstantOp(-b).resolvent(y, 0.7), y + 0.7 * b)


def test_constant_op_prox_inequality(rng):
    # ConstantOp(-b) is the gradient of f(x) = -<b, x>; its resolvent at
    # step is the prox of step * f
    b = rng.standard_normal(3)
    y = rng.standard_normal(3)
    step = 0.7
    p = ConstantOp(-b).resolvent(y, step)
    fp = -step * b @ p + 0.5 * np.linalg.norm(p - y) ** 2
    for _ in range(100):
        q = p + rng.standard_normal(3) * rng.uniform(0.01, 3.0)
        assert fp <= -step * b @ q + 0.5 * np.linalg.norm(q - y) ** 2 + 1e-8


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
    # one operator of every class in the package, each acting on R^dim; the
    # dual block operators come from a two-block quadratic problem
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
        AffineSetIndicator(rng.standard_normal(dim), rng.standard_normal((1, dim))),
        ConstantOp(rng.standard_normal(dim)),
        ScaledOp(ops[1], 0.35),
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


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 5))
def test_every_operator_class_is_firmly_nonexpansive(seed, dim):
    rng = np.random.default_rng(seed)
    zoo = _zoo(rng, dim, seed)
    package_classes = {c for c in MonotoneOp.__subclasses__() if c.__module__.startswith("minsplit")}
    assert package_classes <= {type(op) for op in zoo}
    for op in zoo:
        for _ in range(5):
            gap = firmness_gap(op, rng.standard_normal(dim), rng.standard_normal(dim))
            assert gap <= 1e-10, type(op).__name__


def test_partial_matrix_validation(rng):
    vals = rng.standard_normal((3, 4))
    pm = PartialMatrix(values=vals, mask=vals > 0)
    assert np.array_equal(pm.observed()[~pm.mask], np.zeros((~pm.mask).sum()))
    with pytest.raises(ShapeError):
        PartialMatrix(values=vals, mask=np.ones((2, 2), dtype=bool))
