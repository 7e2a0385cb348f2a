import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minsplit import (
    AffineMonotoneInstance,
    Prng,
    cycle_laplacian,
    gen_affine_monotone,
    gen_consensus,
    gen_rpca,
    mt_solve,
    op_norm,
    svd,
)
from minsplit.errors import ParameterError

from conftest import firmness_gap


MASK = (1 << 64) - 1


def splitmix64_reference(seed, k):
    """Pure-integer splitmix64, the published reference recurrence."""
    out = []
    state = seed & MASK
    for _ in range(k):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_prng_matches_reference_recurrence():
    for seed in (0, 1, 1234567, 2**63 + 11):
        ours = Prng(seed)._raw(8)
        ref = splitmix64_reference(seed, 8)
        assert [int(v) for v in ours] == ref


def test_prng_uniforms_from_reference():
    ref = splitmix64_reference(42, 4)
    expected = [(r >> 11) * 2.0**-53 for r in ref]
    got = Prng(42).uniforms(4)
    assert list(got) == expected
    assert all(0.0 <= u < 1.0 for u in got)


def test_prng_normals_box_muller_reference():
    ref = splitmix64_reference(7, 4)
    u1 = [((r >> 11) + 1) * 2.0**-53 for r in ref[:2]]
    u2 = [(r >> 11) * 2.0**-53 for r in ref[2:]]
    expected = []
    for a, b in zip(u1, u2):
        r = math.sqrt(-2.0 * math.log(a))
        expected += [r * math.cos(2.0 * math.pi * b), r * math.sin(2.0 * math.pi * b)]
    got = Prng(7).normals(4)
    assert np.allclose(got, expected, rtol=0, atol=0)


@given(seed=st.integers(0, 2**64 - 1), k=st.integers(1, 40), count=st.integers(1, 70))
def test_prng_normal_rows_equal_successive_normals(seed, k, count):
    bulk, single = Prng(seed), Prng(seed)
    rows = bulk.normal_rows(count, k)
    assert rows.shape == (count, k)
    expected = np.array([single.normals(k) for _ in range(count)])
    assert rows.tobytes() == expected.tobytes()
    assert bulk._count == single._count


def test_prng_stream_continues():
    p = Prng(5)
    first = p.uniforms(3)
    second = p.uniforms(3)
    both = Prng(5).uniforms(6)
    assert list(first) + list(second) == list(both)


def test_prng_subset():
    idx = Prng(3).subset(100, 17)
    assert idx.size == 17
    assert len(set(idx.tolist())) == 17
    assert np.array_equal(idx, Prng(3).subset(100, 17))


# ---------------------------------------------------------------------------
# consensus instances


def test_consensus_deterministic():
    a = gen_consensus(10, 4)
    b = gen_consensus(10, 4)
    assert np.array_equal(a.c, b.c)
    assert not np.array_equal(a.c, gen_consensus(10, 5).c)


def test_median_interval_is_minimizer_set():
    inst = gen_consensus(10, 1)
    lo, hi = inst.median_interval()
    objective = lambda x: np.abs(x - inst.c[:, None]).sum(axis=0)
    xs = np.linspace(inst.c.min() - 1, inst.c.max() + 1, 200001)
    vals = objective(xs)
    best = vals.min()
    inside = xs[(xs >= lo) & (xs <= hi)]
    outside = xs[(xs < lo - 1e-3) | (xs > hi + 1e-3)]
    assert np.all(objective(inside) <= best + 1e-9)
    assert np.all(objective(outside) > best + 1e-9)


def test_consensus_solver_target_is_median():
    inst = gen_consensus(10, 2)
    report = mt_solve(inst.operators(), gamma=0.9, tol=1e-10, max_iter=50000, dim=1)
    lo, hi = inst.median_interval()
    assert report.converged
    assert lo - 1e-6 <= report.final_x[0] <= hi + 1e-6


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 7, 11])
def test_median_interval_at_odd_n_is_the_middle_target(n, seed):
    inst = gen_consensus(n, seed)
    lo, hi = inst.median_interval()
    assert lo == hi == np.sort(inst.c)[n // 2]
    report = mt_solve(inst.operators(), gamma=0.9, tol=1e-10, max_iter=50000, dim=1)
    assert report.converged
    assert abs(report.final_x[0] - lo) <= 1e-8


def test_consensus_symmetric_targets():
    from minsplit import ConsensusInstance

    inst = ConsensusInstance(n=3, c=np.array([-1.0, 0.0, 1.0]))
    report = mt_solve(inst.operators(), gamma=0.9, tol=1e-12, max_iter=20000, dim=1)
    assert abs(report.final_x[0]) <= 1e-8


# ---------------------------------------------------------------------------
# cycle Laplacian


def test_cycle_laplacian_rows_sum_to_zero():
    for n in (3, 4, 7, 10):
        lap = cycle_laplacian(n)
        assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-14)
        assert np.allclose(lap, lap.T)


def test_cycle_laplacian_n4():
    expected = np.array(
        [
            [2.0, -1.0, 0.0, -1.0],
            [-1.0, 2.0, -1.0, 0.0],
            [0.0, -1.0, 2.0, -1.0],
            [-1.0, 0.0, -1.0, 2.0],
        ]
    )
    assert np.array_equal(cycle_laplacian(4), expected)


def test_cycle_laplacian_norm_even():
    # circulant eigenvalues 2 - 2 cos(2 pi k / n) peak at 4 for even n
    for n in (4, 10):
        oracle = max(2.0 - 2.0 * np.cos(2.0 * np.pi * k / n) for k in range(n))
        assert oracle == pytest.approx(4.0, abs=1e-12)
        assert op_norm(cycle_laplacian(n)) == pytest.approx(4.0, rel=1e-8)


def test_cycle_laplacian_rejects_small():
    with pytest.raises(ParameterError):
        cycle_laplacian(2)


# ---------------------------------------------------------------------------
# robust PCA instances


def test_rpca_checkerboard_rank_two():
    inst = gen_rpca(20, 20, 1)
    sigma = svd(inst.low_rank).sigma
    assert int((sigma > 1e-10).sum()) == 2


def test_rpca_support_fractions():
    for seed in (1, 2, 3):
        inst = gen_rpca(20, 20, seed)
        assert abs(inst.sparse.astype(bool).mean() - 0.15) <= 0.02
        assert abs(inst.omega.mean() - 0.40) <= 0.02


def test_rpca_deterministic_and_consistent():
    a = gen_rpca(12, 9, 8)
    b = gen_rpca(12, 9, 8)
    assert np.array_equal(a.observed, b.observed)
    assert np.array_equal(a.omega, b.omega)
    on = a.omega
    assert np.array_equal(a.observed[on], (a.low_rank + a.sparse)[on])
    assert np.all(a.observed[~on] == 0.0)


# ---------------------------------------------------------------------------
# affine monotone instances


def test_affine_monotone_zero_construction():
    dim = 3
    inst = AffineMonotoneInstance(
        mats=(np.zeros((dim, dim)),) * 2,
        offsets=(np.zeros(dim),) * 2,
        solution=np.zeros(dim),
    )
    y = np.array([0.3, -1.0, 2.0])
    for op in inst.operators():
        assert np.allclose(op.resolvent(y), y, atol=1e-12)


def test_affine_monotone_recorded_zero():
    for seed in range(5):
        inst = gen_affine_monotone(4, 3, seed)
        total = sum(m @ inst.solution + c for m, c in zip(inst.mats, inst.offsets))
        assert np.linalg.norm(total) <= 1e-12


def gen_affine_monotone_per_draw(n_ops, dim, seed, moduli):
    # the generator as it drew before its bulk draws: one normals call per matrix or vector
    prng = Prng(seed)
    scale = 1.0 / np.sqrt(dim)
    mats = []
    for beta in moduli:
        p = prng.normal_matrix(dim, dim) * scale
        k = prng.normal_matrix(dim, dim) * scale
        mats.append(p.T @ p + 0.5 * (k - k.T) + beta * np.eye(dim))
    solution = prng.normals(dim)
    offsets = [prng.normals(dim) for _ in range(n_ops - 1)]
    total = sum(m @ solution for m in mats)
    for c in offsets:
        total = total + c
    return mats, offsets + [-total], solution


@given(n_ops=st.integers(1, 9), dim=st.integers(1, 7), seed=st.integers(0, 2**64 - 1),
       data=st.data())
def test_affine_monotone_bulk_draws_keep_the_per_draw_bits(n_ops, dim, seed, data):
    moduli = data.draw(st.none() | st.lists(st.floats(0.0, 2.0), min_size=n_ops,
                                            max_size=n_ops))
    inst = gen_affine_monotone(n_ops, dim, seed, moduli=moduli)
    mats, offsets, solution = gen_affine_monotone_per_draw(
        n_ops, dim, seed, (0.0,) * n_ops if moduli is None else moduli)
    assert [m.tobytes() for m in inst.mats] == [m.tobytes() for m in mats]
    assert [c.tobytes() for c in inst.offsets] == [c.tobytes() for c in offsets]
    assert inst.solution.tobytes() == solution.tobytes()


def test_affine_monotone_monotonicity_certificate():
    inst = gen_affine_monotone(3, 4, 21, moduli=(0.0, 0.3, 0.0))
    for m in inst.mats:
        sym = 0.5 * (m + m.T)
        assert np.linalg.eigvalsh(sym)[0] >= -1e-12


def test_affine_monotone_end_to_end():
    inst = gen_affine_monotone(3, 4, 5)
    report = mt_solve(inst.operators(), gamma=0.9, tol=1e-10, max_iter=50000, dim=4)
    assert report.converged
    assert np.linalg.norm(report.final_x - inst.solution) <= 1e-6


def test_affine_monotone_firmness_audit(rng):
    inst = gen_affine_monotone(3, 3, 13)
    for op in inst.operators():
        for _ in range(100):
            assert firmness_gap(op, rng.standard_normal(3), rng.standard_normal(3)) <= 1e-10
