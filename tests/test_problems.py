import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minsplit import (
    AffineMonotoneInstance,
    Prng,
    cycle_laplacian,
    firmness_gap,
    gen_affine_monotone,
    gen_consensus,
    gen_rpca,
    mt_solve,
    op_norm,
    svd,
)
from minsplit.errors import ParameterError, SchemeParseError

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


def test_consensus_symmetric_targets():
    from minsplit import ConsensusInstance

    inst = ConsensusInstance(n=3, c=np.array([-1.0, 0.0, 1.0]), seed=0)
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
        dim=dim,
        mats=(np.zeros((dim, dim)),) * 2,
        offsets=(np.zeros(dim),) * 2,
        moduli=(0.0, 0.0),
        solution=np.zeros(dim),
        seed=0,
    )
    y = np.array([0.3, -1.0, 2.0])
    for op in inst.operators():
        assert np.allclose(op.resolvent(y), y, atol=1e-12)


def test_affine_monotone_recorded_zero():
    for seed in range(5):
        inst = gen_affine_monotone(4, 3, seed)
        total = sum(m @ inst.solution + c for m, c in zip(inst.mats, inst.offsets))
        assert np.linalg.norm(total) <= 1e-12


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


# ---------------------------------------------------------------------------
# plain-text serialisation


def test_save_load_consensus_exact(tmp_path):
    from minsplit import load_instance, save_instance

    inst = gen_consensus(10, 4)
    path = tmp_path / "c.txt"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.n == inst.n and back.seed == inst.seed
    assert np.array_equal(back.c, inst.c)


def test_save_load_rpca_exact(tmp_path):
    from minsplit import load_instance, save_instance

    inst = gen_rpca(8, 6, 3)
    path = tmp_path / "r.txt"
    save_instance(inst, path)
    back = load_instance(path)
    assert np.array_equal(back.observed, inst.observed)
    assert np.array_equal(back.omega, inst.omega)
    assert np.array_equal(back.low_rank, inst.low_rank)
    assert np.array_equal(back.sparse, inst.sparse)


def test_save_load_affine_exact(tmp_path):
    from minsplit import load_instance, save_instance

    inst = gen_affine_monotone(3, 4, 9, moduli=(0.0, 0.25, 0.5))
    path = tmp_path / "a.txt"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.moduli == inst.moduli
    assert np.array_equal(back.solution, inst.solution)
    for a, b in zip(back.mats, inst.mats):
        assert np.array_equal(a, b)
    for a, b in zip(back.offsets, inst.offsets):
        assert np.array_equal(a, b)


# Malformed instance files raise SchemeParseError at the offending line, as
# scheme files do.


def _load_text(tmp_path, text):
    from minsplit import load_instance

    path = tmp_path / "inst.txt"
    path.write_text(text)
    return load_instance(path)


def test_load_instance_rejects_short_consensus_row(tmp_path):
    with pytest.raises(SchemeParseError) as err:
        _load_text(tmp_path, "consensus 5 4\n1.0 2.0 3.0 4.0\n")
    assert err.value.line_no == 2


def test_load_instance_rejects_trailing_rows(tmp_path):
    with pytest.raises(SchemeParseError) as err:
        _load_text(tmp_path, "consensus 2 4\n1.0 2.0\n3.0 4.0\n")
    assert err.value.line_no == 3


def test_load_instance_rejects_empty_file(tmp_path):
    with pytest.raises(SchemeParseError) as err:
        _load_text(tmp_path, "\n  \n")
    assert err.value.line_no == 1


def test_load_instance_skips_comments(tmp_path):
    inst = _load_text(tmp_path, "# two targets\nconsensus 2 4\n\n# c\n1.0 -2.5\n")
    assert inst.n == 2 and inst.seed == 4
    assert np.array_equal(inst.c, [1.0, -2.5])


def test_load_instance_rejects_non_numeric_entry(tmp_path):
    with pytest.raises(SchemeParseError) as err:
        _load_text(tmp_path, "affine 1 2 0\n0.0\n1.0 x\n1 0\n0 1\n0 0\n")
    assert err.value.line_no == 3
    # a non-finite entry is reported on its own line too
    with pytest.raises(SchemeParseError) as err:
        _load_text(tmp_path, "affine 1 2 0\n0.0\n1.0 2.0\n1 0\n0 inf\n0 0\n")
    assert err.value.line_no == 5


def test_load_instance_rejects_fractional_mask(tmp_path):
    text = "rpca 1 2 0 0.1 0.5\n1 2\n0 0\n1 0.5\n1 0\n"
    with pytest.raises(SchemeParseError) as err:
        _load_text(tmp_path, text)
    assert err.value.line_no == 4
    inst = _load_text(tmp_path, text.replace("0.5\n", "0\n"))
    assert inst.omega.dtype == bool and inst.omega.tolist() == [[True, False]]


@pytest.mark.parametrize("header", ["1", "consensus 1", "consensus 1 4 9", "consensus one 4",
                                    "lasso 1 4", "affine 0 1 4"])
def test_load_instance_rejects_bad_header(tmp_path, header):
    with pytest.raises(SchemeParseError) as err:
        _load_text(tmp_path, f"# comment\n{header}\n1.0\n")
    assert err.value.line_no == 2


def _round_trip(tmp_path, inst):
    from minsplit import load_instance, save_instance

    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    back = load_instance(path)
    save_instance(back, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()
    return back


@given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
def test_consensus_round_trip_is_exact(tmp_path_factory, n, seed):
    inst = gen_consensus(n, seed)
    back = _round_trip(tmp_path_factory.mktemp("c"), inst)
    assert (back.n, back.seed) == (inst.n, inst.seed)
    assert np.array_equal(back.c, inst.c)


@given(m=st.integers(2, 7), n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
def test_rpca_round_trip_is_exact(tmp_path_factory, m, n, seed):
    inst = gen_rpca(m, n, seed)
    back = _round_trip(tmp_path_factory.mktemp("r"), inst)
    assert (back.m, back.n, back.seed) == (inst.m, inst.n, inst.seed)
    assert (back.sparse_frac, back.obs_frac) == (inst.sparse_frac, inst.obs_frac)
    for name in ("low_rank", "sparse", "omega", "observed"):
        assert np.array_equal(getattr(back, name), getattr(inst, name)), name
    assert back.omega.dtype == bool


@given(n_ops=st.integers(1, 5), dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_affine_round_trip_is_exact(tmp_path_factory, n_ops, dim, seed, data):
    moduli = data.draw(st.lists(st.floats(0.0, 10.0), min_size=n_ops, max_size=n_ops))
    inst = gen_affine_monotone(n_ops, dim, seed, moduli=moduli)
    back = _round_trip(tmp_path_factory.mktemp("a"), inst)
    assert (back.dim, back.seed, back.moduli) == (inst.dim, inst.seed, inst.moduli)
    assert np.array_equal(back.solution, inst.solution)
    for a, b in zip(back.mats + back.offsets, inst.mats + inst.offsets):
        assert np.array_equal(a, b)
