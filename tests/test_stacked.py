"""Stacked paths against their point-at-a-time references.

When every operator offers ``resolvent_rows``, ``averagedness_check`` and
``scheme.image_map`` give maps that offer ``rows``, and the sampler maps each
draw of up to 64 pairs as one stack.  The stack must give the same worst slack
bits and leave the generator where the point-at-a-time path leaves it.
``scheme.solve_stack`` runs the fixed-point searches of many affine instances
as one stack, and must give each instance ``solve_scheme``'s result, bit for bit.
Batched ``np.matmul`` equalling ``ndarray.dot`` is a property of the BLAS kernel, so
``tests/test_blas_kernels.py`` reruns this file under the AVX2 kernels.
"""

import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from minsplit import (
    AffineOp,
    MonotoneOp,
    Prng,
    ProxOp,
    SchemeMatrices,
    averagedness_check,
    gen_affine_monotone,
    load_scheme,
    mt_scheme,
    ryu3_scheme,
    ryu4_scheme,
    save_scheme,
    solve_scheme,
    solve_stack,
    update_map,
)
from minsplit import scheme, splitting
from minsplit.errors import ParameterError, ShapeError
from minsplit.operators import AffineStack
from minsplit.scheme import image_map
from minsplit.splitting import DIVERGENCE_CAP, averagedness_sample, iterate, stop_reason

from conftest import count_calls


def drawn_scheme(data):
    # any entries, saved and read back; n = d = 1 reaches the sweep's @ fallback
    n, d = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))

    def matrix(rows, cols):
        values = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=rows * cols,
                                    max_size=rows * cols))
        return np.array(values, dtype=np.float64).reshape(rows, cols)

    s = SchemeMatrices(n=n, d=d, B=matrix(n, d), L=np.tril(matrix(n, n), -1),
                       Tz=matrix(d, d), Tx=matrix(d, n), Sz=matrix(1, d), Sx=matrix(1, n))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.txt")
        save_scheme(s, path)
        return load_scheme(path)


def mt_map(ops, gamma, dim):
    # the map averagedness_check samples, caught on its way into the sampler
    with mock.patch.object(splitting, "averagedness_sample",
                           wraps=splitting.averagedness_sample) as sample:
        averagedness_check(ops, gamma, 1, dim=dim)
    return sample.call_args.args[0]


def sampled_map(kind, data, gamma, dim, seed):
    # (map offering rows, blocks)
    if kind == "mt_step":
        n = data.draw(st.integers(2, 7))
        return mt_map(gen_affine_monotone(n, dim, seed).operators(), gamma, dim), n - 1
    if kind == "mt_scheme":
        s = mt_scheme(data.draw(st.integers(2, 7)), gamma)
    elif kind == "drawn":
        s = drawn_scheme(data)
    else:
        s = (ryu3_scheme if kind == "ryu3" else ryu4_scheme)(gamma)
    return image_map(s, gen_affine_monotone(s.n, dim, seed).operators()), s.d


def poisoned(update, poison, stacked):
    # update, point by point or (stacked) only through its rows, with the image of
    # point number `poison` made NaN; counts the points mapped
    mapped = []

    def point(z):
        mapped.append(1)
        out = update(z)
        return out * np.nan if len(mapped) - 1 == poison else out

    def rows(zs):
        out = update.rows(zs)
        if poison is not None and len(mapped) <= poison < len(mapped) + len(zs):
            out[poison - len(mapped)] *= np.nan
        mapped.extend([1] * len(zs))
        return out

    if stacked:
        point = mock.Mock(side_effect=AssertionError("mapped a single point"), rows=rows)
    return point, mapped


@given(kind=st.sampled_from(["mt_step", "mt_scheme", "ryu3", "ryu4", "drawn"]),
       dim=st.integers(1, 5), pairs=st.integers(1, 150), seed=st.integers(0, 2**32 - 1),
       gamma=st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False),
       poisoned_at=st.none() | st.floats(0.0, 1.0, exclude_max=True), data=st.data())
def test_stacked_path_equals_the_point_path_bit_for_bit(kind, dim, pairs, seed, gamma,
                                                        poisoned_at, data):
    update, blocks = sampled_map(kind, data, gamma, dim, seed)
    assert update.rows is not None  # AffineOp operators offer resolvent_rows
    poison = None if poisoned_at is None else int(poisoned_at * 2 * pairs)
    stacked, stacked_mapped = poisoned(update, poison, stacked=True)
    single, single_mapped = poisoned(update, poison, stacked=False)
    bulk, one = Prng(seed), Prng(seed)
    got = averagedness_sample(stacked, gamma, bulk, blocks, dim, pairs)
    want = averagedness_sample(single, gamma, one, blocks, dim, pairs)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert bulk.uniforms(2).tobytes() == one.uniforms(2).tobytes()
    # every drawn point up to the poisoned pair is mapped on both paths
    assert len(stacked_mapped) >= len(single_mapped) > 0


@given(dim=st.integers(1, 5), k=st.integers(0, 40), seed=st.integers(0, 2**32 - 1),
       step=st.sampled_from([1.0, 0.5, 3.0]), centred=st.booleans(), data=st.data())
def test_resolvent_rows_equal_resolvent_row_by_row(dim, k, seed, step, centred, data):
    # a zero shift and signed-zero entries reach the one-entry case, where ndarray.dot
    # would give -0.0 and @ gives +0.0
    op = (AffineOp(2.0 * np.eye(dim), np.zeros(dim)) if centred
          else gen_affine_monotone(1, dim, seed).operators()[0])
    entries = st.sampled_from([-0.0, 0.0]) | st.floats(-1e3, 1e3)
    ys = data.draw(hnp.arrays(np.float64, (k, dim), elements=entries))
    got = op.resolvent_rows(ys, step)
    want = np.array([op.resolvent(y, step) for y in ys]).reshape(k, dim)
    assert got.shape == (k, dim)
    assert got.tobytes() == want.tobytes()


def test_resolvent_rows_checks_the_last_axis():
    op = gen_affine_monotone(2, 3, 1).operators()[0]
    with pytest.raises(ShapeError) as err:
        op.resolvent_rows(np.zeros((5, 4)))
    assert str(err.value) == "rows must have length 3, got shape (5, 4)"


class RowCounter(MonotoneOp):
    """An operator's resolvent, its points counted by the form they went through."""

    def __init__(self, op):
        self.op, self.points, self.rows = op, 0, 0

    def resolvent(self, y, step=1.0):
        self.points += 1
        return self.op.resolvent(y, step)

    def resolvent_rows(self, ys, step=1.0):
        self.rows += len(ys)
        return self.op.resolvent_rows(ys, step)


PAIRS = 137  # two full draws of 64 pairs and a short one


def sample_mt(ops, dim):
    return averagedness_check(ops, 0.5, PAIRS, dim=dim, seed=4)


def sample_scheme(s):
    def run(ops, dim):
        return averagedness_sample(image_map(s, ops), 0.5, Prng(4), s.d, dim, PAIRS)
    return run


@pytest.mark.parametrize("n, run", [
    (4, sample_mt), (2, sample_mt), (4, sample_scheme(mt_scheme(4, 0.5))),
    (3, sample_scheme(ryu3_scheme(0.5))), (4, sample_scheme(ryu4_scheme(0.5))),
], ids=["check-n4", "check-n2", "mt4", "ryu3", "ryu4"])
def test_one_row_per_operator_per_sampled_point(n, run):
    counted = [RowCounter(op) for op in gen_affine_monotone(n, 3, 2).operators()]
    got = run(counted, 3)
    assert [(op.points, op.rows) for op in counted] == [(0, 2 * PAIRS)] * n
    # one operator without resolvent_rows sends every point through resolvent
    counted = [RowCounter(op) for op in gen_affine_monotone(n, 3, 2).operators()]
    plain = [ProxOp(counted[0].resolvent)] + counted[1:]
    assert np.float64(run(plain, 3)).tobytes() == np.float64(got).tobytes()
    assert [(op.points, op.rows) for op in counted] == [(2 * PAIRS, 0)] * n


def same_solves(got, want):
    # (z bytes, converged, diverged, iterations) of each solve
    assert len(got) == len(want)
    for (z, *flags), (z_want, *flags_want) in zip(got, want):
        assert z.shape == z_want.shape and z.tobytes() == z_want.tobytes()
        assert flags == flags_want


@given(kind=st.sampled_from(["mt_scheme", "ryu3", "ryu4", "drawn"]), dim=st.integers(1, 5),
       k=st.integers(1, 12), max_iter=st.sampled_from([20000, 50, 2, 1]),
       tol=st.sampled_from([1e-10, 1e-3, 0.0]), seed=st.integers(0, 2**32 - 1),
       gamma=st.floats(0.05, 1.0), data=st.data())
def test_solve_stack_equals_solve_scheme_bit_for_bit(kind, dim, k, max_iter, tol, seed, gamma,
                                                     data):
    if kind == "mt_scheme":
        s = mt_scheme(data.draw(st.integers(2, 7)), gamma)
    elif kind == "drawn":
        s = drawn_scheme(data)
    else:
        s = (ryu3_scheme if kind == "ryu3" else ryu4_scheme)(gamma)
    op_lists = [gen_affine_monotone(s.n, dim, seed + j).operators() for j in range(k)]
    want = [solve_scheme(s, ops, dim=dim, tol=tol, max_iter=max_iter) for ops in op_lists]
    same_solves(solve_stack(s, op_lists, dim, tol=tol, max_iter=max_iter), want)


@pytest.mark.parametrize("seed", range(20))
def test_solve_stack_stops_on_the_residual_bits_at_tol(seed):
    # tol is exactly the residual of instance 0 at a sweep, so a residual one ulp off
    # moves its stop by a sweep
    s, dim = mt_scheme(4, 0.5), 4
    op_lists = [gen_affine_monotone(4, dim, 100 * seed + j).operators() for j in range(5)]
    update, z, residuals = update_map(s, op_lists[0]), np.zeros((s.d, dim)), []
    for _ in range(40):
        z_next = update(z)[0]
        residuals.append(splitting._norm(z_next - z))
        z = z_next
    tol = min(residuals[20:])
    want = [solve_scheme(s, ops, dim=dim, tol=tol, max_iter=200) for ops in op_lists]
    assert want[0][3] == 1 + next(k for k, r in enumerate(residuals) if r <= tol)
    same_solves(solve_stack(s, op_lists, dim, tol=tol, max_iter=200), want)


@given(dim=st.integers(1, 5), k=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_affine_stack_rows_equal_each_resolvent(dim, k, seed, data):
    # centred operators with signed-zero entries reach the one-entry case, where
    # ndarray.dot would give -0.0 and @ gives +0.0
    ops = [AffineOp(2.0 * np.eye(dim), np.zeros(dim)) if data.draw(st.booleans())
           else gen_affine_monotone(1, dim, seed + j).operators()[0] for j in range(k)]
    entries = st.sampled_from([-0.0, 0.0]) | st.floats(-1e3, 1e3)
    ys = data.draw(hnp.arrays(np.float64, (k, dim), elements=entries))
    stack = AffineStack.of(ops, dim)
    want = np.array([op.resolvent(y) for op, y in zip(ops, ys)])
    assert stack.resolvent_rows(ys).tobytes() == want.tobytes()
    rows = sorted(data.draw(st.sets(st.integers(0, k - 1))))
    assert stack.take(rows).resolvent_rows(ys[rows]).tobytes() == want[rows].tobytes()


class Subclassed(AffineOp):
    pass


@pytest.mark.parametrize("ops, dim", [
    ([], 2), ([ProxOp(lambda y, step: y)], 2), ([Subclassed(np.eye(2), np.zeros(2))], 2),
    ([AffineOp(np.eye(2), np.zeros(2)), AffineOp(np.eye(3), np.zeros(3))], 2),
    ([AffineOp(np.eye(2), np.zeros(2))], 3),
], ids=["empty", "prox", "subclass", "mixed-dim", "other-dim"])
def test_affine_stack_takes_only_affine_ops_of_its_dim(ops, dim):
    assert AffineStack.of(ops, dim) is None


# (residual, tol, max_iter): each stop rule, the boundaries of both tests, and the budget
STOP_CASES = {
    "nan": (math.nan, 1e-3, 3), "inf": (math.inf, 1e-3, 3), "-inf": (-math.inf, 1e-3, 3),
    "cap": (DIVERGENCE_CAP, 1e-3, 3), "2 cap": (2 * DIVERGENCE_CAP, 1e-3, 3),
    "r == tol": (1e-3, 1e-3, 3), "r > tol": (0.5, 1e-3, 3), "tol = 0": (0.0, 0.0, 3),
    "nan at tol = 0": (math.nan, 0.0, 3), "one sweep": (0.5, 1e-3, 1),
}


@pytest.mark.parametrize("case", sorted(STOP_CASES))
def test_stop_reason_is_iterates_rule(case):
    r, tol, max_iter = STOP_CASES[case]
    k = next(k for k in range(1, max_iter + 1) if stop_reason(r, tol, k, max_iter))
    assert (k, stop_reason(r, tol, k, max_iter)) == iterate(lambda: {"residual": r}, None,
                                                            max_iter, tol)


@pytest.mark.parametrize("bad", [dict(tol=-1.0), dict(tol=math.nan), dict(max_iter=0),
                                 dict(max_iter=2.5), dict(dim=0), dict(dim=4.0)],
                         ids=["tol -1", "tol nan", "max_iter 0", "max_iter 2.5", "dim 0",
                              "dim 4.0"])
def test_solve_stack_rejects_what_solve_scheme_rejects(bad):
    s, args = mt_scheme(3, 0.5), {"dim": 4, "tol": 1e-10, "max_iter": 10, **bad}
    op_lists = [gen_affine_monotone(3, 4, seed).operators() for seed in (1, 2)]
    with pytest.raises(ParameterError) as want:
        solve_scheme(s, op_lists[0], **args)
    with pytest.raises(ParameterError) as got:
        solve_stack(s, op_lists, **args)
    assert str(got.value) == str(want.value)


class ResolventCounter(MonotoneOp):
    """An :class:`AffineOp` behind a counted resolvent, so not an ``AffineOp`` itself."""

    def __init__(self, op):
        self.op, self.calls = op, 0

    def resolvent(self, y, step=1.0):
        self.calls += 1
        return self.op.resolvent(y, step)


def test_one_plain_operator_sends_every_instance_through_solve_scheme(monkeypatch):
    s = mt_scheme(4, 0.5)
    op_lists = [gen_affine_monotone(4, 3, seed).operators() for seed in range(5)]
    stacked = solve_stack(s, op_lists, 3)
    rows = count_calls(monkeypatch, AffineStack, "resolvent_rows")
    solves = count_calls(monkeypatch, scheme, "solve_scheme")
    counted = ResolventCounter(op_lists[2][1])
    op_lists[2][1] = counted
    same_solves(solve_stack(s, op_lists, 3), stacked)
    assert len(solves) == len(op_lists) and rows == []
    assert counted.calls == stacked[2][3]  # one call per sweep of its instance


def test_the_stack_maps_one_row_per_operator_per_sweep(monkeypatch):
    s = mt_scheme(4, 0.5)
    op_lists = [gen_affine_monotone(4, 3, seed).operators() for seed in range(5)]
    rows = count_calls(monkeypatch, AffineStack, "resolvent_rows")
    solves = count_calls(monkeypatch, scheme, "solve_scheme")
    iterations = [it for *_, it in solve_stack(s, op_lists, 3)]
    assert solves == [] and len(set(iterations)) > 1  # the instances leave at their own sweeps
    assert len(rows) == s.n * max(iterations)
    assert sum(len(ys) for _, ys in rows) == s.n * sum(iterations)
