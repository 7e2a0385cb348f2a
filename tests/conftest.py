"""Fixtures and helpers shared by the test modules.

``quadratic_block`` (with its ``solve_small`` and ``SingularMatrixError``),
``PointIndicator`` and ``firmness_gap`` build test inputs and measure
properties that only the tests need, so they live here rather than in the
package.
"""

import numpy as np
import pytest
from hypothesis import settings

from minsplit import MonotoneOp, SepBlock, gen_affine_monotone
from minsplit.errors import MinsplitError, ShapeError
from minsplit.linalg import as_matrix, as_vector

# property tests draw the same examples on every run and stay fast
settings.register_profile("minsplit", derandomize=True, deadline=None, max_examples=50)
settings.load_profile("minsplit")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def affine_ops(n, dim, seed, moduli=None):
    """Random affine monotone tuple plus its recorded zero."""
    inst = gen_affine_monotone(n, dim, seed, moduli=moduli)
    return inst, inst.operators()


def count_calls(monkeypatch, owner, attr):
    """Rebind ``owner.attr`` to a wrapper that records each call; returns the record."""
    calls = []
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


class SingularMatrixError(MinsplitError, ArithmeticError):
    """A linear solve hit a (numerically) singular matrix."""


def solve_small(m, b):
    """Solve the square system ``m @ x = b`` with a residual back-check.

    Intended for small, well-posed systems such as ``I + step*M`` with a
    monotone ``M``.  The solution satisfies
    ``||m @ x - b|| <= 1e-8 * (1 + ||b||)`` or a ``SingularMatrixError``
    is raised.
    """
    m = as_matrix(m, "m")
    b = as_vector(b, "b")
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"m must be square, got {m.shape}")
    if m.shape[0] != b.size:
        raise ShapeError(f"m is {m.shape} but b has length {b.size}")
    try:
        x = np.linalg.solve(m, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    residual = float(np.linalg.norm(m @ x - b))
    if not np.isfinite(residual) or residual > 1e-8 * (1.0 + float(np.linalg.norm(b))):
        raise SingularMatrixError(
            f"system is singular to working tolerance (residual {residual:.3e})"
        )
    return x


def quadratic_block(q_mat, q_vec, a_mat, label="quadratic"):
    """Block with ``f(w) = 0.5 w^T Q w + q^T w`` and a general matrix ``A``."""
    q_mat = as_matrix(q_mat, "Q")
    q_vec = as_vector(q_vec, "q")
    a_mat = as_matrix(a_mat, "A")
    if q_mat.shape[0] != q_mat.shape[1] or q_mat.shape[0] != q_vec.size:
        raise ShapeError("Q must be square and match q")
    if a_mat.shape[1] != q_vec.size:
        raise ShapeError("A must have as many columns as Q")
    eig_q = np.linalg.eigvalsh(0.5 * (q_mat + q_mat.T))
    gram = a_mat.T @ a_mat
    eig_gram = np.linalg.eigvalsh(gram)
    system = q_mat + gram

    def solve(v):
        return solve_small(system, -(q_vec + a_mat.T @ v))

    return SepBlock(
        solve=solve,
        apply=lambda w: a_mat @ w,
        w_dim=q_vec.size,
        out_dim=a_mat.shape[0],
        coercive=bool(eig_q[0] > 0),
        gram_invertible=bool(eig_gram[0] > 1e-12 * max(1.0, eig_gram[-1])),
        label=label,
    )


class PointIndicator(MonotoneOp):
    """Normal cone of ``{p}``; its resolvent is the constant ``p``."""

    def __init__(self, p):
        self.p = np.atleast_1d(np.asarray(p, dtype=np.float64))

    def resolvent(self, y, step=1.0):
        if np.shape(y) != self.p.shape:
            raise ShapeError(f"shapes disagree: y {np.shape(y)}, p {self.p.shape}")
        return self.p.copy()


def firmness_gap(op, y, y_bar, step=1.0):
    """Violation of firm nonexpansiveness at the pair ``(y, y_bar)``.

    Returns ``||Jy - Jy_bar||^2 - <Jy - Jy_bar, y - y_bar>``, which must be
    nonpositive (up to roundoff) for the resolvent of a monotone operator.
    """
    jy = op.resolvent(np.asarray(y, dtype=np.float64), step)
    jy_bar = op.resolvent(np.asarray(y_bar, dtype=np.float64), step)
    dj = jy - jy_bar
    dy = np.asarray(y, dtype=np.float64) - np.asarray(y_bar, dtype=np.float64)
    return float(dj @ dj - dj @ dy)
