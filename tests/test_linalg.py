import numpy as np
import pytest

from minsplit import cycle_laplacian, op_norm, svd
from minsplit.errors import MinsplitError, ParameterError, ShapeError
from minsplit.linalg import as_matrix, as_vector

from conftest import SingularMatrixError, solve_small


def test_svd_identity():
    res = svd(np.eye(3))
    assert np.allclose(res.sigma, [1.0, 1.0, 1.0], atol=1e-12)


def test_svd_diagonal():
    res = svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(res.sigma, [3.0, 2.0, 1.0], atol=1e-12)
    # factors are the identity up to per-column signs
    signs = np.sign(np.diag(res.u))
    assert np.allclose(res.u * signs, np.eye(3), atol=1e-12)
    assert np.allclose((res.vt.T * signs).T, np.eye(3), atol=1e-12)


def test_svd_reconstruction_and_orthonormality(rng):
    x = rng.standard_normal((5, 4))
    res = svd(x)
    scale = 1.0 + np.linalg.norm(x)
    assert np.linalg.norm(res.reconstruct() - x) <= 1e-10 * scale
    assert np.linalg.norm(res.u.T @ res.u - np.eye(4)) <= 1e-10
    assert np.linalg.norm(res.vt @ res.vt.T - np.eye(4)) <= 1e-10
    assert np.all(np.diff(res.sigma) <= 0)
    assert np.all(res.sigma >= 0)


def test_op_norm_cycle_laplacian():
    # eigenvalues of the n-cycle Laplacian are 2 - 2 cos(2 pi k / n)
    n = 10
    eigs = [2.0 - 2.0 * np.cos(2.0 * np.pi * k / n) for k in range(n)]
    assert max(eigs) == pytest.approx(4.0, abs=1e-12)
    assert op_norm(cycle_laplacian(n)) == pytest.approx(4.0, rel=1e-8)


def test_op_norm_trivial():
    assert op_norm(np.zeros((3, 3))) == 0.0
    assert op_norm(np.diag([3.0, 2.0, 1.0])) == pytest.approx(3.0, abs=1e-12)


def test_op_norm_transpose_invariant(rng):
    for _ in range(5):
        x = rng.standard_normal((6, 3))
        assert abs(op_norm(x) - op_norm(x.T)) <= 1e-10


def test_solve_small_trivial():
    assert np.allclose(solve_small(np.eye(2), [1.0, 2.0]), [1.0, 2.0])
    assert np.allclose(solve_small(2.0 * np.eye(2), [4.0, 6.0]), [2.0, 3.0])


def test_solve_small_spd_roundtrip(rng):
    a = rng.standard_normal((6, 6))
    m = a @ a.T + 6.0 * np.eye(6)
    b = rng.standard_normal(6)
    x = solve_small(m, b)
    assert np.linalg.norm(m @ x - b) <= 1e-10 * (1.0 + np.linalg.norm(b))


def test_solve_small_singular():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        solve_small(m, np.array([1.0, 1.0]))


def test_solve_small_shape_errors():
    with pytest.raises(ShapeError):
        solve_small(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ShapeError):
        solve_small(np.eye(2), np.ones(3))


def test_validation_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])
    # the package error, which the CLI reports without a traceback
    for bad in (lambda: as_vector([np.nan], "c"), lambda: as_matrix([[-np.inf]], "m")):
        with pytest.raises(ParameterError) as err:
            bad()
        assert isinstance(err.value, MinsplitError)
    with pytest.raises(ShapeError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0])
