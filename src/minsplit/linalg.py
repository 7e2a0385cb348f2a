"""Dense float64 linear algebra used by the rest of the package.

Vectors are 1-d ``numpy.ndarray`` of float64, matrices are 2-d.  Everything
is validated to be finite on the way in (else :class:`ParameterError`).
:func:`svd` does not check its reconstruction, as it sits on the robust PCA
hot path; ``tests/test_linalg.py`` checks its reconstruction bound instead.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, ParameterError, ShapeError


def as_floats(x, name):
    """Coerce to a float64 array, else :class:`ParameterError` naming ``name``."""
    try:
        return np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a numeric array, got {x!r}") from None


def as_vector(x, name="vector"):
    """Coerce to a finite, non-empty 1-d float64 array."""
    v = as_floats(x, name)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"{name} must be a non-empty 1-d array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ParameterError(f"{name} contains non-finite entries")
    return v


def as_matrix(x, name="matrix", finite=True):
    """Coerce to a non-empty 2-d float64 array, finite unless ``finite=False``."""
    m = as_floats(x, name)
    if m.ndim != 2 or m.size == 0:
        raise ShapeError(f"{name} must be a non-empty 2-d array, got shape {m.shape}")
    if finite and not np.all(np.isfinite(m)):
        raise ParameterError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class SvdResult:
    """Thin singular value decomposition ``u @ diag(sigma) @ vt``.

    ``sigma`` is sorted in descending order and nonnegative; the columns of
    ``u`` and the rows of ``vt`` are orthonormal (to 1e-10 in the tests).
    """

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray

    def reconstruct(self):
        return (self.u * self.sigma) @ self.vt


def svd(x):
    """Thin SVD, as computed by ``numpy.linalg.svd``.

    Parameters
    ----------
    x : array_like
        Matrix to decompose.

    Returns
    -------
    SvdResult
        Factors of ``x``, unchecked here; ``tests/test_linalg.py`` checks
        ``||u @ diag(s) @ vt - x||_F <= 1e-10 * (1 + ||x||_F)``.

    Raises
    ------
    ParameterError
        If ``x`` has non-finite entries.
    DecompositionError
        If the underlying iteration fails to converge.
    """
    x = as_matrix(x)
    try:
        u, s, vt = np.linalg.svd(x, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise DecompositionError(f"svd did not converge: {exc}") from exc
    return SvdResult(u=u, sigma=s, vt=vt)


def op_norm(x):
    """Largest singular value of ``x`` (the spectral operator norm)."""
    return float(svd(x).sigma[0])

