"""Maximally monotone operators, exposed only through their resolvents.

Every operator in this module implements ``resolvent(y, step)`` computing
``J_{step*A}(y) = (I + step*A)^{-1}(y)``, which for subdifferentials is the
proximity operator.  Resolvents of maximally monotone operators are firmly
nonexpansive, and the solvers in :mod:`minsplit.splitting` and
:mod:`minsplit.admm` touch the operators through no other interface.

The module also provides the closed-form proximity maps used by the robust
PCA problem (elementwise and singular-value soft-thresholding, and the
projection onto a Frobenius ball on observed entries).
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ParameterError, ShapeError


def soft_threshold(t, lam):
    """Shrink ``t`` towards zero by ``lam``: ``sign(t) * max(|t| - lam, 0)``."""
    return np.sign(t) * np.maximum(np.abs(t) - lam, 0.0)


def prox_abs(y, c, step):
    """Proximity operator of ``step * |. - c|``, componentwise.

    Equals ``c + soft_threshold(y - c, step)``.
    """
    if not step > 0:
        raise ParameterError(f"step must be positive, got {step}")
    y = np.asarray(y, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if y.shape != c.shape and c.ndim > 0:
        raise ShapeError(f"shapes disagree: y {y.shape}, c {c.shape}")
    return c + soft_threshold(y - c, step)


def prox_l1(y, lam):
    """Elementwise soft-threshold, the proximity operator of ``lam * ||.||_1``."""
    if not lam >= 0:
        raise ParameterError(f"lam must be nonnegative, got {lam}")
    return soft_threshold(np.asarray(y, dtype=np.float64), lam)


def prox_nuclear(y, lam):
    """Singular-value soft-threshold, the proximity operator of ``lam * ||.||_*``."""
    if not lam >= 0:
        raise ParameterError(f"lam must be nonnegative, got {lam}")
    f = linalg.svd(y)
    return (f.u * soft_threshold(f.sigma, lam)) @ f.vt


def project_partial_ball(v, omega, delta):
    """Project onto ``{d : ||d restricted to omega||_F <= delta}``.

    Entries outside the mask are free and copied from ``v``; entries inside
    are scaled radially by ``min(1, delta / ||v on omega||_F)``.
    """
    if not delta > 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    v = np.asarray(v, dtype=np.float64)
    omega = np.asarray(omega, dtype=bool)
    if omega.shape != v.shape:
        raise ShapeError(f"mask shape {omega.shape} does not match {v.shape}")
    observed_norm = float(np.linalg.norm(v[omega]))
    if observed_norm <= delta:
        return v.copy()
    out = v.copy()
    out[omega] *= delta / observed_norm
    return out


@dataclass(frozen=True)
class PartialMatrix:
    """A matrix known only on a boolean mask of observed entries."""

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = linalg.as_matrix(self.values, "values")
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != values.shape:
            raise ShapeError(
                f"mask shape {mask.shape} does not match values {values.shape}"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    def observed(self):
        """Values with unobserved entries zeroed."""
        return np.where(self.mask, self.values, 0.0)


class MonotoneOp:
    """Base class: a maximally monotone operator accessed via its resolvent.

    Subclasses must implement :meth:`resolvent`; the solvers use no other
    interface, except a pure-float ``resolvent_scalar`` where one exists.
    """

    def resolvent(self, y, step=1.0):
        raise NotImplementedError


class ZeroOp(MonotoneOp):
    """The zero operator; its resolvent is the identity."""

    def resolvent(self, y, step=1.0):
        return np.asarray(y, dtype=np.float64).copy()

    def resolvent_scalar(self, y, step=1.0):
        return y


class AbsValue(MonotoneOp):
    """Subdifferential of ``|. - c|`` (componentwise for vector ``c``)."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=np.float64)
        self._c_scalar = float(self.c.reshape(-1)[0]) if self.c.size == 1 else None

    def resolvent(self, y, step=1.0):
        return prox_abs(y, self.c, step)

    def resolvent_scalar(self, y, step=1.0):
        c = self._c_scalar
        t = y - c
        shrunk = abs(t) - step
        if shrunk < 0.0:
            shrunk = 0.0
        if t < 0.0:
            return c - shrunk
        # t > 0, or t = +-0 with shrunk = 0.0 (c + 0.0 turns c = -0.0 into
        # +0.0), or t NaN with shrunk NaN: the bits of prox_abs in each case
        return c + shrunk


class AffineOp(MonotoneOp):
    """Affine monotone operator ``x -> m @ x + c`` with ``m + m^T >= 0``.

    The inverse of ``I + step*m`` is cached per step value, so repeated
    resolvent calls inside solver loops cost one matrix-vector product.
    """

    def __init__(self, m, c):
        self.m = linalg.as_matrix(m, "m")
        self.c = linalg.as_vector(c, "c")
        if self.m.shape[0] != self.m.shape[1] or self.m.shape[0] != self.c.size:
            raise ShapeError(f"m is {self.m.shape} but c has length {self.c.size}")
        sym = 0.5 * (self.m + self.m.T)
        lam_min = float(np.linalg.eigvalsh(sym)[0])
        scale = 1.0 + float(np.abs(self.m).max())
        if lam_min < -1e-10 * scale:
            raise ParameterError(
                f"m + m^T has negative eigenvalue {lam_min:.3e}; operator not monotone"
            )
        self._inv_cache = {}

    def resolvent(self, y, step=1.0):
        if not step > 0:
            raise ParameterError(f"step must be positive, got {step}")
        inv = self._inv_cache.get(step)
        if inv is None:
            inv = np.linalg.inv(np.eye(self.m.shape[0]) + step * self.m)
            self._inv_cache[step] = inv
        return inv @ (np.asarray(y, dtype=np.float64) - step * self.c)


class PointIndicator(MonotoneOp):
    """Normal cone of the singleton ``{p}``; resolvent is constantly ``p``."""

    def __init__(self, p):
        self.p = np.atleast_1d(np.asarray(p, dtype=np.float64))

    def resolvent(self, y, step=1.0):
        return self.p.copy()

    def resolvent_scalar(self, y, step=1.0):
        return float(self.p[0])


class AffineSetIndicator(MonotoneOp):
    """Normal cone of the affine set ``anchor + span(basis rows)``.

    The resolvent is the orthogonal projection onto the set (step drops out).
    """

    def __init__(self, anchor, basis):
        self.anchor = linalg.as_vector(anchor, "anchor")
        basis = np.atleast_2d(np.asarray(basis, dtype=np.float64))
        q, _ = np.linalg.qr(basis.T)
        self._q = q

    def resolvent(self, y, step=1.0):
        d = np.asarray(y, dtype=np.float64) - self.anchor
        return self.anchor + self._q @ (self._q.T @ d)


class ConstantOp(MonotoneOp):
    """The constant operator ``x -> v``; resolvent ``y - step*v``."""

    def __init__(self, v):
        self.v = np.atleast_1d(np.asarray(v, dtype=np.float64))

    def resolvent(self, y, step=1.0):
        return np.asarray(y, dtype=np.float64) - step * self.v


class ScaledOp(MonotoneOp):
    """The operator ``alpha * A`` for ``alpha > 0``, via step rescaling."""

    def __init__(self, op, alpha):
        if not alpha > 0:
            raise ParameterError(f"alpha must be positive, got {alpha}")
        self.op = op
        self.alpha = alpha

    def resolvent(self, y, step=1.0):
        return self.op.resolvent(y, step * self.alpha)


class ProxOp(MonotoneOp):
    """Wrap a callable ``(y, step) -> J(y)`` as a monotone operator."""

    def __init__(self, fn):
        self._fn = fn

    def resolvent(self, y, step=1.0):
        return self._fn(np.asarray(y, dtype=np.float64), step)


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
