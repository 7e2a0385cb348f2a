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
from types import MethodType

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
    t = y - c
    return c + np.copysign(np.maximum(np.abs(t) - step, 0.0), t)


def _prox_abs_float(c, y, step=1.0):
    # prox_abs on one component in Python floats, with the same IEEE operations
    t = y - c
    shrunk = abs(t) - step
    if shrunk < 0.0:
        shrunk = 0.0
    # c + shrunk at t >= +-0 or NaN: c + 0.0 turns c = -0.0 into +0.0, as in prox_abs
    return c - shrunk if t < 0.0 else c + shrunk


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

    Subclasses must implement :meth:`resolvent`; the solvers use no other interface except
    its optional pure-float forms, which only :class:`AbsValue` offers: ``resolvent_scalar``,
    and ``entry_resolvents(dim)`` per entry, for ``mt_solve``'s column sweeps and for each node
    of the network round; and ``resolvent_rows`` on a ``(k, dim)`` stack,
    which :class:`AffineOp` offers for the averagedness sampler, and :class:`AffineStack`
    (operator ``i`` of ``k`` instances, row ``j`` by instance ``j``) for ``verify``'s solves.
    """

    def resolvent(self, y, step=1.0):
        raise NotImplementedError


class ZeroOp(MonotoneOp):
    """The zero operator; its resolvent is the identity."""

    def resolvent(self, y, step=1.0):
        return np.asarray(y, dtype=np.float64).copy()


class AbsValue(MonotoneOp):
    """Subdifferential of ``|. - c|``, componentwise; ``resolvent_scalar`` for one-entry ``c``,
    and ``entry_resolvents(len(c))`` for 1-D ``c``, each ``prox_abs`` on one float."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=np.float64)
        self._floats, self._shape = self.c.tolist(), (self.c.shape if self.c.ndim == 1 else None)
        if self.c.size == 1:
            self.resolvent_scalar = MethodType(_prox_abs_float, self.c.item())

    def resolvent(self, y, step=1.0):
        if (type(y) is np.ndarray and y.shape == self._shape and y.dtype.char == "d"
                and type(step) is float and step > 0):
            return np.array([_prox_abs_float(c, v, step) for c, v in zip(self._floats, y.tolist())])
        return prox_abs(y, self.c, step)

    def entry_resolvents(self, dim):
        if self._shape == (dim,):
            return [MethodType(_prox_abs_float, c) for c in self._floats]

    def __reduce__(self):  # a method bound to a float does not pickle
        return AbsValue, (self.c,)


class AffineOp(MonotoneOp):
    """Affine monotone operator ``x -> m @ x + c`` with ``m + m^T >= 0``.

    The cache holds ``(inv(I + step*m), step*c)`` per step value, so a repeat
    resolvent call costs one subtraction and one matrix-vector product.
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
        self._cache = {}

    def _inverse(self, step):
        if not step > 0:
            raise ParameterError(f"step must be positive, got {step}")
        if step not in self._cache:
            inv = np.linalg.inv(np.eye(self.m.shape[0]) + step * self.m)
            self._cache[step] = (inv, step * self.c)
        return self._cache[step]

    def resolvent(self, y, step=1.0):
        inv, shift = self._inverse(step)
        y = np.asarray(y, dtype=np.float64)
        if y.shape != shift.shape:
            raise ShapeError(f"y must have shape {shift.shape}, got {y.shape}")
        # ndarray.dot: @'s bits with less dispatch, but -0.0 on two one-entry operands
        return inv.dot(y - shift) if y.size > 1 else inv @ (y - shift)

    def resolvent_rows(self, ys, step=1.0):
        """:meth:`resolvent` of each row of a ``(k, dim)`` stack ``ys``, with its bits."""
        inv, shift = self._inverse(step)
        if np.shape(ys)[-1:] != shift.shape:
            raise ShapeError(f"rows must have length {shift.size}, got shape {np.shape(ys)}")
        return AffineStack(inv, shift).resolvent_rows(ys)


class AffineStack:
    """Operator ``i`` of ``k`` :class:`AffineOp` instances at step 1: ``invs`` and ``shifts``
    stack each instance's ``(inv(I + m), c)``, and row ``j`` maps by instance ``j``."""

    def __init__(self, invs, shifts):
        self.invs, self.shifts = invs, shifts

    @classmethod
    def of(cls, ops, dim):
        """The stack of ``ops``, or ``None`` unless each is an :class:`AffineOp` of ``dim``
        (a subclass may map otherwise)."""
        if not ops or any(type(op) is not AffineOp or op.c.size != dim for op in ops):
            return None
        invs, shifts = zip(*(op._inverse(1.0) for op in ops))
        return cls(np.array(invs), np.array(shifts))

    def resolvent_rows(self, ys):
        # np.matmul takes each row's @ path, so row j has the bits of instance j's resolvent
        return np.matmul(self.invs, (ys - self.shifts)[..., None])[..., 0]

    def take(self, rows):
        return AffineStack(self.invs[rows], self.shifts[rows])


class ProxOp(MonotoneOp):
    """Wrap a callable ``(y, step) -> J(y)`` as a monotone operator."""

    def __init__(self, fn):
        self._fn = fn

    def resolvent(self, y, step=1.0):
        return self._fn(np.asarray(y, dtype=np.float64), step)

