"""Coefficient-matrix calculus for one-shot resolvent splitting schemes.

Any iteration that touches each resolvent exactly once and otherwise uses
only vector addition and scalar multiplication is captured by six constant
matrices acting blockwise on lifted points:

* ``y = B z + L x`` with ``L`` strictly lower triangular, fixing the inputs
  ``y_i`` of the resolvents (computable in index order);
* the update map ``T(z) = Tz z + Tx x``;
* the solution map ``S(z) = Sz z + Sx x``.

This module executes such schemes generically, certifies their structural
identities numerically (kernel residuals of a block matrix, the
consensus/averaging conditions of the solution map), and validates the
lifting dimension lower bound ``d >= n - 1`` for ``n >= 2``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotAFixedPointError, ParameterError, ShapeError
from .splitting import _lifted, _sweeps, consensus_spread, iterate, stop_at_tol
from .trace import read_blocks, write_rows


@dataclass(frozen=True)
class SchemeMatrices:
    """The six coefficient matrices of a one-shot splitting scheme."""

    n: int
    d: int
    B: np.ndarray
    L: np.ndarray
    Tz: np.ndarray
    Tx: np.ndarray
    Sz: np.ndarray
    Sx: np.ndarray

    def __post_init__(self):
        n, d = self.n, self.d
        if n < 1 or d < 1:
            raise ParameterError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
        shapes = {
            "B": (n, d),
            "L": (n, n),
            "Tz": (d, d),
            "Tx": (d, n),
            "Sz": (1, d),
            "Sx": (1, n),
        }
        for name, want in shapes.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != want:
                raise ShapeError(f"{name} must have shape {want}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ParameterError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)
        if np.any(np.triu(self.L) != 0.0):
            raise ShapeError("L must be strictly lower triangular")


def _first_output_scheme(b, low, tx):
    # the shipped schemes keep z in the update (Tz = I) and return the first
    # resolvent output as the solution
    n, d = b.shape
    sx = np.zeros((1, n))
    sx[0, 0] = 1.0
    return SchemeMatrices(
        n=n, d=d, B=b, L=low, Tz=np.eye(d), Tx=tx, Sz=np.zeros((1, d)), Sx=sx
    )


def mt_scheme(n, gamma=1.0):
    """Matrices of the minimal-memory splitting for ``n >= 2`` operators.

    ``gamma`` is folded into ``Tx``; ``gamma = 1`` gives the unrelaxed map
    (for ``n = 2`` this is the Douglas-Rachford operator).
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    d = n - 1
    b = np.zeros((n, d))
    low = np.zeros((n, n))
    b[0, 0] = 1.0
    for i in range(1, n - 1):
        b[i, i] = 1.0
        b[i, i - 1] = -1.0
        low[i, i - 1] = 1.0
    b[n - 1, n - 2] = -1.0
    low[n - 1, 0] += 1.0
    low[n - 1, n - 2] += 1.0
    tx = np.zeros((d, n))
    for i in range(d):
        tx[i, i] = -gamma
        tx[i, i + 1] = gamma
    return _first_output_scheme(b, low, tx)


def ryu3_scheme(gamma):
    """Matrices of Ryu's three-operator scheme (two lifted blocks)."""
    b = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    low = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    tx = gamma * np.array([[-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]])
    return _first_output_scheme(b, low, tx)


def ryu4_scheme(gamma):
    """Matrices of the divergent four-operator extension (three blocks), a
    regression witness: run through :func:`eval_scheme` on zero operators, its
    iteration grows at rate ``1 + gamma``."""
    b = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, -1.0],
            [-1.0, -1.0, 1.0],
        ]
    )
    low = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [-1.0, 1.0, 0.0, 0.0],
            [1.0, 1.0, 1.0, 0.0],
        ]
    )
    tx = gamma * np.array(
        [[-1.0, 0.0, 0.0, 1.0], [0.0, -1.0, 0.0, 1.0], [0.0, 0.0, -1.0, 1.0]]
    )
    return _first_output_scheme(b, low, tx)


def eval_scheme(s, z, ops):
    """Run one generic scheme evaluation.

    Computes ``y_i`` in index order (the strict lower triangle of ``L``
    makes this well defined), applies each resolvent exactly once, and
    returns ``(T_out, S_out, x, y)`` where ``T_out = Tz z + Tx x`` and
    ``S_out = Sz z + Sx x``.
    """
    if len(ops) != s.n:
        raise ShapeError(f"scheme expects {s.n} operators, got {len(ops)}")
    z = _lifted(z, s.d, None)
    dim = z.shape[1]
    x = np.zeros((s.n, dim))
    y = np.zeros((s.n, dim))
    for i in range(s.n):
        yi = s.B[i] @ z
        if i > 0:
            yi = yi + s.L[i, :i] @ x[:i]
        y[i] = yi
        x[i] = ops[i].resolvent(yi)
    t_out = s.Tz @ z + s.Tx @ x
    s_out = (s.Sz @ z + s.Sx @ x)[0]
    return t_out, s_out, x, y


@dataclass(frozen=True)
class KernelWitness:
    """Candidate kernel element ``v = (z, x, y, a)`` of the block identity matrix."""

    z: np.ndarray
    x: np.ndarray
    y: np.ndarray
    a: np.ndarray


def witness_from_point(s, z, ops):
    """Assemble a witness from a scheme evaluation at ``z``.

    The subgradient block is recovered as ``a = y - x``, which is the
    element of ``A(x)`` selected by the resolvent evaluations.
    """
    _, _, x, y = eval_scheme(s, z, ops)
    return KernelWitness(z=_lifted(z, s.d, None), x=x, y=y, a=y - x)


def kernel_residuals(s, w):
    """Block-row residual norms of the kernel identity at a witness.

    Returns ``(r1, r2, r3)`` with ``r1 = ||x - y + a||``,
    ``r2 = ||B z + L x - y||`` and ``r3 = ||(Tz - I) z + Tx x||``
    (Frobenius norms over blocks).  All three below tolerance certify the
    witness numerically: the point is fixed and the resolvent/subgradient
    data is consistent.
    """
    r1 = float(np.linalg.norm(w.x - w.y + w.a))
    r2 = float(np.linalg.norm(s.B @ w.z + s.L @ w.x - w.y))
    r3 = float(np.linalg.norm((s.Tz - np.eye(s.d)) @ w.z + s.Tx @ w.x))
    return r1, r2, r3


@dataclass(frozen=True)
class SolutionMappingReport:
    """Numerical check of the solution-map structure at a fixed point."""

    consensus_spread: float
    solution_vs_mean_y: float
    inclusion_residual: float
    solution: np.ndarray


def check_solution_mapping(s, ops, z_fixed, fp_tol=1e-8):
    """Verify the solution-map identities at a numerical fixed point.

    At any fixed point the resolvent outputs must agree across blocks, the
    solution map must equal the average of the resolvent inputs, and the
    recovered subgradients must sum to (numerically) zero.  Raises
    :class:`NotAFixedPointError` when ``||T(z) - z|| > fp_tol``.
    """
    t_out, s_out, x, y = eval_scheme(s, z_fixed, ops)
    drift = float(np.linalg.norm(t_out - _lifted(z_fixed, s.d, None)))
    if drift > fp_tol:
        raise NotAFixedPointError(
            f"||T(z) - z|| = {drift:.3e} exceeds fp_tol = {fp_tol:.3e}"
        )
    spread = consensus_spread(x)
    mean_y = y.mean(axis=0)
    s_vs_mean = float(np.linalg.norm(s_out - mean_y))
    inclusion = float(np.linalg.norm((y - x).sum(axis=0)))
    return SolutionMappingReport(
        consensus_spread=spread,
        solution_vs_mean_y=s_vs_mean,
        inclusion_residual=inclusion,
        solution=s_out,
    )


def lifting_ok(n, d):
    """True iff the lifting dimension is admissible: ``d >= n - 1`` for
    ``n >= 2`` and ``d >= 1`` for ``n = 1``.  No scheme of smaller ``d``
    solves every instance; test a scheme ``s`` with ``lifting_ok(s.n, s.d)``."""
    if n >= 2:
        return d >= n - 1
    return d >= 1


def solve_scheme(s, ops, z0=None, tol=1e-10, max_iter=100000, dim=None):
    """Generic fixed-point iteration ``z <- Tz z + Tx x`` for a scheme.

    Returns ``(z, converged, diverged, iterations)``; ``converged`` means
    ``||T(z) - z|| <= tol`` (``tol = 0`` runs all ``max_iter`` sweeps).
    """
    z = _lifted(z0, s.d, dim, name="z0")
    step, final = _sweeps(lambda z: eval_scheme(s, z, ops)[::2], z, 1.0)
    k, converged, diverged = iterate(step, None, max_iter, stop_at_tol(tol))
    return final()[0], converged, diverged, k


def save_scheme(s, path):
    """Write a scheme to a plain-text file: header ``n d`` then the six
    matrix blocks (B, L, Tz, Tx, Sz, Sx), rows whitespace separated."""
    with open(path, "w") as fh:
        fh.write(f"{s.n} {s.d}\n")
        for name in ("B", "L", "Tz", "Tx", "Sz", "Sx"):
            fh.write("\n")
            write_rows(fh, getattr(s, name))


def _scheme_layout(fields):
    n, d = map(int, fields)
    shapes = [("B", n, d), ("L", n, n), ("Tz", d, d), ("Tx", d, n), ("Sz", 1, d), ("Sx", 1, n)]
    return shapes, lambda **blocks: SchemeMatrices(n=n, d=d, **blocks)


def load_scheme(path):
    """Parse a scheme file written by :func:`save_scheme`.

    Raises :class:`SchemeParseError` with a 1-based line number on malformed
    input.
    """
    return read_blocks(path, _scheme_layout)
