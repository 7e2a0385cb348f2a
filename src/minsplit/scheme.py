"""Coefficient-matrix calculus for one-shot resolvent splitting schemes.

Any iteration that touches each resolvent exactly once and otherwise uses
only vector addition and scalar multiplication is captured by six constant
matrices acting blockwise on lifted points:

* ``y = B z + L x`` with ``L`` strictly lower triangular, fixing the inputs
  ``y_i`` of the resolvents (computable in index order);
* the update map ``T(z) = Tz z + Tx x``;
* the solution map ``S(z) = Sz z + Sx x``.

This module executes such schemes generically (:func:`update_map` gives
``T(z)`` and ``x`` alone, :func:`image_map` ``T(z)`` alone, also on stacks of
points, and :func:`solve_stack` runs the fixed-point searches of many affine
instances as one stack), certifies a fixed point numerically from one
evaluation (its drift ``||T(z) - z||`` and the consensus/averaging conditions
of the solution map), validates the lifting dimension lower
bound ``d >= n - 1`` for ``n >= 2``, and owns the plain-text scheme file
format (:func:`save_scheme`, :func:`load_scheme`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotAFixedPointError, ParameterError, SchemeParseError, ShapeError, check_budget
from .operators import AffineStack
from .splitting import (
    DIVERGED, _checked_shape, _lifted, _norms, _sweeps, consensus_spread, iterate, stop_reason,
)
from .trace import write_rows


def _block_shapes(n, d):
    # the six blocks in the order scheme files hold them
    return {"B": (n, d), "L": (n, n), "Tz": (d, d), "Tx": (d, n), "Sz": (1, d), "Sx": (1, n)}


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
        for name, want in _block_shapes(n, d).items():
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)  # C for .dot
            if arr.shape != want:
                raise ShapeError(f"{name} must have shape {want}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ParameterError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)
        if np.any(np.triu(self.L) != 0.0):
            raise ShapeError("L must be strictly lower triangular")


def _first_output_scheme(b, low, tx, gamma):
    # the shipped schemes keep z in the update (Tz = I), take Tx = gamma * tx
    # and return the first resolvent output as the solution
    if not np.isfinite(gamma):
        raise ParameterError(f"gamma must be finite, got {gamma}")
    n, d = b.shape
    sx = np.zeros((1, n))
    sx[0, 0] = 1.0
    return SchemeMatrices(
        n=n, d=d, B=b, L=low, Tz=np.eye(d), Tx=gamma * tx, Sz=np.zeros((1, d)), Sx=sx
    )


def mt_scheme(n, gamma=1.0):
    """Matrices of the minimal-memory splitting for ``n >= 2`` operators.

    A finite ``gamma`` is folded into ``Tx``; ``gamma = 1`` gives the
    unrelaxed map (for ``n = 2`` this is the Douglas-Rachford operator).
    """
    check_budget(n, "n")
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
        tx[i, i] = -1.0
        tx[i, i + 1] = 1.0
    return _first_output_scheme(b, low, tx, gamma)


def ryu3_scheme(gamma):
    """Matrices of Ryu's three-operator scheme (two lifted blocks)."""
    b = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    low = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    tx = np.array([[-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]])
    return _first_output_scheme(b, low, tx, gamma)


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
    tx = np.array(
        [[-1.0, 0.0, 0.0, 1.0], [0.0, -1.0, 0.0, 1.0], [0.0, 0.0, -1.0, 1.0]]
    )
    return _first_output_scheme(b, low, tx, gamma)


def _compiled(s, ops):
    # the sweep z -> (T_out, x, y rows) at a (d, dim) float z.  ndarray.dot has @'s bits with
    # less dispatch, but -0.0 on two one-entry operands, reaching T_out or y only at n = d = 1
    if len(ops) != s.n:
        raise ShapeError(f"scheme expects {s.n} operators, got {len(ops)}")
    mul = "dot" if s.B.size > 1 else "__matmul__"
    b, tz, tx = (getattr(m, mul) for m in (s.B, s.Tz, s.Tx))
    rest = [(i, op.resolvent, getattr(s.L[i, :i], mul)) for i, op in enumerate(ops)][1:]

    def sweep(z):
        bz, shape = b(z), z.shape[1:]
        x = np.empty((s.n, *shape))
        y = [bz[0]]
        x[0] = _checked_shape(ops[0].resolvent(bz[0]), shape, "ops[{}]", 0)
        for i, res, low in rest:
            y.append(bz[i] + low(x[:i]))
            x[i] = _checked_shape(res(y[i]), shape, "ops[{}]", i)
        return tz(z) + tx(x), x, y

    return sweep


def eval_scheme(s, z, ops):
    """Run one generic scheme evaluation.

    Computes ``y_i = (B z)_i + L[i, :i] x[:i]`` in index order (the strict
    lower triangle of ``L`` makes this well defined), applies each resolvent
    exactly once, and returns ``(T_out, S_out, x, y)`` where
    ``T_out = Tz z + Tx x`` and ``S_out = Sz z + Sx x``.
    """
    sweep, z = _compiled(s, ops), _lifted(z, s.d, None)
    t_out, x, y = sweep(z)
    return t_out, (s.Sz @ z + s.Sx @ x)[0], x, np.array(y)


def update_map(s, ops):
    """The map ``z -> (T_out, x)``, bit for bit as in :func:`eval_scheme`, for
    a float ``z`` of shape ``(d, dim)``; ``ops`` is checked here, not per call."""
    sweep = _compiled(s, ops)
    return lambda z: sweep(z)[:2]


def image_map(s, ops):
    """The map ``z -> T_out`` of :func:`update_map`.  When every operator offers
    ``resolvent_rows`` it offers ``rows``, ``T_out`` of each point of a ``(k, d, dim)``
    stack with the same bits, as ``np.matmul`` takes each point's ``@`` path."""
    sweep = _compiled(s, ops)
    image = lambda z: sweep(z)[0]
    if all(hasattr(op, "resolvent_rows") for op in ops):
        image.rows = lambda z: _stacked(s, ops, z)
    return image


def _stacked(s, ops, z):
    # T_out of each point of a (k, d, dim) stack z, operator i mapping rows by ops[i]
    bz = np.matmul(s.B, z)
    x = np.empty_like(bz)
    x[:, 0] = ops[0].resolvent_rows(bz[:, 0])
    for i in range(1, s.n):
        x[:, i] = ops[i].resolvent_rows(bz[:, i] + np.matmul(s.L[i, :i], x[:, :i]))
    return np.matmul(s.Tz, z) + np.matmul(s.Tx, x)


@dataclass(frozen=True)
class SolutionMappingReport:
    """Numerical check of the solution-map structure at a fixed point."""

    consensus_spread: float
    solution_vs_mean_y: float
    inclusion_residual: float
    solution: np.ndarray
    drift: float


def check_solution_mapping(s, ops, z_fixed, fp_tol=1e-8):
    """Verify the solution-map identities at a numerical fixed point.

    At any fixed point the resolvent outputs must agree across blocks, the
    solution map must equal the average of the resolvent inputs, and the
    recovered subgradients ``a = y - x`` must sum to (numerically) zero.  The
    report's ``drift`` is ``||T(z) - z||``; raises :class:`NotAFixedPointError`
    when it exceeds ``fp_tol``.
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
        drift=drift,
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
    step, final = _sweeps(update_map(s, ops), z, 1.0)
    k, reason = iterate(step, None, max_iter, tol)
    return final()[0], reason == "tol", reason in DIVERGED, k


def solve_stack(s, op_lists, dim, tol=1e-10, max_iter=100000):
    """:func:`solve_scheme` from ``z0 = 0`` for each operator list, in order, with its bits.

    When every list holds ``s.n`` operators of type :class:`~minsplit.operators.AffineOp`
    and size ``dim``, the searches sweep as one ``(k, d, dim)`` stack, each leaving it at
    its own stop sweep; otherwise each list is solved alone.
    """
    stacks = [AffineStack.of(col, dim) for col in zip(*op_lists)]
    if set(map(len, op_lists)) != {s.n} or None in stacks:
        return [solve_scheme(s, ops, tol=tol, max_iter=max_iter, dim=dim) for ops in op_lists]
    check_budget(dim, "dim")
    if not tol >= 0:
        raise ParameterError(f"tol must be nonnegative, got {tol}")
    check_budget(max_iter, "max_iter")
    k, z = 0, np.zeros((len(op_lists), s.d, dim))
    live, out = list(range(len(op_lists))), [None] * len(op_lists)
    with np.errstate(over="ignore", invalid="ignore"):  # the stop test reads inf or nan
        while live:
            k += 1
            t = _stacked(s, stacks, z)
            reasons = [stop_reason(r, tol, k, max_iter) for r in _norms(t - z)]
            for j, tj, reason in zip(live, t, reasons):
                if reason is not None:
                    out[j] = (tj, reason == "tol", reason in DIVERGED, k)
            keep = [row for row, reason in enumerate(reasons) if reason is None]
            if len(keep) < len(live):
                live, t = [live[row] for row in keep], t[keep]
                stacks = [stack.take(keep) for stack in stacks]
            z = t
    return out


def save_scheme(s, path):
    """Write a scheme to a plain-text file: header ``n d`` then the six
    matrix blocks (B, L, Tz, Tx, Sz, Sx), rows whitespace separated."""
    with open(path, "w") as fh:
        fh.write(f"{s.n} {s.d}\n")
        for name in _block_shapes(s.n, s.d):
            fh.write("\n")
            write_rows(fh, getattr(s, name))


def load_scheme(path):
    """Parse a scheme file written by :func:`save_scheme`; blank lines and
    ``#`` lines are skipped, and the file must end after the ``Sx`` block.

    Raises :class:`SchemeParseError` with a 1-based line number on malformed
    input.
    """
    with open(path) as fh:
        lines = [(no, line.strip()) for no, line in enumerate(fh, start=1)
                 if line.strip() and not line.strip().startswith("#")]
    if not lines:
        raise SchemeParseError(1, "empty file")
    head_no, header = lines[0]
    try:
        n, d = map(int, header.split())
    except ValueError as exc:
        raise SchemeParseError(head_no, f"bad header {header!r}: {exc}")
    if n < 1 or d < 1:  # B is (n, d), so no later block can be empty
        raise SchemeParseError(head_no, f"header gives B the shape {n}x{d}")
    cursor = 1
    blocks = {}
    for name, (rows, cols) in _block_shapes(n, d).items():
        data = []
        for r in range(rows):
            if cursor >= len(lines):
                raise SchemeParseError(
                    lines[-1][0], f"unexpected end of file while reading {name}"
                )
            no, line = lines[cursor]
            cursor += 1
            fields = line.split()
            if len(fields) != cols:
                raise SchemeParseError(
                    no, f"{name} row {r + 1} needs {cols} entries, got {len(fields)}"
                )
            try:
                data.append([float(f) for f in fields])
            except ValueError:
                raise SchemeParseError(no, f"non-numeric entry in {name} row {r + 1}")
            if not all(map(math.isfinite, data[-1])):
                raise SchemeParseError(no, f"{name} row {r + 1} contains non-finite entries")
        blocks[name] = np.array(data)
    if cursor != len(lines):
        raise SchemeParseError(lines[cursor][0], "trailing content after Sx block")
    try:
        return SchemeMatrices(n=n, d=d, **blocks)
    except ValueError as exc:
        raise SchemeParseError(head_no, str(exc))
