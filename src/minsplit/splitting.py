"""Fixed-point iterations for zeros of sums of maximally monotone operators.

The centrepiece is the minimal-memory splitting for ``n >= 2`` operators: it
iterates on ``n-1`` coupled blocks, calls each resolvent exactly once per
sweep, and relaxes with a factor ``gamma``.  For ``n = 2`` it reduces to the
relaxed Douglas-Rachford iteration.  Also here: the three-operator scheme of
Ryu, the product-space Douglas-Rachford method, and a sampling check of the
three-term averagedness inequality that underpins convergence.  Ryu's
divergent four-operator extension is :func:`minsplit.scheme.ryu4_scheme`.

Conventions: a lifted point is an ``(n-1, dim)`` array of blocks, resolvent
outputs are ``(n, dim)``.  The reported residual is ``||z_next - z|| / gamma``,
which equals the norm of the stacked differences ``x_{i+1} - x_i``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .problems import Prng
from .trace import ResidualTrace

DIVERGENCE_CAP = 1e12


@dataclass
class SplitState:
    """Iterate snapshot: lifted point and last resolvent outputs."""

    z: np.ndarray
    x: np.ndarray


@dataclass
class SolveReport:
    """Outcome of a fixed-point solve.

    ``trace`` holds one ``residual`` per sweep, plus ``spread`` (the
    consensus spread of that sweep's resolvent outputs) when the stop test
    reads it, as in :func:`pr_solve`.  ``consensus_spread`` is the spread of
    the final resolvent outputs ``state.x``.
    """

    converged: bool
    iterations: int
    final_x: np.ndarray
    trace: ResidualTrace
    consensus_spread: float
    diverged: bool = False
    state: SplitState = None


def relaxed_update(z_block, x_next, x_prev, gamma):
    """``z + gamma * (x_next - x_prev)`` for one block or a stack of blocks.

    At ``gamma == 1`` this is computed as ``x_next + (z - x_prev)`` so that
    the zero-operator case (where ``x_prev == z`` exactly) performs an exact
    permutation of the block values, as the underlying operator is then an
    isometry.
    """
    if gamma == 1.0:
        return x_next + (z_block - x_prev)
    return z_block + gamma * (x_next - x_prev)


def chain_argument(lead, z_prev, x_prev):
    """Resolvent argument ``lead + (x_prev - z_prev)`` with fixed grouping.

    The grouping makes the identity-resolvent case exact: when
    ``x_prev == z_prev`` bit for bit, the argument is exactly ``lead``.
    """
    return lead + (x_prev - z_prev)


def consensus_spread(x):
    """Largest pairwise distance ``max_{i,j} ||x_i - x_j||`` between blocks."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] == 1:
        col = x[:, 0]
        return float(col.max() - col.min())
    # a block of rows against every later row, about 8192 differences at a
    # time: one (n, n, dim) tensor for small inputs, a row at a time for large
    rows = max(1, 8192 // x.size)
    sq = [((x[i:i + rows, None] - x[None, i + 1:]) ** 2).sum(axis=2).ravel()
          for i in range(0, len(x) - 1, rows)]
    return float(np.sqrt(np.concatenate([[0.0], *sq]).max()))


def iterate(step, trace, max_iter, stop, watch="residual"):
    """Drive a fixed-point iteration for at most ``max_iter`` sweeps.

    ``step()`` advances the caller's state by one sweep and returns the
    sweep's row of named values, which is appended to ``trace`` (unless it
    is ``None``) as row ``k`` for sweep ``k``.  The run ends at the first sweep
    whose ``watch`` value is non-finite or above :data:`DIVERGENCE_CAP`
    (diverged), or whose row satisfies ``stop(row)`` (converged).

    Returns ``(iterations, converged, diverged)``; raises
    :class:`ParameterError` when ``max_iter < 1``.
    """
    if max_iter < 1:
        raise ParameterError(f"max_iter must be >= 1, got {max_iter}")
    for k in range(1, max_iter + 1):
        row = step()
        if trace is not None:
            trace.append(row)
        m = row[watch]
        if not math.isfinite(m) or m > DIVERGENCE_CAP:
            return k, False, True
        if stop(row):
            return k, True, False
    return max_iter, False, False


def stop_at_tol(tol, column="residual"):
    """The stop test ``row[column] <= tol`` of every tolerance-driven solver.

    ``tol = 0`` never stops, so the whole iteration budget runs even when a
    sweep lands exactly on a fixed point.  Raises :class:`ParameterError`
    when ``tol`` is negative or NaN.
    """
    if not tol >= 0:
        raise ParameterError(f"tol must be nonnegative, got {tol}")
    return lambda row: tol > 0.0 and row[column] <= tol


def _solve_report(step, max_iter, tol, final, stop="residual"):
    # iterate until row[stop] <= tol; final() gives (z, x, final_x)
    trace = ResidualTrace(["residual"] if stop == "residual" else ["residual", stop])
    k, converged, diverged = iterate(step, trace, max_iter, stop_at_tol(tol, stop))
    z, x, final_x = final()
    return SolveReport(
        converged=converged,
        iterations=k,
        final_x=final_x,
        trace=trace,
        consensus_spread=trace.last(stop) if stop == "spread" else consensus_spread(x),
        diverged=diverged,
        state=SplitState(z=z, x=x),
    )


def _check_gamma(gamma, hi=1.0, include_hi=True):
    ok = 0.0 < gamma <= hi if include_hi else 0.0 < gamma < hi
    if not ok:
        bracket = "]" if include_hi else ")"
        raise ParameterError(f"gamma must lie in (0, {hi}{bracket}, got {gamma}")


def _lifted(z, blocks, dim, name="z"):
    if z is None:
        if dim is None:
            raise ParameterError(f"provide {name} or dim")
        return np.zeros((blocks, dim))
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        z = z[:, None]
    if z.ndim != 2 or z.shape[0] != blocks:
        raise ShapeError(f"{name} must have {blocks} blocks, got shape {z.shape}")
    return z


def mt_step(z, ops, gamma):
    """One sweep of the minimal-memory splitting.

    Parameters
    ----------
    z : ndarray, shape (n-1, dim)
        Current lifted point.
    ops : sequence of MonotoneOp
        The ``n >= 2`` operators, each used through its resolvent once.
    gamma : float
        Relaxation parameter in (0, 1]; plain convergence theory needs
        gamma < 1, the boundary case is driven by :func:`pr_solve`.

    Returns
    -------
    (z_next, x) : pair of ndarray
        Updated lifted point ``(n-1, dim)`` and resolvent outputs ``(n, dim)``.
    """
    n = len(ops)
    if n < 2:
        raise ParameterError(f"need at least 2 operators, got {n}")
    _check_gamma(gamma)
    z = _lifted(z, n - 1, None)
    x = np.empty((n, z.shape[1]))
    x[0] = ops[0].resolvent(z[0])
    for i in range(1, n - 1):
        x[i] = ops[i].resolvent(chain_argument(z[i], z[i - 1], x[i - 1]))
    x[n - 1] = ops[n - 1].resolvent(chain_argument(x[0], z[n - 2], x[n - 2]))
    return relaxed_update(z, x[1:], x[:-1], gamma), x


def _scalar_sweeps(ops, gamma, z0, spread):
    # Pure-float mirror of mt_step; identical operation order, so the
    # produced values match the array path and the network simulator exactly.
    n = len(ops)
    z = [float(v) for v in z0[:, 0]]
    x = [0.0] * n

    def step():
        nonlocal z
        x[0] = ops[0].resolvent_scalar(z[0])
        for i in range(1, n - 1):
            x[i] = ops[i].resolvent_scalar(z[i] + (x[i - 1] - z[i - 1]))
        x[n - 1] = ops[n - 1].resolvent_scalar(x[0] + (x[n - 2] - z[n - 2]))
        sq = 0.0
        if gamma == 1.0:
            z_next = [x[i + 1] + (z[i] - x[i]) for i in range(n - 1)]
        else:
            z_next = [z[i] + gamma * (x[i + 1] - x[i]) for i in range(n - 1)]
        for a, b in zip(z, z_next):
            d = a - b
            sq += d * d
        z = z_next
        row = {"residual": math.sqrt(sq) / gamma}
        if spread:
            row["spread"] = max(x) - min(x)
        return row

    return step, lambda: (np.asarray(z)[:, None], np.asarray(x)[:, None], np.array(x[:1]))


def _sweeps(sweep, z, gamma, solution=lambda z, x: x[0].copy(), spread=False):
    # step/final pair for an array map ``sweep(z) -> (z_next, x)``
    x = None

    def step():
        nonlocal z, x
        z_next, x = sweep(z)
        row = {"residual": float(np.linalg.norm(z_next - z)) / gamma}
        z = z_next
        if spread:
            row["spread"] = consensus_spread(x)
        return row

    return step, lambda: (z, x, solution(z, x))


def _split_solve(ops, gamma, z0, tol, max_iter, dim, stop="residual"):
    z = _lifted(z0, len(ops) - 1, dim)
    spread = stop == "spread"
    if z.shape[1] == 1 and all(hasattr(op, "resolvent_scalar") for op in ops):
        step, final = _scalar_sweeps(ops, gamma, z, spread)
    else:
        step, final = _sweeps(lambda z: mt_step(z, ops, gamma), z, gamma, spread=spread)
    return _solve_report(step, max_iter, tol, final, stop)


def mt_solve(ops, gamma=0.9, z0=None, tol=1e-8, max_iter=100000, dim=None):
    """Iterate :func:`mt_step` until the residual drops below ``tol``.

    Parameters
    ----------
    ops : sequence of MonotoneOp
    gamma : float
        Relaxation in (0, 1).  The boundary ``gamma = 1`` is only sound
        under uniform monotonicity and is reached through :func:`pr_solve`.
    z0 : ndarray or None
        Initial lifted point; defaults to all zeros (``dim`` then required).
    tol : float
        Threshold on the residual ``||z_next - z|| / gamma``; ``tol = 0``
        runs all ``max_iter`` sweeps (see :func:`stop_at_tol`).
    max_iter : int
    dim : int or None
        Block dimension when ``z0`` is omitted.

    Returns
    -------
    SolveReport
        ``final_x`` is the first resolvent output of the last sweep;
        ``converged=False`` (no exception) when ``max_iter`` is exhausted.
    """
    _check_gamma(gamma, include_hi=False)
    return _split_solve(ops, gamma, z0, tol, max_iter, dim)


def pr_solve(ops, z0=None, tol=1e-8, max_iter=100000, dim=None):
    """The boundary case ``gamma = 1`` under uniform monotonicity.

    Operators ``2..n`` should be uniformly monotone for convergence.
    Progress is certified by the consensus spread of the resolvent outputs
    rather than averagedness, and the solve reports ``converged=False``
    when the spread never falls below ``tol`` (e.g. for plainly monotone
    operators, where the iteration may be an isometry).
    """
    return _split_solve(ops, 1.0, z0, tol, max_iter, dim, stop="spread")


def dr_step(z, op1, op2, gamma):
    """One relaxed Douglas-Rachford step on a single lifted block.

    ``x1 = J_1(z)``, ``x2 = J_2(2 x1 - z)``, ``z_next = z + gamma (x2 - x1)``
    with ``gamma`` in (0, 2).
    """
    _check_gamma(gamma, 2.0, include_hi=False)
    z = np.asarray(z, dtype=np.float64)
    x1 = op1.resolvent(z)
    x2 = op2.resolvent(2.0 * x1 - z)
    return z + gamma * (x2 - x1), x1, x2


def ryu3_step(z, ops, gamma):
    """One step of Ryu's three-operator scheme on two lifted blocks."""
    if len(ops) != 3:
        raise ParameterError(f"scheme takes exactly 3 operators, got {len(ops)}")
    _check_gamma(gamma, include_hi=False)
    z = _lifted(z, 2, None)
    x = np.empty((3, z.shape[1]))
    x[0] = ops[0].resolvent(z[0])
    x[1] = ops[1].resolvent(z[1] + x[0])
    x[2] = ops[2].resolvent(x[0] - z[0] + x[1] - z[1])
    z_next = z + gamma * (x[2] - x[:2])
    return z_next, x


def ryu3_solve(ops, gamma=0.9, z0=None, tol=1e-8, max_iter=100000, dim=None):
    """Iterate :func:`ryu3_step`; reporting mirrors :func:`mt_solve`."""
    step, final = _sweeps(lambda z: ryu3_step(z, ops, gamma), _lifted(z0, 2, dim), gamma)
    return _solve_report(step, max_iter, tol, final)


def product_dr_solve(ops, gamma=0.9, z0=None, tol=1e-8, max_iter=100000, dim=None):
    """Douglas-Rachford on the product space with the diagonal constraint.

    Each iteration projects onto the diagonal (blockwise mean), reflects,
    applies the blockwise resolvents, and relaxes by ``gamma`` in (0, 1].
    Uses ``n`` lifted blocks; for ``n = 1`` it is the relaxed proximal point
    algorithm.  The solution estimate is the blockwise mean of the lifted
    point.
    """
    _check_gamma(gamma)
    n = len(ops)
    z = _lifted(z0, n, dim)
    x = np.empty_like(z)

    def sweep(z):
        p = z.mean(axis=0)
        refl = 2.0 * p - z
        for i in range(n):
            x[i] = ops[i].resolvent(refl[i])
        return z + gamma * (x - p), x

    step, final = _sweeps(sweep, z, gamma, lambda z, x: z.mean(axis=0))
    return _solve_report(step, max_iter, tol, final)


def averagedness_sample(update, gamma, prng, blocks, dim, pairs):
    """Worst relative slack of the three-term averagedness inequality.

    Draws ``pairs`` random pairs, ``z`` then ``z_bar``, of shape
    ``(blocks, dim)`` from ``prng``.  With ``T = update`` and ``r = z - Tz``
    the slack of a pair is

    ``(||Tz - Tz_bar||^2 + (1-gamma)/gamma ||r - r_bar||^2
    + 1/gamma ||sum_i r_i - sum_i r_bar_i||^2 - ||z - z_bar||^2)
    / (1 + ||z - z_bar||^2)``,

    which must be nonpositive up to roundoff when ``T`` is averaged.  A
    non-finite slack ends the sampling and returns ``inf``.
    """
    worst = -np.inf
    for _ in range(pairs):
        z = prng.normals(blocks * dim).reshape(blocks, dim)
        z_bar = prng.normals(blocks * dim).reshape(blocks, dim)
        tz = update(z)
        tz_bar = update(z_bar)
        r = z - tz
        r_bar = z_bar - tz_bar
        lhs = float(np.linalg.norm(tz - tz_bar) ** 2)
        lhs += (1.0 - gamma) / gamma * float(np.linalg.norm(r - r_bar) ** 2)
        lhs += float(np.linalg.norm((r - r_bar).sum(axis=0)) ** 2) / gamma
        rhs = float(np.linalg.norm(z - z_bar) ** 2)
        slack = (lhs - rhs) / (1.0 + rhs)
        if not math.isfinite(slack):
            return math.inf
        worst = max(worst, slack)
    return worst


def averagedness_check(ops, gamma, trials, dim=1, seed=0):
    """Sample the three-term averagedness inequality on random point pairs.

    Returns the worst :func:`averagedness_sample` slack of the map
    ``z -> mt_step(z, ops, gamma)[0]`` over ``trials`` random pairs; a
    genuinely averaged map keeps this near machine precision, while a
    non-averaged map exposes positive slack quickly.
    """
    _check_gamma(gamma)
    return averagedness_sample(
        lambda z: mt_step(z, ops, gamma)[0], gamma, Prng(seed), len(ops) - 1, dim, trials
    )
