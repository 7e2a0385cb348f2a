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
A solve whose stop reads the residual sweeps in Python floats when its operators
offer ``resolvent_scalar`` at ``dim = 1``, or ``entry_resolvents(dim)`` (a column at
a time), else by :func:`mt_step`, as :func:`pr_solve` always does; every non-NaN
value of the iterates is the same on every path.  The averagedness sampler maps whole
stacks of points, with the same bits, when every operator offers ``resolvent_rows``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, check_budget
from .linalg import as_floats, as_matrix
from .problems import Prng
from .trace import ResidualTrace

DIVERGENCE_CAP = 1e12
DIVERGED = ("diverged", "non_finite")  # the stop reasons of a run that blew up


@dataclass
class SplitState:
    """Iterate snapshot: lifted point and last resolvent outputs."""

    z: np.ndarray
    x: np.ndarray


class Outcome:
    """How a run ended, read off its ``trace.stop_reason`` (set by :func:`iterate`)."""

    @property
    def iterations(self):
        return len(self.trace)

    @property
    def converged(self):
        return self.trace.stop_reason == "tol"

    @property
    def diverged(self):
        return self.trace.stop_reason in DIVERGED


@dataclass
class SolveReport(Outcome):
    """Outcome of a fixed-point solve.

    ``trace`` holds one ``residual`` per sweep, plus ``spread`` (the
    consensus spread of that sweep's resolvent outputs) when the stop test
    reads it, as in :func:`pr_solve`.  ``consensus_spread`` is the spread of
    the final resolvent outputs ``state.x``.
    """

    final_x: np.ndarray
    trace: ResidualTrace
    consensus_spread: float
    state: SplitState


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
    """Largest pairwise distance ``max_{i,j} ||x_i - x_j||`` between the rows of ``x``."""
    x = as_matrix(x, "x", finite=False)
    if x.shape[1] == 1:
        col = x[:, 0]
        return float(col.max() - col.min())
    # a block of rows against every later row, about 8192 differences at a
    # time: one (n, n, dim) tensor for small inputs, a row at a time for large
    rows = max(1, 8192 // x.size)
    sq = [_squared_distances(x[i:i + rows], x[i + 1:]).ravel()
          for i in range(0, len(x) - 1, rows)]
    return float(np.sqrt(np.concatenate([[0.0], *sq]).max()))


def _squared_distances(a, b):
    # ((a[:, None] - b[None]) ** 2).sum(axis=2): numpy sums up to 7 entries of a row
    # left to right, so below 8 columns summing a column at a time keeps its bits
    if a.shape[1] > 7:
        return ((a[:, None] - b[None]) ** 2).sum(axis=2)
    return sum((a[:, j, None] - b[None, :, j]) ** 2 for j in range(a.shape[1]))


def iterate(step, trace, max_iter, tol=0.0, stop="residual", watch="residual"):
    """Drive a fixed-point iteration for at most ``max_iter`` sweeps.

    ``step()`` advances the caller's state by one sweep and returns the
    sweep's row of named values, which is appended to ``trace`` (unless it
    is ``None``) as row ``k`` for sweep ``k``.  The run ends at the first sweep
    whose ``watch`` value is non-finite (stop reason ``"non_finite"``) or above
    :data:`DIVERGENCE_CAP` (``"diverged"``), or whose ``row[stop] <= tol`` (``"tol"``;
    ``tol = 0`` never stops, even on an exact fixed point), else after ``"max_iter"``.

    Returns ``(iterations, stop_reason)`` and sets ``trace.stop_reason``.  Raises
    :class:`ParameterError` for a negative or NaN ``tol``, then unless ``max_iter``
    passes :func:`check_budget`.
    """
    if not tol >= 0:
        raise ParameterError(f"tol must be nonnegative, got {tol}")
    check_budget(max_iter, "max_iter")
    reason = "max_iter"
    for k in range(1, max_iter + 1):
        row = step()
        if trace is not None:
            trace.append(row)
        m = row[watch]
        if not math.isfinite(m) or m > DIVERGENCE_CAP:
            reason = "diverged" if math.isfinite(m) else "non_finite"
            break
        if tol > 0.0 and row[stop] <= tol:
            reason = "tol"
            break
    if trace is not None:
        trace.stop_reason = reason
    return k, reason


def stop_reason(r, tol, k, max_iter):
    """The reason :func:`iterate` gives at sweep ``k`` of ``max_iter`` for a row holding ``r``
    under both ``stop`` and ``watch``, or ``None`` where it sweeps on."""
    if not math.isfinite(r) or r > DIVERGENCE_CAP:
        return "diverged" if math.isfinite(r) else "non_finite"
    if tol > 0.0 and r <= tol:
        return "tol"
    return "max_iter" if k >= max_iter else None


def _solve_report(step, max_iter, tol, final, stop="residual"):
    # iterate until row[stop] <= tol; final() gives (z, x, final_x)
    trace = ResidualTrace(["residual"] if stop == "residual" else ["residual", stop])
    iterate(step, trace, max_iter, tol, stop)
    z, x, final_x = final()
    spread = trace.last(stop) if stop == "spread" else consensus_spread(x)
    return SolveReport(final_x, trace, spread, SplitState(z=z, x=x))


def _check_gamma(gamma, hi=1.0, include_hi=True):
    try:
        ok = 0.0 < gamma <= hi if include_hi else 0.0 < gamma < hi
    except TypeError:  # not a real number
        ok, gamma = False, repr(gamma)
    if not ok:
        bracket = "]" if include_hi else ")"
        raise ParameterError(f"gamma must lie in (0, {hi}{bracket}, got {gamma}")


def _norm(v):
    # float(np.linalg.norm(v)) of a float array without numpy's dispatch
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def _lifted(z, blocks, dim, name="z"):
    if z is None:
        if dim is None:
            raise ParameterError(f"provide {name} or dim")
        check_budget(dim, "dim")
        return np.zeros((blocks, dim))
    z = as_floats(z, name)
    if z.ndim == 1:
        z = z[:, None]
    if z.ndim != 2 or z.shape[0] != blocks or z.shape[1] == 0:
        raise ShapeError(f"{name} must have {blocks} nonempty blocks, got shape {z.shape}")
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
    return _mt_sweep(_lifted(z, n - 1, None), [op.resolvent for op in ops], gamma)


def _checked_shape(x, shape, of, i):
    # x, the resolvent output of of.format(i), unless its shape is not its argument's shape
    if np.shape(x) != shape:
        raise ShapeError(f"{of.format(i)} resolvent returned shape {np.shape(x)}, expected {shape}")
    return x


def _mt_sweep(z, resolvents, gamma):
    # mt_step on blocks z[i], each a point or a stack the resolvents map row by row
    n, shape = len(resolvents), z.shape[1:]
    x = np.empty((n, *shape))
    for i, res in enumerate(resolvents):
        arg = z[0] if i == 0 else chain_argument(z[i] if i < n - 1 else x[0], z[i - 1], x[i - 1])
        x[i] = _checked_shape(res(arg), shape, "ops[{}]", i)
    return relaxed_update(z, x[1:], x[:-1], gamma), x


def _scalar_sweeps(ops, gamma, z0):
    # Pure-float mirror of mt_step in one pass: as resolvent i returns, block i-1
    # is relaxed with mt_step's IEEE operations in its order, so z and x match
    # mt_step and the network exactly.  The squared changes are summed left to right
    # as they come, which the consensus CSVs pin; _norm's sum can differ in the last bit.
    n = len(ops)
    z = [float(v) for v in z0[:, 0]]
    x = [0.0] * n
    first = ops[0].resolvent_scalar  # each bound once per solve
    chain = [(i, ops[i].resolvent_scalar) for i in range(1, n)]
    exact = gamma == 1.0

    def step():
        nonlocal z
        zs, z_next, sq = z, [], 0.0
        xp = x[0] = first(zs[0])
        zp = zs[0]
        zs.append(xp)  # operator n leads with x[0] where the others read z[i]
        for i, res in chain:
            zi = zs[i]
            xi = x[i] = res(zi + (xp - zp))
            v = xi + (zp - xp) if exact else zp + gamma * (xi - xp)
            z_next.append(v)
            d = zp - v
            sq += d * d
            xp, zp = xi, zi
        z = z_next
        return {"residual": math.sqrt(sq) / gamma}

    return step, lambda: (np.asarray(z)[:, None], np.asarray(x)[:, None], np.array(x[:1]))


def _entry_forms(ops, dim):
    # each op's entry_resolvents(dim) when it gives dim entries, else None: the one selection
    # for the column sweep and the protocol round, each binding once per solve or run
    return [form if len(form or ()) == dim else None
            for form in (getattr(op, "entry_resolvents", lambda dim: None)(dim) for op in ops)]


def _column_sweeps(ops, gamma, z):
    # _scalar_sweeps' one pass per column j, through each op's resolvent of entry j (None
    # unless all offer dim); C-ordered blocks make the residual sum in the array order
    entries = _entry_forms(ops, z.shape[1])
    if any(e is None for e in entries):
        return None
    columns = [(col[0], list(enumerate(col[1:], 1))) for col in zip(*entries)]
    zc = z.T.tolist()
    xc = [None] * len(columns)
    exact = gamma == 1.0

    def step():
        nonlocal z
        for j, (first, chain) in enumerate(columns):
            zs = zc[j]
            xp, zp = first(zs[0]), zs[0]
            xs, z_next = [xp], []
            zs.append(xp)  # operator n leads with x[0] where the others read z[i]
            for i, res in chain:
                zi = zs[i]
                xi = res(zi + (xp - zp))
                xs.append(xi)
                z_next.append(xi + (zp - xp) if exact else zp + gamma * (xi - xp))
                xp, zp = xi, zi
            zc[j], xc[j] = z_next, xs
        z_prev, z = z, np.array(zc).T.copy()
        return {"residual": _norm(z - z_prev) / gamma}

    return step, lambda: (z, np.array(xc).T.copy(), np.array([xs[0] for xs in xc]))


def _sweeps(sweep, z, gamma, solution=lambda z, x: x[0].copy(), spread=False):
    # step/final pair for an array map ``sweep(z) -> (z_next, x)``
    x = None

    def step():
        nonlocal z, x
        z_next, x = sweep(z)
        row = {"residual": _norm(z_next - z) / gamma}
        z = z_next
        if spread:
            row["spread"] = consensus_spread(x)
        return row

    return step, lambda: (z, x, solution(z, x))


def _split_solve(ops, gamma, z0, tol, max_iter, dim, stop="residual"):
    if len(ops) < 2:
        raise ParameterError(f"need at least 2 operators, got {len(ops)}")
    z = _lifted(z0, len(ops) - 1, dim, "z0")
    gamma = float(gamma)  # a float32 gamma would make the float paths' iterates float32
    if stop == "spread":
        step, final = _sweeps(lambda z: mt_step(z, ops, gamma), z, gamma, spread=True)
    elif z.shape[1] == 1 and all(hasattr(op, "resolvent_scalar") for op in ops):
        step, final = _scalar_sweeps(ops, gamma, z)
    else:
        step, final = _column_sweeps(ops, gamma, z) or _sweeps(
            lambda z: mt_step(z, ops, gamma), z, gamma)
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
        runs all ``max_iter`` sweeps (see :func:`iterate`).
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
    x, shape = np.empty((3, z.shape[1])), z.shape[1:]
    x[0] = _checked_shape(ops[0].resolvent(z[0]), shape, "ops[{}]", 0)
    x[1] = _checked_shape(ops[1].resolvent(z[1] + x[0]), shape, "ops[{}]", 1)
    x[2] = _checked_shape(ops[2].resolvent(x[0] - z[0] + x[1] - z[1]), shape, "ops[{}]", 2)
    z_next = z + gamma * (x[2] - x[:2])
    return z_next, x


def ryu3_solve(ops, gamma=0.9, z0=None, tol=1e-8, max_iter=100000, dim=None):
    """Iterate :func:`ryu3_step`; reporting mirrors :func:`mt_solve`."""
    step, final = _sweeps(lambda z: ryu3_step(z, ops, gamma), _lifted(z0, 2, dim, "z0"), gamma)
    return _solve_report(step, max_iter, tol, final)


def product_dr_solve(ops, gamma=0.9, z0=None, tol=1e-8, max_iter=100000, dim=None):
    """Douglas-Rachford on the product space with the diagonal constraint.

    Each iteration projects onto the diagonal (blockwise mean), reflects,
    applies the blockwise resolvents, and relaxes by ``gamma`` in (0, 1].
    Uses ``n`` lifted blocks; for ``n = 1`` it is the relaxed proximal point
    algorithm.  The solution estimate is the blockwise mean of the lifted
    point.  Raises :class:`ParameterError` for an empty operator list.
    """
    _check_gamma(gamma)
    n = len(ops)
    if n < 1:
        raise ParameterError(f"need at least 1 operator, got {n}")
    z = _lifted(z0, n, dim, "z0")
    x = np.empty_like(z)

    def sweep(z):
        p = z.mean(axis=0)
        refl = 2.0 * p - z
        for i in range(n):
            x[i] = _checked_shape(ops[i].resolvent(refl[i]), z.shape[1:], "ops[{}]", i)
        return z + gamma * (x - p), x

    step, final = _sweeps(sweep, z, gamma, lambda z, x: z.mean(axis=0))
    return _solve_report(step, max_iter, tol, final)


def _slacks(points, images, norms, shrink, gamma):
    # the relative slack of each pair (points[2p], points[2p + 1]), in Python floats, from
    # the norms of its four differences as `norms` gives them for a stack of points.  The
    # sum over blocks and the norms' dots follow the memory layout: every stack is C-ordered
    images = np.ascontiguousarray(images)
    resid = points - images
    dr = resid[0::2] - resid[1::2]
    four = map(norms, (images[0::2] - images[1::2], dr, dr.sum(axis=1),
                       points[0::2] - points[1::2]))
    return [(t ** 2 + shrink * r ** 2 + s ** 2 / gamma - z ** 2) / (1.0 + z ** 2)
            for t, r, s, z in zip(*four)]


def _norms(v):
    # _norm of each point of a stack: np.matmul of (1, m) by (m, 1) takes v.dot(v)'s path,
    # and np.sqrt, like math.sqrt, is correctly rounded
    v = v.reshape(len(v), 1, -1)
    return np.sqrt(np.matmul(v, v.transpose(0, 2, 1))).ravel().tolist()


def averagedness_sample(update, gamma, prng, blocks, dim, pairs):
    """Worst relative slack of the three-term averagedness inequality.

    Draws ``pairs`` random pairs, ``z`` then ``z_bar``, of shape
    ``(blocks, dim)`` from ``prng``, up to 64 pairs per :meth:`Prng.normal_rows`
    call, and calls ``update`` once per point.  With ``T = update`` and
    ``r = z - Tz`` the slack of a pair is

    ``(||Tz - Tz_bar||^2 + (1-gamma)/gamma ||r - r_bar||^2
    + 1/gamma ||sum_i r_i - sum_i r_bar_i||^2 - ||z - z_bar||^2)
    / (1 + ||z - z_bar||^2)``,

    which must be nonpositive up to roundoff when ``T`` is averaged.  A
    non-finite slack ends the sampling, with ``prng`` just past that pair,
    and returns ``inf``.  ``gamma`` in ``(0, 1]`` with ``(1-gamma)/gamma`` finite;
    ``blocks``, ``dim`` and ``pairs`` must pass :func:`check_budget`.

    If ``update`` offers ``rows``, a map of a ``(k, blocks, dim)`` stack with its bits per
    point, one ``rows`` call maps each draw.  The maps of :func:`averagedness_check` and
    :func:`minsplit.scheme.image_map` offer it when every operator offers ``resolvent_rows``.
    """
    if not (gamma > 0 and math.isfinite((1.0 - gamma) / gamma)):
        raise ParameterError(f"gamma must be positive with (1-gamma)/gamma finite, got {gamma}")
    _check_gamma(gamma)
    check_budget(blocks, "blocks")
    check_budget(dim, "dim")
    check_budget(pairs, "pairs")
    shrink = (1.0 - gamma) / gamma
    words = (blocks * dim + 1) // 2 * 2  # raw words behind one drawn point
    rows = getattr(update, "rows", None)
    worst = -np.inf
    for first in range(0, pairs, 64):
        points = prng.normal_rows(2 * min(64, pairs - first), blocks * dim).reshape(-1, blocks, dim)
        if rows is None:  # one update call per point, so none past a non-finite pair
            slacks = (_slacks(pair, [update(z) for z in pair], lambda v: [_norm(v[0])], shrink,
                              gamma)[0] for pair in points.reshape(-1, 2, blocks, dim))
        else:
            slacks = _slacks(points, rows(points), _norms, shrink, gamma)
        for p, slack in enumerate(slacks):
            if not math.isfinite(slack):
                prng._count -= (len(points) - 2 * p - 2) * words  # as if drawn pair by pair
                return math.inf
            worst = max(worst, slack)
    return worst


def averagedness_check(ops, gamma, trials, dim=1, seed=0):
    """Sample the three-term averagedness inequality on random point pairs.

    Returns the worst :func:`averagedness_sample` slack of the map
    ``z -> mt_step(z, ops, gamma)[0]`` over ``trials`` random pairs; a
    genuinely averaged map keeps this near machine precision, while a
    non-averaged map exposes positive slack quickly.  ``trials`` must pass
    :func:`check_budget`: a check that samples nothing certifies nothing.
    """
    if len(ops) < 2:
        raise ParameterError(f"need at least 2 operators, got {len(ops)}")
    check_budget(trials, "trials")
    update = lambda z: mt_step(z, ops, gamma)[0]
    if all(hasattr(op, "resolvent_rows") for op in ops):
        rows = [op.resolvent_rows for op in ops]  # _mt_sweep maps block-major stacks
        update.rows = lambda z: _mt_sweep(z.transpose(1, 0, 2), rows, gamma)[0].transpose(1, 0, 2)
    return averagedness_sample(update, gamma, Prng(seed), len(ops) - 1, dim, trials)
