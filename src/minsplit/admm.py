"""Multi-block ADMM for separable problems with a shared linear constraint.

Solves ``min sum_i f_i(w_i)  s.t.  sum_i A_i w_i = b`` for ``n >= 2`` blocks
in two algebraically equivalent forms:

* an *averaged* form iterating ``n-1`` auxiliary blocks ``z`` obtained by
  applying the minimal-memory splitting to the Fenchel dual, and
* an *augmented Lagrangian* form carrying ``n`` multiplier blocks ``mu``,
  linked to the averaged form by an explicit change of variables.

Block subproblems are supplied through :class:`SepBlock` objects exposing
``argmin_w f_i(w) + 0.5 ||A_i w + v||^2`` for a given offset ``v``; closed
forms ship for proximable ``f_i`` with ``A_i = I`` (which covers the robust
PCA benchmark) and for quadratic ``f_i`` with a general matrix ``A_i``.

Also here: the ASALM baseline for partially observed robust PCA, the
primal-dual hybrid gradient baseline for cycle-graph consensus, and a
residual check of the Kuhn-Tucker conditions.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import linalg
from .errors import ParameterError, ShapeError, SubproblemError
from .operators import (
    MonotoneOp,
    PartialMatrix,
    prox_abs,
    prox_l1,
    prox_nuclear,
    project_partial_ball,
)
from .splitting import DIVERGED, Outcome, _check_gamma, consensus_spread, iterate
from .trace import ResidualTrace


@dataclass(frozen=True)
class SepBlock:
    """One block of a separable problem.

    ``solve(v)`` must return ``argmin_w f(w) + 0.5 ||A w + v||^2``; ``apply``
    evaluates ``A``.  At least one of ``coercive`` (the function) or
    ``gram_invertible`` (``A^T A``) must hold for the convergence theory to
    apply.
    """

    solve: callable
    apply: callable
    w_dim: int
    out_dim: int
    coercive: bool
    gram_invertible: bool
    label: str = "block"


def identity_prox_block(prox, dim, coercive, label="prox"):
    """Block with ``A = I`` and a proximable function given by ``prox``.

    ``prox(u)`` must return ``argmin_w f(w) + 0.5 ||w - u||^2``; the block
    subproblem is then ``solve(v) = prox(-v)``.
    """
    return SepBlock(
        solve=lambda v: prox(-v),
        apply=lambda w: w,
        w_dim=dim,
        out_dim=dim,
        coercive=coercive,
        gram_invertible=True,
        label=label,
    )


@dataclass(frozen=True)
class SepProblem:
    """A separable problem: blocks plus the right-hand side of the constraint."""

    blocks: tuple
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "b", linalg.as_vector(self.b, "b"))
        if len(self.blocks) < 2:
            raise ParameterError(f"need at least 2 blocks, got {len(self.blocks)}")
        for i, blk in enumerate(self.blocks, start=1):
            if blk.out_dim != self.b.size:
                raise ShapeError(
                    f"block {i} maps into dimension {blk.out_dim}, b has {self.b.size}"
                )
            if not (blk.coercive or blk.gram_invertible):
                raise ParameterError(
                    f"block {i} ({blk.label}) is neither coercive nor has invertible"
                    " A^T A; convergence is not guaranteed"
                )

    @property
    def n(self):
        return len(self.blocks)


def _solve_block(p, i, v):
    try:
        return np.asarray(p.blocks[i].solve(v), dtype=np.float64)
    except Exception as exc:
        raise SubproblemError(i + 1, str(exc)) from exc


def admm_avg_step(p, z, gamma):
    """One sweep of the averaged form.

    Block 1 minimises against ``z_1`` alone, middle blocks against the
    running prefix of constraint contributions, and the last block sees the
    first contribution twice.  The ``z`` blocks are then relaxed with the
    cyclic difference stencil.  Returns ``(z_next, w)``.

    ``gamma = 1`` is the limiting case (sound under uniform monotonicity of
    the dual blocks); the plain convergence theory needs ``gamma < 1``.
    """
    _check_gamma(gamma)
    n = p.n
    m = p.b.size
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (n - 1, m):
        raise ShapeError(f"z must have shape {(n - 1, m)}, got {z.shape}")
    w = []
    s = []
    w.append(_solve_block(p, 0, z[0]))
    s.append(p.blocks[0].apply(w[0]))
    prefix = s[0].copy()
    for i in range(1, n - 1):
        w.append(_solve_block(p, i, prefix + z[i]))
        s.append(p.blocks[i].apply(w[i]))
        prefix += s[i]
    w.append(_solve_block(p, n - 1, s[0] + prefix - p.b + z[0]))
    s.append(p.blocks[n - 1].apply(w[n - 1]))
    z_next = np.empty_like(z)
    for i in range(n - 2):
        z_next[i] = z[i] + gamma * (z[i + 1] - z[i]) + gamma * s[i + 1]
    z_next[n - 2] = z[n - 2] + gamma * (z[0] - z[n - 2]) + gamma * (s[0] + s[n - 1] - p.b)
    return z_next, w


def admm_auglag_step(p, mu, w_prev, gamma):
    """One sweep of the augmented Lagrangian form.

    Performs the Gauss-Seidel block minimisations of the augmented
    Lagrangian, each against its own multiplier block, then updates the
    multipliers with the correction terms weighted by ``1 - gamma``.  The
    last multiplier is refreshed from the first one and the current
    constraint contributions immediately before the last block solve; this
    sweep-consistent evaluation is what makes the form reproduce the
    averaged iteration under the change of variables: algebraically; to
    1e-10 in the tests.  Returns ``(mu_next, w)``.

    ``gamma = 1`` is the limiting case: the correction terms vanish and for
    two blocks the sweep is classical ADMM with a single multiplier chain.
    """
    _check_gamma(gamma)
    n = p.n
    m = p.b.size
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape != (n, m):
        raise ShapeError(f"mu must have shape {(n, m)}, got {mu.shape}")
    if len(w_prev) != n:
        raise ShapeError(f"w_prev must have {n} blocks, got {len(w_prev)}")
    s_old = [p.blocks[i].apply(np.asarray(w_prev[i], dtype=np.float64)) for i in range(n)]
    suffix = np.zeros(m)
    suffixes = [None] * (n + 1)  # suffixes[i] = sum_{j >= i} s_old[j]
    suffixes[n] = suffix
    for i in range(n - 1, -1, -1):
        suffix = s_old[i] + suffix
        suffixes[i] = suffix
    w = []
    s_new = []
    prefix = np.zeros(m)
    for i in range(n - 1):
        w.append(_solve_block(p, i, prefix + suffixes[i + 1] - p.b + mu[i]))
        s_new.append(p.blocks[i].apply(w[i]))
        prefix = prefix + s_new[i]
    mu_last = mu[0] + (s_new[0] + suffixes[1] - p.b)
    w.append(_solve_block(p, n - 1, prefix - p.b + mu_last))
    s_new.append(p.blocks[n - 1].apply(w[n - 1]))
    mu_next = np.empty_like(mu)
    for i in range(n - 1):
        # the last multiplier entering the corrections is the refreshed one
        succ = mu_last if i + 1 == n - 1 else mu[i + 1]
        tail = np.zeros(m)
        for j in range(i + 2, n):
            tail += s_old[j] - s_new[j]
        mu_next[i] = succ + tail + (1.0 - gamma) * (
            mu[i] - succ + s_old[i + 1] - s_new[i + 1]
        )
    mu_next[n - 1] = mu_last
    return mu_next, w


def averaged_to_auglag(p, z0, gamma):
    """Initial multiplier state matched to an averaged-form start ``z0``.

    Runs one averaged sweep to obtain ``(z1, w0)`` and applies the change
    of variables ``mu_i = z1_i - (sum_{j>i} A_j w0_j - b)``; the returned
    pair seeds :func:`admm_auglag_step` so that its w-sweeps coincide with
    the averaged form's from the second sweep on.
    """
    n = p.n
    z1, w0 = admm_avg_step(p, z0, gamma)
    s0 = [p.blocks[i].apply(w0[i]) for i in range(n)]
    mu0 = np.empty((n, p.b.size))
    for i in range(n - 1):
        tail = np.zeros(p.b.size)
        for j in range(i + 1, n):
            tail += s0[j]
        mu0[i] = z1[i] - (tail - p.b)
    mu0[n - 1] = mu0[0] + (s0[0] + sum(s0[1:]) - p.b)
    return mu0, w0


@dataclass(frozen=True)
class KktResidual:
    """Residuals of the Kuhn-Tucker conditions at a candidate pair."""

    primal: float
    dual_spread: float
    subgradient: np.ndarray


def kkt_residual(p, w, duals):
    """Measure how far ``(w, dual)`` is from a Kuhn-Tucker pair.

    ``dual`` is the last row of ``duals`` (a 1-d array is one row), and
    ``dual_spread`` is the consensus spread of the rows.  The primal part is
    ``||sum_i A_i w_i - b||``.  Per block, optimality requires ``-A_i^T dual``
    to be a subgradient of ``f_i`` at ``w_i``, which holds iff ``w_i``
    re-solves its subproblem with offset ``dual - A_i w_i``; the reported
    residual is the distance to that re-solve.
    """
    duals = np.atleast_2d(duals)
    dual = linalg.as_vector(duals[-1], "dual")
    w = [np.asarray(wi, dtype=np.float64) for wi in w]
    if len(w) != p.n or dual.size != p.b.size:
        raise ShapeError(f"need {p.n} w blocks, {p.b.size} dual entries; got {len(w)}, {dual.size}")
    for i, (blk, wi) in enumerate(zip(p.blocks, w)):
        if wi.shape != (blk.w_dim,):
            raise ShapeError(f"w block {i} must have shape ({blk.w_dim},), got {wi.shape}")
    s = [p.blocks[i].apply(w[i]) for i in range(p.n)]
    primal = float(np.linalg.norm(sum(s) - p.b))
    sub = np.array([np.linalg.norm(_solve_block(p, i, dual - s[i]) - w[i]) for i in range(p.n)])
    return KktResidual(primal=primal, dual_spread=consensus_spread(duals), subgradient=sub)


@dataclass
class AdmmReport(Outcome):
    """Outcome of an ADMM solve."""

    w: list
    duals: np.ndarray
    kkt: KktResidual
    trace: ResidualTrace
    z: np.ndarray = None
    mu: np.ndarray = None


def _relative_change(w_new, w_old, indices):
    num = 0.0
    den = 0.0
    for i in indices:
        num += float(np.linalg.norm(w_new[i] - w_old[i]) ** 2)
        den += float(np.linalg.norm(w_old[i]) ** 2)
    return math.sqrt(num) / (math.sqrt(den) + 1.0)


def admm_solve(
    p,
    form="averaged",
    gamma=0.9,
    init=None,
    tol=1e-8,
    max_iter=10000,
    metric_blocks=None,
):
    """Run multi-block ADMM until the primal residual drops below ``tol``.

    Parameters
    ----------
    p : SepProblem
    form : {"averaged", "auglag"}
    gamma : float in (0, 1)
    init : optional
        ``z0`` array for the averaged form, ``(mu0, w0)`` for the augmented
        Lagrangian form; zeros by default.
    tol : float
        Threshold on ``||sum_i A_i w_i - b||``; ``tol = 0`` runs all
        ``max_iter`` sweeps.
    max_iter : int
    metric_blocks : sequence of int or None
        Block indices entering the relative-change metric (all by default).

    Returns
    -------
    AdmmReport
        With a per-iteration trace of ``primal_residual`` and
        ``relative_change``, and ``kkt.dual_spread`` the consensus spread of
        the final dual estimates ``duals``; ``converged=False``
        (without exception) when the iteration budget runs out, and
        ``diverged=True`` with ``kkt=None`` when the primal residual turns
        non-finite or exceeds the divergence cap.
    """
    _check_gamma(gamma, include_hi=False)
    if form not in ("averaged", "auglag"):
        raise ParameterError(f"unknown form {form!r}")
    n = p.n
    m = p.b.size
    indices = list(range(n)) if metric_blocks is None else metric_blocks
    if not (np.iterable(indices) and (indices := list(indices))
            and all(isinstance(i, (int, np.integer)) and 0 <= i < n for i in indices)
            and len(set(indices)) == len(indices)):
        raise ParameterError(f"metric_blocks must be distinct ints in 0..{n - 1}, got {indices}")
    trace = ResidualTrace(["primal_residual", "relative_change"])
    z = mu = z_pre = s = None
    w_prev = [np.zeros(blk.w_dim) for blk in p.blocks]
    if form == "averaged":
        # w_prev only enters the relative-change metric; the sweep is z-driven
        z = np.zeros((n - 1, m)) if init is None else np.asarray(init, dtype=np.float64)
    elif init is None:
        mu = np.zeros((n, m))
    else:
        mu, w_prev = init
        mu = np.asarray(mu, dtype=np.float64)
        w_prev = [np.asarray(wi, dtype=np.float64) for wi in w_prev]

    def step():
        nonlocal z, mu, w_prev, z_pre, s
        if form == "averaged":
            z_pre = z
            z, w = admm_avg_step(p, z, gamma)
        else:
            mu, w = admm_auglag_step(p, mu, w_prev, gamma)
        s = [p.blocks[i].apply(w[i]) for i in range(n)]
        rel = _relative_change(w, w_prev, indices)
        w_prev = w
        return {"primal_residual": float(np.linalg.norm(sum(s) - p.b)), "relative_change": rel}

    iterate(step, trace, max_iter, tol, "primal_residual", watch="primal_residual")
    if form == "averaged":
        # z_i + A_1 w_1 + ... + A_i w_i over the last sweep, prefix sums from zero
        duals = z_pre + np.array(list(accumulate(s[:-1], initial=np.zeros(m)))[1:])
    else:
        duals = mu.copy()
    kkt = None if trace.stop_reason in DIVERGED else kkt_residual(p, w_prev, duals)
    return AdmmReport(w=w_prev, duals=duals, kkt=kkt, trace=trace, z=z, mu=mu)


class _DualBlockOp(MonotoneOp):
    """Resolvent of the conjugate-composed dual operator of one block.

    For a block with function ``f`` and map ``A``, the dual operator is the
    subdifferential of ``f^*(-A^T .)`` (shifted by ``<b, .>`` for the last
    block); its resolvent at unit step is ``v + A w_hat (- b)`` where
    ``w_hat`` solves the block subproblem at offset ``v (- b)``.
    """

    def __init__(self, block, b=None):
        self._block = block
        self._b = b

    def resolvent(self, y, step=1.0):
        if step != 1.0:
            raise ParameterError("dual block resolvents are available at unit step")
        y = np.asarray(y, dtype=np.float64)
        if self._b is None:
            return y + self._block.apply(self._block.solve(y))
        shifted = y - self._b
        return y + self._block.apply(self._block.solve(shifted)) - self._b


def dual_ops(p):
    """The dual operator tuple whose zeros are the problem's dual solutions.

    Feeding these to :func:`minsplit.splitting.mt_solve` reproduces the
    averaged-form z-iterates algebraically; to 1e-10 in the tests.  This is
    the bridge the tests use to certify the transcription of the ADMM updates.
    """
    ops = [_DualBlockOp(blk) for blk in p.blocks[:-1]]
    ops.append(_DualBlockOp(p.blocks[-1], b=p.b))
    return ops


# ---------------------------------------------------------------------------
# robust PCA: the three-block problem and the ASALM baseline


def rpca_problem(observed, lam, delta):
    """Three-block formulation of partially observed robust PCA.

    Blocks are (fit, sparse, low-rank) with identity maps and right-hand
    side the observed matrix (zeros at unobserved entries): the fit block is
    constrained to a Frobenius ball on the observed entries and free
    elsewhere, the sparse block carries ``lam * ||.||_1``, the low-rank
    block the nuclear norm.
    """
    if not isinstance(observed, PartialMatrix):
        raise ParameterError("observed must be a PartialMatrix")
    if not lam >= 0:
        raise ParameterError(f"lam must be nonnegative, got {lam}")
    if not delta > 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    shape = observed.values.shape
    dim = shape[0] * shape[1]
    mask = observed.mask

    def fit_prox(u):
        return project_partial_ball(u.reshape(shape), mask, delta).ravel()

    def lowrank_prox(u):
        return prox_nuclear(u.reshape(shape), 1.0).ravel()

    blocks = (
        identity_prox_block(fit_prox, dim, coercive=False, label="fit"),
        identity_prox_block(lambda u: prox_l1(u, lam), dim, coercive=True, label="sparse"),
        identity_prox_block(lowrank_prox, dim, coercive=True, label="low-rank"),
    )
    return SepProblem(blocks=blocks, b=observed.observed().ravel())


@dataclass(frozen=True)
class AsalmState:
    """Iterate of the alternating splitting augmented Lagrangian method."""

    fit: np.ndarray
    sparse: np.ndarray
    low_rank: np.ndarray
    multiplier: np.ndarray


def asalm_init(shape):
    zero = np.zeros(shape)
    return AsalmState(fit=zero, sparse=zero.copy(), low_rank=zero.copy(), multiplier=zero.copy())


def asalm_step(state, observed, lam, delta):
    """One sweep of the single-multiplier three-block baseline.

    Fit update: ball projection of the residual; sparse update: elementwise
    shrinkage; low-rank update: singular value shrinkage; then one
    multiplier ascent on the constraint violation.
    """
    if not lam > 0:
        raise ParameterError(f"lam must be positive, got {lam}")
    if not delta > 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    m_mat = observed.observed()
    fit = project_partial_ball(
        m_mat - state.low_rank - state.sparse - state.multiplier, observed.mask, delta
    )
    sparse = prox_l1(m_mat - state.low_rank - fit - state.multiplier, lam)
    low_rank = prox_nuclear(m_mat - sparse - fit - state.multiplier, 1.0)
    multiplier = state.multiplier + (low_rank + sparse + fit - m_mat)
    return AsalmState(fit=fit, sparse=sparse, low_rank=low_rank, multiplier=multiplier)


def asalm_solve(observed, lam, delta, max_iter=2000):
    """Iterate :func:`asalm_step` from zero matrices.

    Records the relative change of the recovered (low-rank, sparse) pair
    and the constraint residual, both on all entries and restricted to the
    observed mask.  Runs the whole ``max_iter`` budget unless a sweep
    diverges, and ``trace.stop_reason`` says which: ``"max_iter"``, or
    ``"non_finite"`` or ``"diverged"`` when a ``relative_change`` is non-finite
    or above ``DIVERGENCE_CAP``.
    """
    state = asalm_init(observed.values.shape)
    m_mat = observed.observed()
    trace = ResidualTrace(["relative_change", "primal_residual", "primal_residual_omega"])

    def step():
        nonlocal state
        new = asalm_step(state, observed, lam, delta)
        rel = _relative_change(
            (new.low_rank, new.sparse), (state.low_rank, state.sparse), (0, 1)
        )
        resid = new.low_rank + new.sparse + new.fit - m_mat
        state = new
        return {
            "relative_change": rel,
            "primal_residual": float(np.linalg.norm(resid)),
            "primal_residual_omega": float(np.linalg.norm(resid[observed.mask])),
        }

    iterate(step, trace, max_iter, watch="relative_change")
    return state, trace


# ---------------------------------------------------------------------------
# primal-dual hybrid gradient baseline for cycle-graph consensus


def pdhg_stepsizes(lap_norm, variant):
    """Step pairs ``(tau, sigma)`` proportional to (1, 1), (10, 1/10), (1/10, 10).

    The raw products ``tau * sigma * ||L||^2`` would sit exactly on the
    stability boundary; both factors are shrunk by ``sqrt(1 - 1e-6)`` so
    the strict inequality holds by construction.
    """
    if not lap_norm > 0:
        raise ParameterError(f"lap_norm must be positive, got {lap_norm}")
    ratios = {1: 1.0, 2: 10.0, 3: 0.1}
    if variant not in ratios:
        raise ParameterError(f"variant must be 1, 2 or 3, got {variant}")
    a = ratios[variant]
    shrink = math.sqrt(1.0 - 1e-6)
    return a * shrink / lap_norm, shrink / (a * lap_norm)


@dataclass
class PdhgReport(Outcome):
    """Outcome of a primal-dual solve."""

    x: np.ndarray
    y: np.ndarray
    trace: ResidualTrace


def pdhg_solve(c, lap, tau, sigma, x0=None, y0=None, tol=1e-8, max_iter=100000):
    """Primal-dual steps for ``min ||x - c||_1  s.t.  L x = 0`` until the
    scaled step residual reaches ``tol``.

    Each step shrinks ``x`` towards ``c`` after a dual descent step, then
    the dual ascends along ``L`` applied to the extrapolated primal; ``L`` is
    symmetric here, so its adjoint is itself.  The steps must satisfy
    ``tau * sigma * ||L||^2 < 1``.  The residual is
    ``sqrt(||dx||^2 / tau^2 + ||dy||^2 / sigma^2)``, the natural fixed-point
    residual of the underlying proximal iteration.
    """
    c = linalg.as_vector(c, "c")
    lap = linalg.as_matrix(lap, "lap")
    if lap.shape != (c.size, c.size):
        raise ShapeError(f"lap is {lap.shape} but c has length {c.size}")
    if not (tau > 0 and sigma > 0):
        raise ParameterError("tau and sigma must be positive")
    product = tau * sigma * linalg.op_norm(lap) ** 2
    if not product < 1.0:
        raise ParameterError(
            f"stepsize product tau*sigma*||L||^2 = {product} must be < 1"
        )
    x = np.zeros_like(c) if x0 is None else np.asarray(x0, dtype=np.float64)
    y = np.zeros_like(c) if y0 is None else np.asarray(y0, dtype=np.float64)
    for name, start in (("x0", x), ("y0", y)):
        if start.shape != c.shape:
            raise ShapeError(f"{name} must have shape {c.shape}, got {start.shape}")
    trace = ResidualTrace(["residual"])

    def step():
        nonlocal x, y
        x_next = prox_abs(x - tau * (lap @ y), c, tau)
        y_next = y + sigma * (lap @ (2.0 * x_next - x))
        residual = math.sqrt(
            float(np.linalg.norm(x_next - x) ** 2) / tau**2
            + float(np.linalg.norm(y_next - y) ** 2) / sigma**2
        )
        x, y = x_next, y_next
        return {"residual": residual}

    iterate(step, trace, max_iter, tol)
    return PdhgReport(x=x, y=y, trace=trace)
