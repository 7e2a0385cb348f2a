"""Reproducible instance generators for experiments and property tests.

All randomness flows through :class:`Prng`, a counter-based splitmix64
generator with Box-Muller normal sampling.  The generator is implemented
with explicit 64-bit unsigned arithmetic so instances (and therefore the
CSV outputs built from them) are reproducible bit for bit from a seed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_budget
from .operators import AbsValue, AffineOp

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1


class Prng:
    """Counter-based splitmix64 pseudo-random generator.

    The k-th raw output is ``mix(seed + (k+1)*golden)`` where ``mix`` is the
    standard splitmix64 finaliser, so draws can be produced in bulk with
    vectorised uint64 arithmetic and are independent of platform.
    """

    def __init__(self, seed):
        self._seed = np.uint64(int(seed) & _MASK)
        self._count = 0

    def _raw(self, k):
        idx = np.arange(self._count + 1, self._count + k + 1, dtype=np.uint64)
        self._count += k
        z = self._seed + idx * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    def uniforms(self, k):
        """k uniforms in [0, 1) with 53-bit resolution."""
        check_budget(k, "k", 0)
        return (self._raw(k) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, k):
        """k standard normals via Box-Muller pairs: one row of :meth:`normal_rows`."""
        return self.normal_rows(1, k)[0]

    def normal_rows(self, count, k):
        """``count`` successive ``normals(k)`` draws as rows, bit for bit.

        Not ``normals(count * k).reshape(count, k)``: that one call takes the
        same raw words but pairs them differently.
        """
        check_budget(count, "count", 0)
        check_budget(k, "k", 0)
        m = (k + 1) // 2
        raw = self._raw(2 * m * count).reshape(count, 2, m)
        # u1 in (0, 1] so the logarithm is finite
        u1 = ((raw[:, 0] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
        u2 = (raw[:, 1] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty((count, 2 * m))
        out[:, 0::2] = r * np.cos(theta)
        out[:, 1::2] = r * np.sin(theta)
        return out[:, :k]

    def subset(self, n, k):
        """Deterministic size-k subset of range(n), ``0 <= k <= n``, as a sorted index array."""
        if not 0 <= k <= n:
            raise ParameterError(f"subset needs 0 <= k <= n, got k={k}, n={n}")
        order = np.argsort(self.uniforms(n), kind="stable")
        return np.sort(order[:k])


@dataclass(frozen=True)
class ConsensusInstance:
    """Targets for the scalar consensus problem ``min_x sum_i |x - c_i|``."""

    n: int
    c: np.ndarray

    def operators(self):
        """One absolute-value subdifferential per target."""
        return [AbsValue(np.array([ci])) for ci in self.c]

    def median_interval(self):
        """The closed interval of minimisers of ``sum_i |x - c_i|``."""
        s = np.sort(self.c)
        if self.n % 2 == 1:
            mid = s[self.n // 2]
            return float(mid), float(mid)
        return float(s[self.n // 2 - 1]), float(s[self.n // 2])


def gen_consensus(n, seed):
    """Standard-normal targets, deterministic from the seed."""
    check_budget(n, "n")
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    prng = Prng(seed)
    return ConsensusInstance(n=n, c=prng.normals(n))


def cycle_laplacian(n):
    """Graph Laplacian of the n-cycle: 2 on the diagonal, -1 between neighbours."""
    check_budget(n, "n")
    if n < 3:
        raise ParameterError(f"cycle graph needs n >= 3 nodes, got {n}")
    lap = 2.0 * np.eye(n)
    idx = np.arange(n)
    lap[idx, (idx + 1) % n] = -1.0
    lap[idx, (idx - 1) % n] = -1.0
    return lap


@dataclass(frozen=True)
class RpcaInstance:
    """A partially observed low-rank-plus-sparse matrix recovery instance."""

    low_rank: np.ndarray
    sparse: np.ndarray
    omega: np.ndarray
    observed: np.ndarray


def gen_rpca(m, n, seed):
    """Checkerboard low-rank part, sparse normal corruption, random mask.

    The sparse support holds exactly ``round(0.15 * m * n)`` entries and the
    observation mask ``round(0.40 * m * n)``, each drawn as a random subset,
    so the realised fractions match 15% and 40% to within one entry.  Observed
    entries satisfy ``observed = low_rank + sparse`` on the mask and are
    zero elsewhere.
    """
    check_budget(m, "m")
    check_budget(n, "n")
    if m < 2 or n < 2:
        raise ParameterError(f"need m, n >= 2, got {m}x{n}")
    prng = Prng(seed)
    i, j = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
    low_rank = ((i + j) % 2).astype(np.float64)

    k_sparse = round(0.15 * m * n)
    support = prng.subset(m * n, k_sparse)
    sparse = np.zeros(m * n)
    sparse[support] = prng.normals(k_sparse)
    sparse = sparse.reshape(m, n)

    k_obs = round(0.40 * m * n)
    omega = np.zeros(m * n, dtype=bool)
    omega[prng.subset(m * n, k_obs)] = True
    omega = omega.reshape(m, n)

    observed = np.where(omega, low_rank + sparse, 0.0)
    return RpcaInstance(
        low_rank=low_rank,
        sparse=sparse,
        omega=omega,
        observed=observed,
    )


@dataclass(frozen=True)
class AffineMonotoneInstance:
    """Random affine monotone operators with a known zero of their sum."""

    mats: tuple
    offsets: tuple
    solution: np.ndarray

    def operators(self):
        return [AffineOp(m, c) for m, c in zip(self.mats, self.offsets)]


def gen_affine_monotone(n_ops, dim, seed, moduli=None):
    """Operators ``x -> M_i x + c_i`` with ``M_i = P_i^T P_i + skew + beta_i I``.

    The offsets are chosen so that ``sum_i (M_i x* + c_i) = 0`` at a recorded
    point ``x*``; the Gram parts make the sum's symmetric part positive
    definite almost surely, so ``x*`` is the unique zero.
    """
    check_budget(dim, "dim")
    check_budget(n_ops, "n_ops")
    if moduli is None:
        moduli = (0.0,) * n_ops
    if len(moduli) != n_ops:
        raise ParameterError(f"expected {n_ops} moduli, got {len(moduli)}")
    prng = Prng(seed)
    scale = 1.0 / np.sqrt(dim)
    # one normal_rows call per kind of draw: row by row, the bits of a normals call each
    parts = prng.normal_rows(2 * n_ops, dim * dim).reshape(n_ops, 2, dim, dim) * scale
    mats = [p.T @ p + 0.5 * (k - k.T) + beta * np.eye(dim) for (p, k), beta in zip(parts, moduli)]
    solution, *offsets = prng.normal_rows(n_ops, dim)
    total = sum(m @ solution for m in mats)
    for c in offsets:
        total = total + c
    offsets.append(-total)
    return AffineMonotoneInstance(
        mats=tuple(mats),
        offsets=tuple(offsets),
        solution=solution,
    )
