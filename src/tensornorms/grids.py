"""Spherical-coordinate grids on the unit sphere and hemisphere.

The deterministic grids discretize the angular coordinates with step
pi/q.  Their covering quality is summarized by a coefficient theta:
every unit vector has inner product at least theta with some grid point
(up to the sign flip the callers exploit), with
theta = 1 - pi^2 (ell-1) / (8 q^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UnitPointSet",
    "spherical_to_cartesian",
    "build_hemisphere_grid",
    "covering_coefficient",
    "hemisphere_point_count",
    "resolution_for_error",
    "sample_uniform",
    "ProductPointSet",
    "product_point_set",
]


@dataclass(frozen=True)
class UnitPointSet:
    """A finite set of unit vectors, with covering coefficient when deterministic."""

    dim: int
    points: np.ndarray  # (count, dim)
    theta: float | None
    q: int | None = None  # resolution of a hemisphere grid

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points must have shape (count, {self.dim})")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if np.any(np.abs(np.sqrt(np.einsum("ij,ij->i", pts, pts)) - 1.0) > 1e-10):
            raise ValueError("points must have unit norm")
        if self.theta is not None and not self.theta <= 1.0:
            raise ValueError(f"theta must be at most 1, got {self.theta}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def spherical_to_cartesian(phi: np.ndarray) -> np.ndarray:
    """Unit vector in R^(len(phi)+1) from angular coordinates.

    All angles but the last lie in [0, pi]; the last lies in [0, 2*pi).
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if phi.size < 1:
        raise ValueError("need at least one angle")
    if np.any(phi[:-1] < 0) or np.any(phi[:-1] > math.pi):
        raise ValueError("angles before the last must lie in [0, pi]")
    if phi[-1] < 0 or phi[-1] >= 2 * math.pi:
        raise ValueError("last angle must lie in [0, 2*pi)")
    return _angles_to_points(phi[None, :])[0]


def _angles_to_points(phis: np.ndarray) -> np.ndarray:
    """Batch conversion of (count, ell-1) angle rows to (count, ell) unit vectors."""
    count, k = phis.shape
    out = np.empty((count, k + 1))
    sin_prod = np.ones(count)
    for j in range(k):
        out[:, j] = sin_prod * np.cos(phis[:, j])
        sin_prod = sin_prod * np.sin(phis[:, j])
    out[:, k] = sin_prod
    return out


def hemisphere_point_count(ell: int, q: int) -> int:
    """Closed-form size of the deduplicated hemisphere grid."""
    if q == 2:
        return ell
    return ((q - 1) ** ell - 1) // (q - 2)


def covering_coefficient(q: int, ell: int) -> float:
    """theta = 1 - pi^2 (ell-1) / (8 q^2)."""
    if q < 1 or ell < 2:
        raise ValueError("need q >= 1 and ell >= 2")
    return 1.0 - math.pi**2 * (ell - 1) / (8.0 * q * q)


def build_hemisphere_grid(ell: int, q: int) -> UnitPointSet:
    """Deduplicated hemisphere grid: all angles on {0, d, ..., (q-1)d}, d = pi/q."""
    if ell < 2 or q < 2:
        raise ValueError("need ell >= 2 and q >= 2")
    # angle-index rows in lexicographic order, built from the last angle
    # forward; once an angle is 0 the remaining Cartesian coordinates vanish,
    # so the rest of that row stays 0 and no duplicate point is ever built
    idx = np.zeros((1, 0), dtype=np.int64)
    for _ in range(ell - 1):
        head = np.repeat(np.arange(1, q), len(idx))
        idx = np.vstack([np.zeros((1, idx.shape[1] + 1), dtype=np.int64),
                         np.column_stack([head, np.tile(idx, (q - 1, 1))])])
    points = _angles_to_points(idx * (math.pi / q))
    return UnitPointSet(ell, points, covering_coefficient(q, ell), q)


def resolution_for_error(ell: int, epsilon: float, scale: float = 1.0) -> int:
    """Smallest grid resolution certifying an error of epsilon.

    ``scale`` is the norm upper bound for absolute-error targets and 1 for
    relative-error targets.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    q = math.ceil(math.sqrt(math.pi**2 * (ell - 1) * scale / (8.0 * epsilon)))
    return max(q, 2)


def sample_uniform(ell: int, count: int, seed: int) -> UnitPointSet:
    """Points i.i.d. uniform on the unit sphere (normalized Gaussian draws)."""
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, ell))
    points = g / np.linalg.norm(g, axis=1, keepdims=True)
    return UnitPointSet(ell, points, None)


class ProductPointSet:
    """Lazy Cartesian product of unit point sets.

    ``theta`` is the product of member covering coefficients when all are
    present and positive, the smallest of them when one is not positive
    (no certificate), and None when one is missing.
    """

    def __init__(self, sets: list[UnitPointSet]):
        if not sets:
            raise ValueError("need at least one point set")
        self.sets = list(sets)

    def __len__(self) -> int:
        return int(np.prod([len(s) for s in self.sets]))

    @property
    def theta(self) -> float | None:
        thetas = [s.theta for s in self.sets]
        if any(t is None for t in thetas):
            return None
        if min(thetas) <= 0:
            return float(min(thetas))
        return float(np.prod(thetas))

    def flattened(self) -> UnitPointSet:
        """All products as single unit vectors via Kronecker products.

        The kron of unit vectors is again a unit vector, and contracting a
        tensor by the tuple equals contracting its first-modes flattening by
        the kron vector.  Rows follow the Cartesian product order, the last
        set varying fastest, so ``np.unravel_index`` over the set sizes
        recovers the per-set indices of a row.
        """
        mats = [s.points for s in self.sets]
        acc = mats[0]
        for m in mats[1:]:
            acc = np.einsum("pa,qb->pqab", acc, m).reshape(
                acc.shape[0] * m.shape[0], acc.shape[1] * m.shape[1]
            )
        return UnitPointSet(acc.shape[1], acc, self.theta)


def product_point_set(sets: list[UnitPointSet]) -> ProductPointSet:
    return ProductPointSet(sets)

