"""Grid-based approximation scheme for the tensor spectral norm.

The scheme enumerates a hemisphere grid in the small first mode, reduces
each grid point to a matrix spectral norm, and certifies the result with
the grid's covering coefficient: the grid maximum lies within a factor
theta of the true norm, so [value, value/theta] is a certified interval.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import Tensor3, TensorD, contract_first, evaluate, flatten, named_factors
from .grids import ProductPointSet, UnitPointSet, _order3_problem
from .kernels import spectral_norm, top_sigma, top_sigma_argmax, top_singular_pair

__all__ = [
    "NormEstimate",
    "lower_bound_alpha1",
    "upper_bound_alpha2",
    "spectral_norm_fptas",
    "spectral_norm_fptas_d",
    "best_rank_one",
    "estimate_to_dict",
    "estimate_from_dict",
]


@dataclass(frozen=True)
class NormEstimate:
    """A norm value with certified lower/upper bounds.

    ``witness`` holds the maximizing unit vectors, one per tensor mode,
    when available.
    """

    value: float
    lower: float
    upper: float
    mode: str  # "absolute" or "relative"
    epsilon: float
    certified: bool
    grid_points_used: int
    q: int | None = None
    theta: float | None = None
    witness: tuple[np.ndarray, ...] | None = None
    seconds: float | None = None


def lower_bound_alpha1(T: Tensor3) -> tuple[float, tuple[np.ndarray, ...]]:
    """Lower bound from the top singular pairs of the slices.

    For each slice take its top singular pair (y_i, z_i) and score
    sum_j (y_i' T_j z_i)^2; the best pair also yields the witness x as the
    normalized vector of bilinear slice values.
    """
    ell, m, n = T.dims
    best_val, best_witness = -np.inf, None
    for i in range(ell):
        _, y, z = top_singular_pair(T.slices[i])
        u = T.slices @ z @ y  # u_j = y' T_j z
        score = float(u @ u)
        if score > best_val:
            x = u / np.linalg.norm(u) if np.linalg.norm(u) > 0 else np.eye(ell)[0]
            best_val, best_witness = score, (x, y, z)
    return float(np.sqrt(best_val)), best_witness


def upper_bound_alpha2(T: Tensor3) -> float:
    """min of the flattening spectral norm and the slice-partition bound."""
    flat = spectral_norm(flatten(T))
    slice_norms = top_sigma(T.slices, np.eye(T.dims[0]))
    return float(min(flat, np.sqrt(np.sum(slice_norms**2))))


def spectral_norm_fptas(
    T: Tensor3 | TensorD,
    epsilon: float,
    mode: str = "relative",
    point_set: UnitPointSet | ProductPointSet | None = None,
) -> NormEstimate:
    """Certified spectral norm approximation by hemisphere-grid enumeration.

    The returned value is the grid maximum, a lower bound; for deterministic
    grids value/theta is a certified upper bound with gap at most epsilon
    (absolute or relative per ``mode``).  Grids without a positive theta
    (random samples, or a resolution too coarse for the first dimension)
    certify nothing, and the upper bound falls back to ``upper_bound_alpha2``.

    An order-d tensor is solved on the flattening from ``_order3_problem``,
    over the Kronecker products of one point set per small mode (a
    ``ProductPointSet``), and its witness has one factor per mode in the
    caller's mode order.  When every small mode has size 1, the norm is
    that of the single slice, found exactly.
    """
    t0 = time.perf_counter()
    T3, perm, sets, points, _ = _order3_problem(T, epsilon, mode, point_set,
                                                upper_bound_alpha2)
    exact = T3.dims[0] == 1
    idx, value = (0, None) if exact else top_sigma_argmax(T3.slices, points.points)
    sigma, y, z = top_singular_pair(contract_first(T3, points.points[idx]))
    # the per-mode factors of the maximizing Kronecker point, in caller order
    by_perm = [s.points[i].copy() for s, i in
               zip(sets, np.unravel_index(idx, [len(s) for s in sets]))] + [y, z]
    witness = tuple(by_perm[perm.index(i)] for i in range(len(perm)))
    if exact:
        return NormEstimate(
            value=sigma, lower=sigma, upper=sigma, mode=mode, epsilon=epsilon,
            certified=True, grid_points_used=0, witness=witness,
            seconds=time.perf_counter() - t0,
        )

    theta = points.theta
    if theta is not None and theta > 0:
        upper = value / theta
        certified = True
    else:
        upper = upper_bound_alpha2(T3)
        certified = False
    return NormEstimate(
        value=value, lower=value, upper=upper, mode=mode, epsilon=epsilon,
        certified=certified, grid_points_used=len(points), q=points.q,
        theta=theta, witness=witness, seconds=time.perf_counter() - t0,
    )


spectral_norm_fptas_d = spectral_norm_fptas


def best_rank_one(
    T: Tensor3, est: NormEstimate
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, float]:
    """Best rank-one term at the estimate's witness, with residual.

    For unit factors the optimal multiplier is the trilinear value itself and
    the residual satisfies residual^2 = ||T||_F^2 - lambda^2.
    """
    if est.witness is None:
        raise ValueError("estimate has no witness")
    x, y, z = est.witness
    lam = evaluate(T, x, y, z)
    diff = T.slices - lam * np.einsum("i,j,k->ijk", x, y, z)
    residual = float(np.linalg.norm(diff))
    return lam, x, y, z, residual


# --- serialization ---------------------------------------------------------

def estimate_to_dict(est: NormEstimate) -> dict:
    witness = None if est.witness is None else named_factors(est.witness)
    return {
        "value": est.value,
        "lower": est.lower,
        "upper": est.upper,
        "epsilon": est.epsilon,
        "mode": est.mode,
        "certified": est.certified,
        "q": est.q,
        "theta": est.theta,
        "grid_points": est.grid_points_used,
        "witness": witness,
        "seconds": est.seconds,
    }


def estimate_from_dict(d: dict) -> NormEstimate:
    witness = None
    if d.get("witness") is not None:
        witness = tuple(np.asarray(v, float) for v in d["witness"].values())
    return NormEstimate(
        value=d["value"], lower=d["lower"], upper=d["upper"], mode=d["mode"],
        epsilon=d["epsilon"], certified=d["certified"],
        grid_points_used=d["grid_points"], q=d.get("q"), theta=d.get("theta"),
        witness=witness, seconds=d.get("seconds"),
    )
