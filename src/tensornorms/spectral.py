"""Grid-based approximation scheme for the tensor spectral norm.

The scheme enumerates a hemisphere grid in the small first mode, reduces
each grid point to a matrix spectral norm, and certifies the result with
the grid's covering coefficient: the grid maximum lies within a factor
theta of the true norm, so [value, value/theta] is a certified interval.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .core import Tensor3, TensorD, contract_first, evaluate, flatten
from .grids import (
    ProductPointSet,
    UnitPointSet,
    build_hemisphere_grid,
    resolution_for_error,
)
from .kernels import spectral_norm, top_sigma, top_singular_pair

__all__ = [
    "NormEstimate",
    "lower_bound_alpha1",
    "upper_bound_alpha2",
    "spectral_norm_fptas",
    "spectral_norm_fptas_d",
    "best_rank_one",
    "polish_rank_one",
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
    T: Tensor3,
    epsilon: float,
    mode: str = "relative",
    point_set: UnitPointSet | None = None,
) -> NormEstimate:
    """Certified spectral norm approximation by hemisphere-grid enumeration.

    The returned value is the grid maximum, a lower bound; for deterministic
    grids value/theta is a certified upper bound with gap at most epsilon
    (absolute or relative per ``mode``).  Grids without a positive theta
    (random samples, or a resolution too coarse for the first dimension)
    certify nothing, and the upper bound falls back to ``upper_bound_alpha2``.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if mode not in ("absolute", "relative"):
        raise ValueError(f"unknown mode {mode!r}")
    t0 = time.perf_counter()
    ell, m, n = T.dims

    if ell == 1:
        sigma, y, z = top_singular_pair(T.slices[0])
        return NormEstimate(
            value=sigma, lower=sigma, upper=sigma, mode=mode, epsilon=epsilon,
            certified=True, grid_points_used=0,
            witness=(np.ones(1), y, z), seconds=time.perf_counter() - t0,
        )

    if point_set is None:
        scale = upper_bound_alpha2(T) if mode == "absolute" else 1.0
        q = resolution_for_error(ell, epsilon, scale)
        point_set = build_hemisphere_grid(ell, q)
    if len(point_set) == 0:
        raise ValueError("point set is empty")
    if point_set.dim != ell:
        raise ValueError(f"point set dim {point_set.dim} != first tensor dim {ell}")

    sigmas = top_sigma(T.slices, point_set.points)
    idx = int(np.argmax(sigmas))  # ties go to the first point
    value = float(sigmas[idx])
    xstar = point_set.points[idx]
    _, y, z = top_singular_pair(contract_first(T, xstar))

    theta = point_set.theta
    if theta is not None and theta > 0:
        upper = value / theta
        certified = True
    else:
        upper = upper_bound_alpha2(T)
        certified = False
    return NormEstimate(
        value=value, lower=value, upper=upper, mode=mode, epsilon=epsilon,
        certified=certified, grid_points_used=len(point_set), q=point_set.q,
        theta=theta, witness=(xstar, y, z), seconds=time.perf_counter() - t0,
    )


def _order3_reduction(T: TensorD) -> tuple[Tensor3, list[int], tuple[int, ...]]:
    """(T3, perm, small_dims): the order-3 tensor the order-d schemes solve on.

    ``perm`` moves the two largest modes last (stably) and ``small_dims`` are
    the remaining leading dimensions, which T3 flattens into its first mode.
    Contracting a tensor by a tuple of leading-mode vectors equals
    contracting that flattening by their Kronecker product, so the order-3
    machinery applies to T3 directly.
    """
    dims = T.dims
    order = sorted(range(len(dims)), key=lambda i: (dims[i], i))
    perm = sorted(order[:-2]) + sorted(order[-2:])
    vals = np.transpose(T.values, perm)
    small_dims = vals.shape[:-2]
    return Tensor3(vals.reshape(-1, *vals.shape[-2:])), perm, small_dims


def _product_grid_for(dims_small, epsilon: float, scale: float) -> ProductPointSet:
    """One hemisphere grid per small mode, splitting the error budget evenly."""
    from .grids import product_point_set

    eps_each = epsilon / len(dims_small)
    sets = [
        build_hemisphere_grid(d, resolution_for_error(d, eps_each, scale))
        for d in dims_small
    ]
    return product_point_set(sets)


def _check_product_set(point_set: ProductPointSet, small_dims) -> None:
    """A caller's product grid must have one set per small mode, in order."""
    dims = [s.dim for s in point_set.sets]
    if dims != list(small_dims):
        raise ValueError(
            f"product point set dims {dims} != small tensor modes "
            f"{list(small_dims)}"
        )


def spectral_norm_fptas_d(
    T: TensorD,
    epsilon: float,
    mode: str = "relative",
    point_set: ProductPointSet | None = None,
) -> NormEstimate:
    """Higher-order variant: product hemisphere grids over all but two modes.

    The order-3 scheme runs on the flattening from ``_order3_reduction``, and
    the witness comes back with one factor per mode in the caller's order.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    t0 = time.perf_counter()
    T3, perm, small_dims = _order3_reduction(T)
    if point_set is None:
        scale = upper_bound_alpha2(T3) if mode == "absolute" else 1.0
        point_set = _product_grid_for(small_dims, epsilon, scale)
    else:
        _check_product_set(point_set, small_dims)
    flat = point_set.flattened()

    est = spectral_norm_fptas(T3, epsilon, mode, flat)

    # unpack the Kronecker witness into per-mode factors in original order
    kron_x, y, z = est.witness
    idx = np.unravel_index(int(np.argmax(flat.points @ kron_x)),
                           [len(s) for s in point_set.sets])
    by_perm = [s.points[i] for s, i in zip(point_set.sets, idx)] + [y, z]
    witness = tuple(by_perm[perm.index(i)] for i in range(T.order))
    return replace(est, witness=witness, seconds=time.perf_counter() - t0)


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


def polish_rank_one(
    T: Tensor3,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    max_iters: int = 100,
    tol: float = 1e-12,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Alternating local improvement of a rank-one witness.

    Each sweep sets x proportional to the mode-1 contraction at (y, z), then
    replaces (y, z) by the top singular pair at x; the objective never
    decreases.
    """
    x = np.asarray(x, float).copy()
    obj = evaluate(T, x, y, z)
    for _ in range(max_iters):
        u = T.slices @ z @ y
        norm_u = np.linalg.norm(u)
        if norm_u > 0:
            x = u / norm_u
        sigma, y, z = top_singular_pair(contract_first(T, x))
        if sigma - obj <= tol * max(1.0, abs(obj)):
            obj = sigma
            break
        obj = sigma
    return obj, x, y, z


# --- serialization ---------------------------------------------------------

def estimate_to_dict(est: NormEstimate) -> dict:
    witness = None
    if est.witness is not None:
        keys = ["x", "y", "z"] if len(est.witness) == 3 else [
            f"x{i+1}" for i in range(len(est.witness))
        ]
        witness = {k: v.tolist() for k, v in zip(keys, est.witness)}
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
