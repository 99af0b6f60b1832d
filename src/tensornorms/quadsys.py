"""Quadratic-system view of the squared spectral norm, on tiny instances.

Feasibility of the system below (in t, y, z, u, for a level alpha) holds
exactly when alpha is at most the squared spectral norm, which turns the
norm computation into a bisection over feasibility tests.  The oracle here
is a brute-force residual minimizer meant for demonstration on tiny tensors,
not a production decision procedure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Tensor3
from .grids import _angles_to_points
from .spectral import lower_bound_alpha1, upper_bound_alpha2

_GRID_STEPS = 24  # angle steps per axis of the oracle's starting mesh
_REFINE_STARTS = 6  # best mesh points refined by Nelder-Mead
_ORACLE_TOL = 1e-6  # a minimum residual up to this is feasible
_DEAD_ZONE_HI = 1e-3  # a minimum residual from this on is infeasible

__all__ = [
    "QuadSystemInstance",
    "OracleInconclusive",
    "residuals",
    "constructive_solution",
    "threshold_bisection",
]


class OracleInconclusive(RuntimeError):
    """Minimum residual landed in the dead zone; feasibility undecided."""

    def __init__(self, alpha: float, residual: float, zone: tuple[float, float],
                 interval: tuple[float, float] | None = None):
        detail = (f"; threshold confined to [{interval[0]:.6g}, "
                  f"{interval[1]:.6g}]" if interval else "")
        super().__init__(
            f"oracle inconclusive at alpha={alpha:.6g}: min residual "
            f"{residual:.3e} in dead zone [{zone[0]:.0e}, {zone[1]:.0e}]{detail}"
        )
        self.alpha = alpha
        self.residual = residual
        self.interval = interval


@dataclass(frozen=True)
class QuadSystemInstance:
    """A candidate (t, y, z, u) for the level-alpha quadratic system."""

    T: Tensor3
    alpha: float
    t: float
    y: np.ndarray
    z: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        ell, m, n = self.T.dims
        y = np.asarray(self.y, float)
        z = np.asarray(self.z, float)
        u = np.asarray(self.u, float)
        if y.shape != (m,) or z.shape != (n,) or u.shape != (ell,):
            raise ValueError("candidate dimensions do not match tensor dims")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "u", u)


def residuals(inst: QuadSystemInstance) -> np.ndarray:
    """Residual vector of length ell + 3.

    Entries: the ell bilinear equations y'T_i z = t u_i, then
    ||y||^2 + ||z||^2 - 2 t^2, ||u||^2 - alpha t^2, and the sphere equation
    t^2 + ||y||^2 + ||z||^2 + ||u||^2 - (3 + alpha).
    """
    T, t, y, z, u, alpha = inst.T, inst.t, inst.y, inst.z, inst.u, inst.alpha
    bilinear = T.slices @ z @ y - t * u
    ny2, nz2, nu2 = y @ y, z @ z, u @ u
    return np.concatenate([
        bilinear,
        [ny2 + nz2 - 2 * t * t,
         nu2 - alpha * t * t,
         t * t + ny2 + nz2 + nu2 - (3 + alpha)],
    ])


def constructive_solution(T: Tensor3, y: np.ndarray, z: np.ndarray) -> QuadSystemInstance:
    """Exact solution at the level alpha achieved by the given unit (y, z)."""
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    y = y / np.linalg.norm(y)
    z = z / np.linalg.norm(z)
    u = T.slices @ z @ y
    return QuadSystemInstance(T, float(u @ u), 1.0, y, z, u)


def _slice_quadratic(T: Tensor3, y: np.ndarray, z: np.ndarray) -> float:
    u = T.slices @ z @ y
    return float(u @ u)


def _range_distance(T: Tensor3, alpha: float) -> float:
    """min over unit (y, z) of |sum_i (y'T_i z)^2 - alpha|, by grid + refinement."""
    # imported here: scipy.optimize costs every `import tensornorms` ~20 MB
    from scipy.optimize import minimize

    ell, m, n = T.dims

    def objective(angles: np.ndarray) -> float:
        y = _angles_to_points(angles[None, : m - 1])[0]
        z = _angles_to_points(angles[None, m - 1:])[0]
        return abs(_slice_quadratic(T, y, z) - alpha)

    n_angles = (m - 1) + (n - 1)
    if _GRID_STEPS**n_angles <= 40000:
        axes = [np.linspace(0, math.pi, _GRID_STEPS, endpoint=False)] * n_angles
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([a.ravel() for a in mesh], axis=1)
    else:
        # sign invariance of the objective makes a dense-enough random sweep
        # an adequate stand-in for the full mesh
        rng = np.random.default_rng(0)
        coords = rng.uniform(0, math.pi, size=(40000, n_angles))
    vals = np.array([objective(c) for c in coords])
    order = np.argsort(vals)[:_REFINE_STARTS]
    best = float(vals[order[0]])
    for idx in order:
        res = minimize(objective, coords[idx], method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
        best = min(best, float(res.fun))
    return best


def threshold_bisection(T: Tensor3, tol: float = 1e-4) -> float:
    """Bisect the feasibility threshold; equals the squared spectral norm.

    Restricted to tiny tensors (first dim <= 3, others <= 4): the feasibility
    oracle does a dense search over angular parameterizations of (y, z).
    """
    ell, m, n = T.dims
    if ell > 3 or m > 4 or n > 4:
        raise ValueError("demonstration harness; dims limited to (3, 4, 4)")
    if tol <= 0:
        raise ValueError("tol must be positive")

    lo = lower_bound_alpha1(T)[0] ** 2
    hi = upper_bound_alpha2(T) ** 2

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        dist = _range_distance(T, mid)
        if dist <= _ORACLE_TOL:
            lo = mid
        elif dist >= _DEAD_ZONE_HI:
            hi = mid
        else:
            # the residual itself bounds the distance to the threshold: an
            # infeasible alpha this close to the range of the quadratic map
            # pins the threshold inside [mid - dist, mid + oracle slack]
            new_lo = max(lo, mid - dist)
            new_hi = min(hi, mid + _DEAD_ZONE_HI)
            if new_hi - new_lo >= hi - lo:
                raise OracleInconclusive(
                    mid, dist, (_ORACLE_TOL, _DEAD_ZONE_HI), (lo, hi)
                )
            lo, hi = new_lo, new_hi
            break
    return 0.5 * (lo + hi)
