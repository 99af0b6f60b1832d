"""Checks of each answer, computed apart from the solver, in numpy alone.

Every check returns a list of failure messages; an empty list is a pass.
The reference quantities of an instance (matricization norms, slice
bounds, a power-iteration value) depend only on the tensor and are computed
once per instance by ``reference``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

RTOL = 1e-9  # round-off allowance on every inequality between computed bounds
UNIT_TOL = 1e-9  # how far a witness vector's norm may be from 1
RECON_RTOL = 1e-6  # the solver's stationarity tolerance, relative to ||T||_F
SEQ_ROUNDING = 5e-5  # half a unit in the 4th decimal of the published value


def matricizations(a: np.ndarray) -> list[np.ndarray]:
    """Every matrix unfolding of ``a``: modes S as rows, the rest as columns."""
    d = a.ndim
    out = []
    for r in range(d - 1):
        for rest in itertools.combinations(range(1, d), r):
            rows = (0,) + rest
            cols = tuple(k for k in range(d) if k not in rows)
            nrows = int(np.prod([a.shape[k] for k in rows]))
            out.append(np.transpose(a, rows + cols).reshape(nrows, -1))
    return out


def slice_bounds(a: np.ndarray) -> list[float]:
    """sum ||T_i||_* over the matrix slices in each pair of modes.

    Each slice is a matrix times unit basis vectors in the other modes, so
    every sum is an upper bound on the tensor nuclear norm.
    """
    bounds = []
    for p, q in itertools.combinations(range(a.ndim), 2):
        mats = np.moveaxis(a, (p, q), (-2, -1)).reshape(-1, a.shape[p], a.shape[q])
        bounds.append(float(np.linalg.svd(mats, compute_uv=False).sum()))
    return bounds


def contract_all(a: np.ndarray, vectors) -> float:
    """The multilinear form T(v_1, ..., v_d)."""
    out = a
    for v in reversed(vectors):
        out = out @ v
    return float(out)


def _contract_except(a: np.ndarray, vectors, k: int) -> np.ndarray:
    out = a
    for j in reversed(range(a.ndim)):
        if j != k:
            out = np.tensordot(out, vectors[j], axes=([j], [0]))
    return out


def power_value(a: np.ndarray, starts: int = 3, iters: int = 200) -> float:
    """Best value of a multi-start alternating power iteration.

    Each run updates one mode at a time to the normalized contraction of the
    others; every value it reaches is attained by unit vectors, so the best
    one is a lower bound on the spectral norm.  Starts: the leading singular
    vectors of each mode's unfolding, then Gaussian draws.
    """
    d = a.ndim
    rng = np.random.default_rng(0)
    first = [np.linalg.svd(np.moveaxis(a, k, 0).reshape(a.shape[k], -1),
                           full_matrices=False)[0][:, 0] for k in range(d)]
    inits = [first] + [[rng.standard_normal(n) for n in a.shape] for _ in range(starts)]
    best = 0.0
    for xs in inits:
        xs = [x / np.linalg.norm(x) for x in xs]
        value = abs(contract_all(a, xs))
        for _ in range(iters):
            for k in range(d):
                g = _contract_except(a, xs, k)
                xs[k] = g / max(np.linalg.norm(g), 1e-300)
            new = abs(contract_all(a, xs))
            if new - value <= 1e-13 * max(new, 1e-300):
                value = max(value, new)
                break
            value = new
        best = max(best, value)
    return best


@dataclass(frozen=True)
class Reference:
    frobenius: float
    power: float  # attained by unit vectors: <= ||T||_sigma
    spectral_upper: float  # min matricization spectral norm: >= ||T||_sigma
    nuclear_lower: float  # max matricization nuclear norm: <= ||T||_*
    nuclear_upper: float  # min slice bound: >= ||T||_*


def reference(a: np.ndarray) -> Reference:
    svals = [np.linalg.svd(m, compute_uv=False) for m in matricizations(a)]
    return Reference(
        frobenius=float(np.linalg.norm(a)),
        power=power_value(a),
        spectral_upper=min(float(s[0]) for s in svals),
        nuclear_lower=max(float(s.sum()) for s in svals),
        nuclear_upper=min(slice_bounds(a)),
    )


def _bracket(res, truth: float | None, name: str) -> list[str]:
    out = []
    if not res.certified:
        out.append("not certified")
    if not (res.theta is not None and 0.0 < res.theta <= 1.0):
        out.append(f"covering coefficient {res.theta} outside (0, 1]")
    if not (0.0 < res.lower <= res.upper):
        out.append(f"bracket [{res.lower}, {res.upper}] not positive and ordered")
    if truth is not None and not (res.lower * (1 - RTOL) <= truth <= res.upper * (1 + RTOL)):
        out.append(f"{name} {truth} outside [{res.lower}, {res.upper}]")
    return out


def spectral_failures(a: np.ndarray, res, ref: Reference,
                      truth: float | None = None) -> list[str]:
    out = _bracket(res, truth, "known spectral norm")
    w = res.witness
    if w is None or len(w) != a.ndim or any(
            np.shape(v) != (n,) for v, n in zip(w, a.shape)):
        return out + ["witness missing or of the wrong shape"]
    norms = [float(np.linalg.norm(v)) for v in w]
    if max(abs(n - 1.0) for n in norms) > UNIT_TOL:
        out.append(f"witness norms {norms} not 1")
    attained = contract_all(a, w)
    if abs(attained - res.value) > RTOL * max(res.value, 1e-300):
        out.append(f"witness attains {attained}, not the value {res.value}")
    if res.value < res.theta * ref.power * (1 - RTOL):
        out.append(f"value {res.value} below theta * power value {ref.power}")
    if res.upper < ref.power * (1 - RTOL):
        out.append(f"upper {res.upper} below power value {ref.power}")
    if res.lower > ref.spectral_upper * (1 + RTOL):
        out.append(f"lower {res.lower} above ||Mat(T)||_2 = {ref.spectral_upper}")
    return out


def nuclear_failures(a: np.ndarray, res, ref: Reference, truth: float | None = None,
                     published: float | None = None) -> list[str]:
    out = _bracket(res, truth, "known nuclear norm")
    if published is not None and not (res.lower <= published + SEQ_ROUNDING
                                      and res.upper >= published - SEQ_ROUNDING):
        out.append(f"published {published} outside [{res.lower}, {res.upper}]")
    if res.upper < ref.nuclear_lower * (1 - RTOL):
        out.append(f"upper {res.upper} below a flattening's nuclear norm "
                   f"{ref.nuclear_lower}")
    if res.lower > ref.nuclear_upper * (1 + RTOL):
        out.append(f"lower {res.lower} above a slice bound {ref.nuclear_upper}")
    # the decomposition lives on the order-3 tensor the solver saw: the
    # leading modes flattened into one
    a3 = a.reshape(-1, a.shape[-2], a.shape[-1])
    recon = np.zeros_like(a3)
    for weight, x, y, z in res.terms:
        recon += weight * np.einsum("i,j,k->ijk", x, y, z)
    resid = float(np.linalg.norm(recon - a3))
    if resid > RECON_RTOL * ref.frobenius:
        out.append(f"decomposition misses T by {resid:.3e} "
                   f"(tolerance {RECON_RTOL * ref.frobenius:.3e})")
    weight_sum = float(sum(abs(t[0]) for t in res.terms))
    if weight_sum < res.lower * (1 - RTOL):
        out.append(f"decomposition weight sum {weight_sum} below lower {res.lower}")
    return out


def pair_failures(spectral, nuclear, ref: Reference) -> list[str]:
    """||T||_sigma <= ||T||_F <= ||T||_* and ||T||_F^2 <= ||T||_sigma ||T||_*."""
    out = []
    fro = ref.frobenius
    if not (spectral.lower <= fro * (1 + RTOL) and fro <= nuclear.upper * (1 + RTOL)):
        out.append(f"||T||_F = {fro} not in [spectral lower {spectral.lower}, "
                   f"nuclear upper {nuclear.upper}]")
    if fro * fro > spectral.upper * nuclear.upper * (1 + RTOL):
        out.append(f"||T||_F^2 = {fro * fro} above spectral upper x nuclear upper "
                   f"{spectral.upper * nuclear.upper}")
    return out
