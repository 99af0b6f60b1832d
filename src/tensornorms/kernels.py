"""Matrix factorization primitives used throughout the library."""

from __future__ import annotations

import numpy as np

__all__ = [
    "spectral_norm",
    "nuclear_norm",
    "top_singular_pair",
    "top_sigma",
]

# doubles of per-point work arrays that top_sigma holds at once (2 MiB)
_CHUNK_DOUBLES = 1 << 18


def _check_finite(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return A


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value."""
    A = _check_finite(A)
    return float(np.linalg.svd(A, compute_uv=False)[0])


def nuclear_norm(A: np.ndarray) -> float:
    """Sum of singular values."""
    A = _check_finite(A)
    return float(np.linalg.svd(A, compute_uv=False).sum())


def top_singular_pair(A: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(sigma_1, u, v) with u'Av = sigma_1."""
    u, s, vt = np.linalg.svd(_check_finite(A), full_matrices=False)
    return float(s[0]), u[:, 0], vt[0]


def top_sigma(slices: np.ndarray, points: np.ndarray) -> np.ndarray:
    """sigma_max(sum_i x_i T_i) for every row x of ``points``.

    ``slices`` is the (ell, m, n) stack of T_i and ``points`` is (count, ell).
    sigma_max(A)^2 is the top eigenvalue of the Gram matrix of A on its
    smaller side (k = min(m, n)), so each point costs one k x k symmetric
    eigensolve.  The Gram matrices are formed one of two ways, whichever
    costs fewer flops for the input's shape: as the quadratic form
    sum_{i<=j} x_i x_j G_ij over slice pair products precomputed once
    (ell(ell+1)/2 k^2 per point), or by contracting the slices first and
    squaring (about (ell + k) k max(m, n) per point).  Work arrays are formed
    a chunk of about _CHUNK_DOUBLES entries at a time, so memory stays flat
    however many points there are.

    Round-off: the slices are scaled by a power of two near max|T_i| first,
    so squaring neither overflows nor underflows.  The eigensolve is
    backward stable, and forming the Gram matrix adds a relative error of
    at most about ell k max(m, n) u (u the unit round-off) wherever sigma is
    at least a fixed share of max_i ||T_i||, as at the maximum over a
    covering grid; in practice sigma comes out within about k u of an
    SVD's.  That is far below any covering tolerance, so the certified
    bounds built on it add no margin.  Singular values much smaller than
    sigma_max lose accuracy on the Gram route, which is why only the
    largest one is taken here.
    """
    ell, m, n = slices.shape
    sigmas = np.zeros(points.shape[0])
    amax = float(np.max(np.abs(slices), initial=0.0))
    if amax == 0.0:
        return sigmas
    exp = int(np.frexp(amax)[1])
    S = np.ldexp(slices if m <= n else slices.transpose(0, 2, 1), -exp)
    k, big = S.shape[1:]
    iu, ju = np.triu_indices(ell)
    quadratic = iu.size * k <= (ell + k) * big
    if quadratic:
        # pairs[i, a, j, c] = (T_i T_j')[a, c]; G_ij = T_i T_j' + T_j T_i'
        flat = S.reshape(ell * k, big)
        pairs = (flat @ flat.T).reshape(ell, k, ell, k).transpose(0, 2, 1, 3)
        G = pairs[iu, ju] + pairs[ju, iu]
        G[iu == ju] *= 0.5
        G = G.reshape(iu.size, k * k)
        chunk = max(1, _CHUNK_DOUBLES // (iu.size + k * k))
    else:
        chunk = max(1, _CHUNK_DOUBLES // (k * big + k * k))
    for start in range(0, points.shape[0], chunk):
        X = points[start:start + chunk]
        if quadratic:
            gram = ((X[:, iu] * X[:, ju]) @ G).reshape(-1, k, k)
        else:
            mats = np.tensordot(X, S, axes=(1, 0))
            gram = mats @ mats.transpose(0, 2, 1)
        top = np.linalg.eigvalsh(gram)[:, -1]
        sigmas[start:start + chunk] = np.sqrt(np.maximum(top, 0.0))
    return np.ldexp(sigmas, exp)
