"""Matrix factorization primitives used throughout the library."""

from __future__ import annotations

import numpy as np

__all__ = [
    "spectral_norm",
    "nuclear_norm",
    "top_singular_pair",
    "top_sigma",
]

# doubles of contracted matrices that top_sigma holds at once (8 MiB)
_CHUNK_DOUBLES = 1 << 20


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
    The contracted matrices are formed a chunk of about _CHUNK_DOUBLES
    entries at a time, so memory stays flat however many points there are.
    """
    m, n = slices.shape[1:]
    chunk = max(1, _CHUNK_DOUBLES // (m * n))
    sigmas = np.empty(points.shape[0])
    for start in range(0, points.shape[0], chunk):
        mats = np.tensordot(points[start:start + chunk], slices, axes=(1, 0))
        sigmas[start:start + chunk] = np.linalg.svd(mats, compute_uv=False)[:, 0]
    return sigmas
