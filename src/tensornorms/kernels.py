"""Matrix factorization primitives used throughout the library."""

from __future__ import annotations

import numpy as np

__all__ = [
    "spectral_norm",
    "nuclear_norm",
    "top_singular_pair",
    "top_sigma",
    "top_sigma_argmax",
]

# doubles of per-point work arrays that top_sigma holds at once (2 MiB)
_CHUNK_DOUBLES = 1 << 18
# relative margin on both sides of a pruning test, far above the bounds'
# round-off of about k^2 u
_PRUNE_MARGIN = 1e-6
# no pruning below this top eigenvalue of the scaled Gram matrices, where
# the lambda^16 of the second bound could underflow
_PRUNE_FLOOR = 2.0**-40


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
    # copies, so that a kept pair does not pin the full U and V'
    return float(s[0]), u[:, 0].copy(), vt[0].copy()


def _gram_power_norms(G: np.ndarray, squarings: int = 2,
                      work: np.ndarray | None = None) -> np.ndarray:
    """||G^(2^s)||_F^2 = sum_i lambda_i^(2^(s+1)) for each symmetric G in a stack.

    s = ``squarings``; the default gives sum lambda^8, whose 8th root bounds
    max |lambda_i|.  The products go into ``work``, a (2, >= len(G), k, k)
    buffer a caller may reuse across calls.  Overflow gives inf or nan,
    which no caller takes as a bound.
    """
    if work is None:
        work = np.empty((2, *G.shape))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(squarings):
            G = np.matmul(G, G, out=work[i % 2, :len(G)])
        return np.einsum("pij,pij->p", G, G)


def _gram_builder(slices: np.ndarray):
    """(exp, chunk, gram) for Gram matrices of the contracted, scaled slices.

    ``gram(X)`` stacks the k x k Gram matrices of 2^-exp sum_i x_i T_i on
    their smaller side (k = min(m, n)) for the rows x of X, and ``chunk`` is
    how many rows to pass at once.  None for all-zero slices.  The Gram
    matrices are formed one of two ways, whichever costs fewer flops for the
    input's shape: as the quadratic form sum_{i<=j} x_i x_j G_ij over slice
    pair products precomputed once (ell(ell+1)/2 k^2 per point), or by
    contracting the slices first and squaring (about (ell + k) k max(m, n)
    per point).  A chunk holds about _CHUNK_DOUBLES entries of work arrays,
    so memory stays flat however many points there are.  The power of two
    2^exp is near max|T_i|, so squaring neither overflows nor underflows.
    """
    ell, m, n = slices.shape
    amax = float(np.max(np.abs(slices), initial=0.0))
    if amax == 0.0:
        return None
    exp = int(np.frexp(amax)[1])
    S = np.ldexp(slices if m <= n else slices.transpose(0, 2, 1), -exp)
    k, big = S.shape[1:]
    iu, ju = np.triu_indices(ell)
    if iu.size * k <= (ell + k) * big:
        # pairs[i, a, j, c] = (T_i T_j')[a, c]; G_ij = T_i T_j' + T_j T_i'
        flat = S.reshape(ell * k, big)
        pairs = (flat @ flat.T).reshape(ell, k, ell, k).transpose(0, 2, 1, 3)
        G = pairs[iu, ju] + pairs[ju, iu]
        G[iu == ju] *= 0.5
        G = G.reshape(iu.size, k * k)

        def gram(X):
            return ((X[:, iu] * X[:, ju]) @ G).reshape(-1, k, k)

        return exp, max(1, _CHUNK_DOUBLES // (iu.size + k * k)), gram

    def gram(X):
        mats = np.tensordot(X, S, axes=(1, 0))
        return mats @ mats.transpose(0, 2, 1)

    return exp, max(1, _CHUNK_DOUBLES // (k * big + k * k)), gram


def top_sigma(slices: np.ndarray, points: np.ndarray) -> np.ndarray:
    """sigma_max(sum_i x_i T_i) for every row x of ``points``.

    ``slices`` is the (ell, m, n) stack of T_i and ``points`` is (count, ell).
    sigma_max(A)^2 is the top eigenvalue of the Gram matrix of A on its
    smaller side (k = min(m, n)), so each point costs one k x k symmetric
    eigensolve; ``_gram_builder`` forms the Gram matrices a chunk at a time.

    Round-off: the slices are scaled by a power of two near max|T_i| first,
    so squaring neither overflows nor underflows.  The eigensolve is
    backward stable, and forming the Gram matrix adds a relative error of
    at most about ell k max(m, n) u (u the unit round-off) wherever sigma is
    at least a fixed share of max_i ||T_i||, as at the maximum over a
    covering grid; in practice sigma comes out within about k u of an
    SVD's.  That is far below any covering tolerance, so the certified
    bounds built on it add no margin.  Singular values much smaller than
    sigma_max lose accuracy on the Gram route, which is why only the
    largest one is taken here.  When only the maximum over the points is
    wanted, ``top_sigma_argmax`` gives it without eigensolving every point.
    """
    sigmas = np.zeros(points.shape[0])
    setup = _gram_builder(slices)
    if setup is None:
        return sigmas
    exp, chunk, gram = setup
    for start in range(0, points.shape[0], chunk):
        top = np.linalg.eigvalsh(gram(points[start:start + chunk]))[:, -1]
        sigmas[start:start + chunk] = np.sqrt(np.maximum(top, 0.0))
    return np.ldexp(sigmas, exp)


def top_sigma_argmax(slices: np.ndarray, points: np.ndarray) -> tuple[int, float]:
    """(index, sigma) of the largest sigma_max(sum_i x_i T_i) over the rows x.

    Bit for bit what ``top_sigma`` followed by ``np.argmax`` gives, ties
    going to the first point, but only the points that a bound cannot rule
    out are eigensolved.  A first pass forms every chunk's Gram matrices G
    as ``top_sigma`` does and keeps b = (sum_i lambda_i^8)^(1/8) =
    ||G^4||_F^(1/4) >= lambda_max(G) for each point.  The point with the
    largest b is eigensolved first.  The chunks are then visited from the
    largest b down; each is formed again, the same bits as before, and a
    point is dropped when b (1 + _PRUNE_MARGIN) is below the cut, the
    largest top eigenvalue found so far times (1 - _PRUNE_MARGIN).  The rest
    are tested once more with (sum_i lambda_i^16)^(1/16), and only the
    points that pass both tests are eigensolved.

    Every eigenvalue comes from the Gram bits ``top_sigma`` forms, one
    matrix at a time, so it is bit-equal to that scan's.  Both bounds are
    bounds on the same computed G and carry a relative round-off of about
    k^2 u, far below the margins, so a dropped point's computed value is
    below the cut and hence below the maximum: it can neither be the
    maximum nor tie it.  A non-finite bound never drops a point, and no
    point is dropped while the cut is below _PRUNE_FLOOR, where lambda^16
    could underflow.
    """
    count = points.shape[0]
    if count == 0:
        raise ValueError("no points to maximise over")
    setup = _gram_builder(slices)
    if setup is None:
        return 0, 0.0
    exp, chunk, gram = setup
    starts = np.arange(0, count, chunk)
    bound = np.empty(count)
    for s in starts:
        G = gram(points[s:s + chunk])
        if s == 0:
            # one buffer for every chunk's squarings: fresh 2 MiB temporaries
            # per chunk cost more in page faults than the products themselves
            work = np.empty((2, *G.shape))
        bound[s:s + chunk] = _gram_power_norms(G, 2, work) ** 0.125
    lead = int(np.argmax(bound))  # the largest bound, or the first nan
    s = lead - lead % chunk
    top = np.linalg.eigvalsh(gram(points[s:s + chunk])[[lead - s]])[:, -1]
    sigmas = np.full(count, -np.inf)  # below every sigma until eigensolved
    sigmas[lead], best = np.sqrt(np.maximum(top[0], 0.0)), top[0]
    for s in starts[np.argsort(-np.maximum.reduceat(bound, starts), kind="stable")]:
        cut = best * (1.0 - _PRUNE_MARGIN)
        if not cut >= _PRUNE_FLOOR:
            cut = -np.inf
        b = bound[s:s + chunk]
        live = np.flatnonzero(~(b * (1.0 + _PRUNE_MARGIN) < cut))
        live = live[s + live != lead]
        if not live.size:
            continue
        G = gram(points[s:s + chunk])[live]
        b = _gram_power_norms(G, 3, work) ** 0.0625
        keep = ~(b * (1.0 + _PRUNE_MARGIN) < cut)
        if keep.any():
            top = np.linalg.eigvalsh(G[keep])[:, -1]
            sigmas[s + live[keep]] = np.sqrt(np.maximum(top, 0.0))
            best = np.fmax(best, np.fmax.reduce(top))  # nan never sets the cut
    i = int(np.argmax(sigmas))  # ties go to the first point
    return i, float(np.ldexp(sigmas[i], exp))
