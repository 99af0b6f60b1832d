"""Spectral-ball-constrained convex program for the tensor nuclear norm.

The dual form of the nuclear norm maximizes <T, Z> subject to
||Z(x, ., .)||_sigma <= 1 for every unit x.  Restricting x to a hemisphere
grid with covering coefficient theta relaxes the program; its optimal value
sits in [||T||_*, ||T||_*/theta], so theta times the optimum is a certified
lower bound.  The relaxation is solved by operator splitting: one auxiliary
matrix per constraint point, projected onto the spectral unit ball, coupled
to the tensor variable by a closed-form least-squares update.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import RankOneDecomposition, Tensor3, TensorD, flatten
from .grids import (
    ProductPointSet,
    UnitPointSet,
    build_hemisphere_grid,
    resolution_for_error,
)
from .kernels import nuclear_norm, top_sigma
from .spectral import (
    NormEstimate,
    _check_product_set,
    _order3_reduction,
    _product_grid_for,
)

__all__ = [
    "SolverConfig",
    "SolverError",
    "NuclearCertificate",
    "nuclear_upper_bound_slices",
    "nuclear_lower_bound_flatten",
    "solve_relaxation",
    "nuclear_norm_fptas",
    "nuclear_norm_fptas_d",
    "extract_nuclear_decomposition",
    "certificate_to_dict",
]


class SolverError(RuntimeError):
    """Raised when the constrained program is unbounded or fails to converge."""


@dataclass(frozen=True)
class SolverConfig:
    gap_tol: float = 1e-5  # relative duality gap at which to stop
    stationarity_tol: float = 1e-6
    max_iters: int = 200000  # total splitting iterations across all rounds


_PRIMAL_TOL = 1e-9  # floor of the splitting residual tolerance
_MAX_OUTER = 200  # rounds of constraint generation
_BURST_ITERS = 1500  # splitting iterations between constraint scans
_BATCH_POINTS = 40  # violated constraints added per round
_OVER_RELAXATION = 1.7
_ADAPT_FACTOR = 2.0  # penalty step of residual balancing
_ADAPT_RATIO = 10.0  # residual imbalance that triggers a penalty step
_CHECK_EVERY = 20  # iterations between residual checks


@dataclass(frozen=True)
class NuclearCertificate:
    """Solver output backing a nuclear norm estimate."""

    primal_value: float
    dual_value: float
    theta: float | None
    dual_decomposition: RankOneDecomposition
    gap: float
    stationarity_residual: float
    solver_iterations: int
    converged: bool


def nuclear_upper_bound_slices(T: Tensor3) -> float:
    """sum_i ||T_i||_*, a valid upper bound on the tensor nuclear norm."""
    svals = np.linalg.svd(T.slices, compute_uv=False)
    return float(svals.sum())


def nuclear_lower_bound_flatten(T: Tensor3) -> float:
    """||Mat(T)||_*, a valid lower bound on the tensor nuclear norm."""
    return nuclear_norm(flatten(T))


def _batched_project_spectral_ball(mats: np.ndarray) -> np.ndarray:
    """Project a stack of matrices onto the spectral unit ball.

    Matrices with Frobenius norm <= 1 are already feasible and skip the
    eigensolve.  For the others, A'A = V diag(s^2) V' on the smaller side
    gives the projection U min(s, 1) V' as A - A V diag(max(0, 1 - 1/s)) V'.
    """
    out = mats.copy()
    fro = np.linalg.norm(mats, axis=(1, 2))
    need = np.flatnonzero(fro > 1.0)
    if need.size:
        wide = mats.shape[1] < mats.shape[2]
        A = mats[need].transpose(0, 2, 1) if wide else mats[need]
        w, V = np.linalg.eigh(A.transpose(0, 2, 1) @ A)
        shrink = 1.0 - 1.0 / np.maximum(np.sqrt(np.maximum(w, 0.0)), 1.0)
        P = A - ((A @ V) * shrink[:, None, :]) @ V.transpose(0, 2, 1)
        out[need] = P.transpose(0, 2, 1) if wide else P
    return out


def _admm_fixed_set(Tn, X, W, U, rho, n_iters, tol):
    """Operator splitting burst on a fixed constraint set; warm-startable.

    Splits the program into the coupled least-squares update for Z (closed
    form through the Cholesky factor of the point Gram matrix) and per-point
    projections onto the spectral unit ball.  The dual matrices come from the
    exact optimality condition of the final Z step, so the stationarity
    identity T = sum_x x (outer) Lambda_x holds to round-off by construction.
    """
    ell, mn = Tn.shape[0], Tn.shape[1] * Tn.shape[2]
    gram_cho = scipy.linalg.cho_factor(X.T @ X)
    alpha = _OVER_RELAXATION
    r_norm = s_norm = np.inf
    # every iterate's Lambda satisfies X' Lambda = Tn exactly, so ergodic
    # averages are valid dual certificates too and settle much faster
    lam_sum = np.zeros_like(W)
    z_sum = np.zeros_like(Tn)
    it = 0
    for it in range(1, n_iters + 1):
        rhs = Tn / rho + np.einsum("pi,pjk->ijk", X, W - U)
        Z = scipy.linalg.cho_solve(gram_cho, rhs.reshape(ell, mn)).reshape(Tn.shape)
        AZ = np.einsum("pi,ijk->pjk", X, Z)
        lam_sum += rho * (AZ - W + U)
        z_sum += Z
        AZ_hat = alpha * AZ + (1 - alpha) * W
        W_prev = W
        W = _batched_project_spectral_ball(AZ_hat + U)
        U = U + AZ_hat - W

        if it % _CHECK_EVERY == 0:
            r_norm = float(np.linalg.norm(AZ - W))
            s_norm = rho * float(
                np.linalg.norm(np.einsum("pi,pjk->ijk", X, W - W_prev))
            )
            zscale = 1.0 + float(np.linalg.norm(Z))
            if r_norm <= tol * zscale and s_norm <= tol * zscale:
                break
            # residual balancing keeps the two error terms comparable
            if r_norm > _ADAPT_RATIO * s_norm:
                rho *= _ADAPT_FACTOR
                U /= _ADAPT_FACTOR
            elif s_norm > _ADAPT_RATIO * r_norm:
                rho /= _ADAPT_FACTOR
                U *= _ADAPT_FACTOR
    # closing Z step: Gram Z = Tn/rho + X'(W - U) makes X' Lambda = Tn exact
    rhs = Tn / rho + np.einsum("pi,pjk->ijk", X, W - U)
    Z = scipy.linalg.cho_solve(gram_cho, rhs.reshape(ell, mn)).reshape(Tn.shape)
    AZ = np.einsum("pi,ijk->pjk", X, Z)
    lam = rho * (AZ - W + U)
    return Z, W, U, lam, lam_sum / it, z_sum / it, rho, it, r_norm, s_norm


def _spanning_seed(X: np.ndarray) -> list[int]:
    """Pick a small starting set of points that spans R^ell.

    Starts from the best-aligned point per coordinate axis and greedily adds
    the point with the largest component orthogonal to the current span until
    the set has full rank.
    """
    ell = X.shape[1]
    seed = sorted(set(int(np.argmax(np.abs(X[:, i]))) for i in range(ell)))
    basis = np.linalg.qr(X[seed].T, mode="reduced")[0]
    while basis.shape[1] < ell:
        resid = X - (X @ basis) @ basis.T
        norms = np.linalg.norm(resid, axis=1)
        best = int(np.argmax(norms))
        if norms[best] < 1e-10 or best in seed:
            break
        seed.append(best)
        basis = np.linalg.qr(X[seed].T, mode="reduced")[0]
    return seed


def solve_relaxation(
    T: Tensor3,
    points: UnitPointSet,
    cfg: SolverConfig | None = None,
) -> tuple[Tensor3, float, np.ndarray, dict]:
    """Maximize <T, Z> subject to ||Z(x,.,.)||_sigma <= 1 for each grid x.

    Returns (Z*, value, dual matrices Lambda_x, info).  Only a small working
    set of constraints is ever active at the optimum, so the splitting solver
    runs on a growing working set: iterate, scan the whole grid for violated
    constraints in one batched top-sigma pass, add the worst offenders,
    repeat until the duality gap closes.  The returned Z is rescaled so every grid
    constraint holds exactly, making value = <T, Z> a guaranteed lower bound
    on the program optimum; the dual matrices satisfy T = sum_x x (outer)
    Lambda_x to round-off, so info["dual_value"] = sum_x ||Lambda_x||_* is a
    guaranteed upper bound on both the optimum and the nuclear norm.  The
    relative difference of the two is reported as info["gap"].
    """
    cfg = cfg or SolverConfig()
    ell, m, n = T.dims
    X = points.points  # (N, ell)
    N = X.shape[0]
    if N == 0:
        raise SolverError("empty point set")

    eigs = np.linalg.eigvalsh(X.T @ X)
    if eigs[0] < 1e-10:
        raise SolverError(
            f"constraint points do not span R^{ell} "
            f"(smallest Gram eigenvalue {eigs[0]:.2e}); program is unbounded"
        )

    tnorm = float(np.linalg.norm(T.slices))
    if tnorm == 0.0:
        zeros = np.zeros((N, m, n))
        return (Tensor3(np.zeros((ell, m, n))), 0.0, zeros,
                {"iterations": 0, "outer_rounds": 0, "working_set_size": 0,
                 "converged": True, "primal_residual": 0.0,
                 "dual_residual": 0.0, "stationarity_residual": 0.0,
                 "pre_rescale_violation": 0.0,
                 "dual_value": 0.0, "gap": 0.0, "rho": 0.0})
    Tn = T.slices / tnorm

    active = _spanning_seed(X)
    seed = set(active)
    in_set = set(active)
    rho = 1.0
    W = np.zeros((len(active), m, n))
    U = np.zeros_like(W)
    total_iters = 0
    r_norm = s_norm = np.inf
    gap = np.inf
    max_viol = 0.0
    p_hat = dual_val = 0.0
    stat = np.inf
    converged = False
    rounds = 0
    # the nuclear norm of the stationarity defect is bounded through its
    # flattening, giving a rigorous correction to the dual upper bound
    defect_factor = float(np.sqrt(min(ell * m, n)))

    def dual_bound(lam_ws, Xa):
        # any Lambda with T = sum_x x (outer) Lambda_x upper-bounds the
        # optimum by sum_x ||Lambda_x||_*; the identity holds to round-off
        # and the tiny defect is absorbed through its flattening
        stat = float(np.linalg.norm(
            Tn - np.einsum("pi,pjk->ijk", Xa, lam_ws)
        ))
        total = float(np.linalg.svd(lam_ws, compute_uv=False).sum())
        return total + defect_factor * stat, stat

    Z = lam_ws = None
    discovering = True
    for rounds in range(1, _MAX_OUTER + 1):
        burst = min(300 if discovering else _BURST_ITERS,
                    cfg.max_iters - total_iters)
        if burst <= 0:
            break
        tol = max(_PRIMAL_TOL, 0.02 * gap) if np.isfinite(gap) else 1e-4
        Z_last, W, U, lam_last, lam_avg, Z_avg, rho, it, r_norm, s_norm = \
            _admm_fixed_set(Tn, X[active], W, U, rho, burst, tol)
        total_iters += it
        Xa = X[active]
        # both the last iterate and the ergodic average yield valid bounds;
        # keep whichever side of the sandwich each does better on; every
        # constraint is re-verified on the contracted slices by top_sigma
        viol_last = top_sigma(Z_last, X) - 1.0
        viol_avg = top_sigma(Z_avg, X) - 1.0
        cands = []
        for Zc, viol_c in ((Z_last, viol_last), (Z_avg, viol_avg)):
            mv = max(float(viol_c.max()), 0.0)
            # rescaled objective: feasible, hence a valid lower bound
            cands.append((float(np.tensordot(Tn, Zc, axes=3)) / (1.0 + mv),
                          Zc, mv, viol_c))
        p_hat, Z, max_viol, viol = max(cands, key=lambda c: c[0])
        d_last, stat_last = dual_bound(lam_last, Xa)
        d_avg, stat_avg = dual_bound(lam_avg, Xa)
        if d_last <= d_avg:
            dual_val, stat, lam_ws = d_last, stat_last, lam_last
        else:
            dual_val, stat, lam_ws = d_avg, stat_avg, lam_avg
        lam_points = list(active)
        gap = max(dual_val - p_hat, 0.0) / max(p_hat, 1e-300)
        if gap <= cfg.gap_tol:
            converged = True
            break
        order = np.argsort(viol_last)[::-1]
        new = [int(p) for p in order[: 4 * _BATCH_POINTS]
               if viol_last[p] > 1e-9 and int(p) not in in_set][:_BATCH_POINTS]
        discovering = len(new) >= _BATCH_POINTS // 2
        # prune exploratory points that ended up far from the active face
        lam_norms = np.linalg.norm(lam_ws, axis=(1, 2))
        lam_scale = max(float(lam_norms.max()), 1e-300)
        keep = [
            j for j, p in enumerate(active)
            if p in seed or viol_last[p] > -0.1
            or lam_norms[j] > 1e-12 * lam_scale
        ]
        if len(keep) < len(active):
            active = [active[j] for j in keep]
            in_set = seed | set(active)
            W, U = W[keep], U[keep]
        if not new:
            if total_iters >= cfg.max_iters:
                break
            continue
        active.extend(new)
        in_set.update(new)
        # warm start: retained points keep their splitting state
        W = np.concatenate([W, np.zeros((len(new), m, n))])
        U = np.concatenate([U, np.zeros((len(new), m, n))])

    if Z is None:
        raise SolverError("iteration budget too small for a single round")
    # exact feasibility by rescaling; the reported value is the rescaled
    # objective, so [theta * value, dual_value] brackets the tensor norm
    Z = Z / (1.0 + max_viol)
    value = p_hat * tnorm

    lam = np.zeros((N, m, n))
    lam[lam_points] = lam_ws * tnorm

    info = {
        "iterations": total_iters,
        "outer_rounds": rounds,
        "working_set_size": len(active),
        "converged": converged,
        "primal_residual": r_norm,
        "dual_residual": s_norm,
        "stationarity_residual": stat,
        "pre_rescale_violation": max_viol,
        "dual_value": dual_val * tnorm,
        "gap": gap,
        "rho": rho,
    }
    return Tensor3(Z), value, lam, info


def extract_nuclear_decomposition(
    lambdas: np.ndarray,
    points: UnitPointSet,
    stationarity_residual: float = 0.0,
    max_stationarity: float = 1e-6,
    drop_tol: float | None = None,
) -> RankOneDecomposition:
    """Rank-one terms from the SVDs of the per-constraint dual matrices.

    Each dual matrix Lambda_x = sum_j s_j u_j v_j' contributes terms
    (s_j, x, u_j, v_j); since T = sum_x x (outer) Lambda_x up to the
    stationarity residual, the assembled terms reconstruct T to the same
    accuracy.
    """
    if stationarity_residual > max_stationarity:
        raise SolverError(
            f"stationarity residual {stationarity_residual:.2e} exceeds "
            f"{max_stationarity:.2e}; dual matrices are unreliable"
        )
    norms = np.linalg.norm(lambdas, axis=(1, 2))
    active = np.flatnonzero(norms > 1e-14 * max(norms.max(), 1e-300))
    total = 0.0
    svds = []
    for p in active:
        u, s, vt = np.linalg.svd(lambdas[p], full_matrices=False)
        svds.append((p, u, s, vt))
        total += s.sum()
    if drop_tol is None:
        drop_tol = 1e-8 * total
    terms = []
    for p, u, s, vt in svds:
        x = points.points[p]
        for j in range(s.size):
            if s[j] >= drop_tol:
                terms.append((float(s[j]), x, u[:, j], vt[j]))
    return RankOneDecomposition(tuple(terms))


def _estimate_from_solution(
    value: float, dual_value: float, theta: float | None, mode: str,
    epsilon: float, n_points: int, q: int | None, lower_fallback: float,
    seconds: float,
) -> NormEstimate:
    if theta is not None and theta > 0:
        # value = <T, Z> at a feasible Z sits below the program optimum and
        # the dual value above it, so theta * value <= ||T||_* <= dual value
        # regardless of how far the splitting iterations were run
        lower, upper, certified = theta * value, dual_value, True
    else:
        # random point sets and grids too coarse for a positive theta carry
        # no covering certificate for the lower bound, but the dual value
        # still upper-bounds the nuclear norm
        lower, upper, certified = lower_fallback, dual_value, False
    return NormEstimate(
        value=value, lower=lower, upper=upper, mode=mode, epsilon=epsilon,
        certified=certified, grid_points_used=n_points, q=q, theta=theta,
        witness=None, seconds=seconds,
    )


def nuclear_norm_fptas(
    T: Tensor3,
    epsilon: float,
    mode: str = "relative",
    point_set: UnitPointSet | None = None,
    cfg: SolverConfig | None = None,
) -> tuple[NormEstimate, NuclearCertificate]:
    """Certified nuclear norm approximation via the grid-relaxed program."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if mode not in ("absolute", "relative"):
        raise ValueError(f"unknown mode {mode!r}")
    t0 = time.perf_counter()
    ell, m, n = T.dims

    if ell == 1:
        u, s, vt = np.linalg.svd(T.slices[0], full_matrices=False)
        value = float(s.sum())
        keep = s > 1e-14 * max(value, 1e-300)
        terms = tuple(
            (float(s[j]), np.ones(1), u[:, j], vt[j])
            for j in range(s.size) if keep[j]
        )
        est = NormEstimate(
            value=value, lower=value, upper=value, mode=mode, epsilon=epsilon,
            certified=True, grid_points_used=0, seconds=time.perf_counter() - t0,
        )
        cert = NuclearCertificate(
            primal_value=value, dual_value=value, theta=1.0,
            dual_decomposition=RankOneDecomposition(terms), gap=0.0,
            stationarity_residual=0.0, solver_iterations=0, converged=True,
        )
        return est, cert

    scale = nuclear_upper_bound_slices(T) if mode == "absolute" else 1.0
    if point_set is None:
        q = resolution_for_error(ell, epsilon, scale)
        point_set = build_hemisphere_grid(ell, q)
    if cfg is None:
        # the covering relaxation already loosens the certificate by roughly
        # epsilon, so the solver gap only has to be small relative to that
        eps_rel = epsilon if mode == "relative" else epsilon / max(scale, 1e-300)
        cfg = SolverConfig(gap_tol=min(max(eps_rel / 10.0, 1e-7), 1e-3))

    Z, primal, lam, info = solve_relaxation(T, point_set, cfg)
    theta = point_set.theta
    est = _estimate_from_solution(
        primal, info["dual_value"], theta, mode, epsilon, len(point_set),
        point_set.q, lower_fallback=nuclear_lower_bound_flatten(T),
        seconds=time.perf_counter() - t0,
    )
    dec = extract_nuclear_decomposition(
        lam, point_set,
        stationarity_residual=info["stationarity_residual"],
        max_stationarity=cfg.stationarity_tol,
    )
    cert = NuclearCertificate(
        primal_value=primal,
        dual_value=info["dual_value"],
        theta=theta,
        dual_decomposition=dec,
        gap=info["gap"],
        stationarity_residual=info["stationarity_residual"],
        solver_iterations=info["iterations"],
        converged=info["converged"],
    )
    return est, cert


def nuclear_norm_fptas_d(
    T: TensorD,
    epsilon: float,
    mode: str = "relative",
    point_set: ProductPointSet | None = None,
    cfg: SolverConfig | None = None,
) -> tuple[NormEstimate, NuclearCertificate]:
    """Higher-order variant with constraints indexed by product grid tuples.

    The relaxation is solved on the flattening from ``_order3_reduction``
    with flattened product points, so each decomposition term carries the
    Kronecker product of its leading-mode factors as its first vector.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    T3, _, small_dims = _order3_reduction(T)
    if point_set is None:
        scale = nuclear_upper_bound_slices(T3) if mode == "absolute" else 1.0
        point_set = _product_grid_for(small_dims, epsilon, scale)
    else:
        _check_product_set(point_set, small_dims)
    return nuclear_norm_fptas(T3, epsilon, mode, point_set.flattened(), cfg)


def certificate_to_dict(cert: NuclearCertificate) -> dict:
    return {
        "primal_value": cert.primal_value,
        "dual_value": cert.dual_value,
        "theta": cert.theta,
        "gap": cert.gap,
        "stationarity_residual": cert.stationarity_residual,
        "solver_iterations": cert.solver_iterations,
        "converged": cert.converged,
        "decomposition": [
            {"lambda": t[0], **{k: v.tolist() for k, v in
                                zip(["x", "y", "z"], t[1:])}}
            for t in cert.dual_decomposition.terms
        ],
    }
