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

from .core import RankOneDecomposition, Tensor3, TensorD, flatten, named_factors
from .grids import (
    ProductPointSet,
    UnitPointSet,
    build_hemisphere_grid,
    resolution_for_error,
)
from .kernels import _gram_power_norms, nuclear_norm, top_sigma
from .spectral import (
    NormEstimate,
    _check_point_set,
    _check_target,
    _order3_problem,
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


_MAX_ITERS = 200000  # total splitting iterations across all rounds
_PRIMAL_TOL = 1e-9  # floor of the splitting residual tolerance
_MAX_OUTER = 200  # rounds of constraint generation
_BURST_ITERS = 1500  # splitting iterations between constraint scans
_DISCOVERY_ITERS = 300  # burst length while many points are added; gap check stride
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
    stop: str  # "gap", "iteration budget", "round budget" or "zero tensor"
    gap_tol: float  # the relative gap the solver was asked to reach


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
    eigensolve.  So do those whose Gram matrix G = A'A on the smaller side
    has ||G^4||_F^2 = sum_i s_i^16 <= 1, which bounds every s_i by 1; an
    overflowing G^4 gives inf or nan and the matrix is not skipped.  For the
    rest, G = V diag(s^2) V' gives the projection U min(s, 1) V' as
    A - A V diag(max(0, 1 - 1/s)) V'.  A skipped matrix comes back exactly
    as the eigensolve would return it, since its shrink factors are all 0.
    """
    out = mats.copy()
    fro = np.linalg.norm(mats, axis=(1, 2))
    need = np.flatnonzero(fro > 1.0)
    if need.size:
        wide = mats.shape[1] < mats.shape[2]
        A = mats[need].transpose(0, 2, 1) if wide else mats[need]
        G = A.transpose(0, 2, 1) @ A
        outside = ~(_gram_power_norms(G) <= 1.0)
        A, G, need = A[outside], G[outside], need[outside]
        if need.size:
            w, V = np.linalg.eigh(G)
            shrink = 1.0 - 1.0 / np.maximum(np.sqrt(np.maximum(w, 0.0)), 1.0)
            P = A - ((A @ V) * shrink[:, None, :]) @ V.transpose(0, 2, 1)
            out[need] = P.transpose(0, 2, 1) if wide else P
    return out


def _admm_fixed_set(Tn, X, W, U, rho, n_iters, tol, lam_sum, z_sum):
    """Operator splitting burst on a fixed constraint set; warm-startable.

    Splits the program into the coupled least-squares update for Z (closed
    form through the Cholesky factor of the point Gram matrix) and per-point
    projections onto the spectral unit ball.  The dual matrices come from the
    exact optimality condition of the final Z step, so the stationarity
    identity T = sum_x x (outer) Lambda_x holds to round-off by construction.
    Each iterate's Lambda and Z are added to the running sums lam_sum and
    z_sum in place, so consecutive calls on one burst keep one ergodic
    average.  The last value returned says whether the residuals met tol.
    """
    ell, mn = Tn.shape[0], Tn.shape[1] * Tn.shape[2]
    gram_cho = scipy.linalg.cho_factor(X.T @ X)
    alpha = _OVER_RELAXATION

    def z_step():
        # Gram Z = Tn/rho + X'(W - U) makes X' Lambda = Tn exact
        rhs = Tn / rho + np.einsum("pi,pjk->ijk", X, W - U)
        Z = scipy.linalg.cho_solve(gram_cho, rhs.reshape(ell, mn)).reshape(Tn.shape)
        AZ = np.einsum("pi,ijk->pjk", X, Z)
        return Z, AZ, rho * (AZ - W + U)

    # every iterate's Lambda satisfies X' Lambda = Tn exactly, so ergodic
    # averages are valid dual certificates too and settle much faster
    settled = False
    for it in range(1, n_iters + 1):
        Z, AZ, lam = z_step()
        lam_sum += lam
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
                settled = True
                break
            # residual balancing keeps the two error terms comparable
            if r_norm > _ADAPT_RATIO * s_norm:
                rho *= _ADAPT_FACTOR
                U /= _ADAPT_FACTOR
            elif s_norm > _ADAPT_RATIO * r_norm:
                rho /= _ADAPT_FACTOR
                U *= _ADAPT_FACTOR
    Z, _, lam = z_step()
    return Z, W, U, lam, lam_sum, z_sum, rho, it, settled


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
        return (Tensor3(np.zeros((ell, m, n))), 0.0, np.zeros((N, m, n)),
                {"iterations": 0, "outer_rounds": 0, "working_set_size": 0,
                 "converged": True, "stationarity_residual": 0.0,
                 "dual_value": 0.0, "gap": 0.0, "stop": "zero tensor"})
    Tn = T.slices / tnorm

    active = _spanning_seed(X)
    rho = 1.0
    W = np.zeros((len(active), m, n))
    U = np.zeros_like(W)
    total_iters = 0
    gap = np.inf
    converged = False
    # the nuclear norm of the stationarity defect is bounded through its
    # flattening, giving a rigorous correction to the dual upper bound
    defect_factor = float(np.sqrt(min(ell * m, n)))

    def rescaled(Zc, viol):
        # dividing by 1 + the worst grid violation makes Zc feasible, so the
        # rescaled objective is a valid lower bound
        mv = max(float(viol.max()), 0.0)
        return float(np.tensordot(Tn, Zc, axes=3)) / (1.0 + mv), Zc, mv

    def dual_bound(lam):
        # any Lambda with T = sum_x x (outer) Lambda_x upper-bounds the
        # optimum by sum_x ||Lambda_x||_*; the identity holds to round-off
        # and the tiny defect is absorbed through its flattening
        stat = float(np.linalg.norm(Tn - np.einsum("pi,pjk->ijk", Xa, lam)))
        total = float(np.linalg.svd(lam, compute_uv=False).sum())
        return total + defect_factor * stat, stat, lam

    discovering = True
    stop = "round budget"
    for rounds in range(1, _MAX_OUTER + 1):
        burst = min(_DISCOVERY_ITERS if discovering else _BURST_ITERS,
                    _MAX_ITERS - total_iters)
        tol = max(_PRIMAL_TOL, 0.02 * gap) if np.isfinite(gap) else 1e-4
        Xa = X[active]
        # the burst runs in segments with one running ergodic average, and
        # the gap is checked after each; the splitting state carries over,
        # so the iterates are those of one uninterrupted burst
        lam_sum, z_sum, done, settled = np.zeros_like(W), np.zeros_like(Tn), 0, False
        while not (converged or settled or done == burst):
            Z_last, W, U, lam_last, lam_sum, z_sum, rho, it, settled = _admm_fixed_set(
                Tn, Xa, W, U, rho, min(_DISCOVERY_ITERS, burst - done), tol,
                lam_sum, z_sum)
            done += it
            Z_avg = z_sum / done
            # both the last iterate and the ergodic average yield valid
            # bounds; keep whichever side of the sandwich each does better
            # on; every constraint is re-verified on the contracted slices
            viol_last = top_sigma(Z_last, X) - 1.0
            p_hat, Z, max_viol = max(rescaled(Z_last, viol_last),
                                     rescaled(Z_avg, top_sigma(Z_avg, X) - 1.0),
                                     key=lambda c: c[0])
            dual_val, stat, lam_ws = min(dual_bound(lam_last),
                                         dual_bound(lam_sum / done),
                                         key=lambda c: c[0])
            gap = max(dual_val - p_hat, 0.0) / max(p_hat, 1e-300)
            converged = gap <= cfg.gap_tol
        total_iters += done
        if converged:
            stop = "gap"
            break
        if total_iters >= _MAX_ITERS:
            stop = "iteration budget"
            break
        order = np.argsort(viol_last)[::-1]
        new = [int(p) for p in order[: 4 * _BATCH_POINTS]
               if viol_last[p] > 1e-9 and int(p) not in active][:_BATCH_POINTS]
        discovering = len(new) >= _BATCH_POINTS // 2
        # warm start: the working set only grows, and every point keeps its
        # splitting state
        active.extend(new)
        W = np.concatenate([W, np.zeros((len(new), m, n))])
        U = np.concatenate([U, np.zeros((len(new), m, n))])

    # exact feasibility by rescaling; the reported value is the rescaled
    # objective, so [theta * value, dual_value] brackets the tensor norm
    Z = Z / (1.0 + max_viol)
    value = p_hat * tnorm

    # the working set only grows, so lam_ws belongs to its leading points
    lam = np.zeros((N, m, n))
    lam[active[:len(lam_ws)]] = lam_ws * tnorm

    info = {
        "iterations": total_iters,
        "outer_rounds": rounds,
        "working_set_size": len(active),
        "converged": converged,
        "stationarity_residual": stat,
        "dual_value": dual_val * tnorm,
        "gap": gap,
        "stop": stop,
    }
    return Tensor3(Z), value, lam, info


def extract_nuclear_decomposition(
    lambdas: np.ndarray,
    points: UnitPointSet,
    stationarity_residual: float = 0.0,
    max_stationarity: float = 1e-6,
) -> RankOneDecomposition:
    """Rank-one terms from the SVDs of the per-constraint dual matrices.

    Each dual matrix Lambda_x = sum_j s_j u_j v_j' contributes terms
    (s_j, x, u_j, v_j); since T = sum_x x (outer) Lambda_x up to the
    stationarity residual, the assembled terms reconstruct T to the same
    accuracy.  Terms come in point order, then in singular-value order, and
    those below 1e-8 of the total weight are dropped.
    """
    if stationarity_residual > max_stationarity:
        raise SolverError(
            f"stationarity residual {stationarity_residual:.2e} exceeds "
            f"{max_stationarity:.2e}; dual matrices are unreliable"
        )
    norms = np.linalg.norm(lambdas, axis=(1, 2))
    active = np.flatnonzero(norms > 1e-14 * max(norms.max(), 1e-300))
    u, s, vt = np.linalg.svd(lambdas[active], full_matrices=False)
    return RankOneDecomposition(tuple(
        (float(s[a, j]), points.points[active[a]], u[a, :, j], vt[a, j])
        for a, j in zip(*np.nonzero(s >= 1e-8 * s.sum()))
    ))


def nuclear_norm_fptas(
    T: Tensor3,
    epsilon: float,
    mode: str = "relative",
    point_set: UnitPointSet | None = None,
    cfg: SolverConfig | None = None,
) -> tuple[NormEstimate, NuclearCertificate]:
    """Certified nuclear norm approximation via the grid-relaxed program."""
    _check_target(epsilon, mode)
    t0 = time.perf_counter()
    ell, m, n = T.dims
    scale = nuclear_upper_bound_slices(T) if mode == "absolute" else 1.0
    if cfg is None:
        # the covering relaxation already loosens the certificate by roughly
        # epsilon, so the solver gap only has to be small relative to that
        eps_rel = epsilon if mode == "relative" else epsilon / max(scale, 1e-300)
        cfg = SolverConfig(gap_tol=min(max(eps_rel / 10.0, 1e-7), 1e-3))

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
            stop="gap", gap_tol=cfg.gap_tol,
        )
        return est, cert

    if point_set is None:
        q = resolution_for_error(ell, epsilon, scale)
        point_set = build_hemisphere_grid(ell, q)
    _check_point_set(point_set, ell)

    Z, primal, lam, info = solve_relaxation(T, point_set, cfg)
    theta = point_set.theta
    if theta is not None and theta > 0:
        # primal = <T, Z> at a feasible Z sits below the program optimum and
        # the dual value above it, so theta * primal <= ||T||_* <= dual value
        # regardless of how far the splitting iterations were run
        lower, certified = theta * primal, True
    else:
        # random point sets and grids too coarse for a positive theta carry
        # no covering certificate for the lower bound, but the dual value
        # still upper-bounds the nuclear norm
        lower, certified = nuclear_lower_bound_flatten(T), False
    est = NormEstimate(
        value=primal, lower=lower, upper=info["dual_value"], mode=mode,
        epsilon=epsilon, certified=certified, grid_points_used=len(point_set),
        q=point_set.q, theta=theta, seconds=time.perf_counter() - t0,
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
        stop=info["stop"],
        gap_tol=cfg.gap_tol,
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

    The relaxation is solved on the flattening from ``_order3_problem``
    with flattened product points, so each decomposition term carries the
    Kronecker product of its leading-mode factors as its first vector.
    """
    T3, _, point_set = _order3_problem(T, epsilon, mode, point_set,
                                       nuclear_upper_bound_slices)
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
        "stop": cert.stop,
        "gap_tol": cert.gap_tol,
        "decomposition": [
            {"lambda": t[0], **named_factors(t[1:])}
            for t in cert.dual_decomposition.terms
        ],
    }
