"""Benchmark sweeps and quick self-checks backing the CLI."""

from __future__ import annotations

import time

import numpy as np

from .core import (
    assemble,
    contract_first,
    evaluate,
    flatten,
    gen_gaussian,
    gen_orthogonal_test,
)
from .grids import build_hemisphere_grid, covering_coefficient, hemisphere_point_count
from .nuclear import nuclear_norm_fptas
from .spectral import spectral_norm_fptas

__all__ = ["time_sweep", "error_sweep", "run_self_checks"]


def _run_once(norm: str, T, eps: float):
    if norm == "spectral":
        return spectral_norm_fptas(T, eps, "relative")
    est, _ = nuclear_norm_fptas(T, eps, "relative")
    return est


def time_sweep(norm: str, ells, n: int, epsilons, seed: int) -> list[dict]:
    """CPU seconds per (ell, epsilon) cell on Gaussian ell x n x n tensors."""
    rows = []
    for ell in ells:
        T = gen_gaussian(ell, n, n, seed + ell)
        row: dict = {"ell": ell, "n": n}
        for eps in epsilons:
            t0 = time.perf_counter()
            _run_once(norm, T, eps)
            row[f"eps={eps:g}"] = round(time.perf_counter() - t0, 4)
        rows.append(row)
    return rows


def error_sweep(norm: str, ells, n: int, epsilons, seed: int) -> list[dict]:
    """Exact relative errors on known-norm orthogonally decomposable tensors."""
    rows = []
    for ell in ells:
        r = min(ell, n)
        T, dec = gen_orthogonal_test(ell, n, n, r, seed + ell)
        weights = [t[0] for t in dec.terms]
        truth = max(weights) if norm == "spectral" else sum(weights)
        row: dict = {"ell": ell, "n": n, "true_value": truth}
        for eps in epsilons:
            est = _run_once(norm, T, eps)
            row[f"eps={eps:g}"] = abs(est.value - truth) / truth
        rows.append(row)
    return rows


def run_self_checks(seed: int) -> list[tuple[str, bool, str]]:
    """Fast invariant checks; returns (name, passed, detail) triples."""
    rng = np.random.default_rng(seed)
    out = []

    T = gen_gaussian(3, 5, 6, seed)
    x = rng.standard_normal(3)
    y = rng.standard_normal(5)
    z = rng.standard_normal(6)
    lhs = evaluate(T, x, y, z)
    rhs = float(y @ (contract_first(T, x) @ z))
    err = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    out.append(("trilinear/contraction consistency", err < 1e-12, f"rel err {err:.1e}"))

    err = abs(np.linalg.norm(flatten(T)) - T.frobenius_norm())
    out.append(("flattening preserves Frobenius norm", err < 1e-12, f"abs err {err:.1e}"))

    Torth, dec = gen_orthogonal_test(3, 6, 6, 3, seed)
    resid = (Torth - assemble(dec, Torth.dims)).frobenius_norm()
    out.append(("generator round-trip", resid < 1e-10, f"residual {resid:.1e}"))

    for ell, q in [(3, 5), (4, 8)]:
        grid = build_hemisphere_grid(ell, q)
        ok = len(grid) == hemisphere_point_count(ell, q)
        out.append((f"grid count H({ell},{q})", ok, f"{len(grid)} points"))
        xs = rng.standard_normal((200, ell))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        cover = np.abs(xs @ grid.points.T).max(axis=1).min()
        theta = covering_coefficient(q, ell)
        out.append((f"covering H({ell},{q})", cover >= theta - 1e-12,
                    f"min cover {cover:.6f} vs theta {theta:.6f}"))

    weights = [t[0] for t in dec.terms]
    est = spectral_norm_fptas(Torth, 5e-2, "relative")
    err = abs(est.value - max(weights)) / max(weights)
    out.append(("spectral sandwich on known-norm tensor",
                est.lower <= max(weights) * (1 + 1e-10)
                and est.upper >= max(weights) * (1 - 1e-10)
                and err <= 5e-2, f"rel err {err:.1e}"))

    est, cert = nuclear_norm_fptas(Torth, 1e-1, "relative")
    truth = sum(weights)
    ok = (est.lower <= truth * (1 + 1e-6)
          and est.upper >= truth * (1 - 1e-6))
    out.append(("nuclear sandwich on known-norm tensor", ok,
                f"[{est.lower:.4f}, {est.upper:.4f}] vs {truth:.4f}"))

    resid = (Torth - assemble(cert.dual_decomposition, Torth.dims)).frobenius_norm()
    out.append(("nuclear decomposition reassembles the tensor",
                resid <= 1e-6 * Torth.frobenius_norm(), f"residual {resid:.1e}"))
    wsum = cert.dual_decomposition.weight_sum()
    out.append(("nuclear decomposition weight at least the lower bound",
                wsum >= est.lower, f"{wsum:.4f} vs {est.lower:.4f}"))

    return out
