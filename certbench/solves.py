"""The two paths from a solve to its certified bracket.

``solve`` is the untraced path, the one a user takes: one public call per
solve.  ``solve_traced`` reaches the same bracket through the package's
layers one public call at a time (grid build, enumeration, relaxation,
decomposition extraction) and records a span around each call.  Both use
the same grids and solver settings, so they must give the same numbers;
the benchmark checks that they do.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from tensornorms import (
    SolverConfig,
    Tensor3,
    build_hemisphere_grid,
    extract_nuclear_decomposition,
    nuclear_norm_fptas,
    nuclear_norm_fptas_d,
    product_point_set,
    resolution_for_error,
    solve_relaxation,
    spectral_norm_fptas,
    spectral_norm_fptas_d,
)

from workloads import Solve


class Mismatch(Exception):
    """Two paths to one number disagree: a wrong answer, not a failed solve."""


def solver_config(eps: float) -> SolverConfig:
    """The nuclear solver settings of every benchmark solve.

    Passed explicitly on both paths, so that they run the same solver.  For
    the benchmark's ``eps`` values this equals the package's default.
    """
    return SolverConfig(gap_tol=min(eps / 10.0, 1e-3))


@dataclass(frozen=True)
class Result:
    lower: float
    upper: float
    certified: bool
    value: float
    theta: float | None
    witness: tuple | None = None  # spectral: one unit vector per mode
    terms: tuple | None = None  # nuclear: (weight, x, y, z) in the order-3 frame
    iterations: int | None = None  # nuclear: splitting iterations

    @property
    def gap(self) -> float:
        return (self.upper - self.lower) / self.lower


def solve(job: Solve) -> Result:
    """One public call, as a user makes it."""
    T = job.instance.tensor
    order3 = isinstance(T, Tensor3)
    if job.norm == "spectral":
        est = (spectral_norm_fptas if order3 else spectral_norm_fptas_d)(T, job.eps)
        return Result(est.lower, est.upper, est.certified, est.value, est.theta,
                      witness=est.witness)
    fptas = nuclear_norm_fptas if order3 else nuclear_norm_fptas_d
    est, cert = fptas(T, job.eps, cfg=solver_config(job.eps))
    return Result(est.lower, est.upper, est.certified, est.value, est.theta,
                  terms=cert.dual_decomposition.terms,
                  iterations=cert.solver_iterations)


class Tracer:
    """Spans (name, start, end, solve id) and per-layer counters, in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = {}

    @contextmanager
    def span(self, name: str, solve_id: int):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, t0, time.perf_counter(), solve_id))

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def seconds(self, name: str, solve_id: int | None = None) -> float:
        return sum(end - start for n, start, end, sid in self.spans
                   if n == name and (solve_id is None or sid == solve_id))


def _order3_view(T) -> Tensor3:
    """The order-3 tensor the order-d schemes solve on.

    The benchmark's order-4 instances already have their two largest modes
    last, so the leading modes flatten in place, with no permutation.
    """
    if isinstance(T, Tensor3):
        return T
    *small, m, n = T.dims
    if min(m, n) < max(small):
        raise ValueError(f"dims {T.dims} do not have their two largest modes last")
    return Tensor3(T.values.reshape(-1, m, n))


def _grid(T, eps: float):
    """The grid the public call builds: (point set for the call, flat points)."""
    if isinstance(T, Tensor3):
        grid = build_hemisphere_grid(T.dims[0], resolution_for_error(T.dims[0], eps))
        return grid, grid
    small = T.dims[:-2]
    eps_each = eps / len(small)
    product = product_point_set(
        [build_hemisphere_grid(d, resolution_for_error(d, eps_each)) for d in small])
    return product, product.flattened()


def solve_traced(job: Solve, tracer: Tracer, sid: int) -> Result:
    """The same bracket as ``solve``, one layer call at a time."""
    T, eps = job.instance.tensor, job.eps
    order3 = isinstance(T, Tensor3)
    with tracer.span("solve", sid):
        with tracer.span("grids.build", sid):
            point_set, flat = _grid(T, eps)
        tracer.count("grids.points", len(flat))
        T3 = _order3_view(T)
        if job.norm == "spectral":
            if not order3:
                with tracer.span("spectral.order_d", sid):
                    est = spectral_norm_fptas_d(T, eps, point_set=point_set)
            with tracer.span("spectral.enumerate", sid):
                est3 = spectral_norm_fptas(T3, eps, point_set=flat)
            tracer.count("spectral.points", len(flat))
            if order3:
                est = est3
            else:
                wrap = (tracer.seconds("spectral.order_d", sid)
                        - tracer.seconds("spectral.enumerate", sid))
                tracer.count("spectral.order_d_wrap_s", wrap)
                if (est3.lower, est3.upper) != (est.lower, est.upper):
                    raise Mismatch(
                        f"order-d bracket [{est.lower}, {est.upper}] differs from the "
                        f"flattened order-3 bracket [{est3.lower}, {est3.upper}]")
            return Result(est.lower, est.upper, est.certified, est.value, est.theta,
                          witness=est.witness)

        cfg = solver_config(eps)
        with tracer.span("nuclear.relax", sid):
            _, primal, lambdas, info = solve_relaxation(T3, flat, cfg)
        with tracer.span("nuclear.extract", sid):
            dec = extract_nuclear_decomposition(
                lambdas, flat, stationarity_residual=info["stationarity_residual"],
                max_stationarity=cfg.stationarity_tol)
        for name, value in (("nuclear.iterations", info["iterations"]),
                            ("nuclear.rounds", info["outer_rounds"]),
                            ("nuclear.working_set", info["working_set_size"]),
                            ("nuclear.grid_points", len(flat)),
                            ("nuclear.terms", len(dec))):
            tracer.count(name, value)
        theta = flat.theta
        return Result(theta * primal, info["dual_value"], theta is not None, primal,
                      theta, terms=dec.terms, iterations=info["iterations"])
