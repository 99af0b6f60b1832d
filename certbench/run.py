"""Certified-bracket benchmark for tensornorms.

    python3 certbench/run.py --workload spectral-wide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One process runs one workload: it builds
the seeded instances, warms up, then repeats whole rounds of the workload's
solve list until ``--seconds`` have passed, checks every answer apart from
the solver, and prints one JSON line with the metrics last.  ``--trace 0``
reports the end-to-end metrics of untraced rounds; ``--trace 1`` runs each
round untraced and traced, on the same inputs, and reports the per-layer
metrics.  A record of the run (environment, brackets, round times, spans)
is written to ``certbench/out/``.  See certbench/README.md.
"""

import os
import time

_T0 = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


_AGE0 = _process_age()
THREADS = 1  # BLAS threads, fixed so that runs compare across machines
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "tensornorms", "__init__.py")):
        sys.exit(f"certbench: no tensornorms sources under {SRC}; "
                 "run from the root of a tensornorms checkout")
    sys.path.insert(0, SRC)


_import_package()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tensornorms import (  # noqa: E402
    gen_gaussian,
    gen_sequence_example,
    nuclear_norm_fptas,
    spectral_norm_fptas,
)

import checks  # noqa: E402
from solves import Mismatch, Tracer, solve, solve_traced  # noqa: E402
from workloads import WORKLOADS, make  # noqa: E402


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "cpu_count": os.cpu_count(),
    }


def warm_up() -> None:
    """Run both norms once on tiny tensors, so that lazy loading ends before timing."""
    spectral_norm_fptas(gen_gaussian(3, 8, 8, 0), 1e-1)
    nuclear_norm_fptas(gen_sequence_example(), 1e-1)


class Run:
    """Rounds of one workload, each on fresh instances, with their checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.errors: list[str] = []

    def round(self, index: int, solves, tracer: Tracer | None = None) -> dict:
        results = []
        c0, t0 = time.process_time(), time.perf_counter()
        for sid, job in enumerate(solves):
            self.attempted += 1
            try:
                res = solve(job) if tracer is None else solve_traced(job, tracer, sid)
            except Mismatch as exc:
                self.failures.append(f"round {index} {job.label}: {exc}")
                res = None
            except Exception as exc:  # a failed solve is counted, not fatal
                self.failed += 1
                self.errors.append(f"round {index} {job.label}: {type(exc).__name__}: {exc}")
                res = None
            results.append(res)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.check(index, solves, results)
        return {"wall_s": wall, "cpu_s": cpu, "solves": solves, "results": results}

    def check(self, index: int, solves, results) -> None:
        refs, by_instance = {}, {}
        for job, res in zip(solves, results):
            if res is None:
                continue
            inst = job.instance
            a = inst.array
            if inst.name not in refs:
                refs[inst.name] = checks.reference(a)
            ref = refs[inst.name]
            if job.norm == "spectral":
                found = checks.spectral_failures(a, res, ref, inst.truth_spectral)
            else:
                found = checks.nuclear_failures(a, res, ref, inst.truth_nuclear,
                                                inst.published_nuclear)
            self.failures += [f"round {index} {job.label}: {msg}" for msg in found]
            by_instance.setdefault(inst.name, {})[job.norm] = res
        for name, pair in by_instance.items():
            if len(pair) == 2:
                found = checks.pair_failures(pair["spectral"], pair["nuclear"], refs[name])
                self.failures += [f"round {index} {name}: {msg}" for msg in found]

    def compare(self, untraced, traced) -> None:
        """A traced round must reproduce the untraced round on the same inputs."""
        for job, b, t in zip(untraced["solves"], untraced["results"], traced["results"]):
            if b is None or t is None:
                continue
            if (b.lower, b.upper, b.iterations) != (t.lower, t.upper, t.iterations):
                self.failures.append(
                    f"{job.label}: traced [{t.lower}, {t.upper}] after {t.iterations} "
                    f"iterations, untraced [{b.lower}, {b.upper}] after "
                    f"{b.iterations}")


def end_to_end(rounds, setup_s: float) -> dict:
    gaps = [statistics.fmean(r.gap for r in rnd["results"] if r is not None)
            for rnd in rounds]
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in rounds), "s"),
        "certified_gap": (statistics.median(gaps), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(plain, rounds, tracers) -> dict:
    def med(f):
        return statistics.median(f(tr) for tr in tracers)

    def c(name):  # counts repeat exactly from round to round
        return tracers[-1].counts.get(name, 0.0)

    relax = med(lambda tr: tr.seconds("nuclear.relax"))
    enumerate_s = med(lambda tr: tr.seconds("spectral.enumerate"))
    overhead = (statistics.median(r["wall_s"] for r in rounds)
                - statistics.median(r["wall_s"] for r in plain))
    return {
        "grids.build_s": (med(lambda tr: tr.seconds("grids.build")), "s"),
        "grids.points": (c("grids.points"), "count"),
        "spectral.enumerate_s": (enumerate_s, "s"),
        "spectral.points_per_s": (c("spectral.points") / enumerate_s, "1/s"),
        "spectral.order_d_wrap_s": (med(lambda tr: tr.counts["spectral.order_d_wrap_s"]),
                                    "s"),
        "nuclear.relax_s": (relax, "s"),
        "nuclear.iterations": (c("nuclear.iterations"), "count"),
        "nuclear.rounds": (c("nuclear.rounds"), "count"),
        "nuclear.s_per_iteration": (relax / c("nuclear.iterations"), "s"),
        "nuclear.working_set": (c("nuclear.working_set"), "count"),
        "nuclear.working_set_share": (c("nuclear.working_set") / c("nuclear.grid_points"),
                                      "ratio"),
        "nuclear.extract_s": (med(lambda tr: tr.seconds("nuclear.extract")), "s"),
        "nuclear.terms": (c("nuclear.terms"), "count"),
        "trace.overhead_s": (overhead, "s"),
    }


def _bracket_record(rnd) -> list[dict]:
    return [{"solve": job.label, "lower": r.lower, "upper": r.upper,
             "iterations": r.iterations} if r is not None else
            {"solve": job.label, "failed": True}
            for job, r in zip(rnd["solves"], rnd["results"])]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    run = Run()
    first = make(args.workload, args.seed, 0)
    warm_up()
    setup_s = _AGE0 + time.perf_counter() - _T0

    rounds, plain, tracers = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        i = len(rounds)
        solves = make(args.workload, args.seed, i) if i else first
        if not args.trace:
            rounds.append(run.round(i, solves))
            continue
        # an untraced and a traced round on the same inputs, in alternating
        # order: the untraced one is the base of the overhead and the
        # reference that the traced one must reproduce
        tracer = Tracer()
        if i % 2 == 0:
            untraced = run.round(i, solves)
            traced = run.round(i, solves, tracer)
        else:
            traced = run.round(i, solves, tracer)
            untraced = run.round(i, solves)
        run.compare(untraced, traced)
        plain.append(untraced)
        rounds.append(traced)
        tracers.append(tracer)
    if args.trace:
        metrics = per_layer(plain, rounds, tracers)
    else:
        metrics = end_to_end(rounds, setup_s)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "round_wall_s": [r["wall_s"] for r in rounds],
        "round_cpu_s": [r["cpu_s"] for r in rounds],
        "untraced_round_wall_s": [r["wall_s"] for r in plain],
        "brackets": [_bracket_record(r) for r in rounds],
        "failures": run.failures, "errors": run.errors,
        "spans": [[{"name": n, "start": s, "end": e, "solve": sid}
                   for n, s, e, sid in tr.spans] for tr in tracers if tr],
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    for line in run.failures + run.errors:
        print(f"certbench: {line}", file=sys.stderr)
    print(json.dumps(record["environment"]), file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
