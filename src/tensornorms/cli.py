"""Command-line front end for tensor norm computations."""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import bench
from .core import (
    Tensor3,
    gen_gaussian,
    gen_orthogonal_test,
    gen_sequence_example,
    read_tensor,
    write_tensor,
)
from .grids import sample_uniform
from .nuclear import SolverError, certificate_to_dict, nuclear_norm_fptas
from .spectral import estimate_to_dict, spectral_norm_fptas

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2


def _parse_grid(spec: str, ell: int, seed: int):
    if spec == "hemi":
        return None  # computed from epsilon inside the algorithms
    if spec.startswith("rand:"):
        return sample_uniform(ell, int(spec.split(":", 1)[1]), seed)
    raise ValueError(f"unknown grid spec {spec!r}")


def _emit(payload: dict, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2)
    else:
        flat = {k: v for k, v in payload.items()
                if not isinstance(v, (dict, list))}
        lines = [",".join(flat), ",".join(str(v) for v in flat.values())]
        text = "\n".join(lines)
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, default=1e-2, help="target error")
    p.add_argument("--mode", choices=["abs", "rel"], default="rel")
    p.add_argument("--grid", default="hemi",
                   help="'hemi' or 'rand:N' for N uniform sphere samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensornorms",
        description="Certified spectral/nuclear norms of small-first-dim tensors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snorm", help="spectral norm of a tensor file")
    p.add_argument("input")
    _add_common(p)

    p = sub.add_parser("nnorm", help="nuclear norm of a tensor file")
    p.add_argument("input")
    _add_common(p)

    p = sub.add_parser("gen", help="generate a test tensor file")
    p.add_argument("--kind", choices=["orth", "gauss", "seq"], required=True)
    p.add_argument("--dims", default="3,3,3", help="l,m,n")
    p.add_argument("--r", type=int, default=2, help="terms for --kind orth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--binary", action="store_true")

    p = sub.add_parser("bench", help="benchmark sweeps as CSV")
    p.add_argument("--suite", choices=["time", "error"], default="time")
    p.add_argument("--norm", choices=["spectral", "nuclear"], default="spectral")
    p.add_argument("--ells", default="2,3", help="comma list of first dims")
    p.add_argument("--n", type=int, default=10, help="trailing dimension")
    p.add_argument("--epsilons", default="1e-1,1e-2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run quick invariant self-checks")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _mode_name(flag: str) -> str:
    return {"abs": "absolute", "rel": "relative"}[flag]


def _cmd_snorm(args) -> int:
    T = read_tensor(args.input)
    grid = _parse_grid(args.grid, T.dims[0], args.seed)
    est = spectral_norm_fptas(T, args.eps, _mode_name(args.mode), grid)
    _emit(estimate_to_dict(est), args.out, args.format)
    return EXIT_OK


def _cmd_nnorm(args) -> int:
    T = read_tensor(args.input)
    grid = _parse_grid(args.grid, T.dims[0], args.seed)
    est, cert = nuclear_norm_fptas(T, args.eps, _mode_name(args.mode), grid)
    payload = estimate_to_dict(est)
    payload.update(certificate_to_dict(cert))
    _emit(payload, args.out, args.format)
    return EXIT_OK if cert.converged else EXIT_SOLVER


def _cmd_gen(args) -> int:
    dims = tuple(int(d) for d in args.dims.split(","))
    if args.kind == "seq":
        T = gen_sequence_example()
        sidecar = None
    elif args.kind == "gauss":
        T = gen_gaussian(*dims, seed=args.seed)
        sidecar = None
    else:
        T, dec = gen_orthogonal_test(*dims, r=args.r, seed=args.seed)
        weights = [t[0] for t in dec.terms]
        sidecar = {
            "spectral": max(weights),
            "nuclear": sum(weights),
            "decomposition": [
                {"lambda": t[0], "x": t[1].tolist(), "y": t[2].tolist(),
                 "z": t[3].tolist()}
                for t in dec.terms
            ],
        }
    write_tensor(T, args.out, binary=args.binary)
    if sidecar is not None:
        with open(args.out + ".truth.json", "w") as f:
            json.dump(sidecar, f, indent=2)
    return EXIT_OK


def _cmd_bench(args) -> int:
    ells = [int(v) for v in args.ells.split(",")]
    epsilons = [float(v) for v in args.epsilons.split(",")]
    if args.suite == "time":
        rows = bench.time_sweep(args.norm, ells, args.n, epsilons, args.seed)
    else:
        rows = bench.error_sweep(args.norm, ells, args.n, epsilons, args.seed)
    with open(args.out, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK


def _cmd_verify(args) -> int:
    failures = bench.run_self_checks(args.seed)
    for name, ok, detail in failures:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    return EXIT_OK if all(ok for _, ok, _ in failures) else EXIT_INPUT


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "snorm": _cmd_snorm,
        "nnorm": _cmd_nnorm,
        "gen": _cmd_gen,
        "bench": _cmd_bench,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
