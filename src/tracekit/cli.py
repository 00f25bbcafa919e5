"""trace-bench: batch error-vs-budget sweeps from the command line.

Example:
    trace-bench --source power_law --c 1.5 --d 1000 \\
        --estimators hutchinson,hutch_pp --budgets 12,24,48,96,192 \\
        --trials 200 --seed 7 --out results.csv
"""

from __future__ import annotations

import argparse
import logging
import sys

from tracekit.bench import (
    ExperimentSpec,
    GraphEstradaSource,
    GraphTrianglesSource,
    KernelLogDetSource,
    PowerLawSource,
    emit_csv,
    run_sweep,
)

__all__ = ["build_parser", "main"]


def _graph_path(args) -> str:
    if args.graph is None:
        raise ValueError(f"--source {args.source} requires --graph FILE")
    return args.graph


# --source name -> builder of the matrix source from the parsed arguments.
_SOURCES = {
    "power_law": lambda args: PowerLawSource(
        exponent=args.c, dim=args.d, rotate=not args.no_rotate
    ),
    "kernel_logdet": lambda args: KernelLogDetSource(
        n_points=args.n_points,
        gamma=args.gamma,
        shift=args.shift,
        lanczos_iterations=args.lanczos_iters,
        points_path=args.points_file,
    ),
    "graph_estrada": lambda args: GraphEstradaSource(
        path=_graph_path(args), lanczos_iterations=args.lanczos_iters
    ),
    "graph_triangles": lambda args: GraphTrianglesSource(path=_graph_path(args)),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="trace-bench",
        description="Sweep stochastic trace estimators over a budget grid "
        "and write median/quartile relative errors as CSV.",
    )
    p.add_argument("--source", required=True, choices=list(_SOURCES),
                   help="matrix source to benchmark against")
    p.add_argument("--estimators", default="hutchinson,hutch_pp",
                   help="comma-separated estimator names")
    p.add_argument("--budgets", default="12,24,48,96,192",
                   help="comma-separated ascending matvec budgets")
    p.add_argument("--trials", type=int, default=100,
                   help="independent trials per (estimator, budget) cell")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--out", default="results.csv", help="output CSV path")
    # power_law source
    p.add_argument("--c", type=float, default=1.0,
                   help="power-law spectrum exponent (power_law source)")
    p.add_argument("--d", type=int, default=PowerLawSource.dim,
                   help="matrix dimension (power_law source)")
    p.add_argument("--no-rotate", action="store_true",
                   help="keep the power-law matrix exactly diagonal")
    # kernel_logdet source
    p.add_argument("--n-points", type=int, default=400,
                   help="number of synthetic 2-d points (kernel_logdet source)")
    p.add_argument("--points-file", default=None,
                   help="two-column coordinates file; overrides --n-points")
    p.add_argument("--gamma", type=float, default=KernelLogDetSource.gamma,
                   help="kernel width parameter (kernel_logdet source)")
    p.add_argument("--lambda", dest="shift", type=float, default=KernelLogDetSource.shift,
                   help="diagonal shift for logdet(B + lambda*I)")
    # graph sources
    p.add_argument("--graph", default=None,
                   help="edge-list file (graph_estrada / graph_triangles)")
    p.add_argument("--lanczos-iters", type=int,
                   default=GraphEstradaSource.lanczos_iterations,
                   help="Lanczos iterations for matrix-function sources")
    return p


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}")


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        spec = ExperimentSpec(
            source=_SOURCES[args.source](args),
            estimators=tuple(
                tok.strip() for tok in args.estimators.split(",") if tok.strip()
            ),
            budgets=_parse_int_list(args.budgets, "--budgets"),
            trials=args.trials,
            seed=args.seed,
        )
        rows = run_sweep(spec)
        emit_csv(rows, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for row in rows:
        print(
            f"{row.estimator:>20s}  m={row.m:<6d} median={row.median_rel_err:.3e} "
            f"q25={row.q25_rel_err:.3e} q75={row.q75_rel_err:.3e} "
            f"matvecs={row.mean_matvecs:.1f}"
        )
    print(f"wrote {len(rows)} row(s) to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
