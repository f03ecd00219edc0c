"""Command-line driver: custom sweeps plus the table1..table6 presets."""

import argparse
import sys

from .driver import TABLE_PRESETS, RunConfig, convergence_table, write_csv
from .solver import SolverError


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part)


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, metavar="PATH.CSV",
                        help="write the CSV here instead of standard output")
    parser.add_argument("--jobs", type=int, default=1,
                        help="number of concurrent case solves")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wg-shishkin",
        description="Weak Galerkin convergence studies for the singularly "
                    "perturbed fourth-order problem on Shishkin meshes.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a custom (eps, N) sweep")
    run.add_argument("--example", type=int, choices=(0, 1, 2), required=True)
    run.add_argument("--k", type=int, required=True,
                     help="polynomial degree, >= 3")
    run.add_argument("--eps", type=_parse_floats, required=True,
                     metavar="LIST", help="comma-separated eps values")
    run.add_argument("--N", type=_parse_ints, required=True, dest="n",
                     metavar="LIST", help="comma-separated doubling chain of N")
    run.add_argument("--alpha", type=float, default=None,
                     help="transition constant (default k+1)")
    run.add_argument("--mesh", choices=("shishkin", "uniform"),
                     default="shishkin")
    run.add_argument("--quad", type=int, default=None,
                     help="quadrature points per direction (default k+3)")
    run.add_argument("--solver", choices=("direct", "pcg"), default="direct",
                     help="direct: Cholesky on the separator tree; pcg: CG "
                          "preconditioned by that factorization in single "
                          "precision, or the direct solve where CG stalls "
                          "(default direct)")
    run.add_argument("--condense", choices=("auto", "on", "off"),
                     default="auto")
    _add_common(run)

    for name, preset in TABLE_PRESETS.items():
        table = sub.add_parser(
            name, help=f"example {preset.example}, {preset.mesh_kind} mesh, "
                       f"k={preset.k}")
        _add_common(table)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.command == "run":
        return RunConfig(example=args.example, k=args.k, eps_list=args.eps,
                         n_list=args.n, mesh_kind=args.mesh, alpha=args.alpha,
                         quad=args.quad, method=args.solver,
                         condense=args.condense)
    return TABLE_PRESETS[args.command]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = _config_from_args(args)

    def progress(record, seconds):
        order = "" if record.order is None else f" order={record.order:.2f}"
        print(f"example {record.example} {record.mesh_kind} k={record.k} "
              f"eps={record.eps:.0e} N={record.n}: "
              f"error={record.error:.3e}{order} ({seconds:.1f}s)",
              file=sys.stderr)

    try:
        records = convergence_table(config, jobs=args.jobs, progress=progress)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1

    if args.out is None:
        write_csv(records)
    else:
        with open(args.out, "w", newline="") as stream:
            write_csv(records, stream)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
