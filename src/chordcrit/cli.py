"""Command-line front end: generate, verify, diagram.

Exit codes: 0 success, 1 verification failure, 2 parameter error, 3 timeout.
Output is deterministic for fixed parameters and seed (no timestamps, no
timing), so reports can be golden-file tested.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Iterable

from .criticality import (
    critical_coloring,
    verify_edge_criticality,
    verify_vertex_criticality,
)
from .diagrams import certificate_classes, chord_diagram
from .families import (
    InvalidParametersError,
    gn,
    kneser,
    mycielski_iter,
    parse_chord,
    schrijver,
)
from .graph import export_graph
from .homomorphism import lower_bound_chain
from .pairs import count_pairs
from .solver import SolverConfig, chromatic_number

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARAM = 2
EXIT_TIMEOUT = 3


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write text, or each string of an iterable as it is made, to the file
    out or to stdout."""
    chunks = (text,) if isinstance(text, str) else text
    if out:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _exit_code(ok: bool, timed_out: bool = False) -> int:
    if timed_out:
        return EXIT_TIMEOUT
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(time_budget=args.budget_seconds, seed=args.seed)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "kneser":
        g = kneser(args.n, args.k)
    elif args.family == "schrijver":
        g = schrijver(args.n, args.k)
    elif args.family == "gn":
        g = gn(args.n)
    else:
        g = mycielski_iter(args.k)
    _emit(export_graph(g, args.format), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _solver_config(args)
    if args.target == "chromatic":
        result = chromatic_number(gn(args.n), cfg)
        timed_out = result.status != "exact"
        ok = not timed_out and result.chi == args.n - 2
        text = (
            f"chi(G_{args.n}) = {result.chi} expected {args.n - 2} "
            f"[{result.status}]\n"
        )
        _emit(text, args.out)
        return _exit_code(ok, timed_out)
    if args.target == "edge-critical":
        report = verify_edge_criticality(args.n, use_solver=args.with_solver, cfg=cfg)
        ok = report.all_pass and report.solver_confirms_chromatic in (None, True)
        _emit(report.lines(), args.out)
        return _exit_code(ok, report.solver_timed_out)
    if args.target == "vertex-critical":
        g = schrijver(args.n, 2) if args.family == "sg" else gn(args.n)
        report = verify_vertex_criticality(g, cfg)
        _emit(report.render(), args.out)
        return _exit_code(report.all_dropped, report.timed_out)
    if args.target == "homomorphism":
        report = lower_bound_chain(args.n, cfg)
        _emit(report.render(), args.out)
        return _exit_code(report.all_valid)
    # ratio
    if args.n_max < 5:
        raise InvalidParametersError("--n-max must be at least 5")
    lines = ["n crossing transverse lateral nested1 ratio_num ratio_den"]
    final = Fraction(1)
    for n in range(5, args.n_max + 1):
        counts = count_pairs(n)
        final = counts.ratio()
        lines.append(counts.row())
    lines.append(f"final ratio {final} = {float(final):.6f} (limit 2/3)")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_diagram(args: argparse.Namespace) -> int:
    n = args.n
    if args.certificate_edge:
        parts = args.certificate_edge.split(",")
        if len(parts) != 2:
            raise InvalidParametersError(
                "certificate edge needs exactly two chords, e.g. '26,35'"
            )
        p, q = (parse_chord(t, n) for t in parts)
        cert = critical_coloring(n, p, q)
        classes = certificate_classes(n, cert.assignment)
        svg = chord_diagram(n, sorted(classes), color_classes=classes)
    else:
        chords = [parse_chord(t, n) for t in args.chords.split(",") if t.strip()]
        if not chords:
            raise InvalidParametersError("no chords given")
        svg = chord_diagram(n, chords)
    _emit(svg, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chordcrit",
        description="Generate chord-graph families and verify their colouring properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a graph in a text format")
    gen.add_argument(
        "family", choices=("kneser", "schrijver", "gn", "mycielski_k")
    )
    gen.add_argument("--n", type=int, default=None)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument(
        "--format", choices=("dimacs", "edgelist", "structured"), default="dimacs"
    )
    gen.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="run a verification sweep")
    ver.add_argument(
        "target",
        choices=("chromatic", "edge-critical", "vertex-critical", "homomorphism", "ratio"),
    )
    ver.add_argument("--n", type=int, default=6)
    ver.add_argument("--n-max", type=int, default=50)
    ver.add_argument("--budget-seconds", type=float, default=60.0)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--with-solver", action="store_true")
    ver.add_argument("--family", choices=("sg", "gn"), default="sg")
    ver.add_argument("--out", default=None)

    dia = sub.add_parser("diagram", help="render chords of the n-cycle as SVG")
    dia.add_argument("--n", type=int, required=True)
    dia.add_argument("--chords", default="")
    dia.add_argument("--certificate-edge", default=None)
    dia.add_argument("--out", default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves it as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            if args.family in ("kneser", "schrijver", "gn") and args.n is None:
                parser.error("--n is required for this family")
            return _cmd_generate(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_diagram(args)
    except (ValueError, OSError) as exc:  # InvalidParametersError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM


if __name__ == "__main__":
    sys.exit(main())
