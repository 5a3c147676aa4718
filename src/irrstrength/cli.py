"""Command-line front end.

Verbs: book, label, verify, bound, solve, table, export. All JSON output
is a single compact document with fixed key order. Exit codes: 0 success,
1 verification or existence failure, 2 usage errors, 3 I/O or format
errors; diagnostics are single lines on stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import books
from .bounds import bound_report
from .graphs import FormatError, format_edge_list, make_triangular_book, parse_edge_list
from .labelings import (
    IRREGULAR,
    MODULAR,
    certificate_from_json,
    certificate_to_dot,
    certificate_to_json,
    make_certificate,
    verify_profile,
)
from .solver import SolverConfig, StrengthResult, solve


@functools.cache  # parsing leaves the parser as it was, so one serves every run
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irrstrength",
        description="Irregular and modular-irregular edge labelings: construct, verify, bound, solve.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("book", help="print a triangular book graph as an edge list")
    p.add_argument("--n", type=int, required=True, help="number of triangular pages")

    p = sub.add_parser("label", help="emit a closed-form labeling certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theorem", type=int, choices=(1, 2), required=True,
                   help="1: irregular assignment, 2: modular irregular labeling")
    p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("verify", help="re-verify a certificate against a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--mode", choices=(IRREGULAR, MODULAR), required=True)

    p = sub.add_parser("bound", help="print lower bounds and the infinity verdict")
    p.add_argument("--graph", required=True)

    p = sub.add_parser("solve", help="compute the exact strength by search")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", choices=("s", "ms"), required=True)
    p.add_argument("--kmax", type=int, default=None)

    p = sub.add_parser("table", help="strength table over a range of page counts")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="stop", type=int, required=True)
    p.add_argument("--solve-upto", dest="solve_upto", type=int, default=0,
                   help="also run the solver for n up to this cutoff")

    p = sub.add_parser("export", help="render a certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--format", choices=("dot",), required=True)
    p.add_argument("--out", help="write here instead of stdout")

    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def fmt_strength(value) -> str:
    """Table cell: "inf" for infinity, "-" for a value not computed."""
    if value is None:
        return "-"
    return "inf" if value == math.inf else str(value)


def table_rows(start: int, stop: int, solve_upto: int):
    """Yield (n, s, ms, s_solved, ms_solved) for the books B_start..B_stop.

    s and ms are the closed-form strengths. The solved values are the
    solver's k (inf for an infinite outcome, the outcome name otherwise)
    for n <= solve_upto, and None beyond it.
    """
    for n in range(start, stop + 1):
        solved = (None, None)
        if n <= solve_upto:
            g = make_triangular_book(n)
            solved = tuple(_solved_value(solve(g, mode)) for mode in ("s", "ms"))
        yield (n, books.irregular_strength(n), books.modular_strength(n), *solved)


def _solved_value(result: StrengthResult):
    if result.outcome == "finite":
        return result.k
    return math.inf if result.outcome == "infinite" else result.outcome


def _cmd_book(args) -> int:
    sys.stdout.write(format_edge_list(make_triangular_book(args.n)))
    return 0


def _cmd_label(args) -> int:
    g = make_triangular_book(args.n)
    if args.theorem == 1:
        labeling = books.irregular_labeling(args.n)
        mode = IRREGULAR
    else:
        labeling = books.modular_labeling(args.n)
        mode = MODULAR
        if labeling is None:
            print(f"no modular labeling: order {args.n + 2} = 2 (mod 4)", file=sys.stderr)
            return 1
    cert = make_certificate(g, labeling, mode)
    check = verify_profile(cert.profile, mode)
    if not check.ok:  # construction bug, never expected
        print(f"internal error: construction failed verification: {check}", file=sys.stderr)
        return 1
    _emit(certificate_to_json(cert) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    g = parse_edge_list(_read(args.graph))
    cert = certificate_from_json(_read(args.cert))
    if cert.graph != g:
        print("certificate does not match the given graph", file=sys.stderr)
        return 1
    verdict = verify_profile(cert.profile, args.mode)
    if verdict.ok:
        print("ok")
        return 0
    u, v = verdict.pair
    print(f"{verdict.kind} {u} {v}")
    return 1


def _cmd_bound(args) -> int:
    g = parse_edge_list(_read(args.graph))
    report = bound_report(g)
    print(f"s_lower {report.s_lower}")
    print(f"ms_infinite {'true' if report.ms_infinite else 'false'}")
    print(f"ms_lower {fmt_strength(report.ms_lower)}")
    return 0


def _cmd_solve(args) -> int:
    g = parse_edge_list(_read(args.graph))
    cfg = SolverConfig(k_max=args.kmax)
    result = solve(g, args.mode, cfg)
    print(result.to_json())
    print(f"stats nodes={result.nodes} time={result.elapsed:.3f}s", file=sys.stderr)
    return 0


def _cmd_table(args) -> int:
    if args.start < 1 or args.stop < args.start:
        print("table range must satisfy 1 <= from <= to", file=sys.stderr)
        return 2
    print(f"{'n':>6} {'s':>6} {'ms':>6} {'s_solved':>9} {'ms_solved':>10}")
    for n, *values in table_rows(args.start, args.stop, args.solve_upto):
        s_val, ms_val, s_solved, ms_solved = map(fmt_strength, values)
        print(f"{n:>6} {s_val:>6} {ms_val:>6} {s_solved:>9} {ms_solved:>10}")
    return 0


def _cmd_export(args) -> int:
    cert = certificate_from_json(_read(args.cert))
    _emit(certificate_to_dot(cert), args.out)
    return 0


_HANDLERS = {
    "book": _cmd_book,
    "label": _cmd_label,
    "verify": _cmd_verify,
    "bound": _cmd_bound,
    "solve": _cmd_solve,
    "table": _cmd_table,
    "export": _cmd_export,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _HANDLERS[args.verb](args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
