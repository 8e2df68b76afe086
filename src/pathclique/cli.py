"""Command-line surface.

Subcommands: construct, count, formula, oracle, verify, classify,
disintegrate, table.  Graph-valued commands read and write graph6 on
stdin/stdout.  Exit codes: 0 success, 1 usage error, 2 verification
failure (a violated invariant), 3 enumeration cap or budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, partial
from typing import Optional

from . import constructions
from .detect import classify_structure, count_cliques
from .formulas import (
    ParameterError,
    TheoremParams,
    h_value,
    katona_value,
    luo_value,
    predicted_ex,
    predicted_ex_con,
    threshold_case,
    turan_cliques,
)
from .graph6 import graph6_decode, graph6_encode
from .graphs import Graph, primitive
from .oracle import (
    BudgetExceeded,
    CapExceeded,
    disintegrate,
    ex_oracle,
    verify_classification,
    verify_theorem,
)
from .reports import report_csv, report_json, write_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_CAP = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; remap to the exit contract
    def error(self, message: str):
        raise UsageError(message)


def _parse_range(text: str) -> range:
    """Inclusive 'A..B' range, or a single integer."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if hi < lo:
        raise UsageError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _read_graph(args) -> Graph:
    text = args.graph6 if args.graph6 else sys.stdin.readline()
    if not text.strip():
        raise UsageError("no graph6 input (use --graph6 or stdin)")
    return graph6_decode(text)


def _require(args, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise UsageError("missing " + ", ".join("--" + n for n in missing))


def _g3(n: int, k: int, block: str, attach: int) -> Graph:
    return constructions.g3(n, k, graph6_decode(block), attach)


# family -> (builder, the flags it needs, in the builder's argument order)
_FAMILIES = {
    "turan": (constructions.turan, ("n", "p")),
    "h": (constructions.h_extremal, ("n", "m", "k")),
    "h_minus": (constructions.h_minus, ("n", "m", "k")),
    "double_star": (constructions.double_star, ("a", "b")),
    "g1": (constructions.g1, ("n", "k")),
    "g2": (constructions.g2, ("n1", "n2", "k")),
    "g3": (_g3, ("n", "k", "block", "attach")),
    "g4": (constructions.g4, ("n1", "n2")),
    "g5": (constructions.g5, ("n1", "n2")),
    "turan_union": (constructions.turan_union, ("n", "k", "m")),
    **{
        name: (partial(primitive, name), ("n",))
        for name in ("complete", "empty", "path", "cycle", "star")
    },
}


def _cmd_construct(args) -> int:
    if args.family not in _FAMILIES:
        raise UsageError(f"unknown family {args.family!r}")
    builder, flags = _FAMILIES[args.family]
    _require(args, list(flags))
    print(graph6_encode(builder(*(getattr(args, flag) for flag in flags))))
    return EXIT_OK


def _cmd_count(args) -> int:
    g = _read_graph(args)
    print(count_cliques(g, args.r))
    return EXIT_OK


def _case_line(k: int, m: int, r: int) -> str:
    case = threshold_case(k, m, r)
    num = turan_cliques(k - 1, m - 1, r)  # unreduced rhs over k-1
    return f"{case.tag} lhs={case.lhs} rhs={num}/{k - 1}"


def _predicted_line(args) -> str:
    if args.connected:
        return str(predicted_ex_con(args.n, args.k, args.m, args.r))
    value, exact = predicted_ex(args.n, args.k, args.m, args.r)
    return f"{value} {'exact' if exact else 'upper_bound'}"


# (flag, the flags it needs, its output line), in order of precedence; the
# last entry has no flag and is the default
_FORMULAS = (
    ("case", ("k", "m", "r"), lambda a: _case_line(a.k, a.m, a.r)),
    ("katona", ("n", "k", "m"), lambda a: katona_value(a.n, a.k, a.m)),
    ("luo", ("n", "k", "r"), lambda a: luo_value(a.n, a.k, a.r)),
    ("predicted", ("n", "k", "m", "r"), _predicted_line),
    (None, ("n", "k", "m", "r"), lambda a: h_value(a.n, a.m, a.k, a.r)),
)


def _cmd_formula(args) -> int:
    for flag, needs, line in _FORMULAS:
        if flag is None or getattr(args, flag):
            _require(args, list(needs))
            print(line(args))
            return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.k is None and args.m is None:
        raise UsageError("give at least one of --k / --m")
    result = ex_oracle(
        args.n,
        args.k,
        args.m,
        args.r,
        connected=args.connected,
        edge_maximal_only=args.edge_maximal,
        time_budget_s=args.budget,
    )
    print(f"value {result.value}")
    for code in result.extremal:
        print(f"extremal {code}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    _require(args, ["k", "m", "r", "n"])
    params = TheoremParams(args.k, args.m, args.r)
    scope = "connected" if args.connected else args.scope
    rows = verify_theorem(params, _parse_range(args.n), scope, args.budget)
    meta = {"command": " ".join(args.argv)}
    if args.out:
        write_report(rows, args.format, args.out, meta)
    elif args.format == "csv":
        sys.stdout.write(report_csv(rows))
    else:
        sys.stdout.write(report_json(rows, meta))
    if any(row.status == "MISMATCH" for row in rows):
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_classify(args) -> int:
    _require(args, ["k", "m", "n"] if args.exhaustive else ["k", "m"])
    if args.exhaustive:
        report = verify_classification(
            args.k, args.m, _parse_range(args.n), args.budget
        )
        for tag in sorted(report["histogram"]):
            print(f"{tag} {report['histogram'][tag]}")
        print(f"total {report['total']}")
        if not report["ok"]:
            for code in report["unclassified"]:
                print(f"unclassified {code}")
            return EXIT_VERIFICATION
        return EXIT_OK
    g = _read_graph(args)
    outcome = classify_structure(g, args.k, args.m)
    print(outcome.class_tag.value)
    if outcome.class_tag.value == "Unclassified":
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_disintegrate(args) -> int:
    g = _read_graph(args)
    trace = disintegrate(g, args.delta, args.preserve_connectivity)
    print("deleted " + " ".join(str(v) for v in trace.deleted))
    print("core " + graph6_encode(trace.core))
    print(f"core_size {trace.core_size}")
    print(f"stuck {'yes' if trace.stuck else 'no'}")
    return EXIT_OK


def _cmd_table(args) -> int:
    _require(args, ["k", "m", "r", "n"])
    lines = ["k,m,r,n,case,h_value,predicted,exact"]
    for k in _parse_range(args.k):
        for m in _parse_range(args.m):
            for r in _parse_range(args.r):
                try:
                    params = TheoremParams(k, m, r)
                except ParameterError:
                    continue
                case = threshold_case(k, m, r)
                for n in _parse_range(args.n):
                    if n < params.delta + 2:
                        continue
                    value = h_value(n, m, k, r)
                    pred, exact = predicted_ex(n, k, m, r)
                    lines.append(
                        f"{k},{m},{r},{n},{case.tag},{value},{pred},"
                        f"{'yes' if exact else 'no'}"
                    )
    out = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


@cache
def _build_parser() -> _Parser:
    """The parser, built on the first call and shared by later ones; it
    keeps no state between parses, and its errors raise UsageError."""
    parser = _Parser(prog="pathclique")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *flags):
        for flag in flags:
            p.add_argument("--" + flag, type=int)

    p = sub.add_parser("construct")
    p.add_argument("--family", required=True)
    add_common(p, "n", "k", "m")
    p.add_argument("--p", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--block")
    p.add_argument("--attach", type=int)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("count")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--graph6")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("formula")
    add_common(p, "n", "k", "m", "r")
    p.add_argument("--case", action="store_true")
    p.add_argument("--katona", action="store_true")
    p.add_argument("--luo", action="store_true")
    p.add_argument("--predicted", action="store_true")
    p.add_argument("--connected", action="store_true")
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    add_common(p, "k", "m")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--edge-maximal", action="store_true")
    p.add_argument("--budget", type=float)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify")
    add_common(p, "k", "m", "r")
    p.add_argument("--n")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--scope", choices=["connected", "all"], default="all")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.add_argument("--budget", type=float)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify")
    add_common(p, "k", "m")
    p.add_argument("--graph6")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--n")
    p.add_argument("--budget", type=float)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("disintegrate")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--preserve-connectivity", action="store_true")
    p.add_argument("--graph6")
    p.set_defaults(func=_cmd_disintegrate)

    p = sub.add_parser("table")
    p.add_argument("--k", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.argv = ["pathclique"] + argv
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # ParameterError and GraphError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
