"""Command-line interface.

Subcommands:
  stencil         build a stencil and print it
  verify          run the randomized exact-identity suites
  derive          estimate a derivative from a convergence table
  counterexample  reproduce or search the group-supported separations

Exit codes: 0 success; 1 verification or check failure; 2 usage error;
3 nonexistence verdict (a table that does not converge, or a search that
rules every candidate out).

Rational-valued flags take exact 'p/r' syntax (or a decimal literal, which
is parsed exactly); purely float-domain flags like --tol take decimals.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .counterexample import (
    NAMED_CASES,
    SEARCH_CASES,
    CounterexampleError,
    GroupFunction,
    MultiplicativeGroup,
    NoSignChangeError,
    PhiOnInterval,
    find_exponent,
    run_case,
    run_search,
    verify_counterexample,
)
from .evaluator import EvaluatorError, FunctionHandle, estimate_derivative
from .stencil import (
    CLASSICAL_BUILDERS,
    GAUSSIAN_BUILDERS,
    Stencil,
    StencilError,
    format_rational,
    parse_rational,
    stencil_to_json,
    vandermonde_solve,
    verify_vandermonde,
)
from .verify import DEFAULT_Q_GRID, DEFAULT_SEED, run_all


# Largest derivative order the CLI builds a stencil for, and so at most
# MAX_ORDER + 1 nodes: a larger -n or --nodes list exits 2 before any build.
MAX_ORDER = 200


def _parse_rational_list(text: str) -> list[Fraction]:
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise StencilError("empty rational list")
    return [parse_rational(t) for t in items]


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise StencilError(f"bad integer list {text!r}") from exc


def _bound_order(order: int):
    if order > MAX_ORDER:
        raise StencilError(f"-n {order} exceeds the largest supported order {MAX_ORDER}")


def _parse_nodes(text: str) -> list[Fraction]:
    nodes = _parse_rational_list(text)
    if len(nodes) > MAX_ORDER + 1:
        raise StencilError(f"--nodes has {len(nodes)} entries, more than the "
                           f"{MAX_ORDER + 1} of the largest supported order {MAX_ORDER}")
    return nodes


def _parse_function(text: str) -> FunctionHandle:
    if text.startswith("poly:"):
        return FunctionHandle.rational_polynomial(_parse_rational_list(text[len("poly:"):]))
    return FunctionHandle.builtin(text)


def _build_stencil(args) -> Stencil:
    kind = args.kind
    if kind in GAUSSIAN_BUILDERS:
        if args.q is None:
            raise StencilError(f"--kind {kind} requires -q")
        q = parse_rational(args.q)
    elif args.q is not None:
        raise StencilError(f"--kind {kind} does not take -q")
    if kind == "custom":
        if not args.nodes:
            raise StencilError("--kind custom requires --nodes")
    elif args.nodes:
        raise StencilError(f"--kind {kind} does not take --nodes")
    if args.order is None:
        raise StencilError(f"--kind {kind} requires -n")
    _bound_order(args.order)
    if kind == "custom":
        return vandermonde_solve(_parse_nodes(args.nodes), args.order)
    if kind in GAUSSIAN_BUILDERS:
        return GAUSSIAN_BUILDERS[kind](args.order, q)
    return CLASSICAL_BUILDERS[kind](args.order)


def _print_stencil(s, output: str):
    if output == "json":
        print(stencil_to_json(s))
    elif output == "csv":
        print("node,coeff")
        for a, c in zip(s.nodes, s.coeffs):
            print(f"{format_rational(a)},{format_rational(c)}")
    else:
        q_part = "" if s.q is None else f" q={format_rational(s.q)}"
        print(f"order {s.order} {s.kind}{q_part}")
        width = max(len(format_rational(a)) for a in s.nodes)
        for a, c in zip(s.nodes, s.coeffs):
            print(f"  a = {format_rational(a):>{width}}   A = {format_rational(c)}")
        residuals = verify_vandermonde(s)
        ok = all(r == 0 for _, r in residuals)
        print(f"moment conditions: {'all satisfied' if ok else 'VIOLATED'}")


def cmd_stencil(args) -> int:
    s = _build_stencil(args)
    _print_stencil(s, args.output)
    return 0


def cmd_verify(args) -> int:
    q_grid = tuple(_parse_rational_list(args.q_list))
    for q in q_grid:
        if q in (0, 1, -1):
            raise StencilError("q grid must avoid 0, 1 and -1")
    results = run_all(max_n=args.max_n, seed=args.seed, q_grid=q_grid)
    if args.output == "json":
        print(json.dumps(
            [
                {"suite": r.name, "ok": r.ok, "passed": r.passed,
                 "failed": r.failed, "failures": r.failures}
                for r in results
            ],
            indent=2,
        ))
    else:
        for r in results:
            print(r.summary())
        total = sum(r.total for r in results)
        if all(r.ok for r in results):
            print(f"all suites passed ({total} checks)")
        else:
            bad = ", ".join(r.name for r in results if not r.ok)
            print(f"FAILED suites: {bad}")
    return 0 if all(r.ok for r in results) else 1


def cmd_derive(args) -> int:
    s = _build_stencil(args)
    f = _parse_function(args.function)
    table = estimate_derivative(
        s,
        f,
        parse_rational(args.at),
        h0=parse_rational(args.h0),
        ratio=parse_rational(args.ratio),
        steps=args.steps,
        two_sided=not args.one_sided,
        tol=args.tol,
    )
    if args.output == "json":
        print(json.dumps(table.to_jsonable(), indent=2))
    elif args.output == "text":
        for h, qt, d in table.rows:
            delta = "" if d is None else f"  delta={float(d)!r}"
            print(f"h={float(h)!r}  quotient={float(qt)!r}{delta}")
        print(table.verdict_line())
    else:
        print(table.to_csv())
    return 0 if table.verdict == "converged" else 3


def cmd_counterexample(args) -> int:
    if args.case and args.custom:
        raise CounterexampleError("--case and --custom are mutually exclusive")
    if args.case:
        if args.case in SEARCH_CASES:
            report = run_search(args.case)
            print(json.dumps(report, indent=2))
            # An empty search is this case's expected conclusion; finding an
            # admissible character would contradict it.
            return 0 if report["admissible"] == 0 else 1
        report = run_case(args.case, seed=args.seed)
        print(report.to_json())
        return 0 if report.passed() else 1
    if not args.custom:
        raise CounterexampleError("pass --case NAME or --custom")
    for flag, name in ((args.nodes, "--nodes"), (args.order, "-n"),
                       (args.generators, "--generators"), (args.character, "--character"),
                       (args.interval, "--interval"), (args.lower_order, "--lower-order")):
        if flag is None:
            raise CounterexampleError(f"--custom requires {name}")
    _bound_order(args.order)
    stencil = vandermonde_solve(_parse_nodes(args.nodes), args.order)
    group = MultiplicativeGroup(tuple(_parse_int_list(args.generators)))
    character = tuple(_parse_int_list(args.character))
    window = PhiOnInterval.of(stencil, group, character, _parse_int_list(args.interval))
    s_star = find_exponent(window) if args.exponent is None else args.exponent
    f = GroupFunction(group, character, s_star)
    report = verify_counterexample(stencil, f, args.lower_order, window, seed=args.seed)
    print(report.to_json())
    return 0 if report.passed() else 1


def _add_stencil_arguments(p):
    """The stencil-selecting flags shared by the stencil and derive commands."""
    p.add_argument("--kind", choices=(*GAUSSIAN_BUILDERS, *CLASSICAL_BUILDERS, "custom"), required=True)
    p.add_argument("-n", "--order", type=int)
    p.add_argument("-q", help="ratio as 'p/r' (gaussian kinds only)")
    p.add_argument("--nodes", help="comma-separated rational nodes (custom kind only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qriemann",
        description="Geometric-node difference stencils, derivative estimation, "
                    "and group-supported counterexample checks, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stencil", help="build a stencil and print it")
    _add_stencil_arguments(p)
    p.add_argument("--output", choices=("json", "csv", "text"), default="json")
    p.set_defaults(func=cmd_stencil)

    p = sub.add_parser("verify", help="run the exact-identity suites")
    p.add_argument("--max-n", type=int, default=8, help="stencil-grid order cap, 1..12")
    p.add_argument("--q-list", default=",".join(map(format_rational, DEFAULT_Q_GRID)),
                   help="comma-separated rational ratios for the stencil grids")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("derive", help="estimate a derivative from a convergence table")
    _add_stencil_arguments(p)
    p.add_argument("--function", required=True,
                   help="sin | cos | exp | abs | signpowN | poly:c0,c1,...")
    p.add_argument("--at", default="0", help="expansion point (rational or decimal)")
    p.add_argument("--h0", default="1/10", help="initial step (rational or decimal)")
    p.add_argument("--ratio", default="1/2", help="step shrink factor in (0,1)")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--one-sided", action="store_true",
                   help="keep every step positive instead of alternating signs")
    p.add_argument("--tol", type=float, default=None,
                   help="convergence tolerance on the final delta")
    p.add_argument("--output", choices=("csv", "json", "text"), default="csv")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("counterexample", help="reproduce or search the separations")
    p.add_argument("--case", choices=tuple(sorted(NAMED_CASES)) + tuple(sorted(SEARCH_CASES)))
    p.add_argument("--custom", action="store_true")
    p.add_argument("--nodes", help="comma-separated rational nodes (custom)")
    p.add_argument("-n", "--order", type=int, help="derivative order (custom)")
    p.add_argument("--generators", help="comma-separated primes (custom)")
    p.add_argument("--character", help="comma-separated bits (custom)")
    p.add_argument("--interval", help="LO,HI integer exponent bracket (custom)")
    p.add_argument("--exponent", type=float, default=None,
                   help="use this exponent instead of locating a root (custom)")
    p.add_argument("--lower-order", type=int, default=None,
                   help="claimed intact differentiability order (custom)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # exact stencils of high order carry integers past the default
        # 4300-digit limit on str(int), which would fail valid requests
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 on usage errors
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except NoSignChangeError as exc:
        # a strict sign-change precondition failure is a verdict, not a usage slip
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CounterexampleError, StencilError, EvaluatorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
