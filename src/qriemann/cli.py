"""Command-line interface.

Subcommands:
  stencil         build a stencil and print it
  verify          run the randomized exact-identity suites
  derive          estimate a derivative from a convergence table
  counterexample  reproduce or search the group-supported separations

One argparse parser serves every call of main in a process: build_parser
makes it on first use, and main dispatches on the parsed command name, so
the cmd_* functions are looked up when the command runs.

Exit codes: 0 success; 1 verification or check failure; 2 usage error;
3 nonexistence verdict (a quotient whose limit does not exist, or a search
that rules every candidate out).

Rational-valued flags take exact 'p/r' syntax (or a decimal literal, which
is parsed exactly); purely float-domain flags like --exponent take decimals.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import re
import sys
from contextlib import suppress
from fractions import Fraction

from .cases import NAMED_CASES, SEARCH_CASES
from .stencil import (
    CLASSICAL_BUILDERS,
    GAUSSIAN_BUILDERS,
    Stencil,
    StencilError,
    _abbreviated,
    format_rational,
    parse_rational,
    stencil_to_json,
    vandermonde_solve,
    verify_vandermonde,
)
from .verify import DEFAULT_Q_GRID, DEFAULT_SEED, run_all

# The names that derive and counterexample read from the evaluator and
# counterexample modules, which import mpmath.  Each function that reads one
# first calls _bind_deferred, so that stencil and verify start without
# either module.
_DEFERRED = {
    "evaluator": ("EvaluatorError", "FunctionHandle", "estimate_derivative"),
    "counterexample": ("CounterexampleError", "GroupFunction", "MultiplicativeGroup",
                       "PhiOnInterval", "find_exponent", "run_case", "run_search",
                       "verify_counterexample"),
}


@functools.cache
def _bind_deferred():
    """Bind every _DEFERRED name as a module attribute, keeping one that is
    already set (a caller's patch); later calls do nothing."""
    for module, names in _DEFERRED.items():
        source = importlib.import_module(f".{module}", __package__)
        for name in names:
            globals().setdefault(name, getattr(source, name))


def __getattr__(name):
    """cli.find_exponent and the other _DEFERRED names, bound on first use;
    any other missing name (a dunder probe among them) imports nothing."""
    if not any(name in names for names in _DEFERRED.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_deferred()
    return globals()[name]


# Largest derivative order the CLI builds a stencil for, and so at most
# MAX_ORDER + 1 nodes: a larger -n or --nodes list exits 2 before any build.
# It also bounds derive's signpowN power and poly: degree and the endpoints
# of counterexample's --interval.
MAX_ORDER = 200

# Most digits a rational input may have, counted as the characters of its
# text with any decimal exponent written out (1e-400 counts 401).  That count
# bounds its numerator and denominator, so an input such as 5e5000 exits 2
# before its height reaches a build; every double's short form fits.  An
# integer list entry and signpowN's N are held to as many characters.
MAX_DIGITS = 1000


def _bounded(convert):
    """The argparse type convert(text) for text of at most MAX_DIGITS
    characters.  Longer text raises OverflowError before convert runs,
    which argparse lets through to main's one-line exit 2; a shorter bad
    text gets argparse's own message, which names the type."""
    def parse(text: str):
        if len(text) > MAX_DIGITS:
            raise OverflowError(f"{convert.__name__} value {_abbreviated(text)} has more "
                                f"than {MAX_DIGITS} characters")
        return convert(text)

    parse.__name__ = convert.__name__
    return parse


def _parse_rational(text: str) -> Fraction:
    """parse_rational, once the text is known to hold at most MAX_DIGITS digits."""
    s = text.strip()
    mantissa, e, exponent = s.lower().partition("e")
    digits = len(s)
    if e and digits <= MAX_DIGITS:
        with suppress(ValueError):  # parse_rational rejects a malformed exponent
            digits = len(mantissa) + abs(int(exponent))
    if digits > MAX_DIGITS:
        raise StencilError(f"rational {_abbreviated(s)} has more than {MAX_DIGITS} digits")
    return parse_rational(text)


def _parse_rational_list(text: str) -> list[Fraction]:
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise StencilError("empty rational list")
    return [_parse_rational(t) for t in items]


def _parse_int_list(text: str) -> list[int]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    for t in items:
        if len(t) > MAX_DIGITS:
            raise StencilError(f"integer {_abbreviated(t)} has more than {MAX_DIGITS} digits")
    try:
        return [int(t) for t in items]
    except ValueError as exc:
        raise StencilError(f"bad integer list {_abbreviated(text)!r}") from exc


def _bound_order(order: int):
    if order > MAX_ORDER:
        raise StencilError(f"-n {_abbreviated(str(order))} exceeds the largest supported "
                           f"order {MAX_ORDER}")


def _parse_nodes(text: str) -> list[Fraction]:
    nodes = _parse_rational_list(text)
    if len(nodes) > MAX_ORDER + 1:
        raise StencilError(f"--nodes has {len(nodes)} entries, more than the "
                           f"{MAX_ORDER + 1} of the largest supported order {MAX_ORDER}")
    return nodes


def _parse_function(text: str) -> FunctionHandle:
    _bind_deferred()
    if text.startswith("poly:"):
        coeffs = _parse_rational_list(text[len("poly:"):])
        if len(coeffs) > MAX_ORDER + 1:
            raise EvaluatorError(f"poly: has {len(coeffs)} coefficients, more than the "
                                 f"{MAX_ORDER + 1} of the largest supported degree {MAX_ORDER}")
        return FunctionHandle.rational_polynomial(coeffs)
    power = text[len("signpow"):] if text.startswith("signpow") else ""
    if len(power) > MAX_DIGITS:
        raise EvaluatorError(f"signpow{_abbreviated(power)} has more than {MAX_DIGITS} digits")
    f = FunctionHandle.builtin(text)
    if f.power is not None and f.power > MAX_ORDER:
        raise EvaluatorError(f"signpow{_abbreviated(str(f.power))} exceeds the largest "
                             f"supported power {MAX_ORDER}")
    return f


def _build_stencil(args) -> Stencil:
    kind = args.kind
    if kind in GAUSSIAN_BUILDERS:
        if args.q is None:
            raise StencilError(f"--kind {kind} requires -q")
        q = _parse_rational(args.q)
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


def cmd_stencil(args) -> int:
    s = _build_stencil(args)
    if args.output == "json":
        print(stencil_to_json(s))
    elif args.output == "csv":
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
    _bind_deferred()
    f = _parse_function(args.function)
    x, h0, ratio = (_parse_rational(t) for t in (args.at, args.h0, args.ratio))
    s = _build_stencil(args)
    table = estimate_derivative(s, f, x, h0=h0, ratio=ratio, steps=args.steps,
                                two_sided=not args.one_sided)
    if args.output == "json":
        print(json.dumps(table.to_jsonable(), indent=2, allow_nan=False))
    elif args.output == "text":
        for h, qt, d in table.rows:
            delta = "" if d is None else f"  delta={float(d)!r}"
            print(f"h={float(h)!r}  quotient={float(qt)!r}{delta}")
        print(table.verdict_line())
    else:
        print(table.to_csv())
    return 0 if table.verdict == "converged" else 3


def cmd_counterexample(args) -> int:
    _bind_deferred()
    if args.case and args.custom:
        raise CounterexampleError("--case and --custom are mutually exclusive")
    if args.case:
        if args.case in SEARCH_CASES:
            report = run_search(args.case)
            print(json.dumps(report, indent=2))
            # An empty search is this case's expected conclusion; finding an
            # admissible character would contradict it.
            return 0 if report["admissible"] == 0 else 1
        report = run_case(args.case)
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
    interval = _parse_int_list(args.interval)
    if not all(0 <= v <= MAX_ORDER for v in interval):
        raise CounterexampleError(f"--interval endpoints must lie in [0, {MAX_ORDER}]")
    window = PhiOnInterval.of(stencil, group, character, interval)
    lo, hi = window.interval
    if args.exponent is not None and not lo <= args.exponent <= hi:
        raise CounterexampleError(f"--exponent {args.exponent} lies outside --interval [{lo}, {hi}]")
    s_star = find_exponent(window) if args.exponent is None else args.exponent
    f = GroupFunction(group, character, s_star)
    report = verify_counterexample(stencil, f, args.lower_order, window)
    print(report.to_json())
    return 0 if report.passed() else 1


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a bad choice, an ambiguous --option=value and
    the first ten stray arguments are echoed as _abbreviated cuts them,
    --option=-- passes the value "--" on, and -7/4, -1e-3 or -.5 is a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            value = _abbreviated(value)
        super()._check_value(action, value)

    def _parse_optional(self, arg_string):
        option, sep, value = arg_string.partition("=")
        if (arg_string.startswith("--") and sep and option not in self._option_string_actions
                and len(self._get_option_tuples(arg_string)) > 1):
            arg_string = f"{option}={_abbreviated(value)}"
        return super()._parse_optional(arg_string)

    def _get_values(self, action, arg_strings):
        if action.nargs is None and arg_strings == ["--"]:  # --opt=--, which argparse empties
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            more = " ..." if len(extras) > 10 else ""
            self.error(f"unrecognized arguments: {' '.join(map(_abbreviated, extras[:10]))}{more}")
        return args


def _add_stencil_arguments(p):
    """The stencil-selecting flags shared by the stencil and derive commands."""
    p.add_argument("--kind", choices=(*GAUSSIAN_BUILDERS, *CLASSICAL_BUILDERS, "custom"), required=True)
    p.add_argument("-n", "--order", type=_bounded(int))
    p.add_argument("-q", help="ratio as 'p/r' (gaussian kinds only)")
    p.add_argument("--nodes", help="comma-separated rational nodes (custom kind only)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Return the CLI parser, built on the first call (not at import) and
    shared by every later call in the process; callers must not mutate it.
    It only maps argv to a namespace: main picks the command function by
    the parsed command name when the command runs."""
    parser = _Parser(
        prog="qriemann",
        description="Geometric-node difference stencils, derivative estimation, "
                    "and group-supported counterexample checks, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stencil", help="build a stencil and print it")
    _add_stencil_arguments(p)
    p.add_argument("--output", choices=("json", "csv", "text"), default="json")

    p = sub.add_parser("verify", help="run the exact-identity suites")
    p.add_argument("--max-n", type=_bounded(int), default=8, help="stencil-grid order cap, 1..12")
    p.add_argument("--q-list", default=",".join(map(format_rational, DEFAULT_Q_GRID)),
                   help="comma-separated rational ratios for the stencil grids")
    p.add_argument("--seed", type=_bounded(int), default=DEFAULT_SEED)
    p.add_argument("--output", choices=("json", "text"), default="text")

    p = sub.add_parser("derive", help="estimate a derivative from a convergence table")
    _add_stencil_arguments(p)
    p.add_argument("--function", required=True,
                   help="sin | cos | exp | abs | signpowN | poly:c0,c1,...")
    p.add_argument("--at", default="0", help="expansion point (rational or decimal)")
    p.add_argument("--h0", default="1/10", help="initial step (rational or decimal)")
    p.add_argument("--ratio", default="1/2", help="step shrink factor in (0,1)")
    p.add_argument("--steps", type=_bounded(int), default=20)
    p.add_argument("--one-sided", action="store_true",
                   help="keep every step positive instead of alternating signs")
    p.add_argument("--output", choices=("csv", "json", "text"), default="csv")

    p = sub.add_parser("counterexample", help="reproduce or search the separations")
    p.add_argument("--case", choices=tuple(sorted(NAMED_CASES)) + tuple(sorted(SEARCH_CASES)))
    p.add_argument("--custom", action="store_true")
    p.add_argument("--nodes", help="comma-separated rational nodes (custom)")
    p.add_argument("-n", "--order", type=_bounded(int), help="derivative order (custom)")
    p.add_argument("--generators", help="comma-separated primes up to 10**9 (custom)")
    p.add_argument("--character", help="comma-separated bits (custom)")
    p.add_argument("--interval", help=f"LO,HI integer exponent bracket in [0, {MAX_ORDER}] (custom)")
    p.add_argument("--exponent", type=_bounded(float), default=None,
                   help="use this exponent, within --interval, instead of locating a root (custom)")
    p.add_argument("--lower-order", type=_bounded(int), default=None,
                   help="claimed intact differentiability order (custom)")
    p.add_argument("--seed", type=_bounded(int), default=DEFAULT_SEED,
                   help="accepted; has no effect on counterexample reports")

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
    except OverflowError as exc:  # a flag value too long to convert, from _bounded
        print(f"error: {exc}", file=sys.stderr)
        return 2
    commands = {"stencil": cmd_stencil, "verify": cmd_verify,
                "derive": cmd_derive, "counterexample": cmd_counterexample}
    try:
        return commands[args.command](args)
    except ValueError as exc:  # CounterexampleError, StencilError and EvaluatorError among them
        print(f"error: {exc}", file=sys.stderr)
        # a strict sign-change precondition failure is a verdict, not a usage
        # slip; only a loaded counterexample module can have raised one
        counterexample = sys.modules.get(f"{__package__}.counterexample")
        return 3 if counterexample and isinstance(exc, counterexample.NoSignChangeError) else 2


if __name__ == "__main__":
    sys.exit(main())
