"""Seeded operation streams for the three workloads, how to run each
operation, and how to check its output against the oracles.

An operation ("op") is a plain dict of strings and integers, so the same
seed gives the identical op list and the list can be dumped as JSON.  Ops
come in rounds: every round of a workload holds the same strata (op type,
stencil kind, function class) in a shuffled order, and sizes are dealt from
shuffled decks, so run-to-run differences come from the seeded values and
not from a drifting mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import oracles as orc

WORKLOADS = ("algebra", "derive", "counterexample")

STENCIL_KINDS = ("forward", "shifted", "symmetric", "mz", "riemann", "riemann-symmetric", "custom")
GAUSSIAN = ("forward", "shifted", "symmetric")

SUITES = {
    "pascal": "pascal_suite",
    "qbinomial-consistency": "qbinomial_consistency_suite",
    "qbinomial-product": "qbinomial_product_suite",
    "qbinomial-specialized": "qbinomial_specialized_suite",
    "qbinomial-squared": "qbinomial_squared_suite",
    "closed-vs-solver": "closed_vs_solver_suite",
    "recursion": "recursion_suite",
    "scaling": "scaling_suite",
}

# The packaged cases as documented: stencil nodes, order, generators and
# exponent interval.
NAMED = {
    "prop25": ([1, 2, 3], 2, (2, 3), (1, 3)),
    "thm32a": (list(range(8)), 7, (2, 3, 5, 7), (6, 7)),
    "thm32-n5": ([-5, -3, -1, 1, 3, 5], 5, (3, 5), (3, 4)),
    "thm32-n6": (list(range(-3, 4)), 6, (2, 3), (4, 5)),
    "thm32-n7": ([-7, -5, -3, -1, 1, 3, 5, 7], 7, (3, 5, 7), (5, 7)),
    "thm32-n8": (list(range(-4, 5)), 8, (2, 3), (7, 8)),
}
SEARCH_N9 = (list(range(-9, 10, 2)), 9, (3, 5, 7), (7, 9))
PRIMES = (2, 3, 5, 7)

# failure classes; "verdict_miss" is derive's known defect: a nonexistence
# verdict (exit 3) for a quotient whose limit exists
ERROR, WRONG, VERDICT_MISS = "error", "wrong", "verdict_miss"


def fmt(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Deck:
    """Deals every value once per pass, in a fresh seeded order each pass."""

    def __init__(self, rng: random.Random, values):
        self.rng, self.values, self.pile = rng, list(values), []

    def deal(self):
        if not self.pile:
            self.pile = self.values[:]
            self.rng.shuffle(self.pile)
        return self.pile.pop()


def small_q(rng: random.Random) -> Fraction:
    """A ratio of small height, never 0, 1 or -1."""
    while True:
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if q not in (0, 1, -1):
            return q


def distinct_rationals(rng: random.Random, count: int, span: int, den: int) -> list[Fraction]:
    pool = sorted({Fraction(p, d) for p in range(-span, span + 1) for d in range(1, den + 1)})
    return sorted(rng.sample(pool, count))


# -- op generators ---------------------------------------------------------------


class AlgebraStream:
    """Exact-algebra ops: the eight verify suites and stencil builds of every
    kind at n in [8, 30]."""

    def __init__(self, rng):
        self.rng = rng
        self.max_n = {s: Deck(rng, range(6, 13)) for s in SUITES}
        self.order = {k: Deck(rng, range(8, 31)) for k in STENCIL_KINDS + ("recursive", "solve", "scale")}

    def round(self) -> list[dict]:
        rng, ops = self.rng, []
        for suite in SUITES:
            ops.append(self.suite_op(suite, self.max_n[suite].deal()))
        for kind in STENCIL_KINDS:
            n = self.order[kind].deal()
            argv = ["stencil", f"--kind={kind}", f"-n{n}", f"--output={rng.choice(('json', 'csv', 'text'))}"]
            if kind in GAUSSIAN:
                argv.append(f"-q{fmt(small_q(rng))}")
            if kind == "custom":
                argv.append("--nodes=" + ",".join(fmt(a) for a in distinct_rationals(rng, n + 1, 2 * n, 3)))
            ops.append({"op": "cli", "label": f"stencil.{kind}", "argv": argv})
        for family in GAUSSIAN:
            ops.append({"op": "recursive_build", "label": "recursive_build", "family": family,
                        "n": self.order["recursive"].deal(), "q": fmt(small_q(rng))})
        n = self.order["solve"].deal()
        ops.append({"op": "custom_solve", "label": "custom_solve", "n": n,
                    "nodes": [fmt(a) for a in distinct_rationals(rng, n + 1, 2 * n, 3)]})
        ops.append({"op": "scale_roundtrip", "label": "scale_roundtrip", "family": rng.choice(GAUSSIAN),
                    "n": self.order["scale"].deal(), "q": fmt(small_q(rng)),
                    "r": fmt(Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5)))})
        rng.shuffle(ops)
        return ops

    def suite_op(self, suite: str, max_n: int) -> dict:
        rng = self.rng
        params = {"max_n": max_n}
        if suite == "qbinomial-consistency":
            params["cross_check_n"] = max_n
        elif suite == "qbinomial-product":
            params.update(count=20, seed=rng.randrange(2**31))
        elif suite == "qbinomial-specialized":
            params.update(q_count=2, seed=rng.randrange(2**31))
        elif suite == "qbinomial-squared":
            params = {"max_m": max_n, "q_count": 4, "seed": rng.randrange(2**31)}
        elif suite in ("closed-vs-solver", "recursion", "scaling"):
            grid = set()
            while len(grid) < 2:
                grid.add(small_q(rng))
            params["q_grid"] = [fmt(q) for q in sorted(grid)]
        if suite == "scaling":
            params.update(max_n=min(max_n, 8), seed=rng.randrange(2**31), random_count=10)
        return {"op": "suite", "label": f"suite.{suite}", "suite": suite, "params": params}


class DeriveStream:
    """Derive jobs over all seven kinds: mostly sin/cos/exp, then
    polynomials and abs/signpowN at 0 and away from 0; a few direct
    recursive_quotient calls."""

    CLASSES = ("sin", "cos", "exp", "trig", "poly", "rough0", "rough")

    def __init__(self, rng):
        self.rng = rng
        self.order = {k: Deck(rng, range(1, 13)) for k in STENCIL_KINDS}
        self.steps = Deck(rng, (20, 40, 60))
        self.rq_order = Deck(rng, range(1, 9))

    def round(self) -> list[dict]:
        rng, ops = self.rng, []
        for kind in STENCIL_KINDS:
            for cls in self.CLASSES:
                ops.append(self.derive_op(kind, cls))
        for family in GAUSSIAN + (rng.choice(GAUSSIAN),):
            ops.append(self.quotient_op(family))
        rng.shuffle(ops)
        return ops

    def function(self, cls: str, n: int) -> tuple[str, Fraction]:
        rng = self.rng
        if cls in ("sin", "cos", "exp", "trig"):
            name = rng.choice(("sin", "cos", "exp")) if cls == "trig" else cls
            return name, Fraction(rng.randint(-12, 12), rng.randint(4, 8))
        if cls == "poly":
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, n + 3))]
            return "poly:" + ",".join(fmt(c) for c in coeffs), Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        name = "abs" if rng.random() < 0.3 else f"signpow{rng.randint(1, min(n + 2, 8))}"
        if cls == "rough0":
            return name, Fraction(0)
        return name, rng.choice((-1, 1)) * Fraction(rng.randint(1, 8), rng.randint(2, 4))

    def derive_op(self, kind: str, cls: str) -> dict:
        rng = self.rng
        n = self.order[kind].deal()
        fn, x = self.function(cls, n)
        out = rng.choice(("csv", "json", "text"))
        argv = ["derive", f"--kind={kind}", f"-n{n}", f"--function={fn}", f"--at={fmt(x)}",
                f"--steps={self.steps.deal()}", f"--output={out}"]
        if kind in GAUSSIAN:
            argv.append(f"-q{fmt(small_q(rng))}")
        if kind == "custom":
            argv.append("--nodes=" + ",".join(fmt(a) for a in distinct_rationals(rng, n + 1, n + 2, 2)))
        return {"op": "cli", "label": f"derive.{cls}", "argv": argv}

    def quotient_op(self, family: str) -> dict:
        rng = self.rng
        n = self.rq_order.deal()
        fn, x = self.function(rng.choice(("sin", "cos", "exp", "poly", "rough", "rough0")), n)
        return {"op": "recursive_quotient", "label": "recursive_quotient", "family": family, "n": n,
                "q": fmt(small_q(rng)), "function": fn, "x": fmt(x),
                "h": fmt(Fraction(rng.choice((-1, 1)), rng.choice((10, 20, 50, 100))))}


class CounterexampleStream:
    """The six packaged cases with a fresh seed each, the n=9 search, and
    --custom packages on packaged and random node sets."""

    # Latencies cluster by case (prop25 about 20 ms, the order-5/6 cases
    # about 50, order 7/8 about 60, thm32a about 80; search-n9 and customs
    # without a sign change a few ms).  These weights put the median and the
    # 90th percentile inside a cluster rather than on the gap between two.
    CASE_WEIGHTS = {"prop25": 2, "thm32a": 4, "thm32-n5": 2, "thm32-n6": 2, "thm32-n7": 2, "thm32-n8": 2}

    def __init__(self, rng):
        self.rng = rng

    def round(self) -> list[dict]:
        rng, ops = self.rng, []
        for case, weight in self.CASE_WEIGHTS.items():
            for _ in range(weight):
                ops.append({"op": "cli", "label": f"case.{case}",
                            "argv": ["counterexample", f"--case={case}", f"--seed={rng.randrange(2**31)}"]})
        ops.append({"op": "cli", "label": "case.search-n9", "argv": ["counterexample", "--case=search-n9"]})
        stencils = list(NAMED.values()) + [SEARCH_N9]
        for _ in range(2):
            nodes, n, _, _ = rng.choice(stencils)
            ops.append(self.custom_op([Fraction(a) for a in nodes], n, "custom.packaged"))
        for _ in range(2):
            pool = [a for a in range(-6, 10) if a != 1]
            nodes = sorted(rng.sample(pool, rng.randint(2, 6)) + [1])
            ops.append(self.custom_op([Fraction(a) for a in nodes], len(nodes) - 1, "custom.random"))
        rng.shuffle(ops)
        return ops

    def custom_op(self, nodes, n: int, label: str) -> dict:
        rng = self.rng
        gens = sorted(rng.sample(PRIMES, rng.randint(1, 3)))
        lo = rng.randint(0, n - 1)
        hi = rng.randint(lo + 1, n)
        argv = ["counterexample", "--custom", "--nodes=" + ",".join(fmt(a) for a in nodes), f"-n{n}",
                "--generators=" + ",".join(map(str, gens)),
                "--character=" + ",".join(str(rng.randint(0, 1)) for _ in gens),
                f"--interval={lo},{hi}", f"--lower-order={lo}", f"--seed={rng.randrange(2**31)}"]
        return {"op": "cli", "label": label, "argv": argv}


STREAMS = {"algebra": AlgebraStream, "derive": DeriveStream, "counterexample": CounterexampleStream}


def stream(workload: str, seed: int):
    """An endless, seeded sequence of rounds for one workload."""
    gen = STREAMS[workload](random.Random(f"{workload}:{seed}"))
    while True:
        yield gen.round()


def rounds(workload: str, seed: int, count: int) -> list[list[dict]]:
    it = stream(workload, seed)
    return [next(it) for _ in range(count)]


# -- running an op ------------------------------------------------------------------


def argv_flags(argv) -> dict:
    """--key=value / -nN / -qQ flags of a generated argv, as a dict."""
    out = {}
    for a in argv[1:]:
        if a.startswith("--"):
            key, _, val = a[2:].partition("=")
            out[key] = val if val else True
        elif a[:2] in ("-n", "-q"):
            out[a[1]] = a[2:]
    return out


def prepare(op: dict, lib):
    """Turn an op into a zero-argument callable; conversions happen here,
    outside the timed region, and library names are looked up on their
    modules when the op runs."""
    kind = op["op"]
    if kind == "cli":
        argv = list(op["argv"])

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = lib.cli.main(argv)
            return rc, out.getvalue()
        return run
    if kind == "suite":
        p = dict(op["params"])
        if "q_grid" in p:
            p["q_grid"] = tuple(orc.frac(q) for q in p["q_grid"])
        name = SUITES[op["suite"]]
        return lambda: getattr(lib.verify, name)(**p)
    if kind == "recursive_build":
        family, n, q = op["family"], op["n"], orc.frac(op["q"])
        return lambda: lib.stencil.recursive_build(family, n, q)
    if kind == "custom_solve":
        nodes, n = [orc.frac(a) for a in op["nodes"]], op["n"]
        return lambda: lib.stencil.vandermonde_solve(nodes, n)
    if kind == "scale_roundtrip":
        build = getattr(lib.stencil, f"gaussian_{op['family']}")
        n, q, r = op["n"], orc.frac(op["q"]), orc.frac(op["r"])

        def run():
            s = build(n, q)
            t = lib.stencil.scale(s, r)
            return s, t, lib.stencil.scale(t, 1 / r)
        return run
    if kind == "recursive_quotient":
        name = op["function"]
        handle = (lib.evaluator.FunctionHandle.rational_polynomial([orc.frac(c) for c in name[5:].split(",")])
                  if name.startswith("poly:") else lib.evaluator.FunctionHandle.builtin(name))
        args = (op["family"], op["n"], orc.frac(op["q"]), handle, orc.frac(op["x"]), orc.frac(op["h"]))
        return lambda: lib.evaluator.recursive_quotient(*args)
    raise ValueError(f"unknown op type {kind!r}")


# -- checking an op -------------------------------------------------------------------


def check(op: dict, result) -> tuple[str | None, str]:
    """(None, '') when the output matches the oracle, else (class, detail)."""
    kind = op["op"]
    try:
        if kind == "cli":
            rc, text = result
            if rc not in (0, 1, 2, 3):
                return ERROR, f"exit code {rc} outside the 0/1/2/3 contract"
            sub = op["argv"][0]
            return {"stencil": check_cli_stencil, "derive": check_cli_derive,
                    "counterexample": check_cli_counterexample}[sub](op, rc, text)
        return {"suite": check_suite, "recursive_build": check_recursive_build,
                "custom_solve": check_custom_solve, "scale_roundtrip": check_scale_roundtrip,
                "recursive_quotient": check_recursive_quotient}[kind](op, result)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError) as exc:
        return WRONG, f"unreadable output: {type(exc).__name__}: {exc}"


def ok(fault: str | None):
    return (None, "") if fault is None else (WRONG, fault)


def stencil_expectation(flags: dict) -> tuple[int, list]:
    n = int(flags["n"])
    q = orc.frac(flags["q"]) if "q" in flags else None
    nodes = [orc.frac(a) for a in flags["nodes"].split(",")] if "nodes" in flags else None
    return n, orc.expected_nodes(flags["kind"], n, q, nodes)


def check_cli_stencil(op, rc, text):
    if rc != 0:
        return WRONG, f"exit {rc}"
    flags = argv_flags(op["argv"])
    n, expect = stencil_expectation(flags)
    order, nodes, coeffs, extra = orc.parse_stencil_output(text, flags["output"])
    if order is not None and order != n:
        return WRONG, "wrong order"
    if flags["output"] == "text" and extra["moment_line"] != "moment conditions: all satisfied":
        return WRONG, "text output reports violated moments"
    return ok(orc.check_stencil(nodes, coeffs, n, expect))


def check_recursive_build(op, s):
    n, q = op["n"], orc.frac(op["q"])
    if s.order != n or s.kind != f"gaussian_{op['family']}" or s.q != q:
        return WRONG, "wrong order, kind or q"
    return ok(orc.check_stencil(s.nodes, s.coeffs, n, orc.expected_nodes(op["family"], n, q)))


def check_custom_solve(op, s):
    nodes = [orc.frac(a) for a in op["nodes"]]
    if s.order != op["n"]:
        return WRONG, "wrong order"
    return ok(orc.check_stencil(s.nodes, s.coeffs, op["n"], orc.expected_nodes("custom", op["n"], nodes=nodes)))


def check_scale_roundtrip(op, result):
    s, t, u = result
    n, q, r = op["n"], orc.frac(op["q"]), orc.frac(op["r"])
    expect = orc.expected_nodes(op["family"], n, q)
    fault = orc.check_stencil(s.nodes, s.coeffs, n, expect)
    if fault is None:
        fault = orc.check_stencil(t.nodes, t.coeffs, n, sorted(r * a for a in expect))
    if fault is None and (u.nodes, u.coeffs, u.kind, u.q, u.order) != (s.nodes, s.coeffs, s.kind, s.q, s.order):
        fault = "scale round trip changed the stencil"
    return ok(fault)


def check_suite(op, res):
    expect = orc.suite_check_count(op["suite"], op["params"])
    if res.failed:
        return WRONG, f"{res.failed} failed checks"
    if res.passed != expect:
        return WRONG, f"{res.passed} checks run, {expect} expected"
    return None, ""


def check_cli_derive(op, rc, text):
    if rc not in (0, 3):
        return WRONG, f"exit {rc}"
    flags = argv_flags(op["argv"])
    n, expect = stencil_expectation(flags)
    fn = orc.parse_function(flags["function"])
    x = orc.frac(flags["at"])
    exists, limit = orc.derivative_limit(fn, n, x, expect, orc.weights(expect, n))
    verdict, value, rows = orc.parse_verdict(text, flags["output"])
    if (rc == 0) != (verdict == "converged"):
        return WRONG, "exit code disagrees with the verdict"
    if rows < 2:
        return WRONG, "fewer than two rows"
    if not exists:
        return (None, "") if rc == 3 else (WRONG, "converged where no limit exists")
    if rc == 3:
        return VERDICT_MISS, f"{verdict} where the limit exists"
    exact_equal = fn[0] == "poly" and len(fn[1]) - 1 <= n
    if not orc.value_matches(value, limit, exact_equal):
        return WRONG, f"converged to {value!r}, expected {float(limit)!r}"
    return None, ""


def check_recursive_quotient(op, got):
    fam = op["family"]
    n, q = op["n"], orc.frac(op["q"])
    nodes = orc.expected_nodes(fam, n, q)
    fn = orc.parse_function(op["function"])
    expect, scale = orc.direct_quotient(fn, nodes, orc.weights(nodes, n), n, orc.frac(op["x"]), orc.frac(op["h"]))
    return ok(None if orc.quotient_matches(got, expect, scale) else f"quotient {got!r} off the direct sum")


def _custom_spec(flags):
    nodes = [orc.frac(a) for a in flags["nodes"].split(",")]
    n = int(flags["n"])
    gens = tuple(int(g) for g in flags["generators"].split(","))
    char = tuple(int(c) for c in flags["character"].split(","))
    lo, hi = (int(v) for v in flags["interval"].split(","))
    return nodes, n, gens, char, (lo, hi)


def check_package(report: dict, nodes, n, gens, interval) -> str | None:
    """The common facts of a verified package's JSON report."""
    st = report["stencil"]
    fault = orc.check_stencil([orc.frac(a) for a in st["nodes"]], [orc.frac(c) for c in st["coeffs"]], n,
                              sorted(Fraction(a) for a in nodes))
    if fault:
        return "stencil: " + fault
    if tuple(report["generators"]) != tuple(gens) or tuple(report["exponent_interval"]) != tuple(interval):
        return "wrong generators or interval"
    terms = orc.raw_phi([orc.frac(a) for a in st["nodes"]], [orc.frac(c) for c in st["coeffs"]],
                        gens, report["character"])
    printed = [(orc.frac(t["coeff"]), orc.frac(t["base"])) for t in report["phi_terms"]]
    if sorted(b for _, b in printed) != sorted(b for _, b in terms):
        return "phi bases differ from the stencil's group nodes"
    raw = dict((b, c) for c, b in terms)
    if len({c / raw[b] for c, b in printed}) != 1:
        return "printed phi is not a multiple of the stencil's phi"
    lo, hi = interval
    if [orc.frac(v) for v in report["phi_endpoints"]] != [orc.phi_exact(printed, lo), orc.phi_exact(printed, hi)]:
        return "phi endpoints wrong"
    if not orc.is_root(terms, float(report["exponent"]), lo, hi):
        return f"exponent {report['exponent']!r} is not a root of phi in {interval}"
    return None


def check_cli_counterexample(op, rc, text):
    flags = argv_flags(op["argv"])
    if "case" in flags and flags["case"] == "search-n9":
        nodes, n, gens, (lo, hi) = SEARCH_N9
        report = json.loads(text)
        nodes = sorted(Fraction(a) for a in nodes)
        wts = orc.weights(nodes, n)
        flags_own = [orc.sign_change(orc.raw_phi(nodes, wts, gens, r["character"]), lo, hi)
                     for r in report["results"]]
        if len({tuple(r["character"]) for r in report["results"]}) != 2 ** len(gens):
            return WRONG, "search did not cover every character"
        if [r["sign_change"] for r in report["results"]] != flags_own or report["admissible"] != sum(flags_own):
            return WRONG, "search flags disagree with the endpoint signs"
        if report["admissible"] != 0 or rc != 0:
            return WRONG, "n=9 search found an admissible character"
        return None, ""
    if "case" in flags:
        nodes, n, gens, interval = NAMED[flags["case"]]
        if rc != 0:
            return WRONG, f"exit {rc}"
        report = json.loads(text)
        if not all(report["checks"].values()):
            return WRONG, f"checks failed: {report['checks']}"
        return ok(check_package(report, nodes, n, gens, interval))
    nodes, n, gens, char, (lo, hi) = _custom_spec(flags)
    terms = orc.raw_phi(nodes, orc.weights(nodes, n), gens, char)
    if not orc.sign_change(terms, lo, hi):
        return (None, "") if rc == 3 else (WRONG, f"exit {rc} without a sign change")
    if rc not in (0, 1):
        return WRONG, f"exit {rc} with a sign change of phi"
    report = json.loads(text)
    if (rc == 0) != all(report["checks"].values()):
        return WRONG, "exit code disagrees with the checks"
    fault = check_package(report, nodes, n, gens, (lo, hi))
    if fault:
        return WRONG, fault
    s = float(report["exponent"])
    checks = report["checks"]
    ratio = orc.residual_ratio(terms, s)
    if not 0.5 <= ratio <= 2 and checks["difference_vanishes"] != (ratio < 1):
        return WRONG, f"difference_vanishes={checks['difference_vanishes']} at residual ratio {ratio:.3g}"
    if not checks["lower_peano_bound"]:
        return WRONG, "lower Peano bound reported failing above a genuine root"
    if checks["nth_unbounded"] != (s < n):
        return WRONG, f"nth_unbounded={checks['nth_unbounded']} at s={s} n={n}"
    return None, ""
