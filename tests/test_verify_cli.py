"""Tests for the randomized identity suites and the command-line interface.

CLI tests drive cli.main() in-process (stdout captured via capsys) so exit
codes and output bytes are asserted directly; subprocess tests cover the
``python -m qriemann`` entry point and the three demos end to end.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qriemann import cli, counterexample, qcore, verify
from qriemann.counterexample import CounterexampleError, NoSignChangeError
from qriemann.evaluator import EvaluatorError, FunctionHandle
from qriemann.stencil import (
    CLASSICAL_BUILDERS,
    GAUSSIAN_BUILDERS,
    KINDS,
    ExcessNodesError,
    Stencil,
    StencilError,
    gaussian_forward,
    stencil_from_json,
    vandermonde_solve,
)
from qriemann.verify import (
    closed_vs_solver_suite,
    pascal_suite,
    qbinomial_consistency_suite,
    qbinomial_product_suite,
    qbinomial_specialized_suite,
    qbinomial_squared_suite,
    recursion_suite,
    run_all,
    scaling_suite,
)

F = Fraction

ROOT = Path(__file__).resolve().parents[1]
SUITE_NAMES = ["pascal", "qbinomial-consistency", "qbinomial-product", "qbinomial-specialized",
               "qbinomial-squared", "closed-vs-solver", "recursion", "scaling"]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# SHA-256 of each demo's stdout; the demos print seeded, exact results.
DEMO_STDOUT_SHA256 = {
    "demo_convergence.py": "eea0e24576432be0a067ba6de439971764ae49df6027adee507aade76c35dc6c",
    "demo_counterexamples.py": "22d63f3a8d78d3435f8028c4e2a0fd684b270b7d2e23e12a04092ecfe0de7fef",
    "demo_stencils.py": "f5d911052de37d42188f76a40d10f17c1d7aa2381d30820616cd99dad5c88b1f",
}


def _env_with_src() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


# ---------------------------------------------------------------------------
# Identity suites
# ---------------------------------------------------------------------------


class TestSuites:
    def test_run_all_green(self):
        results = run_all(max_n=6, seed=99)
        assert [r.name for r in results] == SUITE_NAMES
        for r in results:
            assert r.ok, r.summary()
            assert r.failed == 0
            assert r.passed > 0

    def test_pascal_suite_count(self):
        r = pascal_suite(max_n=20)
        # one check per (n, k), n = 2..20, k = 1..n-1
        assert r.passed == sum(n - 1 for n in range(2, 21)) == 190
        assert r.ok

    def test_product_suite_honors_count(self):
        r = qbinomial_product_suite(count=17, seed=3)
        assert r.total == 17 and r.ok

    def test_individual_suites_green(self):
        assert qbinomial_consistency_suite(max_n=8).ok
        assert qbinomial_specialized_suite(q_count=6, seed=11, max_n=8).ok
        assert qbinomial_squared_suite(q_count=6, seed=11, max_m=8).ok
        for suite in (closed_vs_solver_suite, recursion_suite):
            r = suite(max_n=6)
            assert r.ok, r.summary()
        r = scaling_suite(max_n=6, seed=11)
        assert r.ok, r.summary()

    @pytest.mark.parametrize("q_count, max_n", [(1, 1), (2, 5), (3, 8)])
    def test_collapse_suite_counts(self, q_count, max_n):
        # specialized: n + 2 checks per (q, n); squared: 2 per (q, m)
        r = qbinomial_specialized_suite(q_count=q_count, seed=5, max_n=max_n)
        assert r.total == q_count * (max_n * (max_n + 1) // 2 + 2 * max_n)
        r = qbinomial_squared_suite(q_count=q_count, seed=5, max_m=max_n)
        assert r.total == q_count * 2 * max_n

    @pytest.mark.parametrize("first, step", [(1, 1), (2, 2), (1, 2)])
    def test_qbinomial_sides_match_their_fraction_forms(self, first, step):
        # Each side against its term-by-term Fraction form: Horner over the
        # terms (-1)^k q^(first k) r^C(k,2) [N k]_r, and the plain product.
        for q in (F(-2), F(1, 3), F(-3, 7), F(5, 2), F(-9, 4)):
            for N in range(13):
                r = q**step
                terms = [(-1) ** k * q ** (first * k + step * math.comb(k, 2)) * qcore.q_binomial(N, k)(r)
                         for k in range(N + 1)]
                integer_terms = verify._qbinomial_terms(N, q**first, r)
                for a in (0, 1, -3, F(-5, 4), F(7, 3), q, q**N):
                    horner = F(0)
                    for t in terms:
                        horner = horner * a + t
                    product = math.prod((a - q ** (first + step * i) for i in range(N)), start=F(1))
                    got_sum = verify._qbinomial_sum(integer_terms, a)
                    got_product = verify._product_side(N, a, q**first, r)
                    assert type(got_sum) is F and type(got_product) is F
                    assert (got_sum, got_product) == (horner, product), (q, N, a)
                    assert got_sum == got_product, (q, N, a)

    def test_product_suite_sides_match_their_fraction_forms(self):
        # the product factor by factor and the expansion term by term in
        # Fraction, against the integer forms the suite compares
        values = (F(0), F(1), F(-3), F(5, 4), F(-7, 3), F(50, 49))
        for q in (F(-2), F(1, 3), F(-3, 7), F(5, 2), F(-50, 47)):
            for n in range(1, 13):
                for a in values:
                    for b in values:
                        product = math.prod((a - b * q**j for j in range(n)), start=F(1))
                        expansion = sum((coeff(q) * a**pa * b**pb
                                         for coeff, pa, pb in qcore.qbinomial_expand(n)), F(0))
                        coeffs = [coeff(q) for coeff, _, _ in qcore.qbinomial_expand(n)]
                        terms = verify._expanded_terms([(c.numerator, c.denominator)
                                                        for c in coeffs], b)
                        got = (verify._product_side(n, a, b, q), verify._qbinomial_sum(terms, a))
                        assert all(type(v) is F for v in got)
                        assert got == (product, expansion), (n, a, b, q)

    @pytest.mark.parametrize("fault", [
        lambda coeff, pa, pb: (coeff * 2, pa, pb),
        lambda coeff, pa, pb: (coeff, pb, pa),
    ], ids=["coefficient-doubled", "powers-swapped"])
    def test_product_suite_catches_a_wrong_expansion(self, monkeypatch, fault):
        # the k = 1 term of the n = 3 expansion with its coefficient off by a
        # factor 2, or with its powers of a and b swapped to a b^2
        real = verify.qbinomial_expand

        def faulty(n):
            terms = real(n)
            if n == 3:
                terms[1] = fault(*terms[1])
            return terms

        monkeypatch.setattr(verify, "qbinomial_expand", faulty)
        res = qbinomial_product_suite(count=48, seed=3)
        assert res.total == 48 and res.failed >= 1
        assert all(m.startswith("product expansion fails at n=3,") for m in res.failures)

    # (seed, passed, SHA-256 of summary()) of qbinomial_product_suite(count=100,
    # max_n=12) with the coefficient of the k = 1 term at n = 3 doubled, as the
    # suite read when it formed qbinomial_expand(n) at every check
    PRODUCT_SUITE_FAULT_PINS = [
        (1729, 91, "c03e1148e60127d5327b3f363e7d63db29663cacc47af7c451d3122972c37315"),
        (3, 92, "983bd75c213239b6e9afc09b5a934e573c9015db78d0056fa238c4a99e9c610f"),
    ]

    @pytest.mark.parametrize("seed, faulty_passed, faulty_sha256", PRODUCT_SUITE_FAULT_PINS)
    def test_product_suite_expands_each_n_once(self, monkeypatch, seed, faulty_passed,
                                               faulty_sha256):
        # one qbinomial_expand(n) per n in 1..12, with the draws, check count and
        # messages of the suite that expanded at every check
        real = verify.qbinomial_expand
        calls = []

        def counted(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(verify, "qbinomial_expand", counted)
        res = qbinomial_product_suite(count=100, seed=seed, max_n=12)
        assert sorted(calls) == list(range(1, 13))
        assert (res.passed, res.summary()) == (100, "qbinomial-product: ok (100 checks)")

        def doubled(n):
            terms = real(n)
            if n == 3:
                coeff, pa, pb = terms[1]
                terms[1] = (coeff * 2, pa, pb)
            return terms

        monkeypatch.setattr(verify, "qbinomial_expand", doubled)
        res = qbinomial_product_suite(count=100, seed=seed, max_n=12)
        assert res.passed == faulty_passed
        assert hashlib.sha256(res.summary().encode()).hexdigest() == faulty_sha256

    @pytest.mark.parametrize("helper", ["_qbinomial_sum", "_product_side"])
    def test_one_fault_fails_all_three_qbinomial_suites(self, monkeypatch, helper):
        # the three q-binomial suites form their sides through one integer
        # Horner and one integer product, so either one off by one fails
        # every check that reads it: all of them but the vanishing moments,
        # which compare the Horner with 0
        real = getattr(verify, helper)
        monkeypatch.setattr(verify, helper, lambda *args: real(*args) + 1)
        product = qbinomial_product_suite(count=24, seed=3)
        spec = qbinomial_specialized_suite(q_count=2, seed=5, max_n=5)
        sq = qbinomial_squared_suite(q_count=2, seed=5, max_m=5)
        vanishing = 2 * sum(range(5)) if helper == "_product_side" else 0
        assert (product.passed, spec.passed, sq.passed) == (0, vanishing, 0)
        assert (product.total, spec.total, sq.total) == (24, 50, 20)

    def test_scaling_suite_builds_once_per_random_draw(self, monkeypatch):
        # each random draw builds its stencil once and scales it twice:
        # by r for the moment check, and back by 1/r for the round trip
        counts = {"build": 0, "scale": 0}

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        for name in ("gaussian_forward", "gaussian_shifted", "gaussian_symmetric"):
            monkeypatch.setattr(verify, name, counted("build", getattr(verify, name)))
        monkeypatch.setattr(verify, "scale", counted("scale", verify.scale))
        seen = []
        for random_count in (0, 10):
            counts.update(build=0, scale=0)
            res = scaling_suite(max_n=2, seed=11, random_count=random_count)
            assert res.ok
            seen.append((res.total, counts["build"], counts["scale"]))
        (checks0, builds0, scales0), (checks, builds, scales) = seen
        assert (checks - checks0, builds - builds0, scales - scales0) == (20, 10, 20)

    def test_collapse_suites_catch_a_wrong_q_binomial(self, monkeypatch):
        # [3 1]_r off by r breaks every collapse at n = 4 and m = 4.
        real = verify.q_binomial

        def faulty(n, k):
            poly = real(n, k)
            return (lambda r: poly(r) + r) if (n, k) == (3, 1) else poly

        monkeypatch.setattr(verify, "q_binomial", faulty)
        spec = qbinomial_specialized_suite(q_count=2, seed=5, max_n=5)
        sq = qbinomial_squared_suite(q_count=2, seed=5, max_m=5)
        assert (spec.failed, sq.failed) == (12, 4)
        assert all("n=4" in m for m in spec.failures)
        assert all("m=4" in m for m in sq.failures)
        failures = "\n".join(spec.failures + sq.failures)
        for label in ("monic collapse", "a=1 collapse", "vanishing moment", "top moment",
                      "even-power", "odd-power"):
            assert label in failures

    def test_consistency_suite_catches_a_wrong_q_factorial(self, monkeypatch, capsys):
        # [7]! with its q^3 coefficient off by one: [7 k] for 0 < k < 7 leaves a
        # remainder, and so does every [n 7] and [n n-7] up to n = 12
        real = qcore.q_factorial

        def bumped(n):
            coeffs = real(n).coeffs
            return qcore.QPolynomial(c + (n == 7 and i == 3) for i, c in enumerate(coeffs))

        monkeypatch.setattr(qcore, "q_factorial", bumped)
        res = qbinomial_consistency_suite()
        assert res.failed == 6 + 2 * 5
        assert res.failures[:6] == [f"Pascal route != factorial route at n=7, k={k}"
                                    for k in range(1, 7)]
        assert not any(f"n={n}," in m for n in range(7) for m in res.failures)
        assert cli.main(["verify", "--max-n", "1", "--q-list", "2"]) == 1
        out = capsys.readouterr().out
        assert "qbinomial-consistency: FAILED (16 of 553 checks)" in out
        assert out.endswith("FAILED suites: qbinomial-consistency\n")

    def test_seed_reproducibility(self):
        a = qbinomial_product_suite(count=30, seed=1234)
        b = qbinomial_product_suite(count=30, seed=1234)
        assert (a.passed, a.failed, a.failures) == (b.passed, b.failed, b.failures)

    def test_max_n_validation(self):
        with pytest.raises(ValueError):
            run_all(max_n=0)
        with pytest.raises(ValueError):
            run_all(max_n=13)

    def test_summary_wording(self):
        r = pascal_suite(max_n=5)
        assert r.summary() == "pascal: ok (10 checks)"


# ---------------------------------------------------------------------------
# CLI: stencil
# ---------------------------------------------------------------------------


GOLDEN_FORWARD_3_2 = """\
{
  "order": 3,
  "kind": "gaussian_forward",
  "q": "2",
  "nodes": [
    "0",
    "1",
    "2",
    "4"
  ],
  "coeffs": [
    "-3/4",
    "2",
    "-3/2",
    "1/4"
  ]
}
"""


class TestCmdStencil:
    def test_forward_json_golden(self, capsys):
        code = cli.main(["stencil", "--kind", "forward", "-n", "3", "-q", "2",
                         "--output", "json"])
        assert code == 0
        assert capsys.readouterr().out == GOLDEN_FORWARD_3_2

    def test_default_output_is_json(self, capsys):
        code = cli.main(["stencil", "--kind", "symmetric", "-n", "4", "-q", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["coeffs"] == ["1", "-4", "6", "-4", "1"]

    def test_symmetric_text(self, capsys):
        code = cli.main(["stencil", "--kind", "symmetric", "-n", "4", "-q", "2",
                         "--output", "text"])
        assert code == 0
        out = capsys.readouterr().out
        assert "order 4 gaussian_symmetric q=2" in out
        assert "moment conditions: all satisfied" in out

    def test_custom_csv(self, capsys):
        code = cli.main(["stencil", "--kind", "custom", "-n", "1",
                         "--nodes", "0,1", "--output", "csv"])
        assert code == 0
        assert capsys.readouterr().out == "node,coeff\n0,-1\n1,1\n"

    def test_negative_fraction_q_joined_with_equals(self, capsys):
        # the joined form, which a separate -7/4 gives as well (TestNegativeValues)
        code = cli.main(["stencil", "--kind", "forward", "-n", "2", "-q=-7/4",
                         "--output", "csv"])
        assert code == 0
        assert capsys.readouterr().out == "node,coeff\n-7/4,32/77\n0,-8/7\n1,8/11\n"

    def test_riemann_kinds_take_no_q(self, capsys):
        assert cli.main(["stencil", "--kind", "riemann", "-n", "2"]) == 0
        assert cli.main(["stencil", "--kind", "riemann-symmetric", "-n", "3"]) == 0
        capsys.readouterr()
        assert cli.main(["stencil", "--kind", "riemann", "-n", "2", "-q", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_round_trip_bytes(self, capsys):
        cli.main(["stencil", "--kind", "shifted", "-n", "4", "-q", "5/3",
                  "--output", "json"])
        first = capsys.readouterr().out
        from qriemann.stencil import stencil_from_json, stencil_to_json

        assert stencil_to_json(stencil_from_json(first)) + "\n" == first

    def test_output_past_the_str_int_digit_limit(self, capsys):
        # the n = 100 forward stencil at q = 3/2 holds integers longer than
        # the interpreter's default 4300-digit limit on int <-> str
        code = cli.main(["stencil", "--kind", "forward", "-n", "100", "-q", "3/2",
                         "--output", "json"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert stencil_from_json(captured.out) == gaussian_forward(100, F(3, 2))

    def test_order_bound_is_checked_before_any_build(self, capsys, monkeypatch):
        built = []

        def forward(n, q):
            built.append(n)
            return gaussian_forward(2, q)

        monkeypatch.setitem(cli.GAUSSIAN_BUILDERS, "forward", forward)
        assert cli.MAX_ORDER == 200
        assert cli.main(["stencil", "--kind", "forward", "-n", "201", "-q", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: -n 201 exceeds the largest supported order 200\n"
        assert built == []
        assert cli.main(["derive", "--kind", "forward", "-n", "201", "-q", "2",
                         "--function", "sin"]) == 2
        assert built == []
        capsys.readouterr()
        assert cli.main(["stencil", "--kind", "forward", "-n", "200", "-q", "2"]) == 0
        assert built == [200]
        capsys.readouterr()

    @pytest.mark.parametrize("order,count,error", [
        (200, 201, None),
        (201, 202, "-n 201 exceeds the largest supported order 200"),
        (3, 202, "--nodes has 202 entries, more than the 201 of the largest supported order 200"),
        (2000, 2001, "-n 2000 exceeds the largest supported order 200"),
    ], ids=["n200-nodes201", "n201-nodes202", "n3-nodes202", "n2000-nodes2001"])
    def test_node_count_bound_is_checked_before_any_solve(self, capsys, monkeypatch,
                                                          order, count, error):
        solved = []
        monkeypatch.setattr(cli, "vandermonde_solve",
                            lambda nodes, n: solved.append((len(nodes), n)) or vandermonde_solve((0, 1), 1))
        nodes = "--nodes=" + ",".join(map(str, range(count)))
        code = cli.main(["stencil", "--kind", "custom", f"-n{order}", nodes])
        err = capsys.readouterr().err
        if error is None:
            assert (code, err, solved) == (0, "", [(count, order)])
            return
        assert (code, err, solved) == (2, f"error: {error}\n", [])
        assert cli.main(["counterexample", "--custom", f"-n{order}", nodes, "--generators=2",
                         "--character=1", "--interval=1,2", "--lower-order=1"]) == 2
        assert (capsys.readouterr().err, solved) == (f"error: {error}\n", [])

    def test_invalid_q_exit_2(self, capsys):
        code = cli.main(["stencil", "--kind", "forward", "-n", "3", "-q", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_nodes_for_custom_exit_2(self, capsys):
        code = cli.main(["stencil", "--kind", "custom", "-n", "2"])
        assert code == 2
        capsys.readouterr()

    def test_node_count_mismatch_exit_2(self, capsys):
        code = cli.main(["stencil", "--kind", "custom", "-n", "2",
                         "--nodes", "0,1"])
        assert code == 2
        capsys.readouterr()

    def test_duplicate_nodes_exit_2(self, capsys):
        code = cli.main(["stencil", "--kind", "custom", "-n", "1",
                         "--nodes", "1,1"])
        assert code == 2
        capsys.readouterr()

    def test_gaussian_kind_rejects_nodes_exit_2(self, capsys):
        code = cli.main(["stencil", "--kind", "forward", "-n", "2", "-q", "2",
                         "--nodes", "5,6,7"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--kind forward does not take --nodes" in captured.err

    def test_unknown_kind_usage_error(self, capsys):
        code = cli.main(["stencil", "--kind", "sideways", "-n", "2", "-q", "2"])
        assert code == 2
        capsys.readouterr()

    def test_every_kind_choice_builds_a_known_kind(self, capsys):
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        choices = [next(a for a in subparsers.choices[command]._actions if a.dest == "kind").choices
                   for command in ("stencil", "derive")]
        assert [tuple(c) for c in choices] == [("forward", "shifted", "symmetric", "mz", "riemann",
                                                 "riemann-symmetric", "custom")] * 2
        for name in choices[0]:
            argv = ["stencil", "--kind", name, "-n", "3"]
            if name in GAUSSIAN_BUILDERS:
                argv += ["-q", "2"]
                built = GAUSSIAN_BUILDERS[name](3, 2)
            elif name in CLASSICAL_BUILDERS:
                built = CLASSICAL_BUILDERS[name](3)
            else:
                argv += ["--nodes", "0,1,2,3"]
                built = vandermonde_solve((0, 1, 2, 3), 3)
            assert cli.main(argv) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["kind"] in KINDS and doc["kind"] == built.kind, name
            assert stencil_from_json(json.dumps(doc)) == built, name


# SHA-256 of the text stdout of the n = 100 forward stencil at q = 3/2, whose
# exact moment check is the costly part of the text output.
STENCIL_TEXT_FORWARD_100_SHA256 = "0b6d7366207ea43680e4d5f7ae482500ea9b08cab7d437f9f8a9d7016d93f8d1"


def test_stencil_text_bytes_are_pinned(capsys):
    code = cli.main(["stencil", "--kind=forward", "-n100", "-q3/2", "--output=text"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.endswith("moment conditions: all satisfied\n")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == STENCIL_TEXT_FORWARD_100_SHA256


# (flags, SHA-256 of the default JSON stdout) of `stencil`, one per kind
# besides forward (see GOLDEN_FORWARD_3_2), symmetric at odd and even n, and
# two Gaussian stencils at n = 40 and 41 with ratios of larger height.
STENCIL_JSON_SHA256 = {
    "shifted": (["--kind=shifted", "-n5", "-q3/2"],
                "0f6565f796950aae1088f4e8ed1db640fbee0d0aca7a1382094f505b0af9f30b"),
    "symmetric-odd": (["--kind=symmetric", "-n5", "-q=-7/4"],
                      "1600e2b9ef49a9607bc05dc1ce89fbde5e7a65ce7b8e33d531a92aed532fe5ef"),
    "symmetric-even": (["--kind=symmetric", "-n6", "-q2"],
                       "009d47b6165fbc6e49908cbbb3c836837891b5c32f5cb339b55d1ca74ddfef6a"),
    "mz": (["--kind=mz", "-n6"],
           "557831220041607bd5ca9d0690e83536a0230b531ab6b7fe7058de9a8f956999"),
    "riemann": (["--kind=riemann", "-n7"],
                "0f80691e1374f93b606471bc093e23b2abb26b53c9a5023f4649b590c2714dbf"),
    "riemann-symmetric": (["--kind=riemann-symmetric", "-n6"],
                          "5d276d750ace955cdee8922e98b556676c5b2339df2100c4bb3bb285cc19abd6"),
    "custom": (["--kind=custom", "-n3", "--nodes=-1,1/3,2,5"],
               "f218a7a5e62cdb424ae2a4c237359a04bfdd827b05cb77b3e6a0c8c6d3c8ef62"),
    "shifted-n40": (["--kind=shifted", "-n40", "-q31/29"],
                    "c6b95af5f57c703afb7e8589c16536d45fa73f1f51319d7da7f70df74fb0ad52"),
    "symmetric-n41": (["--kind=symmetric", "-n41", "-q=-7/4"],
                      "84cffb8d45e3e14b87b55e200285519576f24674117dc817de0be72cbc664985"),
}


@pytest.mark.parametrize("name", list(STENCIL_JSON_SHA256))
def test_stencil_json_bytes_are_pinned(capsys, name):
    flags, digest = STENCIL_JSON_SHA256[name]
    code = cli.main(["stencil", *flags])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# CLI: verify
# ---------------------------------------------------------------------------


# SHA-256 of the stdout of `verify` at the default seed and q grid; the
# default --max-n is 8, so the first two digests are the same report.
VERIFY_STDOUT_SHA256 = {
    "defaults": ([], "110d9e3a8de3d773948d26171e690349c2a0f34cd409527e3bd26a1ac99b7dcd"),
    "max-n-8": (["--max-n", "8"],
                "110d9e3a8de3d773948d26171e690349c2a0f34cd409527e3bd26a1ac99b7dcd"),
    "max-n-8-json": (["--max-n", "8", "--output", "json"],
                     "f2fc0949b489939cd32f1b09d0dd19393fa9aa5299d2392b5053684c5083f9fe"),
}


class TestCmdVerify:
    @pytest.mark.parametrize("name", list(VERIFY_STDOUT_SHA256))
    def test_stdout_bytes_are_pinned(self, capsys, name):
        flags, digest = VERIFY_STDOUT_SHA256[name]
        code = cli.main(["verify", *flags])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest

    def test_text_report(self, capsys):
        code = cli.main(["verify", "--max-n", "3", "--q-list", "2,-2"])
        assert code == 0
        out = capsys.readouterr().out
        for name in SUITE_NAMES:
            assert f"{name}: ok (" in out
        assert "all suites passed" in out

    def test_json_report(self, capsys):
        code = cli.main(["verify", "--max-n", "2", "--q-list", "2",
                         "--output", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [row["suite"] for row in doc] == SUITE_NAMES
        assert all(row["ok"] for row in doc)

    def test_seed_gives_identical_bytes(self, capsys):
        argv = ["verify", "--max-n", "4", "--q-list", "2,5/3", "--seed", "7",
                "--output", "json"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_bad_max_n_exit_2(self, capsys):
        assert cli.main(["verify", "--max-n", "13"]) == 2
        capsys.readouterr()

    def test_bad_q_list_exit_2(self, capsys):
        assert cli.main(["verify", "--max-n", "3", "--q-list", "2,1"]) == 2
        capsys.readouterr()

    def test_injected_fault_exit_1_names_suite(self, capsys, monkeypatch):
        def broken_forward(n, q):
            s = gaussian_forward(n, q)
            coeffs = list(s.coeffs)
            coeffs[0] *= F(1001, 1000)
            return Stencil(order=s.order, nodes=s.nodes, coeffs=tuple(coeffs),
                           kind=s.kind, q=s.q)

        monkeypatch.setattr("qriemann.verify.gaussian_forward", broken_forward)
        code = cli.main(["verify", "--max-n", "3", "--q-list", "2"])
        assert code == 1
        out = capsys.readouterr().out
        assert "closed-vs-solver: FAILED" in out


# ---------------------------------------------------------------------------
# CLI: derive
# ---------------------------------------------------------------------------


# (flags, SHA-256 of the CSV stdout) of `derive`: sin, cos and exp take the
# 60-digit path, the polynomials, signpow3 and abs the exact one.
DERIVE_CSV_SHA256 = {
    "forward-sin": (["--kind=forward", "-n3", "-q2", "--function=sin", "--at=0"],
                    "641614e1953bdc3d72ee9e326f9649b80cdf94bb05a49ae0d5d647a37766151a"),
    "symmetric-cos": (["--kind=symmetric", "-n4", "-q3", "--function=cos", "--at=-1/2"],
                      "68c312a0e80ce6e4991e0b8537cf772712a1827a6d238a2afd4bda1cc0416e7c"),
    "shifted-exp": (["--kind=shifted", "-n2", "-q=-2", "--function=exp", "--at=1", "--steps=40"],
                    "c1abc9966c1ee44af6bda14d368e55c62159e88c91ddc830488ada3ec54c560e"),
    "riemann-poly": (["--kind=riemann", "-n2", "--function=poly:1,5,1", "--at=1/2"],
                     "fe775b72f01a2f9d389ad1088fd38a75529a6fdcec9a8e0000b9ce868fb19a16"),
    "riemann-symmetric-signpow3": (["--kind=riemann-symmetric", "-n3", "--function=signpow3",
                                    "--at=0"],
                                   "5b3967f7b496f9afd040211b5ac5c16d108f84f3c5720d526ceb218cf8696f7b"),
    "mz-poly": (["--kind=mz", "-n2", "--function=poly:0,0,0,1", "--at=1/7", "--steps=40"],
                "501128f31cfb429eef70069193821ce550aff6571755530289d9e23ded279af1"),
    "custom-abs": (["--kind=custom", "-n1", "--nodes=-1,2", "--function=abs", "--at=1/7"],
                   "6215c0b6b7b1633affe1f0e8fb533074249e640433cec17644b5e28853e69e7e"),
}


# (flags, exit code, SHA-256 of the JSON stdout, SHA-256 of the text stdout)
# of `derive` on points of large height.  The custom nodes have 31-digit
# denominators, and x in symmetric-sin-tall-x has a 56-digit one: their
# points x + a_k h are quotients of integers wider than the 60-digit mpf
# precision, the latter only from the 16th row on.  The rows of
# forward-cos-far and custom-sin-31-digit-nodes come from the moment series:
# every one of them is the correctly rounded quotient, cos(123456.789) =
# 0.0516725... as h -> 0 in the former and -cos(1/3) in each row of the
# latter.  The poly and signpow5 rows sum exact values of degree 6 and 5
# down to h ~ 1e-8.  Every verdict is the exact limit, correctly rounded:
# signpow5 at 0 has Q(h) = O(h) under the order-4 stencil, so its limit is 0.
_D31 = "1" + "0" * 30
DERIVE_TALL_SHA256 = {
    "forward-cos-far": (["--kind=forward", "-n12", "-q31/29", "--function=cos",
                         "--at=123456789/1000"], 0,
                        "ca1366426dadc905f37aaa4f6c60996d23759294b241d41ec89933066a417bb8",
                        "21554da9d35b96f90d88e50eae93e4124e334d0145c26e2304ba281c7a5744dc"),
    "custom-sin-31-digit-nodes": (["--kind=custom", "-n3",
                                   f"--nodes=-1/{_D31}3,1/{_D31}1,2/{_D31}7,3/{_D31}9",
                                   "--function=sin", "--at=1/3"], 0,
                                  "8c37c3f47ddd5633e095e8f12a4aca1e74b3fbb50ff3528efda54b45c1f9d0e2",
                                  "e44e4a433c2fdc5bcce1453c22f6fcd4c37253a50f88c280990abeed21a3fc5d"),
    "symmetric-sin-tall-x": (["--kind=symmetric", "-n4", "-q=3/2", "--function=sin",
                              f"--at={10**55 + 7}/{3 * 10**55}"], 0,
                             "bd6301635e056827ddf0cb6a4b28ad7b6971b34068cc32b38c7bd3e4916d2946",
                             "fc1f76f373d24b613366cbcb072ece4b3d6dac7ab0b47bc77d3bb8d74d9dbdfd"),
    "shifted-poly6": (["--kind=shifted", "-n5", "-q5/3", "--function=poly:1,-2,3/4,0,5,-1/3,7/2",
                       "--at=-2/9", "--steps=60"], 0,
                      "df429df1834ae25931f9c9fd63c28e5104a6d374dcbb8a957eb9f440e05bba6d",
                      "79c4811dc6715482dcb7bab5de3e7b77ec408abd3bb3bfdd366fef28259542ee"),
    "riemann-signpow5": (["--kind=riemann", "-n4", "--function=signpow5", "--at=0",
                          "--steps=60"], 0,
                         "1f65ffcad7e88cdd5e1c5992fdf34a1fa933d2bad694761cbc0fa7d9aadedab3",
                         "ffba2e5de6c5f48c075a5977e95599a971648152264c0b9dd81e954e4fc58948"),
}


class TestCmdDerive:
    @pytest.mark.parametrize("name", list(DERIVE_CSV_SHA256))
    def test_csv_bytes_are_pinned(self, capsys, name):
        flags, digest = DERIVE_CSV_SHA256[name]
        code = cli.main(["derive", *flags])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("output", ["json", "text"])
    @pytest.mark.parametrize("name", list(DERIVE_TALL_SHA256))
    def test_tall_point_bytes_are_pinned(self, capsys, name, output):
        flags, want_code, json_digest, text_digest = DERIVE_TALL_SHA256[name]
        code = cli.main(["derive", *flags, f"--output={output}"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (want_code, "")
        digest = json_digest if output == "json" else text_digest
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("at,value", [
        ("1e99", 0.27251160193436597),  # -sin(10^99)
        ("1e999", -0.37589337755222713),  # -sin(10^999)
    ])
    def test_tall_x_rows_follow_the_second_derivative(self, capsys, at, value):
        # x + a_k h takes log10|x| digits before any are left for the
        # difference; the series rounds x to its precision plus the bits of |x|
        code = cli.main(["derive", "--kind", "riemann", "-n", "2", "--function", "sin",
                         "--at", at])
        out = capsys.readouterr().out
        assert "converged value=0.0" not in out and "diverged" not in out
        assert code in (0, 3)
        last = float(out.splitlines()[-2].split(",")[1])  # h = -1.9e-7
        assert abs(last - value) < 1e-6

    @pytest.mark.parametrize("flags,row", [
        (["-n1", "--at=0", "--function=poly:0," + str(10**400)], 1),  # the quotient, 10^400
        (["-n1", "--at=0", "--function=poly:0,1", "--h0=" + str(10**400)], 1),  # the step
        # a nonzero step that rounds to the double 0.0 would print as h = 0.0
        (["-n2", "--at=1", "--function=sin", "--h0=1e-400"], 1),
        (["-n2", "--at=1", "--function=sin", "--ratio=1e-300", "--steps=3"], 3),  # h = 1e-601
    ], ids=["quotient-overflows", "step-overflows", "step-underflows", "row-3-step-underflows"])
    def test_rows_outside_the_double_range_exit_2(self, capsys, flags, row):
        code = cli.main(["derive", "--kind=riemann", *flags])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (f"error: row {row}: the step h or its quotient lies "
                                "outside the double range\n")

    @pytest.mark.parametrize("function,error", [
        ("signpow10000000", "signpow10000000 exceeds the largest supported power 200"),
        ("signpow201", "signpow201 exceeds the largest supported power 200"),
        ("poly:" + ",".join(["1"] * 5000),
         "poly: has 5000 coefficients, more than the 201 of the largest supported degree 200"),
        ("poly:" + ",".join(["1"] * 202),
         "poly: has 202 coefficients, more than the 201 of the largest supported degree 200"),
    ], ids=["signpow10000000", "signpow201", "poly-5000", "poly-202"])
    def test_function_bound_is_checked_before_any_build(self, capsys, monkeypatch,
                                                        function, error):
        built = []
        monkeypatch.setattr(cli, "_build_stencil", lambda args: built.append(args))
        code = cli.main(["derive", "--kind=riemann", "-n2", f"--function={function}", "--at=1/3"])
        assert (code, capsys.readouterr().err, built) == (2, f"error: {error}\n", [])

    def test_function_bound_admits_order_200(self):
        assert cli._parse_function("signpow200").power == 200
        assert len(cli._parse_function("poly:" + ",".join(["1"] * 201)).coeffs) == 201

    def test_sin_converges_exit_0(self, capsys):
        code = cli.main(["derive", "--kind", "forward", "-n", "3", "-q", "2",
                         "--function", "sin", "--at", "0"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "h,quotient,delta"
        verdict = lines[-1]
        assert verdict.startswith("# verdict: converged value=")
        value = float(verdict.split("value=")[1].split()[0])
        assert abs(value - (-1.0)) < 1e-6

    def test_signpow3_oscillates_exit_3(self, capsys):
        code = cli.main(["derive", "--kind", "forward", "-n", "3", "-q", "2",
                         "--function", "signpow3", "--at", "0"])
        assert code == 3
        verdict = capsys.readouterr().out.strip().splitlines()[-1]
        assert "oscillating" in verdict

    @pytest.mark.parametrize("argv,line", [
        # Q(h) = 2/|h| is unbounded, though it grows only 1/0.9 per row
        ("--kind riemann-symmetric -n 2 --function abs --at 0 --ratio 9/10",
         "# verdict: diverged"),
        # ... and over as few as four rows
        ("--kind riemann-symmetric -n 2 --function abs --at 0 --steps 4",
         "# verdict: diverged"),
        # every row is exactly +-16!, past 1e12 but bounded
        ("--kind forward -q 2 -n 16 --function signpow16 --at 0",
         "# verdict: oscillating pos_estimate=20922789888000.0 "
         "neg_estimate=-20922789888000.0"),
    ], ids=["abs-ratio-9/10", "abs-4-steps", "signpow16"])
    def test_nonexistence_verdict_follows_the_power(self, capsys, argv, line):
        code = cli.main(["derive", *argv.split()])
        captured = capsys.readouterr()
        assert (code, captured.err, captured.out.splitlines()[-1]) == (3, "", line)

    def test_symmetric_annihilation_converges_to_zero(self, capsys):
        code = cli.main(["derive", "--kind", "symmetric", "-n", "3", "-q", "3",
                         "--function", "signpow3", "--at", "0"])
        assert code == 0
        verdict = capsys.readouterr().out.strip().splitlines()[-1]
        assert "converged value=0.0" in verdict

    def test_polynomial_function_flag(self, capsys):
        code = cli.main(["derive", "--kind", "riemann", "-n", "2",
                         "--function", "poly:1,5,1", "--at", "1/2"])
        assert code == 0
        verdict = capsys.readouterr().out.strip().splitlines()[-1]
        assert "converged value=2.0" in verdict

    def test_json_output(self, capsys):
        # The symmetric stencil has an O(h^2) error term that keeps its sign
        # under two-sided sampling, so exp'' at 0 converges cleanly.
        code = cli.main(["derive", "--kind", "symmetric", "-n", "2", "-q", "2",
                         "--function", "exp", "--at", "0", "--output", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "converged"
        assert abs(doc["value"] - 1.0) < 1e-6

    def test_json_output_is_strict_past_the_double_range(self, capsys):
        # exp(2 + 0.1 * 4^8) overflows a double: the first three quotients
        # are inf and their deltas inf - inf = nan, which strict JSON writes
        # as null; the limit exp(2) exists, so the table converges to it
        code = cli.main(["derive", "--kind=forward", "-n9", "-q=-4", "--function=exp", "--at=2",
                         "--output=json"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        doc = json.loads(captured.out, parse_constant=reject)
        assert [r["quotient"] for r in doc["rows"][:3]] == [None] * 3
        assert [r["delta"] for r in doc["rows"][:4]] == [None] * 4
        assert all(r["quotient"] is not None for r in doc["rows"][3:])
        assert (doc["verdict"], doc["value"]) == ("converged", 7.38905609893065)  # e^2

    def test_a_limit_past_the_double_range_exits_2(self, capsys):
        # exp(1000) exists but is no double: neither a value nor exit 3 is true
        code = cli.main(["derive", "--kind", "riemann", "-n", "1", "--function", "exp",
                         "--at", "1000", "--output=json"])
        assert (code, *capsys.readouterr()) == (
            2, "", "error: the limit lies outside the double range\n")

    def test_gaussian_kind_rejects_nodes_exit_2(self, capsys):
        code = cli.main(["derive", "--kind", "shifted", "-n", "2", "-q", "2",
                         "--nodes", "5,6,7", "--function", "sin"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--kind shifted does not take --nodes" in captured.err

    def test_text_output(self, capsys):
        code = cli.main(["derive", "--kind", "forward", "-n", "3", "-q", "2",
                         "--function", "poly:0,0,0,1", "--output", "text"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 21
        assert lines[0] == "h=0.1  quotient=6.0"
        assert all(line.startswith("h=") and "  quotient=6.0  delta=0.0" in line
                   for line in lines[1:-1])
        assert lines[-1].startswith("# verdict: converged value=6.0 ")

    def test_unknown_function_exit_2(self, capsys):
        code = cli.main(["derive", "--kind", "forward", "-n", "2", "-q", "2",
                         "--function", "gamma", "--at", "0"])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("tol", ["0", "nan", "-1", "inf", "1e-3"])
    def test_tol_is_an_unknown_flag(self, capsys, tol):
        # the exact limit decides every verdict, so no value of --tol is taken
        code = cli.main(["derive", "--kind", "forward", "-n", "1", "-q", "2",
                         "--function", "poly:0,1", f"--tol={tol}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"qriemann: error: unrecognized arguments: --tol={tol}"

    def test_bad_steps_exit_2(self, capsys):
        code = cli.main(["derive", "--kind", "forward", "-n", "2", "-q", "2",
                         "--function", "sin", "--at", "0", "--steps", "99"])
        assert code == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# CLI: counterexample
# ---------------------------------------------------------------------------


# SHA-256 of the stdout of `counterexample --case NAME`.  --seed is accepted
# and changes nothing in a report, so one digest holds at every seed.
CASE_STDOUT_SHA256 = {
    "prop25": "c7b542970e992f5301f4d4284ca6ec5ed22090e700ada5134de02a278c90469a",
    "thm32a": "6e242b41f9c2840242b64aeab5cd2733ceb3266252280973717dab06d3bb63d2",
    "thm32-n5": "39899e193abf8d7b6d6fe425d27e69fefb7a210d97d0a920ba0ab8a238e42ea8",
    "thm32-n6": "d1cd43ed2b6bc8183e5a9f79055839ac2d37b97b3c77d38dbac42b2b2bc0743b",
    "thm32-n7": "7a631e7ab1e06f2d982319b736914412a2db1a75317b5fb2112fca621a14e7f7",
    "thm32-n8": "60d07db0698b9feed28ec6712d4590dc108dcdd5d356f72a4cdafadccf55e225",
    "search-n9": "7f85c4bc6faa88e3cfcffd7c4e4b47cd496b84b8b52a6a222e8c292010786741",
}

PROP25_CUSTOM = ["--nodes=1,2,3", "-n2", "--generators=2,3", "--character=1,1",
                 "--interval=1,3", "--lower-order=1"]

# (flags, exit code, SHA-256 of stdout) of `counterexample --custom`.
CUSTOM_STDOUT_SHA256 = {
    # the root is exactly 2; the same bytes as --case prop25
    "prop25": (PROP25_CUSTOM, 0,
               "c7b542970e992f5301f4d4284ca6ec5ed22090e700ada5134de02a278c90469a"),
    # thm32-n6's stencil without its sign flip: a root inside (4, 5)
    "nodes-3..3": (["--nodes=-3,-2,-1,0,1,2,3", "-n6", "--generators=2,3", "--character=1,1",
                    "--interval=4,5", "--lower-order=4", "--seed=9"], 0,
                   "367f309c5bf933ea42f350aed603a010e1be263f1bc38295f07ebddf27e8954e"),
    "prop25-exponent-2.5": (PROP25_CUSTOM + ["--exponent=2.5"], 1,
                            "5b4dedc7dbdd656897caba354a4e1a03c8f57957fc45df1618596c7f9f913e24"),
    # the trivial character has phi(1) = 0: no sign change, nothing printed
    "trivial-character": (PROP25_CUSTOM + ["--character=0,0"], 3,
                          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # node 7 lies outside G and node -2 is negative: the nonmember steps
    # h = m/7 are those node 7 maps back into G
    "nodes-2,1,2,7": (["--nodes=-2,1,2,7", "-n3", "--generators=2,3", "--character=0,0",
                       "--interval=0,1", "--lower-order=0"], 0,
                      "1a8f98953192cd47164912d53c9f0959017c946f4ecb52106afe6376ee345055"),
    "nodes-2,1,2,7-character-0,1": (["--nodes=-2,1,2,7", "-n3", "--generators=2,3",
                                     "--character=0,1", "--interval=0,3", "--lower-order=0"], 0,
                                    "1406345cfdb1244a9af96b05d2f15220937f31d3fa15cc21c7233ab1b38471c5"),
}


class TestCmdCounterexample:
    @pytest.mark.parametrize("seed", [1729, 7])
    @pytest.mark.parametrize("case", list(CASE_STDOUT_SHA256))
    def test_case_stdout_bytes_are_pinned(self, capsys, case, seed):
        code = cli.main(["counterexample", f"--case={case}", f"--seed={seed}"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert hashlib.sha256(captured.out.encode()).hexdigest() == CASE_STDOUT_SHA256[case]

    @pytest.mark.parametrize("flags", [[f"--case={case}"] for case in CASE_STDOUT_SHA256]
                             + [["--custom", *CUSTOM_STDOUT_SHA256["nodes-2,1,2,7"][0]]],
                             ids=[*CASE_STDOUT_SHA256, "custom-nodes-2,1,2,7"])
    def test_seed_changes_no_byte_and_no_exit_code(self, capsys, flags):
        runs = []
        for seed in (0, 1729):
            code = cli.main(["counterexample", *flags, f"--seed={seed}"])
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1]
        assert runs[0][1]

    @pytest.mark.parametrize("name", list(CUSTOM_STDOUT_SHA256))
    def test_custom_stdout_bytes_are_pinned(self, capsys, name):
        flags, code, digest = CUSTOM_STDOUT_SHA256[name]
        assert cli.main(["counterexample", "--custom", *flags]) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("exponent", [[], ["--exponent=2"]], ids=["located", "given"])
    @pytest.mark.parametrize("interval", ["3,1", "2,2"])
    def test_custom_interval_needs_lo_below_hi(self, capsys, interval, exponent):
        # checked whether or not the exponent is given
        argv = ["counterexample", "--custom", *PROP25_CUSTOM, f"--interval={interval}", *exponent]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "two integers lo < hi" in captured.err

    @pytest.mark.parametrize("exponent, interval", [
        ("2", "5,9"),  # prop25's root, far below the interval
        ("0.9999999999999999", "1,3"),  # the double just below lo
        ("3.0000000000000004", "1,3"),  # the double just above hi
    ])
    def test_given_exponent_outside_the_interval_exit_2(self, capsys, exponent, interval):
        argv = ["counterexample", "--custom", *PROP25_CUSTOM, f"--interval={interval}",
                f"--exponent={exponent}"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --exponent {float(exponent)} lies outside "
                                f"--interval [{interval.replace(',', ', ')}]\n")

    @pytest.mark.parametrize("interval", ["1,30000000", "-1,2", "0,201"])
    def test_custom_interval_bound_is_checked_before_phi(self, capsys, monkeypatch, interval):
        built = []
        monkeypatch.setattr(cli.PhiOnInterval, "of", lambda *args: built.append(args))
        argv = ["counterexample", "--custom", *PROP25_CUSTOM, f"--interval={interval}"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err, built) == (
            "", "error: --interval endpoints must lie in [0, 200]\n", [])

    def test_custom_interval_bound_admits_0_to_200(self, capsys):
        # prop25's phi is 2 at 0 and negative at 200, with its one root at 2
        argv = ["counterexample", "--custom", *PROP25_CUSTOM, "--interval=0,200"]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["exponent_interval"], doc["exponent"]) == ([0, 200], 2.0)

    def test_custom_generator_bound_is_checked_before_primality(self, capsys, monkeypatch):
        tested = []  # the real test would take 10^9 trial divisions on 10^18 + 3
        monkeypatch.setattr(counterexample, "_is_prime", lambda p: tested.append(p) or p == 2)
        argv = ["counterexample", "--custom", *PROP25_CUSTOM, "--generators=2,1000000000000000003"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, tested) == ("", [2])
        assert captured.err == "error: generator 1000000000000000003 is not a prime up to 1000000000\n"

    def test_named_case_exit_0(self, capsys):
        code = cli.main(["counterexample", "--case", "prop25"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exponent"] == 2.0
        assert doc["checks"] == {
            "difference_vanishes": True,
            "lower_peano_bound": True,
            "nth_unbounded": True,
        }

    def test_thm32a_endpoints(self, capsys):
        code = cli.main(["counterexample", "--case", "thm32a"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["phi_endpoints"] == ["-54096", "489804"]

    def test_search_case_exit_0_when_empty(self, capsys):
        code = cli.main(["counterexample", "--case", "search-n9"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["admissible"] == 0
        assert len(doc["results"]) == 8

    def test_custom_package(self, capsys):
        code = cli.main([
            "counterexample", "--custom",
            "--nodes", "1,2,3", "-n", "2",
            "--generators", "2,3", "--character", "1,1",
            "--interval", "1,3", "--lower-order", "1",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exponent"] == 2.0
        assert doc["checks"]["difference_vanishes"] is True

    @pytest.mark.parametrize("exponent, code, vanishes", [("2", 0, True), ("2.5", 1, False)])
    def test_custom_given_exponent(self, capsys, exponent, code, vanishes):
        # prop25's package with the exponent given instead of located: its
        # root 2 passes, and 2.5 leaves a nonzero difference on G.
        assert cli.main([
            "counterexample", "--custom",
            "--nodes", "1,2,3", "-n", "2",
            "--generators", "2,3", "--character", "1,1",
            "--interval", "1,3", "--lower-order", "1", "--exponent", exponent,
        ]) == code
        doc = json.loads(capsys.readouterr().out)
        assert doc["exponent"] == float(exponent)
        assert doc["checks"]["difference_vanishes"] is vanishes

    @pytest.mark.parametrize("flags, unbounded", [
        (["--interval=1,2", "--exponent=1.999"], True),
        (["--interval=1,2", "--exponent=2"], True),
        (["--interval=1,5", "--exponent=3"], False),
    ], ids=["s=1.999", "s=2", "s=3"])
    def test_custom_nth_unbounded_is_s_at_most_the_order(self, capsys, flags, unbounded):
        # trivial character, n = 2: f(2^-j)/2^-2j = 2^(j(2-s)) grows without
        # bound at s = 1.999, however slowly; at s = 2 it is 1 on G and 0 at
        # h < 0, so it has no limit; at s = 3 it tends to 0
        assert cli.main(["counterexample", "--custom", "--nodes=0,1,2", "-n2", "--generators=2",
                         "--character=0", "--lower-order=1", *flags]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"]["nth_unbounded"] is unbounded

    def test_custom_without_sign_change_exit_3(self, capsys):
        # Trivial character: phi(1) = 0 exactly, so no sign change exists
        # and the nonexistence exit code fires.
        code = cli.main([
            "counterexample", "--custom",
            "--nodes", "1,2,3", "-n", "2",
            "--generators", "2,3", "--character", "0,0",
            "--interval", "1,3", "--lower-order", "1",
        ])
        assert code == 3
        capsys.readouterr()

    def test_unknown_case_exit_2(self, capsys):
        assert cli.main(["counterexample", "--case", "thm00"]) == 2
        capsys.readouterr()

    def test_case_and_custom_conflict_exit_2(self, capsys):
        assert cli.main(["counterexample", "--case", "prop25", "--custom"]) == 2
        capsys.readouterr()

    def test_custom_missing_flags_exit_2(self, capsys):
        code = cli.main(["counterexample", "--custom", "--nodes", "1,2,3"])
        assert code == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


class TestRationalDigitBound:
    """Every rational the CLI parses holds at most cli.MAX_DIGITS digits,
    checked before any build; every integer it parses itself holds at most
    as many characters, checked before int().  An error message cuts a
    longer number short."""

    @pytest.mark.parametrize("argv", [
        ["stencil", "--kind=forward", "-n1", "-q1e1000"],
        ["stencil", "--kind=custom", "-n1", "--nodes=0,1e1000"],
        ["stencil", "--kind=custom", "-n1", "--nodes=0," + "1" * 1001],
        ["derive", "--kind=riemann", "-n2", "--function=sin", "--at=1e100000"],
        ["derive", "--kind=riemann", "-n2", "--function=sin", "--h0=1e-1000"],
        ["derive", "--kind=riemann", "-n2", "--function=sin", "--ratio=1/1e1000"],
        ["derive", "--kind=riemann", "-n2", "--function=poly:0,1e1_000"],
        ["counterexample", "--custom", "--nodes=1,2,5e5000", "-n2", "--generators=2,5",
         "--character=1,1", "--interval=1,200", "--lower-order=1"],
    ], ids=["q", "nodes", "nodes-long-text", "at", "h0", "ratio", "poly", "counterexample-nodes"])
    def test_over_the_bound_exits_2_before_any_build(self, capsys, monkeypatch, argv):
        built = []
        monkeypatch.setitem(cli.GAUSSIAN_BUILDERS, "forward", lambda *args: built.append(args))
        monkeypatch.setitem(cli.CLASSICAL_BUILDERS, "riemann", lambda *args: built.append(args))
        monkeypatch.setattr(cli, "vandermonde_solve", lambda *args: built.append(args))
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, built) == ("", [])
        assert captured.err.startswith("error: rational ")
        assert captured.err.endswith(" has more than 1000 digits\n")
        assert captured.err.count("\n") == 1

    def test_over_the_bound_in_the_q_grid_exits_2_before_any_suite(self, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "run_all", lambda **kwargs: ran.append(kwargs))
        assert cli.main(["verify", "--q-list=2,3/1e1000"]) == 2
        assert (capsys.readouterr().err, ran) == ("error: rational 3/1e1000 has more than 1000 digits\n", [])

    def test_just_under_the_bound_runs(self, capsys):
        assert cli.MAX_DIGITS == 1000
        assert cli.main(["stencil", "--kind=forward", "-n1", "-q1e999"]) == 0
        assert json.loads(capsys.readouterr().out)["q"] == str(10**999)
        assert cli.main(["stencil", "--kind=custom", "-n1", "--nodes=0," + "1" * 1000]) == 0
        assert json.loads(capsys.readouterr().out)["nodes"] == ["0", "1" * 1000]

    def test_over_the_bound_message_is_one_short_line(self, capsys):
        assert cli.main(["derive", "--kind=riemann", "-n2", "--function=sin", "--at=" + "7" * 5000]) == 2
        assert capsys.readouterr().err == "error: rational 77777777777777777777... has more than 1000 digits\n"

    @pytest.mark.parametrize("argv", [
        ["counterexample", "--custom", "--nodes=1,2,3", "-n2", "--generators=" + "9" * 100_000,
         "--character=0", "--interval=1,2", "--lower-order=1"],
        ["derive", "--kind=riemann", "-n" + "9" * 100_000, "--function=sin"],
        ["derive", "--kind=riemann", "-n2", "--function=signpow" + "9" * 100_000],
        # within the digit bound: rejected by the group and the power bound
        ["counterexample", "--custom", "--nodes=1,2,3", "-n2", "--generators=" + "9" * 1000,
         "--character=0", "--interval=1,2", "--lower-order=1"],
        ["derive", "--kind=riemann", "-n2", "--function=signpow" + "9" * 1000],
    ], ids=["generators", "order", "signpow", "generators-1000", "signpow-1000"])
    def test_oversized_integer_exits_2_with_one_short_line(self, capsys, argv):
        # the message shows the integer's first 20 characters, as it does a rational's
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "99999999999999999999..." in captured.err
        assert len(captured.err.encode()) < 120


class TestBoundedEchoes:
    """A flag value or function name longer than cli.MAX_DIGITS characters
    is echoed cut short, and an int or float flag's text that long is
    rejected before it is converted.  Shorter bad text keeps argparse's
    message.  The long strings are built in process: one argument from a
    shell is capped at 128 KiB."""

    @pytest.mark.parametrize("argv", [
        ["stencil", "--kind=riemann", "-n" + "9" * 100_000 + "x"],
        ["stencil", "--kind=riemann", "-n" + "9" * 400_000],
        ["verify", "--seed=" + "7" * 100_000],
        ["counterexample", "--case=prop25", "--exponent=" + "1" * 100_000],
        ["derive", "--kind=riemann", "-n2", "--function=" + "9" * 100_000],
        ["derive", "--kind=riemann", "-n2", "--function=signpow" + "x" * 100_000],
    ], ids=["order-text", "order-digits", "seed", "exponent", "builtin", "signpow"])
    def test_long_value_exits_2_with_a_short_echo(self, capsys, argv):
        t0 = time.perf_counter()
        assert cli.main(argv) == 2
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and len(captured.err.encode()) < 200
        assert "..." in captured.err
        if "--function" not in argv[-1]:  # a builtin name loads the evaluator first
            assert elapsed < 0.1

    def test_long_value_message(self, capsys):
        assert cli.main(["verify", "--max-n=" + "1" * 1001]) == 2
        assert capsys.readouterr().err == (
            "error: int value 11111111111111111111... has more than 1000 characters\n")

    @pytest.mark.parametrize("argv,line", [
        (["stencil", "--kind=riemann", "-nabc"],
         "qriemann stencil: error: argument -n/--order: invalid int value: 'abc'"),
        (["verify", "--max-n", "x"], "qriemann verify: error: argument --max-n: invalid int value: 'x'"),
        (["counterexample", "--case=prop25", "--exponent=zz"],
         "qriemann counterexample: error: argument --exponent: invalid float value: 'zz'"),
        (["derive", "--kind=riemann", "-n2", "--function=bogus"],
         "error: unknown builtin 'bogus'; expected one of ('sin', 'cos', 'exp', 'abs', 'signpowN')"),
        (["derive", "--kind=riemann", "-n2", "--function=signpow0"],
         "error: bad signed-power name 'signpow0'; use signpowN with N >= 1"),
    ], ids=["order", "max-n", "exponent", "builtin", "signpow"])
    def test_short_bad_value_keeps_its_message(self, capsys, argv, line):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.splitlines()[-1] == line

    @pytest.mark.parametrize("argv", [
        ["stencil", "--kind={}", "-n2"],
        ["counterexample", "--case={}"],
        ["stencil", "--kind=riemann", "-n2", "{}"],
        ["stencil", "--kind=riemann", "-n2", "--output={}"],
        ["stencil", "--kind=riemann", "-n2", "--o={}"],
        ["{}"],
    ], ids=["kind", "case", "stray", "output", "ambiguous", "command"])
    def test_argparse_echoes_a_long_argument_cut_short(self, capsys, argv):
        # argparse's usage, then one error line that echoes the argument cut
        # to its first 20 characters: the usage is that of a short bad value
        assert cli.main([a.format("x") for a in argv]) == 2
        *usage, line = capsys.readouterr().err.splitlines()
        assert cli.main([a.format("x" * 100_000) for a in argv]) == 2
        captured = capsys.readouterr()
        *long_usage, long_line = captured.err.splitlines()
        assert captured.out == "" and long_usage == usage
        assert "x" * 20 + "..." in long_line and "x" * 21 not in long_line
        assert long_line.replace("x" * 20 + "...", "x") == line
        assert len(long_line.encode()) < 300

    def test_argparse_echoes_ten_stray_arguments(self, capsys):
        assert cli.main(["stencil", "--kind=riemann", "-n2", *["y"] * 100_000]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "qriemann: error: unrecognized arguments: y y y y y y y y y y ...")

    def test_builtin_echoes_a_long_name_cut_short(self):
        with pytest.raises(EvaluatorError, match=r"^unknown builtin 'xxxxxxxxxxxxxxxxxxxx\.\.\.'; "):
            FunctionHandle.builtin("x" * 100_000)
        with pytest.raises(EvaluatorError, match=r"^bad signed-power name 'signpowxxxxxxxxxxxxx\.\.\.'; "):
            FunctionHandle.builtin("signpow" + "x" * 100_000)


class TestNegativeValues:
    """A negative rational, decimal or list is a value when it stands apart
    from its flag, as when it is joined to it with =."""

    @pytest.mark.parametrize("argv,flag,value", [
        (["derive", "--kind=forward", "-n2", "--function=sin", "--steps=3"], "-q", "-7/4"),
        (["derive", "--kind=forward", "-n2", "-q2", "--function=sin", "--steps=3"],
         "--at", "-1/3"),
        (["derive", "--kind=forward", "-n2", "-q2", "--function=sin", "--steps=3"],
         "--h0", "-1e-3"),
        (["stencil", "--kind=custom", "-n1"], "--nodes", "-1,1"),
        (["verify", "--max-n=3"], "--q-list", "-2,3"),
        (["stencil", "--kind=forward", "-n2"], "-q", "-.5"),
    ], ids=["q", "at", "h0", "nodes", "q-list", "q-decimal"])
    def test_separate_value_reads_as_the_joined_one(self, capsys, argv, flag, value):
        assert cli.main([*argv, f"{flag}={value}"]) == 0
        joined = capsys.readouterr()
        assert cli.main([*argv, flag, value]) == 0
        assert capsys.readouterr() == joined

    def test_a_dash_letter_is_still_a_flag(self, capsys):
        assert cli.main(["stencil", "--kind=forward", "-n2", "-q", "-x"]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "qriemann stencil: error: argument -q: expected one argument")


class TestErrorExits:
    @pytest.mark.parametrize("error", [StencilError, ExcessNodesError, EvaluatorError,
                                       CounterexampleError, ValueError])
    def test_value_errors_exit_2_with_one_line(self, capsys, monkeypatch, error):
        def fail(args):
            raise error("bad input")

        monkeypatch.setattr(cli, "cmd_stencil", fail)
        assert cli.main(["stencil", "--kind=riemann", "-n2"]) == 2
        assert capsys.readouterr() == ("", "error: bad input\n")

    def test_no_sign_change_exits_3(self, capsys, monkeypatch):
        def fail(args):
            raise NoSignChangeError("phi keeps its sign")

        monkeypatch.setattr(cli, "cmd_counterexample", fail)
        assert cli.main(["counterexample", "--case=prop25"]) == 3
        assert capsys.readouterr() == ("", "error: phi keeps its sign\n")

    def test_other_errors_propagate(self, monkeypatch):
        def fail(args):
            raise RuntimeError("a bug, not an input")

        monkeypatch.setattr(cli, "cmd_stencil", fail)
        with pytest.raises(RuntimeError):
            cli.main(["stencil", "--kind=riemann", "-n2"])

    def test_command_is_looked_up_when_it_runs(self, capsys, monkeypatch):
        # the first call builds the parser that later calls share; a command
        # patched after it must still be the one that runs
        assert cli.main(["stencil", "--kind=riemann", "-n2"]) == 0
        capsys.readouterr()

        def fail(args):
            raise StencilError("patched after the first call")

        monkeypatch.setattr(cli, "cmd_stencil", fail)
        assert cli.main(["stencil", "--kind=riemann", "-n2"]) == 2
        assert capsys.readouterr() == ("", "error: patched after the first call\n")


class TestEntryPoints:
    def test_no_arguments_is_usage_error(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_module_execution(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qriemann", "stencil", "--kind", "forward",
             "-n", "3", "-q", "2", "--output", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN_FORWARD_3_2

    @pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
    def test_demo_runs(self, demo):
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                              env=_env_with_src())
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_STDOUT_SHA256[demo.name]

    def test_module_execution_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qriemann", "stencil", "--kind", "forward",
             "-n", "3", "-q", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_calls_in_one_process_match_fresh_processes(self, capsys):
        argvs = [
            ["derive", "--kind=riemann", "-n2", "--function=sin", "--one-sided", "--output=json"],
            ["stencil", "--kind=bogus", "-n2"],
            ["counterexample", "--case", "prop25", "--seed", "5"],
            ["derive", "--kind=riemann", "-n2", "--function=cos"],
            ["stencil", "--kind", "riemann", "-n", "3"],
        ]
        in_process = []
        for argv in argvs:
            rc = cli.main(argv)
            in_process.append((rc, *capsys.readouterr()))
        fresh = []
        for argv in argvs:
            proc = subprocess.run([sys.executable, "-m", "qriemann", *argv], capture_output=True,
                                  text=True, env=_env_with_src())
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert [rc for rc, _, _ in fresh] == [0, 2, 0, 0, 0]
        assert in_process == fresh

    def test_parser_is_built_on_the_first_call_only(self):
        # 5 parsers: the root and one per subcommand; none at import, so that
        # importing the CLI and building its parser still builds it once
        code = textwrap.dedent("""
            import argparse, contextlib, io
            built = []
            init = argparse.ArgumentParser.__init__
            def counting_init(self, *args, **kwargs):
                built.append(self)
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counting_init
            from qriemann import cli
            counts = [len(built)]
            for _ in range(2):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(["stencil", "--kind=riemann", "-n2"]) == 0
                counts.append(len(built))
            print(counts)
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_env_with_src())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0, 5, 5]\n"


# flags README.md names that are no option of the parser: pip's, and the
# placeholder of its note on ambiguous prefixes
README_ONLY_FLAGS = {"--no-build-isolation", "--opt"}


def test_readme_and_parser_name_the_same_flags():
    readme = (ROOT / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    if re.search(r"(?<![\w-])-n(?![a-z-])", readme):
        named.add("--order")  # README names the order by its short form
    parser = cli.build_parser()
    subparsers = parser._subparsers._group_actions[0].choices
    defined = {name: {s for a in sub._actions for s in a.option_strings if s.startswith("--")}
               for name, sub in subparsers.items()}
    unnamed = {name: sorted(flags - named - {"--help"}) for name, flags in defined.items()}
    assert unnamed == {name: [] for name in defined}
    assert named - set().union(*defined.values()) - README_ONLY_FLAGS == set()


def _readme_commands():
    """(argv, expected exit) of each qriemann line in README.md's code
    blocks, with backslash continuations joined: 3 where its comment says
    exit 3, else 0.  Each pair is a pytest.param with the line as its id."""
    readme = (ROOT / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```[a-z]*\n(.*?)^```", readme, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            command, _, comment = line.partition("#")
            if command.startswith("qriemann "):
                argv = shlex.split(command)[1:]
                commands.append(pytest.param(argv, 3 if "exit 3" in comment else 0,
                                             id=" ".join(argv)))
    return commands


@pytest.mark.parametrize("argv,code", _readme_commands())
def test_readme_commands_exit_as_their_comments_say(capsys, argv, code):
    assert cli.main(argv) == code
    capsys.readouterr()
