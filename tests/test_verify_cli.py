"""Tests for the randomized identity suites and the command-line interface.

CLI tests drive cli.main() in-process (stdout captured via capsys) so exit
codes and output bytes are asserted directly; subprocess tests cover the
``python -m qriemann`` entry point and the three demos end to end.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qriemann import cli, qcore, verify
from qriemann.stencil import (
    CLASSICAL_BUILDERS,
    GAUSSIAN_BUILDERS,
    KINDS,
    Stencil,
    gaussian_forward,
    stencil_from_json,
    vandermonde_solve,
)
from qriemann.verify import (
    ALL_SUITES,
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
DEMOS = sorted((ROOT / "demos").glob("*.py"))


# ---------------------------------------------------------------------------
# Identity suites
# ---------------------------------------------------------------------------


class TestSuites:
    def test_run_all_green(self):
        results = run_all(max_n=6, seed=99)
        assert [r.name for r in results] == list(ALL_SUITES)
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
        # argparse reads a separate "-7/4" as a flag, so it is joined with "=".
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
        for name in ALL_SUITES:
            assert f"{name}: ok (" in out
        assert "all suites passed" in out

    def test_json_report(self, capsys):
        code = cli.main(["verify", "--max-n", "2", "--q-list", "2",
                         "--output", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [row["suite"] for row in doc] == list(ALL_SUITES)
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


class TestCmdDerive:
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

    @pytest.mark.parametrize("tol", ["0", "nan", "-1", "inf"])
    def test_bad_tol_exit_2(self, capsys, tol):
        code = cli.main(["derive", "--kind", "forward", "-n", "1", "-q", "2",
                         "--function", "poly:0,1", f"--tol={tol}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tol must be a finite number > 0" in captured.err

    def test_bad_steps_exit_2(self, capsys):
        code = cli.main(["derive", "--kind", "forward", "-n", "2", "-q", "2",
                         "--function", "sin", "--at", "0", "--steps", "99"])
        assert code == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# CLI: counterexample
# ---------------------------------------------------------------------------


# SHA-256 of the stdout of `counterexample --case NAME`.  The seed picks the
# sampled steps, and the report prints only the checks' verdicts, so one
# digest holds at every seed.
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
}


class TestCmdCounterexample:
    @pytest.mark.parametrize("seed", [1729, 7])
    @pytest.mark.parametrize("case", list(CASE_STDOUT_SHA256))
    def test_case_stdout_bytes_are_pinned(self, capsys, case, seed):
        code = cli.main(["counterexample", f"--case={case}", f"--seed={seed}"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert hashlib.sha256(captured.out.encode()).hexdigest() == CASE_STDOUT_SHA256[case]

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
        pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, str(demo)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()

    def test_module_execution_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qriemann", "stencil", "--kind", "forward",
             "-n", "3", "-q", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr
