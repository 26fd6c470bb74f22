"""Acceptance gate: one test per criterion, each printing a single
``ACCEPTANCE <nn> <label>: PASS/FAIL`` line (run pytest with -s to stream
them; `pytest -v` shows the same verdicts as test outcomes).

Tolerances are pinned inline next to each assertion.  Everything labeled
"exactly" compares `fractions.Fraction` values with zero tolerance.
"""

import contextlib
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from qriemann.counterexample import (
    GroupFunction,
    MultiplicativeGroup,
    membership,
    phi_from_stencil,
    run_case,
    run_search,
)
from qriemann.evaluator import (
    FunctionHandle,
    apply_difference,
    difference_quotient,
    estimate_derivative,
)
from qriemann.stencil import (
    gaussian_forward,
    gaussian_shifted,
    gaussian_symmetric,
    mz_stencil,
    recursive_build,
    riemann_classic,
    riemann_symmetric,
    same_difference,
    scale,
    vandermonde_solve,
)
from qriemann.verify import (
    pascal_suite,
    qbinomial_consistency_suite,
    qbinomial_product_suite,
    qbinomial_specialized_suite,
    qbinomial_squared_suite,
)

F = Fraction

FULL_Q_GRID = (F(2), F(3), F(5), F(1, 2), F(-2), F(5, 3), F(-7, 4))


@contextlib.contextmanager
def criterion(num: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {budget:.0f}s budget"
            )
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {label}: PASS ({elapsed:.2f}s)")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qriemann", *args], capture_output=True, text=True
    )


# -- 1 ------------------------------------------------------------------------


def test_criterion_01_exact_endpoint_integers():
    with criterion(1, "exact-endpoint-integers", budget=1.0):
        proc = run_cli("counterexample", "--case", "thm32a")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        # zero tolerance: the reported endpoints are exact integer strings
        assert doc["phi_endpoints"] == ["-54096", "489804"]
        assert doc["exponent_interval"] == [6, 7]


# -- 2 ------------------------------------------------------------------------


def test_criterion_02_vanishing_difference_package():
    with criterion(2, "vanishing-difference-package", budget=1.0):
        stn = vandermonde_solve((1, 2, 3), 2)
        grp = MultiplicativeGroup((2, 3))
        f = GroupFunction(grp, (1, 1), 2)
        assert phi_from_stencil(stn, f).eval_exact(2) == 0  # exactly

        rng = random.Random(20260819)
        members = set()
        while len(members) < 100:
            e = (rng.randint(-10, 10), rng.randint(-10, 10))
            members.add(F(2) ** e[0] * F(3) ** e[1])
        for h in members:
            assert apply_difference(stn, f, F(0), h) == 0  # exactly

        non_members = set()
        extra_primes = (5, 7, 11, 13)
        while len(non_members) < 100:
            h = (
                F(rng.choice(extra_primes)) ** rng.choice((-1, 1))
                * F(2) ** rng.randint(-4, 4)
                * F(3) ** rng.randint(-4, 4)
            )
            assert membership(grp, h) is None
            non_members.add(h)
        for h in non_members:
            assert apply_difference(stn, f, F(0), h) == 0  # exactly


# -- 3 ------------------------------------------------------------------------


def test_criterion_03_closed_forms_match_solver():
    with criterion(3, "closed-forms-match-solver", budget=10.0):
        built = 0
        for builder in (gaussian_forward, gaussian_shifted, gaussian_symmetric):
            for n in range(1, 11):
                for q in FULL_Q_GRID:
                    s = builder(n, q)
                    solved = vandermonde_solve(s.nodes, n)
                    assert same_difference(s, solved), (builder.__name__, n, q)
                    built += 1
        assert built == 210


# -- 4 ------------------------------------------------------------------------


def test_criterion_04_recursion_matches_closed_forms():
    with criterion(4, "recursion-matches-closed-forms", budget=10.0):
        builders = {
            "forward": gaussian_forward,
            "shifted": gaussian_shifted,
            "symmetric": gaussian_symmetric,
        }
        built = 0
        for family, builder in builders.items():
            for n in range(1, 11):
                for q in FULL_Q_GRID:
                    assert recursive_build(family, n, q) == builder(n, q), (family, n, q)
                    built += 1
        assert built == 210
        # doubling-node family: base-2 forward recursion on {0,1,2,4,...,2^(n-1)}
        for n in range(1, 11):
            s = recursive_build("forward", n, 2)
            assert s.nodes == (F(0),) + tuple(F(2) ** i for i in range(n))
            assert same_difference(s, mz_stencil(n))


# -- 5 ------------------------------------------------------------------------


def test_criterion_05_identity_suites():
    with criterion(5, "identity-suites", budget=30.0):
        r = pascal_suite(max_n=20)
        assert r.ok and r.total == 190, r.summary()  # every (n,k), n<=20

        r = qbinomial_product_suite(count=100, seed=1729, max_n=12)
        assert r.ok and r.total == 100, r.summary()  # 100 random (a,b,q)

        # the remaining identity families at 20 random rational q, order <= 12
        r = qbinomial_consistency_suite(max_n=12, cross_check_n=12)
        assert r.ok, r.summary()
        r = qbinomial_specialized_suite(q_count=20, seed=1729, max_n=12)
        assert r.ok, r.summary()
        r = qbinomial_squared_suite(q_count=20, seed=1729, max_m=12)
        assert r.ok, r.summary()


# -- 6 ------------------------------------------------------------------------


def test_criterion_06_base_reversal_scaling():
    with criterion(6, "base-reversal-scaling", budget=10.0):
        for n in range(1, 9):
            for q in (F(2), F(3), F(5, 2)):
                # forward family: the scale factor is pinned to q^(n-1)
                lhs = scale(gaussian_forward(n, 1 / q), q ** (n - 1))
                rhs = gaussian_forward(n, q)
                assert lhs.as_map() == rhs.as_map(), ("forward", n, q)  # exactly

                # symmetric family: infer the factor by node-set matching,
                # then require the full node->coefficient map to agree
                src = gaussian_symmetric(n, 1 / q)
                dst = gaussian_symmetric(n, q)
                factor = max(dst.nodes) / max(src.nodes)
                scaled = scale(src, factor)
                assert set(scaled.nodes) == set(dst.nodes), ("symmetric", n, q)
                assert scaled.as_map() == dst.as_map(), ("symmetric", n, q)  # exactly


# -- 7 ------------------------------------------------------------------------


def test_criterion_07_polynomial_exactness():
    with criterion(7, "polynomial-exactness"):
        rng = random.Random(271828)

        def nth_derivative(coeffs, n, x):
            total = F(0)
            for j, c in enumerate(coeffs):
                if j >= n:
                    total += c * math.perm(j, n) * x ** (j - n)
            return total

        polys_checked = 0
        for n in range(1, 9):
            for _ in range(25):  # 25 polynomials per order -> 200 total
                coeffs = [
                    F(rng.randint(-60, 60), rng.randint(1, 15))
                    for _ in range(rng.randint(0, n) + 1)
                ]
                x = F(rng.randint(-20, 20), rng.randint(1, 10))
                h = F(0)
                while h == 0:
                    h = F(rng.randint(-20, 20), rng.randint(1, 10))
                want = nth_derivative(coeffs, n, x)
                f = FunctionHandle.rational_polynomial(coeffs)

                solver_nodes = set()
                while len(solver_nodes) < n + 1:
                    solver_nodes.add(F(rng.randint(-25, 25), rng.randint(1, 6)))
                stencils = (
                    gaussian_forward(n, 2),
                    gaussian_forward(n, F(5, 3)),
                    gaussian_shifted(n, 3),
                    gaussian_shifted(n, F(-2)),
                    gaussian_symmetric(n, 2),
                    riemann_classic(n),
                    riemann_symmetric(n),
                    mz_stencil(n),
                    scale(gaussian_forward(n, 2), F(3, 2)),
                    vandermonde_solve(tuple(solver_nodes), n),
                )
                for s in stencils:
                    got = difference_quotient(s, f, x, h)
                    assert got == want, (n, s.kind, coeffs, x, h)  # exactly
                polys_checked += 1
        assert polys_checked == 200


# -- 8 ------------------------------------------------------------------------


def test_criterion_08_convergence_verdicts():
    with criterion(8, "convergence-verdicts", budget=1.0):
        proc = run_cli(
            "derive", "--kind", "forward", "-n", "3", "-q", "2",
            "--function", "sin", "--at", "0",
        )
        assert proc.returncode == 0, proc.stderr
        verdict = proc.stdout.strip().splitlines()[-1]
        assert verdict.startswith("# verdict: converged")
        value = float(verdict.split("value=")[1].split()[0])
        assert abs(value - (-1.0)) < 1e-6

        proc = run_cli(
            "derive", "--kind", "forward", "-n", "3", "-q", "2",
            "--function", "signpow3", "--at", "0",
        )
        assert proc.returncode == 3
        verdict = proc.stdout.strip().splitlines()[-1]
        assert "oscillating" in verdict
        pos = float(verdict.split("pos_estimate=")[1].split()[0])
        neg = float(verdict.split("neg_estimate=")[1].split()[0])
        assert abs(pos - 6.0) < 1e-6
        assert abs(neg - (-6.0)) < 1e-6


# -- 9 ------------------------------------------------------------------------


def test_criterion_09_root_packages():
    expected = {
        "thm32-n5": ((F(1), F(5)), (F(-5), F(3)), (F(-10), F(1))),
        "thm32-n6": ((F(1), F(3)), (F(-6), F(2)), (F(-15), F(1))),
        "thm32-n7": ((F(1), F(7)), (F(-7), F(5)), (F(-21), F(3)), (F(35), F(1))),
        "thm32-n8": ((F(1), F(4)), (F(-8), F(3)), (F(-28), F(2)), (F(-56), F(1))),
    }
    with criterion(9, "root-packages", budget=5.0):
        for name, terms in expected.items():
            report = run_case(name)
            window = report.phi_on_interval
            assert window.phi.terms == terms, name

            lo_val, hi_val = window.lo_value, window.hi_value
            assert lo_val * hi_val < 0, name  # exact endpoint sign change

            residual = abs(float(window.phi.eval_mp(report.exponent)))
            bound = 1e-9 * max(abs(float(lo_val)), abs(float(hi_val)))
            assert residual < bound, (name, residual, bound)

            # sampled differences vanish to relative 1e-9 (members), exactly
            # (non-members); lower-order bound; n-th-order witness
            assert report.checks["difference_vanishes"] is True, name
            assert report.checks["lower_peano_bound"] is True, name
            assert report.checks["nth_unbounded"] is True, name
            assert report.details["difference"]["worst_member_ratio_to_threshold"] < 1.0


# -- 10 -----------------------------------------------------------------------


def test_criterion_10_exhaustive_character_search():
    with criterion(10, "exhaustive-character-search", budget=1.0):
        result = run_search("search-n9")
        assert result["generators"] == [3, 5, 7]
        assert result["interval"] == [7, 9]
        assert len(result["results"]) == 8  # all 2^3 characters
        assert result["admissible"] == 0
        for row in result["results"]:
            assert row["sign_change"] is False
            # endpoints are exact integer strings (exact arithmetic)
            lo, hi = row["phi_endpoints"]
            assert F(lo) * F(hi) >= 0


# -- 11 -----------------------------------------------------------------------


def test_criterion_11_parity_witness():
    with criterion(11, "parity-witness"):
        h_samples = [F(1), F(-1), F(1, 2), F(-3, 5), F(7, 3), F(-2), F(9, 8)]
        for n in range(3, 7):
            f = FunctionHandle.builtin("signpow", power=n)
            target = float(math.factorial(n))
            for q in (F(2), F(3)):
                table = estimate_derivative(gaussian_forward(n, q), f, F(0))
                assert table.verdict == "oscillating", (n, q)
                assert abs(table.pos_estimate - target) < 1e-9, (n, q)
                assert abs(table.neg_estimate + target) < 1e-9, (n, q)

                sym = gaussian_symmetric(n, q)
                for h in h_samples:
                    assert apply_difference(sym, f, F(0), h) == 0, (n, q, h)  # exactly
                sym_table = estimate_derivative(sym, f, F(0))
                assert sym_table.verdict == "converged"
                assert sym_table.value == 0.0
                assert all(row[1] == 0 for row in sym_table.rows)
