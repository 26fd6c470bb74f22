"""Tests for group-supported functions, exponential-sum extraction, root
finding, the packaged counterexample verifications, and the character search.

Every exponential sum asserted here was recomputed by hand from the stencil
coefficients and the character signs (coefficient x sign per node, collected
by base); endpoint values are plain integer arithmetic, e.g.
4^7 - 8*3^7 - 28*2^7 - 56 = 16384 - 17496 - 3584 - 56 = -4752.
"""

import json
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from mpmath import mp

from qriemann import counterexample
from qriemann.counterexample import (
    NAMED_CASES,
    SEARCH_CASES,
    CounterexampleError,
    ExponentialSum,
    GroupFunction,
    MultiplicativeGroup,
    NoSignChangeError,
    PhiOnInterval,
    character_search,
    evaluate,
    find_exponent,
    membership,
    phi_from_stencil,
    run_case,
    run_search,
    search_to_jsonable,
    verify_counterexample,
)
from qriemann.evaluator import MP_DPS, _mp_apply, _to_mpf, apply_difference
from qriemann.stencil import Stencil, riemann_classic, riemann_symmetric, scale, vandermonde_solve

F = Fraction


def group(*gens):
    return MultiplicativeGroup(tuple(gens))


def prop25_stencil():
    return vandermonde_solve((1, 2, 3), 2)


def window_for(stn, f, interval=(1, 3), flip_sign=False):
    """phi of f's character on interval, as verify_counterexample takes it."""
    return PhiOnInterval.of(stn, f.group, f.character, interval, flip_sign)


# ---------------------------------------------------------------------------
# Groups and membership
# ---------------------------------------------------------------------------


class TestMultiplicativeGroup:
    def test_valid(self):
        g = group(2, 3, 5, 7)
        assert g.generators == (2, 3, 5, 7)

    def test_rejects_composites_and_units(self):
        for bad in ((4,), (1,), (2, 9), (0,)):
            with pytest.raises(CounterexampleError):
                MultiplicativeGroup(bad)

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(CounterexampleError):
            MultiplicativeGroup((2, 2))
        with pytest.raises(CounterexampleError):
            MultiplicativeGroup(())


class TestMembership:
    def test_integer_member(self):
        assert membership(group(2, 3), F(12)) == (2, 1)

    def test_non_member(self):
        assert membership(group(2, 3), F(10)) is None

    def test_fractional_member(self):
        assert membership(group(3, 5), F(5, 27)) == (-3, 1)

    def test_one_is_identity(self):
        assert membership(group(2, 3), F(1)) == (0, 0)

    def test_nonpositive_rejected(self):
        with pytest.raises(CounterexampleError):
            membership(group(2, 3), F(0))
        with pytest.raises(CounterexampleError):
            membership(group(2, 3), F(-8))

    def test_random_members_round_trip(self):
        rng = random.Random(6174)
        g = group(2, 3, 5)
        for _ in range(40):
            e = tuple(rng.randint(-6, 6) for _ in range(3))
            x = F(2) ** e[0] * F(3) ** e[1] * F(5) ** e[2]
            assert membership(g, x) == e


# ---------------------------------------------------------------------------
# Group functions
# ---------------------------------------------------------------------------


class TestGroupFunction:
    def test_example_values(self):
        f = GroupFunction(group(2, 3), (1, 1), 2)
        assert evaluate(f, F(6)) == 36  # exponents (1,1), sign (-1)^2
        assert evaluate(f, F(-4)) == 0
        g = GroupFunction(group(2, 3), (1, 0), 2)
        assert evaluate(g, F(2)) == -4

    def test_zero_off_support(self):
        f = GroupFunction(group(2, 3), (1, 1), 2)
        assert evaluate(f, F(10)) == 0
        assert evaluate(f, F(7, 5)) == 0
        assert evaluate(f, F(0)) == 0

    def test_fractional_member_value(self):
        # f(1/2) with character (1,0): sign (-1)^(-1) = -1, value -(1/4).
        f = GroupFunction(group(2, 3), (1, 0), 2)
        assert evaluate(f, F(1, 2)) == -F(1, 4)

    def test_character_validation(self):
        with pytest.raises(CounterexampleError):
            GroupFunction(group(2, 3), (1,), 2)
        with pytest.raises(CounterexampleError):
            GroupFunction(group(2, 3), (1, 2), 2)

    def test_exponent_validation(self):
        for bad in (0, -1):
            with pytest.raises(CounterexampleError):
                GroupFunction(group(2, 3), (1, 1), bad)

    @pytest.mark.parametrize("s", [2, 2.0, F(4, 2)], ids=["int", "float", "Fraction"])
    def test_integral_exponent_is_one_fraction_on_the_exact_path(self, s):
        f = GroupFunction(group(2, 3), (1, 0), s)
        assert f == GroupFunction(group(2, 3), (1, 0), F(2))
        assert type(f.exponent) is Fraction
        assert f.eval_exact(F(3, 2)) == -F(9, 4)  # member: chi = -1, (3/2)^2
        with mp.workdps(MP_DPS):
            assert counterexample._generator_powers(f) == [4, 9]

    def test_float_exponent_is_the_dyadic_rational_it_stands_for(self):
        f = GroupFunction(group(2, 3), (0, 1), 2.5)
        g = GroupFunction(group(2, 3), (0, 1), F(5, 2))
        assert f == g
        with mp.workdps(MP_DPS):
            for x in (F(3), F(2, 9), F(12)):
                assert f.eval_mp(x) == g.eval_mp(x)
        # 2.3 is not 23/10; its value is the one mp.mpf(2.3) gives
        h = GroupFunction(group(2, 3), (0, 1), 2.3)
        assert h.exponent == F(2.3) != F(23, 10)
        with mp.workdps(MP_DPS):
            assert h.eval_mp(F(3)) == -mp.power(3, mp.mpf(2.3))

    @pytest.mark.parametrize("bad, message", [
        (math.inf, "exponent must be a positive real"),
        (math.nan, "exponent must be a positive real"),
        ("2", "bad exponent type str"),
        (Decimal(2), "bad exponent type Decimal"),
    ], ids=["inf", "nan", "str", "Decimal"])
    def test_exponent_rejections(self, bad, message):
        with pytest.raises(CounterexampleError, match=f"^{re.escape(message)}$"):
            GroupFunction(group(2, 3), (1, 1), bad)

    def test_huge_integer_exponent_is_accepted(self):
        # math.isfinite would overflow on this int; only floats reach it
        assert GroupFunction(group(2, 3), (1, 1), 10**400).exponent == 10**400

    def test_non_integer_exponent_has_no_exact_member_value(self):
        f = GroupFunction(group(2, 3), (1, 1), 6.5)
        assert f.eval_exact(F(4)) is None  # member, irrational value
        assert f.eval_exact(F(10)) == 0  # non-member: exactly zero anyway

    def test_value_mp_matches_formula(self):
        f = GroupFunction(group(2, 3), (0, 1), 6.5)
        got = float(f.eval_mp(F(3)))
        assert got == pytest.approx(-(3.0**6.5), rel=1e-12)

    def test_handle_round_trip(self):
        f = GroupFunction(group(2, 3), (1, 1), 2)
        assert f.eval_exact(F(6)) == 36
        assert f.eval_exact(F(7)) == 0


# ---------------------------------------------------------------------------
# Exponential sums
# ---------------------------------------------------------------------------


class TestExponentialSum:
    def phi_n6(self):
        # 3^k - 6*2^k - 15
        return ExponentialSum(((F(1), F(3)), (F(-6), F(2)), (F(-15), F(1))))

    def test_eval_exact(self):
        phi = self.phi_n6()
        assert phi.eval_exact(4) == -30
        assert phi.eval_exact(5) == 36
        assert isinstance(phi.eval_exact(4), Fraction)

    def test_eval_exact_rejects_non_integer(self):
        with pytest.raises(CounterexampleError):
            self.phi_n6().eval_exact(-1)

    def test_eval_mp_agrees_with_exact_at_integers(self):
        phi = self.phi_n6()
        for k in range(0, 12):
            exact = phi.eval_exact(k)
            assert abs(float(phi.eval_mp(k)) - float(exact)) <= 1e-14 * max(
                1.0, abs(float(exact))
            )

    def test_distinct_bases_enforced(self):
        with pytest.raises(CounterexampleError):
            ExponentialSum(((F(1), F(2)), (F(3), F(2))))

    def test_zero_coefficients_dropped(self):
        phi = ExponentialSum(((F(0), F(2)), (F(1), F(3))))
        assert phi.terms == ((F(1), F(3)),)
        with pytest.raises(CounterexampleError):
            ExponentialSum(((F(0), F(2)),))

    def test_positive_bases_enforced(self):
        with pytest.raises(CounterexampleError):
            ExponentialSum(((F(1), F(-2)),))

    def test_primitive_extracts_content(self):
        phi = ExponentialSum(((F(-1, 32), F(5)), (F(5, 32), F(3)), (F(10, 32), F(1))))
        prim, content = phi.primitive()
        assert content == F(1, 32)
        assert prim.terms == ((F(-1), F(5)), (F(5), F(3)), (F(10), F(1)))

    def test_negated(self):
        phi = self.phi_n6()
        neg = phi.negated()
        assert neg.terms == ((F(-1), F(3)), (F(6), F(2)), (F(15), F(1)))
        assert neg.eval_exact(4) == 30


# ---------------------------------------------------------------------------
# phi extraction from stencils
# ---------------------------------------------------------------------------


class TestPhiFromStencil:
    def test_prop25(self):
        f = GroupFunction(group(2, 3), (1, 1), 2)
        phi = phi_from_stencil(prop25_stencil(), f)
        assert phi.terms == ((F(-1), F(3)), (F(2), F(2)), (F(1), F(1)))
        assert phi.eval_exact(2) == 0

    def test_seventh_forward_difference(self):
        # riemann_classic(7) with G=<2,3,5,7>, character (0,1,1,0):
        # 7^s + 7*6^s - 21*5^s - 35*4^s - 35*3^s - 21*2^s + 7.
        f = GroupFunction(group(2, 3, 5, 7), (0, 1, 1, 0), 6.5)
        phi = phi_from_stencil(riemann_classic(7), f)
        assert phi.terms == (
            (F(1), F(7)),
            (F(7), F(6)),
            (F(-21), F(5)),
            (F(-35), F(4)),
            (F(-35), F(3)),
            (F(-21), F(2)),
            (F(7), F(1)),
        )
        assert phi.eval_exact(6) == -54096
        assert phi.eval_exact(7) == 489804

    def test_negative_and_zero_nodes_contribute_nothing(self):
        # Symmetric stencil: only the positive nodes appear in phi.
        f = GroupFunction(group(3, 5), (1, 1), 3)
        phi = phi_from_stencil(scale(riemann_symmetric(5), 2), f)
        assert {base for _, base in phi.terms} == {F(5), F(3), F(1)}

    def test_nodes_outside_group_are_dropped(self):
        # Node 2 is not in <3,5>, so only bases 1 and 3 survive.
        f = GroupFunction(group(3, 5), (1, 1), 2)
        phi = phi_from_stencil(prop25_stencil(), f)
        assert {base for _, base in phi.terms} == {F(3), F(1)}

    def test_decomposition_identity_exact(self):
        # apply_difference(s, f, 0, h) == chi(h) * phi(s) * h^s for h in G,
        # with everything exact at integer s.
        rng = random.Random(424242)
        cases = [
            (prop25_stencil(), group(2, 3), (1, 1), 2),
            (riemann_classic(7), group(2, 3, 5, 7), (0, 1, 1, 0), 6),
            (scale(riemann_symmetric(5), 2), group(3, 5), (1, 1), 3),
            (riemann_symmetric(6), group(2, 3), (1, 1), 4),
        ]
        for stn, g, chi_bits, s_int in cases:
            f = GroupFunction(g, chi_bits, s_int)
            phi = phi_from_stencil(stn, f)
            phi_val = phi.eval_exact(s_int)
            for _ in range(12):
                e = tuple(rng.randint(-4, 4) for _ in g.generators)
                h = F(1)
                for base, expo in zip(g.generators, e):
                    h *= F(base) ** expo
                chi = -1 if sum(c * x for c, x in zip(chi_bits, e)) % 2 else 1
                lhs = apply_difference(stn, f, F(0), h)
                assert lhs == chi * phi_val * h**s_int


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


def on_interval(phi, lo, hi):
    """A bare phi on (lo, hi); find_exponent reads only phi and the interval."""
    return PhiOnInterval((), phi, (lo, hi))


class TestFindExponent:
    def test_exact_integer_root(self):
        f = GroupFunction(group(2, 3), (1, 1), 2)
        s = find_exponent(window_for(prop25_stencil(), f))
        assert s == 2 and isinstance(s, Fraction)

    def test_root_in_open_interval(self):
        phi = ExponentialSum(((F(1), F(3)), (F(-6), F(2)), (F(-15), F(1))))
        s = find_exponent(on_interval(phi, 4, 5))
        assert 4 < s < 5
        assert abs(float(phi.eval_mp(s))) < 1e-9 * 36

    def test_no_sign_change_raises(self):
        phi = ExponentialSum(((F(1), F(2)), (F(1), F(1))))  # positive everywhere
        with pytest.raises(NoSignChangeError):
            find_exponent(on_interval(phi, 1, 5))

    def test_zero_endpoint_raises(self):
        # phi(1) = 3 - 4 + 1 = 0: a zero endpoint is not a sign change.
        phi = ExponentialSum(((F(1), F(3)), (F(-2), F(2)), (F(1), F(1))))
        with pytest.raises(NoSignChangeError):
            find_exponent(on_interval(phi, 1, 3))

    @pytest.mark.parametrize("name", sorted(NAMED_CASES))
    def test_exact_value_of_the_reported_double(self, name):
        # the root is carried exactly: the Fraction of the very double the
        # report prints
        report = run_case(name)
        s = find_exponent(report.phi_on_interval)
        assert isinstance(s, Fraction)
        assert s == report.exponent


class TestPhiOnInterval:
    @pytest.mark.parametrize("interval", [(3, 1), (2, 2), (1, 2, 3), (F(1), 3), (1.0, 3)],
                             ids=["reversed", "empty", "three", "fraction", "float"])
    def test_interval_is_two_integers_lo_below_hi(self, interval):
        with pytest.raises(CounterexampleError, match="two integers lo < hi"):
            PhiOnInterval.of(prop25_stencil(), group(2, 3), (1, 1), interval)

    def test_sign_change_follows_the_exact_endpoints(self):
        # prop25's printed phi is -3^s + 2*2^s + 1: phi(1) = 2, phi(3) = -10,
        # and phi(2) = 0 exactly
        w = PhiOnInterval.of(prop25_stencil(), group(2, 3), (1, 1), (1, 3))
        assert (w.lo_value, w.hi_value, w.sign_change) == (2, -10, True)
        w = PhiOnInterval.of(prop25_stencil(), group(2, 3), (1, 1), (2, 3))
        assert (w.lo_value, w.hi_value, w.sign_change) == (0, -10, False)

    def test_run_case_builds_phi_once(self, monkeypatch):
        calls = []
        printed = counterexample.printed_phi
        monkeypatch.setattr(counterexample, "printed_phi",
                            lambda *args: calls.append(args) or printed(*args))
        assert run_case("thm32-n6").passed()
        assert len(calls) == 1

    def test_verify_rejects_another_characters_phi(self):
        f = GroupFunction(group(2, 3), (1, 1), 2)
        other = PhiOnInterval.of(prop25_stencil(), group(2, 3), (0, 1), (1, 3))
        with pytest.raises(CounterexampleError, match="another character"):
            verify_counterexample(prop25_stencil(), f, 1, other)



# ---------------------------------------------------------------------------
# Packaged cases
# ---------------------------------------------------------------------------


EXPECTED_PRESENTATIONS = {
    # case -> (phi terms of the reported presentation, endpoints, interval)
    "prop25": (
        ((F(-1), F(3)), (F(2), F(2)), (F(1), F(1))),
        (F(2), F(-10)),
        (1, 3),
    ),
    "thm32a": (
        ((F(1), F(7)), (F(7), F(6)), (F(-21), F(5)), (F(-35), F(4)),
         (F(-35), F(3)), (F(-21), F(2)), (F(7), F(1))),
        (F(-54096), F(489804)),
        (6, 7),
    ),
    "thm32-n5": (
        ((F(1), F(5)), (F(-5), F(3)), (F(-10), F(1))),
        (F(-20), F(210)),
        (3, 4),
    ),
    "thm32-n6": (
        ((F(1), F(3)), (F(-6), F(2)), (F(-15), F(1))),
        (F(-30), F(36)),
        (4, 5),
    ),
    "thm32-n7": (
        ((F(1), F(7)), (F(-7), F(5)), (F(-21), F(3)), (F(35), F(1))),
        (F(-10136), F(230776)),
        (5, 7),
    ),
    "thm32-n8": (
        ((F(1), F(4)), (F(-8), F(3)), (F(-28), F(2)), (F(-56), F(1))),
        (F(-4752), F(5824)),
        (7, 8),
    ),
}


class TestNamedCases:
    def test_catalogue(self):
        assert set(NAMED_CASES) == set(EXPECTED_PRESENTATIONS)
        assert set(SEARCH_CASES) == {"search-n9"}

    @pytest.mark.parametrize("name", sorted(EXPECTED_PRESENTATIONS))
    def test_case_passes_with_expected_phi(self, name):
        report = run_case(name)
        terms, endpoints, interval = EXPECTED_PRESENTATIONS[name]
        window = report.phi_on_interval
        assert window.phi.terms == terms
        assert (window.lo_value, window.hi_value) == endpoints
        assert window.interval == interval
        lo, hi = interval
        assert float(lo) < report.exponent < float(hi) or report.exponent in (
            float(lo) + 1,
            2.0,
        )
        assert report.passed()
        assert report.checks == {
            "difference_vanishes": True,
            "lower_peano_bound": True,
            "nth_unbounded": True,
        }

    def test_prop25_exponent_is_exactly_two(self):
        assert run_case("prop25").exponent == 2.0

    def test_root_residuals_are_tiny(self):
        for name in ("thm32-n5", "thm32-n6", "thm32-n7", "thm32-n8"):
            report = run_case(name)
            _, (lo_val, hi_val), _ = EXPECTED_PRESENTATIONS[name]
            scale_bound = 1e-9 * max(abs(float(lo_val)), abs(float(hi_val)))
            assert abs(float(report.phi_on_interval.phi.eval_mp(report.exponent))) < scale_bound

    def test_unknown_case(self):
        with pytest.raises(CounterexampleError):
            run_case("thm99")

    def test_report_json_schema(self):
        doc = run_case("thm32-n6").to_jsonable()
        assert list(doc) == [
            "stencil",
            "generators",
            "character",
            "exponent_interval",
            "exponent",
            "phi_terms",
            "phi_endpoints",
            "checks",
        ]
        assert doc["generators"] == [2, 3]
        assert doc["character"] == [1, 1]
        assert doc["phi_terms"][0] == {"coeff": "1", "base": "3"}
        assert doc["phi_endpoints"] == ["-30", "36"]
        text = run_case("thm32-n6").to_json()
        assert json.loads(text) == doc

    def test_seed_determinism(self):
        a = run_case("thm32-n5", seed=7).to_json()
        b = run_case("thm32-n5", seed=7).to_json()
        assert a == b


class TestVerifyCounterexample:
    def test_prop25_difference_vanishes_exactly(self):
        stn = prop25_stencil()
        f = GroupFunction(group(2, 3), (1, 1), 2)
        report = verify_counterexample(stn, f, 1, window_for(stn, f))
        assert report.passed()
        # The underlying claim, checked directly: the difference is exactly
        # zero both on and off the group.
        rng = random.Random(8)
        for _ in range(25):
            e = (rng.randint(-6, 6), rng.randint(-6, 6))
            h = F(2) ** e[0] * F(3) ** e[1]
            assert apply_difference(stn, f, F(0), h) == 0
        for h in (F(5), F(7, 11), F(1, 10)):
            assert apply_difference(stn, f, F(0), h) == 0

    def test_wrong_exponent_is_caught(self):
        # An exponent that is not a root of phi must fail the vanishing
        # check: the machinery detects a broken package.
        stn = prop25_stencil()
        f = GroupFunction(group(2, 3), (1, 1), F(5, 2))
        report = verify_counterexample(stn, f, 1, window_for(stn, f))
        assert report.checks["difference_vanishes"] is False
        assert not report.passed()

    def test_unbounded_witness_is_recorded(self):
        report = run_case("thm32a")
        assert report.checks["nth_unbounded"] is True
        detail = report.details["unbounded"]
        assert detail["witness_generator"] in (2, 3, 5, 7)
        assert 0 <= detail["witness_j"] <= 60
        assert detail["log10_ratio"] > 6

    def test_difference_detail_reports_sample_counts(self):
        report = run_case("thm32a")
        detail = report.details["difference"]
        assert detail["members"] == 100
        assert detail["nonmembers"] == 100
        assert detail["worst_member_ratio_to_threshold"] < 1.0

    def test_member_step_outside_the_group_is_rejected(self):
        # |h|^s comes from h's exponent vector, which a step outside G lacks.
        f = GroupFunction(group(2, 3), (1, 1), 2)
        samples = {"members": [F(1, 2), F(1, 5)], "nonmembers": [], "peano": [F(1, 2)]}
        with pytest.raises(CounterexampleError, match="1/5 is not in the group"):
            verify_counterexample(prop25_stencil(), f, 1, window_for(prop25_stencil(), f),
                                  h_samples=samples)

    def test_nonmember_step_that_reaches_the_group_is_caught(self):
        # Node 5 maps the step 1/5 onto 1, which is in G, so the difference
        # at that "nonmember" step is the nonzero coefficient of node 5.
        stn = vandermonde_solve((1, 2, 5), 2)
        f = GroupFunction(group(2, 3), (1, 1), 2)
        samples = {"members": [], "nonmembers": [F(1, 5)], "peano": [F(1, 2)]}
        report = verify_counterexample(stn, f, 1, window_for(stn, f), h_samples=samples)
        assert report.checks["difference_vanishes"] is False
        assert report.details["difference"] == {"failed_at": 0.2, "nonmember_exact_zero": False}

    def test_slow_growth_just_below_the_order_has_a_witness(self):
        # s = 19/10, n = 2, trivial character: |f(h)/h^2| = |h|^(-1/10)
        # first passes 1e6 on the ray h = 2^-j at j = 200.
        f = GroupFunction(group(2, 3), (0, 0), F(19, 10))
        samples = {"members": [F(1, 2)], "nonmembers": [F(1, 5)], "peano": [F(1, 2)]}
        report = verify_counterexample(prop25_stencil(), f, 1, window_for(prop25_stencil(), f),
                                       h_samples=samples)
        assert report.checks["nth_unbounded"] is True
        detail = report.details["unbounded"]
        assert (detail["witness_generator"], detail["witness_j"]) == (2, 200)
        assert detail["relative_error"] <= 1e-9

    def test_exponent_above_the_order_has_no_witness_and_no_oscillation(self):
        # s = 5/2 > n = 2: |f(h)/h^2| = |h|^(1/2) shrinks along every ray,
        # and the trivial character never changes its sign.
        f = GroupFunction(group(2, 3), (0, 0), F(5, 2))
        samples = {"members": [F(1, 2)], "nonmembers": [F(1, 5)], "peano": [F(1, 2)]}
        report = verify_counterexample(prop25_stencil(), f, 1, window_for(prop25_stencil(), f),
                                       h_samples=samples)
        assert report.checks["nth_unbounded"] is False
        detail = report.details["unbounded"]
        assert detail["witness_generator"] is None
        assert detail["oscillation"] is False

    @pytest.mark.parametrize("character, s, oscillates", [
        ((1, 1), F(2), True), ((1, 1), F(5, 2), False), ((1, 1), F(3), False), ((0, 0), F(2), False),
        ((0, 0), 2 - F(1, 10**6), False),
    ], ids=["chi=11,s=2", "chi=11,s=5/2", "chi=11,s=3", "chi=00,s=2", "chi=00,s=2-1e-6"])
    def test_oscillation_needs_a_sign_change_and_s_at_most_the_order(self, character, s,
                                                                     oscillates):
        # No ray reaches the threshold here.  chi = (1, 1) flips the sign of
        # f(h)/h^2 along each ray, but only for s <= n = 2 does its magnitude
        # stay at least 1; above the order it tends to 0.  At s = n with the
        # trivial character the quotient is the constant 1; at n - s = 1e-6
        # it would pass the threshold only at j in the millions.
        f = GroupFunction(group(2, 3), character, s)
        samples = {"members": [F(1, 2)], "nonmembers": [F(1, 5)], "peano": [F(1, 2)]}
        report = verify_counterexample(prop25_stencil(), f, 1, window_for(prop25_stencil(), f),
                                       h_samples=samples)
        assert report.checks["nth_unbounded"] is oscillates
        detail = report.details["unbounded"]
        assert detail["witness_generator"] is None
        assert detail["oscillation"] is oscillates


def case_function(name):
    """(stencil, f, case) for a packaged case, with f at the case's root."""
    case = NAMED_CASES[name]
    f = GroupFunction(group(*case.generators), case.character, run_case(name).exponent)
    return case.build(), f, case


def perturb_coefficient(stn, k):
    coeffs = list(stn.coeffs)
    coeffs[k] *= 1 + F(1, 10**6)
    return Stencil(stn.order, stn.nodes, tuple(coeffs), stn.kind, stn.q)


def random_members(g, rng, count):
    out = []
    for _ in range(count):
        h = F(1)
        for base in g.generators:
            h *= F(base) ** rng.randint(-8, 8)
        out.append(h)
    return out


class TestDifferenceCheckMutations:
    """Each broken package must fail difference_vanishes and nothing else."""

    @pytest.mark.parametrize("name", ["thm32a", "thm32-n8"])
    @pytest.mark.parametrize("mutation", ["exponent", "character", "coefficient"])
    def test_mutation_flips_only_the_vanishing_check(self, name, mutation):
        stn, f, case = case_function(name)
        if mutation == "exponent":
            f = GroupFunction(f.group, f.character, f.exponent + 1e-6)
        elif mutation == "character":
            f = GroupFunction(f.group, tuple(1 - b for b in f.character), f.exponent)
        else:
            stn = perturb_coefficient(stn, -1)  # the largest node is positive and in G
        report = verify_counterexample(stn, f, case.lower_order,
                                       window_for(stn, f, case.interval, case.flip_sign))
        assert report.checks == {
            "difference_vanishes": False,
            "lower_peano_bound": True,
            "nth_unbounded": True,
        }


class TestPeanoBoundMutations:
    """One caller-given smallness step on thm32a, where lower_order = 6 and
    eps = min(1/2, (s* - 6)/2) < s* - 6."""

    @pytest.mark.parametrize("h,holds", [
        (F(2), False),  # |f(2)| = 2^s* > 2^(6 + eps)
        (F(1), True),   # |f(1)| = 1 = 1^(6 + eps): the bound is not strict
        (F(-2), True),  # f is 0 off the positive group
    ], ids=["h=2", "h=1", "h=-2"])
    def test_one_step_flips_only_the_peano_check(self, h, holds):
        stn, f, case = case_function("thm32a")
        rng = random.Random(8)
        samples = {"members": counterexample._sample_members(f.group, rng, 20),
                   "nonmembers": counterexample._sample_nonmembers(f.group, stn, rng, 20),
                   "peano": [h]}
        report = verify_counterexample(stn, f, case.lower_order,
                                       window_for(stn, f, case.interval, case.flip_sign),
                                       h_samples=samples)
        assert report.checks == {
            "difference_vanishes": True,
            "lower_peano_bound": holds,
            "nth_unbounded": True,
        }


class TestGroupDifferences:
    """The generator-power member sums against the per-point mp.power
    reference, _mp_apply."""

    @pytest.mark.parametrize("name", ["thm32a", "thm32-n8"])
    def test_matches_mp_apply_off_the_root(self, name):
        rng = random.Random(2718)
        stn, f, _ = case_function(name)
        hs = random_members(f.group, rng, 20)
        hs += [-h for h in hs]  # negative nodes times negative steps land in G
        for expo in (f.exponent + 0.25, F(13, 2), 3.0625):
            g = GroupFunction(f.group, f.character, expo)
            with mp.workdps(MP_DPS):
                got = list(counterexample._group_differences(stn, g, hs))
                for h, v in zip(hs, got):
                    ref = abs(_mp_apply(stn, g, F(0), h))
                    # a forward stencil at a negative step sees only x <= 0
                    assert ref > 0 or (v == 0 and min(stn.nodes) >= 0 and h < 0)
                    assert abs(abs(v) - ref) <= mp.mpf("1e-50") * ref

    @pytest.mark.parametrize("name", ["thm32a", "thm32-n8"])
    def test_matches_mp_apply_at_the_root(self, name):
        # At the root the sum cancels about 16 digits, so the agreement is
        # measured against the size of the terms, sum_k |A_k f(a_k h)|.
        rng = random.Random(1618)
        stn, f, _ = case_function(name)
        hs = random_members(f.group, rng, 20)
        hs += [-h for h in hs]
        with mp.workdps(MP_DPS):
            got = list(counterexample._group_differences(stn, f, hs))
            for h, v in zip(hs, got):
                points = [a * h for a in stn.nodes]
                size = mp.fsum(abs(c) * mp.power(_to_mpf(x), f.exponent)
                               for c, x in zip(stn.coeffs, points) if x > 0)
                ref = abs(_mp_apply(stn, f, F(0), h))
                assert abs(abs(v) - ref) <= mp.mpf("1e-50") * size

    def test_negative_steps_through_h_samples(self):
        rng = random.Random(99)
        stn, f, case = case_function("thm32-n8")
        members = [-h for h in random_members(f.group, rng, 20)]
        samples = {"members": members, "nonmembers": [F(1, 10), F(7, 3)],
                   "peano": [F(1, 2), F(-1, 3)]}
        report = verify_counterexample(stn, f, case.lower_order, window_for(stn, f, case.interval),
                                       h_samples=samples)
        assert report.checks["difference_vanishes"] is True
        # node -4 times a negative step is a positive point in G
        broken_stn = perturb_coefficient(stn, 0)
        broken = verify_counterexample(broken_stn, f, case.lower_order,
                                       window_for(broken_stn, f, case.interval), h_samples=samples)
        assert broken.checks["difference_vanishes"] is False

    def test_threshold_is_a_billionth_of_h_to_the_s(self):
        stn, f, _ = case_function("thm32-n8")
        members = random_members(f.group, random.Random(5), 20)
        ok, detail = counterexample._check_difference_vanishes(stn, f, members, [])
        assert ok
        with mp.workdps(MP_DPS):
            want = max(abs(_mp_apply(stn, f, F(0), h))
                       / (mp.mpf("1e-9") * mp.power(_to_mpf(abs(h)), f.exponent)) for h in members)
        assert want > 0
        assert abs(detail["worst_member_ratio_to_threshold"] - float(want)) <= 1e-6 * float(want)

    def test_one_power_per_generator_and_member(self, monkeypatch):
        stn, f, _ = case_function("thm32a")
        rng = random.Random(4)
        members = counterexample._sample_members(f.group, rng, 100)
        nonmembers = counterexample._sample_nonmembers(f.group, stn, rng, 100)
        calls = []
        power = mp.power
        monkeypatch.setattr(mp, "power", lambda *a: calls.append(a) or power(*a))
        ok, _ = counterexample._check_difference_vanishes(stn, f, members, nonmembers)
        assert ok
        # the thresholds |h|^s are products of the same g_i^s
        assert len(calls) == len(f.group.generators)


class TestUnboundedEvaluatesF:
    def test_witness_value_agrees_with_prediction(self):
        detail = run_case("thm32-n8").details["unbounded"]
        assert detail["relative_error"] <= 1e-9

    def test_wrong_values_fail_only_nth_unbounded(self, monkeypatch):
        monkeypatch.setattr(GroupFunction, "eval_mp", lambda self, x: mp.mpf(0))
        report = run_case("thm32a")
        assert report.checks == {
            "difference_vanishes": True,
            "lower_peano_bound": True,
            "nth_unbounded": False,
        }


# ---------------------------------------------------------------------------
# Character search
# ---------------------------------------------------------------------------


class TestCharacterSearch:
    def test_n5_finds_the_one_admissible_character(self):
        hits = character_search(scale(riemann_symmetric(5), 2), (3, 5), 3, 4)
        assert len(hits) == 4
        flagged = [h.character for h in hits if h.sign_change]
        assert flagged == [(1, 1)]

    def test_n5_endpoint_values(self):
        hits = {h.character: h for h in character_search(
            scale(riemann_symmetric(5), 2), (3, 5), 3, 4)}
        assert hits[(1, 1)].lo_value == 20
        assert hits[(1, 1)].hi_value == -210
        # The trivial character hits an exact zero at the left endpoint.
        assert hits[(0, 0)].lo_value == 0
        assert hits[(0, 0)].sign_change is False

    def test_characters_enumerated_in_order(self):
        hits = character_search(scale(riemann_symmetric(5), 2), (3, 5), 3, 4)
        assert [h.character for h in hits] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_n9_search_is_empty(self):
        result = run_search("search-n9")
        assert result["admissible"] == 0
        assert len(result["results"]) == 8
        assert all(row["sign_change"] is False for row in result["results"])

    def test_n9_trivial_character_has_exact_zero_endpoint(self):
        result = run_search("search-n9")
        trivial = next(
            row for row in result["results"] if row["character"] == [0, 0, 0]
        )
        assert trivial["phi_endpoints"][0] == "0"

    def test_unknown_search(self):
        with pytest.raises(CounterexampleError):
            run_search("search-n12")

    def test_interval_validation(self):
        with pytest.raises(CounterexampleError):
            character_search(scale(riemann_symmetric(5), 2), (3, 5), 4, 4)


# ---------------------------------------------------------------------------
# The scale-by-two device
# ---------------------------------------------------------------------------


class TestScaleByTwoDevice:
    def test_difference_identity(self):
        # The integer-node stencil applied at step h equals 2^-5 times the
        # half-integer stencil applied at step 2h -- checked exactly.
        base = riemann_symmetric(5)
        scaled = scale(base, 2)
        f = GroupFunction(group(3, 5), (1, 1), 3)
        for e in ((0, 0), (1, 0), (-2, 1), (3, -1)):
            h = F(3) ** e[0] * F(5) ** e[1]
            lhs = apply_difference(scaled, f, F(0), h)
            rhs = F(1, 2**5) * apply_difference(base, f, F(0), 2 * h)
            assert lhs == rhs
