"""Tests for group-supported functions, exponential-sum extraction, root
finding, the packaged counterexample verifications, and the character search.

Every exponential sum asserted here was recomputed by hand from the stencil
coefficients and the character signs (coefficient x sign per node, collected
by base); endpoint values are plain integer arithmetic, e.g.
4^7 - 8*3^7 - 28*2^7 - 56 = 16384 - 17496 - 3584 - 56 = -4752.
"""

import hashlib
import json
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    find_exponent,
    membership,
    phi_from_stencil,
    run_case,
    run_search,
    verify_counterexample,
)
from qriemann.evaluator import MP_DPS, _mp_apply, _to_mpf, apply_difference
from qriemann.stencil import (
    Stencil,
    riemann_classic,
    riemann_symmetric,
    scale,
    stencil_to_jsonable,
    vandermonde_solve,
)
from qriemann.verify import DEFAULT_SEED

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

    def test_generators_are_bounded_before_the_primality_test(self, monkeypatch):
        # 999999937 is the largest prime up to MAX_GENERATOR = 10^9; 10^9 + 7
        # is prime too, and 10^18 + 3 would take 10^9 trial divisions
        assert counterexample.MAX_GENERATOR == 10**9
        assert group(999999937).generators == (999999937,)
        tested = []
        monkeypatch.setattr(counterexample, "_is_prime", lambda p: tested.append(p) or p == 2)
        for big in (10**9 + 7, 10**18 + 3):
            with pytest.raises(CounterexampleError, match="is not a prime up to 1000000000"):
                group(2, big)
        assert tested == [2, 2]

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
        assert f.eval_exact(F(6)) == 36  # exponents (1,1), sign (-1)^2
        assert f.eval_exact(F(-4)) == 0
        g = GroupFunction(group(2, 3), (1, 0), 2)
        assert g.eval_exact(F(2)) == -4

    def test_zero_off_support(self):
        f = GroupFunction(group(2, 3), (1, 1), 2)
        assert f.eval_exact(F(10)) == 0
        assert f.eval_exact(F(7, 5)) == 0
        assert f.eval_exact(F(0)) == 0

    def test_fractional_member_value(self):
        # f(1/2) with character (1,0): sign (-1)^(-1) = -1, value -(1/4).
        f = GroupFunction(group(2, 3), (1, 0), 2)
        assert f.eval_exact(F(1, 2)) == -F(1, 4)

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

    @pytest.mark.parametrize("s", [F(5, 2), 3], ids=["non-integral", "integral"])
    def test_eval_mp_takes_int_and_float_points(self, s):
        f = GroupFunction(group(2, 3), (1, 0), s)
        with mp.workdps(MP_DPS):
            assert f.eval_mp(0.5) == f.eval_mp(F(1, 2))
            assert f.eval_mp(4) == f.eval_mp(F(4))

    @pytest.mark.parametrize("s", [F(5, 2), 3], ids=["non-integral", "integral"])
    def test_eval_mp_tests_membership_once_per_positive_point(self, monkeypatch, s):
        # one membership test gives both the support and chi; x <= 0 takes none,
        # and every exact value is the one eval_exact gives, rounded once
        calls = []

        def counted(g, x):
            calls.append(x)
            return membership(g, x)

        monkeypatch.setattr(counterexample, "membership", counted)
        f = GroupFunction(group(2, 3), (1, 1), s)
        points = (F(0), F(-6), F(-1, 2), F(6), F(2, 9), F(1), F(7, 5), F(10), 0.5, 12)
        with mp.workdps(MP_DPS):
            for x in points:
                calls.clear()
                got = f.eval_mp(x)
                assert calls == ([x] if x > 0 else []), x
                exact = f.eval_exact(x)
                if exact is not None:
                    assert got == _to_mpf(exact), x
                else:
                    x = F(x)
                    assert got == f.chi(membership(f.group, x)) * mp.power(_to_mpf(x), _to_mpf(f.exponent))
            assert f.eval_mp(F(-6)) == 0 and f.eval_mp(F(10)) == 0

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


@pytest.mark.parametrize("bad", [None, "x", float("inf")], ids=repr)
@pytest.mark.parametrize("what, build", [
    pytest.param("x", lambda x: membership(group(2), x), id="membership"),
    pytest.param("coefficient", lambda x: ExponentialSum(((x, 2),)), id="sum-coefficient"),
    pytest.param("base", lambda x: ExponentialSum(((1, x),)), id="sum-base"),
    pytest.param("x", lambda x: GroupFunction(group(2, 3), (1, 0), F(5, 2)).eval_exact(x),
                 id="eval_exact"),
    pytest.param("x", lambda x: GroupFunction(group(2, 3), (1, 0), F(5, 2)).eval_mp(x),
                 id="eval_mp"),
    pytest.param("s", lambda s: ExponentialSum(((1, 2), (-1, 3))).eval_mp(s), id="sum-eval_mp"),
])
def test_input_that_is_not_a_rational_is_a_counterexample_error(what, build, bad):
    # not the bare TypeError, ValueError or OverflowError that Fraction raises
    with pytest.raises(CounterexampleError, match=f"^{what} must be a finite rational, got "):
        build(bad)


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


def bisection_at_60_digits(window):
    """find_exponent as it was before its double filter: every non-integer
    probe summed at MP_DPS digits, the endpoint values carried from the
    probes.  The reference the filtered bisection must match."""
    phi = window.phi
    lo, hi = (float(v) for v in window.interval)
    slo = 1 if window.lo_value > 0 else -1
    with mp.workdps(MP_DPS):
        logs = [(_to_mpf(c), mp.log(_to_mpf(b))) for c, b in phi.terms]
        vlo, vhi = _to_mpf(window.lo_value), _to_mpf(window.hi_value)
        for _ in range(200):
            mid = (lo + hi) / 2
            if not (lo < mid < hi):
                break
            vmid, smid = counterexample._phi_signed_value(phi, logs, mid)[:2]
            if smid == 0:
                return F(mid)
            if smid == slo:
                lo, vlo = mid, vmid
            else:
                hi, vhi = mid, vmid
        return F(lo if abs(vlo) <= abs(vhi) else hi)


@st.composite
def sign_change_windows(draw):
    """phi of 2-7 terms, coefficients k/d with |k| <= 99 and d <= 9 and
    bases k/d up to 60, on an integer interval in [0, 40] whose exact
    endpoint values have opposite signs.  Where phi keeps one sign on
    0..40, its largest base's coefficient changes sign."""
    terms = draw(st.lists(
        st.tuples(st.builds(F, st.integers(-99, 99).filter(bool), st.integers(1, 9)),
                  st.builds(F, st.integers(1, 60), st.integers(1, 60))),
        min_size=2, max_size=7, unique_by=lambda t: t[1]))
    for flip in (1, -1):
        phi = ExponentialSum(tuple((c * flip if b == max(b for _, b in terms) else c, b)
                                   for c, b in terms))
        signs = [(v > 0) - (v < 0) for v in map(phi.eval_exact, range(41))]
        pairs = [(lo, hi) for lo in range(41) for hi in range(lo + 1, 41)
                 if signs[lo] * signs[hi] < 0]
        if pairs:
            return on_interval(phi, *draw(st.sampled_from(pairs)))
    assume(False)


@st.composite
def clustered_root_windows(draw):
    """phi(s) = prod_i (b^s - v_i) expanded exactly, for a base b in 2..5,
    on an integer interval (lo, hi) with every b^lo < v_i < b^hi: a cluster
    of 2 or 3 roots log_b v_i, neighbours about 1e-12 to 1e-6 apart (each
    v_i is the last times 1 + k 10^-j, k < 10, 7 <= j <= 12), and with a
    pair a distant third root, so that phi changes sign on the interval.
    Near a cluster phi is far from its tangent at any centre."""
    b = draw(st.integers(2, 5))
    lo = draw(st.integers(0, 3))
    hi = lo + draw(st.integers(1, 3))
    at = [F(draw(st.integers(1, 98)), 100)]
    vs = [b**lo + (b**hi - b**lo) * at[0]]
    for _ in range(draw(st.integers(1, 2))):
        vs.append(vs[-1] * (1 + F(draw(st.integers(1, 9)), 10 ** draw(st.integers(7, 12)))))
    if len(vs) == 2:
        at.append(F(draw(st.integers(1, 98)), 100))
        assume(abs(at[1] - at[0]) >= F(1, 10))
        vs.append(b**lo + (b**hi - b**lo) * at[1])
    coeffs = [F(1)]  # of b^(k s), k = 0, 1, ..: multiply by b^s - v for each v
    for v in vs:
        coeffs = [(coeffs[k - 1] if k else 0) - v * (coeffs[k] if k < len(coeffs) else 0)
                  for k in range(len(coeffs) + 1)]
    window = on_interval(ExponentialSum(tuple((c, F(b) ** k) for k, c in enumerate(coeffs))), lo, hi)
    assert window.sign_change
    return window


class TestBisectionFilter:
    """find_exponent decides a probe's sign in doubles, or from the
    expansion about its last 60-digit sum, where their error bounds allow,
    and lands on the very double of the 60-digit bisection."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(sign_change_windows())
    def test_lands_on_the_60_digit_root(self, window):
        assert find_exponent(window) == bisection_at_60_digits(window)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(clustered_root_windows())
    def test_lands_on_the_60_digit_root_among_clustered_roots(self, window):
        assert find_exponent(window) == bisection_at_60_digits(window)

    def test_thm32a_sums_at_60_digits_on_few_probes(self, monkeypatch):
        # the 60-digit bisection sums phi at all 50 probes; the doubles leave
        # open only those within a few thousand doubles of the root, and the
        # expansion about the first of them decides the rest and the final
        # choice between the two endpoints
        case = NAMED_CASES["thm32a"]
        window = PhiOnInterval.of(case.build(), group(*case.generators), case.character,
                                  case.interval, case.flip_sign)
        sums, value = [], counterexample._phi_signed_value
        monkeypatch.setattr(counterexample, "_phi_signed_value",
                            lambda *a: sums.append(a[2]) or value(*a))
        bisection_at_60_digits(window)
        assert len(sums) == 50
        sums.clear()
        find_exponent(window)
        assert len(sums) <= 2

    def test_three_roots_within_3e_12_need_the_remainder(self):
        # (2^s - 2)(2^s - 2(1 + e))(2^s - 2(1 + 2e)) expanded, e = 10^-12: the
        # doubles leave open every probe within about 3e-5 of s = 1, and there
        # phi is so far from its tangent at any centre that only the
        # remainder keeps the expansion from deciding those probes wrongly.
        # On (0, 2) the first probe would be the exact root 1, so the window
        # is (0, 3)
        e = F(1, 10**12)
        a, b, c = 2, 2 * (1 + e), 2 * (1 + 2 * e)
        phi = ExponentialSum(((F(1), F(8)), (-(a + b + c), F(4)),
                              (a * b + b * c + c * a, F(2)), (-a * b * c, F(1))))
        window = on_interval(phi, 0, 3)
        want = bisection_at_60_digits(window)
        assert find_exponent(window) == want
        assert abs(want - 1) < 3e-12

    def test_a_probe_inside_the_remainder_is_left_open(self):
        # phi = 2^s - 3 about c = log2(3) - 10^-3: 1.7e-7 right of the root phi
        # is positive while its tangent is negative by about half the
        # remainder; 1e-5 either side of the root the tangent decides
        phi = ExponentialSum(((F(1), F(2)), (F(-3), F(1))))
        root = math.log2(3)
        with mp.workdps(MP_DPS):
            logs = [(_to_mpf(c), mp.log(_to_mpf(b))) for c, b in phi.terms]
            doubles = [(float(c), float(lb)) for c, lb in logs]
            c = root - 1e-3
            value, _, slope = counterexample._phi_signed_value(phi, logs, c)
            centre = counterexample._centre(doubles, c, value, slope)
            s = root + 1.7e-7
            assert phi.eval_mp(F(s)) > 0 > centre[1] + centre[2] * (s - c)
        assert counterexample._expansion_sign(centre, (s,)) == 0
        assert counterexample._expansion_sign(centre, (root + 1e-5,)) == 1
        assert counterexample._expansion_sign(centre, (root - 1e-5,)) == -1

    @pytest.mark.parametrize("terms, root", [
        # 10^(400 s) - 20 * 10^(399 s): exp(s ln 10^400) overflows a double
        (((F(1), F(10) ** 400), (F(-20), F(10) ** 399)), math.log10(20)),
        # 10^400 (3^s - 5 * 2^s) and 10^-400 (3^s - 5 * 2^s): coefficients
        # past the double range and below it
        (((F(10) ** 400, F(3)), (-5 * F(10) ** 400, F(2))), math.log(5, 1.5)),
        (((F(1, 10**400), F(3)), (F(-5, 10**400), F(2))), math.log(5, 1.5)),
    ], ids=["base-10^400", "coefficient-10^400", "coefficient-10^-400"])
    def test_out_of_range_terms_leave_every_probe_at_60_digits(self, monkeypatch, terms, root):
        window = on_interval(ExponentialSum(terms), 1, 6)
        sums, value = [], counterexample._phi_signed_value
        monkeypatch.setattr(counterexample, "_phi_signed_value",
                            lambda *a: sums.append(a[2]) or value(*a))
        want = bisection_at_60_digits(window)
        probes = len(sums)
        sums.clear()
        assert find_exponent(window) == want
        assert abs(want - root) < 1e-14
        assert len(sums) == probes + 2  # every probe, then the two endpoints

    @pytest.mark.parametrize("doubles", [
        [(math.inf, 0.5), (-1.0, 0.0)],       # a coefficient past the double range
        [(1e-310, 0.5), (-1e-300, 0.0)],      # a subnormal coefficient
        [(1e300, -480.0), (-1e-14, 0.0)],     # exp(1.5 * -480) is subnormal, t is not
        [(1.0, -500.0), (-1.0, 0.0)],         # t = exp(-750) underflows to 0
        [(1.0, 1000.0), (-1.0, 0.0)],         # exp(1500) overflows
    ], ids=["inf-coefficient", "subnormal-coefficient", "subnormal-exp", "underflow", "overflow"])
    def test_out_of_range_terms_leave_the_sign_open(self, doubles):
        assert counterexample._double_sign(doubles, 1.5) == 0

    def test_an_undecided_sum_leaves_the_sign_open(self):
        # 3^s - 2^s - 1 = 0 at s = 1: one double either side the sum is
        # far inside the bound, a millionth away far outside it
        doubles = [(1.0, math.log(3)), (-1.0, math.log(2)), (-1.0, 0.0)]
        assert counterexample._double_sign(doubles, math.nextafter(1.0, 2)) == 0
        assert counterexample._double_sign(doubles, math.nextafter(1.0, 0)) == 0
        assert counterexample._double_sign(doubles, 1 + 1e-6) == 1
        assert counterexample._double_sign(doubles, 1 - 1e-6) == -1


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

    @pytest.mark.parametrize("stn, gens, bits, printed", [
        # thm32-n5's stencil: raw sum (-5^s + 5 3^s + 10) / 32, content 1/32
        (scale(riemann_symmetric(5), 2), (3, 5), (1, 1), ((-1, 5), (5, 3), (10, 1))),
        # raw sum 2 3^s - 4 2^s + 2, content 2
        (Stencil(2, (1, 2, 3), (2, -4, 2)), (2, 3), (0, 0), ((1, 3), (-2, 2), (1, 1))),
    ], ids=["content-1/32", "content-2"])
    def test_printed_phi_has_coprime_integer_coefficients(self, stn, gens, bits, printed):
        plain = PhiOnInterval.of(stn, group(*gens), bits, (3, 4))
        flipped = PhiOnInterval.of(stn, group(*gens), bits, (3, 4), flip_sign=True)
        assert plain.phi.terms == printed
        assert flipped.phi.terms == tuple((-c, b) for c, b in printed)
        assert (flipped.lo_value, flipped.hi_value) == (-plain.lo_value, -plain.hi_value)

    def test_run_case_builds_phi_once(self, monkeypatch):
        calls = []
        extract = counterexample.phi_from_stencil
        monkeypatch.setattr(counterexample, "phi_from_stencil",
                            lambda *args: calls.append(args) or extract(*args))
        assert run_case("thm32-n6").passed()
        assert len(calls) == 1

    def test_verify_rejects_another_characters_phi(self):
        f = GroupFunction(group(2, 3), (1, 1), 2)
        other = PhiOnInterval.of(prop25_stencil(), group(2, 3), (0, 1), (1, 3))
        with pytest.raises(CounterexampleError, match="another character"):
            verify_counterexample(prop25_stencil(), f, 1, other)

    @pytest.mark.parametrize("lower_order", [True, False])
    def test_verify_rejects_a_bool_lower_order(self, lower_order):
        f = GroupFunction(group(2, 3), (1, 1), 2)
        with pytest.raises(CounterexampleError, match="lower_order must be an integer >= 0"):
            verify_counterexample(prop25_stencil(), f, lower_order,
                                  window_for(prop25_stencil(), f))



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

    @pytest.mark.parametrize("name", ["thm99", []], ids=repr)
    def test_unknown_case(self, name):
        # an unhashable name is unknown too, not a bare TypeError
        with pytest.raises(CounterexampleError, match="^unknown case "):
            run_case(name)

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
        # no step is drawn at random, so a report repeats byte for byte
        a = run_case("thm32-n5").to_json()
        b = run_case("thm32-n5").to_json()
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

    def test_difference_detail_reports_sample_counts(self):
        # the default member steps are the reciprocals of G's four generators
        report = run_case("thm32a")
        detail = report.details["difference"]
        assert detail["members"] == 4
        assert detail["nonmembers"] == 0
        assert detail["worst_member_ratio_to_threshold"] < 1.0

    def test_member_step_outside_the_group_is_rejected(self):
        # |h|^s comes from h's exponent vector, which a step outside G lacks.
        f = GroupFunction(group(2, 3), (1, 1), 2)
        samples = {"members": [F(1, 2), F(1, 5)], "nonmembers": [], "peano": [F(1, 2)]}
        with pytest.raises(CounterexampleError, match="1/5 is not in the group"):
            verify_counterexample(prop25_stencil(), f, 1, window_for(prop25_stencil(), f),
                                  h_samples=samples)

    def test_nonmember_step_in_the_group_is_rejected(self):
        # At prop25's exact root s = 2 a member's sum is exactly 0, so the
        # steps 1/2 and 1/3 of G would pass the nonmembers' literal-zero test.
        stn, f = prop25_stencil(), GroupFunction(group(2, 3), (1, 1), 2)
        assert stn.nodes == (1, 2, 3)
        with pytest.raises(CounterexampleError, match="nonmember step 1/2 is in the group"):
            counterexample._check_difference_vanishes(stn, f, [F(1, 2)], [F(1, 2), F(1, 3)])
        samples = {"members": [F(1, 2)], "nonmembers": [F(1, 5), F(1, 3)], "peano": [F(1, 2)]}
        with pytest.raises(CounterexampleError, match="nonmember step 1/3 is in the group"):
            verify_counterexample(stn, f, 1, window_for(stn, f), h_samples=samples)

    @pytest.mark.parametrize("name", ["members", "nonmembers", "peano"])
    def test_zero_step_is_rejected_in_every_list(self, name):
        # At h = 0 every point a_k h is 0, outside G: a nonmember sum would
        # vanish as an empty sum and pass without testing anything.
        f = GroupFunction(group(2, 3), (1, 1), 2)
        samples = {"members": [F(1, 2)], "nonmembers": [F(1, 5)], "peano": [F(1, 2)]}
        samples[name] = samples[name] + [F(0)]
        with pytest.raises(CounterexampleError,
                           match=re.escape(f"h_samples[{name!r}] holds a zero step")):
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

    @pytest.mark.parametrize("s", [
        F(19, 10), 2 - F(1, 10**6), F(2), 2 + F(1, 10**30), F(5, 2), F(3),
    ], ids=["s=19/10", "s=2-1e-6", "s=2", "s=2+1e-30", "s=5/2", "s=3"])
    @pytest.mark.parametrize("character", [(0, 0), (1, 1)], ids=["chi=00", "chi=11"])
    def test_nth_unbounded_is_s_at_most_the_order(self, character, s):
        # Along G, f(h)/h^2 = +-h^(s-2): unbounded below the order, however
        # slowly it grows (h^(-1e-6) passes 1e6 only at h = 2^-(2e7)).  At
        # s = n it is chi(h) at every h > 0 in G and 0 at every h < 0, so it
        # has no limit for either character.  Above the order it tends to 0,
        # even at s = 2 + 1e-30, which rounds to the double 2.0.
        f = GroupFunction(group(2, 3), character, s)
        report = verify_counterexample(prop25_stencil(), f, 1, window_for(prop25_stencil(), f))
        assert report.checks["nth_unbounded"] is (s <= 2)

    def test_exponent_just_above_the_lower_order_is_accepted(self):
        # s = 1 + 1e-30 rounds to the double 1.0, yet exceeds m = 1 exactly;
        # eps = (s - m) / 2 is then the exact Fraction, and |f(h)| = h^s
        # stays below h^(m + eps) at the member steps h < 1
        f = GroupFunction(group(2, 3), (1, 1), 1 + F(1, 10**30))
        report = verify_counterexample(prop25_stencil(), f, 1, window_for(prop25_stencil(), f))
        assert report.details["peano_epsilon"] == F(1, 2 * 10**30)
        assert report.checks["lower_peano_bound"] is True

    def test_exponent_at_the_lower_order_is_rejected(self):
        f = GroupFunction(group(2, 3), (1, 1), 1)
        with pytest.raises(CounterexampleError, match="exponent must exceed lower_order"):
            verify_counterexample(prop25_stencil(), f, 1, window_for(prop25_stencil(), f))

    def test_epsilon_stays_a_double_where_the_doubles_resolve_it(self):
        f = GroupFunction(group(2, 3), (1, 1), F(5, 4))
        report = verify_counterexample(prop25_stencil(), f, 1, window_for(prop25_stencil(), f))
        assert type(report.details["peano_epsilon"]) is float
        assert report.details["peano_epsilon"] == 0.125

    @pytest.mark.parametrize("samples, message", [
        ({"members": [], "nonmembers": [], "peano": [F(1, 2)]}, "leaves a check without a step"),
        ({"members": [F(1, 2)], "nonmembers": [], "peano": []}, "leaves a check without a step"),
        ({"members": [F(1, 2)], "peano": [F(1, 2)]}, "lacks the step lists ['nonmembers']"),
    ], ids=["no-difference-step", "no-peano-step", "no-nonmember-list"])
    def test_h_samples_give_every_check_a_step_list_and_a_step(self, samples, message):
        # At s = 3 prop25's difference is nonzero on G, yet a difference
        # check without a step would pass it; so would a Peano check.
        f = GroupFunction(group(2, 3), (1, 1), 3)
        with pytest.raises(CounterexampleError, match=re.escape(message)):
            verify_counterexample(prop25_stencil(), f, 1, window_for(prop25_stencil(), f),
                                  h_samples=samples)


# a stencil whose positive nodes 7, 11 and 13 lie outside some G
NODES_2_TO_13 = vandermonde_solve((-2, 1, 2, 7, 11, 13), 5)


# SHA-256 of json.dumps({case: [checks, details]}, sort_keys=True) over the
# six named cases: pins every verdict and every float of the details.
NAMED_CHECKS_SHA256 = "dc051cf53b1880feb4aff3bec47c621ae778094c62a1cbe7f9d24116716e5155"


def test_named_case_checks_and_details_are_pinned():
    doc = {}
    for name in NAMED_CASES:
        report = run_case(name)
        doc[name] = [report.checks, report.details]
    assert len(doc) == 6
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == NAMED_CHECKS_SHA256


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


def unit_members(g, rng, count):
    """Members of G in (0, 1): 1 over a product of generator powers with
    exponents in 0..10, the product 1 redrawn."""
    out = []
    while len(out) < count:
        d = math.prod(base ** rng.randint(0, 10) for base in g.generators)
        if d > 1:
            out.append(F(1, d))
    return out


def empty_sum_nonmembers(stn, g, rng, count):
    """Steps outside G at which the difference is an empty sum, because no
    positive node maps them into G: members in (0, 1) over one of the two
    smallest primes outside G, and dyadic rationals in (0, 1)."""
    primes = [p for p in range(2, 30) if all(p % d for d in range(2, p)) and p not in g.generators]
    out = []
    while len(out) < count:
        h = F(rng.random()) if rng.random() < 1 / 3 else unit_members(g, rng, 1)[0] / rng.choice(primes[:2])
        if h > 0 and all(membership(g, x) is None for x in [h] + [a * h for a in stn.nodes if a > 0]):
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


@pytest.mark.parametrize("name", ["thm32a", "thm32-n8"])
@pytest.mark.parametrize("mutation", ["root", "exponent", "character", "coefficient"])
def test_member_verdicts_match_the_per_point_sums(name, mutation):
    # The check reads chi(h) W against 1e-9; the reference forms each
    # member's sum point by point and compares it with 1e-9 |h|^s.
    stn, f, _ = case_function(name)
    if mutation == "exponent":
        f = GroupFunction(f.group, f.character, f.exponent + 1e-6)
    elif mutation == "character":
        f = GroupFunction(f.group, tuple(1 - b for b in f.character), f.exponent)
    elif mutation == "coefficient":
        stn = perturb_coefficient(stn, -1)
    members = unit_members(f.group, random.Random(DEFAULT_SEED), 100)
    ok, detail = counterexample._check_difference_vanishes(stn, f, members, [])
    with mp.workdps(MP_DPS):
        s = _to_mpf(f.exponent)
        ratios = [float(abs(_mp_apply(stn, f, F(0), h)) / (mp.mpf("1e-9") * mp.power(_to_mpf(h), s)))
                  for h in members]
    assert ok is all(r <= 1 for r in ratios)
    assert ok is (mutation == "root")
    if ok:
        want = max(ratios)
        assert abs(detail["worst_member_ratio_to_threshold"] - want) <= 1e-6 * want
    else:
        k = next(k for k, r in enumerate(ratios) if r > 1)
        assert detail["failed_at"] == float(members[k])
        assert abs(detail["ratio_to_threshold"] - ratios[k]) <= 1e-6 * ratios[k]


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
        samples = {"members": unit_members(f.group, rng, 20),
                   "nonmembers": empty_sum_nonmembers(stn, f.group, rng, 20),
                   "peano": [h]}
        report = verify_counterexample(stn, f, case.lower_order,
                                       window_for(stn, f, case.interval, case.flip_sign),
                                       h_samples=samples)
        assert report.checks == {
            "difference_vanishes": True,
            "lower_peano_bound": holds,
            "nth_unbounded": True,
        }


@pytest.mark.parametrize("name", list(NAMED_CASES))
@pytest.mark.parametrize("mutation", ["root", "exponent", "character", "coefficient"])
def test_default_steps_give_the_checks_of_drawn_steps(name, mutation):
    # The generator reciprocals against 100 members in (0, 1), 100
    # nonmembers with empty sums and a Peano set of 60 members, 40
    # nonmembers and 10 negated members, all drawn here.  The coefficient
    # mutation perturbs the largest positive node in G.
    stn, f, case = case_function(name)
    if mutation == "exponent":
        f = GroupFunction(f.group, f.character, f.exponent + 1e-6)
    elif mutation == "character":
        f = GroupFunction(f.group, tuple(1 - b for b in f.character), f.exponent)
    elif mutation == "coefficient":
        stn = perturb_coefficient(stn, max(k for k, a in enumerate(stn.nodes)
                                           if a > 0 and membership(f.group, a) is not None))
    rng = random.Random(DEFAULT_SEED)
    samples = {"members": unit_members(f.group, rng, 100),
               "nonmembers": empty_sum_nonmembers(stn, f.group, rng, 100),
               "peano": (unit_members(f.group, rng, 60) + empty_sum_nonmembers(stn, f.group, rng, 40)
                         + [-h for h in unit_members(f.group, rng, 10)])}
    window = window_for(stn, f, case.interval, case.flip_sign)
    default = verify_counterexample(stn, f, case.lower_order, window)
    drawn = verify_counterexample(stn, f, case.lower_order, window, h_samples=samples)
    assert default.checks == drawn.checks
    assert default.checks["difference_vanishes"] is (mutation == "root")
    # every member in (0, 1) compares the same |phi(s)| with 1e-9
    key = "worst_member_ratio_to_threshold" if mutation == "root" else "ratio_to_threshold"
    assert default.details["difference"][key] == drawn.details["difference"][key]


def test_peano_bound_is_formed_only_where_f_is_nonzero(monkeypatch):
    # thm32a's default Peano steps: the reciprocals of its four generators.
    # f(h) takes one mp.power at each positive member and none elsewhere.
    # The bound |h|^(6 + eps) is needed only where f(h) != 0, and there
    # doubles decide it, so no mp.power forms it.
    stn, f, case = case_function("thm32a")
    h_sets, calls, active = [], [], []
    check, power = counterexample.peano_bound_check, mp.power

    def counted(*args):
        h_sets.append(list(args[-1]))
        active.append(True)
        try:
            return check(*args)
        finally:
            active.clear()

    def counted_power(*a):
        if active:
            calls.append(a)
        return power(*a)

    monkeypatch.setattr(mp, "power", counted_power)
    monkeypatch.setattr(counterexample, "peano_bound_check", counted)
    report = verify_counterexample(stn, f, case.lower_order,
                                   window_for(stn, f, case.interval, case.flip_sign))
    assert report.checks["lower_peano_bound"] is True
    (h_set,) = h_sets
    members = [h for h in h_set if h > 0 and membership(f.group, h) is not None]
    assert (len(h_set), len(members)) == (4, 4)
    assert len(calls) == len(members)
    assert all(y == _to_mpf(f.exponent) for _, y in calls)  # f's own x^s


def side_sums(stn, f, hs):
    """(h, D(sign h), |h|^s) for each step h, D(+-1) from the check's own
    apply path, with the terms' size sum_k |A_k f(a_k h)| last; call
    inside an mp.workdps block."""
    d = {sign: counterexample._difference(stn, f, F(sign)) for sign in (1, -1)}
    s = _to_mpf(f.exponent)
    for h in hs:
        size = mp.fsum(abs(_to_mpf(c) * f.eval_mp(a * h)) for a, c in zip(stn.nodes, stn.coeffs))
        yield h, d[1 if h > 0 else -1], mp.power(_to_mpf(abs(h)), s), size


class TestGroupDifferences:
    """The identity the check reads at member steps: the sum at h in G is
    chi(|h|) |h|^s D(sign h), D(+-1) the sums at h = +-1, against the
    per-point mp.power reference _mp_apply, and D(+1) and D(-1) against
    phi's two side sums.  Each is compared within 1e-50 of the terms'
    size, sum_k |A_k f(a_k h)|, as at the root the sum cancels about 16
    digits."""

    @pytest.mark.parametrize("name", ["thm32a", "thm32-n8"])
    def test_matches_mp_apply_off_the_root(self, name):
        rng = random.Random(2718)
        stn, f, _ = case_function(name)
        hs = random_members(f.group, rng, 20)
        hs += [-h for h in hs]  # negative nodes times negative steps land in G
        for expo in (f.exponent + F(1, 4), F(13, 2), 3):
            g = GroupFunction(f.group, f.character, expo)
            with mp.workdps(MP_DPS):
                for h, d, h_power, size in side_sums(stn, g, hs):
                    want = g.chi(membership(g.group, abs(h))) * h_power * d
                    ref = _mp_apply(stn, g, F(0), h)
                    # a forward stencil at a negative step sees only x <= 0
                    assert ref != 0 or (d == 0 and min(stn.nodes) >= 0 and h < 0)
                    assert abs(want - ref) <= mp.mpf("1e-50") * size

    @pytest.mark.parametrize("name", ["thm32a", "thm32-n8"])
    def test_matches_mp_apply_at_the_root(self, name):
        rng = random.Random(1618)
        stn, f, _ = case_function(name)
        hs = random_members(f.group, rng, 20)
        hs += [-h for h in hs]
        with mp.workdps(MP_DPS):
            for h, d, h_power, size in side_sums(stn, f, hs):
                want = f.chi(membership(f.group, abs(h))) * h_power * d
                assert abs(want - _mp_apply(stn, f, F(0), h)) <= mp.mpf("1e-50") * size

    @pytest.mark.parametrize("name", ["thm32a", "thm32-n8"])
    def test_member_sums_follow_the_phi_identity(self, name):
        # D(+1) is phi_from_stencil's sum and D(-1) the same sum over the
        # negated negative nodes in G (0 without one), each term from its
        # own mp.power
        stn, root, _ = case_function(name)
        for expo in (root.exponent, root.exponent + F(1, 4), 3):
            f = GroupFunction(root.group, root.character, expo)
            minus = [(c * f.chi(e), -a) for a, c in zip(stn.nodes, stn.coeffs)
                     if a < 0 and (e := membership(f.group, -a)) is not None]
            with mp.workdps(MP_DPS):
                phi = {1: phi_from_stencil(stn, f).eval_mp(f.exponent),
                       -1: ExponentialSum(tuple(minus)).eval_mp(f.exponent) if minus else 0}
                for h, d, _, size in side_sums(stn, f, [F(1), F(-1)]):
                    assert abs(d - phi[h]) <= mp.mpf("1e-50") * size

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

    def test_one_mp_apply_per_side_of_0(self, monkeypatch):
        # thm32a's 100 + 100 drawn steps: the members all lie in (0, 1) and
        # need only D(+1); each nonmember's sum is an exact empty sum.  On
        # thm32-n8 members on both sides need D(+1) and D(-1), once each.
        stn, f, _ = case_function("thm32a")
        rng = random.Random(4)
        members = unit_members(f.group, rng, 100)
        nonmembers = empty_sum_nonmembers(stn, f.group, rng, 100)
        n8_stn, n8_f, _ = case_function("thm32-n8")
        n8_members = random_members(n8_f.group, rng, 50)
        applied, mp_apply = [], counterexample._mp_apply
        monkeypatch.setattr(counterexample, "_mp_apply",
                            lambda *a: applied.append(a[3]) or mp_apply(*a))
        ok, _ = counterexample._check_difference_vanishes(stn, f, members, nonmembers)
        assert ok
        assert applied == [1]
        applied.clear()
        ok, _ = counterexample._check_difference_vanishes(
            n8_stn, n8_f, n8_members + [-h for h in n8_members], [])
        assert ok
        assert applied == [1, -1]


G23 = group(2, 3)
g23_members = st.builds(lambda i, j: F(2) ** i * F(3) ** j, st.integers(-4, 4), st.integers(-4, 4))
node_mixes = st.tuples(
    st.lists(st.builds(lambda m, neg: -m if neg else m, g23_members, st.booleans()),
             min_size=1, max_size=4),
    st.lists(st.fractions(min_value=-12, max_value=12, max_denominator=7), max_size=4),
    st.booleans(),
).map(lambda t: sorted(set(t[0] + t[1] + [F(0)] * t[2]))).filter(lambda nodes: len(nodes) >= 2)


def oracle_steps(stn, members):
    """Members, negative members, m/5 and m/7, and for each node a outside
    G the step m/a, which a maps back onto the member m."""
    outside = [a for a in stn.nodes if a != 0 and membership(G23, abs(a)) is None]
    return (members + [-m for m in members] + [m / 5 for m in members] + [m / 7 for m in members]
            + [m / a for m in members for a in outside])


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(node_mixes, st.tuples(st.integers(0, 1), st.integers(0, 1)),
       st.one_of(st.integers(1, 8).map(F),
                 st.fractions(min_value=F(1, 2), max_value=9, max_denominator=16)),
       st.lists(g23_members, min_size=1, max_size=3))
def test_group_differences_match_the_per_point_reference(nodes, character, exponent, members):
    # the check's verdict at each step alone against the per-point one:
    # |sum| <= 1e-9 |h|^s at a member, a literal 0 at a nonmember
    stn = vandermonde_solve(nodes, len(nodes) - 1)
    f = GroupFunction(G23, character, exponent)
    for h in oracle_steps(stn, members):
        in_g = membership(G23, abs(h)) is not None
        ok, detail = counterexample._check_difference_vanishes(stn, f, [h] * in_g, [h] * (not in_g))
        if exponent.denominator == 1:
            total = apply_difference(stn, f, F(0), h)
            ratio = abs(total) / (F(1, 10**9) * abs(h) ** exponent.numerator)
        else:
            with mp.workdps(MP_DPS):
                total = _mp_apply(stn, f, F(0), h)
                ratio = abs(total) / (mp.mpf("1e-9") * mp.power(_to_mpf(abs(h)), _to_mpf(exponent)))
        if not in_g:
            assert ok is (total == 0)
            continue
        assert ok is (ratio <= 1)
        got = detail["worst_member_ratio_to_threshold" if ok else "ratio_to_threshold"]
        assert abs(got - float(ratio)) <= 1e-12 * float(ratio)


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

    def test_n9_report_fields(self):
        result = run_search("search-n9")
        assert list(result) == ["stencil", "generators", "interval", "results", "admissible"]
        assert result["stencil"] == stencil_to_jsonable(scale(riemann_symmetric(9), 2))
        assert (result["generators"], result["interval"]) == ([3, 5, 7], [7, 9])
        assert [row["character"] for row in result["results"]] == [
            [a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        for row in result["results"]:
            assert list(row) == ["character", "phi_terms", "phi_endpoints", "sign_change"]

    def test_n9_trivial_character_has_exact_zero_endpoint(self):
        result = run_search("search-n9")
        trivial = next(
            row for row in result["results"] if row["character"] == [0, 0, 0]
        )
        assert trivial["phi_endpoints"][0] == "0"

    @pytest.mark.parametrize("name", ["search-n12", {}], ids=repr)
    def test_unknown_search(self, name):
        with pytest.raises(CounterexampleError, match="^unknown search "):
            run_search(name)

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
