"""Tests for stencil application, quotient recursions, convergence tables,
and the small-o bound surrogate.

Exactness oracles: on rational polynomials every order-n stencil must return
the n-th derivative exactly, so expected values are computed here by literal
term differentiation.  Floating-path oracles use analytic derivatives of the
builtins (sin''' (0) = -1, etc.).
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from qriemann import evaluator
from qriemann.counterexample import GroupFunction, MultiplicativeGroup
from qriemann.evaluator import (
    MP_DPS,
    EvaluatorError,
    FunctionHandle,
    _exact_apply,
    _mp_apply,
    _row_quotients,
    _to_mpf,
    apply_difference,
    difference_quotient,
    estimate_derivative,
    peano_bound_check,
    recursive_quotient,
)
from qriemann.stencil import (
    CLASSICAL_BUILDERS,
    GAUSSIAN_BUILDERS,
    Stencil,
    gaussian_forward,
    gaussian_shifted,
    gaussian_symmetric,
    is_symmetric,
    moments,
    riemann_classic,
    riemann_symmetric,
    scale,
    vandermonde_solve,
)

F = Fraction


def poly_nth_derivative(coeffs, n, x):
    """Exact n-th derivative of sum(c_j x^j) at rational x."""
    total = F(0)
    for j, c in enumerate(coeffs):
        if j >= n:
            total += F(c) * math.perm(j, n) * F(x) ** (j - n)
    return total


def random_poly(rng, degree):
    return [F(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(degree + 1)]


# ---------------------------------------------------------------------------
# FunctionHandle
# ---------------------------------------------------------------------------


class TestFunctionHandle:
    def test_builtin_names(self):
        for name in ("sin", "cos", "exp", "abs"):
            FunctionHandle.builtin(name)

    def test_signpow_values(self):
        f = FunctionHandle.builtin("signpow3")
        assert f.eval_exact(F(-2)) == f.eval_exact(F(2)) == 8
        assert FunctionHandle.builtin("signpow2").eval_exact(F(-3)) == -9

    @pytest.mark.parametrize("name", ["signpow", "signpow0", "signpow-1", "signpowx",
                                      "tanh", "signpow²"])
    def test_bad_builtin_names(self, name):
        # a superscript digit passes str.isdigit but not int()
        with pytest.raises(EvaluatorError):
            FunctionHandle.builtin(name)

    def test_abs_exact(self):
        f = FunctionHandle.builtin("abs")
        assert f.eval_exact(F(-5, 3)) == F(5, 3)

    def test_polynomial_exact(self):
        f = FunctionHandle.rational_polynomial([F(1), F(5), F(1)])
        # 1 + 5x + x^2 at x = 1/2 is 1 + 5/2 + 1/4 = 15/4.
        assert f.eval_exact(F(1, 2)) == F(15, 4)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.lists(st.fractions(max_denominator=10**6), min_size=1, max_size=9),
           st.fractions(max_denominator=10**9))
    def test_polynomial_exact_is_the_literal_sum(self, coeffs, x):
        f = FunctionHandle.rational_polynomial(coeffs)
        assert f.eval_exact(x) == sum(c * x**j for j, c in enumerate(coeffs))

    def test_transcendental_has_no_exact_path(self):
        assert FunctionHandle.builtin("sin").eval_exact(F(1, 3)) is None

    @pytest.mark.parametrize("name", ["sin", "cos", "exp"])
    def test_eval_mp_matches_math(self, name):
        f = FunctionHandle.builtin(name)
        assert abs(float(f.eval_mp(F(1, 3))) - getattr(math, name)(1 / 3)) < 1e-15


# ---------------------------------------------------------------------------
# apply_difference
# ---------------------------------------------------------------------------


class TestApplyDifference:
    def test_second_difference_of_square(self):
        s = riemann_classic(2)
        f = FunctionHandle.rational_polynomial([0, 0, 1])
        assert apply_difference(s, f, F(0), F(1)) == 2

    def test_cubic_under_forward_stencil(self):
        s = gaussian_forward(3, 2)
        f = FunctionHandle.rational_polynomial([0, 0, 0, 1])
        for h in (F(1), F(-2), F(3, 7), F(1, 64)):
            assert apply_difference(s, f, F(0), h) == 6 * h**3

    def test_h_zero_rejected(self):
        with pytest.raises(EvaluatorError):
            apply_difference(riemann_classic(2), FunctionHandle.builtin("abs"), 0, 0)

    def test_exact_type_on_rational_inputs(self):
        s = gaussian_shifted(2, 3)
        f = FunctionHandle.rational_polynomial([1, 1])
        out = apply_difference(s, f, F(1, 2), F(1, 3))
        assert isinstance(out, Fraction)

    def test_float_path_on_transcendental(self):
        s = riemann_classic(2)
        f = FunctionHandle.builtin("exp")
        out = apply_difference(s, f, 0.0, 1e-3)
        assert isinstance(out, float)
        assert abs(out - 1e-6) < 2e-9  # exp''(0) h^2 + h^3 + O(h^4)

    def test_odd_order_symmetric_annihilates_even_functions(self):
        # Antisymmetric coefficients cancel even functions pairwise: the
        # order-3 symmetric stencil sends |x|^3 (an even function) to 0.
        s = gaussian_symmetric(3, 2)
        f = FunctionHandle.builtin("signpow3")
        for h in (F(1), F(1, 7), F(-3, 5)):
            assert apply_difference(s, f, F(0), h) == 0

    def test_even_order_symmetric_does_not_annihilate_even_functions(self):
        # |x|^3 under the order-4 palindromic stencil {1,-4,6,-4,1} on
        # {-2..2} gives (8 - 4 - 4 + 8)|h|^3 = 8|h|^3, not zero.
        s = gaussian_symmetric(4, 2)
        f = FunctionHandle.builtin("signpow3")
        for h in (F(1), F(-1), F(2, 3)):
            assert apply_difference(s, f, F(0), h) == 8 * abs(h) ** 3

    def test_symmetry_identity_on_polynomials(self):
        # For symmetric stencils: applying at -h flips the sign by (-1)^n.
        rng = random.Random(31337)
        for n in range(1, 7):
            s = gaussian_symmetric(n, F(5, 2))
            assert is_symmetric(s)
            f = FunctionHandle.rational_polynomial(random_poly(rng, n))
            x = F(rng.randint(-5, 5), rng.randint(1, 4))
            h = F(rng.randint(1, 9), rng.randint(1, 4))
            lhs = apply_difference(s, f, x, -h)
            rhs = (-1) ** n * apply_difference(s, f, x, h)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# difference_quotient
# ---------------------------------------------------------------------------


class TestDifferenceQuotient:
    def test_monomial_returns_factorial(self):
        for n in range(1, 7):
            f = FunctionHandle.rational_polynomial([0] * n + [1])
            for s in (gaussian_forward(n, 2), gaussian_symmetric(n, 3), riemann_classic(n)):
                assert difference_quotient(s, f, F(0), F(2, 7)) == math.factorial(n)

    def test_pinned_quadratic(self):
        # (x^2 + 5x + 1)'' == 2 everywhere; exact at x=1/2, h=1/7.
        s = gaussian_forward(2, 3)
        f = FunctionHandle.rational_polynomial([1, 5, 1])
        assert difference_quotient(s, f, F(1, 2), F(1, 7)) == 2

    def test_signpow_one_sided_limits(self):
        s = gaussian_forward(3, 2)
        f = FunctionHandle.builtin("signpow3")
        for h in (F(1), F(1, 9), F(2, 11)):
            assert difference_quotient(s, f, F(0), h) == 6
            assert difference_quotient(s, f, F(0), -h) == -6

    def test_polynomial_exactness_random(self):
        rng = random.Random(2718)
        for _ in range(60):
            n = rng.randint(1, 8)
            coeffs = random_poly(rng, rng.randint(0, n))
            f = FunctionHandle.rational_polynomial(coeffs)
            x = F(rng.randint(-8, 8), rng.randint(1, 6))
            h = F(0)
            while h == 0:
                h = F(rng.randint(-8, 8), rng.randint(1, 6))
            want = poly_nth_derivative(coeffs, n, x)
            for s in (
                gaussian_forward(n, F(5, 3)),
                gaussian_shifted(n, F(-2)),
                gaussian_symmetric(n, F(2)),
                riemann_classic(n),
                riemann_symmetric(n),
            ):
                assert difference_quotient(s, f, x, h) == want

    def test_scale_invariance_on_polynomials(self):
        # Quotient of the scaled stencil at step h equals the quotient of
        # the original stencil at step r*h.
        rng = random.Random(90210)
        for _ in range(20):
            n = rng.randint(1, 6)
            f = FunctionHandle.rational_polynomial(random_poly(rng, n))
            x = F(rng.randint(-4, 4), rng.randint(1, 3))
            h = F(rng.randint(1, 7), rng.randint(1, 5))
            r = F(0)
            while r == 0:
                r = F(rng.randint(-6, 6), rng.randint(1, 4))
            s = gaussian_forward(n, 2)
            assert difference_quotient(scale(s, r), f, x, h) == difference_quotient(
                s, f, x, r * h
            )


# ---------------------------------------------------------------------------
# recursive_quotient
# ---------------------------------------------------------------------------


class TestRecursiveQuotient:
    def test_forward_order_two(self):
        f = FunctionHandle.rational_polynomial([0, 0, 1])
        assert recursive_quotient("forward", 2, F(2), f, F(0), F(1)) == 2

    def test_symmetric_order_three(self):
        f = FunctionHandle.rational_polynomial([0, 0, 0, 1])
        assert recursive_quotient("symmetric", 3, F(3), f, F(0), F(1)) == 6

    def test_agrees_with_direct_on_polynomials(self):
        rng = random.Random(555)
        for family, builder in (
            ("forward", gaussian_forward),
            ("shifted", gaussian_shifted),
            ("symmetric", gaussian_symmetric),
        ):
            for n in range(1, 7):
                q = F(rng.choice([2, 3, 5]), rng.choice([1, 2]))
                if q in (0, 1, -1):
                    q = F(2)
                f = FunctionHandle.rational_polynomial(random_poly(rng, n))
                x = F(rng.randint(-3, 3), rng.randint(1, 3))
                h = F(rng.randint(1, 5), rng.randint(1, 5))
                direct = difference_quotient(builder(n, q), f, x, h)
                rec = recursive_quotient(family, n, q, f, x, h)
                assert rec == direct, (family, n, q)

    def test_agrees_with_direct_on_smooth_builtins(self):
        cases = [
            ("forward", 4, F(2), "sin", 1e-3),
            ("shifted", 3, F(2), "cos", 1e-3),
            ("symmetric", 4, F(3), "exp", 1e-2),
            ("symmetric", 5, F(2), "sin", 1e-2),
        ]
        builders = {
            "forward": gaussian_forward,
            "shifted": gaussian_shifted,
            "symmetric": gaussian_symmetric,
        }
        for family, n, q, name, h in cases:
            f = FunctionHandle.builtin(name)
            direct = difference_quotient(builders[family](n, q), f, 0.0, h)
            rec = recursive_quotient(family, n, q, f, 0.0, h)
            assert abs(rec - direct) <= 1e-9 * max(1.0, abs(direct)), (family, n)

    def test_bad_family(self):
        f = FunctionHandle.builtin("sin")
        with pytest.raises(EvaluatorError):
            recursive_quotient("diagonal", 2, F(2), f, 0.0, 0.5)

    @pytest.mark.parametrize("order", [0, 2.5, True], ids=repr)
    def test_bad_order(self, order):
        f = FunctionHandle.builtin("sin")
        with pytest.raises(EvaluatorError, match="order must be an integer >= 1"):
            recursive_quotient("forward", order, F(2), f, 0.0, 0.5)

    def test_bad_q_and_h(self):
        f = FunctionHandle.builtin("sin")
        with pytest.raises(Exception):
            recursive_quotient("forward", 2, F(1), f, 0.0, 0.5)
        with pytest.raises(EvaluatorError):
            recursive_quotient("forward", 2, F(2), f, 0.0, 0)


# SHA-256 of repr((type, value)) of difference_quotient, apply_difference and
# recursive_quotient, one line each, over the Gaussian families at n 1..6 and
# q in {2, -3/2}, exact and transcendental functions, and x of small and of
# large height: the points of x = 3^160 + 2/7 are wider than MP_DPS.
SINGLE_DIFFERENCES_SHA256 = "c0d99b9a595d1899431d10269b155a8845383b95196777b05afe6ca356685a35"


def test_single_differences_pin():
    functions = [FunctionHandle.builtin(name) for name in ("sin", "cos", "exp", "abs", "signpow3")]
    functions.append(FunctionHandle.rational_polynomial([F(1, 3), -2, 0, F(5, 7), 1]))
    lines = []
    for family, builder in GAUSSIAN_BUILDERS.items():
        for n in range(1, 7):
            for q in (F(2), F(-3, 2)):
                s = builder(n, q)
                for f in functions:
                    for x in (F(0), F(1, 3), 3**160 + F(2, 7)):
                        for h in (F(1, 10), F(-1, 1024)):
                            for v in (difference_quotient(s, f, x, h),
                                      apply_difference(s, f, x, h),
                                      recursive_quotient(family, n, q, f, x, h)):
                                lines.append(repr((type(v), v)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SINGLE_DIFFERENCES_SHA256


# ---------------------------------------------------------------------------
# estimate_derivative and convergence verdicts
# ---------------------------------------------------------------------------


class TestEstimateDerivative:
    def test_sin_third_derivative_converges(self):
        table = estimate_derivative(
            gaussian_forward(3, 2), FunctionHandle.builtin("sin"), 0.0
        )
        assert table.verdict == "converged"
        assert abs(table.value - (-1.0)) < 1e-6
        assert table.est_error is not None and table.est_error < 1e-6

    def test_signpow3_two_sided_oscillates(self):
        table = estimate_derivative(
            gaussian_forward(3, 2), FunctionHandle.builtin("signpow3"), 0.0
        )
        assert table.verdict == "oscillating"
        assert abs(table.pos_estimate - 6.0) < 1e-6
        assert abs(table.neg_estimate - (-6.0)) < 1e-6

    def test_signpow3_one_sided_converges_to_6(self):
        # Q(h) = 6 sgn(h): one-sided steps see the limit from the right,
        # which two-sided sampling rejects
        table = estimate_derivative(
            gaussian_forward(3, 2),
            FunctionHandle.builtin("signpow3"),
            0.0,
            two_sided=False,
        )
        assert table.verdict == "converged"
        assert abs(table.value - 6.0) < 1e-6

    def test_abs_second_quotient_diverges(self):
        table = estimate_derivative(
            gaussian_symmetric(2, 2), FunctionHandle.builtin("abs"), 0.0
        )
        assert table.verdict == "diverged"

    def test_symmetric_annihilation_converges_to_zero(self):
        table = estimate_derivative(
            gaussian_symmetric(3, 3), FunctionHandle.builtin("signpow3"), 0.0
        )
        assert table.verdict == "converged"
        assert table.value == 0.0
        assert all(row[1] == 0.0 for row in table.rows)

    def test_h_sequence_geometry(self):
        table = estimate_derivative(
            riemann_classic(2),
            FunctionHandle.builtin("exp"),
            0.0,
            h0=F(1, 10),
            ratio=F(1, 2),
            steps=6,
            two_sided=False,
        )
        hs = [row[0] for row in table.rows]
        assert len(hs) == 6
        for prev, cur in zip(hs, hs[1:]):
            assert abs(cur) == pytest.approx(abs(prev) / 2)

    def test_two_sided_alternates_sign(self):
        table = estimate_derivative(
            riemann_classic(2), FunctionHandle.builtin("exp"), 0.0, steps=8
        )
        signs = [1 if row[0] > 0 else -1 for row in table.rows]
        assert signs[:4] == [1, -1, 1, -1]

    def test_tiny_steps_dropped_for_high_order(self):
        # Order-3 stencil: |h| below 1e-8 is cancellation-dominated and the
        # table must stop before it.
        table = estimate_derivative(
            gaussian_forward(3, 2),
            FunctionHandle.builtin("sin"),
            0.0,
            h0=F(1, 10**6),
            ratio=F(1, 10),
            steps=20,
        )
        assert len(table.rows) < 20
        assert all(abs(row[0]) >= F(1, 10**8) for row in table.rows)

    def test_validation_errors(self):
        f = FunctionHandle.builtin("sin")
        s = riemann_classic(2)
        with pytest.raises(EvaluatorError):
            estimate_derivative(s, f, 0.0, h0=0)
        with pytest.raises(EvaluatorError):
            estimate_derivative(s, f, 0.0, ratio=F(3, 2))
        with pytest.raises(EvaluatorError):
            estimate_derivative(s, f, 0.0, steps=1)
        with pytest.raises(EvaluatorError):
            estimate_derivative(s, f, 0.0, steps=61)

    def test_no_tolerance_is_taken(self):
        # the exact limit decides every verdict
        with pytest.raises(TypeError, match="unexpected keyword argument 'tol'"):
            estimate_derivative(riemann_classic(2), FunctionHandle.builtin("sin"), 0, tol=1e-3)

    @pytest.mark.parametrize("coeffs,h0", [
        ([0, 10**400], F(1, 10)),  # the exact quotient, 10^400
        ([0, 1], F(10**400)),  # the step
    ], ids=["quotient", "step"])
    def test_exact_rows_past_the_largest_double_raise(self, coeffs, h0):
        f = FunctionHandle.rational_polynomial(coeffs)
        with pytest.raises(EvaluatorError, match="row 1: the step h or its quotient lies outside"):
            estimate_derivative(riemann_classic(1), f, 0, h0=h0)


# ---------------------------------------------------------------------------
# Verdicts from the exact limit, against independent oracles
# ---------------------------------------------------------------------------


# every kind the CLI builds; forward's q = 2 keeps each of its rows in the
# series disc, the other q put the first rows outside it
_KIND_STENCILS = {
    "forward": lambda n: gaussian_forward(n, 2),
    "shifted": lambda n: gaussian_shifted(n, F(-3, 2)),
    "symmetric": lambda n: gaussian_symmetric(n, F(3, 2)),
    **CLASSICAL_BUILDERS,
    "custom": lambda n: vandermonde_solve([F(k * k - 3, 2) for k in range(n + 1)], n),
}
_LIMIT_POLY = [F(3), F(-1, 2), F(0), F(2), F(5, 3), F(-1), F(1, 4), F(2), F(-3, 2), F(1), F(1, 5)]


def _limit_cases(n):
    """(function name, x) pairs: the smooth builtins and a polynomial of
    degree n + 2 at 0 and off it, abs and signpowN for N = n - 1, n, n + 1
    at 0 and at a negative x."""
    rough = ["abs"] + [f"signpow{p}" for p in (n - 1, n, n + 1) if p >= 1]
    return ([(name, x) for name in ("sin", "cos", "exp", "poly") for x in (F(0), F(-5, 7))]
            + [(name, x) for name in rough for x in (F(0), F(-2, 3))])


def _handle(name, n):
    if name == "poly":
        return FunctionHandle.rational_polynomial(_LIMIT_POLY[:n + 3])
    return FunctionHandle.builtin(name)


def _limit_oracle(s, name, x, two_sided):
    """(verdict, the double nearest the limit or None) of the order-n
    quotient at x, for steps of alternating sign or, one-sided, positive
    steps.

    sin, cos and exp take f^(n)(x) from mpmath at 100 digits (sin^(n) is
    +-sin or +-cos, so f^(n)(0) = +-sin 0 is exactly 0); a polynomial, and
    abs or signpowN at x != 0 (locally sgn(x) t^p), take the exact
    derivative.  At x = 0, f(a h) = g(a) k(h) gives Q(h) = S sgn(h) |h|^(p-n)
    with S = sum_k A_k g(a_k): the limit is 0 where S = 0 or p > n, S itself
    where p = n and every step is positive.  Otherwise there is none: the
    quotient is diverged, unbounded, where p < n, and oscillating, bounded
    at S on positive steps and -S on negative ones, where p = n.
    """
    n = s.order
    if name in ("sin", "cos", "exp"):
        with mp.workdps(100):
            xm = mp.mpf(x.numerator) / x.denominator
            if name == "exp":
                return "converged", float(mp.exp(xm))
            k = n + (name == "cos")  # cos = sin'
            return "converged", float((mp.sin, mp.cos)[k % 2](xm) * (-1 if k % 4 >= 2 else 1))
    if name == "poly":
        return "converged", float(poly_nth_derivative(_LIMIT_POLY[:n + 3], n, x))
    p = 1 if name == "abs" else int(name[len("signpow"):])
    if x != 0:
        return "converged", float(poly_nth_derivative([0] * p + [1 if x > 0 else -1], n, x))
    total = sum(c * a**p * (1 if a > 0 else -1) for a, c in zip(s.nodes, s.coeffs))
    if total == 0 or p > n:
        return "converged", 0.0
    if p < n:
        return "diverged", None
    return ("oscillating", None) if two_sided else ("converged", float(total))


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("kind", list(_KIND_STENCILS))
def test_verdicts_follow_the_exact_limit(kind, n):
    s = _KIND_STENCILS[kind](n)
    for name, x in _limit_cases(n):
        f = _handle(name, n)
        for two_sided in (True, False):
            table = estimate_derivative(s, f, x, two_sided=two_sided)
            verdict, value = _limit_oracle(s, name, x, two_sided)
            case = (name, x, two_sided, table.verdict_line())
            assert table.verdict == verdict, case
            if verdict == "converged":
                assert repr(table.value) == repr(value), case
                assert table.est_error == abs(float(table.rows[-1][1]) - value), case


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(kind=st.sampled_from(list(_KIND_STENCILS)), n=st.integers(1, 8), data=st.data(),
       ratio=st.fractions(F(1, 2), F(99, 100), max_denominator=100),
       steps=st.integers(2, 60), two_sided=st.booleans())
def test_rough_verdicts_at_0_follow_the_power(kind, n, data, ratio, steps, two_sided):
    # abs and signpowN at x = 0 are the only tables without a limit: their
    # verdict is diverged for N < n and oscillating for N = n on both sides
    # of 0, whatever the steps' ratio and count
    p = data.draw(st.integers(1, n + 2), label="N")
    name = "abs" if p == 1 else f"signpow{p}"
    s = _KIND_STENCILS[kind](n)
    table = estimate_derivative(s, FunctionHandle.builtin(name), F(0),
                                ratio=ratio, steps=steps, two_sided=two_sided)
    verdict, value = _limit_oracle(s, name, F(0), two_sided)
    assert table.verdict == verdict, table.verdict_line()
    if verdict == "converged":
        assert repr(table.value) == repr(value)
    if verdict == "oscillating":  # every row is exactly Q(+-1) = +-S
        total = _limit_oracle(s, name, F(0), two_sided=False)[1]
        assert (table.pos_estimate, table.neg_estimate) == (total, -total)


def test_the_limit_adds_no_transcendental_call(monkeypatch):
    # one mpf_cos_sin or mpf_exp per table and precision, as for the rows
    # alone: the limit is the series' own alpha_n, or exactly 0.  The count
    # is the one from before the limit was taken: 120 calls for 126 tables,
    # since the sin (cos) tables at 0 on the even (odd) symmetric stencils,
    # n = 4 (1 and 7), are exactly 0 and call nothing
    calls = []
    for fn in ("mpf_cos_sin", "mpf_exp"):
        real = getattr(evaluator, fn)
        monkeypatch.setattr(evaluator, fn, lambda v, prec, rnd, real=real:
                            calls.append(prec) or real(v, prec, rnd))
    total = 0
    for build in _KIND_STENCILS.values():
        for n in (1, 4, 7):
            for name in ("sin", "cos", "exp"):
                for x in (F(0), F(-5, 7)):
                    calls.clear()
                    estimate_derivative(build(n), FunctionHandle.builtin(name), x)
                    assert len(calls) == len(set(calls)), (build, n, name, x)
                    total += len(calls)
    assert total == 120


class _StubCos:
    """cos with no exact path: a function object that is no FunctionHandle."""

    @staticmethod
    def eval_exact(x):
        return None

    @staticmethod
    def eval_mp(x):
        return mp.cos(_to_mpf(x))


# Tables with no exact limit: a function object that is no FunctionHandle,
# and sin, x^2 and abs on a stencil with M_0 = 1.
_BROKEN = Stencil(order=2, nodes=(0, 1, 2), coeffs=(2, -2, 1))
_NO_LIMIT_TABLES = {
    "stub-cos": (vandermonde_solve([-5, -4, -1, F(-1, 2), 3], 4), _StubCos(), F(-5, 3)),
    "broken-sin": (_BROKEN, FunctionHandle.builtin("sin"), F(1, 3)),
    "broken-poly": (_BROKEN, FunctionHandle.rational_polynomial([0, 0, 5]), 0),
    "broken-poly-off-0": (_BROKEN, FunctionHandle.rational_polynomial([0, 0, 5]), F(1, 3)),
    "broken-abs-off-0": (_BROKEN, FunctionHandle.builtin("abs"), F(-1, 3)),
}


@pytest.mark.parametrize("name", list(_NO_LIMIT_TABLES))
def test_tables_without_an_exact_limit_raise(name):
    s, f, x = _NO_LIMIT_TABLES[name]
    reason = ("^no exact limit for a function object other than a FunctionHandle$"
              if name == "stub-cos" else r"^no exact limit: a moment M_j, j < 2, is not 0$")
    with pytest.raises(EvaluatorError, match=reason):
        estimate_derivative(s, f, x)


def test_a_bad_row_is_reported_before_the_missing_limit():
    # the rows come first: a row past the double range is reported before
    # the missing limit
    with pytest.raises(EvaluatorError, match="^row 1: the step h or its quotient lies outside"):
        estimate_derivative(_BROKEN, FunctionHandle.rational_polynomial([10**400]), 0)


def test_one_sided_limit_follows_the_side_of_h0():
    # signpow3 at 0 under an order-3 stencil: Q(h) = S sgn(h), S = 6 here
    s, f = gaussian_forward(3, 2), FunctionHandle.builtin("signpow3")
    for h0, value in ((F(1, 10), 6.0), (F(-1, 10), -6.0)):
        table = estimate_derivative(s, f, 0, h0=h0, two_sided=False)
        assert (table.verdict, table.value, table.est_error) == ("converged", value, 0.0)


def test_a_limit_past_the_double_range_raises():
    # exp(1000) exists, but no double holds it
    with pytest.raises(EvaluatorError, match="^the limit lies outside the double range$"):
        estimate_derivative(riemann_classic(1), FunctionHandle.builtin("exp"), 1000)


# c = 1 + 2^-53 puts each limit exactly on the tie between two doubles: at
# x = 0 the limit S_n f^(n)(0) / (E D^n n!) is an exact rational, rounded once
_TIE = 1 + F(1, 2**53)


@pytest.mark.parametrize("s, name, value", [
    (Stencil(order=1, nodes=(0, 1), coeffs=(-_TIE, _TIE)), "exp", 1.0),
    (Stencil(order=2, nodes=(-1, 0, 1), coeffs=(_TIE, -2 * _TIE, _TIE)), "cos", -1.0),
    (Stencil(order=1, nodes=(0, 1), coeffs=(-_TIE, _TIE)), "sin", 1.0),
    (Stencil(order=3, nodes=(-1, 0, 1, 2), coeffs=(-_TIE, 3 * _TIE, -3 * _TIE, _TIE)),
     "sin", -1.0),
], ids=["exp-1", "cos-2", "sin-1", "sin-3"])
def test_a_limit_at_0_on_a_rounding_tie_is_rounded_once(s, name, value):
    table = estimate_derivative(s, FunctionHandle.builtin(name), 0)
    assert (table.verdict, table.value) == ("converged", value)


_SIN = FunctionHandle.builtin("sin")
# each rational argument of the evaluator, given as a non-finite float
_NON_FINITE_ARGUMENTS = {
    "estimate-x": lambda v: estimate_derivative(riemann_classic(2), _SIN, v),
    "estimate-h0": lambda v: estimate_derivative(riemann_classic(2), _SIN, 0, h0=v),
    "estimate-ratio": lambda v: estimate_derivative(riemann_classic(2), _SIN, 0, ratio=v),
    "quotient-x": lambda v: difference_quotient(riemann_classic(2), _SIN, v, F(1, 10)),
    "quotient-h": lambda v: difference_quotient(riemann_classic(2), _SIN, 0, v),
    "apply-x": lambda v: apply_difference(riemann_classic(2), _SIN, v, 1),
    "apply-h": lambda v: apply_difference(riemann_classic(2), _SIN, 0, v),
    "recursive-x": lambda v: recursive_quotient("forward", 2, 2, _SIN, v, F(1, 10)),
    "recursive-h": lambda v: recursive_quotient("forward", 2, 2, _SIN, 0, v),
    "peano-x": lambda v: peano_bound_check(_SIN, v, 1, 0.5, [1]),
    "peano-step": lambda v: peano_bound_check(_SIN, 0, 0, 0.5, [F(1, 4), v]),
    "poly-coefficient": lambda v: FunctionHandle.rational_polynomial([1, v]),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("call", _NON_FINITE_ARGUMENTS.values(), ids=_NON_FINITE_ARGUMENTS.keys())
def test_non_finite_floats_raise_evaluator_error(call, value):
    # Fraction(inf) raises OverflowError, which is no ValueError
    with pytest.raises(EvaluatorError, match=r"must be a finite rational, got (-?inf|nan)$"):
        call(value)


# ---------------------------------------------------------------------------
# estimate_derivative's rows against single differences
# ---------------------------------------------------------------------------

# Custom nodes past the 203 bits of MP_DPS: the points x + a_k h built on
# them are quotients of integers too wide for one mpf.  The tall nodes
# k + 1/(2^210 + i) pass it on their own.  The tiny nodes k/(10^30 + i) pass
# it over their common denominator, and their differences cancel about 30n
# digits, so one changed last bit of a point shows in the quotient's float.
_NODE_FAMILIES = {
    "small": lambda i, k: F(k, 3),
    "tall": lambda i, k: k + F(1, 2**210 + i),
    "tiny": lambda i, k: F(k, 10**30 + i),
}
# x over 3 * 10^55, 185 bits: its points N_k / M, M = 3 * 10^55 * D * t
# for the nodes' denominator D and the step's t, outgrow the precision
# partway through a table
_TALL_X = F(10**55 + 7, 3 * 10**55)


def _custom(family, ks):
    return vandermonde_solve([_NODE_FAMILIES[family](i, k) for i, k in enumerate(ks)],
                             len(ks) - 1)


@st.composite
def _tables(draw):
    """(stencil, function, x, h0, ratio, steps, two_sided) over every kind,
    builtin and polynomial, with nodes or x of small and of large height."""
    kind = draw(st.sampled_from([*GAUSSIAN_BUILDERS, *CLASSICAL_BUILDERS, "custom"]))
    n = draw(st.integers(1, 4))
    if kind == "custom":
        ks = draw(st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1, unique=True))
        s = _custom(draw(st.sampled_from(list(_NODE_FAMILIES))), ks)
    elif kind in GAUSSIAN_BUILDERS:
        s = GAUSSIAN_BUILDERS[kind](n, draw(st.sampled_from([F(2), F(-2), F(3, 2), F(-5, 3),
                                                             F(31, 29)])))
    else:
        s = CLASSICAL_BUILDERS[kind](n)
    name = draw(st.sampled_from(["sin", "cos", "exp", "abs", "signpow1", "signpow4", "poly"]))
    if name == "poly":
        f = FunctionHandle.rational_polynomial(
            draw(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=50),
                          min_size=1, max_size=8)))
    else:
        f = FunctionHandle.builtin(name)
    x = draw(st.one_of(st.fractions(min_value=-2, max_value=2, max_denominator=30),
                       st.integers(0, 10**9).map(lambda k: _TALL_X + F(k, 10**55))))
    h0 = draw(st.sampled_from([F(1, 10), F(-1, 7), F(3, 1000)]))
    ratio = draw(st.sampled_from([F(1, 2), F(2, 3), F(1, 10)]))
    return s, f, x, h0, ratio, draw(st.integers(2, 6)), draw(st.booleans())


def _steps(h0, ratio, steps, two_sided=True):
    """A table's steps h_i = h0 ratio^i, the sign alternating when two_sided."""
    return [h0 * ratio**i * (-1 if two_sided and i % 2 else 1) for i in range(steps)]


def _per_point(s, f, x, h, power):
    """sum_k A_k f(x + a_k h) / h^power from the per-point _exact_apply, or
    _mp_apply at MP_DPS: the reference of every row outside the series."""
    exact = _exact_apply(s, f, x, h)
    if exact is not None:
        return exact / h**power
    with mp.workdps(MP_DPS):
        return float(_mp_apply(s, f, x, h) / _to_mpf(h) ** power)


_MP_FUNCTIONS = {"sin": mp.sin, "cos": mp.cos, "exp": mp.exp}


def _disc(s):
    """The largest |h| of the moment series' disc: R|h| <= 16, R the largest
    |node|, and |h| / D <= 1/2, D the nodes' common denominator."""
    return min(16 / max(abs(a) for a in s.nodes), F(math.lcm(*(a.denominator for a in s.nodes)), 2))


def _in_disc(s, f, h, power):
    """True where a row comes from the moment series: a sin, cos or exp
    quotient of the stencil's order, M_0 .. M_(n-1) all 0, and |h| in the
    disc."""
    return (isinstance(f, FunctionHandle) and f.name in _MP_FUNCTIONS and power == s.order
            and not any(moments(s, s.order - 1)) and abs(h) <= _disc(s))


def _correctly_rounded(s, name, x, h):
    """sum_k A_k f(x + a_k h) / h^order rounded once to a double, from the
    per-point mpmath sum at digits grown until 56 of them (a double's 16
    and 40 to spare) are left beyond the digits the sum cancels and the
    digits of the largest point.  A sum that comes out 0 is taken at four
    times the digits, up to past 2000."""
    points = [x + a * h for a in s.nodes]
    height = max(len(str(abs(p.numerator) // p.denominator)) for p in points)
    dps = 60 + height
    while True:
        with mp.workdps(dps):
            terms = [_to_mpf(c) * _MP_FUNCTIONS[name](_to_mpf(p))
                     for c, p in zip(s.coeffs, points)]
            total = mp.fsum(terms)
            if not total:
                if dps > 2000:
                    return 0.0
                dps *= 4
                continue
            lost = max(0, int(mp.log10(max(map(abs, terms)) / abs(total))) + 1)
            if dps >= 56 + lost + height:
                return float(total / _to_mpf(h) ** s.order)
            dps = 66 + lost + height


def _reference(s, f, x, h, power):
    if _in_disc(s, f, h, power):
        return _correctly_rounded(s, f.name, x, h)
    return _per_point(s, f, x, h, power)


class TestTableRowsMatchSingleDifferences:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(_tables())
    # wide points on the mp path, x whose points outgrow the precision
    # partway through the table, numerators too wide over a denominator that
    # fits, and wide points on the exact path
    @example((_custom("tiny", [-1, 2, 5]), FunctionHandle.builtin("sin"), F(1, 3), F(1, 10),
              F(1, 2), 6, True))
    @example((_custom("tiny", [0, -3, 1, 4]), FunctionHandle.builtin("exp"), F(-2, 7), F(-1, 7),
              F(1, 2), 6, False))
    @example((_custom("tall", [0, -3, 1, 4]), FunctionHandle.builtin("cos"), F(-2, 7), F(-1, 7),
              F(2, 3), 5, False))
    @example((gaussian_symmetric(4, F(3, 2)), FunctionHandle.builtin("cos"), _TALL_X, F(1, 10),
              F(1, 10), 6, True))
    @example((gaussian_forward(2, F(5, 3)), FunctionHandle.builtin("sin"), 3**160 + F(2, 7),
              F(1, 10), F(1, 2), 6, True))
    @example((_custom("tall", [3, -2]), FunctionHandle.builtin("signpow4"), _TALL_X, F(3, 1000),
              F(1, 2), 4, True))
    # a step whose numerator and denominator both pass the 203 bits, so
    # that its conversion rounds each part; quotients past the largest
    # double, inf in the first three rows; a one-sided table, whose
    # apply_difference rows divide by h^0
    @example((gaussian_forward(2, F(3, 2)), FunctionHandle.builtin("sin"), F(1, 3),
              F(2**210 + 17, 3 * 2**210 + 15), F(1, 2), 5, True))
    @example((gaussian_forward(9, F(-4)), FunctionHandle.builtin("exp"), F(2), F(1, 10),
              F(1, 2), 6, True))
    @example((gaussian_shifted(3, F(-5, 3)), FunctionHandle.builtin("cos"), F(-1, 4), F(1, 10),
              F(1, 2), 6, False))
    # group-supported functions: exact at an integer exponent, and through
    # mpmath at thm32-n6's root of phi, where each difference cancels about
    # 13 of the 60 digits
    @example((gaussian_forward(3, 2), GroupFunction(MultiplicativeGroup((2, 3)), (1, 0), 3), 0,
              F(1, 3), F(1, 2), 6, True))
    @example((riemann_symmetric(6),
              GroupFunction(MultiplicativeGroup((2, 3)), (1, 1), F(5238489919019941, 2**50)), 0,
              F(1, 2), F(2, 3), 6, True))
    # the disc's edges: a first row at R|h| = 16 and |h| / D = 1/2, one just
    # past R|h| = 16, and h0 = 4, whose first rows have R|h| <= 16 but
    # |h| / D > 1/2 and take the direct sum
    @example((gaussian_forward(6, 2), FunctionHandle.builtin("exp"), F(-1, 3), F(1, 2),
              F(1, 2), 4, True))
    @example((gaussian_forward(6, 3), FunctionHandle.builtin("cos"), F(1, 3),
              F(16, 243) + F(1, 10**12), F(1, 2), 4, True))
    @example((riemann_classic(2), FunctionHandle.builtin("sin"), F(1, 3), F(4), F(1, 2), 6, True))
    def test_rows_equal_the_reference(self, table_args):
        s, f, x, h0, ratio, steps, two_sided = table_args
        if isinstance(f, FunctionHandle):
            table = estimate_derivative(s, f, x, h0=h0, ratio=ratio, steps=steps,
                                        two_sided=two_sided)
            rows = [(h, qt) for h, qt, _ in table.rows]
        else:  # a GroupFunction has rows but no exact limit, so no table
            row = _row_quotients(s, f, x, s.order)[0]
            rows = [(h, row(h)) for h in _steps(h0, ratio, steps, two_sided)]
        assert len(rows) == steps
        for h, qt in rows:
            for got, power in ((qt, s.order), (difference_quotient(s, f, x, h), s.order),
                               (apply_difference(s, f, x, h), 0)):
                want = _reference(s, f, x, h, power)
                assert type(got) is type(want) and repr(got) == repr(want)

    def test_coefficients_convert_once_per_table(self, monkeypatch):
        # R = 3^5: the first row, h = 1/10, lies outside the disc R|h| <= 16
        s, x = gaussian_forward(6, 3), F(1, 3)
        calls = []
        rational_mpf = evaluator._rational_mpf
        monkeypatch.setattr(evaluator, "_rational_mpf",
                            lambda v, prec: calls.append(v) or rational_mpf(v, prec))
        table = estimate_derivative(s, FunctionHandle.builtin("sin"), x, steps=20)
        hs = [h for h, _, _ in table.rows]
        assert len(hs) == 20
        # the direct sum of the first row converts the n + 1 coefficients and
        # its step; the series of the other 19 converts x once, at its one
        # precision, and no step at all
        assert calls == [*s.coeffs, hs[0], x]

    @pytest.mark.parametrize("name,x,h0,ratio,steps,precisions", [
        ("sin", F(1, 3), F(1, 20), F(1, 2), 20, 1),
        ("cos", F(-2, 7), F(-1, 20), F(2, 3), 30, 1),
        ("exp", F(5, 4), F(1, 20), F(1, 2), 20, 1),
        # Q(h) is about -h, and the row at h = 10^-33 needs twice the bits
        ("sin", F(0), F(1, 10), F(1, 10**8), 5, 2),
    ], ids=["sin", "cos", "exp", "sin-redone"])
    def test_one_transcendental_call_per_table_and_precision(self, monkeypatch, name, x, h0,
                                                            ratio, steps, precisions):
        calls = []
        for fn in ("mpf_cos_sin", "mpf_exp"):
            real = getattr(evaluator, fn)
            monkeypatch.setattr(evaluator, fn, lambda v, prec, rnd, real=real:
                                calls.append(prec) or real(v, prec, rnd))
        s, f = riemann_classic(2), FunctionHandle.builtin(name)
        table = estimate_derivative(s, f, x, h0=h0, ratio=ratio, steps=steps)
        assert len(table.rows) == steps
        assert len(calls) == len(set(calls)) == precisions
        for h, qt, _ in table.rows:
            assert repr(qt) == repr(_correctly_rounded(s, name, x, h))

    @pytest.mark.parametrize("name", ["sin", "cos", "exp"])
    def test_rows_ignore_the_callers_precision(self, name):
        s, f = gaussian_symmetric(4, F(3, 2)), FunctionHandle.builtin(name)
        rows = {}
        for dps in (15, 60, 100):
            with mp.workdps(dps):
                rows[dps] = repr(estimate_derivative(s, f, F(1, 3), steps=12).rows)
                assert mp.dps == dps
        assert rows[15] == rows[60] == rows[100]

    @pytest.mark.parametrize("x", [F(-2, 7), F(10**70 + 1, 3), F(2**210 + 17, 3 * 2**210 + 15)])
    @pytest.mark.parametrize("dps", [15, MP_DPS])
    def test_to_mpf_is_the_mpf_quotient(self, x, dps):
        # the one rounding rule for rationals: each part rounded, then divided
        with mp.workdps(dps):
            assert _to_mpf(x) == mp.mpf(x.numerator) / mp.mpf(x.denominator)

    @pytest.mark.parametrize("exponent", [F(5, 2), 3], ids=["mp", "exact"])
    def test_group_function_rows_are_single_quotients(self, exponent):
        s = gaussian_forward(3, 2)
        g = GroupFunction(MultiplicativeGroup((2, 3)), (1, 0), exponent)
        row, hs = _row_quotients(s, g, 0, s.order)[0], _steps(F(1, 3), F(1, 2), 8)
        assert [row(h) for h in hs] == [difference_quotient(s, g, 0, h) for h in hs]


@st.composite
def _exact_rows(draw):
    """(stencil, function, x, power, steps) for a polynomial (of degree
    below n too), abs or signpowN on every kind and on a stencil with a
    nonzero lower moment, at x = 0 and off it, power the order or not, and
    steps of both signs, among them steps that carry a point x + a_k h
    across 0, or onto it."""
    kind = draw(st.sampled_from([*GAUSSIAN_BUILDERS, *CLASSICAL_BUILDERS, "custom", "broken"]))
    n = draw(st.integers(1, 6))
    if kind in ("custom", "broken"):
        nodes = draw(st.lists(st.fractions(-6, 6, max_denominator=4), min_size=n + 1,
                              max_size=n + 1, unique=True))
        s = vandermonde_solve(nodes, n) if kind == "custom" else Stencil(
            order=n, nodes=nodes, coeffs=draw(st.lists(st.integers(1, 5), min_size=n + 1,
                                                       max_size=n + 1)))
    elif kind in GAUSSIAN_BUILDERS:
        s = GAUSSIAN_BUILDERS[kind](n, draw(st.sampled_from([F(2), F(-2), F(3, 2), F(-5, 3)])))
    else:
        s = CLASSICAL_BUILDERS[kind](n)
    name = draw(st.sampled_from(["poly", "abs", "signpow1", "signpow2", "signpow3", "signpow6"]))
    if name == "poly":
        f = FunctionHandle.rational_polynomial(
            draw(st.lists(st.fractions(-9, 9, max_denominator=7), min_size=1, max_size=n + 3)))
    else:
        f = FunctionHandle.builtin(name)
    x = draw(st.one_of(st.just(F(0)), st.fractions(-3, 3, max_denominator=12)))
    power = draw(st.sampled_from([s.order, s.order, s.order, 0, s.order - 1, s.order + 1]))
    steps = draw(st.lists(st.fractions(-2, 2, max_denominator=10**6).filter(bool),
                          min_size=1, max_size=4))
    if x:  # h = -x r / a puts x + a h across 0 for r > 1, onto it for r = 1
        for a in s.nodes:
            if a:
                r = draw(st.one_of(st.fractions(1, 3, max_denominator=40),
                                   st.integers(1, 10**4).map(lambda k: 1 + F(1, k))))
                steps.append(-x * r / a)
    return s, f, x, power, steps


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_exact_rows())
# a row whose last point crosses 0 while the one before stays on x's side
@example((riemann_classic(2), FunctionHandle.builtin("abs"), F(1, 2), 2, [F(-3, 10)]))
@example((gaussian_forward(3, 2), FunctionHandle.builtin("signpow2"), F(-1), 3, [F(1, 3)]))
def test_exact_rows_equal_the_per_point_sum(rows):
    s, f, x, power, steps = rows
    row = _row_quotients(s, f, x, power)[0]
    for h in steps:
        got, want = row(h), _exact_apply(s, f, x, h) / h**power
        assert type(got) is type(want) and got == want, h


@st.composite
def _series_rows(draw):
    """(stencil, name, x, h): every kind at n <= 12 with small rational q,
    sin, cos or exp, and a step h inside the disc R|h| <= 16, |h| / D <= 1/2."""
    kind = draw(st.sampled_from([*GAUSSIAN_BUILDERS, *CLASSICAL_BUILDERS, "custom"]))
    n = draw(st.integers(1, 12))
    if kind == "custom":
        ks = draw(st.lists(st.integers(-12, 12), min_size=n + 1, max_size=n + 1, unique=True))
        s = _custom("small", ks)
    elif kind in GAUSSIAN_BUILDERS:
        s = GAUSSIAN_BUILDERS[kind](n, draw(st.sampled_from([F(2), F(-2), F(3), F(3, 2), F(-2, 3),
                                                             F(-5, 3), F(31, 29)])))
    else:
        s = CLASSICAL_BUILDERS[kind](n)
    name = draw(st.sampled_from(sorted(_MP_FUNCTIONS)))
    x = draw(st.one_of(st.just(F(0)), st.fractions(min_value=-12, max_value=12,
                                                   max_denominator=8)))
    r = draw(st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(bool))
    h = r * _disc(s) / 10 ** draw(st.integers(0, 12))
    return s, name, x, -h if draw(st.booleans()) else h


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_series_rows())
# exactly 0: sin at 0 under an even stencil, cos at 0 under an odd one
@example((gaussian_symmetric(4, F(3, 2)), "sin", F(0), F(1, 40)))
@example((riemann_symmetric(3), "cos", F(0), F(-1, 7)))
# Q(h) is about -h: -10^-400 rounds to -0.0, after four redoubled precisions
@example((riemann_classic(2), "sin", F(0), F(1, 10**400)))
# past the largest double, and x of 100 digits
@example((gaussian_shifted(3, F(-5, 3)), "exp", F(720), F(1, 100)))
@example((riemann_classic(2), "sin", F(10**99), F(1, 10)))
# on the disc's edge R|h| = 16, with |h| / D = 1/2 in the second; exp at
# x = 700, whose points reach e^716, past the double range
@example((gaussian_forward(6, 3), "sin", F(5, 4), F(16, 243)))
@example((gaussian_forward(6, 2), "cos", F(-3), F(-1, 2)))
@example((gaussian_forward(6, 3), "exp", F(700), F(16, 243)))
# R|h| = 1.16: the 60-digit direct sum lost 8 digits here to cancellation
@example((gaussian_forward(12, F(-5)), "sin", F(-7, 6), F(1, 41943040)))
def test_series_rows_are_correctly_rounded(row):
    s, name, x, h = row
    assert _in_disc(s, FunctionHandle.builtin(name), h, s.order)
    got = difference_quotient(s, FunctionHandle.builtin(name), x, h)
    assert repr(got) == repr(_correctly_rounded(s, name, x, h))


@pytest.mark.parametrize("name", sorted(_MP_FUNCTIONS))
def test_series_rows_redone_at_low_precision_stay_correctly_rounded(monkeypatch, name):
    # 16 bits beyond the largest term leave most roundings open at the first
    # precision: a row must then be redone, and any row its error bound
    # accepts early must still be the correctly rounded one, from the
    # disc's edge inwards
    monkeypatch.setattr(evaluator, "_SERIES_BITS", 16)
    for s in (gaussian_forward(3, F(3, 2)), gaussian_symmetric(4, F(-5, 3)), riemann_classic(5)):
        for x in (F(0), F(-7, 3), F(11, 8)):
            table = estimate_derivative(s, FunctionHandle.builtin(name), x,
                                        h0=_disc(s), ratio=F(3, 5), steps=20)
            for h, qt, _ in table.rows:
                assert _in_disc(s, FunctionHandle.builtin(name), h, s.order)
                assert repr(qt) == repr(_correctly_rounded(s, name, x, h))


@pytest.mark.parametrize("s,h,direct", [
    (gaussian_forward(6, 3), F(16, 243), False),
    (gaussian_forward(6, 3), F(16, 243) + F(1, 10**12), True),
    (gaussian_forward(6, 2), F(-1, 2), False),
    (riemann_classic(2), F(1, 2), False),
    (riemann_classic(2), F(-4), True),
    (_custom("small", [-1, 2, 5]), F(3, 2), False),
    (_custom("small", [-1, 2, 5]), F(-2), True),
], ids=["R|h|=16", "R|h|>16", "y=1/2", "small-R", "y>1/2", "D=3-y=1/2", "D=3-y>1/2"])
def test_series_disc_edges(monkeypatch, s, h, direct):
    # a row inside the disc calls no per-point function; one outside it
    # calls one per node
    calls = []
    sin = evaluator._MPF_FUNCTIONS["sin"]
    monkeypatch.setitem(evaluator._MPF_FUNCTIONS, "sin",
                        lambda v, prec, rnd: calls.append(v) or sin(v, prec, rnd))
    f = FunctionHandle.builtin("sin")
    assert _in_disc(s, f, h, s.order) is not direct
    got = difference_quotient(s, f, F(2, 3), h)
    assert len(calls) == (len(s.nodes) if direct else 0)
    assert repr(got) == repr(_reference(s, f, F(2, 3), h, s.order))


def test_series_rows_left_open_fall_back_to_the_direct_sum(monkeypatch):
    # one bit beyond the largest term and no redo decide no rounding, and
    # leave the limit's rounding open as well
    monkeypatch.setattr(evaluator, "_SERIES_BITS", 1)
    monkeypatch.setattr(evaluator, "_SERIES_REDOS", 0)
    calls = []
    cos = evaluator._MPF_FUNCTIONS["cos"]
    monkeypatch.setitem(evaluator._MPF_FUNCTIONS, "cos",
                        lambda v, prec, rnd: calls.append(v) or cos(v, prec, rnd))
    s, f, x = gaussian_symmetric(4, F(3, 2)), FunctionHandle.builtin("cos"), F(1, 3)
    row, hs = _row_quotients(s, f, x, s.order)[0], _steps(F(1, 20), F(1, 2), 8)
    for h in hs:
        assert repr(row(h)) == repr(_per_point(s, f, x, h, s.order))
    assert len(calls) == 8 * len(s.nodes)
    with pytest.raises(EvaluatorError,
                       match="^the limit's rounding stays open after the series' redos$"):
        estimate_derivative(s, f, x, h0=F(1, 20), steps=8)


# ---------------------------------------------------------------------------


class TestConvergenceTableOutput:
    def make_table(self):
        return estimate_derivative(
            gaussian_forward(3, 2), FunctionHandle.builtin("sin"), 0.0
        )

    def test_csv_shape(self):
        table = self.make_table()
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "h,quotient,delta"
        assert lines[-1].startswith("# verdict:")
        assert len(lines) == len(table.rows) + 2

    def test_csv_first_row_has_empty_delta(self):
        lines = self.make_table().to_csv().splitlines()
        assert lines[1].endswith(",")

    def test_verdict_line_wording(self):
        t_conv = self.make_table()
        assert t_conv.verdict_line().startswith("# verdict: converged value=")
        assert "est_error=" in t_conv.verdict_line()
        t_osc = estimate_derivative(
            gaussian_forward(3, 2), FunctionHandle.builtin("signpow3"), 0.0
        )
        assert "oscillating" in t_osc.verdict_line()

    def test_jsonable(self):
        doc = self.make_table().to_jsonable()
        assert doc["verdict"] == "converged"
        assert doc["order"] == 3
        assert len(doc["rows"]) == len(self.make_table().rows)


# ---------------------------------------------------------------------------
# peano_bound_check
# ---------------------------------------------------------------------------


class TestPeanoBound:
    def h_set(self):
        return [F(1, 2) ** k for k in range(1, 12)]

    def test_abs_is_not_small_o_of_h(self):
        f = FunctionHandle.builtin("abs")
        assert peano_bound_check(f, F(0), 1, 0.5, self.h_set()) is False

    def test_signpow_small_o_of_lower_order(self):
        for n in range(2, 6):
            f = FunctionHandle.builtin(f"signpow{n}")
            assert peano_bound_check(f, F(0), n - 1, 0.5, self.h_set()) is True

    def test_validation(self):
        f = FunctionHandle.builtin("abs")
        with pytest.raises(EvaluatorError):
            peano_bound_check(f, F(0), -1, 0.5, self.h_set())
        with pytest.raises(EvaluatorError):
            peano_bound_check(f, F(0), 1, 0.5, [])
        with pytest.raises(EvaluatorError):
            peano_bound_check(f, F(0), 1, 0.5, [F(0)])

    @pytest.mark.parametrize("m", [True, False])
    def test_bool_order_rejected(self, m):
        f = FunctionHandle.builtin("signpow3")
        with pytest.raises(EvaluatorError, match="m must be an integer >= 0"):
            peano_bound_check(f, F(0), m, 0.5, self.h_set())

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0, -3.0, True])
    def test_epsilon_must_be_finite_and_positive(self, eps):
        # a NaN, zero or negative eps let abs pass, since no comparison
        # |h| > |h|^(1 + eps) came out true
        f = FunctionHandle.builtin("abs")
        with pytest.raises(EvaluatorError, match="epsilon_exponent must be a finite number > 0"):
            peano_bound_check(f, F(0), 1, eps, self.h_set())

    def test_order_past_the_double_range_with_a_float_epsilon(self):
        # m + eps is an int plus a float, which overflows; an int eps keeps
        # it an int, and the check runs
        f = FunctionHandle.builtin("exp")
        with pytest.raises(EvaluatorError, match="m \\+ epsilon_exponent must be a finite number"):
            peano_bound_check(f, 0, 10**400, 0.5, [F(1, 2)])
        assert peano_bound_check(f, 0, 10**400, 1, [F(1, 2)]) is False


def peano_at_60_digits(f, x, m, eps, h_set):
    """peano_bound_check as it was before its double filter: every bound
    |h|^(m + eps) formed by mp.power at MP_DPS digits.  The reference the
    filtered check must match."""
    expo = m + eps
    with mp.workdps(MP_DPS):
        for h in h_set:
            lhs = abs(f.eval_mp(F(x) + h))
            if lhs and lhs > mp.power(abs(_to_mpf(h)), expo):
                return False
    return True


G235 = MultiplicativeGroup((2, 3, 5))
group_steps = st.builds(lambda i, j, k, sign, div: sign * F(2) ** i * F(3) ** j * F(5) ** k / div,
                        st.integers(-15, 15), st.integers(-15, 15), st.integers(-6, 6),
                        st.sampled_from((1, -1)), st.sampled_from((1, 1, 1, 7)))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)), st.floats(0.25, 12),
       st.one_of(st.tuples(st.integers(0, 12), st.floats(1e-3, 2)),
                 st.sampled_from((0.0, -1e-9, -1e-13, 1e-13, 1e-9, "up", "down"))),
       st.lists(group_steps, min_size=1, max_size=8))
def test_group_function_peano_verdicts_match_the_60_digit_bound(bits, s, bound, steps):
    # bound: a free (m, eps), or m + eps at f's own exponent s (a tie at
    # every member), s moved by a relative 1e-9 or 1e-13, or s one double
    # up or down, where the double filter must leave the verdict to 60 digits
    f = GroupFunction(G235, bits, s)
    if isinstance(bound, tuple):
        m, eps = bound
    else:
        m = math.floor(s)
        eps = s - m
        if bound in ("up", "down"):
            eps = math.nextafter(s, math.inf if bound == "up" else 0) - m
        else:
            eps *= 1 + bound
    assume(eps > 0)
    for h in steps:
        assert peano_bound_check(f, 0, m, eps, [h]) is peano_at_60_digits(f, 0, m, eps, [h])
    assert peano_bound_check(f, 0, m, eps, steps) is peano_at_60_digits(f, 0, m, eps, steps)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.sampled_from(("exp", "sin")),
       st.one_of(st.just(F(0)), st.fractions(-60, 3, max_denominator=8)),
       st.integers(0, 6), st.one_of(st.just(1.0), st.floats(1e-3, 2)),
       st.lists(st.builds(lambda p, k: F(p, 2**k), st.integers(-99, 99).filter(bool),
                          st.integers(0, 40)), min_size=1, max_size=8))
def test_builtin_peano_verdicts_match_the_60_digit_bound(name, x, m, eps, steps):
    # sin at 0 with m + eps = 1 compares |sin h| with |h|, which differ by
    # a relative h^2 / 6, below the filter's margin for the small steps
    f = FunctionHandle.builtin(name)
    for h in steps:
        assert peano_bound_check(f, x, m, eps, [h]) is peano_at_60_digits(f, x, m, eps, [h])
    assert peano_bound_check(f, x, m, eps, steps) is peano_at_60_digits(f, x, m, eps, steps)


_G23_65 = GroupFunction(MultiplicativeGroup((2, 3)), (1, 0), 6.5)
_G25_25 = GroupFunction(MultiplicativeGroup((2, 5)), (0, 0), 2.5)
_EXP = FunctionHandle.builtin("exp")


@pytest.mark.parametrize("f, x, m, eps, h, holds, powers", [
    # decided in doubles: only f's own mp.power
    (_G23_65, 0, 6, 0.25, F(1, 2), True, 1),
    (_G23_65, 0, 6, 0.25, F(2), False, 1),
    # left to mp.power(|h|, m + eps): f's own power and the bound's
    (_G23_65, 0, 6, 0.5, F(1), True, 2),
    (_G25_25, 0, 2, 0.25, F(1, 10**400), True, 2),
    (_G25_25, 0, 2, 0.25, F(10**400), False, 2),
    (_G25_25, 0, 2, 0.25, F(1, 10**200), True, 2),
    (_G25_25, 0, 2, 0.25, F(10**200), False, 2),
    (_G23_65, 0, 6, F(1, 4), F(1, 2), True, 2),
    (_EXP, -1, 2**20, 0.5, 1 + F(1, 2**30), True, 1),
    (_EXP, 0, 2**20, 0.5, 1 + F(1, 2**30), False, 1),
], ids=["below-in-doubles", "above-in-doubles", "tie-at-h=1", "step-underflows",
        "step-past-the-double-range", "bound-underflows", "bound-overflows",
        "fraction-epsilon", "delta-above-2^-30", "delta-above-2^-30-fails"])
def test_peano_double_filter_decides_only_inside_its_bound(monkeypatch, f, x, m, eps, h, holds,
                                                            powers):
    want = peano_at_60_digits(f, x, m, eps, [h])
    calls, power = [], mp.power
    monkeypatch.setattr(mp, "power", lambda *a: calls.append(a) or power(*a))
    assert peano_bound_check(f, x, m, eps, [h]) is want is holds
    assert len(calls) == powers
