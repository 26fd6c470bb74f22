"""Tests for stencil application, quotient recursions, convergence tables,
and the small-o bound surrogate.

Exactness oracles: on rational polynomials every order-n stencil must return
the n-th derivative exactly, so expected values are computed here by literal
term differentiation.  Floating-path oracles use analytic derivatives of the
builtins (sin''' (0) = -1, etc.).
"""

import math
import random
from fractions import Fraction

import pytest

from qriemann.evaluator import (
    EvaluatorError,
    FunctionHandle,
    apply_difference,
    difference_quotient,
    estimate_derivative,
    peano_bound_check,
    recursive_quotient,
)
from qriemann.stencil import (
    gaussian_forward,
    gaussian_shifted,
    gaussian_symmetric,
    is_symmetric,
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

    def test_signpow_forms(self):
        f = FunctionHandle.builtin("signpow", power=3)
        g = FunctionHandle.builtin("signpow3")
        assert f.eval_exact(F(-2)) == g.eval_exact(F(-2)) == 8
        assert f.eval_exact(F(2)) == 8
        assert FunctionHandle.builtin("signpow2").eval_exact(F(-3)) == -9

    def test_unknown_builtin(self):
        with pytest.raises(EvaluatorError):
            FunctionHandle.builtin("tanh")

    def test_bad_signpow_power(self):
        with pytest.raises(EvaluatorError):
            FunctionHandle.builtin("signpow", power=0)

    def test_abs_exact(self):
        f = FunctionHandle.builtin("abs")
        assert f.eval_exact(F(-5, 3)) == F(5, 3)

    def test_polynomial_exact(self):
        f = FunctionHandle.rational_polynomial([F(1), F(5), F(1)])
        # 1 + 5x + x^2 at x = 1/2 is 1 + 5/2 + 1/4 = 15/4.
        assert f.eval_exact(F(1, 2)) == F(15, 4)

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

    def test_bad_q_and_h(self):
        f = FunctionHandle.builtin("sin")
        with pytest.raises(Exception):
            recursive_quotient("forward", 2, F(1), f, 0.0, 0.5)
        with pytest.raises(EvaluatorError):
            recursive_quotient("forward", 2, F(2), f, 0.0, 0)


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
        # One-sided sampling is exactly the false-positive the two-sided
        # default exists to avoid.
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

    @pytest.mark.parametrize("tol", [0, -1.0, float("nan"), float("inf")])
    def test_tol_must_be_finite_and_positive(self, tol):
        # tol = 0 would turn f(x) = x, every quotient exactly 1, into a
        # nonexistence verdict; an infinite tol accepts any shrinking table
        with pytest.raises(EvaluatorError, match="tol must be a finite number > 0"):
            estimate_derivative(gaussian_forward(1, 2), FunctionHandle.rational_polynomial([0, 1]),
                                0, tol=tol)


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
            f = FunctionHandle.builtin("signpow", power=n)
            assert peano_bound_check(f, F(0), n - 1, 0.5, self.h_set()) is True

    def test_validation(self):
        f = FunctionHandle.builtin("abs")
        with pytest.raises(EvaluatorError):
            peano_bound_check(f, F(0), -1, 0.5, self.h_set())
        with pytest.raises(EvaluatorError):
            peano_bound_check(f, F(0), 1, 0.5, [])
        with pytest.raises(EvaluatorError):
            peano_bound_check(f, F(0), 1, 0.5, [F(0)])
