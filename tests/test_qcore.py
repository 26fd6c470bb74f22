"""Tests for the exact q-combinatorics layer.

Expected values come from three independent routes: hand expansion of the
defining products, specialization at q=1 against the classical binomial, and
numeric evaluation of both sides of each identity at random rational points.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qriemann.qcore import (
    QPolynomial,
    pascal_check,
    q_binomial,
    q_binomial_by_factorials,
    q_factorial,
    q_integer,
    qbinomial_expand,
)

F = Fraction

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)

scalars = st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**6))
points = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=50),
    # large height: numerator and denominator far past a machine word
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
)


def fraction_horner(coeffs, q):
    """Reference evaluation: Horner with every step in Fraction."""
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * F(q) + c
    return acc


# ---------------------------------------------------------------------------
# QPolynomial arithmetic
# ---------------------------------------------------------------------------


class TestQPolynomial:
    def test_trailing_zeros_trimmed(self):
        p = QPolynomial((1, 2, 0, 0))
        assert p.coeffs == (1, 2)
        assert len(p.coeffs) - 1 == 1

    def test_zero_polynomial(self):
        z = QPolynomial.zero()
        assert z.coeffs == ()
        assert len(z.coeffs) - 1 == -1
        for q in (0, 1, -3, F(7, 3), F(10**30 + 1, 3**70)):
            assert isinstance(z(q), Fraction) and z(q) == 0
        assert QPolynomial((0, 0, 0)) == z

    def test_one(self):
        assert QPolynomial.one().coeffs == (1,)

    def test_q_power(self):
        p = QPolynomial.q_power(3)
        assert p.coeffs == (0, 0, 0, 1)
        with pytest.raises(ValueError):
            QPolynomial.q_power(-1)

    def test_evaluation_is_exact(self):
        # p(q) = 1 - 2q + 3q^2 at q = -5/3: 1 + 10/3 + 25/3 = 38/3.
        p = QPolynomial((1, -2, 3))
        assert p(F(-5, 3)) == F(1) + F(10, 3) + F(3) * F(25, 9)
        assert isinstance(p(F(-5, 3)), Fraction)

    def test_addition(self):
        a = QPolynomial((1, 2))
        b = QPolynomial((3, -2, 1))
        assert (a + b).coeffs == (4, 0, 1)

    def test_multiplication(self):
        # (1 + q)(1 - q) = 1 - q^2
        a = QPolynomial((1, 1))
        b = QPolynomial((1, -1))
        assert (a * b).coeffs == (1, 0, -1)
        assert (a * QPolynomial.zero()) == QPolynomial.zero()

    def test_scalars_only_multiply(self):
        # an int scales a polynomial; + and == take only polynomials
        p = QPolynomial((1, 2))
        assert (-1 * p).coeffs == (-1, -2)
        assert (p * F(1, 2)).coeffs == (F(1, 2), 1)
        with pytest.raises(TypeError):
            p + 1
        assert QPolynomial.one() != 1

    def test_exact_division(self):
        # (1 - q^3) / (1 - q) = 1 + q + q^2
        num = QPolynomial((1, 0, 0, -1))
        den = QPolynomial((1, -1))
        assert num.exact_div(den).coeffs == (1, 1, 1)

    def test_exact_division_remainder_raises(self):
        with pytest.raises(ValueError):
            QPolynomial((1, 1, 1)).exact_div(QPolynomial((1, 1)))
        with pytest.raises(ValueError):
            QPolynomial((1,)).exact_div(QPolynomial.zero())

    def test_division_round_trip_random(self):
        rng = random.Random(20260819)
        for _ in range(25):
            a = QPolynomial(tuple(F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))))
            b = QPolynomial(tuple(F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))))
            if a == QPolynomial.zero() or b == QPolynomial.zero():
                continue
            assert (a * b).exact_div(b) == a

    @SETTINGS
    @given(st.lists(scalars, max_size=12), points)
    def test_evaluation_matches_fraction_horner(self, coeffs, q):
        value = QPolynomial(coeffs)(q)
        assert isinstance(value, Fraction)
        assert value == fraction_horner(coeffs, q)

    def test_exact_division_fraction_coefficients_non_monic(self):
        # (3/2 - q/5)(2/3 + 4q + 7q^2) divided by its non-monic first factor
        a = QPolynomial((F(2, 3), 4, 7))
        b = QPolynomial((F(3, 2), F(-1, 5)))
        assert (a * b).exact_div(b) == a
        assert (a * b).exact_div(a) == b
        with pytest.raises(ValueError):
            (a * b + QPolynomial.one()).exact_div(b)
        with pytest.raises(ValueError):
            a.exact_div(QPolynomial((F(1, 2), 3)))

    def test_exact_division_integer_non_monic_divisor(self):
        # (4 + 2q)(1/2 + 3q + q^2/2) = 2 + 13q + 8q^2 + q^3: integer dividend
        # and divisor, a quotient with Fraction and int coefficients
        quot = QPolynomial((2, 13, 8, 1)).exact_div(QPolynomial((4, 2)))
        assert quot.coeffs == (F(1, 2), 3, F(1, 2))
        assert [type(c) for c in quot.coeffs] == [F, int, F]
        assert QPolynomial((3, 0, -3)).exact_div(QPolynomial((3, 3))).coeffs == (1, -1)
        with pytest.raises(ValueError, match="not exact"):
            QPolynomial((2, 13, 8, 2)).exact_div(QPolynomial((4, 2)))
        with pytest.raises(ValueError, match="not exact"):
            QPolynomial((1, 2, 2)).exact_div(QPolynomial((2, 2)))

    def test_immutability(self):
        p = QPolynomial((1, 2))
        with pytest.raises(AttributeError):
            p.coeffs = (3,)

    def test_equality_and_hash(self):
        assert QPolynomial((1, 2)) == QPolynomial((F(1), F(2), F(0)))
        assert hash(QPolynomial((1, 2))) == hash(QPolynomial((1, 2)))
        assert QPolynomial((1, 2)) != QPolynomial((2, 1))


# ---------------------------------------------------------------------------
# q-integers and q-factorials
# ---------------------------------------------------------------------------


class TestQIntegerFactorial:
    def test_q_integer_small(self):
        assert q_integer(1).coeffs == (1,)
        assert q_integer(2).coeffs == (1, 1)
        assert q_integer(3).coeffs == (1, 1, 1)

    def test_q_integer_values(self):
        # [3] at q=2 is 1+2+4=7; at q=1 it is 3.
        assert q_integer(3)(F(2)) == 7
        assert q_integer(3)(F(1)) == 3
        assert q_integer(5)(F(1, 2)) == F(31, 16)

    def test_q_integer_rejects_nonpositive(self):
        for bad in (0, -1):
            with pytest.raises(ValueError):
                q_integer(bad)

    def test_q_factorial_small(self):
        assert q_factorial(0) == QPolynomial.one()
        assert q_factorial(1) == QPolynomial.one()
        # [3]! = (1+q)(1+q+q^2) = 1 + 2q + 2q^2 + q^3
        assert q_factorial(3).coeffs == (1, 2, 2, 1)

    def test_q_factorial_values(self):
        assert q_factorial(3)(F(2)) == 21  # 1 * 3 * 7
        for n in range(8):
            assert q_factorial(n)(F(1)) == math.factorial(n)

    def test_q_factorial_product_structure(self):
        # with q_factorial(0) == 1 this is q_factorial(n) == prod of q_integer(1..n)
        for n in range(1, 16):
            assert q_factorial(n) == q_factorial(n - 1) * q_integer(n)

    def test_q_factorial_rejects_negative(self):
        with pytest.raises(ValueError):
            q_factorial(-1)


# ---------------------------------------------------------------------------
# Gaussian binomial coefficients
# ---------------------------------------------------------------------------


class TestQBinomial:
    def test_edge_cases(self):
        for n in range(0, 10):
            assert q_binomial(n, 0) == QPolynomial.one()
            assert q_binomial(n, n) == QPolynomial.one()
        assert q_binomial(4, 5) == QPolynomial.zero()
        assert q_binomial(3, -1) == QPolynomial.zero()

    def test_four_choose_two(self):
        # [4 2] = 1 + q + 2q^2 + q^3 + q^4  (hand expansion of the recursion)
        assert q_binomial(4, 2).coeffs == (1, 1, 2, 1, 1)
        assert q_binomial(4, 2)(F(1)) == 6
        assert q_binomial(4, 2)(F(2)) == 35

    def test_specializes_to_classical_binomial(self):
        for n in range(0, 21):
            for k in range(0, n + 1):
                assert q_binomial(n, k)(F(1)) == math.comb(n, k)

    def test_degree(self):
        for n in range(0, 13):
            for k in range(0, n + 1):
                assert len(q_binomial(n, k).coeffs) - 1 == k * (n - k)

    def test_palindromic_coefficients(self):
        for n in range(0, 16):
            for k in range(0, n + 1):
                coeffs = q_binomial(n, k).coeffs
                assert coeffs == tuple(reversed(coeffs))

    def test_symmetry_in_k(self):
        for n in range(0, 13):
            for k in range(0, n + 1):
                assert q_binomial(n, k) == q_binomial(n, n - k)

    def test_factorial_route_agrees(self):
        # Independent construction: exact polynomial division of
        # [n]! by [k]! [n-k]! must reproduce the Pascal-recursion result.
        for n in range(0, 13):
            for k in range(0, n + 1):
                assert q_binomial_by_factorials(n, k) == q_binomial(n, k)

    def test_positive_integer_coefficients(self):
        for n in range(0, 13):
            for k in range(0, n + 1):
                for c in q_binomial(n, k).coeffs:
                    assert c > 0
                    assert Fraction(c).denominator == 1


# ---------------------------------------------------------------------------
# Pascal rule and the factored product expansion
# ---------------------------------------------------------------------------


class TestPascalRule:
    def test_exhaustive_small(self):
        for n in range(2, 21):
            for k in range(1, n):
                assert pascal_check(n, k)

    def test_manual_instance(self):
        # [3 1] = [2 1] + q^2 [2 0]: (1+q+q^2) == (1+q) + q^2.
        lhs = q_binomial(3, 1)
        rhs = q_binomial(2, 1) + QPolynomial.q_power(2) * q_binomial(2, 0)
        assert lhs == rhs

    def test_invalid_arguments(self):
        for n, k in ((1, 1), (2, 0), (2, 2), (0, 0), (5, 5)):
            with pytest.raises(ValueError):
                pascal_check(n, k)


class TestProductExpansion:
    def test_order_one(self):
        terms = qbinomial_expand(1)
        assert len(terms) == 2
        coeff0, i0, j0 = terms[0]
        coeff1, i1, j1 = terms[1]
        assert (i0, j0) == (1, 0) and coeff0 == QPolynomial.one()
        assert (i1, j1) == (0, 1) and coeff1.coeffs == (-1,)

    def test_order_two_middle_term(self):
        # (a - b)(a - qb) = a^2 - (1+q) a b + q a b ... middle coefficient -(1+q).
        terms = {(i, j): c for c, i, j in qbinomial_expand(2)}
        assert terms[(2, 0)] == QPolynomial.one()
        assert terms[(1, 1)].coeffs == (-1, -1)
        assert terms[(0, 2)].coeffs == (0, 1)  # +q b^2

    def test_matches_direct_product_at_random_points(self):
        # Evaluate sum-of-terms and the defining product
        # (a-b)(a-qb)...(a-q^{n-1}b) at random rational (a, b, q).
        rng = random.Random(977)
        for trial in range(40):
            n = rng.randint(1, 8)
            a = F(rng.randint(-30, 30), rng.randint(1, 12))
            b = F(rng.randint(-30, 30), rng.randint(1, 12))
            q = F(rng.randint(-30, 30), rng.randint(1, 12))
            direct = F(1)
            for i in range(n):
                direct *= a - q**i * b
            expanded = sum(
                (c(q) * a**i * b**j for c, i, j in qbinomial_expand(n)),
                start=F(0),
            )
            assert expanded == direct, (n, a, b, q)

    def test_exponents_cover_all_splits(self):
        for n in range(1, 7):
            splits = sorted((i, j) for _, i, j in qbinomial_expand(n))
            assert splits == [(n - k, k) for k in range(n, -1, -1)]

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            qbinomial_expand(0)
