"""Exact q-analog combinatorics.

Quantum integers, quantum factorials, and Gaussian binomial coefficients,
represented as integer-coefficient polynomials in q so that every identity
check below them can be done with exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb


def _normalize_scalar(c):
    """Collapse Fraction-with-denominator-1 to int; pass ints through."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, int):
        return c
    raise TypeError(f"polynomial coefficients must be int or Fraction, got {type(c).__name__}")


class QPolynomial:
    """Polynomial in the indeterminate q with exact rational coefficients.

    Coefficients are stored lowest power first with trailing zeros removed;
    the zero polynomial is the empty tuple.  Instances are immutable and
    hashable.  Evaluation at a rational point is exact.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cleaned = [_normalize_scalar(c) for c in coeffs]
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        object.__setattr__(self, "coeffs", tuple(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("QPolynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @classmethod
    def q_power(cls, k: int) -> "QPolynomial":
        """The monomial q**k."""
        if k < 0:
            raise ValueError("q_power requires k >= 0")
        return cls((0,) * k + (1,))

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("QPolynomial", self.coeffs))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    def __mul__(self, other) -> "QPolynomial":
        if isinstance(other, (int, Fraction)):
            return QPolynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, QPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return QPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPolynomial(out)

    __rmul__ = __mul__

    def exact_div(self, other: "QPolynomial") -> "QPolynomial":
        """Divide exactly by ``other``; raise ValueError on any remainder."""
        if not isinstance(other, QPolynomial) or other.is_zero():
            raise ValueError("exact_div requires a nonzero QPolynomial divisor")
        rem = list(self.coeffs)
        div = other.coeffs
        lead = div[-1]
        quot = [0] * max(len(rem) - len(div) + 1, 0)
        for i in range(len(quot) - 1, -1, -1):
            # an int when integral, so a monic divisor keeps the updates in integers
            c, r = divmod(rem[i + len(div) - 1], lead)
            if r:
                c = Fraction(rem[i + len(div) - 1], lead)
            quot[i] = c
            if c != 0:
                for j, d in enumerate(div):
                    rem[i + j] -= c * d
        if any(c != 0 for c in rem):
            raise ValueError("polynomial division is not exact")
        return QPolynomial(quot)

    # -- evaluation ---------------------------------------------------

    def __call__(self, q):
        """Exact evaluation, rational in, rational out: at q = a/b, Horner on
        the integer sum of c_i a^i b^(d-i), then one division by b^d."""
        q = Fraction(q)
        a, b = q.numerator, q.denominator
        acc, bk = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * a + c * bk
            bk *= b
        return Fraction(acc * b, bk)

    def __repr__(self) -> str:
        if self.is_zero():
            return "QPolynomial(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*q" if c != 1 else "q")
            else:
                parts.append(f"{c}*q^{i}" if c != 1 else f"q^{i}")
        return "QPolynomial(" + " + ".join(parts) + ")"


def q_integer(n: int) -> QPolynomial:
    """The quantum integer 1 + q + ... + q^(n-1).  Requires n >= 1."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("q_integer requires an integer n >= 1")
    return QPolynomial((1,) * n)


def q_factorial(n: int) -> QPolynomial:
    """Product of the quantum integers 1..n; the empty product for n = 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("q_factorial requires an integer n >= 0")
    coeffs = [1]
    for i in range(2, n + 1):
        # times [i]_q: coefficient k of the product is the sum of coefficients
        # k-i+1..k, a difference of two prefix sums i apart
        sums = [0] * i + list(accumulate(coeffs + [0] * (i - 1)))
        coeffs = [hi - lo for hi, lo in zip(sums[i:], sums)]
    return QPolynomial(coeffs)


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> QPolynomial:
    """Gaussian binomial coefficient as a polynomial in q.

    Built by the quantum Pascal recursion; zero for k outside 0..n.
    Always an integer-coefficient polynomial of degree k*(n-k).
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("q_binomial requires an integer n >= 0")
    if not isinstance(k, int):
        raise ValueError("q_binomial requires an integer k")
    if k < 0 or k > n:
        return QPolynomial.zero()
    if k == 0 or k == n:
        return QPolynomial.one()
    # [n k] = [n-1 k] + q^(n-k) [n-1 k-1]
    return q_binomial(n - 1, k) + QPolynomial.q_power(n - k) * q_binomial(n - 1, k - 1)


def q_binomial_by_factorials(n: int, k: int) -> QPolynomial:
    """Gaussian binomial via the factorial quotient; exact-division cross-check.

    Independent of the Pascal recursion above and deliberately raises if the
    division leaves a remainder.
    """
    if k < 0 or k > n:
        return QPolynomial.zero()
    return q_factorial(n).exact_div(q_factorial(n - k) * q_factorial(k))


def qbinomial_expand(n: int) -> list[tuple[QPolynomial, int, int]]:
    """Expansion terms of the product (a-b)(a-bq)...(a-bq^(n-1)).

    Returns, for k = 0..n, the triple (coefficient, power of a, power of b)
    where coefficient = (-1)^k q^C(k,2) [n k]_q carries both the sign and the
    q-power factor.  Requires n >= 1.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("qbinomial_expand requires an integer n >= 1")
    out = []
    for k in range(n + 1):
        sign = -1 if k % 2 else 1
        coeff = sign * QPolynomial.q_power(comb(k, 2)) * q_binomial(n, k)
        out.append((coeff, n - k, k))
    return out


def pascal_check(n: int, k: int) -> bool:
    """Verify [n-1 k] = [n-2 k] + q^(n-1-k) [n-2 k-1] as exact polynomials.

    Requires n >= 2 and 1 <= k <= n-1.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError("pascal_check requires an integer n >= 2")
    if not isinstance(k, int) or k < 1 or k > n - 1:
        raise ValueError("pascal_check requires 1 <= k <= n-1")
    lhs = q_binomial(n - 1, k)
    rhs = q_binomial(n - 2, k) + QPolynomial.q_power(n - 1 - k) * q_binomial(n - 2, k - 1)
    return lhs == rhs
