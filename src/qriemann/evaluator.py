"""Applying stencils to functions and estimating derivatives.

A function is any object with eval_exact(x), the exact Fraction value at a
rational x or None when there is no exact path, and eval_mp(x), its mpmath
value: FunctionHandle for the builtins and polynomials, and
counterexample.GroupFunction for the group-supported functions.  Functions
with an exact path (polynomials, abs, signed powers, group-supported
functions at integer exponents, and any function off its support) are
combined exactly, so cancellation identities come out exactly zero.

Every difference, a single one or a table row, is a row of _row_quotients.
Where the stencil has M_0 .. M_(n-1) = 0, a table's rows come from the
moment series Q(h) = sum_(j>=n) M_j f^(j)(x) h^(j-n) / j!.  For a
polynomial, abs and signpowN it terminates, and a row is one integer Horner
pass; at x = 0, abs and signpowN scale as |h|^(N-n) (_exact_series).  For
sin, cos and exp it is summed to a row correctly rounded to a double, with
one transcendental call per table and precision, wherever R|h| <= 16 and
|h| / D <= 1/2, R the largest |node| and D the nodes' denominator
(_moment_series).  Every other row is the direct sum: exact where every
value is, else at MP_DPS = 60 significant digits on mpmath.libmp's raw mpf
tuples, rounded to float once at the very end, since double precision
would drown the small-h quotients the tables are built from.  A table's
verdict is the exact limit of its quotient, the series at h = 0
(estimate_derivative).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import libmp, mp
from mpmath.libmp import (dps_to_prec, from_int, mpf_cos_sin, mpf_div, mpf_exp, mpf_mul,
                          mpf_pow_int, mpf_sum, round_nearest, to_fixed, to_float)

from .stencil import (GAUSSIAN_BUILDERS, Stencil, _abbreviated, _finite_rational,
                      _over_common_denominator, recursive_build)

MP_DPS = 60
# Double-precision filters in front of 60-digit decisions (peano_bound_check,
# counterexample.find_exponent) act only on values in this range, where
# every double is normal with room to spare.
_TINY, _HUGE = 1e-280, 1e280

_MP_FUNCTIONS = {"sin": mp.sin, "cos": mp.cos, "exp": mp.exp}
# the same functions on raw mpf tuples, mpf_sin(x, prec, rnd) and so on
_MPF_FUNCTIONS = {name: getattr(libmp, f"mpf_{name}") for name in _MP_FUNCTIONS}

BUILTIN_NAMES = (*_MP_FUNCTIONS, "abs", "signpowN")


class EvaluatorError(ValueError):
    """Invalid argument while evaluating a difference."""


def _rational_mpf(x: Fraction, prec: int):
    """The raw mpf tuple of x at prec bits: numerator and denominator each
    rounded to nearest, then divided, as mp.mpf(p) / mp.mpf(q) does."""
    return mpf_div(from_int(x.numerator, prec, round_nearest),
                   from_int(x.denominator, prec, round_nearest), prec, round_nearest)


def _to_mpf(x: Fraction):
    return mp.make_mpf(_rational_mpf(x, mp.prec))


class FunctionHandle:
    """A function the CLI can name: a builtin (sin, cos, exp, abs, or
    signpowN, the signed power x -> x^N * sgn x for N >= 1) or an exact
    rational-coefficient polynomial."""

    __slots__ = ("name", "power", "coeffs", "_over")

    def __init__(self, name=None, power=None, coeffs=None):
        self.name = name
        self.power = 1 if name == "abs" else power  # abs is signpow1
        self.coeffs = coeffs
        # (E, [e_j]): the coefficients c_j = e_j / E over one denominator
        self._over = None if coeffs is None else _over_common_denominator(coeffs)

    @classmethod
    def builtin(cls, name: str) -> "FunctionHandle":
        if name.startswith("signpow"):
            tail = name[len("signpow"):]
            power = int(tail) if tail.isdecimal() else 0
            if power < 1:
                raise EvaluatorError(f"bad signed-power name {_abbreviated(name)!r}; "
                                     "use signpowN with N >= 1")
            return cls(name="signpow", power=power)
        if name not in BUILTIN_NAMES:
            raise EvaluatorError(f"unknown builtin {_abbreviated(name)!r}; "
                                 f"expected one of {BUILTIN_NAMES}")
        return cls(name=name)

    @classmethod
    def rational_polynomial(cls, coeffs) -> "FunctionHandle":
        cs = tuple(_finite_rational(c, "polynomial coefficient", EvaluatorError) for c in coeffs)
        if not cs:
            raise EvaluatorError("polynomial needs at least one coefficient")
        return cls(coeffs=cs)

    # -- evaluation ----------------------------------------------------

    def _exact_over(self, ns, m: int):
        """(ws, w) with f(n / m) = ws[k] / w for the k-th integer n of ns and
        an integer m > 0, or None when no exact path exists (sin, cos, exp).

        A polynomial sum_j e_j x^j / E takes Horner on the integers
        e_j m^(deg - j), so that ws[k] = sum_j e_j n^j m^(deg - j) and
        w = E m^deg.
        """
        if self.coeffs is not None:
            den, es = self._over
            scaled, mk = [es[-1]], 1
            for e in reversed(es[:-1]):
                mk *= m
                scaled.append(e * mk)
            ws = []
            for n in ns:
                acc = 0
                for c in scaled:
                    acc = acc * n + c
                ws.append(acc)
            return ws, den * mk
        if self.power:
            p = self.power
            return [n**p if n > 0 else -n**p for n in ns], m**p
        return None

    def eval_exact(self, x: Fraction):
        """Exact value at a rational point, or None when no exact path exists."""
        over = self._exact_over((x.numerator,), x.denominator)
        return None if over is None else Fraction(over[0][0], over[1])

    def eval_mp(self, x: Fraction):
        """mpmath value at a rational point; call inside an mp.workdps block."""
        exact = self.eval_exact(x)
        if exact is not None:
            return _to_mpf(exact)
        return _MP_FUNCTIONS[self.name](_to_mpf(x))


# -- applying a stencil -------------------------------------------------------


def _exact_apply(s: Stencil, f, x: Fraction, h: Fraction):
    """Exact Fraction sum_k A_k f(x + a_k h) for any function object, or None
    if any term is inexact."""
    total = Fraction(0)
    for a, c in zip(s.nodes, s.coeffs):
        v = f.eval_exact(x + a * h)
        if v is None:
            return None
        total += c * v
    return total


def _mp_apply(s: Stencil, f, x: Fraction, h: Fraction):
    """The same sum in mpmath for any function object; call inside mp.workdps."""
    return mp.fsum(_to_mpf(c) * f.eval_mp(x + a * h) for a, c in zip(s.nodes, s.coeffs))


# A series row is computed to this many bits beyond its largest term: 53
# for the double and 40 to spare, so that Ziv's test seldom asks for more.
_SERIES_BITS = 93
# times a series row may double its precision before the direct sum takes it
_SERIES_REDOS = 4
# a series row has R|h| <= _SERIES_RADIUS, and e^(R|h|) < 2^_RADIUS_BITS
_SERIES_RADIUS = 16
_RADIUS_BITS = math.ceil(_SERIES_RADIUS * math.log2(math.e))


def _fixed_to_double(v: int, shift: int) -> float:
    """v * 2^shift correctly rounded to a double, +-inf past the largest:
    int true division and int-to-float conversion both round correctly."""
    top = v.bit_length() + shift  # 2^(top-1) <= |v| 2^shift < 2^top
    if v and top > 1025:
        return math.copysign(math.inf, v)
    if top < -1075:  # below half the smallest subnormal
        return math.copysign(0.0, v)
    try:
        return float(v << shift) if shift >= 0 else v / (1 << -shift)
    except OverflowError:
        return math.copysign(math.inf, v)


def _moment_series(name: str, x: Fraction, n: int, d: int, ps, e: int, cs):
    """Rows h -> Q(h) = sum_k A_k f(x + a_k h) / h^n of f = sin, cos or exp,
    correctly rounded to a double, from the Taylor series of Q about h = 0;
    None when a moment M_j, j < n, is not 0.  A row is None where
    R|h| > 16, R = max |a_k|, or |y| > 1/2, and where the last precision
    leaves its rounding open.

    With a_k = P_k / D (d and ps), A_k = C_k / E (e and cs) and y = h / D,

        Q(h) = sum_{j >= n} alpha_j y^(j-n),
        alpha_j = S_j f^(j)(x) / (E D^n j!),  S_j = sum_k C_k P_k^j,

    where f^(j)(x) cycles through +-sin x and +-cos x, or is e^x.  S_j and
    U_j = sum_k |C_k| |P_k|^j are running integer sums, built only as far
    as a row needs them.  At G = 93 + lb bits, lb >= log2(B e^16) read off
    the integer bit lengths of B = sum_k |A_k| R^n / n!, alpha_j is the
    integer floor(S_j Phi_j / (E D^n j!)) in units of 2^-G, Phi_j the
    fixed-point f^(j)(x), e^x scaled by 2^-t into [1/2, 1).  One mpf_cos_sin
    or mpf_exp per table and G, at G + 4 bits of x rounded to
    G + 4 + log2|x| bits from its numerator and denominator, gives every
    Phi_j within 2 units.  A row is a Horner pass in y over j = J .. n with
    one floor division per step.  J is the first index whose Lagrange
    remainder U_(J+1) |y|^(J+1-n) max|f^(J+1)| / (E D^n (J+1)!) is at most
    2^(lb-4) units, with max|f^(J+1)| <= 1 for sin and cos and
    e^(x + R|h|) <= e^16 2^t for exp, whose cut is 24 bits lower; its
    logarithm is taken from the exact integers with a bit to spare.

    Since |y| <= 1/2 and sum_j U_j |y|^(j-n) / (E D^n j!) <= B e^16, the
    sum is within 2^(lb+3) units of Q 2^(G-t).  The row is accepted when
    both ends of that interval round to the same double, else redone at 2G
    (A. Ziv, ACM TOMS 17, 1991).  At x = 0 a sin (cos) quotient whose
    stencil is even (odd) under a -> -a is exactly 0.  The row at h = 0 is
    the limit alpha_n: 0.0 where S_n = 0, and at x = 0, where f^(n)(0) is
    0 or +-1, the exact Fraction S_n f^(n)(0) / (E D^n n!).
    """
    terms, sums = cs, []  # C_k P_k^j, S_j
    dens, log_ratios = [], []  # from j = n on: E D^n j!, log2(U_j / (E D^n j!))

    def extend(upto):
        nonlocal terms
        for j in range(len(sums), upto + 1):
            if j:
                terms = [t * p for t, p in zip(terms, ps)]
            sums.append(sum(terms))
            if j >= n:
                dens.append(dens[-1] * j if dens else e * d**n * math.factorial(n))
                log_ratios.append(math.log2(sum(map(abs, terms))) - math.log2(dens[-1]))

    extend(n)
    if any(sums[:n]):
        return None
    pmax = max(map(abs, ps))
    lb = max(1, (sum(map(abs, cs)) * pmax**n).bit_length() - dens[0].bit_length() + 1)
    lb += _RADIUS_BITS
    g0, err = _SERIES_BITS + lb, 1 << (lb + 3)
    cut = lb - 4 - (_RADIUS_BITS if name == "exp" else 0)
    x_bits = max(0, abs(x.numerator).bit_length() - x.denominator.bit_length() + 1)
    # at x = 0 a sin sum vanishes on an even stencil, a cos sum on an odd one
    at, parity = dict(zip(ps, cs)), 1 if name == "sin" else -1
    zero = x == 0 and name != "exp" and all(at.get(-p) == parity * c for p, c in at.items())
    # at x = 0, f^(n)(0) = 0 or +-1: sin^(n) = cos^(n-1) cycles through 0, 1, 0, -1
    fn_at0 = 1 if name == "exp" else (0, 1, 0, -1)[(n + (name == "cos")) % 4]
    fixed = {}  # G -> (t, the alpha_j at G from j = n on)

    def alphas(g, upto):
        if g not in fixed:
            wp = g + 4
            xm = _rational_mpf(x, wp + x_bits)
            if name == "exp":
                ex = mpf_exp(xm, wp, round_nearest)
                t = ex[2] + ex[3]  # e^x = 2^t phi with 1/2 <= phi < 1
                cycle = (to_fixed(ex, g - t),) * 4
            else:
                cos, sin = (to_fixed(v, g) for v in mpf_cos_sin(xm, wp, round_nearest))
                t, cycle = 0, (sin, cos, -sin, -cos) if name == "sin" else (cos, -sin, -cos, sin)
            fixed[g] = t, cycle, []
        t, cycle, al = fixed[g]
        if len(sums) <= upto:
            extend(upto)
        for j in range(n + len(al), upto + 1):
            al.append(sums[j] * cycle[j % 4] // dens[j - n])
        return t, al

    def row(h):
        yn, yd = h.numerator, h.denominator * d
        if pmax * abs(yn) > _SERIES_RADIUS * yd or 2 * abs(yn) > yd:
            return None
        if zero or not yn and not sums[n]:
            return 0.0
        if not yn and x == 0:  # the limit alpha_n is exact
            return Fraction(fn_at0 * sums[n], dens[0])
        log_y = math.log2(abs(yn)) - math.log2(yd) if yn else -math.inf
        g = g0
        for _ in range(_SERIES_REDOS + 1):
            top = 0  # J - n
            while True:
                if len(log_ratios) < top + 2:
                    extend(n + top + 1)
                if log_ratios[top + 1] + (top + 1) * log_y + g <= cut:
                    break
                top += 1
            t, al = alphas(g, n + top)
            acc = al[top]
            for i in range(top - 1, -1, -1):
                acc = al[i] + acc * yn // yd
            lo, hi = _fixed_to_double(acc - err, t - g), _fixed_to_double(acc + err, t - g)
            if lo == hi and math.copysign(1, lo) == math.copysign(1, hi):
                return lo
            g *= 2
        return None

    return row


def _exact_series(f: FunctionHandle, x: Fraction, n: int, d: int, ps, e: int, cs, direct):
    """(row, limit) of Q(h) = sum_k A_k f(x + a_k h) / h^n for a polynomial,
    abs or signpowN f, with a_k = P_k / D (d and ps) and A_k = C_k / E (e and
    cs); (direct, None) where some S_j = sum_k C_k P_k^j, j < n, is not 0.

    Near x != 0, f is a polynomial of degree m (sgn(x) y^m for abs, m = 1,
    and signpowN), and Q(h) = sum_(j=n..m) S_j f^(j)(x) h^(j-n) / (E D^j j!)
    terminates: its coefficients are formed once, and a row is one integer
    Horner pass and one Fraction.  A row of abs or signpowN with a point
    x + a_k h across 0 is direct(h).  At x = 0, abs and signpowN have
    Q(h) = Q(sgn h) |h|^(m - n), and limit is diverged where m < n and a
    side the steps take has Q(+-1) != 0, oscillating where m = n and they
    take both sides with Q(+1) != Q(-1).  Else limit is converged, the
    series at h = 0, as _row_quotients describes it.
    """
    v, u = x.denominator, x.numerator
    den, es = f._over or (1, (0,) * f.power + (1 if u > 0 else -1,))
    m, at0 = len(es) - 1, f.coeffs is None and u == 0
    terms, sums = cs, []  # C_k P_k^j, S_j
    for j in range(n if at0 else max(n, m + 1)):
        if j:
            terms = list(map(operator.mul, terms, ps))
        sums.append(sum(terms))
    if any(sums[:n]):
        return direct, None
    if at0:
        ends, k = {sign > 0: direct(Fraction(sign)) for sign in (1, -1)}, m - n  # Q(+-1)

        def zero_row(h):
            q, a, b = ends[h.numerator > 0], abs(h.numerator), h.denominator
            a, b = (a, b) if k >= 0 else (b, a)
            return Fraction(q.numerator * a ** abs(k), q.denominator * b ** abs(k))

        def zero_limit(sign):
            values = {ends[sign > 0]} if sign else set(ends.values())
            if k > 0 or values == {0}:
                return "converged", 0
            if k < 0:
                return "diverged", None
            return ("oscillating", None) if len(values) > 1 else ("converged", values.pop())

        return zero_row, zero_limit
    # with x = u/v and h = p/t, f^(j)(x) / j! = T_j / (den v^(m-j)) for
    # f = sum_i e_i y^i / den, and Q(h) = sum_j B_j p^(j-n) t^(m-j) / (G t^(m-n))
    # with B_j = S_j T_j v^(j-n) D^(m-j) and G = E den v^(m-n) D^m
    bs = [sums[j] * sum(es[i] * math.comb(i, j) * u**(i - j) * v**(m - i)
                        for i in range(j, m + 1)) * v**(j - n) * d**(m - j)
          for j in range(n, m + 1)]
    k = max(m - n, 0)
    g = e * den * v**k * d**m
    # abs and signpowN: every point keeps the side of x, sgn(x) (u D t + P_k p v) >= 0
    reach, xd = f.coeffs is None and {True: -min(ps) * v, False: max(ps) * v}, abs(u) * d

    def series_row(h):
        p, t = h.numerator, h.denominator
        if reach and reach[(p > 0) == (u > 0)] * abs(p) > xd * t:
            return direct(h)
        acc, pj = 0, 1
        for b in bs:
            acc = acc * t + b * pj
            pj *= p
        return Fraction(acc, g * t**k)

    return series_row, lambda sign: ("converged", series_row(Fraction(0)))


def _row_quotients(s: Stencil, f, x, power: int, one_row: bool = False):
    """(row, limit): row is h -> sum_k A_k f(x + a_k h) / h^power for any
    function object, an exact Fraction when every value is exact, else a
    float.  limit is None but for a FunctionHandle: sign -> (verdict, value)
    of the limit through steps of that sign (0: both), the series at h = 0
    (_exact_series, _moment_series).  verdict is converged, diverged or
    oscillating; value is the exact limit where it is converged, else None.
    limit is None where some M_j, j < power, is not 0; a series limit whose
    rounding stays open raises EvaluatorError.

    Other function objects take their rows from _exact_apply and _mp_apply.
    A FunctionHandle prepares the stencil once per table: with x = u/v,
    h = p/t, a_k = P_k/D from s.node_ints and A_k = C_k/E, the points are
    N_k / M, N_k = u D t + P_k p v and M = v D t > 0, without a gcd.  The
    direct sum of an exact function sums C_k times integer values into one
    Fraction.  A table's rows come from _exact_series wherever it gives
    them; one_row, a single difference (_apply), takes the direct sum, since
    forming the series costs about as much and both are exact.  A sin, cos
    or exp row at power = order takes _moment_series's correctly rounded
    value wherever it gives one.  Any other sin, cos or exp row is the
    direct sum, on raw mpf tuples at prec = dps_to_prec(MP_DPS) bits with
    round-to-nearest, the operations _mp_apply's mpf objects do inside
    mp.workdps(MP_DPS), without entering it: each point is mpf_div(N_k, M)
    when both fit prec, else _rational_mpf of the reduced Fraction; either
    is _to_mpf's mpf, so the row equals the per-point _mp_apply at MP_DPS,
    rounded to float once after the division, whatever the caller's mp.prec.
    """
    x = _finite_rational(x, "x", EvaluatorError)
    if not isinstance(f, FunctionHandle):
        def row(h):
            exact = _exact_apply(s, f, x, h)
            if exact is not None:
                return exact / h**power
            with mp.workdps(MP_DPS):
                return float(_mp_apply(s, f, x, h) / _to_mpf(h) ** power)

        return row, None
    v, (d, ps), (e, cs) = x.denominator, s.node_ints, _over_common_denominator(s.coeffs)
    ud, vd = x.numerator * d, v * d

    def points(h):
        base, pv = ud * h.denominator, h.numerator * v
        return [base + pk * pv for pk in ps], vd * h.denominator

    fn = _MPF_FUNCTIONS.get(f.name)
    if fn is None:
        def exact_row(h):
            ws, w = f._exact_over(*points(h))
            return Fraction(sum(c * wk for c, wk in zip(cs, ws)) * h.denominator**power,
                            e * w * h.numerator**power)

        return (exact_row, None) if one_row else _exact_series(f, x, power, d, ps, e, cs, exact_row)

    prec, rnd = dps_to_prec(MP_DPS), round_nearest
    mpcs = []  # the coefficients' mpf tuples, made by the table's first direct sum

    def mp_row(h):
        if not mpcs:
            mpcs.extend(_rational_mpf(c, prec) for c in s.coeffs)
        ns, m = points(h)
        mm, wide = from_int(m), m.bit_length() > prec
        values = (fn(_rational_mpf(Fraction(n, m), prec) if wide or n.bit_length() > prec
                     else mpf_div(from_int(n), mm, prec, rnd), prec, rnd) for n in ns)
        total = mpf_sum([mpf_mul(c, y, prec, rnd) for c, y in zip(mpcs, values)], prec, rnd)
        step = mpf_pow_int(_rational_mpf(h, prec), power, prec, rnd)
        return to_float(mpf_div(total, step, prec, rnd), rnd=rnd)

    series = _moment_series(f.name, x, power, d, ps, e, cs) if power == s.order else None
    if series is None:
        return mp_row, None

    def row(h):
        value = series(h)
        return mp_row(h) if value is None else value

    def series_limit(sign):
        value = series(0)
        if value is None:
            raise EvaluatorError("the limit's rounding stays open after the series' redos")
        return "converged", value

    return row, series_limit


def _apply(s: Stencil, f, x, h, power: int):
    """One row of _row_quotients, at a step h that must be nonzero."""
    h = _finite_rational(h, "step h", EvaluatorError)
    if h == 0:
        raise EvaluatorError("step h must be nonzero")
    return _row_quotients(s, f, x, power, one_row=True)[0](h)


def apply_difference(s: Stencil, f, x, h):
    """sum_k A_k f(x + a_k h) for any function object; exact Fraction when
    possible, else float."""
    return _apply(s, f, x, h, 0)


def difference_quotient(s: Stencil, f, x, h):
    """The difference divided by h^order, for any function object; exact
    Fraction when possible."""
    return _apply(s, f, x, h, s.order)


# -- recursive quotients ------------------------------------------------------


def recursive_quotient(family: str, n: int, q, f: FunctionHandle, x, h):
    """Order-n quotient of the stencil built by the order-raising recursion.

    stencil.recursive_build, the one implementation of the recursion, builds
    the stencil and difference_quotient applies it.  The stencil equals the
    family's closed form exactly, and so does the quotient.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise EvaluatorError("order must be an integer >= 1")
    if family not in GAUSSIAN_BUILDERS:
        raise EvaluatorError(f"unknown recursion family {family!r}; "
                             f"expected one of {tuple(GAUSSIAN_BUILDERS)}")
    return difference_quotient(recursive_build(family, n, q), f, x, h)


# -- convergence tables -------------------------------------------------------


@dataclass
class ConvergenceTable:
    """Rows of (h, quotient, delta_from_previous) plus a final verdict.

    Quotients are kept as produced (exact Fraction or float); CSV output
    renders them as floats, JSON as floats or, when infinite or NaN, null.
    delta is None on the first row.
    """

    order: int
    rows: list = field(default_factory=list)
    verdict: str = "oscillating"
    value: float | None = None
    est_error: float | None = None
    pos_estimate: float | None = None
    neg_estimate: float | None = None

    def verdict_line(self) -> str:
        if self.verdict == "converged":
            return f"# verdict: converged value={self.value!r} est_error={self.est_error!r}"
        if self.verdict == "diverged":
            return "# verdict: diverged"
        parts = ["# verdict: oscillating"]
        if self.pos_estimate is not None:
            parts.append(f"pos_estimate={self.pos_estimate!r}")
        if self.neg_estimate is not None:
            parts.append(f"neg_estimate={self.neg_estimate!r}")
        return " ".join(parts)

    def to_csv(self) -> str:
        lines = ["h,quotient,delta"]
        for h, qt, d in self.rows:
            delta = "" if d is None else repr(float(d))
            lines.append(f"{float(h)!r},{float(qt)!r},{delta}")
        lines.append(self.verdict_line())
        return "\n".join(lines)

    def to_jsonable(self) -> dict:
        obj = {
            "order": self.order,
            "rows": [{"h": float(h), "quotient": _finite(qt), "delta": _finite(d)}
                     for h, qt, d in self.rows],
            "verdict": self.verdict,
        }
        if self.verdict == "converged":
            obj["value"] = _finite(self.value)
            obj["est_error"] = _finite(self.est_error)
        if self.verdict == "oscillating":
            obj["pos_estimate"] = _finite(self.pos_estimate)
            obj["neg_estimate"] = _finite(self.neg_estimate)
        return obj


def _finite(v) -> float | None:
    v = math.nan if v is None else float(v)
    return v if math.isfinite(v) else None


def estimate_derivative(
    s: Stencil,
    f: FunctionHandle,
    x,
    h0=Fraction(1, 10),
    ratio=Fraction(1, 2),
    steps: int = 20,
    two_sided: bool = True,
) -> ConvergenceTable:
    """Quotient table along h_i = h0 * ratio^i (sign alternating when
    two_sided; its numerator and denominator carried as integers, one
    Fraction per row) with a converged / diverged / oscillating verdict,
    decided by the exact limit of the quotient (_row_quotients).

    converged: the limit exists, with value the limit correctly rounded and
    est_error |last quotient - value|.  A limit fails to exist only for abs
    and signpowN at x = 0, where Q(h) = Q(sgn h) |h|^(N-n).  diverged:
    N < n and Q(+-1) != 0, so the quotient is unbounded.  oscillating: N = n
    on a two-sided table and Q(+1) != Q(-1), so the quotient is bounded with
    two one-sided limits, reported as the last quotients on each side of 0,
    which are exactly Q(+1) and Q(-1).

    Only a FunctionHandle on a stencil with M_0 .. M_(n-1) = 0 has the
    exact limit.  After the rows, EvaluatorError is raised for any other
    function object, for a stencil with a nonzero lower moment, for a
    limit whose rounding the moment series leaves open after its redos, and
    for a limit past the double range.

    For orders >= 3 rows with |h| < 1e-8 are dropped: beyond that point the
    quotient digits carry no information at any reasonable precision.  An
    exact step or quotient past the largest double, or a step that rounds to
    a zero double, raises EvaluatorError.
    """
    h0 = _finite_rational(h0, "h0", EvaluatorError)
    ratio = _finite_rational(ratio, "ratio", EvaluatorError)
    if h0 == 0:
        raise EvaluatorError("h0 must be nonzero")
    if not (0 < ratio < 1):
        raise EvaluatorError("ratio must lie strictly between 0 and 1")
    if not isinstance(steps, int) or not 2 <= steps <= 60:
        raise EvaluatorError("steps must be an integer in 2..60")

    table = ConvergenceTable(order=s.order)
    quotient, limit = _row_quotients(s, f, x, s.order)
    last = None  # the previous row's quotient as a double
    num, den = h0.numerator, h0.denominator  # h0 ratio^i = num / den, carried as integers
    for i in range(steps):
        if s.order >= 3 and abs(num) * 10**8 < den:
            break  # |h| < 1e-8
        h = Fraction(-num if two_sided and i % 2 == 1 else num, den)
        qt = quotient(h)
        try:  # every row is reported as doubles, and an exact value may not fit one
            hf, qf = float(h), float(qt)
        except OverflowError:
            hf = 0.0
        if hf == 0:  # past the largest double, or a nonzero h below the smallest
            raise EvaluatorError(f"row {i + 1}: the step h or its quotient lies outside "
                                 "the double range")
        table.rows.append((h, qt, None if last is None else abs(qf - last)))
        last = qf
        num, den = num * ratio.numerator, den * ratio.denominator
    if len(table.rows) < 2:
        raise EvaluatorError("fewer than two usable rows; raise h0 or lower the order")

    if not isinstance(f, FunctionHandle):
        raise EvaluatorError("no exact limit for a function object other than a FunctionHandle")
    rule = limit and limit(0 if two_sided else 1 if h0 > 0 else -1)
    if rule is None:
        raise EvaluatorError(f"no exact limit: a moment M_j, j < {s.order}, is not 0")
    table.verdict, value = rule
    if table.verdict == "converged":
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if math.isinf(value):
            raise EvaluatorError("the limit lies outside the double range")
        table.value, table.est_error = value, abs(last - value)
    elif table.verdict == "oscillating":
        for h, qt, _ in table.rows:
            if h > 0:
                table.pos_estimate = float(qt)
            else:
                table.neg_estimate = float(qt)
    return table


def peano_bound_check(f, x, m: int, epsilon_exponent: float, h_set) -> bool:
    """True iff |f(x+h)| <= |h|^(m + epsilon_exponent) for every sampled h.

    f is any function object; verify_counterexample passes a GroupFunction.
    Establishes m-th order smallness at x (all lower difference quotients
    vanish in the limit) without computing any quotient.  epsilon_exponent
    must be a finite number > 0.  The bound is computed only where f(x+h)
    is nonzero: 0 <= |h|^(m + epsilon_exponent) always holds.

    Where it is needed, the bound is first taken in doubles: for an
    exponent e = m + epsilon_exponent that is an int or a float (so both
    paths use the same e), b = float(|h|) ** e is within (e + 2) units of
    2^-53 of |h|^e, so with delta = (e + 4) 2^-50 the bound holds where
    |f(x+h)| < b - b delta and fails where |f(x+h)| > b + b delta.  This
    applies only where delta <= 2^-30, 1e-280 < float(|h|) and
    1e-280 < b < 1e280.  Any other step, and a tie such as h = 1, is
    compared with mp.power(|h|, e) at MP_DPS digits.
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 0:
        raise EvaluatorError("m must be an integer >= 0")
    if (isinstance(epsilon_exponent, bool) or not isinstance(epsilon_exponent, numbers.Real)
            or not 0 < epsilon_exponent < math.inf):
        raise EvaluatorError("epsilon_exponent must be a finite number > 0")
    if not h_set:
        raise EvaluatorError("h_set must be nonempty")
    x = _finite_rational(x, "x", EvaluatorError)
    try:
        expo = m + epsilon_exponent
    except OverflowError:  # an int m past the double range plus a float epsilon
        raise EvaluatorError("m + epsilon_exponent must be a finite number") from None
    # the double filter needs e itself as a double, and delta <= 2^-30
    delta = ((expo + 4) * 2.0**-50
             if isinstance(expo, (int, float)) and expo <= 2**20 - 4 else None)
    with mp.workdps(MP_DPS):
        for h in h_set:
            h = _finite_rational(h, "h sample", EvaluatorError)
            if h == 0:
                raise EvaluatorError("h samples must be nonzero")
            lhs = abs(f.eval_mp(x + h))
            if not lhs:
                continue
            try:
                hf = float(abs(h))
                b = hf ** expo if delta and hf > _TINY else 0.0
            except OverflowError:  # |h| or b past the double range
                b = 0.0
            if _TINY < b < _HUGE:
                if lhs < b - b * delta:
                    continue
                if lhs > b + b * delta:
                    return False
            if lhs > mp.power(abs(_to_mpf(h)), expo):
                return False
    return True
