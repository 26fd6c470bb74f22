"""Group-supported functions that separate generalized from ordinary derivatives.

The machinery: take the multiplicative group G generated by a few primes, a
sign character chi on G, and a positive exponent s, and form

    f(x) = chi(x) * x^s   for x in G,   f(x) = 0 elsewhere (including x <= 0).

Applying an order-n stencil at the origin collapses, for steps h in G, to
chi(h) * phi(s) * h^s where phi is an exponential sum over the positive
stencil nodes that lie in G.  A root s* of phi in (n-1, n) then makes the
n-th difference quotient vanish while f itself is too rough for the ordinary
n-th derivative: exactly the separation that run_case reproduces for each
named case of the cases module.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp

from .cases import NAMED_CASES, SEARCH_CASES, NamedCase
from .evaluator import (_HUGE, _TINY, MP_DPS, _exact_apply, _mp_apply, _to_mpf,
                        peano_bound_check)
from .stencil import (Stencil, _abbreviated, _finite_rational, format_rational,
                      stencil_to_jsonable)

# Largest generator accepted, so that _is_prime's trial division takes at
# most about 3 * 10^4 steps.
MAX_GENERATOR = 10**9


class CounterexampleError(ValueError):
    """Invalid argument or violated precondition in counterexample machinery."""


class NoSignChangeError(CounterexampleError):
    """The bracketing interval carries no strict sign change of phi."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


@dataclass(frozen=True)
class MultiplicativeGroup:
    """The subgroup of positive rationals generated by distinct primes."""

    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise CounterexampleError("need at least one generator")
        if len(set(gens)) != len(gens):
            raise CounterexampleError("generators must be distinct")
        for g in gens:
            if not isinstance(g, int) or g > MAX_GENERATOR or not _is_prime(g):
                raise CounterexampleError(
                    f"generator {_abbreviated(repr(g))} is not a prime up to {MAX_GENERATOR}")
        object.__setattr__(self, "generators", gens)


def membership(group: MultiplicativeGroup, x) -> tuple | None:
    """Exponent vector of x over the generators, or None if x is outside G.

    Requires x > 0; the group lives in the positive rationals.
    """
    if type(x) is not Fraction:
        x = _finite_rational(x, "x", CounterexampleError)
    if x <= 0:
        raise CounterexampleError("membership requires x > 0")
    num, den = x.numerator, x.denominator
    exps = []
    for g in group.generators:
        e = 0
        while num % g == 0:
            num //= g
            e += 1
        while den % g == 0:
            den //= g
            e -= 1
        exps.append(e)
    if num != 1 or den != 1:
        return None
    return tuple(exps)


@dataclass(frozen=True)
class GroupFunction:
    """f(x) = chi(x) x^s on G, 0 off G; chi is the sign character (-1)^(c.e).

    The exponent s is kept as one exact Fraction: an int or Fraction as
    given, a finite float as the dyadic rational it stands for.  f has the
    evaluator's function protocol (eval_exact, eval_mp), so stencils apply
    to it as they do to any builtin.
    """

    group: MultiplicativeGroup
    character: tuple
    exponent: Fraction  # positive; given as an int, Fraction or finite float

    def __post_init__(self):
        bits = tuple(self.character)
        if len(bits) != len(self.group.generators):
            raise CounterexampleError("character length must match generator count")
        if any(b not in (0, 1) for b in bits):
            raise CounterexampleError("character entries must be bits 0/1")
        object.__setattr__(self, "character", bits)
        s = self.exponent
        if not isinstance(s, (int, float, Fraction)):
            raise CounterexampleError(f"bad exponent type {type(s).__name__}")
        if (isinstance(s, float) and not math.isfinite(s)) or s <= 0:
            raise CounterexampleError("exponent must be a positive real")
        object.__setattr__(self, "exponent", Fraction(s))

    def chi(self, exponents) -> int:
        return -1 if sum(c * e for c, e in zip(self.character, exponents)) % 2 else 1

    def _locate(self, x) -> tuple:
        """(x as a Fraction, its exponents in G or None off the support, the
        exact value or None), from one membership test and none at x <= 0."""
        if type(x) is not Fraction:
            x = _finite_rational(x, "x", CounterexampleError)
        e = membership(self.group, x) if x > 0 else None
        if e is None:
            return x, None, Fraction(0)
        if self.exponent.denominator != 1:
            return x, e, None
        return x, e, self.chi(e) * x**self.exponent.numerator

    def eval_exact(self, x: Fraction) -> Fraction | None:
        """Exact value, or None when x is in G but the exponent is not integral.

        Off the support (x <= 0 or x outside G) the value is exactly 0
        whatever the exponent, so differences built entirely off-support
        cancel to literal zero.
        """
        return self._locate(x)[2]

    def eval_mp(self, x: Fraction):
        """mpmath value; call inside an mp.workdps block.

        Off the support it is 0.  Where eval_exact's value is exact (at an
        integer exponent) it is rounded once, so the value is correct to
        working precision; otherwise the value is chi(x) * x^s from one
        correctly rounded mp.power.
        """
        x, e, exact = self._locate(x)
        if e is None:
            return mp.mpf(0)
        if exact is not None:
            return _to_mpf(exact)
        return self.chi(e) * mp.power(_to_mpf(x), _to_mpf(self.exponent))


# -- exponential sums ---------------------------------------------------------


@dataclass(frozen=True)
class ExponentialSum:
    """phi(s) = sum_i c_i * b_i^s with rational c_i != 0 and distinct rational
    bases b_i > 0, kept sorted by descending base."""

    terms: tuple

    def __post_init__(self):
        cleaned = []
        for c, b in self.terms:
            c = _finite_rational(c, "coefficient", CounterexampleError)
            b = _finite_rational(b, "base", CounterexampleError)
            if b <= 0:
                raise CounterexampleError("bases must be positive")
            if c != 0:
                cleaned.append((c, b))
        if not cleaned:
            raise CounterexampleError("exponential sum needs at least one nonzero term")
        bases = [b for _, b in cleaned]
        if len(set(bases)) != len(bases):
            raise CounterexampleError("duplicate bases")
        cleaned.sort(key=lambda t: t[1], reverse=True)
        object.__setattr__(self, "terms", tuple(cleaned))

    def eval_exact(self, s: int) -> Fraction:
        if not isinstance(s, int) or s < 0:
            raise CounterexampleError("eval_exact requires an integer s >= 0")
        return sum((c * b**s for c, b in self.terms), Fraction(0))

    def eval_mp(self, s):
        """mpmath value at a rational or float s; call inside an mp.workdps block."""
        if type(s) is not Fraction:
            s = _finite_rational(s, "s", CounterexampleError)
        sm = _to_mpf(s)
        return mp.fsum(_to_mpf(c) * mp.power(_to_mpf(b), sm) for c, b in self.terms)


def phi_from_stencil(s: Stencil, f: GroupFunction) -> ExponentialSum:
    """The exponential sum governing steps inside G:

        sum_k A_k f(a_k h) = chi(h) * phi(s) * h^s   for h in G,

    with one term chi(a_k) A_k * a_k^s per positive node a_k in G.  Nodes
    that are nonpositive or outside G contribute nothing for h in G and are
    skipped.  The character's sign convention is kept raw here, so the
    identity above holds exactly; PhiOnInterval.of removes the content and
    sets the printed sign.
    """
    terms = []
    for a, c in zip(s.nodes, s.coeffs):
        if a <= 0:
            continue
        e = membership(f.group, a)
        if e is None:
            continue
        terms.append((c * f.chi(e), a))
    if not terms:
        raise CounterexampleError("no positive stencil node lies in the group")
    return ExponentialSum(tuple(terms))


@dataclass(frozen=True)
class PhiOnInterval:
    """phi of one character on an integer interval (lo, hi), built once per run.

    phi is the printed presentation that of builds: coprime integer
    coefficients, sign as printed.  The exact endpoint values phi(lo) and
    phi(hi) are computed here, from which sign_change follows; reports and
    searches serialize phi and its endpoints through phi_jsonable.
    """

    character: tuple
    phi: ExponentialSum
    interval: tuple  # integers lo < hi
    lo_value: Fraction = field(init=False)
    hi_value: Fraction = field(init=False)

    def __post_init__(self):
        interval = tuple(self.interval)
        if not (len(interval) == 2 and all(isinstance(v, int) for v in interval)
                and interval[0] < interval[1]):
            raise CounterexampleError(f"the interval must be two integers lo < hi, not {interval}")
        object.__setattr__(self, "interval", interval)
        object.__setattr__(self, "lo_value", self.phi.eval_exact(interval[0]))
        object.__setattr__(self, "hi_value", self.phi.eval_exact(interval[1]))

    @classmethod
    def of(cls, stencil: Stencil, group: MultiplicativeGroup, character, interval,
           flip_sign: bool = False) -> "PhiOnInterval":
        """phi as reports print it: phi_from_stencil's sum for this character
        divided by its content, the gcd of the coefficients' numerators over
        the lcm of their denominators, negated as well when flip_sign is set.
        phi does not depend on the exponent; the exponent-1 GroupFunction
        only carries the character and checks it against the group."""
        terms = phi_from_stencil(stencil, GroupFunction(group, character, 1)).terms
        content = Fraction(math.gcd(*(c.numerator for c, _ in terms)),
                           math.lcm(*(c.denominator for c, _ in terms)))
        content = -content if flip_sign else content
        phi = ExponentialSum(tuple((c / content, b) for c, b in terms))
        return cls(tuple(character), phi, interval)

    @property
    def sign_change(self) -> bool:
        """phi(lo) * phi(hi) < 0 strictly, so an exact zero at an endpoint
        does not qualify."""
        return self.lo_value * self.hi_value < 0

    def phi_jsonable(self) -> dict:
        return {
            "phi_terms": [
                {"coeff": format_rational(c), "base": format_rational(b)}
                for c, b in self.phi.terms
            ],
            "phi_endpoints": [format_rational(self.lo_value), format_rational(self.hi_value)],
        }


def _phi_signed_value(phi: ExponentialSum, logs: list, s: float):
    """(value, sign, slope) of phi at s, value and slope as mpfs: at an
    integer the exact value, rounded once, which keeps its exact sign (an
    mpf's exponent is unbounded), and no slope; else the sum of
    t_i = c_i exp(s ln b_i) over the (c_i, ln b_i) pairs in logs, and from
    the same exps the slope phi'(s) = sum_i t_i ln b_i.  Call inside an
    mp.workdps block.

    find_exponent asks this at integer probes, at the probes its doubles
    and its expansion leave open, and for the two final endpoints where the
    expansion cannot choose between them."""
    if s.is_integer():
        v, slope = _to_mpf(phi.eval_exact(int(s))), None
    else:
        sm = mp.mpf(s)
        ts = [(c * mp.exp(sm * lb), lb) for c, lb in logs]
        v = mp.fsum(t for t, _ in ts)
        slope = mp.fsum(t * lb for t, lb in ts)
    return v, (v > 0) - (v < 0), slope


def _double_sign(doubles: list, s: float) -> int:
    """The sign of phi at s from doubles, or 0 where their error bound
    does not decide it.

    doubles holds the (float(c_i), float(ln b_i)).  Where c_i, exp(s ln b_i)
    and t_i = c_i exp(s ln b_i) are normal doubles, each t_i is within a
    relative (6 + 3 |s ln b_i|) units of 2^-53 of the exact c_i b_i^s
    (math.exp allowed two units in the last place), and fsum adds one unit
    of the sum.  So the sign of fsum(t) is phi's where |fsum(t)| exceeds
    2^-49 sum_i |t_i| (2 + |s ln b_i|), four times that error.  A term
    outside 1e-280 < |t_i| < 1e280, a subnormal c_i or exp, or an overflow
    in exp leaves the sign open."""
    ts, bound = [], 0.0
    for c, lb in doubles:
        try:
            e = math.exp(s * lb)
        except OverflowError:
            return 0
        t = c * e
        if not (min(abs(c), e) > _TINY and _TINY < abs(t) < _HUGE):
            return 0
        ts.append(t)
        bound += abs(t) * (2 + abs(s * lb))
    total = math.fsum(ts)
    return (total > 0) - (total < 0) if abs(total) > bound * 2.0**-49 else 0


def _centre(doubles: list, c: float, value, slope):
    """phi's first-order expansion about a probe c summed at 60 digits, as
    the doubles (c, p, d, q, L, err) that _expansion_sign reads, or None where
    one of them would leave the normal range.

    p and d are the 60-digit phi(c) and phi'(c) rounded to doubles.  With
    a_i = |c_i| exp(c ln b_i) under the range checks of _double_sign, so
    |c ln b_i| < 710 and each a_i is within 2136 units of 2^-53 of
    |c_i| b_i^c: q is sum_i a_i (ln b_i)^2 raised by 2^-40, L is
    max_i |ln b_i|, and err = 2^-179 sum_i a_i, far above the error of 60
    digits in phi(c) + phi'(c) (s - c) wherever L |s - c| <= 1."""
    t = q = lmax = 0.0
    for cf, lb in doubles:
        try:
            e = math.exp(c * lb)
        except OverflowError:
            return None
        a = abs(cf) * e
        if not (min(abs(cf), e) > _TINY and _TINY < a < _HUGE):
            return None
        t += a
        q += a * lb * lb
        lmax = max(lmax, abs(lb))
    p, d = float(value), float(slope)
    if not (_TINY < abs(p) < _HUGE and _TINY < abs(d) < _HUGE):
        return None
    return c, p, d, q * (1 + 2.0**-40), lmax, t * 2.0**-179


def _expansion_sign(centre: tuple, probes) -> int:
    """The sign of phi(s) summed over the probes s, from p + d (s - c) of
    the centre (_centre), or 0 where the error bound does not decide it.

    With delta = s - c and x = L |delta| <= 1 (else the sign is left open),
    Taylor's remainder is at most (1/2) delta^2 q e^x <= (1/2) delta^2 q
    (1 + 2x).  Rounding phi(c) and phi'(c) to doubles and the double
    arithmetic add at most 4 units of 2^-53 of |p| + |d delta|; the bound
    takes 8, whose slack covers summing two probes.  err covers 60 digits."""
    c, p, d, q, lmax, err = centre
    total = bound = 0.0
    for s in probes:
        delta = s - c
        x = lmax * abs(delta)
        if x > 1:
            return 0
        m = d * delta
        total += p + m
        bound += 0.5 * delta * delta * q * (1 + 2 * x) + 2.0**-50 * (abs(p) + abs(m)) + err
    return (total > 0) - (total < 0) if abs(total) > bound else 0


def find_exponent(window: PhiOnInterval) -> Fraction:
    """Bisect the sign change of phi on the window's interval down to float
    resolution; returns the double it lands on, as an exact Fraction.

    Requires phi(lo) * phi(hi) < 0 strictly.  Integer probes are evaluated
    exactly, so an exact integer root is returned exactly.  Every other
    probe takes its sign from doubles under a stated error bound, and where
    that leaves it open from 60 digits:

    1. the sum of c_i exp(s ln b_i) in doubles (_double_sign);
    2. in place of 1 where the last probe c summed at 60 digits has every
       double of its expansion in the normal range: the expansion
       phi(c) + phi'(c) (s - c) in doubles (_expansion_sign).  Its bound
       is Taylor's remainder (1/2) (s - c)^2 sum_i |c_i| (ln b_i)^2 b_i^c
       e^(|ln b_i| |s - c|) plus the rounding of phi(c) and phi'(c) to
       doubles and of the double arithmetic;
    3. MP_DPS digits (_phi_signed_value), with the c_i and ln b_i converted
       once per call: each term is then correct to about |s ln b_i| units
       in the last of 60 digits, far below the |phi| of any probe a double
       can reach.  The probe becomes the new centre c.

    Every sign is phi's, so the probes are those of a bisection at 60
    digits alone.  Among the final bracketing endpoints the one with the
    smaller |phi| wins, so the residual is as small as doubles allow.  As
    phi(lo) and phi(hi) have opposite signs, lo wins where phi(lo) + phi(hi)
    has phi(hi)'s sign or is 0: decided from the expansion where it can,
    else from both endpoints at 60 digits.
    """
    if not window.sign_change:
        raise NoSignChangeError(
            "phi({}) * phi({}) < 0 is required, strictly; "
            "no admissible sign change on this interval".format(*window.interval)
        )
    phi = window.phi
    lo, hi = (float(v) for v in window.interval)
    slo = 1 if window.lo_value > 0 else -1
    centre = None
    with mp.workdps(MP_DPS):
        logs = [(_to_mpf(c), mp.log(_to_mpf(b))) for c, b in phi.terms]
        doubles = [(float(c), float(lb)) for c, lb in logs]
        for _ in range(200):
            mid = (lo + hi) / 2
            if not (lo < mid < hi):
                break  # float resolution reached
            smid = 0 if mid.is_integer() else (
                _expansion_sign(centre, (mid,)) if centre else _double_sign(doubles, mid))
            if not smid:
                vmid, smid, slope = _phi_signed_value(phi, logs, mid)
                if smid == 0:
                    return Fraction(mid)
                if slope is not None:
                    centre = _centre(doubles, mid, vmid, slope)
            if smid == slo:
                lo = mid
            else:
                hi = mid
        total = centre and _expansion_sign(centre, (lo, hi))
        if not total:
            vlo, vhi = (_phi_signed_value(phi, logs, v)[0] for v in (lo, hi))
            return Fraction(lo if abs(vlo) <= abs(vhi) else hi)
        return Fraction(hi if total == slo else lo)


# -- the full verification ----------------------------------------------------


@dataclass
class CounterexampleReport:
    """Everything the JSON report carries, plus working details for tests."""

    stencil: Stencil
    generators: tuple
    phi_on_interval: PhiOnInterval  # the character, printed phi, interval and endpoints
    exponent: float
    checks: dict
    details: dict

    def passed(self) -> bool:
        return all(self.checks.values())

    def to_jsonable(self) -> dict:
        window = self.phi_on_interval
        return {
            "stencil": stencil_to_jsonable(self.stencil),
            "generators": list(self.generators),
            "character": list(window.character),
            "exponent_interval": list(window.interval),
            "exponent": self.exponent,
            **window.phi_jsonable(),
            "checks": dict(self.checks),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2)


def _difference(stencil: Stencil, f: GroupFunction, h: Fraction):
    """sum_k A_k f(a_k h), the stencil applied to f at 0 by the evaluator:
    _exact_apply's sum rounded once where every value is exact, else
    _mp_apply's; call inside an mp.workdps block."""
    exact = _exact_apply(stencil, f, Fraction(0), h)
    return _mp_apply(stencil, f, Fraction(0), h) if exact is None else _to_mpf(exact)


def _check_difference_vanishes(stencil: Stencil, f: GroupFunction,
                               members: list, nonmembers: list) -> tuple[bool, dict]:
    """(a): |sum_k A_k f(a_k h)| <= 1e-9 |h|^s at every member step h, and
    the sum is a literal 0 at every nonmember step.

    Each sum is the evaluator's (_difference).  For h in G the points a h
    in G are those of the nodes a on h's side of 0 with |a| in G, so the
    sum at h is the paper's identity chi(|h|) |h|^s D(sign h), with D(+-1)
    the sums at h = +-1 (D(+1) is phi(s) with its raw sign).  A member
    passes when |D(sign h)| <= 1e-9, the bound divided by |h|^s, and D is
    formed once per sign.  At an integer exponent D is exact until it is
    rounded once; else its terms are correctly rounded mp.powers, and a
    double-precision root leaves D(+1) near 1e-16 of its terms, so
    rounding never decides.  A nonmember step maps no node in G into G,
    so its sum is a literal 0 unless some other point lands in G.
    """
    with mp.workdps(MP_DPS):
        threshold = mp.mpf("1e-9")
        worst = mp.mpf(0)
        sides = {}  # sign of h -> |D(sign h)|
        for h in members:
            if membership(f.group, abs(h)) is None:
                raise CounterexampleError(f"member step {format_rational(h)} is not in the group")
            sign = 1 if h > 0 else -1
            if sign not in sides:
                sides[sign] = abs(_difference(stencil, f, Fraction(sign)))
            lhs = sides[sign]
            ratio = lhs / threshold
            worst = max(worst, ratio)
            if lhs > threshold:
                return False, {"failed_at": float(h), "ratio_to_threshold": float(ratio)}
        for h in nonmembers:
            if membership(f.group, abs(h)) is not None:
                raise CounterexampleError(f"nonmember step {format_rational(h)} is in the group")
            if _difference(stencil, f, h) != 0:
                return False, {"failed_at": float(h), "nonmember_exact_zero": False}
        return True, {"worst_member_ratio_to_threshold": float(worst),
                      "members": len(members), "nonmembers": len(nonmembers)}


def verify_counterexample(
    stencil: Stencil,
    f: GroupFunction,
    lower_order: int,
    phi_on_interval: PhiOnInterval,
    h_samples: dict | None = None,
) -> CounterexampleReport:
    """Check the three facts that make (stencil, f) a genuine separation:

    (a) the order-n difference at 0 vanishes to the phi-root tolerance at
        the member steps in G and exactly at the nonmember steps,
    (b) |f(h)| <= |h|^(lower_order + eps) at the Peano steps, so everything
        below lower_order is exactly as smooth as claimed,
    (c) f has no n-th Peano derivative at 0 (so no ordinary one either)
        exactly when s <= n: along G the quotient f(h)/h^n is +-h^(s-n),
        unbounded for s < n; at s = n it is chi(h) at every h > 0 in G and
        0 at every h < 0, so it has no limit; for s > n it tends to 0.
        The verdict is the exact comparison s <= n; f is not evaluated.

    Without h_samples the member steps and the Peano steps are the
    generator reciprocals 1/g, and there are no nonmember steps.  Any
    member h in (0, 1) would give the same verdicts: its difference is
    chi(h) phi(s) h^s, so (a) compares the same |phi(s)| with 1e-9 at
    each; and f is 0 off G and at h < 0, while |f(h)| = h^s <= h^(m + eps)
    at each member h < 1 exactly when s >= m + eps.  A nonmember step that
    no positive node maps into G has an empty sum.  h_samples, a dict of
    "members", "nonmembers" and "peano" step lists, replaces these steps;
    it must give (a) a member or nonmember step and (b) a Peano step.

    phi_on_interval is phi of f's character on the claimed interval, as the
    caller built it; the report prints it.
    """
    if phi_on_interval.character != f.character:
        raise CounterexampleError("phi_on_interval is for another character than f's")
    if isinstance(lower_order, bool) or not isinstance(lower_order, int) or lower_order < 0:
        raise CounterexampleError("lower_order must be an integer >= 0")
    if f.exponent <= lower_order:
        raise CounterexampleError("exponent must exceed lower_order")
    s_star = float(f.exponent)
    if h_samples is None:
        members = peano_set = [Fraction(1, g) for g in f.group.generators]
        nonmembers = []
    else:
        names = ("members", "nonmembers", "peano")
        if missing := [name for name in names if name not in h_samples]:
            raise CounterexampleError(f"h_samples lacks the step lists {missing}")
        members, nonmembers, peano_set = (list(h_samples[name]) for name in names)
        if not (members or nonmembers) or not peano_set:
            raise CounterexampleError("h_samples leaves a check without a step")
        for name, hs in zip(names, (members, nonmembers, peano_set)):
            if 0 in hs:
                raise CounterexampleError(f"h_samples[{name!r}] holds a zero step")

    ok_a, detail_a = _check_difference_vanishes(stencil, f, members, nonmembers)
    eps = min(0.5, (s_star - lower_order) / 2)
    if not eps > 0:  # s* - m is below what the doubles resolve
        eps = (f.exponent - lower_order) / 2
    ok_b = peano_bound_check(f, 0, lower_order, eps, peano_set)

    return CounterexampleReport(
        stencil=stencil,
        generators=f.group.generators,
        phi_on_interval=phi_on_interval,
        exponent=s_star,
        checks={
            "difference_vanishes": ok_a,
            "lower_peano_bound": ok_b,
            "nth_unbounded": f.exponent <= stencil.order,
        },
        details={"difference": detail_a, "peano_epsilon": eps,
                 "peano_samples": len(peano_set)},
    )


# -- character search ---------------------------------------------------------


def character_search(stencil: Stencil, generators, lo: int, hi: int) -> list:
    """phi on (lo, hi) for every sign character, as PhiOnInterval values;
    the admissible ones are those with a sign_change."""
    group = MultiplicativeGroup(tuple(generators))
    return [PhiOnInterval.of(stencil, group, bits, (lo, hi))
            for bits in itertools.product((0, 1), repeat=len(group.generators))]


# -- named reproductions ------------------------------------------------------


def run_case(name: str) -> CounterexampleReport:
    """Reproduce a named separation end to end: extract phi, locate the
    exponent in its pinned interval, then run all three checks."""
    if not isinstance(name, str) or name not in NAMED_CASES:
        raise CounterexampleError(f"unknown case {name!r}; named cases: {sorted(NAMED_CASES)}")
    case: NamedCase = NAMED_CASES[name]
    stencil = case.build()
    group = MultiplicativeGroup(case.generators)
    window = PhiOnInterval.of(stencil, group, case.character, case.interval, case.flip_sign)
    f = GroupFunction(group, case.character, find_exponent(window))
    return verify_counterexample(stencil, f, case.lower_order, window)


def run_search(name: str) -> dict:
    """Run a named character search; returns the report the CLI prints as
    JSON, with the count of admissible characters."""
    if not isinstance(name, str) or name not in SEARCH_CASES:
        raise CounterexampleError(f"unknown search {name!r}; searches: {sorted(SEARCH_CASES)}")
    spec = SEARCH_CASES[name]
    stencil = spec["build"]()
    hits = character_search(stencil, spec["generators"], *spec["interval"])
    return {
        "stencil": stencil_to_jsonable(stencil),
        "generators": list(spec["generators"]),
        "interval": list(spec["interval"]),
        "results": [
            {"character": list(h.character), **h.phi_jsonable(), "sign_change": h.sign_change}
            for h in hits
        ],
        "admissible": sum(1 for h in hits if h.sign_change),
    }
