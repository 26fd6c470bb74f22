"""Applying stencils to functions and estimating derivatives.

A function is any object with eval_exact(x), the exact Fraction value at a
rational x or None when there is no exact path, and eval_mp(x), its mpmath
value: FunctionHandle for the builtins and polynomials, and
counterexample.GroupFunction for the group-supported functions.  Every
argument is reduced to an exact rational before evaluation.  Functions with
an exact path (polynomials, abs, signed powers, group-supported functions at
integer exponents, and any function off its support) are combined in pure
Fraction arithmetic, so cancellation identities come out exactly zero.
Transcendental values go through mpmath at 60 significant digits before being
rounded to float once, at the very end; plain double precision would drown the
small-h difference quotients the convergence tables are built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp

from .stencil import GAUSSIAN_FAMILIES, Stencil, _validate_q, recursive_build

MP_DPS = 60

_MP_FUNCTIONS = {"sin": mp.sin, "cos": mp.cos, "exp": mp.exp}

BUILTIN_NAMES = (*_MP_FUNCTIONS, "abs", "signpow")


class EvaluatorError(ValueError):
    """Invalid argument while evaluating a difference."""


def _to_mpf(x: Fraction):
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


class FunctionHandle:
    """A function the CLI can name: a builtin (sin, cos, exp, abs, or the
    signed power signpow(n): x -> x^n * sgn x) or an exact
    rational-coefficient polynomial."""

    __slots__ = ("name", "power", "coeffs")

    def __init__(self, name=None, power=None, coeffs=None):
        self.name = name
        self.power = power
        self.coeffs = coeffs

    @classmethod
    def builtin(cls, name: str, power: int | None = None) -> "FunctionHandle":
        # accept "signpow3" as shorthand for ("signpow", 3)
        if name.startswith("signpow") and name != "signpow":
            tail = name[len("signpow"):]
            if not tail.isdigit():
                raise EvaluatorError(f"bad signed-power name {name!r}; use signpowN with N >= 1")
            name, power = "signpow", int(tail)
        if name not in BUILTIN_NAMES:
            raise EvaluatorError(f"unknown builtin {name!r}; expected one of {BUILTIN_NAMES}")
        if name == "signpow":
            if not isinstance(power, int) or power < 1:
                raise EvaluatorError("signpow requires an integer power >= 1")
        elif power is not None:
            raise EvaluatorError(f"builtin {name!r} takes no power")
        return cls(name=name, power=power)

    @classmethod
    def rational_polynomial(cls, coeffs) -> "FunctionHandle":
        cs = tuple(Fraction(c) for c in coeffs)
        if not cs:
            raise EvaluatorError("polynomial needs at least one coefficient")
        return cls(coeffs=cs)

    # -- evaluation ----------------------------------------------------

    def eval_exact(self, x: Fraction):
        """Exact value at a rational point, or None when no exact path exists."""
        if self.coeffs is not None:
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        if self.name == "abs":
            return abs(x)
        if self.name == "signpow":
            sgn = (x > 0) - (x < 0)
            return x**self.power * sgn
        return None  # sin, cos, exp

    def eval_mp(self, x: Fraction):
        """mpmath value at a rational point; call inside an mp.workdps block."""
        exact = self.eval_exact(x)
        if exact is not None:
            return _to_mpf(exact)
        return _MP_FUNCTIONS[self.name](_to_mpf(x))


# -- applying a stencil -------------------------------------------------------


def _exact_apply(s: Stencil, f: FunctionHandle, x: Fraction, h: Fraction):
    """Exact Fraction value of the difference, or None if any term is inexact."""
    total = Fraction(0)
    for a, c in zip(s.nodes, s.coeffs):
        v = f.eval_exact(x + a * h)
        if v is None:
            return None
        total += c * v
    return total


def _mp_apply(s: Stencil, f: FunctionHandle, x: Fraction, h: Fraction):
    return mp.fsum(_to_mpf(c) * f.eval_mp(x + a * h) for a, c in zip(s.nodes, s.coeffs))


def _apply(s: Stencil, f: FunctionHandle, x, h, power: int):
    """sum_k A_k f(x + a_k h) / h^power: exact Fraction when possible, else
    computed at MP_DPS digits and rounded to float once, after the division."""
    x, h = Fraction(x), Fraction(h)
    if h == 0:
        raise EvaluatorError("step h must be nonzero")
    exact = _exact_apply(s, f, x, h)
    if exact is not None:
        return exact / h**power
    with mp.workdps(MP_DPS):
        return float(_mp_apply(s, f, x, h) / _to_mpf(h) ** power)


def apply_difference(s: Stencil, f: FunctionHandle, x, h):
    """sum_k A_k f(x + a_k h); exact Fraction when possible, else float."""
    return _apply(s, f, x, h, 0)


def difference_quotient(s: Stencil, f: FunctionHandle, x, h):
    """The difference divided by h^order; exact Fraction when possible."""
    return _apply(s, f, x, h, s.order)


# -- recursive quotients ------------------------------------------------------


def recursive_quotient(family: str, n: int, q, f: FunctionHandle, x, h):
    """Order-n quotient of the stencil built by the order-raising recursion.

    stencil.recursive_build, the one implementation of the recursion, builds
    the stencil and difference_quotient applies it: an exact Fraction when
    every value is exact, else a float from MP_DPS digits.  The stencil
    equals the family's closed form exactly, and so does the quotient.
    """
    q = _validate_q(q)
    if not isinstance(n, int) or n < 1:
        raise EvaluatorError("order must be an integer >= 1")
    x, h = Fraction(x), Fraction(h)
    if h == 0:
        raise EvaluatorError("step h must be nonzero")
    if family not in GAUSSIAN_FAMILIES:
        raise EvaluatorError(f"unknown recursion family {family!r}")
    return difference_quotient(recursive_build(family, n, q), f, x, h)


# -- convergence tables -------------------------------------------------------


@dataclass
class ConvergenceTable:
    """Rows of (h, quotient, delta_from_previous) plus a final verdict.

    Quotients are kept as produced (exact Fraction or float); CSV output
    renders them as floats.  delta is None on the first row.
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
            "rows": [
                {"h": float(h), "quotient": float(qt), "delta": None if d is None else float(d)}
                for h, qt, d in self.rows
            ],
            "verdict": self.verdict,
        }
        if self.verdict == "converged":
            obj["value"] = self.value
            obj["est_error"] = self.est_error
        if self.verdict == "oscillating":
            obj["pos_estimate"] = self.pos_estimate
            obj["neg_estimate"] = self.neg_estimate
        return obj


def _shrinks(prev: float, cur: float) -> bool:
    # a delta of exactly 0 always counts as a shrink
    if cur == 0:
        return True
    return 1.5 * cur <= prev


def estimate_derivative(
    s: Stencil,
    f: FunctionHandle,
    x,
    h0=Fraction(1, 10),
    ratio=Fraction(1, 2),
    steps: int = 20,
    two_sided: bool = True,
    tol: float | None = None,
) -> ConvergenceTable:
    """Quotient table along h_i = h0 * ratio^i (sign alternating when
    two_sided) with a converged / diverged / oscillating verdict.

    converged: the last three deltas each shrink by at least 1.5x (exact
    zeros count) and the final delta is below tol (finite and > 0; default
    1e-8 scaled by max(1, |quotient|)).  diverged: the magnitudes grow
    without bound -- either past 1e12 outright, or monotone growth (last
    five ratios >= 1.2) spanning three decades.  Anything else is oscillating, reported with the
    last quotients seen on each side of 0.

    For orders >= 3 rows with |h| < 1e-8 are dropped: beyond that point the
    quotient digits carry no information at any reasonable precision.
    """
    h0 = Fraction(h0)
    ratio = Fraction(ratio)
    if h0 == 0:
        raise EvaluatorError("h0 must be nonzero")
    if not (0 < ratio < 1):
        raise EvaluatorError("ratio must lie strictly between 0 and 1")
    if not isinstance(steps, int) or not 2 <= steps <= 60:
        raise EvaluatorError("steps must be an integer in 2..60")
    if tol is not None and not 0 < tol < float("inf"):
        raise EvaluatorError("tol must be a finite number > 0")

    table = ConvergenceTable(order=s.order)
    prev_q = None
    for i in range(steps):
        h = h0 * ratio**i
        if s.order >= 3 and abs(h) < Fraction(1, 10**8):
            break
        if two_sided and i % 2 == 1:
            h = -h
        qt = difference_quotient(s, f, x, h)
        delta = None if prev_q is None else abs(float(qt) - float(prev_q))
        table.rows.append((h, qt, delta))
        prev_q = qt
    if len(table.rows) < 2:
        raise EvaluatorError("fewer than two usable rows; raise h0 or lower the order")

    quotients = [float(qt) for _, qt, _ in table.rows]
    deltas = [d for _, _, d in table.rows if d is not None]
    last_q = quotients[-1]

    tol_eff = tol if tol is not None else 1e-8 * max(1.0, abs(last_q))
    if (
        len(deltas) >= 3
        and _shrinks(deltas[-3], deltas[-2])
        and _shrinks(deltas[-2], deltas[-1])
        and deltas[-1] < tol_eff
    ):
        table.verdict = "converged"
        table.value = last_q
        table.est_error = deltas[-1]
        return table

    mags = [abs(v) for v in quotients]
    nonzero = [m for m in mags if m > 0]
    growing = (
        len(mags) >= 6
        and all(mags[-j] >= 1.2 * mags[-j - 1] for j in range(1, 6))
        and nonzero
        and mags[-1] >= 1e3 * min(nonzero)
    )
    if mags[-1] > 1e12 or growing:
        table.verdict = "diverged"
        return table

    table.verdict = "oscillating"
    for h, qt, _ in table.rows:
        if h > 0:
            table.pos_estimate = float(qt)
        else:
            table.neg_estimate = float(qt)
    return table


def peano_bound_check(f: FunctionHandle, x, m: int, epsilon_exponent: float, h_set) -> bool:
    """True iff |f(x+h)| <= |h|^(m + epsilon_exponent) for every sampled h.

    Establishes m-th order smallness at x (all lower difference quotients
    vanish in the limit) without computing any quotient.
    """
    if not isinstance(m, int) or m < 0:
        raise EvaluatorError("m must be an integer >= 0")
    if not h_set:
        raise EvaluatorError("h_set must be nonempty")
    x = Fraction(x)
    expo = m + epsilon_exponent
    with mp.workdps(MP_DPS):
        for h in h_set:
            h = Fraction(h)
            if h == 0:
                raise EvaluatorError("h samples must be nonzero")
            lhs = abs(f.eval_mp(x + h))
            rhs = mp.power(abs(_to_mpf(h)), expo)
            if lhs > rhs:
                return False
    return True
