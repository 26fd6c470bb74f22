"""Independent oracles for the benchmark's operations.

Nothing here imports qriemann.  Every expected value is derived from the
mathematics the library documents: a stencil of order n on n+1 distinct
nodes is the unique solution of the moment system, whose weights are the
divided-difference weights A_k = n! / prod_{j != k} (a_k - a_j); derivatives
of sin/cos/exp/polynomials have closed forms; a group-supported function's
difference at 0 collapses to chi(h) phi(s) h^s.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from mpmath import mp

# A converged derivative value must agree with the closed form to this
# relative accuracy (absolute below 1).  The library's own default tolerance
# on the final delta is 1e-8, so a correct "converged" verdict sits well
# inside this.
DERIVE_REL_TOL = 1e-6

# Digits for the direct-sum oracle of recursive_quotient (the library works
# at 60) and for the counterexample roots.
DIRECT_SUM_DPS = 110
ROOT_DPS = 80

# A printed exponent must lie within this distance of a root of phi.
# Bisection to double resolution lands within a few ulps; an exponent that
# is off the root by more than this is not a root.
ROOT_TOL = 1e-10


def frac(text) -> Fraction:
    return Fraction(str(text).strip())


# -- stencils -----------------------------------------------------------------


def expected_nodes(kind: str, n: int, q: Fraction | None = None,
                   nodes=None) -> list[Fraction]:
    """The node set each stencil kind is documented to use, ascending."""
    if kind in ("forward", "mz"):
        q = Fraction(2) if kind == "mz" else q
        pts = {Fraction(0)} | {q**i for i in range(n)}
    elif kind == "shifted":
        pts = {q**i for i in range(n + 1)}
    elif kind == "symmetric":
        m = (n + 1) // 2
        pts = {s * q**i for i in range(m) for s in (1, -1)}
        if n % 2 == 0:
            pts.add(Fraction(0))
    elif kind == "riemann":
        pts = {Fraction(k) for k in range(n + 1)}
    elif kind == "riemann-symmetric":
        pts = {Fraction(n, 2) - k for k in range(n + 1)}
    elif kind == "custom":
        pts = {Fraction(a) for a in nodes}
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return sorted(pts)


def weights(nodes, n: int) -> list[Fraction]:
    """Divided-difference weights: the unique order-n stencil on n+1 nodes."""
    pts = [Fraction(a) for a in nodes]
    if len(pts) != n + 1 or len(set(pts)) != len(pts):
        raise ValueError("need n+1 distinct nodes")
    fact = math.factorial(n)
    out = []
    for k, a in enumerate(pts):
        den = Fraction(1)
        for j, b in enumerate(pts):
            if j != k:
                den *= a - b
        out.append(fact / den)
    return out


def moment_residuals(nodes, coeffs, n: int) -> list[Fraction]:
    """sum_k A_k a_k^j minus its target (0 for j < n, n! for j = n)."""
    powers = [Fraction(1)] * len(nodes)
    out = []
    for j in range(n + 1):
        total = sum((c * p for c, p in zip(coeffs, powers)), Fraction(0))
        out.append(total - (math.factorial(n) if j == n else 0))
        powers = [p * a for p, a in zip(powers, nodes)]
    return out


def check_stencil(nodes, coeffs, n: int, expect_nodes) -> str | None:
    """None when (nodes, coeffs) is the order-n stencil on expect_nodes."""
    nodes = [Fraction(a) for a in nodes]
    coeffs = [Fraction(c) for c in coeffs]
    if len(nodes) != len(coeffs):
        return "node and coefficient counts differ"
    if nodes != sorted(nodes):
        return "nodes not ascending"
    if nodes != list(expect_nodes):
        return "wrong node set"
    if any(c == 0 for c in coeffs):
        return "zero coefficient printed"
    bad = [j for j, r in enumerate(moment_residuals(nodes, coeffs, n)) if r != 0]
    if bad:
        return f"moment condition j={bad[0]} violated"
    return None


def parse_stencil_output(text: str, output: str):
    """(order or None, nodes, coeffs, extra) from the CLI's json/csv/text form."""
    if output == "json":
        obj = json.loads(text)
        return (obj["order"], [frac(a) for a in obj["nodes"]],
                [frac(c) for c in obj["coeffs"]], obj)
    lines = text.strip().splitlines()
    if output == "csv":
        if lines[0] != "node,coeff":
            raise ValueError("bad csv header")
        pairs = [line.split(",") for line in lines[1:]]
        return None, [frac(a) for a, _ in pairs], [frac(c) for _, c in pairs], {}
    head = lines[0].split()
    nodes, coeffs = [], []
    for line in lines[1:-1]:
        left, right = line.split("A =")
        nodes.append(frac(left.replace("a =", "")))
        coeffs.append(frac(right))
    return int(head[1]), nodes, coeffs, {"moment_line": lines[-1]}


def suite_check_count(name: str, p: dict) -> int:
    """Checks each suite runs, counted by hand from its loop bounds."""
    max_n = p.get("max_n")
    if name == "pascal":
        return max_n * (max_n - 1) // 2
    if name == "qbinomial-consistency":
        cc = p["cross_check_n"]
        return (max_n + 1) * (max_n + 2) + (cc + 1) * (cc + 2) // 2
    if name == "qbinomial-product":
        return p["count"]
    if name == "qbinomial-specialized":
        return p["q_count"] * (max_n * (max_n + 1) // 2 + 2 * max_n)
    if name == "qbinomial-squared":
        return p["q_count"] * 2 * p["max_m"]
    grid = len(p["q_grid"])
    if name == "closed-vs-solver":
        return 3 * max_n * grid * 2
    if name == "recursion":
        return 3 * max_n * grid + max_n
    if name == "scaling":
        return 3 * max_n * grid + 2 * p["random_count"] + 3
    raise ValueError(f"unknown suite {name!r}")


# -- derivatives ----------------------------------------------------------------


def parse_function(text: str):
    """('sin'|'cos'|'exp'|'abs', None) | ('signpow', N) | ('poly', coeffs)."""
    if text.startswith("poly:"):
        return "poly", [frac(c) for c in text[5:].split(",")]
    if text.startswith("signpow"):
        return "signpow", int(text[7:])
    return text, None


def eval_exact(fn, x: Fraction):
    """Exact value for the functions that have one, else None."""
    name, arg = fn
    if name == "poly":
        acc = Fraction(0)
        for c in reversed(arg):
            acc = acc * x + c
        return acc
    if name == "abs":
        return abs(x)
    if name == "signpow":
        return x**arg * ((x > 0) - (x < 0))
    return None


def eval_mp(fn, x: Fraction):
    v = eval_exact(fn, x)
    if v is not None:
        return mp.mpf(v.numerator) / v.denominator
    xm = mp.mpf(x.numerator) / x.denominator
    return {"sin": mp.sin, "cos": mp.cos, "exp": mp.exp}[fn[0]](xm)


def derivative_limit(fn, n: int, x: Fraction, nodes, coeffs):
    """The limit of the two-sided order-n quotient at x, as (exists, value)
    with value a Fraction when it is exact, else an mpf.

    Smooth points use the closed-form n-th derivative.  abs and signpowN at
    0 are homogeneous: f(a h) = g(a) * k(h), so the quotient is
    S * k(h) / h^n with S = sum_k A_k g(a_k), and the limit is decided from
    the exact S and the power of h that remains.
    """
    name, arg = fn
    if name == "poly":
        total = Fraction(0)
        for i, c in enumerate(arg):
            if i >= n:
                total += c * math.perm(i, n) * x ** (i - n)
        return True, total
    if name in ("sin", "cos", "exp"):
        xm = mp.mpf(x.numerator) / x.denominator
        if name == "exp":
            return True, mp.exp(xm)
        shifted = xm + n * mp.pi / 2
        return True, (mp.sin(shifted) if name == "sin" else mp.cos(shifted))
    if x != 0:
        # locally sgn(x) * x^p (signpow) or sgn(x) * x (abs): a monomial
        p = 1 if name == "abs" else arg
        sgn = 1 if x > 0 else -1
        return True, sgn * math.perm(p, n) * x ** (p - n) if n <= p else Fraction(0)
    if name == "abs":
        s_sum = sum((c * abs(a) for a, c in zip(nodes, coeffs)), Fraction(0))
        excess, sign_flips = 1 - n, n % 2 == 1  # |h| / h^n = |h|^(1-n) sgn(h)^n
    else:
        s_sum = sum((c * a**arg * ((a > 0) - (a < 0)) for a, c in zip(nodes, coeffs)), Fraction(0))
        excess, sign_flips = arg - n, True  # h^p sgn(h) / h^n = h^(p-n) sgn(h)
    if s_sum == 0 or excess > 0:
        return True, Fraction(0)
    if excess < 0:
        return False, None
    # excess == 0: S sgn(h) or S sgn(h)^n, a limit only when the sign never flips
    return (False, None) if sign_flips else (True, s_sum)


def parse_verdict(text: str, output: str):
    """(verdict, value or None, rows) from a derive table in any output form."""
    if output == "json":
        obj = json.loads(text)
        return obj["verdict"], obj.get("value"), len(obj["rows"])
    lines = text.strip().splitlines()
    last = lines[-1]
    if not last.startswith("# verdict: "):
        raise ValueError("no verdict line")
    words = last[len("# verdict: "):].split()
    value = None
    for w in words[1:]:
        if w.startswith("value="):
            value = float(w[len("value="):])
    rows = len(lines) - (2 if output == "csv" else 1)
    return words[0], value, rows


def value_matches(value: float, expect, exact_equal: bool) -> bool:
    if exact_equal:
        return value == float(expect)
    e = float(expect)
    return abs(value - e) <= DERIVE_REL_TOL * max(1.0, abs(e))


def direct_quotient(fn, nodes, coeffs, n: int, x: Fraction, h: Fraction):
    """sum_k A_k f(x + a_k h) / h^n: exact Fraction when f has an exact form,
    else an mpf at DIRECT_SUM_DPS digits, together with its magnitude scale
    sum_k |A_k f(x + a_k h)| / |h|^n."""
    vals = [eval_exact(fn, x + a * h) for a in nodes]
    if all(v is not None for v in vals):
        return sum((c * v for c, v in zip(coeffs, vals)), Fraction(0)) / h**n, None
    with mp.workdps(DIRECT_SUM_DPS):
        terms = [mp.mpf(c.numerator) / c.denominator * eval_mp(fn, x + a * h)
                 for a, c in zip(nodes, coeffs)]
        hn = (mp.mpf(h.numerator) / h.denominator) ** n
        return mp.fsum(terms) / hn, mp.fsum(abs(t) for t in terms) / abs(hn)


def quotient_matches(got, expect, scale) -> bool:
    """Exact results must be equal; a float from the 60-digit path must be
    the correctly rounded value up to the cancellation the 60 digits allow."""
    if scale is None:
        return isinstance(got, Fraction) and got == expect
    if isinstance(got, Fraction):
        return False
    with mp.workdps(DIRECT_SUM_DPS):
        if abs(expect) > mp.mpf(2) ** 1024 * (1 - mp.mpf(2) ** -54):
            return got == (math.inf if expect > 0 else -math.inf)  # overflows a double
        err = abs(mp.mpf(got) - expect)
        return err <= mp.mpf("4e-16") * abs(expect) + mp.mpf("1e-50") * scale


# -- counterexamples -------------------------------------------------------------


def exponent_vector(generators, x: Fraction):
    """Exponents of x over the primes, or None when x is not a product of them."""
    num, den = x.numerator, x.denominator
    out = []
    for g in generators:
        e = 0
        while num % g == 0:
            num //= g
            e += 1
        while den % g == 0:
            den //= g
            e -= 1
        out.append(e)
    return tuple(out) if num == 1 and den == 1 else None


def raw_phi(nodes, coeffs, generators, character) -> list[tuple[Fraction, Fraction]]:
    """Terms (chi(a) A, a) of phi(s) = sum chi(a_k) A_k a_k^s over the
    positive nodes inside the group."""
    terms = []
    for a, c in zip(nodes, coeffs):
        if a <= 0:
            continue
        e = exponent_vector(generators, a)
        if e is None:
            continue
        chi = -1 if sum(b * v for b, v in zip(character, e)) % 2 else 1
        terms.append((chi * c, a))
    return terms


def phi_exact(terms, s: int) -> Fraction:
    return sum((c * b**s for c, b in terms), Fraction(0))


def phi_mp(terms, s):
    return mp.fsum(mp.mpf(c.numerator) / c.denominator * mp.power(mp.mpf(b.numerator) / b.denominator, s)
                   for c, b in terms)


def sign_change(terms, lo: int, hi: int) -> bool:
    return phi_exact(terms, lo) * phi_exact(terms, hi) < 0


def roots_in(terms, lo: int, hi: int, cells: int = 128) -> list:
    """Roots of phi inside (lo, hi): sign changes on a grid, each refined by
    bisection at ROOT_DPS digits."""
    out = []
    with mp.workdps(ROOT_DPS):
        grid = [mp.mpf(lo) + (mp.mpf(hi) - lo) * i / cells for i in range(cells + 1)]
        vals = [phi_mp(terms, s) for s in grid]
        for i in range(cells):
            a, b, va, vb = grid[i], grid[i + 1], vals[i], vals[i + 1]
            if va == 0:
                out.append(a)
                continue
            if va * vb > 0:
                continue
            for _ in range(120):
                mid = (a + b) / 2
                vm = phi_mp(terms, mid)
                if vm == 0:
                    a = b = mid
                    break
                if (vm > 0) == (va > 0):
                    a, va = mid, vm
                else:
                    b = mid
            out.append((a + b) / 2)
    return out


def is_root(terms, s: float, lo: int, hi: int) -> bool:
    """s lies in (lo, hi) within ROOT_TOL of a root of phi: either a root the
    grid scan finds, or a sign change of phi across [s - tol, s + tol]."""
    if not lo < s < hi:
        return False
    tol = ROOT_TOL * max(1.0, abs(s))
    if any(abs(float(r) - s) <= tol for r in roots_in(terms, lo, hi)):
        return True
    with mp.workdps(ROOT_DPS):
        a, b = phi_mp(terms, mp.mpf(s) - tol), phi_mp(terms, mp.mpf(s) + tol)
        return a == 0 or b == 0 or (a > 0) != (b > 0)


def residual_ratio(terms, s: float):
    """|phi(s)| / 1e-9: the library's vanishing check compares
    |sum_k A_k f(a_k h)| = |phi(s)| h^s with 1e-9 h^s on group steps h."""
    with mp.workdps(ROOT_DPS):
        return float(abs(phi_mp(terms, mp.mpf(s))) / mp.mpf("1e-9"))
