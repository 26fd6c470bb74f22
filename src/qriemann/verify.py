"""Randomized exact-identity suites.

Every check below is an equality of rationals or of integer-coefficient
polynomials, so a failure is a real defect, never numerical noise.  Random
inputs come from a seeded generator; the same seed reproduces the same
report byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm, prod

from .qcore import (
    pascal_check,
    q_binomial,
    q_binomial_by_factorials,
    qbinomial_expand,
)
from .stencil import (
    GAUSSIAN_BUILDERS,
    gaussian_forward,
    gaussian_shifted,
    gaussian_symmetric,
    recursive_build,
    riemann_classic,
    riemann_symmetric,
    same_difference,
    scale,
    vandermonde_solve,
    verify_vandermonde,
)

DEFAULT_SEED = 1729

# negative and non-integer ratios stress the sign/power bookkeeping
DEFAULT_Q_GRID = (
    Fraction(2),
    Fraction(3),
    Fraction(5),
    Fraction(1, 2),
    Fraction(-2),
    Fraction(5, 3),
    Fraction(-7, 4),
)

SCALING_Q_GRID = (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(-2))


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, message: str = ""):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    @property
    def total(self) -> int:
        return self.passed + self.failed

    def summary(self) -> str:
        if self.ok:
            return f"{self.name}: ok ({self.total} checks)"
        head = f"{self.name}: FAILED ({self.failed} of {self.total} checks)"
        return head + "".join(f"\n  - {m}" for m in self.failures)


def _random_rational(rng: random.Random, max_abs: int = 50, nonzero: bool = False,
                     exclude: tuple = ()) -> Fraction:
    while True:
        v = Fraction(rng.randint(-max_abs, max_abs), rng.randint(1, max_abs))
        if nonzero and v == 0:
            continue
        if v in exclude:
            continue
        return v


def _random_q(rng: random.Random, max_abs: int = 50) -> Fraction:
    return _random_rational(rng, max_abs, nonzero=True, exclude=(Fraction(1), Fraction(-1)))


# -- q-identity suites --------------------------------------------------------


def pascal_suite(max_n: int = 20) -> SuiteResult:
    res = SuiteResult("pascal")
    for n in range(2, max_n + 1):
        for k in range(1, n):
            res.check(pascal_check(n, k), f"pascal identity fails at n={n}, k={k}")
    return res


def qbinomial_consistency_suite(max_n: int = 20, cross_check_n: int = 12) -> SuiteResult:
    """Palindromy, classical values at q=1, and the factorial-quotient route."""
    res = SuiteResult("qbinomial-consistency")
    for n in range(0, max_n + 1):
        for k in range(0, n + 1):
            res.check(
                q_binomial(n, k) == q_binomial(n, n - k),
                f"[{n} {k}] != [{n} {n - k}]",
            )
            res.check(
                q_binomial(n, k)(1) == comb(n, k),
                f"[{n} {k}] at q=1 != C({n},{k})",
            )
    for n in range(0, cross_check_n + 1):
        for k in range(0, n + 1):
            try:
                same = q_binomial(n, k) == q_binomial_by_factorials(n, k)
            except ValueError:  # a remainder: the factorials themselves are wrong
                same = False
            res.check(same, f"Pascal route != factorial route at n={n}, k={k}")
    return res


def _product_side(n: int, a: Fraction, b: Fraction, q: Fraction) -> Fraction:
    """(a-b)(a-bq)...(a-bq^(n-1)) as one integer product: at a = p/s,
    b = r/t and q = u/v the j-th factor is (p t v^j - r s u^j) / (s t v^j).
    With r for q it is also the product side of _qbinomial_terms' theorem."""
    p, s, r, t = a.numerator, a.denominator, b.numerator, b.denominator
    u, v = q.numerator, q.denominator
    return Fraction(prod(p * t * v**j - r * s * u**j for j in range(n)),
                    (s * t) ** n * v ** comb(n, 2))


def _expanded_terms(coeffs: list[tuple[int, int]], b: Fraction) -> tuple[int, list[int]]:
    """The terms t_k = c_k b^k of sum_k c_k b^k a^(N-k), k = 0..N, as
    (D, [T_k]) with t_k = T_k / D over one common denominator.  Each c_k
    comes as an integer pair (C_k, E_k) with c_k = C_k / E_k, not
    necessarily in lowest terms; at b = r/t, D = lcm(E_k) t^N and
    T_k = C_k (lcm(E_k) / E_k) r^k t^(N-k)."""
    r, t, n = b.numerator, b.denominator, len(coeffs) - 1
    d = lcm(*(e for _, e in coeffs))
    return d * t**n, [c * (d // e) * r**k * t ** (n - k) for k, (c, e) in enumerate(coeffs)]


def _qbinomial_sum(terms: tuple[int, list[int]], a: Fraction) -> Fraction:
    """The expanded side, sum_k t_k a^(N-k), by Horner on integers: at
    a = p/s the sum is (sum_k T_k p^(N-k) s^k) / (D s^N)."""
    d, ts = terms
    p, s = a.numerator, a.denominator
    acc, sk = 0, 1
    for t in ts:
        acc = acc * p + t * sk
        sk *= s
    return Fraction(acc * s, d * sk)


def qbinomial_product_suite(count: int = 100, seed: int = DEFAULT_SEED,
                            max_n: int = 12) -> SuiteResult:
    """(a-b)(a-bq)...(a-bq^(n-1)) against qbinomial_expand(n) at random
    rationals; the powers of a and b in term k must be a^(n-k) b^k.  Each
    expansion is formed once, before the checks that evaluate it."""
    res = SuiteResult("qbinomial-product")
    rng = random.Random(seed)
    expansions = {n: qbinomial_expand(n) for n in {i % max_n + 1 for i in range(count)}}
    for i in range(count):
        n = (i % max_n) + 1
        a = _random_rational(rng)
        b = _random_rational(rng)
        q = _random_q(rng)
        expansion = [(coeff(q), pa, pb) for coeff, pa, pb in expansions[n]]
        terms = _expanded_terms([(c.numerator, c.denominator) for c, _, _ in expansion], b)
        res.check([(pa, pb) for _, pa, pb in expansion] == [(n - k, k) for k in range(n + 1)]
                  and _qbinomial_sum(terms, a) == _product_side(n, a, b, q),
                  f"product expansion fails at n={n}, a={a}, b={b}, q={q}")
    return res


def _qbinomial_terms(N: int, b: Fraction, r: Fraction) -> tuple[int, list[int]]:
    """t_0..t_N of the q-binomial theorem

        prod_{i<N} (a - b r^i) = sum_k t_k a^(N-k),  t_k = r^C(k,2) [N k]_r (-b)^k

    (Kac & Cheung, *Quantum Calculus*, 2002, ch. 5), as _expanded_terms
    gives them.  [N k]_r is qcore's polynomial evaluated at r, independent
    of the stencil builders; at r = u/v, c_k = r^C(k,2) [N k]_r is the
    integer pair (u^C(k,2) C, v^C(k,2) E) for the Fraction [N k]_r = C/E."""
    u, v = r.numerator, r.denominator
    cs = [(q_binomial(N, k)(r), comb(k, 2)) for k in range(N + 1)]
    return _expanded_terms([(u**e * c.numerator, v**e * c.denominator) for c, e in cs], -b)


def qbinomial_specialized_suite(q_count: int = 20, seed: int = DEFAULT_SEED,
                                max_n: int = 12) -> SuiteResult:
    """The q-binomial theorem with b = r = q and N = n-1: at a
    random a, at a = 1, at a = q^j (0 < j < n, the vanishing moments) and at
    a = q^n (the top moment)."""
    res = SuiteResult("qbinomial-specialized")
    rng = random.Random(seed)
    for _ in range(q_count):
        q = _random_q(rng)
        for n in range(1, max_n + 1):
            a = _random_rational(rng)
            terms = _qbinomial_terms(n - 1, q, q)
            res.check(_qbinomial_sum(terms, a) == _product_side(n - 1, a, q, q),
                      f"monic collapse fails at n={n}, a={a}, q={q}")
            res.check(_qbinomial_sum(terms, 1) == _product_side(n - 1, 1, q, q),
                      f"a=1 collapse fails at n={n}, q={q}")
            for j in range(1, n):
                res.check(_qbinomial_sum(terms, q**j) == 0,
                          f"vanishing moment j={j} fails at n={n}, q={q}")
            res.check(_qbinomial_sum(terms, q**n) == _product_side(n - 1, q**n, q, q),
                      f"top moment fails at n={n}, q={q}")
    return res


def qbinomial_squared_suite(q_count: int = 20, seed: int = DEFAULT_SEED,
                            max_m: int = 12) -> SuiteResult:
    """The q-binomial theorem in the squared ratio r = q^2 with N = m-1:
    b = q^2 for the even powers, b = q for the odd ones."""
    res = SuiteResult("qbinomial-squared")
    rng = random.Random(seed)
    for _ in range(q_count):
        q = _random_q(rng)
        r = q**2
        for m in range(1, max_m + 1):
            a = _random_rational(rng)
            for b, label in ((r, "even"), (q, "odd")):
                terms = _qbinomial_terms(m - 1, b, r)
                res.check(_qbinomial_sum(terms, a) == _product_side(m - 1, a, b, r),
                          f"{label}-power collapse fails at m={m}, a={a}, q={q}")
    return res


# -- stencil suites -----------------------------------------------------------


def _gaussian_builders() -> dict:
    """GAUSSIAN_BUILDERS' families, in its order, each with its builder as
    this module names it at call time, so a builder patched in here (an
    injected fault, a tracer) is the one the suites run."""
    return dict(zip(GAUSSIAN_BUILDERS, (gaussian_forward, gaussian_shifted, gaussian_symmetric)))


def closed_vs_solver_suite(max_n: int = 10, q_grid=DEFAULT_Q_GRID) -> SuiteResult:
    """Closed-form stencils must match the exact moment solve on their nodes."""
    res = SuiteResult("closed-vs-solver")
    for family, build in _gaussian_builders().items():
        for n in range(1, max_n + 1):
            for q in q_grid:
                s = build(n, q)
                solved = vandermonde_solve(s.nodes, n)
                res.check(
                    same_difference(s, solved),
                    f"{family} closed form != solver at n={n}, q={q}",
                )
                res.check(
                    all(r == 0 for _, r in verify_vandermonde(s)),
                    f"{family} moment residual nonzero at n={n}, q={q}",
                )
    return res


def recursion_suite(max_n: int = 10, q_grid=DEFAULT_Q_GRID) -> SuiteResult:
    """The order-raising recursion must reproduce the closed forms exactly,
    and the q=2 forward family must sit on the doubling nodes {0,1,2,4,...}."""
    res = SuiteResult("recursion")
    for family, build in _gaussian_builders().items():
        for n in range(1, max_n + 1):
            for q in q_grid:
                rec = recursive_build(family, n, q)
                res.check(
                    rec == build(n, q),
                    f"recursion != closed form for {family} at n={n}, q={q}",
                )
    for n in range(1, max_n + 1):
        expect = tuple(sorted({Fraction(0)} | {Fraction(2) ** i for i in range(n)}))
        res.check(
            gaussian_forward(n, 2).nodes == expect,
            f"doubling nodes wrong at n={n}",
        )
    return res


def scaling_suite(max_n: int = 8, q_grid=SCALING_Q_GRID, seed: int = DEFAULT_SEED,
                  random_count: int = 50) -> SuiteResult:
    """Scaling behavior: the q <-> 1/q reflection per family, scale-invariance
    of the moment conditions, and the classical coincidences at low order."""
    res = SuiteResult("scaling")
    builders = _gaussian_builders()
    for n in range(1, max_n + 1):
        top = {"forward": n - 1, "shifted": n, "symmetric": (n + 1) // 2 - 1}  # N of the node q^N
        for q in q_grid:
            for family, build in builders.items():
                res.check(same_difference(scale(build(n, 1 / q), q ** top[family]), build(n, q)),
                          f"{family} reflection fails at n={n}, q={q}")

    rng = random.Random(seed)
    builders = tuple(builders.values())
    for _ in range(random_count):
        build = rng.choice(builders)
        n = rng.randint(1, 6)
        q = rng.choice(DEFAULT_Q_GRID)
        r = _random_rational(rng, 20, nonzero=True)
        b = build(n, q)
        s = scale(b, r)
        res.check(
            all(v == 0 for _, v in verify_vandermonde(s)),
            f"scaled stencil loses moments: n={n}, q={q}, r={r}",
        )
        res.check(
            scale(s, 1 / r) == b,
            f"scale round-trip fails: n={n}, q={q}, r={r}",
        )

    res.check(
        same_difference(gaussian_symmetric(3, 3), scale(riemann_symmetric(3), 2)),
        "order-3 classical coincidence fails",
    )
    res.check(
        same_difference(gaussian_symmetric(4, 2), riemann_symmetric(4)),
        "order-4 classical coincidence fails",
    )
    res.check(
        same_difference(scale(riemann_classic(1), 1), gaussian_forward(1, 2)),
        "order-1 forward/classical coincidence fails",
    )
    return res


def run_all(max_n: int = 10, seed: int = DEFAULT_SEED, q_grid=DEFAULT_Q_GRID) -> list:
    """Run every suite; max_n caps the stencil grids (the q-identity suites
    keep their own documented depths)."""
    if not isinstance(max_n, int) or not 1 <= max_n <= 12:
        raise ValueError("max_n must be an integer in 1..12")
    return [
        pascal_suite(),
        qbinomial_consistency_suite(),
        qbinomial_product_suite(seed=seed),
        qbinomial_specialized_suite(seed=seed),
        qbinomial_squared_suite(seed=seed),
        closed_vs_solver_suite(max_n=max_n, q_grid=q_grid),
        recursion_suite(max_n=max_n, q_grid=q_grid),
        scaling_suite(max_n=min(max_n, 8), seed=seed),
    ]
