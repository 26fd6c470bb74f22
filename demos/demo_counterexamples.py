#!/usr/bin/env python3
"""The counterexample machinery, end to end.

A function supported on the multiplicative group generated by a few primes,
twisted by a sign character and a power h^s, turns an n-th difference at 0
into chi(h) * phi(s) * h^s where phi is a small exponential sum read off the
stencil.  Choosing s at a root of phi makes every difference vanish while
the function still fails to be n-times differentiable at 0 -- each packaged
case verifies exactly that, with three machine checks:

  difference_vanishes   at the steps h = 1/g: |difference| <= 1e-9 * h^s
                        (exactly 0 at integer s)
  lower_peano_bound     |f(h)| <= |h|^(m+eps) for the lower order m
  nth_unbounded         s* <= n: f(h)/h^n = +-h^(s-n) on G is unbounded
                        below n, and at s* = n it is chi(h) on G and 0 at
                        h < 0, so the quotient has no limit either way

The final section enumerates all 8 characters over <3,5,7> for the 9th-order
symmetric stencil and shows none of them produces an endpoint sign change --
the same construction cannot be pushed to n=9.

Run:  python3 demos/demo_counterexamples.py
"""

from qriemann import run_case, run_search
from qriemann.counterexample import NAMED_CASES


def describe(report):
    window = report.phi_on_interval
    terms = " ".join(
        f"{'+' if c > 0 else '-'}{abs(c)}*{b}^s" for c, b in window.phi.terms
    )
    lo, hi = window.interval
    lo_v, hi_v = window.lo_value, window.hi_value
    print(f"  phi(s) = {terms}")
    print(f"  endpoints: phi({lo}) = {lo_v}, phi({hi}) = {hi_v}")
    print(f"  root: s* = {report.exponent}")
    for name, ok in report.checks.items():
        print(f"  {name:<22} {'pass' if ok else 'FAIL'}")


def main():
    print("=" * 64)
    print("Packaged counterexamples")
    print("=" * 64)
    for name in NAMED_CASES:
        report = run_case(name)
        case = NAMED_CASES[name]
        gens = ",".join(str(g) for g in case.generators)
        bits = "".join(str(b) for b in case.character)
        print(f"\n{name}: order {case.build().order} stencil, "
              f"group <{gens}>, character {bits}")
        describe(report)

    print("\n" + "=" * 64)
    print("Exhaustive character search at n=9 over <3,5,7>, interval (7,9)")
    print("=" * 64)
    result = run_search("search-n9")
    for row in result["results"]:
        bits = "".join(str(b) for b in row["character"])
        lo, hi = row["phi_endpoints"]
        mark = "SIGN CHANGE" if row["sign_change"] else "same sign"
        print(f"  character {bits}:  phi(7) = {lo:>12}  phi(9) = {hi:>15}  {mark}")
    print(f"\nadmissible characters: {result['admissible']} of 8"
          " -- the construction stops at n=8.")

    print("\nThe same reports are available as JSON from the CLI:")
    print("  python3 -m qriemann counterexample --case thm32a")


if __name__ == "__main__":
    main()
