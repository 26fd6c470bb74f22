#!/usr/bin/env python3
"""Derivative estimation with convergence diagnostics.

Three functions, one stencil order each, three different verdicts:

  sin       -> the 3rd-order quotient table settles on sin'''(0) = -1;
  x^3*sgn x -> the forward table flips between +6 and -6 with the sign of h
               (the 3rd derivative at 0 does not exist), while the symmetric
               3rd-order table is identically zero;
  |x|       -> the 2nd-order symmetric quotient grows like 2/|h|: diverged.

Every verdict is the quotient's exact limit.  The two-sided h sequence (sign
alternates step to step) is what exposes the sign flip; a one-sided table
converges to +6, the limit from the right.

Run:  python3 demos/demo_convergence.py
"""

from fractions import Fraction

from qriemann import (
    FunctionHandle,
    estimate_derivative,
    gaussian_forward,
    gaussian_symmetric,
)

F = Fraction


def run(title, stencil, fn, **kwargs):
    print("\n" + "=" * 64)
    print(title)
    print("=" * 64)
    table = estimate_derivative(stencil, fn, 0, **kwargs)
    lines = table.to_csv().splitlines()
    head, tail = lines[:6], lines[-3:]
    for line in head:
        print(" ", line)
    if len(lines) > 9:
        print(f"  ... ({len(lines) - 9} rows elided)")
    for line in tail[:-1]:
        print(" ", line)
    print(" ", tail[-1])
    return table


def main():
    run("sin under the forward n=3, q=2 stencil: converges to -1",
        gaussian_forward(3, 2), FunctionHandle.builtin("sin"))

    run("x^3 sgn(x) under the same stencil: oscillates between +-6",
        gaussian_forward(3, 2), FunctionHandle.builtin("signpow3"))

    run("x^3 sgn(x) one-sided: +6, the limit from the right only",
        gaussian_forward(3, 2), FunctionHandle.builtin("signpow3"),
        two_sided=False)

    run("x^3 sgn(x) under the symmetric n=3, q=3 stencil: exactly zero",
        gaussian_symmetric(3, 3), FunctionHandle.builtin("signpow3"))

    run("|x| under the symmetric n=2 stencil: quotient 2/|h|, diverges",
        gaussian_symmetric(2, 2), FunctionHandle.builtin("abs"))

    print("\nExit-code contract in the CLI: converged -> 0, anything else -> 3:")
    print("  python3 -m qriemann derive --kind forward -n 3 -q 2 \\")
    print("      --function signpow3 --at 0   # exits 3, verdict oscillating")


if __name__ == "__main__":
    main()
