"""A byte pin of the derive subcommand.

Seeded derive calls over every stencil kind x {sin, cos, exp, poly, abs,
signpowN} x {csv, json, text} x {two-sided, --one-sided}, at x = 0 and off
it, run through cli.main in process.  The SHA-256 of every call's (argv,
exit code, stdout, stderr) is pinned, so a change to how a row, a step or a
verdict is computed that moves a single printed byte fails here.  The calls
stay small enough to take well under two seconds.
"""

import contextlib
import hashlib
import io
import itertools
import random
from fractions import Fraction

from qriemann import cli

KINDS = ("forward", "shifted", "symmetric", "riemann", "riemann-symmetric", "mz", "custom")
GAUSSIAN = ("forward", "shifted", "symmetric")
FUNCTIONS = ("sin", "cos", "exp", "poly", "abs", "signpowN")
OUTPUTS = ("csv", "json", "text")
SEED = 39
DERIVE_SHA256 = "3d4b10734e3b151abe289ac9930596741e71a2189f661a91a8e1545dc8a0fb95"


def _rational(rng, span, den):
    return str(Fraction(rng.randint(-span, span), rng.randint(1, den)))


def _argv(rng, kind, function, output, one_sided, at_zero):
    n = rng.randint(1, 8)
    if function == "poly":
        function = "poly:" + ",".join(_rational(rng, 9, 4) for _ in range(rng.randint(1, n + 3)))
    elif function == "signpowN":
        function = f"signpow{rng.randint(1, n + 2)}"
    at = "0" if at_zero else _rational(rng, 8, 4)
    argv = ["derive", f"--kind={kind}", f"-n{n}", f"--function={function}", f"--at={at}",
            f"--steps={rng.choice((20, 40, 60))}", f"--output={output}",
            f"--h0={rng.choice(('1/10', '-1/3', '3/7', '2'))}",
            f"--ratio={rng.choice(('1/2', '2/3', '1/10'))}"]
    if kind in GAUSSIAN:
        argv.append(f"-q{rng.choice(('2', '-3/2', '5/3', '-2', '1/3'))}")
    if kind == "custom":
        nodes = rng.sample([Fraction(k, 2) for k in range(-2 * n - 4, 2 * n + 5)], n + 1)
        argv.append("--nodes=" + ",".join(map(str, nodes)))
    if one_sided:
        argv.append("--one-sided")
    return argv


def _calls():
    """One call per cell of the grid; abs and signpowN once at 0 and once
    off it, the other functions at 0 one time in four: 336 calls."""
    rng = random.Random(SEED)
    calls = []
    for cell in itertools.product(KINDS, FUNCTIONS, OUTPUTS, (False, True)):
        rough = cell[1] in ("abs", "signpowN")
        for at_zero in (True, False) if rough else (rng.random() < 0.25,):
            calls.append(_argv(rng, *cell, at_zero))
    return calls


def test_derive_bytes_are_pinned():
    digest = hashlib.sha256()
    for argv in _calls():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        digest.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
    assert digest.hexdigest() == DERIVE_SHA256
