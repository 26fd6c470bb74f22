"""A standing fuzz of the CLI contract.

Seeded argv lists for the four subcommands, drawn from the grammar below
with edge values (1/0, inf, nan, 1e400, 60-digit integers, Arabic-Indic
digits, empty and bad lists, out-of-range orders), run through cli.main in
process.  Every call must return an exit code in 0..3, let no exception
escape, and write at most STDERR_BOUND bytes to stderr: the longest
subcommand usage text plus 500 bytes for the error line.  Orders and sizes
stay small, so the 300 calls take under a second, and nothing starts a
thread or a subprocess.
"""

import contextlib
import io
import random

import pytest

from qriemann import cli

# each flag draws from its good values, and from its bad ones one time in
# BAD_ODDS, so that about half the calls get past parsing
BAD_ODDS = 10
Q_GOOD = ["2", "3/2", "-7/4", "5/3", "-2", "1/3", "٣"]  # Arabic-Indic 3 is an int to Python
AT_GOOD = ["0", "1/3", "-2/3", "-5/7", "1000", "1e-3", "1e99", "9" * 60, "1/" + "7" * 60, "١/٢"]
RATIONAL_BAD = ["0", "1", "-1", "1/0", "inf", "nan", "-inf", "1e400", "1e-400", "", " ", "x",
                "1/2/3", "1_000", "--", "-0", "5e5000"]
ORDER_GOOD, ORDER_BAD = ["1", "2", "3", "4", "5"], ["0", "-1", "201", "x", "", "1.5", "9" * 30]
INT_GOOD, INT_BAD = ["0", "1", "2", "3"], ["-1", "x", "", "9" * 30, "--"]
KIND_GOOD = ["forward", "shifted", "symmetric", "riemann", "riemann-symmetric", "mz", "custom"]
KIND_BAD = ["bogus", "", "x" * 100]
FUNCTION_GOOD = ["sin", "cos", "exp", "abs", "signpow1", "signpow2", "signpow3", "signpow5",
                 "poly:1,2,3", "poly:0,0,0,1", "poly:1/2,-3,0,0,0,0,7"]
FUNCTION_BAD = ["signpow0", "signpow", "signpow201", "gamma", "poly:", "poly:1/0", "poly:inf",
                "poly:" + "1," * 5 + "x", ""]
NODE_POOL = ["-3", "-2", "-1", "-1/2", "0", "1/3", "1", "2", "5/2", "3", "7"]
NODES_BAD = ["", ",", "1,,2", "0,0,1", "1,x", "inf,0", "1/0,1", "0," + "9" * 60, "1,2,3,4,5,6,7,8"]
OUTPUTS = (["json", "csv", "text"], ["yaml", ""])
GAUSSIAN = ("forward", "shifted", "symmetric")


def _value(rng, values):
    good, bad = values
    return rng.choice(bad if rng.randrange(BAD_ODDS) == 0 else good)


def _maybe(rng, flag, values, p=0.7):
    return [f"{flag}={_value(rng, values)}"] if rng.random() < p else []


def _order_and_nodes(rng, p_nodes):
    """-n and --nodes, the nodes n + 1 distinct ones wherever n is good."""
    argv = _maybe(rng, "-n", (ORDER_GOOD, ORDER_BAD), 0.95)
    n = int(argv[0][3:]) if argv and argv[0][3:] in ORDER_GOOD else rng.randint(1, 5)
    nodes = ",".join(rng.sample(NODE_POOL, n + 1))
    return argv + _maybe(rng, "--nodes", ([nodes], NODES_BAD), p_nodes)


def _stencil_flags(rng):
    kind = _value(rng, (KIND_GOOD, KIND_BAD))
    return [f"--kind={kind}", *_order_and_nodes(rng, 0.95 if kind == "custom" else 0.05),
            *_maybe(rng, "-q", (Q_GOOD, RATIONAL_BAD), 0.95 if kind in GAUSSIAN else 0.05)]


def _stencil(rng):
    return ["stencil", *_stencil_flags(rng), *_maybe(rng, "--output", OUTPUTS)]


def _verify(rng):
    return ["verify", *_maybe(rng, "--max-n", (["1", "2"], ["0", "13", "x", "-1"]), 0.98),
            *_maybe(rng, "--q-list", (["2", "3/2,-2", "-7/4,5/3"],
                                      ["1", "0,2", "2,x", "", "1/0", "inf", "--"]), 0.5),
            *_maybe(rng, "--seed", (INT_GOOD, INT_BAD), 0.4), *_maybe(rng, "--output", OUTPUTS)]


def _derive(rng):
    return ["derive", *_stencil_flags(rng),
            *_maybe(rng, "--function", (FUNCTION_GOOD, FUNCTION_BAD), 0.98),
            *_maybe(rng, "--at", (AT_GOOD, RATIONAL_BAD), 0.9),
            *_maybe(rng, "--h0", (["1/10", "-1/3", "2", "1e-3"], RATIONAL_BAD), 0.3),
            *_maybe(rng, "--ratio", (["1/2", "1/10", "9/10", "2/3"], RATIONAL_BAD + ["2"]), 0.3),
            *_maybe(rng, "--steps", (["2", "20", "40"], ["1", "61", "x"]), 0.4),
            *_maybe(rng, "--output", OUTPUTS, 0.5), *(["--one-sided"] * (rng.random() < 0.3))]


def _counterexample(rng):
    if rng.random() < 0.1:
        return ["counterexample", *_maybe(rng, "--case", (["prop25", "search-n9"],
                                                          ["thm32b", ""]), 0.9)]
    gens = sorted(rng.sample(["2", "3", "5", "7"], rng.randint(1, 3)))
    return ["counterexample", "--custom", *_order_and_nodes(rng, 0.95),
            *_maybe(rng, "--generators", ([",".join(gens)], ["4", "0", "2,x", "", "1000000007"]),
                    0.95),
            *_maybe(rng, "--character", ([",".join(rng.choice("01") for _ in gens)],
                                         ["2", "", "x", "0,1,1,0"]), 0.95),
            *_maybe(rng, "--interval", (["0,1", "1,3", "0,2", "1,2"], ["3,1", "0,201", "1", "x,y"]),
                    0.95),
            *_maybe(rng, "--lower-order", (INT_GOOD, INT_BAD), 0.9),
            *_maybe(rng, "--exponent", (["1.5", "2"], ["nan", "inf", "-1", "x"]), 0.1)]


def _stray(rng):
    return rng.choice([[], ["frobnicate"], ["-h"], ["derive"], ["stencil", "--kind"],
                       ["--version"], ["stencil", "--kind=riemann", "-n2", "extra"] * 3])


GRAMMAR = ((_derive, 40), (_stencil, 25), (_counterexample, 15), (_verify, 8), (_stray, 4))

# calls that every seed makes: a limit past the double range, one-sided
# rough functions on both sides of their rule at 0, and a flag derive does
# not take
FIXED = [
    ["derive", "--kind=riemann", "-n1", "--function=exp", "--at=1000"],
    ["derive", "--kind=forward", "-n3", "-q2", "--function=signpow3", "--one-sided"],
    ["derive", "--kind=riemann-symmetric", "-n3", "--function=signpow2", "--one-sided"],
    ["derive", "--kind=symmetric", "-n2", "-q=-3/2", "--function=abs", "--one-sided",
     "--output=json"],
    ["derive", "--kind=custom", "-n1", "--nodes=-1,2", "--function=abs", "--one-sided",
     "--h0=-1/10"],
    ["derive", "--kind=riemann", "-n2", "--function=sin", "--tol=1e-3"],
]


def _usage_bytes():
    parser = cli.build_parser()
    subparsers = parser._subparsers._group_actions[0].choices.values()
    return max(len(p.format_usage().encode()) for p in (parser, *subparsers))


STDERR_BOUND = _usage_bytes() + 500


def _argvs(seed, count=100):
    rng = random.Random(f"cli-contract:{seed}")
    makers, weights = zip(*GRAMMAR)
    return FIXED + [rng.choices(makers, weights)[0](rng) for _ in range(count - len(FIXED))]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_call_keeps_the_contract(seed):
    broken = []
    for argv in _argvs(seed):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except BaseException as exc:  # SystemExit included: main must return
            broken.append((argv, f"raised {type(exc).__name__}: {exc}"))
            continue
        size = len(err.getvalue().encode())
        if code not in (0, 1, 2, 3) or size > STDERR_BOUND:
            broken.append((argv, f"exit {code!r}, {size} bytes of stderr"))
    assert broken == []


def test_the_fixed_calls_exit_as_their_rule_says():
    codes, errs = [], []
    for argv in FIXED:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            codes.append(cli.main(argv))
        errs.append(err.getvalue())
    # exp(1000) is no double; at 0, Q(h) = S sgn(h) |h|^(p - n) with S != 0
    # in each of these: signpow3 at n = 3 and abs at n = 1 have one-sided
    # limits, while signpow2 at n = 3 and abs at n = 2 grow without bound
    assert codes == [2, 0, 3, 3, 0, 2]
    assert errs[-1].splitlines()[-1] == "qriemann: error: unrecognized arguments: --tol=1e-3"
    assert len(errs[-1].encode()) <= STDERR_BOUND
