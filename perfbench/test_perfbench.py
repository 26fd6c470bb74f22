"""The benchmark's own tests: seeded op lists, generator validity, injected
faults that the oracles must catch, the tracer, and the comparison rule.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import oracles as orc  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

LIB = run.load_library()


def first_round(workload, seed=3):
    return wl.rounds(workload, seed, 1)[0]


def failed_ratio(ops) -> float:
    s = run.Session(LIB)
    s.run_list(ops)
    return s.failed / s.attempted


# -- seeded op lists -------------------------------------------------------------------


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_identical_op_list(workload):
    a = json.dumps(wl.rounds(workload, 17, 4))
    b = json.dumps(wl.rounds(workload, 17, 4))
    assert a == b
    assert a != json.dumps(wl.rounds(workload, 18, 4))


def _nodes_and_qs(op):
    """Every q and every node list an op passes to the library."""
    qs, node_lists = [], []
    flags = wl.argv_flags(op["argv"]) if op["op"] == "cli" else op
    if "q" in flags:
        qs.append(orc.frac(flags["q"]))
    if op["op"] == "suite":
        qs += [orc.frac(q) for q in op["params"].get("q_grid", [])]
    if "nodes" in flags:
        raw = flags["nodes"]
        node_lists.append([orc.frac(a) for a in (raw.split(",") if isinstance(raw, str) else raw)])
    return qs, node_lists


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generators_emit_no_invalid_input(workload):
    for seed in range(8):
        for ops in wl.rounds(workload, seed, 6):
            for op in ops:
                qs, node_lists = _nodes_and_qs(op)
                assert all(q not in (0, 1, -1) for q in qs), op
                for nodes in node_lists:
                    assert len(set(nodes)) == len(nodes), op
                if op["op"] == "cli" and op["argv"][0] == "counterexample" and "--custom" in op["argv"]:
                    flags = wl.argv_flags(op["argv"])
                    nodes = [orc.frac(a) for a in flags["nodes"].split(",")]
                    lo, hi = (int(v) for v in flags["interval"].split(","))
                    assert Fraction(1) in nodes and 0 <= lo < hi <= int(flags["n"]) == len(nodes) - 1


def test_rounds_keep_their_strata():
    labels = [sorted(op["label"] for op in r) for r in wl.rounds("algebra", 5, 3)]
    assert labels[0] == labels[1] == labels[2]


# -- the oracles against the library on clean runs ------------------------------------------


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_clean_round_passes_its_oracles(workload):
    s = run.Session(LIB)
    s.run_list(first_round(workload))
    assert s.correct, s.failures
    if workload != "derive":
        assert s.failed == 0, s.failures


def test_divided_difference_weights_match_the_library():
    for n in (1, 2, 5, 8):
        for q in (Fraction(2), Fraction(-3, 2)):
            for kind in wl.GAUSSIAN:
                s = getattr(LIB.stencil, f"gaussian_{kind}")(n, q)
                nodes = orc.expected_nodes(kind, n, q)
                assert list(s.nodes) == nodes and list(s.coeffs) == orc.weights(nodes, n)


def test_rough_limits_follow_the_exact_sum():
    # signpow3 = |x|^3 on the order-3 forward stencil: S = sum A_k |a_k|^3 = 3! on
    # nodes >= 0, with sgn(h) left over, so the two-sided quotient has no limit
    nodes = orc.expected_nodes("forward", 3, Fraction(2))
    exists, _ = orc.derivative_limit(("signpow", 3), 3, Fraction(0), nodes, orc.weights(nodes, 3))
    assert not exists
    # on the odd symmetric stencil the same sum cancels: the quotient is exactly 0
    nodes = orc.expected_nodes("symmetric", 3, Fraction(2))
    assert orc.derivative_limit(("signpow", 3), 3, Fraction(0), nodes, orc.weights(nodes, 3)) == (True, 0)
    # abs on an order-2 stencil: S * |h| / h^2 is unbounded unless S == 0
    nodes = orc.expected_nodes("riemann-symmetric", 2)
    exists, value = orc.derivative_limit(("abs", None), 2, Fraction(0), nodes, orc.weights(nodes, 2))
    assert not exists
    # signpow4 on an order-2 stencil: h^2 sgn(h) -> 0
    exists, value = orc.derivative_limit(("signpow", 4), 2, Fraction(0), nodes, orc.weights(nodes, 2))
    assert exists and value == 0


# -- injected faults ----------------------------------------------------------------------


def test_perturbed_stencil_coefficient_fails_its_op(monkeypatch):
    ops = [op for op in first_round("algebra") if op["label"].startswith("stencil.")]
    assert failed_ratio(ops) == 0
    build = LIB.cli._build_stencil

    def perturbed(args):
        s = build(args)
        return dataclasses.replace(s, coeffs=(s.coeffs[0] + Fraction(1, 10**9),) + s.coeffs[1:])

    monkeypatch.setattr(LIB.cli, "_build_stencil", perturbed)
    assert failed_ratio(ops) == 1


def test_perturbed_output_text_is_caught():
    op = {"op": "cli", "label": "stencil.shifted", "argv": ["stencil", "--kind=shifted", "-n9", "-q3/2", "--output=json"]}
    rc, text = wl.prepare(op, LIB)()
    assert wl.check(op, (rc, text)) == (None, "")
    obj = json.loads(text)
    obj["coeffs"][3] = wl.fmt(orc.frac(obj["coeffs"][3]) * (1 + Fraction(1, 10**12)))
    assert wl.check(op, (rc, json.dumps(obj)))[0] == wl.WRONG


def test_wrong_verdict_fails_its_op(monkeypatch):
    ops = first_round("derive")
    base = failed_ratio(ops)
    estimate = LIB.cli.estimate_derivative

    def flipped(*args, **kwargs):
        table = estimate(*args, **kwargs)
        if table.verdict == "converged":
            table.verdict = "diverged"
        else:
            table.verdict, table.value, table.est_error = "converged", 0.0, 0.0
        return table

    monkeypatch.setattr(LIB.cli, "estimate_derivative", flipped)
    s = run.Session(LIB)
    s.run_list(ops)
    derive_ops = sum(op["op"] == "cli" for op in ops)
    assert s.failed / s.attempted > base
    assert s.failed >= derive_ops - 2  # a flipped verdict can only stay right by luck (limit 0)
    assert not s.correct


def test_exponent_off_the_root_fails_its_op(monkeypatch):
    ops = [op for op in first_round("counterexample") if op["label"].startswith("case.thm")
           or op["label"] == "custom.packaged"]
    base = failed_ratio(ops)
    find = LIB.counterexample.find_exponent

    def off(*args, **kwargs):
        return find(*args, **kwargs) + 1e-6

    monkeypatch.setattr(LIB.counterexample, "find_exponent", off)
    monkeypatch.setattr(LIB.cli, "find_exponent", off)
    assert failed_ratio(ops) > base


def test_wrong_suite_count_and_raising_ops_fail():
    assert wl.check({"op": "suite", "suite": "pascal", "params": {"max_n": 6}},
                    SimpleResult(passed=14, failed=0))[0] == wl.WRONG
    s = run.Session(LIB)
    s.run_op(0, {"op": "cli", "label": "x", "argv": ["stencil", "--kind=forward", "-n3"]})  # no -q: exit 2
    assert s.failed == 1 and not s.correct


@dataclasses.dataclass
class SimpleResult:
    passed: int
    failed: int


# -- tracing ----------------------------------------------------------------------------------


def traced(workload):
    ops = first_round(workload)
    tracer = Tracer(LIB)
    originals = {name: getattr(LIB.verify, name) for name in ("gaussian_symmetric", "pascal_suite")}
    tracer.install()
    try:
        s = run.Session(LIB, tracer)
        s.run_list(ops)
    finally:
        tracer.remove()
    assert all(getattr(LIB.verify, k) is v for k, v in originals.items())
    return tracer, tracer.metrics(overhead_ratio=1.0)


def test_algebra_trace_touches_no_evaluator_or_counterexample():
    tracer, m = traced("algebra")
    names = {span[3].split(".")[0] for span in tracer.spans} | {k.split(".")[0] for k in tracer.calls}
    assert not names & {"evaluator", "counterexample"}
    assert m["stencil.vandermonde_solve.calls"][0] > 0 and m["verify.checks"][0] > 0
    layer_sum = sum(m[f"{layer}.self_s"][0] for layer in ("qcore", "stencil", "evaluator", "counterexample", "verify", "cli"))
    assert layer_sum + m["trace.harness_self_s"][0] == pytest.approx(m["trace.op_s"][0], rel=1e-9)


def test_counterexample_trace_touches_no_qcore_or_verify():
    tracer, m = traced("counterexample")
    names = {k.split(".")[0] for k in tracer.calls}
    assert not names & {"qcore", "verify"}
    assert m["counterexample.membership.calls"][0] > 0 and m["evaluator.peano_bound_check.calls"][0] > 0
    assert m["counterexample.checks_passed_ratio"][0] == 1


def test_spans_nest_by_op():
    tracer, _ = traced("derive")
    by_id = {span[1]: span for span in tracer.spans}
    for op_id, span_id, parent, name, t0, t1 in tracer.spans:
        if parent is not None and parent in by_id:
            p = by_id[parent]
            assert p[0] == op_id and p[4] <= t0 <= t1 <= p[5]


# -- the comparison rule ------------------------------------------------------------------------


def test_verdicts():
    base = [100 + i % 3 for i in range(10)]
    faster = [v * 0.8 for v in base]
    pairs = list(zip(base, faster))
    assert compare.verdict(base, faster, pairs, "lower", 0.25)[0] == "improved"
    assert compare.verdict(faster, base, [(b, a) for a, b in pairs], "lower", 0.25)[0] == "worse"
    same = [100 + (i + 1) % 3 for i in range(10)]
    assert compare.verdict(base, same, list(zip(base, same)), "lower", 0.25)[0] == "unchanged"
    noisy = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]
    assert compare.verdict(noisy, noisy[::-1], list(zip(noisy, noisy[::-1])), "lower", 0.1)[0] == "unresolved"
    few = [100, 101, 102]
    assert compare.verdict(few, [80, 81, 82], list(zip(few, [80, 81, 82])), "lower", 0.25)[0] == "unchanged"


# -- the benchmark outside a checkout -------------------------------------------------------------


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "algebra", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
