"""Span and counter recording around qriemann's layers, from outside.

Tracer.install() replaces each layer's public functions, at every module
name they are reachable under (qriemann.X, qriemann.cli.X, qriemann.verify.X,
...), with a wrapper that times the call and charges it to the span stack of
the running op.  remove() puts the originals back.  Untraced runs never
install it.

A span's self time is its duration minus the durations of its direct child
spans.  Calls made outside an op (the oracles never call the library) are
not recorded.  The hottest leaf functions are aggregated per call site only;
every other call is also kept as a span (op id, span id, parent span id,
name, start, end) and written out at the end.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from fractions import Fraction

LAYERS = ("qcore", "stencil", "evaluator", "counterexample", "verify", "cli")

# leaf functions called per term or per node: counted and timed, no span kept
HOT = {"qcore.q_binomial", "qcore.QPolynomial.__call__", "counterexample.membership",
       "stencil.format_rational", "stencil.parse_rational",
       "evaluator._exact_apply", "evaluator._mp_apply"}

# private helpers that one layer imports from another: the evaluator's apply
# path as counterexample uses it
EXTRA = {"evaluator": ("_exact_apply", "_mp_apply")}

SUITE_FUNCS = {
    "pascal_suite": "pascal",
    "qbinomial_consistency_suite": "qbinomial-consistency",
    "qbinomial_product_suite": "qbinomial-product",
    "qbinomial_specialized_suite": "qbinomial-specialized",
    "qbinomial_squared_suite": "qbinomial-squared",
    "closed_vs_solver_suite": "closed-vs-solver",
    "recursion_suite": "recursion",
    "scaling_suite": "scaling",
}

CLOSED_FORM = ("gaussian_forward", "gaussian_shifted", "gaussian_symmetric",
               "riemann_classic", "riemann_symmetric", "mz_stencil")
JSON_FUNCS = ("stencil_to_json", "stencil_to_jsonable", "stencil_from_json")


def _observe_difference_quotient(tr, args, result):
    tr.counters["dq_exact"] += isinstance(result, Fraction)


def _observe_estimate(tr, args, result):
    tr.counters["rows"] += len(result.rows)
    tr.counters["converged"] += result.verdict == "converged"


def _observe_solve(tr, args, result):
    tr.counters["solve_order_max"] = max(tr.counters["solve_order_max"], result.order)


def _observe_suite(tr, args, result):
    tr.counters["checks"] += result.total


def _observe_package(tr, args, result):
    tr.counters["checks_passed"] += sum(bool(v) for v in result.checks.values())
    tr.counters["checks_total"] += len(result.checks)


OBSERVERS = {
    "evaluator.difference_quotient": _observe_difference_quotient,
    "evaluator.estimate_derivative": _observe_estimate,
    "stencil.vandermonde_solve": _observe_solve,
    "counterexample.verify_counterexample": _observe_package,
}
OBSERVERS.update({f"verify.{f}": _observe_suite for f in SUITE_FUNCS})


def layer_functions(lib) -> dict:
    """{'layer.name': function} for every public function each layer module
    defines, plus QPolynomial.__call__ and the EXTRA helpers."""
    out = {}
    for layer in LAYERS:
        mod = getattr(lib, layer)
        for name, value in vars(mod).items():
            if name.startswith("_") or isinstance(value, type) or not callable(value):
                continue
            if getattr(value, "__module__", None) == mod.__name__:
                out[f"{layer}.{name}"] = value
        for name in EXTRA.get(layer, ()):
            out[f"{layer}.{name}"] = getattr(mod, name)
    return out


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.stack = []  # frames: [child seconds, span id]
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self.op_s = 0.0
        self.harness_s = 0.0
        self.op_id = -1
        self._root = None
        self._next_span = 0
        self._patches = []

    # -- wrapping -------------------------------------------------------------------

    def _wrap(self, key: str, fn):
        stack, calls, self_s, spans = self.stack, self.calls, self.self_s, self.spans
        keep = key not in HOT
        observe = OBSERVERS.get(key)
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span_id = tracer._next_span
            tracer._next_span += 1
            parent = stack[-1][1]
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                calls[key] += 1
                self_s[key] += dur - frame[0]
                stack[-1][0] += dur
                if keep:
                    spans.append((tracer.op_id, span_id, parent, key, t0, t1))
            if observe is not None:
                observe(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        lib = self.lib
        wrappers = {id(fn): (fn, self._wrap(key, fn)) for key, fn in layer_functions(lib).items()}
        for mod in (lib.package,) + tuple(getattr(lib, layer) for layer in LAYERS):
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrappers[id(value)][1])
        poly = lib.qcore.QPolynomial
        self._patches.append((poly, "__call__", poly.__call__))
        poly.__call__ = self._wrap("qcore.QPolynomial.__call__", poly.__call__)

    def remove(self):
        for obj, name, original in reversed(self._patches):
            setattr(obj, name, original)
        self._patches.clear()

    # -- ops ----------------------------------------------------------------------------

    def begin(self, op_id: int, label: str):
        self.op_id = op_id
        span_id = self._next_span
        self._next_span += 1
        self.stack.append([0.0, span_id])
        self._root = (span_id, label, time.perf_counter())

    def end(self, stdout_bytes: int = 0):
        t1 = time.perf_counter()
        child, _ = self.stack.pop()
        span_id, label, t0 = self._root
        self.spans.append((self.op_id, span_id, None, f"op.{label}", t0, t1))
        self.op_s += t1 - t0
        self.harness_s += t1 - t0 - child
        self.counters["stdout_bytes"] += stdout_bytes

    def write_spans(self, path):
        with open(path, "w") as fh:
            for op_id, span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"op": op_id, "span": span_id, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")

    # -- metrics ------------------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict:
        """Per-layer metric name -> (value, unit); the caller measures the
        overhead ratio, traced over untraced time for the same ops."""
        s, c, k = self.self_s, self.calls, self.counters

        def group(layer, names):
            keys = [f"{layer}.{n}" for n in names]
            return sum(c[x] for x in keys), sum(s[x] for x in keys)

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}

        def add(name, layer, funcs, calls=True, self_time=True):
            n, t = group(layer, funcs)
            if calls:
                m[f"{name}.calls"] = (n, "count")
            if self_time:
                m[f"{name}.self_s"] = (t, "s")

        add("qcore.q_binomial", "qcore", ["q_binomial"])
        add("qcore.poly_eval", "qcore", ["QPolynomial.__call__"])
        add("qcore.q_binomial_by_factorials", "qcore", ["q_binomial_by_factorials"], calls=False)
        add("qcore.qbinomial_expand", "qcore", ["qbinomial_expand"], calls=False)
        add("stencil.vandermonde_solve", "stencil", ["vandermonde_solve"])
        m["stencil.vandermonde_solve.order_max"] = (k["solve_order_max"], "count")
        add("stencil.closed_form", "stencil", CLOSED_FORM)
        add("stencil.recursive_build", "stencil", ["recursive_build"], calls=False)
        add("stencil.verify_vandermonde", "stencil", ["verify_vandermonde"], calls=False)
        add("stencil.scale", "stencil", ["scale"], calls=False)
        add("stencil.json", "stencil", JSON_FUNCS, calls=False)
        add("evaluator.difference_quotient", "evaluator", ["difference_quotient"])
        m["evaluator.exact_path_ratio"] = (ratio(k["dq_exact"], c["evaluator.difference_quotient"]), "ratio")
        add("evaluator.estimate_derivative", "evaluator", ["estimate_derivative"])
        m["evaluator.rows"] = (k["rows"], "count")
        m["evaluator.converged_ratio"] = (ratio(k["converged"], c["evaluator.estimate_derivative"]), "ratio")
        add("evaluator.recursive_quotient", "evaluator", ["recursive_quotient"], calls=False)
        add("evaluator.peano_bound_check", "evaluator", ["peano_bound_check"])
        add("counterexample.membership", "counterexample", ["membership"])
        add("counterexample.find_exponent", "counterexample", ["find_exponent"])
        add("counterexample.phi_from_stencil", "counterexample", ["phi_from_stencil"], calls=False)
        add("counterexample.verify_counterexample", "counterexample", ["verify_counterexample"], calls=False)
        add("counterexample.character_search", "counterexample", ["character_search"], calls=False)
        m["counterexample.checks_passed_ratio"] = (ratio(k["checks_passed"], k["checks_total"]), "ratio")
        for func, suite in SUITE_FUNCS.items():
            m[f"verify.{suite}.self_s"] = (s[f"verify.{func}"], "s")
        m["verify.checks"] = (k["checks"], "count")
        m["verify.checks_per_s"] = (ratio(k["checks"], self.span_s("verify", SUITE_FUNCS)), "1/s")
        cli_funcs = [key.split(".", 1)[1] for key in s if key.startswith("cli.")]
        m["cli.main.calls"] = (c["cli.main"], "count")
        m["cli.main.self_s"] = (group("cli", cli_funcs)[1], "s")
        m["cli.stdout_bytes"] = (k["stdout_bytes"], "bytes")
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (sum(v for key, v in s.items() if key.startswith(layer + ".")), "s")
        m["trace.op_s"] = (self.op_s, "s")
        m["trace.harness_self_s"] = (self.harness_s, "s")
        m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return m

    def span_s(self, layer, funcs) -> float:
        """Total duration of the kept spans of the given functions (which
        never call one another)."""
        names = {f"{layer}.{f}" for f in funcs}
        return sum(t1 - t0 for _, _, _, name, t0, t1 in self.spans if name in names)
