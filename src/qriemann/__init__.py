"""Geometric-node Riemann difference stencils in exact arithmetic.

Builds, validates and applies difference stencils whose nodes follow powers
of a rational ratio q (forward, shifted, and symmetric families) alongside
the classical equally-spaced ones; estimates derivatives from convergence
tables; and reproduces the group-supported functions that separate these
generalized derivatives from ordinary ones.
"""

import importlib

from .qcore import (
    QPolynomial,
    pascal_check,
    q_binomial,
    q_factorial,
    q_integer,
    qbinomial_expand,
)
from .stencil import (
    ExcessNodesError,
    Stencil,
    StencilError,
    format_rational,
    gaussian_forward,
    gaussian_shifted,
    gaussian_symmetric,
    is_symmetric,
    mz_stencil,
    parse_rational,
    recursive_build,
    riemann_classic,
    riemann_symmetric,
    same_difference,
    scale,
    stencil_from_json,
    stencil_to_json,
    vandermonde_solve,
    verify_vandermonde,
)
from .verify import DEFAULT_SEED, SuiteResult, run_all

# The evaluator and counterexample modules import mpmath, so their names,
# and the modules themselves, resolve on first use (PEP 562): importing the
# package, or its CLI for stencil and verify, loads neither.
_DEFERRED = {
    "evaluator": ("ConvergenceTable", "EvaluatorError", "FunctionHandle", "apply_difference",
                  "difference_quotient", "estimate_derivative", "peano_bound_check",
                  "recursive_quotient"),
    "counterexample": ("CounterexampleError", "CounterexampleReport", "ExponentialSum",
                       "GroupFunction", "MultiplicativeGroup", "NoSignChangeError",
                       "PhiOnInterval", "character_search", "find_exponent", "membership",
                       "phi_from_stencil", "run_case", "run_search", "verify_counterexample"),
}


def __getattr__(name):
    for module, names in _DEFERRED.items():
        if name == module or name in names:
            source = importlib.import_module(f".{module}", __name__)
            return source if name == module else getattr(source, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

# Each public name is written once, in its import above or in _DEFERRED;
# the modules the imports bind (importlib, qcore, ...) are not listed.
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, type(importlib))]
__all__ += [name for names in _DEFERRED.values() for name in names] + ["__version__"]
