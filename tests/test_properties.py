"""Property tests: the moment solver, the Gaussian builders, scaling and JSON.

Each property is checked against an independent oracle (direct moment sums,
the divided-difference solver, the recursion, math.lcm of the node
denominators for the stored node integers) on inputs hypothesis draws.
Every test is derandomized, so a run is reproducible and needs no example
database.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qriemann.stencil import (
    GAUSSIAN_BUILDERS,
    recursive_build,
    same_difference,
    scale,
    stencil_from_json,
    stencil_to_json,
    vandermonde_solve,
)

F = Fraction

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=9)
ratios = st.fractions(min_value=-99, max_value=99, max_denominator=97).filter(lambda q: q not in (0, 1, -1))
node_sets = st.lists(rationals, min_size=2, max_size=11, unique=True)


def moment(nodes, coeffs, j):
    return sum((c * a**j for a, c in zip(nodes, coeffs)), F(0))


def assert_node_ints(s):
    d, ps = s.node_ints
    assert type(s.node_ints) is tuple and d == math.lcm(*(a.denominator for a in s.nodes)), s
    assert [F(p, d) for p in ps] == list(s.nodes), s


def assert_moments(s):
    n = s.order
    for j in range(n):
        assert moment(s.nodes, s.coeffs, j) == 0, (s, j)
    assert moment(s.nodes, s.coeffs, n) == math.factorial(n), s


@SETTINGS
@given(node_sets)
def test_solver_moments_on_random_nodes(nodes):
    s = vandermonde_solve(nodes, len(nodes) - 1)
    assert_moments(s)
    assert_node_ints(s)


@SETTINGS
@given(st.sampled_from(sorted(GAUSSIAN_BUILDERS)), st.integers(1, 20), ratios)
def test_gaussian_builders_match_solver_and_recursion(family, n, q):
    built = GAUSSIAN_BUILDERS[family](n, q)
    assert_moments(built)
    assert_node_ints(built)
    assert same_difference(built, vandermonde_solve(built.nodes, n))
    assert recursive_build(family, n, q) == built


@SETTINGS
@given(node_sets, rationals.filter(lambda r: r != 0))
def test_scale_round_trip(nodes, r):
    s = vandermonde_solve(nodes, len(nodes) - 1)
    scaled = scale(s, r)
    assert_moments(scaled)
    assert_node_ints(scaled)
    assert scale(scaled, 1 / r) == s


@SETTINGS
@given(node_sets)
def test_json_round_trip(nodes):
    s = vandermonde_solve(nodes, len(nodes) - 1)
    text = stencil_to_json(s)
    back = stencil_from_json(text)
    assert back == s
    assert_node_ints(back)
    assert stencil_to_json(back) == text
