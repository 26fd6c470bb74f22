"""Tests for stencil construction, validation, scaling, and serialization.

Oracles: the moment conditions sum(A_k a_k^j) = delta_{j,n} * n! are checked
directly with exact rationals; small closed-form stencils are compared against
hand-solved linear systems recorded inline.
"""

import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qriemann.stencil as stencil_module
from qriemann.qcore import q_binomial
from qriemann.stencil import (
    GAUSSIAN_BUILDERS,
    KINDS,
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
from qriemann.verify import DEFAULT_Q_GRID, closed_vs_solver_suite

F = Fraction


def moments(s: Stencil, up_to: int):
    """Exact moment sums sum(A_k a_k^j) for j = 0..up_to (0^0 == 1)."""
    out = []
    for j in range(up_to + 1):
        total = F(0)
        for a, c in zip(s.nodes, s.coeffs):
            term = F(1) if j == 0 else F(a) ** j
            total += F(c) * term
        out.append(total)
    return out


def assert_exact_order(s: Stencil):
    import math

    want = [F(0)] * s.order + [F(math.factorial(s.order))]
    assert moments(s, s.order) == want, s


def residual_oracle(s: Stencil):
    """(j, sum_k A_k a_k^j - target_j) for j = 0..order, summed term by term."""
    target = [F(0)] * s.order + [F(math.factorial(s.order))]
    return [(j, m - t) for j, (m, t) in enumerate(zip(moments(s, s.order), target))]


def solve_oracle(nodes):
    """{a_k: n! / prod_{j != k} (a_k - a_j)}, multiplied out term by term."""
    n = len(nodes) - 1
    out = {}
    for a in nodes:
        den = F(1)
        for b in nodes:
            if b != a:
                den *= a - b
        out[a] = math.factorial(n) / den
    return out


# ---------------------------------------------------------------------------
# Rational formatting helpers
# ---------------------------------------------------------------------------


class TestRationalText:
    def test_format(self):
        assert format_rational(F(5, 3)) == "5/3"
        assert format_rational(F(-7, 4)) == "-7/4"
        assert format_rational(F(4, 2)) == "2"
        assert format_rational(3) == "3"

    def test_parse(self):
        assert parse_rational("5/3") == F(5, 3)
        assert parse_rational("-7/4") == F(-7, 4)
        assert parse_rational("2") == F(2)
        assert parse_rational("0.25") == F(1, 4)

    def test_parse_errors(self):
        for bad in ("", "one", "1/0", "2/3/4"):
            with pytest.raises(StencilError):
                parse_rational(bad)

    def test_round_trip(self):
        rng = random.Random(41)
        for _ in range(50):
            x = F(rng.randint(-99, 99), rng.randint(1, 99))
            assert parse_rational(format_rational(x)) == x


# ---------------------------------------------------------------------------
# Stencil invariants
# ---------------------------------------------------------------------------


# every public name that builds a stencil from an order
ORDER_TAKERS = {
    "riemann_classic": riemann_classic,
    "riemann_symmetric": riemann_symmetric,
    "mz_stencil": mz_stencil,
    "gaussian_forward": lambda n: gaussian_forward(n, 2),
    "gaussian_shifted": lambda n: gaussian_shifted(n, 2),
    "gaussian_symmetric": lambda n: gaussian_symmetric(n, 2),
    **{f"recursive_build_{family}": (lambda n, family=family: recursive_build(family, n, 2))
       for family in ("forward", "shifted", "symmetric")},
    "vandermonde_solve": lambda n: vandermonde_solve((0, 1), n),
    "stencil_from_json": lambda n: stencil_from_json(json.dumps(
        {"order": n, "kind": "custom", "q": None, "nodes": ["0", "1"], "coeffs": ["-1", "1"]})),
}


def _fraction_construction(nodes, coeffs):
    """Stencil's validation and ordering done on the Fractions themselves:
    set() for duplicates, == 0 for zero coefficients, sorted() by node.
    Returns (nodes, coeffs), or the message of the StencilError expected."""
    nodes = [F(a) for a in nodes]
    coeffs = [F(c) for c in coeffs]
    if len(nodes) != len(coeffs):
        return "nodes and coeffs must have equal length"
    if not nodes:
        return "a stencil needs at least one node"
    if len(set(nodes)) != len(nodes):
        return "duplicate nodes"
    if any(c == 0 for c in coeffs):
        return "zero coefficients are not stored"
    paired = sorted(zip(nodes, coeffs), key=lambda t: t[0])
    return tuple(a for a, _ in paired), tuple(c for _, c in paired)


# node values from a small pool, so that duplicates are common: integers,
# dyadic rationals (which a float holds exactly), small Fractions, and
# k/(10^50 + k), whose common denominator is far past a machine word
node_values = st.one_of(
    st.integers(-4, 4).map(F),
    st.builds(lambda k, m: F(k, 2**m), st.integers(-12, 12), st.integers(1, 4)),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.integers(-6, 6).map(lambda k: F(k, 10**50 + k)),
)
coeff_values = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=11),
    st.sampled_from([0.0, -0.75, 2.5]),
)


def spellings(x):
    """The ways a caller may pass the rational x: as a Fraction, an int
    when integral, and a float when the float is exact."""
    out = [x]
    if x.denominator == 1:
        out.append(int(x))
    if F(float(x)) == x:
        out.append(float(x))
    return st.sampled_from(out)


class TestStencilType:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.data())
    def test_construction_matches_the_fraction_sort(self, data):
        values = data.draw(st.lists(node_values, min_size=1, max_size=12))
        nodes = data.draw(st.permutations([data.draw(spellings(x)) for x in values]))
        coeffs = data.draw(st.lists(coeff_values, min_size=len(nodes), max_size=len(nodes)))
        want = _fraction_construction(nodes, coeffs)
        if isinstance(want, str):
            with pytest.raises(StencilError, match=want):
                Stencil(order=1, nodes=tuple(nodes), coeffs=tuple(coeffs))
        else:
            s = Stencil(order=1, nodes=tuple(nodes), coeffs=tuple(coeffs))
            assert (s.nodes, s.coeffs) == want
            assert all(type(x) is F for x in s.nodes + s.coeffs)

    @pytest.mark.parametrize("nodes", [(1, F(2, 2)), (0.5, F(1, 2)), (F(1, 10**50 + 1), 2, F(3, 3 * 10**50 + 3))],
                             ids=["int-fraction", "float-fraction", "large-denominator"])
    def test_duplicates_across_types_rejected(self, nodes):
        with pytest.raises(StencilError, match="duplicate nodes"):
            Stencil(order=1, nodes=nodes, coeffs=(1,) * len(nodes))

    @pytest.mark.parametrize("zero", [0, F(0), 0.0], ids=repr)
    def test_zero_coefficients_of_every_type_rejected(self, zero):
        with pytest.raises(StencilError, match="zero coefficients are not stored"):
            Stencil(order=1, nodes=(0, 1, 0.5), coeffs=(1, zero, -1))

    @pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_node_or_coefficient_is_a_stencil_error(self, x):
        with pytest.raises(StencilError, match=r"^node must be a finite rational, got -?(inf|nan)$"):
            Stencil(order=1, nodes=(0, x), coeffs=(1, -1))
        with pytest.raises(StencilError, match=r"^coefficient must be a finite rational, got -?(inf|nan)$"):
            Stencil(order=1, nodes=(0, 1), coeffs=(x, -1))

    @pytest.mark.parametrize("what, build, bad", [
        pytest.param("node", lambda x: Stencil(1, (x, 1), (-1, 1)), None, id="Stencil-node-None"),
        pytest.param("node", lambda x: Stencil(1, (x, 1), (-1, 1)), "1/0", id="Stencil-node-'1/0'"),
        pytest.param("coefficient", lambda x: Stencil(1, (0, 1), (x, 1)), None,
                     id="Stencil-coefficient-None"),
        pytest.param("ratio q", lambda x: Stencil(1, (0, 1), (-1, 1), q=x), "x", id="Stencil-q-'x'"),
        pytest.param("ratio q", lambda x: Stencil(1, (0, 1), (-1, 1), q=x), float("inf"),
                     id="Stencil-q-inf"),
        pytest.param("scale factor", lambda x: scale(riemann_classic(2), x), None, id="scale-None"),
        pytest.param("node", lambda x: vandermonde_solve([x, 1], 1), None,
                     id="vandermonde_solve-None"),
        pytest.param("ratio q", lambda x: gaussian_forward(2, x), None, id="gaussian_forward-None"),
    ])
    def test_input_that_is_not_a_rational_is_a_stencil_error(self, what, build, bad):
        # not the bare TypeError, ValueError, OverflowError or ZeroDivisionError
        # that Fraction raises
        with pytest.raises(StencilError, match=f"^{what} must be a finite rational, got "):
            build(bad)

    def test_duplicate_nodes_reported_before_zero_coefficients(self):
        with pytest.raises(StencilError, match="duplicate nodes"):
            Stencil(order=1, nodes=(0, 1, 0.5, F(1, 2)), coeffs=(0, 1, 0.0, F(0)))

    def test_nodes_sorted_with_coeffs_aligned(self):
        s = Stencil(order=1, nodes=(F(1), F(0)), coeffs=(F(1), F(-1)))
        assert s.nodes == (F(0), F(1))
        assert s.coeffs == (F(-1), F(1))

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(StencilError):
            Stencil(order=1, nodes=(0, 0), coeffs=(1, -1))

    def test_zero_coefficient_rejected(self):
        with pytest.raises(StencilError):
            Stencil(order=1, nodes=(0, 1), coeffs=(0, 1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(StencilError):
            Stencil(order=1, nodes=(0, 1, 2), coeffs=(1, -1))

    def test_order_must_be_positive(self):
        with pytest.raises(StencilError):
            Stencil(order=0, nodes=(0, 1), coeffs=(-1, 1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(StencilError):
            Stencil(order=1, nodes=(0, 1), coeffs=(-1, 1), kind="mystery")

    @pytest.mark.parametrize("order", [0, -1, 2.5, "3", True], ids=repr)
    @pytest.mark.parametrize("build", ORDER_TAKERS.values(), ids=ORDER_TAKERS)
    def test_every_builder_rejects_an_order_that_is_not_a_positive_int(self, build, order):
        # True is an int to isinstance; the classical closed form must check
        # the order before it divides by it, or 2.5 and "3" raise TypeError
        with pytest.raises(StencilError, match="order must be an integer >= 1"):
            build(order)

    def test_broken_moments_allowed(self):
        # Validation of the moment conditions is deliberately separate:
        # verify_vandermonde reports residuals instead.
        s = Stencil(order=1, nodes=(0, 1), coeffs=(1, 1))
        assert verify_vandermonde(s) == [(0, F(2)), (1, F(0))]

    def test_as_map_and_coeff_at(self):
        s = gaussian_forward(3, 2)
        m = s.as_map()
        assert m == {F(0): F(-3, 4), F(1): F(2), F(2): F(-3, 2), F(4): F(1, 4)}
        assert s.coeff_at(F(2)) == F(-3, 2)
        with pytest.raises(StencilError):
            s.coeff_at(F(7))
        assert len(s) == 4

    @pytest.mark.parametrize("node", [float("inf"), float("nan"), "x", None], ids=repr)
    def test_coeff_at_rejects_a_node_that_is_not_a_finite_rational(self, node):
        # as the constructor and scale do, not a bare OverflowError, TypeError or ValueError
        with pytest.raises(StencilError, match="node must be a finite rational"):
            riemann_classic(2).coeff_at(node)

    def test_equality_includes_tags(self):
        a = gaussian_forward(1, 2)
        b = Stencil(order=1, nodes=(0, 1), coeffs=(-1, 1))
        assert a != b  # kind/q tags differ
        assert same_difference(a, b)  # but they are the same difference

    @pytest.mark.parametrize("other", [
        Stencil(2, (0, 1), (-1, 1)),  # another order
        Stencil(1, (0, 2), (-1, 1)),  # one node moved
        Stencil(1, (0, 1), (-1, 2)),  # one coefficient changed
        Stencil(1, (0, F(1, 2)), (-1, 1)),  # the same P_k = (0, 1) over D = 2
    ], ids=["order", "node", "coefficient", "denominator"])
    def test_same_difference_is_false_on_any_other_difference(self, other):
        base = Stencil(1, (0, 1), (-1, 1))
        assert not same_difference(base, other)
        assert not same_difference(other, base)

    def test_kind_catalogue(self):
        assert set(KINDS) == {
            "riemann",
            "riemann_symmetric",
            "gaussian_forward",
            "gaussian_shifted",
            "gaussian_symmetric",
            "mz",
            "custom",
        }


# ---------------------------------------------------------------------------
# Exact linear solver
# ---------------------------------------------------------------------------


class TestVandermondeSolve:
    def test_two_nodes(self):
        s = vandermonde_solve((0, 1), 1)
        assert s.as_map() == {F(0): F(-1), F(1): F(1)}
        assert s.kind == "custom"

    def test_three_nodes(self):
        s = vandermonde_solve((1, 2, 3), 2)
        assert s.as_map() == {F(1): F(1), F(2): F(-2), F(3): F(1)}

    def test_matches_closed_form(self):
        s = vandermonde_solve((0, 1, 2, 4), 3)
        assert same_difference(s, gaussian_forward(3, 2))

    def test_node_count_enforced(self):
        with pytest.raises(ExcessNodesError):
            vandermonde_solve((0, 1, 2), 1)
        with pytest.raises(ExcessNodesError):
            vandermonde_solve((0, 1), 2)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(StencilError):
            vandermonde_solve((0, 1, 1), 2)
        with pytest.raises(StencilError, match="duplicate nodes"):
            vandermonde_solve((F(1, 3), F(2, 6), 5), 2)  # equal as rationals

    @pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_node_is_a_stencil_error(self, x):
        with pytest.raises(StencilError, match=r"^node must be a finite rational, got -?(inf|nan)$"):
            vandermonde_solve((0, x), 1)

    def test_fraction_nodes_are_kept_as_given(self):
        nodes = (F(0), F(1, 3), F(2))
        assert all(a is b for a, b in zip(vandermonde_solve(nodes, 2).nodes, nodes))

    def test_random_node_sets_have_exact_order(self):
        rng = random.Random(5150)
        for _ in range(40):
            n = rng.randint(1, 12)
            nodes = set()
            while len(nodes) < n + 1:
                nodes.add(F(rng.randint(-20, 20), rng.randint(1, 6)))
            s = vandermonde_solve(tuple(nodes), n)
            assert_exact_order(s)
            assert all(r == 0 for _, r in verify_vandermonde(s)), s
            assert s.as_map() == solve_oracle(s.nodes), s


# ---------------------------------------------------------------------------
# Moment arithmetic against plain Fraction oracles
# ---------------------------------------------------------------------------

# Node sets mixing 0, negative nodes and denominators up to 10^12, so the
# common denominator of the nodes is far from 1.
big_rationals = st.one_of(
    st.just(F(0)),
    st.integers(-30, 30).map(F),
    st.fractions(min_value=-30, max_value=30, max_denominator=10**12),
)
big_node_sets = st.lists(big_rationals, min_size=2, max_size=9, unique=True)
ORACLE_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


class TestMomentOracles:
    @ORACLE_SETTINGS
    @given(big_node_sets)
    def test_solver_matches_the_product_oracle(self, nodes):
        s = vandermonde_solve(nodes, len(nodes) - 1)
        assert s.as_map() == solve_oracle(nodes)
        assert verify_vandermonde(s) == residual_oracle(s)
        assert all(r == 0 for _, r in verify_vandermonde(s))

    @ORACLE_SETTINGS
    @given(big_node_sets, st.data())
    def test_residuals_of_a_bumped_stencil(self, nodes, data):
        # bumping A_k by b moves residual j by b a_k^j, so with a_k != 0
        # every residual is nonzero and every term of the sum is checked
        s = vandermonde_solve(nodes, len(nodes) - 1)
        k = data.draw(st.sampled_from([i for i, a in enumerate(s.nodes) if a != 0]))
        bump = data.draw(st.fractions(max_denominator=10**12).filter(
            lambda b: b != 0 and b != -s.coeffs[k]))
        coeffs = list(s.coeffs)
        coeffs[k] += bump
        broken = Stencil(order=s.order, nodes=s.nodes, coeffs=tuple(coeffs))
        got = verify_vandermonde(broken)
        assert got == residual_oracle(broken)
        assert all(r != 0 for _, r in got)
        assert [type(r) for _, r in got] == [F] * (s.order + 1)

    @ORACLE_SETTINGS
    @given(big_node_sets, st.integers(0, 6), st.data())
    def test_moments_past_the_order(self, nodes, extra, data):
        # M_j for j > n, of the solved stencil and of one with a bumped A_k
        s = vandermonde_solve(nodes, len(nodes) - 1)
        k = data.draw(st.integers(0, s.order))
        coeffs = list(s.coeffs)
        coeffs[k] += data.draw(st.fractions(max_denominator=10**12).filter(lambda b: b not in (0, -coeffs[k])))
        for t in (s, Stencil(order=s.order, nodes=s.nodes, coeffs=tuple(coeffs))):
            got = stencil_module.moments(t, t.order + extra)
            assert got == moments(t, t.order + extra)
            assert [type(m) for m in got] == [F] * (t.order + extra + 1)


# ---------------------------------------------------------------------------
# Closed-form families
# ---------------------------------------------------------------------------


class TestGaussianForward:
    def test_order_one_is_classical(self):
        for q in (F(2), F(5, 3), F(-2)):
            s = gaussian_forward(1, q)
            assert s.as_map() == {F(0): F(-1), F(1): F(1)}

    def test_order_three_base_two(self):
        s = gaussian_forward(3, 2)
        assert s.nodes == (F(0), F(1), F(2), F(4))
        assert s.coeffs == (F(-3, 4), F(2), F(-3, 2), F(1, 4))
        assert s.kind == "gaussian_forward"
        assert s.q == F(2)

    def test_node_geometry(self):
        for n in range(1, 9):
            s = gaussian_forward(n, F(5, 3))
            assert s.as_map().keys() == {F(0), *(F(5, 3) ** i for i in range(n))}

    def test_exact_order_across_grid(self):
        for n in range(1, 9):
            for q in (F(2), F(1, 2), F(-2), F(5, 3)):
                assert_exact_order(gaussian_forward(n, q))

    def test_invalid_q(self):
        for q in (0, 1, -1):
            with pytest.raises(StencilError):
                gaussian_forward(2, q)

    @pytest.mark.parametrize("q", [F(0), F(2, 2), F(-3, 3), 0.0, 1.0, -1.0, "-1"], ids=repr)
    def test_invalid_q_of_every_type(self, q):
        with pytest.raises(StencilError, match="^ratio q must avoid 0, 1 and -1$"):
            gaussian_forward(2, q)

    @pytest.mark.parametrize("q", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_q_is_a_stencil_error(self, q):
        for build in (lambda: gaussian_forward(3, q), lambda: recursive_build("shifted", 3, q)):
            with pytest.raises(StencilError, match=r"^ratio q must be a finite rational, got -?(inf|nan)$"):
                build()

    def test_invalid_order(self):
        with pytest.raises(StencilError):
            gaussian_forward(0, 2)


class TestGaussianShifted:
    def test_order_two_base_two(self):
        # Hand-solved system on nodes {1, 2, 4}.
        s = gaussian_shifted(2, 2)
        assert s.as_map() == {F(1): F(2, 3), F(2): F(-1), F(4): F(1, 3)}
        assert s.kind == "gaussian_shifted"

    def test_node_geometry(self):
        # Shifted family: powers q^0 .. q^n, no zero node.
        for n in range(1, 9):
            s = gaussian_shifted(n, F(-7, 4))
            assert s.as_map().keys() == {F(-7, 4) ** i for i in range(0, n + 1)}
            assert F(0) not in s.as_map()

    def test_exact_order_across_grid(self):
        for n in range(1, 9):
            for q in (F(2), F(1, 2), F(-2), F(5, 3)):
                assert_exact_order(gaussian_shifted(n, q))


class TestGaussianSymmetric:
    def test_order_two_is_central_difference(self):
        for q in (F(2), F(3), F(5, 2)):
            s = gaussian_symmetric(2, q)
            assert s.as_map() == {F(-1): F(1), F(0): F(-2), F(1): F(1)}

    def test_order_three_base_three(self):
        s = gaussian_symmetric(3, 3)
        assert s.as_map() == {
            F(-3): F(-1, 8),
            F(-1): F(3, 8),
            F(1): F(-3, 8),
            F(3): F(1, 8),
        }

    def test_order_four_base_two(self):
        s = gaussian_symmetric(4, 2)
        assert s.as_map() == {
            F(-2): F(1),
            F(-1): F(-4),
            F(0): F(6),
            F(1): F(-4),
            F(2): F(1),
        }

    def test_node_geometry(self):
        # Even order: symmetric powers plus the center; odd order: no center.
        s6 = gaussian_symmetric(6, 2)
        assert s6.as_map().keys() == {F(0), F(1), F(-1), F(2), F(-2), F(4), F(-4)}
        s5 = gaussian_symmetric(5, 2)
        assert s5.as_map().keys() == {F(1), F(-1), F(2), F(-2), F(4), F(-4)}

    def test_coefficient_parity(self):
        # Order-n symmetric stencils satisfy A(-a) == (-1)^n A(a).
        for n in range(1, 9):
            for q in (F(2), F(5, 2)):
                s = gaussian_symmetric(n, q)
                m = s.as_map()
                sign = 1 if n % 2 == 0 else -1
                for a, c in m.items():
                    if a != 0:
                        assert m[-a] == sign * c

    def test_exact_order_across_grid(self):
        for n in range(1, 9):
            for q in (F(2), F(1, 2), F(-2), F(5, 3)):
                assert_exact_order(gaussian_symmetric(n, q))

    def test_cross_check_catches_a_closed_form_slip(self, monkeypatch):
        # the closed forms are checked against the solver by verify's
        # closed-vs-solver suite, not at each build: a slip in the shared
        # _expand fails every check of every family there
        closed = stencil_module._expand

        def slipped(*args):
            mapping = closed(*args)
            top = max(mapping)  # (1, N): the coefficient at node q^N
            assert top[0] == 1 and top[1] == max(k for _, k in mapping)
            mapping[top] *= F(1001, 1000)
            return mapping

        monkeypatch.setattr(stencil_module, "_expand", slipped)
        res = closed_vs_solver_suite(max_n=3, q_grid=(F(3, 2),))
        assert (res.passed, res.failed) == (0, 18)
        for family in GAUSSIAN_BUILDERS:
            for n in (1, 2, 3):
                assert f"{family} closed form != solver at n={n}, q=3/2" in res.failures
                assert f"{family} moment residual nonzero at n={n}, q=3/2" in res.failures

    def test_no_gaussian_builder_calls_the_solver(self, monkeypatch):
        calls = []
        real = stencil_module.vandermonde_solve

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(stencil_module, "vandermonde_solve", counted)
        for build in GAUSSIAN_BUILDERS.values():
            for n in range(1, 13):
                for q in DEFAULT_Q_GRID:
                    build(n, q)
        assert calls == []
        stencil_module.vandermonde_solve((0, 1), 1)  # the counter counts
        assert len(calls) == 1


class TestExpand:
    @pytest.mark.parametrize("family", list(stencil_module._FAMILIES))
    def test_matches_the_q_binomial_polynomials(self, family):
        # Each raw coefficient against (-1)^k q^(first k) r^C(k,2) [N k](r)
        # with the Gaussian binomial evaluated as a polynomial.
        seed, first, step = stencil_module._FAMILIES[family]
        for n in range(first or 1, 31, step):
            js = range(first, n, step)
            N = len(js)
            for q in DEFAULT_Q_GRID:
                r = q**step
                want = {}
                for k in range(N + 1):
                    t = (-1) ** k * q ** (first * k) * r ** math.comb(k, 2) * q_binomial(N, k)(r)
                    for a, c in seed.items():
                        if a:
                            want[q ** (N - k) * a] = t * c
                if 0 in seed:
                    want[F(0)] = seed[0] * math.prod(1 - q**j for j in js)
                # lam = 1: the product itself, with no normalizer
                got = stencil_module._expand(seed, js, q.numerator, q.denominator, F(1))
                assert {a * q**k: c for (a, k), c in got.items()} == want, (n, q)
                assert len(got) == len(want), (n, q)

    @pytest.mark.parametrize("lam", [F(-7, 3), F(10**40 + 1, 6)])
    def test_the_normalizer_scales_every_coefficient(self, lam):
        # lam starts the running product and enters node 0's one quotient
        for family, (seed, first, step) in stencil_module._FAMILIES.items():
            for n in range(first or 1, 13, step):
                js = range(first, n, step)
                for q in DEFAULT_Q_GRID:
                    u, v = q.numerator, q.denominator
                    unit = stencil_module._expand(seed, js, u, v, F(1))
                    got = stencil_module._expand(seed, js, u, v, lam)
                    assert got == {key: lam * c for key, c in unit.items()}, (family, n, q)


def _expand_reference(seed, js, q):
    """The closed form in Fraction arithmetic, one small Fraction at a time:
    t_k = t_(k-1) (-q^first) r^(k-1) (1 - r^(N-k+1)) / (1 - r^k), r = q^step,
    at node q^(N-k) a; node 0 gets c_0 prod_j (1 - q^j)."""
    N, r, lead = len(js), q**js.step, -(q**js.start)
    mapping, t = {}, F(1)
    for k in range(N + 1):
        if k:
            t *= lead * r ** (k - 1) * (1 - r ** (N - k + 1)) / (1 - r**k)
        for a, ca in seed.items():
            if a:
                mapping[q ** (N - k) * a] = t * ca
    if 0 in seed:
        mapping[F(0)] = math.prod(1 - q**j for j in js) * seed[0]
    return mapping


def _recurse_reference(seed, js, q):
    """The recursion in Fraction arithmetic: each factor (E - q^j) takes the
    map D to D dilated by q minus q^j D."""
    mapping = dict(seed)
    for j in js:
        out = {q * a: c for a, c in mapping.items()}
        for a, c in mapping.items():
            out[a] = out.get(a, 0) - q**j * c
        mapping = {a: c for a, c in out.items() if c != 0}
    return mapping


def reference_build(family, n, q, raw):
    """The family at order n from a node->coefficient map raw(seed, js, q),
    times n! over that map's n-th moment, summed term by term."""
    name = f"symmetric_{'odd' if n % 2 else 'even'}" if family == "symmetric" else family
    seed, first, step = stencil_module._FAMILIES[name]
    mapping = raw(seed, range(first, n, step), q)
    lam = F(math.factorial(n)) / sum(c * a**n for a, c in mapping.items())
    return Stencil(n, tuple(mapping), tuple(lam * c for c in mapping.values()), "gaussian_" + family, q)


class TestLargeOrderReference:
    @pytest.mark.parametrize("family", sorted(GAUSSIAN_BUILDERS))
    @pytest.mark.parametrize("n", [31, 45, 60])
    def test_builders_match_the_fraction_reference(self, family, n):
        for q in (F(3, 2), F(-7, 4), F(31, 29), F(-2)):
            want = reference_build(family, n, q, _expand_reference)
            assert GAUSSIAN_BUILDERS[family](n, q) == want, (n, q)
            assert reference_build(family, n, q, _recurse_reference) == want, (n, q)
            assert recursive_build(family, n, q) == want, (n, q)


class TestClassicalStencils:
    def test_riemann_small(self):
        assert riemann_classic(1).as_map() == {F(0): F(-1), F(1): F(1)}
        assert riemann_classic(2).as_map() == {F(0): F(1), F(1): F(-2), F(2): F(1)}
        assert riemann_classic(3).as_map() == {
            F(0): F(-1),
            F(1): F(3),
            F(2): F(-3),
            F(3): F(1),
        }
        assert riemann_classic(2).kind == "riemann"

    def test_riemann_symmetric_small(self):
        assert riemann_symmetric(2).as_map() == {F(-1): F(1), F(0): F(-2), F(1): F(1)}
        assert riemann_symmetric(3).as_map() == {
            F(3, 2): F(1),
            F(1, 2): F(-3),
            F(-1, 2): F(3),
            F(-3, 2): F(-1),
        }
        assert riemann_symmetric(4).as_map() == {
            F(-2): F(1),
            F(-1): F(-4),
            F(0): F(6),
            F(1): F(-4),
            F(2): F(1),
        }

    def test_exact_order(self):
        for n in range(1, 11):
            assert_exact_order(riemann_classic(n))
            assert_exact_order(riemann_symmetric(n))

    def test_mz_is_forward_base_two(self):
        for n in range(1, 9):
            s = mz_stencil(n)
            assert s.kind == "mz"
            assert same_difference(s, gaussian_forward(n, 2))
            assert s.nodes == (F(0),) + tuple(F(2) ** i for i in range(n))


# ---------------------------------------------------------------------------
# Normalizing constants
# ---------------------------------------------------------------------------


class TestNormalizer:
    """The normalizing constant is the built stencil's coefficient at q^N,
    N = n-1 forward, n shifted, (n+1)//2 - 1 symmetric."""

    def test_forward_order_one(self):
        assert gaussian_forward(1, F(7)).coeff_at(1) == F(1)

    def test_forward_order_three_base_two(self):
        # 3! / ((8-2)(8-4)) = 6/24 = 1/4, the top-node coefficient above.
        assert gaussian_forward(3, F(2)).coeff_at(4) == F(1, 4)

    def test_shifted_order_two_base_two(self):
        # 2! / ((4-1)(4-2)) = 1/3.
        assert gaussian_shifted(2, F(2)).coeff_at(4) == F(1, 3)

    def test_symmetric_odd_order_one(self):
        # Empty product leaves n!/2 = 1/2.
        assert gaussian_symmetric(1, F(5)).coeff_at(1) == F(1, 2)

    def test_symmetric_even_order_two(self):
        assert gaussian_symmetric(2, F(3)).coeff_at(1) == F(1)

    def test_matches_the_paper_product_formulas(self):
        # n! / (c * prod_j (q^n - q^j)), written out per family.
        def forward(n, q):
            den = F(1)
            for j in range(1, n):
                den *= q**n - q**j
            return math.factorial(n) / den

        def shifted(n, q):
            den = F(1)
            for j in range(n):
                den *= q**n - q**j
            return math.factorial(n) / den

        def symmetric_even(n, q):
            den = F(2)
            for j in range(2, n - 1, 2):
                den *= q**n - q**j
            return math.factorial(n) / den

        def symmetric_odd(n, q):
            den = F(2)
            for j in range(1, n - 1, 2):
                den *= q**n - q**j
            return math.factorial(n) / den

        # formula, builder, parities of n, exponent N of the top node q^N
        formulas = [(forward, gaussian_forward, (0, 1), lambda n: n - 1),
                    (shifted, gaussian_shifted, (0, 1), lambda n: n),
                    (symmetric_even, gaussian_symmetric, (0,), lambda n: n // 2 - 1),
                    (symmetric_odd, gaussian_symmetric, (1,), lambda n: (n - 1) // 2)]
        for formula, build, parities, top in formulas:
            for n in range(1, 15):
                if n % 2 not in parities:
                    continue
                for q in DEFAULT_Q_GRID:
                    assert build(n, q).coeff_at(q ** top(n)) == formula(n, q), (formula.__name__, n, q)


# ---------------------------------------------------------------------------
# Recursion route
# ---------------------------------------------------------------------------


class TestRecursiveBuild:
    @pytest.mark.parametrize("family,builder", [
        ("forward", gaussian_forward),
        ("shifted", gaussian_shifted),
        ("symmetric", gaussian_symmetric),
    ])
    def test_matches_closed_form(self, family, builder):
        for n in range(1, 8):
            for q in (F(2), F(5, 3), F(-2), F(1, 2)):
                assert recursive_build(family, n, q) == builder(n, q)

    def test_doubling_nodes(self):
        s = recursive_build("forward", 6, 2)
        assert s.nodes == (F(0), F(1), F(2), F(4), F(8), F(16), F(32))

    def test_unknown_family(self):
        with pytest.raises(StencilError):
            recursive_build("backward", 3, 2)

    def test_invalid_q(self):
        with pytest.raises(StencilError):
            recursive_build("forward", 3, 1)


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------


class TestScale:
    def test_identity(self):
        s = gaussian_forward(4, 3)
        assert scale(s, 1) == s

    def test_round_trip(self):
        s = gaussian_symmetric(5, 2)
        assert scale(scale(s, F(3, 2)), F(2, 3)) == s

    def test_scale_preserves_order(self):
        rng = random.Random(97)
        for _ in range(20):
            n = rng.randint(1, 6)
            nodes = set()
            while len(nodes) < n + 1:
                nodes.add(F(rng.randint(-15, 15), rng.randint(1, 4)))
            r = F(0)
            while r == 0:
                r = F(rng.randint(-8, 8), rng.randint(1, 5))
            s = scale(vandermonde_solve(tuple(nodes), n), r)
            assert_exact_order(s)

    def test_zero_factor_rejected(self):
        with pytest.raises(StencilError):
            scale(riemann_classic(2), 0)

    @pytest.mark.parametrize("r", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_factor_is_a_stencil_error(self, r):
        with pytest.raises(StencilError, match=r"^scale factor must be a finite rational, got -?(inf|nan)$"):
            scale(riemann_classic(2), r)

    def test_forward_reflection(self):
        # Reversing the base q -> 1/q then rescaling by q^{n-1} restores the
        # original node->coefficient map.
        for n in range(1, 8):
            for q in (F(2), F(3), F(5, 2)):
                lhs = scale(gaussian_forward(n, 1 / q), q ** (n - 1))
                assert same_difference(lhs, gaussian_forward(n, q))

    def test_shifted_reflection(self):
        for n in range(1, 8):
            for q in (F(2), F(3), F(5, 2)):
                lhs = scale(gaussian_shifted(n, 1 / q), q**n)
                assert same_difference(lhs, gaussian_shifted(n, q))

    def test_symmetric_reflection(self):
        for n in range(1, 8):
            m = (n + 1) // 2
            for q in (F(2), F(3), F(5, 2)):
                lhs = scale(gaussian_symmetric(n, 1 / q), q ** (m - 1))
                assert same_difference(lhs, gaussian_symmetric(n, q))

    def test_integerizing_the_symmetric_classical(self):
        s = scale(riemann_symmetric(5), 2)
        assert set(s.as_map()) == {F(-5), F(-3), F(-1), F(1), F(3), F(5)}

    def test_classical_coincidences(self):
        # Two symmetric Gaussian stencils that coincide with (scaled)
        # classical symmetric stencils.
        assert same_difference(gaussian_symmetric(3, 3), scale(riemann_symmetric(3), 2))
        assert same_difference(gaussian_symmetric(4, 2), riemann_symmetric(4))


# ---------------------------------------------------------------------------
# Symmetry predicate
# ---------------------------------------------------------------------------


class TestIsSymmetric:
    def test_symmetric_families(self):
        for n in range(1, 8):
            assert is_symmetric(gaussian_symmetric(n, 2))
            assert is_symmetric(riemann_symmetric(n))

    def test_forward_families(self):
        assert not is_symmetric(gaussian_forward(3, 2))
        assert not is_symmetric(riemann_classic(2))

    def test_scaled_symmetric_remains_symmetric(self):
        assert is_symmetric(scale(riemann_symmetric(5), 2))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


class TestJson:
    def all_samples(self):
        return [
            gaussian_forward(3, 2),
            gaussian_forward(4, F(5, 3)),
            gaussian_shifted(2, F(-7, 4)),
            gaussian_symmetric(5, 2),
            riemann_classic(3),
            riemann_symmetric(4),
            mz_stencil(5),
            vandermonde_solve((F(-1, 2), 0, F(3, 4)), 2),
            scale(riemann_symmetric(5), 2),
        ]

    def test_round_trip_objects(self):
        for s in self.all_samples():
            assert stencil_from_json(stencil_to_json(s)) == s

    def test_round_trip_bytes(self):
        for s in self.all_samples():
            text = stencil_to_json(s)
            again = stencil_to_json(stencil_from_json(text))
            assert again == text

    def test_schema_shape(self):
        doc = json.loads(stencil_to_json(gaussian_forward(3, 2)))
        assert list(doc) == ["order", "kind", "q", "nodes", "coeffs"]
        assert doc["order"] == 3
        assert doc["kind"] == "gaussian_forward"
        assert doc["q"] == "2"
        assert doc["nodes"] == ["0", "1", "2", "4"]
        assert doc["coeffs"] == ["-3/4", "2", "-3/2", "1/4"]

    def test_null_q_for_classical(self):
        doc = json.loads(stencil_to_json(riemann_classic(2)))
        assert doc["q"] is None

    def test_rational_q_as_string(self):
        doc = json.loads(stencil_to_json(gaussian_forward(2, F(5, 3))))
        assert doc["q"] == "5/3"

    @pytest.mark.parametrize("key,text", [("nodes", "01"), ("coeffs", "12")])
    def test_node_and_coeff_lists_must_be_arrays(self, key, text):
        # a string of one-character rationals would otherwise split into them
        doc = {"order": 1, "kind": "custom", "q": None, "nodes": ["0", "1"], "coeffs": ["1", "2"]}
        assert stencil_from_json(json.dumps(doc)).coeffs == (1, 2)
        doc[key] = text
        with pytest.raises(StencilError, match="must be arrays"):
            stencil_from_json(json.dumps(doc))

    @pytest.mark.parametrize("text,message", [
        ("this is not json", "^bad stencil JSON: Expecting value"),
        ("[" * 100_000, "^bad stencil JSON: maximum recursion depth exceeded"),
        ('{"a": ' * 100_000, "^bad stencil JSON: maximum recursion depth exceeded"),
        ('{"order": 1}', "^stencil JSON must carry keys"),
        ('{"order": 1, "kind": "custom", "q": null, "nodes": ["0", "x"], "coeffs": ["-1", "1"]}',
         "^not a rational"),
    ], ids=["not-json", "deep", "deep-object", "keys", "node"])
    def test_parse_errors(self, text, message):
        # nesting past the recursion limit is a StencilError too, not a bare
        # RecursionError
        with pytest.raises(StencilError, match=message):
            stencil_from_json(text)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
    def test_an_int_past_the_digit_limit_is_a_stencil_error(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the default, which cli.main lifts
        try:
            with pytest.raises(StencilError, match="^bad stencil JSON: Exceeds the limit"):
                stencil_from_json("1" * 5000)
        finally:
            sys.set_int_max_str_digits(limit)
