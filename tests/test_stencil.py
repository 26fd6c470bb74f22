"""Tests for stencil construction, validation, scaling, and serialization.

Oracles: the moment conditions sum(A_k a_k^j) = delta_{j,n} * n! are checked
directly with exact rationals; small closed-form stencils are compared against
hand-solved linear systems recorded inline.
"""

import json
import math
import random
from fractions import Fraction

import pytest

import qriemann.stencil as stencil_module
from qriemann.qcore import q_binomial
from qriemann.stencil import (
    KINDS,
    ExcessNodesError,
    GaussianNormalizer,
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
from qriemann.verify import DEFAULT_Q_GRID

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


class TestStencilType:
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

    def test_equality_includes_tags(self):
        a = gaussian_forward(1, 2)
        b = Stencil(order=1, nodes=(0, 1), coeffs=(-1, 1))
        assert a != b  # kind/q tags differ
        assert same_difference(a, b)  # but they are the same difference

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

    def test_random_node_sets_have_exact_order(self):
        import math

        rng = random.Random(5150)
        for _ in range(40):
            n = rng.randint(1, 12)
            nodes = set()
            while len(nodes) < n + 1:
                nodes.add(F(rng.randint(-20, 20), rng.randint(1, 6)))
            s = vandermonde_solve(tuple(nodes), n)
            assert_exact_order(s)
            assert all(r == 0 for _, r in verify_vandermonde(s)), s
            # each weight is n! over the product of the node differences
            for a, c in zip(s.nodes, s.coeffs):
                den = F(1)
                for b in s.nodes:
                    if b != a:
                        den *= a - b
                assert c == math.factorial(n) / den, (s, a)


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
        closed = stencil_module._expand

        def slipped(*args):
            mapping = closed(*args)
            top = max(mapping)
            mapping[top] *= F(1001, 1000)
            return mapping

        monkeypatch.setattr(stencil_module, "_expand", slipped)
        for n in (1, 2, 5, 6):
            with pytest.raises(AssertionError, match="disagrees with moment solve"):
                gaussian_symmetric(n, F(3, 2))


class TestExpand:
    @pytest.mark.parametrize("family", list(stencil_module._FAMILIES))
    def test_matches_the_q_binomial_polynomials(self, family):
        # Each raw coefficient against (-1)^k q^(first k) r^C(k,2) [N k](r)
        # with the Gaussian binomial evaluated as a polynomial.
        seed, first, step = stencil_module._FAMILIES[family]
        for n in range(first or 1, 31, step):
            _, js = stencil_module._family(family, n)
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
                assert stencil_module._expand(seed, js, q) == want, (n, q)


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
    def test_forward_order_one(self):
        assert GaussianNormalizer.compute("forward", 1, F(7)).value == F(1)

    def test_forward_order_three_base_two(self):
        # 3! / ((8-2)(8-4)) = 6/24 = 1/4, the top-node coefficient above.
        assert GaussianNormalizer.compute("forward", 3, F(2)).value == F(1, 4)

    def test_shifted_order_two_base_two(self):
        # 2! / ((4-1)(4-2)) = 1/3.
        assert GaussianNormalizer.compute("shifted", 2, F(2)).value == F(1, 3)

    def test_symmetric_odd_order_one(self):
        # Empty product leaves n!/2 = 1/2.
        assert GaussianNormalizer.compute("symmetric_odd", 1, F(5)).value == F(1, 2)

    def test_symmetric_even_order_two(self):
        assert GaussianNormalizer.compute("symmetric_even", 2, F(3)).value == F(1)

    def test_parity_mismatch_rejected(self):
        with pytest.raises(StencilError):
            GaussianNormalizer.compute("symmetric_even", 3, F(2))
        with pytest.raises(StencilError):
            GaussianNormalizer.compute("symmetric_odd", 4, F(2))

    def test_unknown_family_rejected(self):
        with pytest.raises(StencilError):
            GaussianNormalizer.compute("sideways", 2, F(2))

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

        formulas = {"forward": (forward, (0, 1)), "shifted": (shifted, (0, 1)),
                    "symmetric_even": (symmetric_even, (0,)),
                    "symmetric_odd": (symmetric_odd, (1,))}
        for family, (formula, parities) in formulas.items():
            for n in range(1, 15):
                if n % 2 not in parities:
                    continue
                for q in DEFAULT_Q_GRID:
                    assert GaussianNormalizer.compute(family, n, q).value == formula(n, q), (family, n, q)


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

    def test_parse_errors(self):
        with pytest.raises(StencilError):
            stencil_from_json("this is not json")
        with pytest.raises(StencilError):
            stencil_from_json('{"order": 1}')
        with pytest.raises(StencilError):
            stencil_from_json(
                '{"order": 1, "kind": "custom", "q": null,'
                ' "nodes": ["0", "x"], "coeffs": ["-1", "1"]}'
            )
