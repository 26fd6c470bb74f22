"""Difference stencils for n-th order generalized derivatives.

A stencil is a finite node/coefficient pair (a_k, A_k) meant to satisfy the
moment conditions

    sum_k A_k a_k^j = 0      for j = 0..n-1,
    sum_k A_k a_k^n = n!,

so that sum_k A_k f(x + a_k h) / h^n converges to the n-th derivative for
smooth f.  This module builds the classical equally-spaced stencils, the
divided-difference solution of the moment system on any nodes, and the
geometric-node (q-power) families, entirely over the rationals.

Each q-power family is a seed difference times prod_j (E - q^j), where E
dilates by q (E delta_a = delta_{qa}) and j runs over range(first, n, step);
_FAMILIES holds the seed, first and step of each.  The closed form expands
that product by the q-binomial theorem, taking each Gaussian binomial from
the last by [N k]_r = [N k-1]_r (1 - r^(N-k+1)) / (1 - r^k); recursive_build
applies its factors one at a time, and GaussianNormalizer scales it to n-th
moment n!.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

KINDS = (
    "riemann",
    "riemann_symmetric",
    "gaussian_forward",
    "gaussian_shifted",
    "gaussian_symmetric",
    "mz",
    "custom",
)


class StencilError(ValueError):
    """Invalid argument while building or manipulating a stencil."""


class ExcessNodesError(StencilError):
    """Node count other than order+1; only the no-excess case is supported."""


# -- rational plumbing shared with the CLI and JSON formats ------------------


def format_rational(x: Fraction | int) -> str:
    """Render an exact rational as 'p' or 'p/r' with r > 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/r' into a Fraction; reject anything else."""
    if not isinstance(text, str):
        raise StencilError(f"expected a rational string, got {type(text).__name__}")
    s = text.strip()
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise StencilError(f"not a rational 'p' or 'p/r': {text!r}") from exc


def _validate_q(q) -> Fraction:
    q = Fraction(q)
    if q in (Fraction(0), Fraction(1), Fraction(-1)):
        raise StencilError("ratio q must avoid 0, 1 and -1")
    return q


def _check_order(n) -> None:
    if not isinstance(n, int) or n < 1:
        raise StencilError("order must be an integer >= 1")


# -- the stencil itself -------------------------------------------------------


@dataclass(frozen=True)
class Stencil:
    """Immutable node/coefficient stencil of a given derivative order.

    Nodes are kept sorted ascending with coefficients aligned; nodes must be
    distinct and coefficients nonzero.  Construction does not verify the
    moment conditions (see verify_vandermonde), so deliberately broken
    stencils can be represented and inspected.
    """

    order: int
    nodes: tuple
    coeffs: tuple
    kind: str = "custom"
    q: Fraction | None = None

    def __post_init__(self):
        _check_order(self.order)
        if self.kind not in KINDS:
            raise StencilError(f"unknown stencil kind {self.kind!r}")
        nodes = [Fraction(a) for a in self.nodes]
        coeffs = [Fraction(c) for c in self.coeffs]
        if len(nodes) != len(coeffs):
            raise StencilError("nodes and coeffs must have equal length")
        if not nodes:
            raise StencilError("a stencil needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise StencilError("duplicate nodes")
        if any(c == 0 for c in coeffs):
            raise StencilError("zero coefficients are not stored; drop the node instead")
        paired = sorted(zip(nodes, coeffs), key=lambda t: t[0])
        object.__setattr__(self, "nodes", tuple(a for a, _ in paired))
        object.__setattr__(self, "coeffs", tuple(c for _, c in paired))
        object.__setattr__(self, "q", None if self.q is None else Fraction(self.q))

    def as_map(self) -> dict:
        return dict(zip(self.nodes, self.coeffs))

    def coeff_at(self, node) -> Fraction:
        node = Fraction(node)
        for a, c in zip(self.nodes, self.coeffs):
            if a == node:
                return c
        raise StencilError(f"no node {format_rational(node)} in stencil")

    def __len__(self) -> int:
        return len(self.nodes)


def same_difference(a: Stencil, b: Stencil) -> bool:
    """True when two stencils define the same difference: equal order and
    equal node->coefficient maps, ignoring kind/q bookkeeping."""
    return a.order == b.order and a.nodes == b.nodes and a.coeffs == b.coeffs


def _from_map(order: int, mapping: dict, kind: str, q: Fraction | None) -> Stencil:
    items = [(a, c) for a, c in mapping.items() if c != 0]
    return Stencil(
        order=order,
        nodes=tuple(a for a, _ in items),
        coeffs=tuple(c for _, c in items),
        kind=kind,
        q=q,
    )


# -- the geometric-node families ----------------------------------------------

# family: (seed {node: coefficient}, first, step); the difference at order n
# is seed * prod_{j in range(first, n, step)} (E - q^j).  A factor multiplies
# the n-th moment by q^n - q^j, so the moment is M_n(seed) * prod_j (q^n - q^j),
# and M_n(seed) is 0 exactly when n has the wrong parity for a symmetric seed.
_FAMILIES = {
    "forward": ({1: 1, 0: -1}, 1, 1),
    "shifted": ({1: 1}, 0, 1),
    "symmetric_odd": ({1: 1, -1: -1}, 1, 2),
    "symmetric_even": ({1: 1, 0: -2, -1: 1}, 2, 2),
}


def _family(family: str, n: int) -> tuple[dict, range]:
    """(seed, j-range) of a _FAMILIES row at order n."""
    if family not in _FAMILIES:
        raise StencilError(f"unknown normalizer family {family!r}")
    seed, first, step = _FAMILIES[family]
    if (n - first) % step:
        raise StencilError(f"{family} requires {'odd' if first % 2 else 'even'} order")
    return seed, range(first, n, step)


def _normalizer(seed: dict, js: range, n: int, q: Fraction) -> Fraction:
    """n! over the n-th moment of seed * prod_{j in js} (E - q^j)."""
    qn = q**n
    moment = math.prod(qn - q**j for j in js) * sum(c * a**n for a, c in seed.items())
    return Fraction(math.factorial(n)) / moment


@dataclass(frozen=True)
class GaussianNormalizer:
    """The rational factor that scales a raw q-power difference so its n-th
    moment equals n!.  family is one of forward / shifted / symmetric_even /
    symmetric_odd."""

    family: str
    value: Fraction

    @classmethod
    def compute(cls, family: str, n: int, q) -> "GaussianNormalizer":
        q = _validate_q(q)
        _check_order(n)
        return cls(family=family, value=_normalizer(*_family(family, n), n, q))


# -- the moment solver --------------------------------------------------------


def vandermonde_solve(nodes, n: int) -> Stencil:
    """Solve the moment system on the given nodes for derivative order n.

    Exactly n+1 distinct rational nodes a_0..a_n are required; anything else
    is unsupported here.  The unique solution is n! times the weights of the
    n-th divided difference,

        A_k = n! / prod_{j != k} (a_k - a_j),

    computed exactly in O(n^2); distinct nodes make every A_k finite and
    nonzero.
    """
    _check_order(n)
    pts = [Fraction(a) for a in nodes]
    if len(set(pts)) != len(pts):
        raise StencilError("duplicate nodes")
    if len(pts) != n + 1:
        raise ExcessNodesError(
            f"need exactly {n + 1} nodes for order {n}, got {len(pts)}; "
            "excess-node systems are not supported"
        )
    fact = math.factorial(n)
    coeffs = [fact / math.prod(ak - aj for j, aj in enumerate(pts) if j != k)
              for k, ak in enumerate(pts)]
    return Stencil(order=n, nodes=tuple(pts), coeffs=tuple(coeffs), kind="custom", q=None)


# -- closed-form families -----------------------------------------------------


def _expand(seed: dict, js: range, q: Fraction) -> dict:
    """Raw node->coefficient map of seed * prod_{j in js} (E - q^j).

    With N = len(js) and r = q^step the q-binomial theorem gives
        prod_j (E - q^j) = sum_k t_k E^(N-k),
        t_k = (-1)^k q^(first k) r^C(k,2) [N k]_r,
    and E^(N-k) dilates the seed's nonzero nodes by q^(N-k).  The ratio
    identity [N k]_r = [N k-1]_r (1 - r^(N-k+1)) / (1 - r^k) makes t_k a
    running product from t_0 = 1.  E fixes node 0, so its coefficient is
    c_0 * prod_j (1 - q^j).
    """
    N, r, lead = len(js), q**js.step, -(q**js.start)
    mapping = {}
    t = Fraction(1)
    for k in range(N + 1):
        if k:
            t *= lead * r ** (k - 1) * (1 - r ** (N - k + 1)) / (1 - r**k)
        d = q ** (N - k)
        for a, ca in seed.items():
            if a:
                mapping[d * a] = t * ca
    if 0 in seed:
        mapping[Fraction(0)] = math.prod(1 - q**j for j in js) * seed[0]
    return mapping


def _gaussian(name: str, n: int, q, raw) -> Stencil:
    """The GAUSSIAN_BUILDERS family `name` at order n, normalized, from
    raw(seed, js, q), the map of seed * prod_{j in js} (E - q^j)."""
    q = _validate_q(q)
    _check_order(n)
    if name not in GAUSSIAN_FAMILIES:  # only recursive_build passes a caller's name
        raise StencilError(f"unknown recursion family {name!r}; expected one of {GAUSSIAN_FAMILIES}")
    seed, js = _family(f"symmetric_{'odd' if n % 2 else 'even'}" if name == "symmetric" else name, n)
    lam = _normalizer(seed, js, n, q)
    mapping = raw(seed, js, q)
    return Stencil(n, tuple(mapping), tuple(lam * c for c in mapping.values()), "gaussian_" + name, q)


def gaussian_forward(n: int, q) -> Stencil:
    """Order-n forward difference on nodes {0, 1, q, ..., q^(n-1)}."""
    return _gaussian("forward", n, q, _expand)


def gaussian_shifted(n: int, q) -> Stencil:
    """Order-n shifted difference on nodes {1, q, ..., q^n}."""
    return _gaussian("shifted", n, q, _expand)


def gaussian_symmetric(n: int, q) -> Stencil:
    """Order-n symmetric difference on nodes {+-q^i} (plus 0 for even n).

    The closed form is cross-checked against vandermonde_solve, the O(n^2)
    divided-difference solution, on the same node set; the solver is
    authoritative, so a closed-form slip raises instead of shipping silently.
    """
    built = _gaussian("symmetric", n, q, _expand)
    solved = vandermonde_solve(built.nodes, n)
    if not same_difference(built, solved):
        raise AssertionError(
            f"closed-form symmetric stencil disagrees with moment solve at n={n}, q={built.q}"
        )
    return built


def riemann_classic(n: int) -> Stencil:
    """Classical order-n difference: coefficient (-1)^k C(n,k) at node n-k."""
    _check_order(n)
    mapping = {Fraction(n - k): Fraction((-1) ** k * math.comb(n, k)) for k in range(n + 1)}
    return _from_map(n, mapping, "riemann", None)


def riemann_symmetric(n: int) -> Stencil:
    """Classical symmetric order-n difference: (-1)^k C(n,k) at node n/2 - k."""
    _check_order(n)
    mapping = {Fraction(n, 2) - k: Fraction((-1) ** k * math.comb(n, k)) for k in range(n + 1)}
    return _from_map(n, mapping, "riemann_symmetric", None)


def mz_stencil(n: int) -> Stencil:
    """The q = 2 forward stencil on nodes {0, 1, 2, 4, ..., 2^(n-1)}."""
    base = gaussian_forward(n, Fraction(2))
    return Stencil(order=n, nodes=base.nodes, coeffs=base.coeffs, kind="mz", q=Fraction(2))


# The one map from the CLI's --kind names to builders.  Gaussian builders take
# (n, q), classical ones take n; "custom" goes through vandermonde_solve.  The
# order forward, shifted, symmetric is fixed: seeded suites index into it.
GAUSSIAN_BUILDERS = {
    "forward": gaussian_forward,
    "shifted": gaussian_shifted,
    "symmetric": gaussian_symmetric,
}
CLASSICAL_BUILDERS = {
    "mz": mz_stencil,
    "riemann": riemann_classic,
    "riemann-symmetric": riemann_symmetric,
}
GAUSSIAN_FAMILIES = tuple(GAUSSIAN_BUILDERS)


# -- recursive construction ---------------------------------------------------


def _dilate(mapping: dict, r: Fraction) -> dict:
    return {r * a: c for a, c in mapping.items()}


def _combine(mapping_q: dict, mapping_1: dict, factor: Fraction) -> dict:
    """mapping_q - factor * mapping_1, dropping exact zeros."""
    out = dict(mapping_q)
    for a, c in mapping_1.items():
        out[a] = out.get(a, Fraction(0)) - factor * c
    return {a: c for a, c in out.items() if c != 0}


def _recurse(seed: dict, js: range, q: Fraction) -> dict:
    """seed * prod_{j in js} (E - q^j), one factor at a time."""
    mapping = dict(seed)
    for j in js:
        mapping = _combine(_dilate(mapping, q), mapping, q**j)
    return mapping


def recursive_build(family: str, n: int, q) -> Stencil:
    """Build a geometric-node stencil by the order-raising recursion.

    Each factor (E - q^j) of the family's product is one step
        D(h) <- D(q h) - q^j D(h),
    so forward / shifted raise the order by one per step and the symmetric
    family by two; the family's normalizing factor follows.  The result must
    equal the closed form exactly.
    """
    return _gaussian(family, n, q, _recurse)


# -- transforms and checks ----------------------------------------------------


def scale(s: Stencil, r) -> Stencil:
    """Scale a stencil by r: nodes r*a_k, coefficients r^(-n) A_k.

    Preserves every moment condition; kind and q are carried along as
    lineage, so scale(s, 1) == s and scale(scale(s, r), 1/r) == s exactly.
    """
    r = Fraction(r)
    if r == 0:
        raise StencilError("scale factor must be nonzero")
    rn = r ** (-s.order)
    return Stencil(
        order=s.order,
        nodes=tuple(r * a for a in s.nodes),
        coeffs=tuple(rn * c for c in s.coeffs),
        kind=s.kind,
        q=s.q,
    )


def verify_vandermonde(s: Stencil) -> list[tuple[int, Fraction]]:
    """Exact residuals (j, sum_k A_k a_k^j - target_j) for j = 0..order."""
    out = []
    for j in range(s.order + 1):
        total = sum((c * a**j for a, c in zip(s.nodes, s.coeffs)), Fraction(0))
        target = Fraction(math.factorial(s.order)) if j == s.order else Fraction(0)
        out.append((j, total - target))
    return out


def is_symmetric(s: Stencil) -> bool:
    """True iff the node set is symmetric about 0 with coefficients matching
    under a -> -a up to the parity sign (-1)^order."""
    sign = -1 if s.order % 2 else 1
    m = s.as_map()
    for a, c in m.items():
        if -a not in m or m[-a] != sign * c:
            return False
    return True


# -- canonical JSON -----------------------------------------------------------


def stencil_to_jsonable(s: Stencil) -> dict:
    """The canonical JSON object: fixed key order, 'p/r' rational strings,
    ascending nodes."""
    return {
        "order": s.order,
        "kind": s.kind,
        "q": None if s.q is None else format_rational(s.q),
        "nodes": [format_rational(a) for a in s.nodes],
        "coeffs": [format_rational(c) for c in s.coeffs],
    }


def stencil_to_json(s: Stencil) -> str:
    return json.dumps(stencil_to_jsonable(s), indent=2)


def stencil_from_json(text: str) -> Stencil:
    """Parse the canonical JSON form back into a Stencil."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StencilError(f"bad stencil JSON: {exc}") from exc
    required = {"order", "kind", "q", "nodes", "coeffs"}
    if not isinstance(obj, dict) or not required.issubset(obj):
        raise StencilError(f"stencil JSON must carry keys {sorted(required)}")
    return Stencil(
        order=obj["order"],
        nodes=tuple(parse_rational(a) for a in obj["nodes"]),
        coeffs=tuple(parse_rational(c) for c in obj["coeffs"]),
        kind=obj["kind"],
        q=None if obj["q"] is None else parse_rational(obj["q"]),
    )
