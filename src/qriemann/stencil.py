"""Difference stencils for n-th order generalized derivatives.

A stencil is a finite node/coefficient pair (a_k, A_k) meant to satisfy the
moment conditions

    sum_k A_k a_k^j = 0      for j = 0..n-1,
    sum_k A_k a_k^n = n!,

so that sum_k A_k f(x + a_k h) / h^n converges to the n-th derivative for
smooth f.  This module builds the classical equally-spaced stencils, the
divided-difference solution of the moment system on any nodes, and the
geometric-node (q-power) families, entirely over the rationals.  Both
classical stencils come from one closed form, (-1)^k C(n,k) at node top - k
with top = n or n/2; mz is the q = 2 forward family under its own kind.

Each q-power family is a seed difference times prod_j (E - q^j), where E
dilates by q (E delta_a = delta_{qa}) and j runs over range(first, n, step);
_FAMILIES holds the seed, first and step of each.  Both builders work on the
integers of q = u/v and key their map by (a, k) for node a u^k / v^k.  The
closed form expands that product by the q-binomial theorem, taking each term
from the last by one Fraction of integers; recursive_build applies its
factors one at a time to integer coefficients over v^(sum j).  Either map is
scaled to n-th moment n! by one normalizing constant, which is the built
stencil's coefficient at q^N: the closed form's running product starts at
it, and recursive_build multiplies each coefficient by it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
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


def _abbreviated(text: str) -> str:
    """text as an error message shows it: its first 20 characters and
    '...' where it is longer than 24."""
    return text if len(text) <= 24 else text[:20] + "..."


def parse_rational(text: str) -> Fraction:
    """Parse text into a Fraction exactly, as Fraction(str) reads it: an
    integer 'p', a quotient 'p/r', or a decimal literal such as '1.5' or
    '-2e-3', with surrounding whitespace; reject anything else."""
    if not isinstance(text, str):
        raise StencilError(f"expected a rational string, got {type(text).__name__}")
    s = text.strip()
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise StencilError(f"not a rational 'p' or 'p/r': {text!r}") from exc


def _finite_rational(x, what: str, error=StencilError) -> Fraction:
    try:
        return Fraction(x)
    except (OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise error(f"{what} must be a finite rational, got {x!r}") from exc


def _validate_q(q) -> Fraction:
    q = _finite_rational(q, "ratio q")
    if q.denominator == 1 and abs(q.numerator) <= 1:
        raise StencilError("ratio q must avoid 0, 1 and -1")
    return q


def _check_order(n) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise StencilError("order must be an integer >= 1")


def _over_common_denominator(xs) -> tuple[int, list[int]]:
    """(D, [x * D for x in xs]) with D the lcm of the denominators of the
    Fractions xs, so each x is P / D with integer P."""
    d = math.lcm(*(x.denominator for x in xs))
    return d, [x.numerator * (d // x.denominator) for x in xs]


# -- the stencil itself -------------------------------------------------------


@dataclass(frozen=True)
class Stencil:
    """Immutable node/coefficient stencil of a given derivative order.

    Nodes are kept sorted ascending with coefficients aligned, and also as
    node_ints = (D, (P_0, ..., P_n)), a_k = P_k / D over the lcm D of their
    denominators: the integers construction sorts on, which same_difference,
    moments and the evaluator read.  node_ints is not a field.  Nodes must
    be distinct and coefficients nonzero.  Construction does not verify the
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
        nodes = [a if type(a) is Fraction else _finite_rational(a, "node") for a in self.nodes]
        coeffs = [c if type(c) is Fraction else _finite_rational(c, "coefficient")
                  for c in self.coeffs]
        if len(nodes) != len(coeffs):
            raise StencilError("nodes and coeffs must have equal length")
        if not nodes:
            raise StencilError("a stencil needs at least one node")
        d, ps = _over_common_denominator(nodes)
        order = sorted(range(len(ps)), key=ps.__getitem__)
        if any(ps[i] == ps[j] for i, j in zip(order, order[1:])):
            raise StencilError("duplicate nodes")
        if not all(c.numerator for c in coeffs):
            raise StencilError("zero coefficients are not stored; drop the node instead")
        object.__setattr__(self, "nodes", tuple(nodes[i] for i in order))
        object.__setattr__(self, "coeffs", tuple(coeffs[i] for i in order))
        object.__setattr__(self, "node_ints", (d, tuple(ps[i] for i in order)))
        q = self.q
        if q is not None and type(q) is not Fraction:
            object.__setattr__(self, "q", _finite_rational(q, "ratio q"))

    def as_map(self) -> dict:
        return dict(zip(self.nodes, self.coeffs))

    def coeff_at(self, node) -> Fraction:
        node = _finite_rational(node, "node")
        for a, c in zip(self.nodes, self.coeffs):
            if a == node:
                return c
        raise StencilError(f"no node {format_rational(node)} in stencil")

    def __len__(self) -> int:
        return len(self.nodes)


def same_difference(a: Stencil, b: Stencil) -> bool:
    """True when two stencils define the same difference: equal order,
    node_ints (D included) and coeffs, ignoring kind/q bookkeeping."""
    return a.order == b.order and a.node_ints == b.node_ints and a.coeffs == b.coeffs


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


# -- the moment solver --------------------------------------------------------


def vandermonde_solve(nodes, n: int) -> Stencil:
    """Solve the moment system on the given nodes for derivative order n.

    Exactly n+1 distinct rational nodes a_0..a_n are required; anything else
    is unsupported here.  The unique solution is n! times the weights of the
    n-th divided difference,

        A_k = n! / prod_{j != k} (a_k - a_j),

    computed exactly in O(n^2); distinct nodes make every A_k finite and
    nonzero.  Over the common denominator D of the nodes, a_k = P_k / D with
    integer P_k, so A_k = n! D^n / prod_{j != k} (P_k - P_j): one integer
    product per k and one division.
    """
    _check_order(n)
    pts = [a if type(a) is Fraction else _finite_rational(a, "node") for a in nodes]
    d, ps = _over_common_denominator(pts)
    if len(set(ps)) != len(ps):
        raise StencilError("duplicate nodes")
    if len(pts) != n + 1:
        raise ExcessNodesError(
            f"need exactly {n + 1} nodes for order {n}, got {len(pts)}; "
            "excess-node systems are not supported"
        )
    top = math.factorial(n) * d**n
    coeffs = [Fraction(top, math.prod(pk - pj for j, pj in enumerate(ps) if j != k))
              for k, pk in enumerate(ps)]
    return Stencil(order=n, nodes=tuple(pts), coeffs=tuple(coeffs), kind="custom", q=None)


# -- closed-form families -----------------------------------------------------


def _expand(seed: dict, js: range, u: int, v: int, lam: Fraction) -> dict:
    """Map {(a, k): coefficient at node a q^k} of lam * seed * prod_{j in js}
    (E - q^j), q = u/v.

    With N = len(js) and r = q^step = U/W the q-binomial theorem gives
        prod_j (E - q^j) = sum_k t_k E^(N-k),
        t_k = (-1)^k q^(first k) r^C(k,2) [N k]_r,
    and E^(N-k) dilates the seed's nonzero nodes by q^(N-k).  The ratio
    identity [N k]_r = [N k-1]_r (1 - r^(N-k+1)) / (1 - r^k) makes lam t_k a
    running product from lam t_0 = lam, by one Fraction of integers per k,
        -u^first U^(k-1) (W^(N-k+1) - U^(N-k+1)) / (v^first W^(N-k) (W^k - U^k)).
    E fixes node 0, so its coefficient is lam c_0 prod_j (v^j - u^j) / v^(sum j),
    one quotient of integers.
    """
    N, first, step = len(js), js.start, js.step
    U = [(u**step) ** i for i in range(N + 1)]
    W = [(v**step) ** i for i in range(N + 1)]
    mapping = {}
    t = lam
    for k in range(N + 1):
        if k:
            t *= Fraction(-(u**first) * U[k - 1] * (W[N - k + 1] - U[N - k + 1]),
                          v**first * W[N - k] * (W[k] - U[k]))
        for a, ca in seed.items():
            if a:
                mapping[a, N - k] = t if ca == 1 else t * ca  # no copy of t at c_a = 1
    if 0 in seed:
        mapping[0, 0] = Fraction(lam.numerator * seed[0] * math.prod(v**j - u**j for j in js),
                                 lam.denominator * v ** sum(js))
    return mapping


def _gaussian(name: str, n: int, q, raw) -> Stencil:
    """The GAUSSIAN_BUILDERS family `name` at order n from
    raw(seed, js, u, v, lam), the map {(a, k): c} of lam * seed *
    prod_{j in js} (E - q^j) at nodes a u^k / v^k, where the normalizer
    lam = n! / (the product's n-th moment) is
    n! v^(nN) / (M_n(seed) prod_j (u^n - u^j v^(n-j))) in integers."""
    q = _validate_q(q)
    _check_order(n)
    if name not in GAUSSIAN_BUILDERS:  # only recursive_build passes a caller's name
        raise StencilError(f"unknown recursion family {name!r}; "
                           f"expected one of {tuple(GAUSSIAN_BUILDERS)}")
    seed, first, step = _FAMILIES[f"symmetric_{'odd' if n % 2 else 'even'}" if name == "symmetric" else name]
    js, u, v = range(first, n, step), q.numerator, q.denominator
    lam = Fraction(math.factorial(n) * v ** (n * len(js)),
                   sum(c * a**n for a, c in seed.items()) * math.prod(u**n - u**j * v ** (n - j) for j in js))
    mapping = raw(seed, js, u, v, lam)
    return Stencil(n, tuple(Fraction(a * u**k, v**k) for a, k in mapping),
                   tuple(mapping.values()), "gaussian_" + name, q)


def gaussian_forward(n: int, q) -> Stencil:
    """Order-n forward difference on nodes {0, 1, q, ..., q^(n-1)}."""
    return _gaussian("forward", n, q, _expand)


def gaussian_shifted(n: int, q) -> Stencil:
    """Order-n shifted difference on nodes {1, q, ..., q^n}."""
    return _gaussian("shifted", n, q, _expand)


def gaussian_symmetric(n: int, q) -> Stencil:
    """Order-n symmetric difference on nodes {+-q^i} (plus 0 for even n)."""
    return _gaussian("symmetric", n, q, _expand)


def _binomial(n: int, d: int, kind: str) -> Stencil:
    """(-1)^k C(n,k) at node n/d - k for k = 0..n, the order checked first."""
    _check_order(n)
    top = Fraction(n, d)
    return Stencil(n, tuple(top - k for k in range(n + 1)),
                   tuple((-1) ** k * math.comb(n, k) for k in range(n + 1)), kind)


def riemann_classic(n: int) -> Stencil:
    """Classical order-n difference: coefficient (-1)^k C(n,k) at node n-k."""
    return _binomial(n, 1, "riemann")


def riemann_symmetric(n: int) -> Stencil:
    """Classical symmetric order-n difference: (-1)^k C(n,k) at node n/2 - k."""
    return _binomial(n, 2, "riemann_symmetric")


def mz_stencil(n: int) -> Stencil:
    """The q = 2 forward stencil on nodes {0, 1, 2, 4, ..., 2^(n-1)}."""
    return replace(gaussian_forward(n, 2), kind="mz")


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


# -- recursive construction ---------------------------------------------------


def _recurse(seed: dict, js: range, u: int, v: int, lam: Fraction) -> dict:
    """The map of _expand, one factor at a time: (E - q^j) takes D to D
    dilated by q minus q^j D, which on integer coefficients C over
    v^(sum j) is C(a, k) <- v^j C(a, k-1) - u^j C(a, k), and (v^j - u^j) C
    at node 0, which E fixes.  One division at the end, then lam times each
    coefficient; exact zeros drop."""
    cols = {a: [c] for a, c in seed.items()}  # a -> [C(a, 0), C(a, 1), ...]
    for j in js:
        uj, vj = u**j, v**j
        for a, cs in cols.items():
            cols[a] = [vj * p - uj * c for p, c in zip([0, *cs], [*cs, 0])] if a else [(vj - uj) * cs[0]]
    den = v ** sum(js)
    return {(a, k): lam * Fraction(c, den) for a, cs in cols.items() for k, c in enumerate(cs) if c}


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
    r = _finite_rational(r, "scale factor")
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


def moments(s: Stencil, upto: int) -> list[Fraction]:
    """Exact moments [M_0, ..., M_upto], M_j = sum_k A_k a_k^j (0^0 = 1).

    With a_k = P_k / D from s.node_ints and A_k = C_k / E over the common
    denominator E of the coefficients,

        M_j = (sum_k C_k P_k^j) / (E D^j),

    so each C_k P_k^j is a running integer, multiplied by P_k per step, and
    each j costs one integer sum and one Fraction.
    """
    d, ps = s.node_ints
    den, terms = _over_common_denominator(s.coeffs)  # den = E D^j below
    out = []
    for j in range(upto + 1):
        if j:
            terms = [t * p for t, p in zip(terms, ps)]
            den *= d
        out.append(Fraction(sum(terms), den))
    return out


def verify_vandermonde(s: Stencil) -> list[tuple[int, Fraction]]:
    """Exact residuals (j, M_j - target_j) for j = 0..order of moments(s,
    order) against the targets (0, ..., 0, n!)."""
    *low, top = moments(s, s.order)
    return [*enumerate(low), (s.order, top - math.factorial(s.order))]


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
    except (ValueError, RecursionError) as exc:  # nesting too deep, an int too long
        raise StencilError(f"bad stencil JSON: {exc}") from exc
    required = {"order", "kind", "q", "nodes", "coeffs"}
    if not isinstance(obj, dict) or not required.issubset(obj):
        raise StencilError(f"stencil JSON must carry keys {sorted(required)}")
    if not (isinstance(obj["nodes"], list) and isinstance(obj["coeffs"], list)):
        raise StencilError("stencil JSON nodes and coeffs must be arrays")
    return Stencil(
        order=obj["order"],
        nodes=tuple(parse_rational(a) for a in obj["nodes"]),
        coeffs=tuple(parse_rational(c) for c in obj["coeffs"]),
        kind=obj["kind"],
        q=None if obj["q"] is None else parse_rational(obj["q"]),
    )
