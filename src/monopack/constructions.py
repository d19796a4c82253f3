"""Builders for the named extremal families and their explicit packings.

Pentagon blow-ups, the bipartite-minus-matching colourings, the closed-form
pack values of the listed blob-size families, and the explicit two-blob and
three-blob fractional packings.  The two- and three-blob constructions
return a host graph whose present edges are red (missing cross edges are
blue, so they carry no red triangle) together with an exact packing whose
stated postconditions are asserted before returning: inside edges get total
weight exactly 1/2 (exactly 1 for the middle blob of the three-blob case),
cross edges at most 1, and only cross triangles are used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb

from .graph import BLUE, RED, ColoredGraph, Edge, norm_edge
from .lp import FractionalPacking, solve_loads, triangle_edges
from .simplex import ZERO
from .structure import PentagonCert

HALF = Fraction(1, 2)

# blob-size families with proved closed-form pack values; the second family
# is the one proved for single-edge-flip variants
B1 = frozenset(
    {
        (3, 3, 3, 4, 4), (2, 3, 4, 4, 4), (3, 3, 3, 3, 5), (3, 3, 4, 4, 4),
        (2, 4, 4, 4, 4), (3, 3, 3, 4, 5), (3, 4, 4, 4, 4), (3, 3, 4, 4, 5),
        (4, 4, 4, 4, 4), (3, 4, 4, 4, 5), (4, 4, 4, 4, 5), (3, 4, 4, 5, 5),
        (4, 4, 4, 5, 5), (4, 4, 5, 5, 5), (4, 5, 5, 5, 5), (5, 5, 5, 5, 5),
    }
)
B2 = frozenset(
    {
        (3, 3, 3, 4, 4), (3, 3, 4, 4, 4), (3, 4, 4, 4, 4),
        (4, 4, 4, 4, 4), (4, 4, 4, 4, 5),
    }
)

# (sizes, flipped, pack) rows of the blow-up family table
TABLE1: tuple[tuple[tuple[int, ...], bool, int], ...] = (
    ((3, 3, 3, 4, 4), False, 63),
    ((3, 3, 3, 4, 4), True, 66),
    ((2, 3, 4, 4, 4), False, 66),
    ((3, 3, 3, 3, 5), False, 66),
    ((3, 3, 4, 4, 4), False, 72),
    ((3, 3, 4, 4, 4), True, 75),
    ((2, 4, 4, 4, 4), False, 75),
    ((3, 3, 3, 4, 5), False, 75),
    ((3, 4, 4, 4, 4), False, 81),
    ((3, 4, 4, 4, 4), True, 84),
    ((3, 3, 4, 4, 5), False, 84),
    ((4, 4, 4, 4, 4), False, 90),
    ((4, 4, 4, 4, 4), True, 93),
    ((3, 4, 4, 4, 5), False, 93),
    ((4, 4, 4, 4, 5), False, 102),
    ((4, 4, 4, 4, 5), True, 105),
    ((3, 4, 4, 5, 5), False, 105),
    ((4, 4, 4, 5, 5), False, 114),
    ((4, 4, 5, 5, 5), False, 126),
    ((4, 5, 5, 5, 5), False, 138),
    ((5, 5, 5, 5, 5), False, 150),
)


@dataclass(frozen=True)
class BlobSpec:
    """Blob sizes plus per-blob interior colourings.

    Each interior entry is a single colour applied to the whole blob, or an
    explicit {(local_i, local_j): colour} map over 0-based blob positions.
    """

    sizes: tuple[int, ...]
    interiors: tuple = (RED, RED, RED, RED, RED)

    def __post_init__(self):
        if len(self.sizes) != 5 or any(s < 1 for s in self.sizes):
            raise ValueError(f"need five positive blob sizes, got {self.sizes}")
        if len(self.interiors) != 5:
            raise ValueError("need one interior rule per blob")
        for s, rule in zip(self.sizes, self.interiors):
            if rule in (RED, BLUE):
                continue
            want = {(i, j) for i, j in combinations(range(s), 2)}
            if set(rule) != want:
                raise ValueError(f"explicit interior must colour exactly {want}")
            if any(c not in (RED, BLUE) for c in rule.values()):
                raise ValueError("interior colours must be R or B")


def pentagon_blowup(spec: BlobSpec) -> tuple[ColoredGraph, PentagonCert]:
    """Blow-up with A_i - A_{i+1} red and A_i - A_{i+2} blue (indices mod 5)."""
    starts = []
    v = 0
    for s in spec.sizes:
        starts.append(v)
        v += s
    n = v
    blobs = tuple(
        tuple(range(starts[i], starts[i] + spec.sizes[i])) for i in range(5)
    )
    red: set[Edge] = set()
    for i in range(5):
        rule = spec.interiors[i]
        for pa, pb in combinations(range(spec.sizes[i]), 2):
            c = rule if rule in (RED, BLUE) else rule[(pa, pb)]
            if c == RED:
                red.add((starts[i] + pa, starts[i] + pb))
        for a in blobs[i]:
            for b in blobs[(i + 1) % 5]:
                red.add((min(a, b), max(a, b)))
    g = ColoredGraph.from_red_edges(n, red)
    cert = PentagonCert(blobs, ())
    assert cert.check(g)
    return g, cert


def flipped_blowup(spec: BlobSpec) -> ColoredGraph:
    """Blow-up with one distance-2 cross edge recoloured red."""
    g, cert = pentagon_blowup(spec)
    return g.flip_edge(cert.blobs[0][0], cert.blobs[2][0])


def bipartite_minus_matching(n: int, m: int) -> ColoredGraph:
    """Blue class K_{ceil(n/2), floor(n/2)} minus an m-edge matching; red is
    the complement (two cliques plus the matching)."""
    half = n // 2
    if not 0 <= m <= half:
        raise ValueError(f"matching size {m} outside 0..{half} for n={n}")
    top = n - half  # part {0..top-1}; other part {top..n-1}
    red: set[Edge] = set()
    for part in (range(top), range(top, n)):
        red.update(combinations(part, 2))
    red.update((i, top + i) for i in range(m))
    return ColoredGraph.from_red_edges(n, red)


def pentagon_pack_closed_form(sizes, flipped: bool) -> Fraction:
    """Closed-form pack value for a blow-up (or one-flip variant) whose size
    multiset belongs to the proved family."""
    key = tuple(sorted(sizes))
    family = B2 if flipped else B1
    if key not in family:
        raise ValueError(
            f"sizes {key} are outside the proved family; compute the value by LP"
        )
    base = sum(comb(s, 2) for s in key)
    return Fraction(3 * (base + 1) if flipped else 3 * base)


# -- two-blob packings -----------------------------------------------------


def _host(n: int, absent: set[Edge]) -> ColoredGraph:
    """Graph on n vertices: every pair red except the `absent` ones, which
    are blue."""
    red = {e for e in combinations(range(n), 2) if e not in absent}
    return ColoredGraph.from_red_edges(n, red)


def _check_two_blob(
    packing: FractionalPacking, n_a: int, n_b: int, missing: set[Edge]
) -> None:
    loads = packing.edge_loads()
    for t in packing.weights:
        sides = {v >= n_a for v in t}
        assert len(sides) == 2, f"non-cross triangle {t}"
        assert not any(norm_edge(e) in missing for e in triangle_edges(t))
    for part in (range(n_a), range(n_a, n_a + n_b)):
        for e in combinations(part, 2):
            assert loads.get(e, ZERO) == HALF, f"inside edge {e}: {loads.get(e)}"
    for a in range(n_a):
        for b in range(n_a, n_a + n_b):
            if (a, b) in missing:
                assert (a, b) not in loads
            else:
                assert loads.get((a, b), ZERO) <= 1, f"cross edge {(a, b)} overloaded"


def _matching_weights(
    n_a: int, n_b: int, missing: set[Edge], saturate: bool = False
) -> FractionalPacking:
    """Cross triangles weighted 1/(2d), d = common cross-neighbours of the
    same-side pair.

    With `saturate`, the missing matching is augmented with virtual missing
    edges until it saturates the smaller side; this is the regime the weights
    are proved feasible in, and dropping extra cross edges keeps the packing
    valid in the denser true host.
    """
    a_verts = range(n_a)
    b_verts = range(n_a, n_a + n_b)
    if saturate:
        missing = set(missing)
        free_a = [a for a in a_verts if all(a not in e for e in missing)]
        free_b = [b for b in b_verts if all(b not in e for e in missing)]
        if n_a <= n_b:
            missing.update(zip(free_a, free_b))
        else:
            missing.update((a, b) for b, a in zip(free_b, free_a))
    adj = {
        (a, b): (a, b) not in missing for a in a_verts for b in b_verts
    }
    weights = {}
    for u, v in combinations(a_verts, 2):
        mates = [b for b in b_verts if adj[(u, b)] and adj[(v, b)]]
        for b in mates:
            weights[(u, v, b)] = Fraction(1, 2 * len(mates))
    for u, v in combinations(b_verts, 2):
        mates = [a for a in a_verts if adj[(a, u)] and adj[(a, v)]]
        for a in mates:
            weights[(a, u, v)] = Fraction(1, 2 * len(mates))
    return FractionalPacking(RED, weights)


def ab_packing(
    case: str, n_a: int, n_b: int, missing=()
) -> tuple[ColoredGraph, FractionalPacking]:
    """Two-blob cross-triangle packing with inside edges weighted exactly 1/2.

    A = vertices 0..n_a-1, B = n_a..n_a+n_b-1; `missing` lists absent cross
    edges as vertex pairs.  Cases:
      a: complete cross graph, 2 <= |A| <= |B| <= |A| + 2
      b: cross graph minus a matching, 3 <= |A| <= |B| <= |A| + 1
      c: cross graph minus two edges meeting at A, 3 <= |A| <= |B| <= |A| + 1
      d: |A| = 3, |B| = 5, cross graph minus a matching of size 2
    """
    missing = {norm_edge(e) for e in missing}
    for a, b in missing:
        if not (0 <= a < n_a <= b < n_a + n_b):
            raise ValueError(f"missing edge ({a}, {b}) is not a cross pair")
    a_verts = list(range(n_a))
    b_verts = list(range(n_a, n_a + n_b))

    if case == "a":
        if not (2 <= n_a <= n_b <= n_a + 2):
            raise ValueError(f"case a needs 2 <= |A| <= |B| <= |A|+2, got {n_a}, {n_b}")
        if missing:
            raise ValueError("case a needs a complete cross graph")
        packing = _matching_weights(n_a, n_b, missing)
    elif case == "b":
        if not (3 <= n_a <= n_b <= n_a + 1):
            raise ValueError(f"case b needs 3 <= |A| <= |B| <= |A|+1, got {n_a}, {n_b}")
        ends = [v for e in missing for v in e]
        if len(set(ends)) != len(ends):
            raise ValueError("case b needs the missing edges to form a matching")
        packing = _matching_weights(n_a, n_b, missing, saturate=True)
    elif case == "c":
        packing = _two_edges_at_a(n_a, n_b, missing)
    elif case == "d":
        packing = _three_five(n_a, n_b, missing)
    else:
        raise ValueError(f"unknown case {case!r}")

    g = _host(n_a + n_b, missing)
    packing.check_feasible(g)
    _check_two_blob(packing, n_a, n_b, missing)
    return g, packing


def _two_edges_at_a(n_a: int, n_b: int, missing: set[Edge]) -> FractionalPacking:
    """Two missing cross edges sharing their A endpoint.

    No closed-form weighting covers both |B| = |A| and |B| = |A| + 1, so
    this case is solved directly as an exact demand/capacity program over the
    cross triangles: inside edges must total exactly 1/2, cross edges at
    most 1.
    """
    if not (3 <= n_a <= n_b <= n_a + 1):
        raise ValueError(f"case c needs 3 <= |A| <= |B| <= |A|+1, got {n_a}, {n_b}")
    if len(missing) != 2:
        raise ValueError("case c needs exactly two missing edges")
    (x1, y), (x2, z) = sorted(missing)
    if x1 != x2 or y == z:
        raise ValueError("case c needs the two missing edges to meet at A")

    demand = {}
    for part in (range(n_a), range(n_a, n_a + n_b)):
        for e in combinations(part, 2):
            demand[e] = HALF
    capacity = {
        (a, b): Fraction(1)
        for a in range(n_a)
        for b in range(n_a, n_a + n_b)
        if (a, b) not in missing
    }
    cross = (
        [(u, v, b) for u, v in combinations(range(n_a), 2)
         for b in range(n_a, n_a + n_b)
         if (u, b) not in missing and (v, b) not in missing]
        + [(a, u, v) for u, v in combinations(range(n_a, n_a + n_b), 2)
           for a in range(n_a)
           if (a, u) not in missing and (a, v) not in missing]
    )
    packing, _ = solve_loads(cross, demand, capacity)
    assert packing is not None, "cross-triangle completion is infeasible"
    return packing


def _three_five(n_a: int, n_b: int, missing: set[Edge]) -> FractionalPacking:
    """|A| = 3, |B| = 5, missing a 2-matching: the fixed weight table."""
    if (n_a, n_b) != (3, 5):
        raise ValueError(f"case d needs |A| = 3 and |B| = 5, got {n_a}, {n_b}")
    ends = [v for e in missing for v in e]
    if len(missing) != 2 or len(set(ends)) != 4:
        raise ValueError("case d needs a missing matching of size 2")
    a_prime = {v for v in ends if v < n_a}
    b_prime = {v for v in ends if v >= n_a}
    weights = {}
    for t in combinations(range(n_a + n_b), 3):
        in_a = [v for v in t if v < n_a]
        in_b = [v for v in t if v >= n_a]
        if not in_a or not in_b:
            continue
        if any(norm_edge((a, b)) in missing for a in in_a for b in in_b):
            continue
        na_p = sum(1 for v in in_a if v in a_prime)
        nb_p = sum(1 for v in in_b if v in b_prime)
        if nb_p == 2:
            w = HALF
        elif na_p >= 1 and nb_p == 1 and len(in_b) == 2:
            w = Fraction(1, 3)
        elif na_p >= 1 and len(in_a) == 2 and nb_p == 1:
            w = ZERO
        else:
            w = Fraction(1, 6)
        if w > 0:
            weights[t] = w
    return FractionalPacking(RED, weights)


# -- three-blob packings ---------------------------------------------------


def abc_packing(
    n_b: int, n_c: int, missing_ab=(), missing_bc=()
) -> tuple[ColoredGraph, FractionalPacking]:
    """Three-blob packing: A of size 2, then B, then C; cross triangles only,
    A- and C-edges weighted exactly 1/2 and B-edges exactly 1.

    The A-C cross pairs are absent entirely; `missing_ab`/`missing_bc` list
    further absent pairs, which together must form a matching on B with at
    most two edges into C.  Missing pairs use global vertex numbers
    (A = 0..1, B = 2..2+n_b-1, C follows).
    """
    if n_b not in (3, 4) or n_c not in (3, 4):
        raise ValueError(f"need |B|, |C| in {{3, 4}}, got {n_b}, {n_c}")
    n_a = 2
    b_lo, b_hi = n_a, n_a + n_b
    n = n_a + n_b + n_c
    m_ab = {norm_edge(e) for e in missing_ab}
    m_bc = {norm_edge(e) for e in missing_bc}
    for a, b in m_ab:
        if not (a < n_a <= b < b_hi):
            raise ValueError(f"({a}, {b}) is not an A-B pair")
    for b, c in m_bc:
        if not (b_lo <= b < b_hi <= c < n):
            raise ValueError(f"({b}, {c}) is not a B-C pair")
    if len(m_bc) > 2:
        raise ValueError("at most two missing edges between B and C")
    ends = [v for e in m_ab | m_bc for v in e]
    if len(set(ends)) != len(ends):
        raise ValueError("missing edges must form a matching")

    # augment with virtual missing edges so every B vertex misses exactly one
    # cross edge; a packing of the sparser graph remains valid
    m_ab, m_bc = set(m_ab), set(m_bc)
    want_bc = 2 if (len(m_bc) == 2 or n_b == 4) else 1
    free_b = [b for b in range(b_lo, b_hi) if all(b not in e for e in m_ab | m_bc)]
    free_c = [c for c in range(b_hi, n) if all(c not in e for e in m_bc)]
    free_a = [a for a in range(n_a) if all(a not in e for e in m_ab)]
    while len(m_bc) < want_bc and free_b:
        m_bc.add(norm_edge((free_b.pop(), free_c.pop())))
    while free_b and free_a:
        m_ab.add(norm_edge((free_a.pop(), free_b.pop())))
    assert not free_b and len(m_ab) == n_b - want_bc and len(m_bc) == want_bc

    weights: dict = {}

    def add(t, w):
        if w > 0:
            t = tuple(sorted(t))
            weights[t] = weights.get(t, ZERO) + w

    missing = m_ab | m_bc
    b_primed = sorted({b for b in range(b_lo, b_hi) if any(b in e for e in m_ab)})

    if n_b == 4:
        b1, b2 = b_primed
        b_rest = [b for b in range(b_lo, b_hi) if b not in b_primed]
        for a in range(n_a):
            for bp in b_primed:
                if norm_edge((a, bp)) in m_ab:
                    continue
                for b in b_rest:
                    add((a, bp, b), HALF)
            for b, b2_ in combinations(b_rest, 2):
                add((a, b, b2_), Fraction(1, 4))
        for b in b_rest:
            add((0, 1, b), Fraction(1, 4))
        _add_c_side(add, n_a, n_b, n_c, m_bc, b1, b2, n)
    else:
        if len(m_ab) == 2:
            # two A-B missing edges and one B-C: three cross triangles at 1/2
            b1, b2 = b_primed
            (b3,) = [b for b in range(b_lo, b_hi) if b not in b_primed]
            for a in range(n_a):
                for bp in b_primed:
                    if norm_edge((a, bp)) not in m_ab:
                        add((a, bp, b3), HALF)
            add((0, 1, b3), HALF)
            _add_c_side(add, n_a, n_b, n_c, m_bc, b1, b2, n)
        else:
            # one A-B missing edge and two B-C: 1/2 on the triangles at the
            # primed B vertex, 1/4 elsewhere, then a plain matching packing
            (b3,) = b_primed
            (a_ok,) = [a for a in range(n_a) if norm_edge((a, b3)) not in m_ab]
            b_rest = [b for b in range(b_lo, b_hi) if b != b3]
            for b in b_rest:
                add((a_ok, b3, b), HALF)
            for a in range(n_a):
                add((a, b_rest[0], b_rest[1]), Fraction(1, 4))
            for b in b_rest:
                add((0, 1, b), Fraction(1, 4))
            sub = _matching_weights_at(n_b, n_c, b_lo, b_hi, n, m_bc)
            for t, w in sub.items():
                add(t, w)

    absent = missing | {(a, c) for a in range(n_a) for c in range(b_hi, n)}
    g = _host(n, absent)
    packing = FractionalPacking(RED, dict(weights))
    packing.check_feasible(g)
    _check_three_blob(packing, n_a, b_lo, b_hi, n, missing)
    return g, packing


def _add_c_side(add, n_a, n_b, n_c, m_bc, b1, b2, n) -> None:
    """Average of two matching packings of G[B, C], each avoiding one edge
    b_i c, plus the b1 b2 c triangle at 1/2."""
    b_lo, b_hi = n_a, n_a + n_b
    c = next(
        v for v in range(b_hi, n) if all(v not in e for e in m_bc)
    )
    add((b1, b2, c), HALF)
    for bi in (b1, b2):
        sub = _matching_weights_at(
            n_b, n_c, b_lo, b_hi, n, m_bc | {norm_edge((bi, c))}
        )
        for t, w in sub.items():
            add(t, w / 2)


def _matching_weights_at(
    n_b: int, n_c: int, b_lo: int, b_hi: int, n: int, missing: set[Edge]
) -> dict:
    """Matching-case two-blob weights between B and C at their true offsets."""
    packing = _matching_weights(
        n_b, n_c, {(b - b_lo, c - b_lo) for b, c in missing}, saturate=True
    )
    return {
        tuple(sorted(v + b_lo for v in t)): w for t, w in packing.weights.items()
    }


def _check_three_blob(
    packing: FractionalPacking, n_a: int, b_lo: int, b_hi: int, n: int, missing
) -> None:
    loads = packing.edge_loads()
    blob = lambda v: 0 if v < n_a else (1 if v < b_hi else 2)
    for t in packing.weights:
        assert len({blob(v) for v in t}) == 2, f"non-cross triangle {t}"
    for part, want in (
        (range(n_a), HALF),
        (range(b_lo, b_hi), Fraction(1)),
        (range(b_hi, n), HALF),
    ):
        for e in combinations(part, 2):
            assert loads.get(e, ZERO) == want, f"edge {e}: {loads.get(e)} != {want}"
    for e, load in loads.items():
        assert load <= 1, f"edge {e} overloaded: {load}"
