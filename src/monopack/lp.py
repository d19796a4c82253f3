"""Certified fractional triangle packing computations.

All results are exact rationals.  Every LP here is max c.x over A x <= rhs,
x >= 0, with A the edge x triangle incidence, and `_optimum` is its one
solver.  It builds A once, column-wise (`incidence`), and passes it to the
HiGHS solver that scipy ships.  It snaps the primal and dual solutions to
nearby fractions and accepts them only if they pass the LP duality
certificate, A x <= rhs, A^T y >= c and c.x == rhs.y, checked exactly in
integers on that same A; otherwise the exact rational simplex solves it.

`nu_star` is the case rhs = c = 1: its `Bounds` carries a packing and a
cover of one value, lo == hi.  `solve_loads`, with the prescribed edge loads
as rhs, serves `prescribed_packing` (with `frac_decomposition`, its case of
load 1 on every edge) and the two-blob constructions.  It reads a packing,
whichever optimal vertex was certified, or a Farkas vector off the optimum.

Scaling conventions: `nu_star` values are sums of triangle weights; the
total edge weight of a colouring (the quantity thresholded by the search) is
3 * (nu*_red + nu*_blue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

try:
    from scipy.optimize._highspy import _core as highs
except ImportError as exc:  # scipy < 1.15 has no such binding
    raise ImportError(
        "monopack needs scipy >= 1.15 for its HiGHS binding scipy.optimize._highspy._core"
    ) from exc

from .graph import BLUE, COLORS, RED, ColoredGraph, Edge, Triangle, norm_edge
from .simplex import ONE, ZERO, simplex_max_leq
from .structure import max_disjoint

MAX_DENOMINATOR = 10**6


def triangle_edges(t: Triangle) -> tuple[Edge, Edge, Edge]:
    i, j, k = t
    return (i, j), (i, k), (j, k)


def incidence(triangles: list[Triangle], edges: list[Edge]) -> tuple[list[int], list[int]]:
    """The edge x triangle incidence matrix A column-wise, as HiGHS takes it.

    Row r is edges[r]; column c is triangles[c] (a sorted vertex triple) and
    holds the rows index[start[c]:start[c + 1]], ascending if `edges` is
    sorted.  A triangle edge that is not in `edges` has no row.
    """
    row_of = {e: r for r, e in enumerate(edges)}
    index: list[int] = []
    start = [0]
    for t in triangles:
        for e in triangle_edges(t):
            r = row_of.get(e)
            if r is not None:
                index.append(r)
        start.append(len(index))
    return index, start


def _over_one_denominator(weights) -> tuple[int, list[int]]:
    """The lcm d of the denominators of a collection of weights, and each weight times d."""
    d = math.lcm(*(w.denominator for w in weights))
    return d, [w.numerator * (d // w.denominator) for w in weights]


@dataclass(frozen=True)
class FractionalPacking:
    """Exact rational weights on monochromatic triangles of one colour."""

    color: str
    weights: dict[Triangle, Fraction] = field(default_factory=dict)

    def value(self) -> Fraction:
        d, scaled = _over_one_denominator(self.weights.values())
        return Fraction(sum(scaled), d)

    def edge_loads(self) -> dict[Edge, Fraction]:
        loads: dict[Edge, Fraction] = {}
        for t, w in self.weights.items():
            for e in triangle_edges(t):
                loads[e] = loads.get(e, ZERO) + w
        return loads

    def check_feasible(self, g: ColoredGraph) -> Fraction:
        """The value of this packing in g's colour class; ValueError if infeasible."""
        if self.color not in COLORS:
            raise ValueError(f"colour must be one of {COLORS}, got {self.color!r}")
        d, scaled = _over_one_denominator(self.weights.values())
        mono = self.color * 3
        loads: dict[Edge, int] = {}
        for t, w in zip(self.weights, scaled):
            i, j, k = t
            if g.triangle_colors(i, j, k) != mono:
                raise ValueError(f"triangle {t} is not {self.color}-monochromatic")
            if not 0 <= w <= d:
                raise ValueError(f"triangle {t} has weight {Fraction(w, d)} outside [0, 1]")
            for e in triangle_edges(t):
                loads[e] = loads.get(e, 0) + w
        for e, load in loads.items():
            if load > d:
                raise ValueError(f"edge {e} is overloaded: {Fraction(load, d)}")
        return Fraction(sum(scaled), d)


@dataclass(frozen=True)
class FractionalCover:
    """Non-negative edge weights covering every monochromatic triangle (LP dual)."""

    color: str
    edge_weights: dict[Edge, Fraction] = field(default_factory=dict)

    def value(self) -> Fraction:
        d, scaled = _over_one_denominator(self.edge_weights.values())
        return Fraction(sum(scaled), d)

    def check_feasible(self, g: ColoredGraph) -> Fraction:
        """The value of this cover of g's colour class; ValueError unless it
        is >= 0 and covers each of g's triangles of its colour."""
        d, scaled = _over_one_denominator(self.edge_weights.values())
        by_edge = dict(zip(self.edge_weights, scaled))
        for e, y in by_edge.items():
            if y < 0:
                raise ValueError(f"edge {e} has negative cover weight {Fraction(y, d)}")
        for t in g.monochromatic_triangles(self.color):
            s = sum(by_edge.get(e, 0) for e in triangle_edges(t))
            if s < d:
                raise ValueError(f"triangle {t} is not covered: {Fraction(s, d)} < 1")
        return Fraction(sum(scaled), d)


@dataclass(frozen=True)
class Bounds:
    """lo <= nu* <= hi for one colour class: a feasible packing and a
    feasible cover with their values lo and hi.  `nu_star` returns an
    optimal pair, with lo == hi."""

    packing: FractionalPacking
    cover: FractionalCover
    lo: Fraction
    hi: Fraction

    @classmethod
    def from_packing(cls, g: ColoredGraph, packing: FractionalPacking) -> Bounds:
        """The bounds of a feasible packing of g and the cover that puts
        weight 1 on each edge of its colour; no LP."""
        color = packing.color
        cover = FractionalCover(color, dict.fromkeys(g.edges_of_color(color), ONE))
        return cls(packing, cover, packing.value(), cover.value())


@dataclass(frozen=True)
class PackValue:
    """pack(G) = 3(nu*_red + nu*_blue), with both LP certificates."""

    value: Fraction
    red: Bounds
    blue: Bounds


def _snap(values) -> dict[int, Fraction]:
    """The positive fractions nearest `values`, keyed by position."""
    snapped = {}
    for i, v in enumerate(values):
        if v > 0:  # most LP weights are exactly 0; skip snapping them
            q = Fraction(v).limit_denominator(MAX_DENOMINATOR)
            if q:
                snapped[i] = q
    return snapped


def rationalize(xs, ys, index: list[int], start: list[int], rhs, c):
    """(x, y, value): the float solution `xs` on the columns of A = (index,
    start) and `ys` on its rows, snapped to positive fractions keyed by
    position, if it passes the LP duality certificate A x <= rhs, A^T y >= c
    and c.x == rhs.y; else None.

    Each check runs exactly, with x and y in integers over their common
    denominators.  A pair that passes is optimal for max c.x over A x <= rhs,
    x >= 0 and for its dual, and value is both objectives.
    """
    x = _snap(xs)
    y = _snap(ys)
    dx, x_int = _over_one_denominator(x.values())
    dy, y_int = _over_one_denominator(y.values())
    loads = [0] * len(rhs)  # A x <= rhs, with x over dx
    for col, w in zip(x, x_int):
        for r in index[start[col]:start[col + 1]]:
            loads[r] += w
    if any(load > r * dx for load, r in zip(loads, rhs)):
        return None
    y_of = dict(zip(y, y_int)).get  # A^T y >= c, with y over dy
    y_at = [y_of(r, 0) for r in index]  # y at each nonzero of A
    for ct, lo, hi in zip(c, start, start[1:]):
        if sum(y_at[lo:hi]) < ct * dy:
            return None
    cx = sum(c[i] * w for i, w in zip(x, x_int))  # c.x == rhs.y
    if cx * dy != sum(rhs[j] * w for j, w in zip(y, y_int)) * dx:
        return None
    return x, y, Fraction(cx, dx)


def linprog(c, index: list[int], start: list[int], rhs):
    """Maximise c.x subject to A x <= rhs and x >= 0 with a fresh HiGHS
    instance; A is the 0/1 matrix `incidence` lists column-wise as
    (index, start), which is the form HiGHS takes.

    Returns (x, y) if HiGHS reports the model optimal, else None; y, the
    negated row duals, is >= 0 and optimal for min rhs.y over A^T y >= c.
    """
    num_col, num_row = len(c), len(rhs)
    lp = highs.HighsLp()
    lp.num_col_ = num_col
    lp.num_row_ = num_row
    lp.col_cost_ = [-float(ct) for ct in c]  # HiGHS minimises
    lp.col_lower_ = [0.0] * num_col
    lp.col_upper_ = [highs.kHighsInf] * num_col
    lp.row_lower_ = [-highs.kHighsInf] * num_row
    lp.row_upper_ = [float(r) for r in rhs]
    a = lp.a_matrix_  # passModel gives it the LP's dimensions
    a.format_ = highs.MatrixFormat.kColwise
    a.start_ = start
    a.index_ = index
    a.value_ = [1.0] * len(index)
    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
    solver.passModel(lp)
    solver.run()
    if solver.getModelStatus() != highs.HighsModelStatus.kOptimal:
        return None
    solution = solver.getSolution()
    return solution.col_value, [-d for d in solution.row_dual]


def _exact_solve(index: list[int], start: list[int], rhs, c):
    """`_optimum` by the exact rational simplex on the dense A, keyed by position."""
    a_rows = [[ZERO] * len(c) for _ in rhs]
    for col, (lo, hi) in enumerate(zip(start, start[1:])):
        for r in index[lo:hi]:
            a_rows[r][col] = ONE
    x, y, value = simplex_max_leq(a_rows, rhs, c)
    x = {i: w for i, w in enumerate(x) if w > 0}
    return x, {j: w for j, w in enumerate(y) if w > 0}, value


def _optimum(triangles: list[Triangle], edges: list[Edge], rhs, c):
    """(x, y, value): positive weights x on `triangles` and y on `edges`,
    optimal for max c.x over A x <= rhs, x >= 0 (rhs >= 0) and for its
    dual, and their common value.  HiGHS's solution if `rationalize`
    certifies it, else the exact simplex's; both read the one A that
    `incidence` builds.
    """
    index, start = incidence(triangles, edges)
    sol = linprog(c=c, index=index, start=start, rhs=rhs)
    opt = None if sol is None else rationalize(*sol, index, start, rhs, c)
    x, y, value = opt or _exact_solve(index, start, rhs, c)
    return {triangles[i]: w for i, w in x.items()}, {edges[j]: w for j, w in y.items()}, value


def nu_star(g: ColoredGraph, color: str) -> Bounds:
    """Maximum fractional triangle packing of one colour class, certified.

    Triangles touching unassigned edges contribute no LP variable, so on a
    partial colouring this is the maximum packing of the assigned part.
    """
    triangles = g.monochromatic_triangles(color)
    if not triangles:
        return Bounds(FractionalPacking(color), FractionalCover(color), ZERO, ZERO)
    edges = sorted({e for t in triangles for e in triangle_edges(t)})
    x, y, value = _optimum(triangles, edges, [1] * len(edges), [1] * len(triangles))
    return Bounds(FractionalPacking(color, x), FractionalCover(color, y), value, value)


def pack(g: ColoredGraph) -> PackValue:
    """pack(G): total edge weight of the best monochromatic packings of both colours."""
    red = nu_star(g, RED)
    blue = nu_star(g, BLUE)
    return PackValue(3 * (red.lo + blue.lo), red, blue)


def certified_exceeds(
    g: ColoredGraph, threshold: Fraction, red: FractionalPacking, blue: FractionalPacking
) -> Fraction | None:
    """Sound pruning test: the total 3 * (nu(red) + nu(blue)) of the packings
    `red` and `blue` of g's assigned part if it strictly exceeds `threshold`,
    else None.  Both packings are checked and the total is the value those
    checks return, so it is never a false positive; an infeasible packing,
    or a pair that is not red then blue, raises ValueError.
    """
    if (red.color, blue.color) != (RED, BLUE):
        raise ValueError(f"packings must be red then blue, got {red.color} and {blue.color}")
    total = 3 * (red.check_feasible(g) + blue.check_feasible(g))
    return total if total > Fraction(threshold) else None


# -- prescribed edge loads -----------------------------------------------


def solve_loads(
    triangles: list[Triangle],
    demand: dict[Edge, Fraction],
    capacity: dict[Edge, Fraction],
):
    """Red triangle weights that load every demand edge exactly to its demand
    and every capacity edge at most to its capacity (all non-negative).

    Returns (packing, None), or (None, farkas) when no such weights exist:
    farkas maps the demand and capacity edges (no edge is both) to
    rationals, is >= 0 on capacity edges, has sum_{e in T} y_e >= 0 for
    every triangle T and sum_e y_e * rhs_e < 0.

    The objective is the demand rows' column sums, so the certified optimum
    is sum(demand) exactly when every demand is met.  Otherwise its dual,
    less one on the demand edges, is the Farkas vector: its value is the
    optimum minus sum(demand) < 0.
    """
    if both := sorted(demand.keys() & capacity.keys()):
        raise ValueError(f"edges {both} have both a demand and a capacity")
    loads = {**demand, **capacity}
    edges = sorted(loads)
    # a triangle's column sum over the demand rows: its demand edges
    c = [sum(e in demand for e in triangle_edges(t)) for t in triangles]
    x, y, value = _optimum(triangles, edges, [loads[e] for e in edges], c)
    if value != sum(demand.values(), ZERO):
        return None, {e: y.get(e, ZERO) - (e in demand) for e in edges}
    return FractionalPacking(RED, x), None


# -- fractional decompositions -------------------------------------------


def frac_decomposition(n: int, edges):
    """Fractional triangle decomposition of a simple graph (every edge weight 1).

    Returns (packing, None) on success or (None, farkas) on infeasibility,
    where farkas maps edges to rationals with sum_{e in T} y_e >= 0 for every
    triangle T and sum_e y_e < 0.
    """
    return prescribed_packing(n, dict.fromkeys(edges, ONE))


def prescribed_packing(n: int, demand: dict[Edge, Fraction]):
    """Packing of K_n whose edge weights equal `demand` exactly, if one exists.

    Returns (packing, None) or (None, farkas) as in `frac_decomposition`,
    with sum_e y_e * demand_e < 0.  A pair may be named once, in either order.
    """
    given, demand = demand, {}
    for e, v in given.items():
        e, v = norm_edge(e, n), Fraction(v)
        if e in demand:
            raise ValueError(f"demand names the pair {e} twice")
        if not (0 <= v <= 1):
            raise ValueError(f"demand on edge {e} is {v}, outside [0, 1]")
        demand[e] = v
    es = sorted(e for e, v in demand.items() if v > 0)
    if not es:
        return FractionalPacking(RED, {}), None
    # a triangle through a zero-demand edge can carry no weight
    triangles = ColoredGraph.from_red_edges(n, es).monochromatic_triangles(RED)
    in_some = {e for t in triangles for e in triangle_edges(t)}
    uncovered = [e for e in es if e not in in_some]
    if uncovered:
        # a demanded edge in no triangle can never be loaded
        farkas = {e: Fraction(-1) if e == uncovered[0] else ZERO for e in es}
        return None, farkas
    return solve_loads(triangles, {e: demand[e] for e in es}, {})


# -- exact integral packing oracle (structure.max_disjoint) --------------


def integer_nu(n: int, edges) -> int:
    """Maximum number of edge-disjoint triangles, by the exact search
    `structure.max_disjoint` on the triangles' edge sets.

    Restricted to n <= 9; this is the small-n oracle for nu <= nu*.
    """
    if n > 9:
        raise ValueError(f"integer_nu is an exhaustive oracle for n <= 9, got n={n}")
    triangles = ColoredGraph.from_red_edges(n, edges).monochromatic_triangles(RED)
    return len(max_disjoint(map(triangle_edges, triangles)))
