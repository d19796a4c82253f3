"""Certified fractional triangle packing computations.

All results are exact rationals.  The default solve path runs a float LP
for speed, one direct call into the HiGHS solver that scipy ships, and
snaps its primal and dual solutions to nearby fractions.  It accepts them
only if both pass the same feasibility checks that replay certificates and
the values those checks return agree exactly; otherwise it falls back to
the exact rational simplex.  Either way, the returned `Bounds` carries a
packing and a cover of one value, lo == hi.  Each check runs in integers over
one common denominator and returns the value it has just verified, so no
consumer sums the weights again.

`solve_loads` is the one solver for triangle weights with prescribed edge
loads; `prescribed_packing` (with `frac_decomposition`, its case of load 1
on every edge) and the two-blob constructions all go through it.

Scaling conventions: `nu_star` values are sums of triangle weights; the
total edge weight of a colouring (the quantity thresholded by the search) is
3 * (nu*_red + nu*_blue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

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
    """Nonzeros of the edge x triangle incidence matrix as (rows, cols).

    Row r is edges[r] and column c is triangles[c] (a sorted vertex triple);
    a triangle edge that is not in `edges` has no row and is skipped.
    """
    row_of = {e: r for r, e in enumerate(edges)}
    rows: list[int] = []
    cols: list[int] = []
    for col, t in enumerate(triangles):
        for e in triangle_edges(t):
            r = row_of.get(e)
            if r is not None:
                rows.append(r)
                cols.append(col)
    return rows, cols


def incidence_rows(triangles: list[Triangle], edges: list[Edge]) -> list[list[Fraction]]:
    """`incidence` as dense exact rows, one per edge."""
    dense = [[ZERO] * len(triangles) for _ in edges]
    for r, col in zip(*incidence(triangles, edges)):
        dense[r][col] = ONE
    return dense


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
        """The value of this cover of g's colour class; ValueError if infeasible."""
        return self.check_covers(g.monochromatic_triangles(self.color))

    def check_covers(self, triangles: list[Triangle]) -> Fraction:
        """The cover's value; ValueError unless it is >= 0 and covers each triangle."""
        d, scaled = _over_one_denominator(self.edge_weights.values())
        by_edge = dict(zip(self.edge_weights, scaled))
        for e, y in by_edge.items():
            if y < 0:
                raise ValueError(f"edge {e} has negative cover weight {Fraction(y, d)}")
        for t in triangles:
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


def _snap(keys: list, values) -> dict:
    """The positive fractions nearest `values`, keyed by `keys`."""
    snapped = {}
    for key, v in zip(keys, values):
        if v > 0:  # most LP weights are exactly 0; skip snapping them
            q = Fraction(float(v)).limit_denominator(MAX_DENOMINATOR)
            if q:
                snapped[key] = q
    return snapped


def rationalize(
    xs, duals, triangles: list[Triangle], edges: list[Edge], g: ColoredGraph, color: str
) -> Bounds | None:
    """Certified rationalisation of a float LP solution, or None.

    `xs` weights `triangles` and `duals` weights `edges`.  Both are snapped
    to nearby fractions; the result is accepted only if both certificates
    pass their feasibility checks and the values they return agree exactly,
    and that value is both lo and hi.  `triangles` must be all of g's
    `color` triangles: the cover is checked against that list.
    """
    packing = FractionalPacking(color, _snap(triangles, xs))
    cover = FractionalCover(color, _snap(edges, duals))
    try:
        value = packing.check_feasible(g)
        if value != cover.check_covers(triangles):
            return None
    except ValueError:
        return None
    return Bounds(packing, cover, value, value)


def linprog(c, rows, num_row: int):
    """Minimise c.x subject to A x <= 1 and x >= 0, where column j of the
    0/1 matrix A has its three ones in rows[3j:3j+3], with a fresh HiGHS
    instance.

    Returns (x, y) if HiGHS reports the model optimal, else None; y, the
    negated row duals, is >= 0 and optimal for min 1.y over A^T y >= -c.
    """
    num_col = len(c)
    lp = highs.HighsLp()
    lp.num_col_ = num_col
    lp.num_row_ = num_row
    lp.col_cost_ = c
    lp.col_lower_ = np.zeros(num_col)
    lp.col_upper_ = np.full(num_col, highs.kHighsInf)  # x <= 1 is implied by the rows
    lp.row_lower_ = np.full(num_row, -highs.kHighsInf)
    lp.row_upper_ = np.ones(num_row)
    a = lp.a_matrix_
    a.format_ = highs.MatrixFormat.kColwise
    a.num_col_ = num_col
    a.num_row_ = num_row
    a.start_ = np.arange(0, 3 * num_col + 1, 3)
    a.index_ = rows
    a.value_ = np.ones(3 * num_col)
    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
    solver.passModel(lp)
    solver.run()
    if solver.getModelStatus() != highs.HighsModelStatus.kOptimal:
        return None
    solution = solver.getSolution()
    return np.array(solution.col_value), -np.array(solution.row_dual)


def _float_solve(triangles: list[Triangle], edges: list[Edge]):
    """Float LP for max total weight; returns (weights, duals) or None.

    `edges` must hold every edge of every triangle, so that each triangle's
    column has exactly three rows (`incidence` lists them column by column).
    """
    rows, _ = incidence(triangles, edges)
    return linprog(c=-np.ones(len(triangles)), rows=rows, num_row=len(edges))


def _exact_solve(triangles: list[Triangle], edges: list[Edge], color: str):
    b = [ONE] * len(edges)
    c = [ONE] * len(triangles)
    x, y, _ = simplex_max_leq(incidence_rows(triangles, edges), b, c)
    packing = FractionalPacking(color, {t: w for t, w in zip(triangles, x) if w > 0})
    cover = FractionalCover(color, {e: w for e, w in zip(edges, y) if w > 0})
    return Bounds(packing, cover, packing.value(), cover.value())


def nu_star(g: ColoredGraph, color: str, exact_only: bool = False) -> Bounds:
    """Maximum fractional triangle packing of one colour class, certified.

    Triangles touching unassigned edges contribute no LP variable, so on a
    partial colouring this is the maximum packing of the assigned part.
    `exact_only` skips the float path; tests use it as the reference.
    """
    triangles = g.monochromatic_triangles(color)
    if not triangles:
        return Bounds(FractionalPacking(color), FractionalCover(color), ZERO, ZERO)
    edges = sorted({e for t in triangles for e in triangle_edges(t)})

    if not exact_only:
        sol = _float_solve(triangles, edges)
        if sol is not None:
            result = rationalize(*sol, triangles, edges, g, color)
            if result is not None:
                return result

    return _exact_solve(triangles, edges, color)


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
    checks return, so it is never a false positive; an infeasible packing
    raises ValueError.
    """
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
    farkas maps the demand and capacity edges to rationals, is >= 0 on
    capacity edges, has sum_{e in T} y_e >= 0 for every triangle T and
    sum_e y_e * rhs_e < 0.

    Every row is a `<=` row, and the objective is the demand rows' column
    sums, so the optimum is sum(demand) exactly when every demand is met.
    Otherwise the demand duals less one, then the capacity duals, are the
    Farkas vector (its value is the optimum minus sum(demand) < 0).
    """
    d_edges = sorted(demand)
    c_edges = sorted(capacity)
    rows = incidence_rows(triangles, d_edges + c_edges)
    rhs = [demand[e] for e in d_edges] + [capacity[e] for e in c_edges]
    # a triangle's column sum over the demand rows: its demand edges
    c = [Fraction(sum(e in demand for e in triangle_edges(t))) for t in triangles]
    x, y, value = simplex_max_leq(rows, rhs, c)
    k = len(d_edges)
    if value != sum(rhs[:k], ZERO):
        farkas = [yi - ONE for yi in y[:k]] + y[k:]
        return None, dict(zip(d_edges + c_edges, farkas))
    return FractionalPacking(RED, {t: w for t, w in zip(triangles, x) if w > 0}), None


# -- fractional decompositions -------------------------------------------


def frac_decomposition(n: int, edges):
    """Fractional triangle decomposition of a simple graph (every edge weight 1).

    Returns (packing, None) on success or (None, farkas) on infeasibility,
    where farkas maps edges to rationals with sum_{e in T} y_e >= 0 for every
    triangle T and sum_e y_e < 0.
    """
    return prescribed_packing(n, dict.fromkeys(map(norm_edge, edges), ONE))


def prescribed_packing(n: int, demand: dict[Edge, Fraction]):
    """Packing of K_n whose edge weights equal `demand` exactly, if one exists.

    Returns (packing, None) or (None, farkas) as in `frac_decomposition`,
    with sum_e y_e * demand_e < 0.
    """
    demand = {norm_edge(e): Fraction(v) for e, v in demand.items()}
    for e, v in demand.items():
        if not (0 <= v <= 1):
            raise ValueError(f"demand on edge {e} is {v}, outside [0, 1]")
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
    triangles = ColoredGraph.from_red_edges(n, map(norm_edge, edges)).monochromatic_triangles(RED)
    return len(max_disjoint(map(triangle_edges, triangles)))
