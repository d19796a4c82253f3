"""Certified fractional triangle packing computations.

All results are exact rationals.  The default solve path runs a float LP
(scipy/HiGHS) for speed and snaps its primal and dual solutions to nearby
fractions.  It accepts them only if the primal and dual values agree exactly
and both pass the same feasibility checks that replay certificates;
otherwise it falls back to the exact rational simplex.  Either way, a
returned `SolveResult` carries matching primal and dual certificates, and its
values are read off them.

`solve_loads` is the one solver for triangle weights with prescribed edge
loads; `frac_decomposition`, `prescribed_packing` and the two-blob
constructions all go through it.

Scaling conventions: `nu_star` values are sums of triangle weights; the
total edge weight of a colouring (the quantity thresholded by the search) is
3 * (nu*_red + nu*_blue).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from .graph import BLUE, COLORS, RED, ColoredGraph, Edge, Triangle, norm_edge
from .simplex import ONE, ZERO, simplex_max_leq, solve_eq_nonneg

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


@dataclass(frozen=True)
class FractionalPacking:
    """Exact rational weights on monochromatic triangles of one colour."""

    color: str
    weights: dict[Triangle, Fraction] = field(default_factory=dict)

    def value(self) -> Fraction:
        return sum(self.weights.values(), ZERO)

    def edge_weight_total(self) -> Fraction:
        return 3 * self.value()

    def edge_loads(self) -> dict[Edge, Fraction]:
        loads: dict[Edge, Fraction] = {}
        for t, w in self.weights.items():
            for e in triangle_edges(t):
                loads[e] = loads.get(e, ZERO) + w
        return loads

    def check_feasible(self, g: ColoredGraph) -> None:
        """Raise ValueError unless this is a valid packing in g's colour class."""
        if self.color not in COLORS:
            raise ValueError(f"colour must be one of {COLORS}, got {self.color!r}")
        for t, w in self.weights.items():
            i, j, k = t
            if not 0 <= i < j < k < g.n:
                raise ValueError(f"triangle {t} needs 0 <= i < j < k < {g.n}")
            if not g.color_of(i, j) == g.color_of(i, k) == g.color_of(j, k) == self.color:
                raise ValueError(f"triangle {t} is not {self.color}-monochromatic")
            if not (0 <= w <= 1):
                raise ValueError(f"triangle {t} has weight {w} outside [0, 1]")
        for e, load in self.edge_loads().items():
            if load > 1:
                raise ValueError(f"edge {e} is overloaded: {load}")


@dataclass(frozen=True)
class FractionalCover:
    """Non-negative edge weights covering every monochromatic triangle (LP dual)."""

    color: str
    edge_weights: dict[Edge, Fraction] = field(default_factory=dict)

    def value(self) -> Fraction:
        return sum(self.edge_weights.values(), ZERO)

    def check_feasible(self, g: ColoredGraph) -> None:
        for e, y in self.edge_weights.items():
            if y < 0:
                raise ValueError(f"edge {e} has negative cover weight {y}")
        for t in g.monochromatic_triangles(self.color):
            s = sum((self.edge_weights.get(e, ZERO) for e in triangle_edges(t)), ZERO)
            if s < 1:
                raise ValueError(f"triangle {t} is not covered: {s} < 1")


@dataclass(frozen=True)
class SolveResult:
    """An optimal packing with the cover that proves it optimal."""

    packing: FractionalPacking
    cover: FractionalCover

    @property
    def primal_value(self) -> Fraction:
        return self.packing.value()

    @property
    def dual_value(self) -> Fraction:
        return self.cover.value()


@dataclass(frozen=True)
class PackValue:
    """pack(G) = 3(nu*_red + nu*_blue), with both LP certificates."""

    value: Fraction
    red: SolveResult
    blue: SolveResult


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
) -> SolveResult | None:
    """Certified rationalisation of a float LP solution, or None.

    `xs` weights `triangles` and `duals` weights `edges`.  Both are snapped
    to nearby fractions; the result is accepted only if the primal and dual
    values agree exactly and both certificates pass their feasibility checks.
    """
    packing = FractionalPacking(color, _snap(triangles, xs))
    cover = FractionalCover(color, _snap(edges, duals))
    if packing.value() != cover.value():
        return None
    try:
        packing.check_feasible(g)
        cover.check_feasible(g)
    except ValueError:
        return None
    return SolveResult(packing, cover)


def _float_solve(triangles: list[Triangle], edges: list[Edge]):
    """Float LP for max total weight; returns (weights, duals) or None."""
    a = np.zeros((len(edges), len(triangles)))
    a[incidence(triangles, edges)] = 1.0
    res = linprog(
        c=-np.ones(len(triangles)),
        A_ub=a,
        b_ub=np.ones(len(edges)),
        bounds=(0, None),  # x <= 1 is implied by the edge constraints
        method="highs",
    )
    if not res.success:
        return None
    return res.x, -np.asarray(res.ineqlin.marginals)


def _exact_solve(triangles: list[Triangle], edges: list[Edge], color: str):
    b = [ONE] * len(edges)
    c = [ONE] * len(triangles)
    x, y, _ = simplex_max_leq(incidence_rows(triangles, edges), b, c)
    packing = FractionalPacking(
        color, {t: x[col] for col, t in enumerate(triangles) if x[col] > 0}
    )
    cover = FractionalCover(color, {e: y[r] for r, e in enumerate(edges) if y[r] > 0})
    return SolveResult(packing, cover)


def nu_star(g: ColoredGraph, color: str, exact_only: bool = False) -> SolveResult:
    """Maximum fractional triangle packing of one colour class, certified.

    Triangles touching unassigned edges contribute no LP variable, so on a
    partial colouring this is the maximum packing of the assigned part.
    `exact_only` skips the float path; tests use it as the reference.
    """
    triangles = g.monochromatic_triangles(color)
    if not triangles:
        return SolveResult(FractionalPacking(color), FractionalCover(color))
    edges = sorted({e for t in triangles for e in triangle_edges(t)})

    if not exact_only:
        sol = _float_solve(triangles, edges)
        if sol is not None:
            result = rationalize(*sol, triangles, edges, g, color)
            if result is not None:
                return result

    return _exact_solve(triangles, edges, color)


def pack(g: ColoredGraph, exact_only: bool = False) -> PackValue:
    """pack(G): total edge weight of the best monochromatic packings of both colours."""
    red = nu_star(g, RED, exact_only=exact_only)
    blue = nu_star(g, BLUE, exact_only=exact_only)
    return PackValue(3 * (red.primal_value + blue.primal_value), red, blue)


@dataclass(frozen=True)
class ExceedCertificate:
    """Two exact feasible packings whose combined edge weight beats a threshold."""

    red: FractionalPacking
    blue: FractionalPacking
    threshold: Fraction

    @property
    def total(self) -> Fraction:
        """3 * (red + blue triangle weight)."""
        return self.red.edge_weight_total() + self.blue.edge_weight_total()

    def check(self, g: ColoredGraph) -> None:
        self.red.check_feasible(g)
        self.blue.check_feasible(g)
        if not self.total > self.threshold:
            raise ValueError("certificate does not exceed its threshold")


def certified_exceeds(
    g: ColoredGraph,
    threshold: Fraction,
    red: FractionalPacking | None = None,
    blue: FractionalPacking | None = None,
) -> ExceedCertificate | None:
    """Sound pruning test: a certificate that pack of the assigned part strictly
    exceeds `threshold`, or None.  Never a false positive.

    Pre-computed feasible packings may be passed in; they are re-solved only
    when absent.
    """
    threshold = Fraction(threshold)
    if red is None:
        red = nu_star(g, RED).packing
    if blue is None:
        blue = nu_star(g, BLUE).packing
    cert = ExceedCertificate(red, blue, threshold)
    if not cert.total > threshold:
        return None
    cert.check(g)
    return cert


# -- prescribed edge loads -----------------------------------------------


def solve_loads(
    triangles: list[Triangle],
    demand: dict[Edge, Fraction],
    capacity: dict[Edge, Fraction],
):
    """Red triangle weights that load every demand edge exactly to its demand
    and every capacity edge at most to its capacity.

    Returns (packing, None), or (None, farkas) when no such weights exist:
    farkas maps the demand and capacity edges to rationals, is >= 0 on
    capacity edges, has sum_{e in T} y_e >= 0 for every triangle T and
    sum_e y_e * rhs_e < 0.  Each capacity row gets its own slack column.
    """
    d_edges = sorted(demand)
    c_edges = sorted(capacity)
    rows = incidence_rows(triangles, d_edges + c_edges)
    for r, row in enumerate(rows):
        # capacity row k gets slack column k; demand rows get none
        k = r - len(d_edges)
        row.extend(ONE if i == k else ZERO for i in range(len(c_edges)))
    rhs = [demand[e] for e in d_edges] + [capacity[e] for e in c_edges]
    x, y = solve_eq_nonneg(rows, rhs)
    if x is None:
        return None, dict(zip(d_edges + c_edges, y))
    packing = FractionalPacking(
        RED, {t: x[col] for col, t in enumerate(triangles) if x[col] > 0}
    )
    return packing, None


# -- fractional decompositions -------------------------------------------


def frac_decomposition(n: int, edges):
    """Fractional triangle decomposition of a simple graph (every edge weight 1).

    Returns (packing, None) on success or (None, farkas) on infeasibility,
    where farkas maps edges to rationals with sum_{e in T} y_e >= 0 for every
    triangle T and sum_e y_e < 0.
    """
    es = sorted({norm_edge(e) for e in edges})
    if not es:
        return FractionalPacking(RED, {}), None
    triangles = ColoredGraph.from_red_edges(n, es).monochromatic_triangles(RED)
    in_some = {e for t in triangles for e in triangle_edges(t)}
    uncovered = [e for e in es if e not in in_some]
    if uncovered:
        # an edge in no triangle can never reach weight 1
        farkas = {e: Fraction(-1) if e == uncovered[0] else ZERO for e in es}
        return None, farkas
    return solve_loads(triangles, dict.fromkeys(es, ONE), {})


def prescribed_packing(n: int, demand: dict[Edge, Fraction]):
    """Packing of K_n whose edge weights equal `demand` exactly, if one exists.

    Returns (packing, None) or (None, farkas) as in `frac_decomposition`.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    demand = {norm_edge(e): Fraction(v) for e, v in demand.items()}
    for e, v in demand.items():
        if not (0 <= v <= 1):
            raise ValueError(f"demand on edge {e} is {v}, outside [0, 1]")
    es = sorted(e for e, v in demand.items() if v > 0)
    if not es:
        return FractionalPacking(RED, {}), None
    # a triangle through a zero-demand edge can carry no weight
    triangles = ColoredGraph.from_red_edges(n, es).monochromatic_triangles(RED)
    return solve_loads(triangles, {e: demand[e] for e in es}, {})


# -- exact integral packing oracle ---------------------------------------


def integer_nu(n: int, edges) -> int:
    """Maximum number of edge-disjoint triangles, by exhaustive branch and bound.

    Restricted to n <= 9; this is the small-n oracle for nu <= nu*.
    """
    if n > 9:
        raise ValueError(f"integer_nu is an exhaustive oracle for n <= 9, got n={n}")
    es = {norm_edge(e) for e in edges}
    triangles = ColoredGraph.from_red_edges(n, es).monochromatic_triangles(RED)
    if not triangles:
        return 0
    tri_masks = []
    eidx = {e: i for i, e in enumerate(sorted(es))}
    for t in triangles:
        mask = 0
        for e in triangle_edges(t):
            mask |= 1 << eidx[e]
        tri_masks.append(mask)

    best = 0

    def dfs(start: int, used: int, count: int, free_edges: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if count + free_edges // 3 <= best:
            return
        for i in range(start, len(tri_masks)):
            m = tri_masks[i]
            if m & used:
                continue
            dfs(i + 1, used | m, count + 1, free_edges - 3)

    dfs(0, 0, 0, len(es))
    return best
