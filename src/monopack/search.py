"""Frontier search over 2-colourings of growing complete graphs.

Starting from a seed list of complete colourings on n vertices, each level
attaches one new vertex and exposes its edges one at a time, branching on
the two colours.  Every node carries, per colour, a feasible packing and a
feasible cover of the assigned part, so lo <= nu* <= hi.  An exposure grows
only the changed colour's pair, exactly and without an LP: the new triangles
all contain the new edge, so the packing is augmented greedily on them and
the cover raises the new edge's weight until they are covered.  `settle`,
the only LP site, solves one only when the bounds leave the threshold
undecided; seeds start from empty packings and unit covers, survivors keep
their settled bounds, resumed nodes their checkpoint's packings.  A branch
is cut only when an exact rational certificate shows that the assigned
part's total packing weight exceeds the level threshold, so no colouring
within the threshold is ever lost.  Completed colourings are deduplicated
by canonical form and optionally removed by structural filters (pentagon
blow-up distance or closeness of a colour class to bipartite).

Twins of a parent (vertices with the same colour to every other vertex,
`canonical.twin_classes`) can be permuted by an automorphism, so colourings
of the new vertex's edges that differ by such a permutation give isomorphic
children.  Within each twin class, in index order, the search keeps only the
colourings with every blue edge before every red one: the lex-leader of each
orbit of the product of symmetric groups (Crawford, Ginsberg, Luks & Roy, KR
1996), and the first one of its orbit that the blue-first depth-first search
reaches, so the survivors are the same labelled graphs as without the cut.
A child that breaks the order is dropped unsettled as a symmetry cut.  Pack
values, filter verdicts and canonical keys are isomorphism invariants, so a
kept completion counts for its whole orbit, of size prod C(|class|, reds):
`completed`, `filtered` and `duplicates` count labelled colourings, as the
search without the cut would.

Colourings are identified up to isomorphism and colour swap, and nothing is
lost by it: swapping the colours keeps every monochromatic triangle packing,
and both filters give a colouring and its swap the same verdict (C_5 is
self-complementary, and the bipartite filter tests both colours), so a search
without swap would find exactly these survivors and their swaps.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import certs
from .canonical import canonical_key, twin_classes
from .graph import BLUE, RED, UNASSIGNED, ColoredGraph, GraphFormatError, parse_decimal
from .graph import parse as parse_graph
from .lp import (
    Bounds, FractionalCover, FractionalPacking, certified_exceeds, nu_star, triangle_edges,
)
from .simplex import ONE, ZERO
from .structure import bip_distance_at_most, pentagon_distance

CHECKPOINT_FORMAT = "monopack-checkpoint"
CHECKPOINT_VERSION = 1


def default_threshold(n: int) -> Fraction:
    """Bound applied while extending a complete colouring on n vertices: the
    search's one threshold, n(n+1)/4."""
    return Fraction(n * (n + 1), 4)


@dataclass(frozen=True)
class PentagonFilter:
    max_flips: int = 1

    def __post_init__(self):
        if self.max_flips not in (0, 1):
            raise ValueError("max_flips must be 0 or 1")

    def rejects(self, g: ColoredGraph):
        """A certificate that the complete colouring g is at most max_flips
        flips from a pentagon blow-up, else None."""
        return pentagon_distance(g, self.max_flips)


@dataclass(frozen=True)
class BipartiteFilter:
    k: int = 2

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be non-negative")

    def rejects(self, g: ColoredGraph):
        """(colour, certificate) for the first colour class of g that at most
        k edge deletions make bipartite, else None."""
        for color in (RED, BLUE):
            cert = bip_distance_at_most(g.n, g.edges_of_color(color), self.k)
            if cert is not None:
                return color, cert
        return None


@dataclass(frozen=True)
class SearchConfig:
    """A search to n_end; extensions of n-vertex colourings are held to
    default_threshold(n) = n(n+1)/4."""

    n_end: int
    filters: dict = field(default_factory=dict)  # level -> filter instance


def grow(bounds: Bounds, g: ColoredGraph, v: int) -> Bounds:
    """The bounds once edge (v, newest) of g has the bounds' colour.

    The new triangles are v w u for each w joined to v and to the newest
    vertex u in this colour.  In w order, each gets the largest weight its
    three edges still admit; the cover gives (v, u) the weight the
    least-covered of them lacks.
    """
    color = bounds.packing.color
    u = g.n - 1
    pairs = [
        ((min(v, w), max(v, w)), (w, u))
        for w in range(u)
        if w != v and g.color_of(v, w) == color == g.color_of(w, u)
    ]
    if not pairs:
        return bounds
    # vu is new, so no packed triangle holds it, and of the new triangles'
    # edges only vu is shared, so only its load changes below; vw and wu
    # lie only in packed triangles through v or u
    loads = dict.fromkeys((e for pair in pairs for e in pair), ZERO)
    for t, weight in bounds.packing.weights.items():
        if v in t or u in t:
            for e in triangle_edges(t):
                if e in loads:
                    loads[e] += weight
    weights = dict(bounds.packing.weights)
    lo, vu_load = bounds.lo, ZERO
    for vw, wu in pairs:
        r = ONE - max(loads[vw], loads[wu], vu_load)
        if r > 0:
            weights[(*vw, u)] = r
            vu_load += r
            lo += r
    y = bounds.cover.edge_weights
    lack = ONE - min(y.get(vw, ZERO) + y.get(wu, ZERO) for vw, wu in pairs)
    cover, hi = bounds.cover, bounds.hi
    if lack > 0:
        cover = FractionalCover(color, {**y, (v, u): lack})
        hi += lack
    return Bounds(FractionalPacking(color, weights), cover, lo, hi)


@dataclass(frozen=True)
class SearchNode:
    """A partial colouring (unassigned edges only at the newest vertex) with
    certified bounds on both colours' packings of the assigned part."""

    graph: ColoredGraph
    red: Bounds
    blue: Bounds

    def straddles(self, threshold: Fraction) -> bool:
        """Whether the bounds leave pack <= threshold undecided."""
        return (
            3 * (self.red.lo + self.blue.lo)
            <= threshold
            < 3 * (self.red.hi + self.blue.hi)
        )


@dataclass
class LevelStats:
    """One level's counts.  `completed`, `filtered` and `duplicates` count
    labelled completions, each kept one weighted by its twin-orbit size, so
    they are the counts of the search without symmetry cuts; `pruned`,
    `lp_solves` and `sym_cuts` count the work of the nodes visited."""

    survivors: int = 0  # completions kept, one per isomorphism class
    pruned: int = 0  # threshold cuts: nodes whose certified pack exceeds it
    filtered: int = 0  # filter rejects among the completions
    completed: int = 0  # complete colourings within the threshold
    duplicates: int = 0  # unfiltered completions isomorphic to a kept one
    lp_solves: int = 0  # nu_star solves by settle: every LP the search solves
    sym_cuts: int = 0  # symmetry cuts: children that colour a twin red before blue


@dataclass
class SearchReport:
    levels: dict[int, LevelStats] = field(default_factory=dict)

    def at(self, n: int) -> LevelStats:
        return self.levels.setdefault(n, LevelStats())


def choose_next_vertex(node: SearchNode) -> int:
    """Endpoint of an unassigned edge at the newest vertex to expose next:
    the vertex closing the most monochromatic triangles against the
    already-assigned edges, ties broken by smallest index.
    """
    g = node.graph
    u = g.n - 1
    cands = [v for v in range(u) if g.color_of(v, u) == UNASSIGNED]
    if not cands:
        raise ValueError("node is complete")
    best_v, best_score = cands[0], -1
    for v in cands:
        score = 0
        for w in range(u):
            if w == v:
                continue
            cw, cu = g.color_of(v, w), g.color_of(w, u)
            if cw != UNASSIGNED and cw == cu:
                score += 1
        if score > best_score:
            best_v, best_score = v, score
    return best_v


def expose(node: SearchNode, v: int) -> tuple[SearchNode, SearchNode]:
    """Colour the edge (v, newest) both ways; grow only the changed colour's
    bounds, without an LP."""
    g = node.graph
    u = g.n - 1
    red_g = g.set_edge(v, u, RED)
    blue_g = g.set_edge(v, u, BLUE)
    red_child = SearchNode(red_g, grow(node.red, red_g, v), node.blue)
    blue_child = SearchNode(blue_g, node.red, grow(node.blue, blue_g, v))
    return red_child, blue_child


def settle(node: SearchNode, threshold: Fraction) -> tuple[SearchNode, int]:
    """The node with bounds that decide pack <= threshold, and the number of
    LPs solved to get them.

    While the bounds straddle the threshold, the colour with the wider gap
    is solved exactly; with both colours exact they cannot straddle, so at
    most two LPs are solved.
    """
    solves = 0
    while node.straddles(threshold):
        if node.red.hi - node.red.lo >= node.blue.hi - node.blue.lo:
            node = replace(node, red=nu_star(node.graph, RED))
        else:
            node = replace(node, blue=nu_star(node.graph, BLUE))
        solves += 1
    return node, solves


def prune(node: SearchNode, threshold: Fraction) -> Fraction | None:
    """The checked total weight of the node's packings if it beats the
    threshold, else None; exact only.  On a settled node this cuts exactly
    when pack of the assigned part exceeds the threshold."""
    if 3 * (node.red.lo + node.blue.lo) <= threshold:
        return None
    return certified_exceeds(node.graph, threshold, node.red.packing, node.blue.packing)


def out_of_order(twin: list[int], g: ColoredGraph, v: int) -> bool:
    """Whether the edge (v, newest) just coloured puts a red before a blue
    among v's twins, taken in index order; twin[a] names a's class."""
    u = g.n - 1
    if g.color_of(v, u) == BLUE:
        rivals, color = range(v), RED
    else:
        rivals, color = range(v + 1, u), BLUE
    return any(twin[a] == twin[v] and g.color_of(a, u) == color for a in rivals)


def orbit_size(twin: list[int], g: ColoredGraph) -> int:
    """How many colourings of the newest vertex's edges permuting the twins
    reaches from g's: the product over classes of C(size, reds)."""
    u = g.n - 1
    sizes = Counter(twin)
    reds = Counter(twin[a] for a in range(u) if g.color_of(a, u) == RED)
    return math.prod(math.comb(size, reds[k]) for k, size in sizes.items())


def check_frontier(graphs: list[ColoredGraph], level: int) -> None:
    """ValueError unless the graphs are pairwise non-isomorphic complete K_level colourings."""
    seen = set()
    for g in graphs:
        if g.n != level or not g.is_complete:
            raise ValueError(f"frontier graph is not a complete K_{level} colouring")
        key, _ = canonical_key(g)
        if key.key in seen:
            raise ValueError("frontier graphs must be pairwise non-isomorphic")
        seen.add(key.key)


@dataclass
class SearchState:
    """Between-level snapshot: the current frontier and counters."""

    level: int
    frontier: list[SearchNode]
    report: SearchReport


def run_search(
    seeds: list[ColoredGraph],
    cfg: SearchConfig,
    checkpoint_path: str | None = None,
    state: SearchState | None = None,
) -> tuple[dict[int, list[ColoredGraph]], SearchReport]:
    """All completions of the seeds up to cfg.n_end, level by level.

    Returns the per-level survivor lists (complete colourings, canonical
    representatives up to isomorphism and colour swap) and the search report.
    Survivors are exactly the colourings whose certified pack value stays
    within the threshold, n(n+1)/4 while extending n vertices, and which pass
    the configured structural filters.
    ValueError, before the first LP, on an n_end below the start level or a
    filter at a level the search does not reach.
    """
    for n, level_filter in cfg.filters.items():
        if not isinstance(level_filter, (PentagonFilter, BipartiteFilter)):
            raise ValueError(f"unknown filter {level_filter!r}")
        if isinstance(level_filter, PentagonFilter) and n < 5:
            raise ValueError(f"pentagon filter at level {n}: blow-ups need at least 5 vertices")
    if state is None:
        if not seeds:
            raise ValueError("need at least one seed")
        level = seeds[0].n
        check_frontier(seeds, level)
        empty = FractionalPacking(RED), FractionalPacking(BLUE)
        frontier = [SearchNode(g, *(Bounds.from_packing(g, p) for p in empty)) for g in seeds]
    else:
        level, frontier = state.level, state.frontier
    if cfg.n_end < level:
        raise ValueError(f"n_end={cfg.n_end} is below the start level {level}")
    for n in cfg.filters:
        if not level < n <= cfg.n_end:
            raise ValueError(
                f"filter at level {n} is outside the searched levels {level + 1}..{cfg.n_end}"
            )

    levels: dict[int, list[ColoredGraph]] = {level: [n.graph for n in frontier]}
    report = (state.report if state is not None else SearchReport())

    while level < cfg.n_end:
        threshold = default_threshold(level)
        stats = report.at(level + 1)
        level_filter = cfg.filters.get(level + 1)
        survivors: dict[str, SearchNode] = {}
        for parent in frontier:
            twin = twin_classes(parent.graph)
            # the new vertex closes no triangle, so the parent's bounds hold
            stack = [replace(parent, graph=parent.graph.add_vertex())]
            while stack:
                node, solves = settle(stack.pop(), threshold)
                stats.lp_solves += solves
                if prune(node, threshold) is not None:
                    stats.pruned += 1
                elif not node.graph.is_complete:
                    v = choose_next_vertex(node)
                    for child in expose(node, v):
                        if out_of_order(twin, child.graph, v):
                            stats.sym_cuts += 1
                        else:
                            stack.append(child)
                else:
                    # the orbit's other colourings are isomorphic to this
                    # one, so they share its verdict and its key
                    weight = orbit_size(twin, node.graph)
                    stats.completed += weight
                    if level_filter and level_filter.rejects(node.graph) is not None:
                        stats.filtered += weight
                        continue
                    key, _ = canonical_key(node.graph)
                    if key.key not in survivors:
                        survivors[key.key] = node
                        weight -= 1
                    stats.duplicates += weight
        frontier = [survivors[k] for k in sorted(survivors)]
        stats.survivors = len(frontier)
        level += 1
        levels[level] = [n.graph for n in frontier]
        if checkpoint_path is not None:
            checkpoint(SearchState(level, frontier, report), checkpoint_path)
    return levels, report


# -- persistence -----------------------------------------------------------


def checkpoint(state: SearchState, path: str) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "level": state.level,
        "admit_swap": True,  # the frontier is kept up to colour swap
        "frontier": [
            {
                "graph": node.graph.serialize(),
                "packcert": certs.format_packcert(
                    node.graph, node.red.packing, node.blue.packing
                ),
            }
            for node in state.frontier
        ],
        "report": {
            str(n): vars(stats) for n, stats in sorted(state.report.levels.items())
        },
    }
    # a snapshot replaces the previous one only once it is fully written
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
        # on disk before the rename, so an OS crash cannot leave it empty
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def resume(path: str) -> SearchState:
    """The state in a checkpoint; ValueError unless it is well formed and its
    frontier passes `check_frontier` with valid PACKCERTs, each for the graph
    its item's `graph` field names.  Each node starts from its PACKCERT's
    packings; no LP is solved."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
            raise ValueError(f"corrupt checkpoint: {exc}") from exc
    if type(payload) is not dict or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError("not a search checkpoint file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
    level, items = payload.get("level"), payload.get("frontier")
    reports = payload.get("report")
    if (type(level), type(items), type(reports)) != (int, list, dict) or level < 0:
        raise ValueError("checkpoint has a malformed level, frontier or report")
    # a frontier kept under another symmetry would mix its counts into ours
    if payload.get("admit_swap") is not True:
        raise ValueError("checkpoint frontier is not kept up to colour swap")
    fields = vars(LevelStats()).keys()
    if not all(type(s) is dict and s.keys() <= fields and all(type(v) is int for v in s.values())
               for s in reports.values()):
        raise ValueError("checkpoint report holds an unknown field or a non-integer count")
    report = SearchReport()
    for key, stats in reports.items():
        n = parse_decimal(key)
        if n in report.levels:
            raise ValueError(f"checkpoint report names level {n} twice")
        if n > level:
            raise ValueError(f"checkpoint report names level {n}, above its level {level}")
        report.levels[n] = LevelStats(**stats)
    frontier = []
    for item in items:
        if type(item) is not dict or type(item.get("graph")) is not str:
            raise ValueError("checkpoint frontier item has no graph")
        try:
            g = parse_graph(item["graph"])
        except GraphFormatError as exc:
            raise ValueError(f"checkpoint frontier graph rejected: {exc}") from exc
        # the PACKCERT must certify the very graph the item names
        text = item.get("packcert")
        ok, msg = certs.verify_packcert(text, g) if type(text) is str else (False, "missing")
        if not ok:
            raise ValueError(f"checkpoint PACKCERT rejected: {msg}")
        _, red, blue, _ = certs.parse_packcert(text)
        frontier.append(SearchNode(g, Bounds.from_packing(g, red), Bounds.from_packing(g, blue)))
    check_frontier([node.graph for node in frontier], level)
    return SearchState(level, frontier, report)
