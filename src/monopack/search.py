"""Frontier search over 2-colourings of growing complete graphs.

Starting from a seed list of complete colourings on n vertices, each level
attaches one new vertex and exposes its edges one at a time, branching on
the two colours.  After every exposure the maximum packing of the changed
colour class is solved afresh; the untouched colour's packing is reused as
is.  A branch is cut only when an exact rational certificate shows that the
assigned part's total packing weight already exceeds the level threshold, so
no colouring within the threshold is ever lost.  Completed colourings are deduplicated by canonical form and
optionally removed by structural filters (pentagon blow-up distance or
closeness of a colour class to bipartite).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import certs
from .canonical import canonical_key
from .graph import BLUE, RED, UNASSIGNED, ColoredGraph
from .lp import FractionalPacking, certified_exceeds, nu_star
from .structure import bip_distance_at_most, pentagon_distance

CHECKPOINT_FORMAT = "monopack-checkpoint"
CHECKPOINT_VERSION = 1

KEEP = "keep"
FILTERED_PENTAGON = "filtered-pentagon"
FILTERED_BIPARTITE = "filtered-bipartite"


def default_threshold(n: int) -> Fraction:
    """Bound applied while extending a complete colouring on n vertices."""
    return Fraction(n * (n + 1), 4)


@dataclass(frozen=True)
class PentagonFilter:
    max_flips: int = 1


@dataclass(frozen=True)
class BipartiteFilter:
    k: int = 2


@dataclass(frozen=True)
class SearchConfig:
    n_end: int
    threshold: Callable[[int], Fraction] = default_threshold
    filters: dict = field(default_factory=dict)  # level -> filter instance
    admit_swap: bool = True


@dataclass(frozen=True)
class SearchNode:
    """A partial colouring (unassigned edges only at the newest vertex) with
    maximum packings of the assigned part."""

    graph: ColoredGraph
    f_r: FractionalPacking
    f_b: FractionalPacking


@dataclass
class LevelStats:
    survivors: int = 0
    pruned: int = 0
    filtered: int = 0
    completed: int = 0
    duplicates: int = 0


@dataclass
class SearchReport:
    levels: dict[int, LevelStats] = field(default_factory=dict)

    def at(self, n: int) -> LevelStats:
        return self.levels.setdefault(n, LevelStats())


def solve_node(g: ColoredGraph) -> SearchNode:
    return SearchNode(g, nu_star(g, RED).packing, nu_star(g, BLUE).packing)


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
    """Colour the edge (v, newest) both ways; re-solve only the changed colour."""
    g = node.graph
    u = g.n - 1
    red_g = g.set_edge(v, u, RED)
    blue_g = g.set_edge(v, u, BLUE)
    red_child = SearchNode(red_g, nu_star(red_g, RED).packing, node.f_b)
    blue_child = SearchNode(blue_g, node.f_r, nu_star(blue_g, BLUE).packing)
    return red_child, blue_child


def prune(node: SearchNode, threshold: Fraction):
    """An exceed certificate if the node can be cut, else None; exact only."""
    return certified_exceeds(node.graph, threshold, red=node.f_r, blue=node.f_b)


def classify_complete(g: ColoredGraph, level_filter):
    """Apply a structural filter to a completed colouring."""
    if level_filter is None:
        return KEEP, None
    if isinstance(level_filter, PentagonFilter):
        cert = pentagon_distance(g, level_filter.max_flips)
        if cert is not None:
            return FILTERED_PENTAGON, cert
        return KEEP, None
    if isinstance(level_filter, BipartiteFilter):
        for color in (RED, BLUE):
            cert = bip_distance_at_most(g.n, g.edges_of_color(color), level_filter.k)
            if cert is not None:
                return FILTERED_BIPARTITE, (color, cert)
        return KEEP, None
    raise ValueError(f"unknown filter {level_filter!r}")


@dataclass
class SearchState:
    """Between-level snapshot: the current frontier and counters."""

    level: int
    frontier: list[SearchNode]
    report: SearchReport
    admit_swap: bool


def run_search(
    seeds: list[ColoredGraph],
    cfg: SearchConfig,
    checkpoint_path: str | None = None,
    state: SearchState | None = None,
) -> tuple[dict[int, list[ColoredGraph]], SearchReport]:
    """All completions of the seeds up to cfg.n_end, level by level.

    Returns the per-level survivor lists (complete colourings, canonical
    representatives under the admitted symmetry) and the search report.
    Survivors are exactly the colourings whose certified pack value stays
    within the threshold and which pass the configured structural filters.
    """
    if state is None:
        if not seeds:
            raise ValueError("need at least one seed")
        sizes = {g.n for g in seeds}
        if len(sizes) != 1:
            raise ValueError("seeds must share a vertex count")
        seen = set()
        for g in seeds:
            if not g.is_complete:
                raise ValueError("seeds must be completely coloured")
            key, _ = canonical_key(g, cfg.admit_swap)
            if key.key in seen:
                raise ValueError("seeds must be pairwise non-isomorphic")
            seen.add(key.key)
        frontier = [solve_node(g) for g in seeds]
        level = sizes.pop()
    else:
        if state.admit_swap != cfg.admit_swap:
            raise ValueError("resumed state used a different symmetry setting")
        frontier = state.frontier
        level = state.level

    levels: dict[int, list[ColoredGraph]] = {level: [n.graph for n in frontier]}
    report = (state.report if state is not None else SearchReport())

    while level < cfg.n_end:
        threshold = Fraction(cfg.threshold(level))
        stats = report.at(level + 1)
        level_filter = cfg.filters.get(level + 1)
        survivors: dict[str, SearchNode] = {}
        for parent in frontier:
            root = SearchNode(parent.graph.add_vertex(), parent.f_r, parent.f_b)
            if prune(root, threshold) is not None:
                stats.pruned += 1
                continue
            stack = [root]
            while stack:
                node = stack.pop()
                if node.graph.is_complete:
                    stats.completed += 1
                    verdict, _ = classify_complete(node.graph, level_filter)
                    if verdict != KEEP:
                        stats.filtered += 1
                        continue
                    key, _ = canonical_key(node.graph, cfg.admit_swap)
                    if key.key in survivors:
                        stats.duplicates += 1
                    else:
                        survivors[key.key] = node
                    continue
                v = choose_next_vertex(node)
                for child in expose(node, v):
                    if prune(child, threshold) is not None:
                        stats.pruned += 1
                    else:
                        stack.append(child)
        frontier = [survivors[k] for k in sorted(survivors)]
        stats.survivors = len(frontier)
        level += 1
        levels[level] = [n.graph for n in frontier]
        if checkpoint_path is not None:
            checkpoint(SearchState(level, frontier, report, cfg.admit_swap), checkpoint_path)
    return levels, report


# -- persistence -----------------------------------------------------------


def checkpoint(state: SearchState, path: str) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "level": state.level,
        "admit_swap": state.admit_swap,
        "frontier": [
            {
                "graph": node.graph.serialize(),
                "packcert": certs.format_packcert(node.graph, node.f_r, node.f_b),
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
    os.replace(tmp, path)


def resume(path: str) -> SearchState:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupt checkpoint: {exc}") from exc
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError("not a search checkpoint file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
    frontier = []
    for item in payload["frontier"]:
        g, red, blue, _ = certs.parse_packcert(item["packcert"])
        red.check_feasible(g)
        blue.check_feasible(g)
        frontier.append(SearchNode(g, red, blue))
    report = SearchReport(
        {
            int(n): LevelStats(**stats)
            for n, stats in payload.get("report", {}).items()
        }
    )
    return SearchState(payload["level"], frontier, report, payload["admit_swap"])
