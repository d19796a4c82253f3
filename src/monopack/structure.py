"""Structural classifiers: distance to bipartite, pentagon blow-ups, bad
configurations around an apex vertex.

Simple (uncoloured) graphs, such as a single colour class, are passed around
as a vertex count together with an edge list.

Distance at most k to bipartite is decided by branching, to depth k, over
the edges of an odd cycle: a breadth-first 2-colouring either succeeds,
which gives the partition, or finds an odd cycle.  Every deletion set that
makes the graph bipartite meets every odd cycle, so any odd cycle the
search finds, shortest or not, loses no deletion set and the decision is
exact.

A pentagon blow-up is a partition of the vertices into five non-empty blobs
A_0, ..., A_4 with every A_i - A_{i+1} edge red and every A_i - A_{i+2} edge
blue (indices mod 5); edges inside blobs are unconstrained.  Distance at
most k (k = 0 or 1) is decided by one exhaustive backtracking search over the
blob of every vertex that tolerates at most k cross edges of the wrong
colour: flipping those edges gives the blow-up.  Each unplaced vertex keeps
the blobs it can still take with no and with one wrong edge, and a branch is
cut once the five blobs can no longer all be filled, so the decision has no
false positives or negatives and the certificate re-verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import BLUE, RED, ColoredGraph, Edge, norm_edge

Triple = tuple[int, int, int]

RED_WINDOW = (0, 2, 3)
BLUE_WINDOW = (0, 1, 2)


# -- distance to bipartite -------------------------------------------------


@dataclass(frozen=True)
class BipartitionCert:
    part1: frozenset[int]
    part2: frozenset[int]
    removed_edges: frozenset[Edge]

    def check(self, n: int, edges) -> bool:
        if self.part1 & self.part2 or (self.part1 | self.part2) != set(range(n)):
            return False
        try:
            edge_set = {norm_edge(e, n) for e in edges}
        except ValueError:
            return False
        return all(
            e in self.removed_edges or (e[0] in self.part1) != (e[1] in self.part1)
            for e in edge_set
        )


def _odd_cycle(n: int, edges) -> tuple[list[int] | None, list[int] | None]:
    """(side, None) with a side (0/1) per vertex if the graph is bipartite,
    else (None, cycle) with the vertex list of an odd cycle.

    A breadth-first 2-colouring; the first edge whose ends got the same side
    joins two vertices at the same depth, so it closes their tree paths up
    to their nearest common ancestor into a simple cycle of odd length.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    side = [-1] * n
    parent = [-1] * n
    for s in range(n):
        if side[s] >= 0:
            continue
        side[s] = 0
        queue = [s]
        for v in queue:  # the loop also visits the vertices it appends
            for u in adj[v]:
                if side[u] < 0:
                    side[u] = 1 - side[v]
                    parent[u] = v
                    queue.append(u)
                elif side[u] == side[v]:
                    path_v, path_u = [v], [u]
                    while path_v[-1] != path_u[-1]:
                        path_v.append(parent[path_v[-1]])
                        path_u.append(parent[path_u[-1]])
                    return None, path_v + path_u[-2::-1]
    return side, None


def bip_distance_at_most(n: int, edges, k: int) -> BipartitionCert | None:
    """Certificate that at most k edge deletions make the graph bipartite.

    Exact decision: every valid deletion set meets every odd cycle, so it
    suffices to branch, to depth k, over the edges of the one odd cycle the
    breadth-first 2-colouring finds.  The 2-colouring of the leaf that
    succeeds is the certificate's partition.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    edge_set = {norm_edge(e, n) for e in edges}

    def rec(current: set[Edge], budget: int) -> list[int] | None:
        side, cycle = _odd_cycle(n, current)
        if cycle is None:
            return side
        if budget == 0:
            return None
        for e in zip(cycle, cycle[1:] + cycle[:1]):
            side = rec(current - {norm_edge(e, n)}, budget - 1)
            if side is not None:
                return side
        return None

    side = rec(edge_set, k)
    if side is None:
        return None
    part1 = frozenset(v for v in range(n) if side[v] == 0)
    part2 = frozenset(range(n)) - part1
    internal = frozenset(e for e in edge_set if side[e[0]] == side[e[1]])
    return BipartitionCert(part1, part2, internal)


def min_bipartition_deletions(n: int, edges) -> int:
    """Fewest edge deletions that make the graph bipartite (n <= 28).

    Exhaustive over all bipartitions via a split into halves: internal edge
    counts inside each half are tabulated per half-mask, and the cross
    contribution is updated one left vertex at a time in Gray-code order.
    """
    if not 1 <= n <= 28:
        raise ValueError(f"n={n} outside supported range 1..28")
    edge_list = sorted({norm_edge(e, n) for e in edges})
    if not edge_list:
        return 0
    a = n // 2
    b = n - a
    masks_r = np.arange(1 << b, dtype=np.int64)
    right_cut = np.zeros(1 << b, dtype=np.int64)
    left_cut = np.zeros(1 << a, dtype=np.int64)
    nb_right = [0] * a  # right-neighbour mask per left vertex
    deg_right = [0] * a
    for i, j in edge_list:
        if j < a:
            masks_l = np.arange(1 << a, dtype=np.int64)
            left_cut += ((masks_l >> i) ^ (masks_l >> j)) & 1
        elif i >= a:
            right_cut += ((masks_r >> (i - a)) ^ (masks_r >> (j - a))) & 1
        else:
            nb_right[i] |= 1 << (j - a)
            deg_right[i] += 1
    c_rows = []
    for i in range(a):
        bits = np.zeros(1 << b, dtype=np.int64)
        for t in range(b):
            if nb_right[i] >> t & 1:
                bits += (masks_r >> t) & 1
        c_rows.append(bits)
    c_all = np.zeros(1 << b, dtype=np.int64)
    for row in c_rows:
        c_all += row
    # Gray-code walk over left masks, maintaining the partial sums for the
    # vertices currently on side 1 of the left half
    best = 0
    d = np.zeros(1 << b, dtype=np.int64)
    sum_deg = 0
    prev_gray = 0
    for t in range(1 << a):
        gray = t ^ (t >> 1)
        changed = gray ^ prev_gray
        if changed:
            i = changed.bit_length() - 1
            if gray >> i & 1:
                d += c_rows[i]
                sum_deg += deg_right[i]
            else:
                d -= c_rows[i]
                sum_deg -= deg_right[i]
        prev_gray = gray
        cut = left_cut[gray] + sum_deg + right_cut + c_all - 2 * d
        m = int(cut.max())
        if m > best:
            best = m
    return len(edge_list) - best


def e_bip(n: int, edges) -> Fraction:
    """Least delta such that deleting delta * n^2 edges leaves a bipartite graph."""
    return Fraction(min_bipartition_deletions(n, edges), n * n)


# -- pentagon blow-up detection --------------------------------------------


# colour of every A_i - A_{i+d} edge, by d mod 5; edges inside a blob are free
_CROSS = (None, RED, BLUE, BLUE, RED)
# _FITS[c][b]: bit b' is set when a c-coloured edge may join A_b and A_b'
_FITS = {
    c: [sum(1 << ((b + d) % 5) for d in range(5) if _CROSS[d] in (None, c)) for b in range(5)]
    for c in (RED, BLUE)
}
_ALL_BLOBS = 0b11111


@dataclass(frozen=True)
class PentagonCert:
    blobs: tuple[tuple[int, ...], ...]  # five ordered, each sorted, non-empty
    flips: tuple[Edge, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blobs)

    def blob_of(self) -> dict[int, int]:
        return {v: i for i, blob in enumerate(self.blobs) for v in blob}

    def check(self, g: ColoredGraph) -> bool:
        if len(self.blobs) != 5 or any(not b for b in self.blobs):
            return False
        verts = [v for blob in self.blobs for v in blob]
        if len(set(verts)) != len(verts) or len(verts) != g.n:
            return False
        h = g
        for i, j in self.flips:
            h = h.flip_edge(i, j)
        blob = self.blob_of()
        for i in range(g.n):
            for j in range(i + 1, g.n):
                want = _CROSS[(blob[j] - blob[i]) % 5]
                if want is not None and h.color_of(i, j) != want:
                    return False
        return True


def _blob_search(
    g: ColoredGraph, max_flips: int
) -> tuple[list[int], tuple[Edge, ...]] | None:
    """Blob of every vertex, and the cross edges of the wrong colour, for a
    partition into five non-empty blobs with at most max_flips such edges.

    A flip-free partition is returned if one exists, otherwise the one whose
    wrong edge is least.  Vertices take blobs in index order, vertex 0 pinned
    to blob 0 (rotation); a wrong edge (u, v) is recorded when its later
    vertex v is placed.  ok0[w] and ok1[w] are the blobs an unplaced w can
    take with no, and with exactly one, wrong edge to the placed vertices.  A
    branch is cut as soon as the used blobs and those the unplaced vertices
    can still reach within the budget miss one of the five.
    """
    n = g.n
    rows = g.color_rows()
    blob = [0] * n
    best: tuple[list[int], tuple[Edge, ...]] | None = None

    def dfs(v: int, used: int, ok0: list[int], ok1: list[int], flips) -> bool:
        nonlocal best
        if v == n:
            if best is None or flips < best[1]:
                best = (list(blob), flips)
            return not flips
        row = rows[v]
        for b in range(5) if v else (0,):
            bit = 1 << b
            placed = flips
            if not ok0[v] & bit:
                if not ok1[v] & bit or len(flips) == max_flips:
                    continue
                u = next(u for u in range(v) if _CROSS[(b - blob[u]) % 5] not in (None, row[u]))
                placed = flips + ((u, v),)
                if best is not None and placed >= best[1]:
                    continue
            spare = len(placed) < max_flips
            reach = used | bit
            n0, n1 = ok0[:], ok1[:]
            for w in range(v + 1, n):
                fits = _FITS[row[w]][b]
                n0[w] = ok0[w] & fits
                n1[w] = ok1[w] & fits | ok0[w] & ~fits
                r = n0[w] | n1[w] if spare else n0[w]
                if not r:
                    break
                reach |= r
            else:
                if reach == _ALL_BLOBS:
                    blob[v] = b
                    if dfs(v + 1, used | bit, n0, n1, placed):
                        return True
        return False

    dfs(0, 0, [_ALL_BLOBS] * n, [0] * n, ())
    return best


def _canonical_blob_order(blobs: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Rotate/reflect so the size vector is lexicographically maximal."""
    variants = []
    for rev in (False, True):
        seq = blobs[::-1] if rev else blobs
        for r in range(5):
            rot = seq[r:] + seq[:r]
            variants.append(
                (
                    tuple(len(b) for b in rot),
                    tuple(tuple(sorted(b)) for b in rot),
                )
            )
    variants.sort(key=lambda t: (tuple(-s for s in t[0]), t[1]))
    return variants[0][1]


def pentagon_distance(g: ColoredGraph, max_flips: int) -> PentagonCert | None:
    """Certificate that g is at most max_flips edge-flips from a pentagon blow-up."""
    if g.n < 5:
        raise ValueError("pentagon blow-ups need at least 5 vertices")
    if max_flips not in (0, 1):
        raise ValueError("max_flips must be 0 or 1")
    if not g.is_complete:
        raise ValueError("pentagon distance is defined for complete colourings")
    found = _blob_search(g, max_flips)
    if found is None:
        return None
    assignment, flips = found
    blobs: list[list[int]] = [[] for _ in range(5)]
    for v, b in enumerate(assignment):
        blobs[b].append(v)
    cert = PentagonCert(_canonical_blob_order(blobs), flips)
    assert cert.check(g)
    return cert


# -- bad configurations around an apex -------------------------------------


@dataclass(frozen=True)
class BadConfiguration:
    vertices: Triple  # one per listed blob window, in window order
    color: str
    apex: int
    window: tuple[int, int, int]  # blob indices, mod 5


def bad_configurations(
    g: ColoredGraph, u: int, cert: PentagonCert
) -> list[BadConfiguration]:
    """All bad configurations with apex u: three same-colour neighbours of u,
    one in each blob of a window (i, i+2, i+3) for red or (i, i+1, i+2) for
    blue."""
    if cert.flips:
        raise ValueError("bad configurations need a flip-free pentagon certificate")
    if any(u in blob for blob in cert.blobs):
        raise ValueError(f"apex {u} lies inside a blob")
    nbr = {
        c: [
            [v for v in blob if g.color_of(u, v) == c]
            for blob in cert.blobs
        ]
        for c in (RED, BLUE)
    }
    out: list[BadConfiguration] = []
    for c, offsets in ((RED, RED_WINDOW), (BLUE, BLUE_WINDOW)):
        for i in range(5):
            window = tuple((i + o) % 5 for o in offsets)
            for a in nbr[c][window[0]]:
                for b in nbr[c][window[1]]:
                    for d in nbr[c][window[2]]:
                        out.append(BadConfiguration((a, b, d), c, u, window))
    return out


def max_disjoint(sets) -> list[int]:
    """Indices of a largest family of pairwise disjoint 3-element sets; the
    one exact search for vertex-disjoint bad configurations and for
    edge-disjoint triangles (`lp.integer_nu`).  Branch-and-bound on one
    element: use a set through it, or drop it; a branch is cut once the free
    elements cannot hold enough triples to beat the best family found."""
    sets = [frozenset(s) for s in sets]
    best: list[int] = []

    def rec(avail: list[int], chosen: list[int]) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        free = set().union(*(sets[k] for k in avail))
        if len(chosen) + len(free) // 3 <= len(best):
            return
        v = next(iter(sets[avail[0]]))
        with_v = [k for k in avail if v in sets[k]]
        for k in with_v:
            rest = [m for m in avail if sets[m].isdisjoint(sets[k])]
            rec(rest, chosen + [k])
        rec([k for k in avail if v not in sets[k]], chosen)

    rec(list(range(len(sets))), [])
    return best


def max_disjoint_bad_configs(
    configs: list[BadConfiguration],
) -> tuple[int, list[BadConfiguration]]:
    """Maximum number of pairwise vertex-disjoint configurations, with a
    witness family, by `max_disjoint` on their vertex sets."""
    best = max_disjoint(c.vertices for c in configs)
    return len(best), [configs[k] for k in best]


def absorb_apex(
    g: ColoredGraph, u: int, cert: PentagonCert
) -> tuple[int, tuple[Edge, ...]]:
    """Cheapest way to absorb u into a blob.

    Returns the smallest blob index i such that placing u in A_i needs the
    fewest flips of edges at u, together with that flip set.
    """
    if cert.flips:
        raise ValueError("absorption needs a flip-free pentagon certificate")
    if any(u in blob for blob in cert.blobs):
        raise ValueError(f"apex {u} lies inside a blob")
    best: tuple[int, tuple[Edge, ...]] | None = None
    for i in range(5):
        flips: list[Edge] = []
        for off in range(1, 5):
            want = _CROSS[off]
            for v in cert.blobs[(i + off) % 5]:
                if g.color_of(u, v) != want:
                    flips.append((min(u, v), max(u, v)))
        if best is None or len(flips) < len(best[1]):
            best = (i, tuple(sorted(flips)))
    assert best is not None
    return best
