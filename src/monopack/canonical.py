"""Canonical forms and isomorphism testing for 2-coloured complete graphs.

The canonical representative of a colouring is found by a backtracking
search over vertex orderings.  A vertex appended at position k contributes
the string of its colours towards the already-placed vertices, refined by an
iterated colour-degree class; the canonical ordering minimises the resulting
sequence lexicographically.  Pruning: (a) only candidates achieving the
minimal next step are expanded, (b) branches that compare worse than the
best sequence found so far are cut, and (c) automorphisms discovered when
two orderings tie are used to skip equivalent candidates: at each node, the
candidates are merged into orbits under the automorphisms found so far that
fix every placed vertex, and only the least member of each orbit is
expanded.  With colour swap admitted, the swapped rows are searched too and
the smaller key wins (g's on a tie).  A swap keeps g's twins and
automorphisms: the second search starts from those the first found, which
never prune the lexicographically first minimising ordering (the witness).

Each node costs O(n) plus the automorphisms found since its parent looked.
The colour rows are built once per key; every unplaced vertex carries its
step string down the search, and placing v appends one character to each.
Every automorphism is stored with its set of moved points.  A child takes
its parent's list of prefix-fixing automorphisms, keeps those that fix v,
and tests only automorphisms found since by `isdisjoint` with the prefix
(McKay & Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 60
(2014)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import SWAP_COLORS, ColoredGraph


@dataclass(frozen=True)
class CanonicalKey:
    key: str  # serialized colour array of the canonical representative
    n: int

    def graph(self) -> ColoredGraph:
        return ColoredGraph(self.n, self.key)


@dataclass(frozen=True)
class RelabelWitness:
    """perm[v] = position of original vertex v in the canonical graph."""

    perm: tuple[int, ...]
    swapped: bool


def relabel(g: ColoredGraph, order: list[int]) -> ColoredGraph:
    """Graph whose position-p vertex is original vertex order[p]."""
    n = g.n
    chars = []
    for p in range(n):
        for q in range(p + 1, n):
            chars.append(g.color_of(order[p], order[q]))
    return ColoredGraph(n, "".join(chars))


def refinement_classes(g: ColoredGraph) -> list[int]:
    """Stable colour-degree classes; ids ordered by class signature."""
    return _refine(g.color_rows())


def _refine(rows: list[str]) -> list[int]:
    cls = [0] * len(rows)
    while True:
        sigs = []
        for v, row in enumerate(rows):
            counts: dict[tuple[int, str], int] = {}
            for u, c in enumerate(row):
                if u != v:
                    key = (cls[u], c)
                    counts[key] = counts.get(key, 0) + 1
            sigs.append((cls[v], tuple(sorted(counts.items()))))
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new_cls = [rank[s] for s in sigs]
        if new_cls == cls:
            return cls
        cls = new_cls


def twin_classes(g: ColoredGraph) -> list[int]:
    """Partition into twins: u, v with identical colours to every other vertex.

    Swapping two twins is an automorphism, so only one member of a class ever
    needs to be tried at any point of the canonical search.
    """
    return _twins(g.color_rows())


def _twins(rows: list[str]) -> list[int]:
    rep = list(range(len(rows)))
    for v, rv in enumerate(rows):
        for u in range(v):
            ru = rows[u]
            # equal rows apart from positions u < v
            if (
                rep[u] == u
                and ru[:u] == rv[:u]
                and ru[u + 1 : v] == rv[u + 1 : v]
                and ru[v + 1 :] == rv[v + 1 :]
            ):
                rep[v] = u
                break
    return rep


class _Search:
    def __init__(self, rows: list[str], twin: list[int], autos: list):
        self.n = len(rows)
        self.rows = rows
        self.cls = _refine(rows)
        self.twin = twin
        self.best_seq: list[tuple[str, int]] | None = None
        self.best_order: list[int] | None = None
        # known automorphisms with their moved points; the search appends its own
        self.autos: list[tuple[tuple[int, ...], frozenset[int]]] = autos

    def run(self) -> list[int]:
        self._dfs([], [], {v: ("", c) for v, c in enumerate(self.cls)}, [], 0)
        assert self.best_order is not None
        return self.best_order

    def _dfs(
        self,
        order: list[int],
        seq: list[tuple[str, int]],
        steps: dict[int, tuple[str, int]],
        fixing: list[tuple[tuple[int, ...], frozenset[int]]],
        seen: int,
    ) -> None:
        """Expand the node whose placed vertices are `order`.

        steps[v] is the step unplaced vertex v would append: its colours to
        `order` and its refinement class.  `fixing` holds the automorphisms
        among autos[:seen] that fix every vertex of `order`.
        """
        n = self.n
        k = len(order)
        if k == n:
            if self.best_seq is None or seq < self.best_seq:
                self.best_seq = list(seq)
                self.best_order = list(order)
            elif seq == self.best_seq:
                auto = [0] * n
                for a, b in zip(self.best_order, order):
                    auto[a] = b
                moved = frozenset(v for v in range(n) if auto[v] != v)
                self.autos.append((tuple(auto), moved))
            return
        mk = min(steps.values())
        # unplaced twins are interchangeable: keep one candidate per twin class
        seen_twin: set[int] = set()
        cands = []
        for v, step in steps.items():
            t = self.twin[v]
            if step == mk and t not in seen_twin:
                seen_twin.add(t)
                cands.append(v)
        if self.best_seq is not None:
            prefix = self.best_seq[: k + 1]
            cand = seq + [mk]
            if cand > prefix:
                return
        if seen < len(self.autos):
            # automorphisms found since the parent looked
            fixing = fixing + [a for a in self.autos[seen:] if a[1].isdisjoint(order)]
            seen = len(self.autos)
        reps = _orbit_reps(cands, fixing) if fixing else cands
        for v in reps:
            row = self.rows[v]
            child = {u: (s + row[u], c) for u, (s, c) in steps.items() if u != v}
            kept = [a for a in fixing if a[0][v] == v]
            self._dfs(order + [v], seq + [mk], child, kept, seen)


def _orbit_reps(cands: list[int], fixing) -> list[int]:
    """Least member of each orbit of `cands` under the automorphisms `fixing`."""
    parent = {v: v for v in cands}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, _ in fixing:
        for v in cands:
            w = a[v]
            if w in parent:
                ra, rb = find(v), find(w)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    return sorted({find(v) for v in cands})


def canonical_key(
    g: ColoredGraph, admit_swap: bool = True
) -> tuple[CanonicalKey, RelabelWitness]:
    """Canonical form of a complete colouring, optionally modulo colour swap.

    Equal keys characterise isomorphism under the admitted symmetry group.
    The witness maps g onto the key's graph.
    """
    if not g.is_complete:
        raise ValueError("canonical forms are defined for complete colourings only")
    rows = g.color_rows()
    twin, autos, found = _twins(rows), [], []
    for swapped in (False, True) if admit_swap else (False,):
        if swapped:
            rows = [row.translate(SWAP_COLORS) for row in rows]
        order = _Search(rows, twin, autos).run()
        key = "".join(rows[v][u] for p, v in enumerate(order) for u in order[p + 1 :])
        found.append((key, swapped, order))
    key_str, swapped, order = min(found)  # on a tie, g's key (not swapped) wins
    perm = [0] * g.n
    for p, v in enumerate(order):
        perm[v] = p
    return CanonicalKey(key_str, g.n), RelabelWitness(tuple(perm), swapped)


def are_isomorphic(g: ColoredGraph, h: ColoredGraph, admit_swap: bool = False) -> bool:
    if g.n != h.n:
        return False
    kg, _ = canonical_key(g, admit_swap)
    kh, _ = canonical_key(h, admit_swap)
    return kg.key == kh.key
