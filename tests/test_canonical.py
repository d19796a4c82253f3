import itertools
import json
import os
import random
import time

import pytest

from monopack import canonical
from monopack.canonical import (
    CanonicalKey,
    RelabelWitness,
    are_isomorphic,
    canonical_key,
    refinement_classes,
    relabel,
    twin_classes,
)
from monopack.constructions import BlobSpec, bipartite_minus_matching, pentagon_blowup
from monopack.graph import ColoredGraph


def random_complete(rng, n):
    return ColoredGraph(n, "".join(rng.choice("RB") for _ in range(n * (n - 1) // 2)))


def brute_isomorphic(g, h, admit_swap):
    """Reference isomorphism test by exhausting all relabellings."""
    targets = [h.colors, h.swap_colors().colors] if admit_swap else [h.colors]
    for order in itertools.permutations(range(g.n)):
        if relabel(g, list(order)).colors in targets:
            return True
    return False


def test_equal_keys_characterise_isomorphism_n4():
    graphs = [
        ColoredGraph(4, "".join("R" if bits >> k & 1 else "B" for k in range(6)))
        for bits in range(2 ** 6)
    ]
    for admit_swap in (False, True):
        keys = [canonical_key(g, admit_swap)[0] for g in graphs]
        for a in range(len(graphs)):
            for b in range(a, len(graphs)):
                same = keys[a] == keys[b]
                assert same == brute_isomorphic(graphs[a], graphs[b], admit_swap)


def test_equal_keys_characterise_isomorphism_random_n5():
    rng = random.Random(13)
    graphs = [random_complete(rng, 5) for _ in range(12)]
    for admit_swap in (False, True):
        keys = [canonical_key(g, admit_swap)[0] for g in graphs]
        for a in range(len(graphs)):
            for b in range(a, len(graphs)):
                same = keys[a] == keys[b]
                assert same == brute_isomorphic(graphs[a], graphs[b], admit_swap)


def test_relabel_invariance():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(3, 7)
        g = random_complete(rng, n)
        key, _ = canonical_key(g)
        order = list(range(n))
        rng.shuffle(order)
        h = relabel(g, order)
        key_h, _ = canonical_key(h)
        assert key == key_h
        assert are_isomorphic(g, h)
        assert are_isomorphic(g, h.swap_colors(), admit_swap=True)


def test_witness_maps_onto_key_graph():
    rng = random.Random(19)
    for _ in range(20):
        g = random_complete(rng, rng.randint(3, 7))
        for admit_swap in (False, True):
            key, wit = canonical_key(g, admit_swap)
            h = g.swap_colors() if wit.swapped else g
            order = [0] * g.n
            for v, p in enumerate(wit.perm):
                order[p] = v
            assert relabel(h, order) == key.graph()
            if not admit_swap:
                assert not wit.swapped


def test_swap_symmetric_graph_has_same_key_both_modes():
    # the pentagon colouring is isomorphic to its own colour swap
    red = [(i, (i + 1) % 5) for i in range(5)]
    g = ColoredGraph.from_red_edges(5, red)
    assert are_isomorphic(g, g.swap_colors())


def test_incomplete_graph_rejected():
    with pytest.raises(ValueError):
        canonical_key(ColoredGraph.monochromatic(3).add_vertex())


def test_twin_classes():
    g = ColoredGraph.monochromatic(5)
    assert twin_classes(g) == [0, 0, 0, 0, 0]
    g2, _ = pentagon_blowup(BlobSpec((2, 2, 2, 2, 2)))
    rep = twin_classes(g2)
    # each blob is one twin class
    assert rep == [0, 0, 2, 2, 4, 4, 6, 6, 8, 8]


def test_refinement_classes_are_isomorphism_invariant():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(4, 7)
        g = random_complete(rng, n)
        order = list(range(n))
        rng.shuffle(order)
        h = relabel(g, order)
        cg = refinement_classes(g)
        ch = refinement_classes(h)
        assert sorted(cg) == sorted(ch)
        for p in range(n):
            assert ch[p] == cg[order[p]]


def test_large_symmetric_graphs_are_fast():
    start = time.monotonic()
    canonical_key(ColoredGraph.monochromatic(25))
    g, _ = pentagon_blowup(BlobSpec((4, 4, 4, 4, 4)))
    canonical_key(g)
    assert time.monotonic() - start < 10.0
    # hundreds of automorphisms are found on bip(16, 8); a search that
    # rescans all of them at every node took 4.6-6.5 s on each labelling
    # (2-vCPU guest, Python 3.11), against 0.11-0.14 s without the rescans
    bip = bipartite_minus_matching(16, 8)
    for seed in range(3):
        order = list(range(bip.n))
        random.Random(seed).shuffle(order)
        h = relabel(bip, order)
        start = time.monotonic()
        canonical_key(h)
        assert time.monotonic() - start < 1.0, f"labelling {seed}"


def least_step_sequence_graph(g):
    """relabel(g, order) for the order minimising the step sequence, by brute force.

    Step p is (colours from order[p] to order[:p], refinement class of
    order[p]); the sequence determines the relabelled graph.
    """
    cls = refinement_classes(g)
    best = None
    for order in itertools.permutations(range(g.n)):
        seq = [
            ("".join(g.color_of(v, u) for u in order[:p]), cls[v])
            for p, v in enumerate(order)
        ]
        if best is None or seq < best[0]:
            best = (seq, order)
    return relabel(g, list(best[1]))


def test_key_is_the_least_step_sequence():
    graphs = [
        ColoredGraph(n, "".join("R" if bits >> k & 1 else "B" for k in range(n * (n - 1) // 2)))
        for n in range(1, 6)
        for bits in range(2 ** (n * (n - 1) // 2))
    ]
    rng = random.Random(29)
    graphs += [random_complete(rng, 6) for _ in range(30)]
    for g in graphs:
        plain = least_step_sequence_graph(g).colors
        swapped = least_step_sequence_graph(g.swap_colors()).colors
        assert canonical_key(g, admit_swap=False)[0].key == plain
        assert canonical_key(g, admit_swap=True)[0].key == min(plain, swapped)


def golden_records():
    with open(os.path.join(os.path.dirname(__file__), "canonical_golden.json")) as fh:
        return json.load(fh)


def test_keys_and_witnesses_match_recorded():
    """Keys and witnesses recorded with the search that rescanned every
    automorphism at every node: bipartite graphs minus a matching, relabelled
    pentagon blow-ups, a Paley graph, a circulant, colourings invariant under
    a random permutation and random colourings."""
    records = golden_records()
    assert len(records) == 34
    for r in records:
        key, wit = canonical_key(ColoredGraph(r["n"], r["colors"]), r["admit_swap"])
        assert key.key == r["key"], r["name"]
        assert wit == RelabelWitness(tuple(r["perm"]), r["swapped"]), r["name"]


def test_keys_with_different_symmetry_groups_do_not_compare():
    g = ColoredGraph.monochromatic(4)
    k1, _ = canonical_key(g, admit_swap=True)
    k2, _ = canonical_key(g, admit_swap=False)
    assert isinstance(k1, CanonicalKey)
    assert k1 != k2


def test_search_state_matches_rescan():
    """Every node's carried steps and fixing list equal what a rescan gives:
    the steps, in vertex order, are the colours to the placed vertices plus
    the refinement class, and the fixing list holds the automorphisms among
    autos[:seen] that fix every placed vertex.  The swap's search seeded with
    g's automorphisms, as `canonical_key` runs it, returns the order an
    unseeded one does, and its nodes match the rescan too."""
    nodes = []

    class Rescanned(canonical._Search):
        def __init__(self, g, autos):
            super().__init__(g.color_rows(), canonical._twins(g.color_rows()), autos)
            self.g = g

        def _dfs(self, order, seq, steps, fixing, seen):
            nodes.append(len(self.autos))
            assert list(steps.items()) == [
                (v, ("".join(self.g.color_of(v, u) for u in order), self.cls[v]))
                for v in range(self.n)
                if v not in order
            ]
            assert fixing == [
                a for a in self.autos[:seen] if all(a[0][u] == u for u in order)
            ]
            super()._dfs(order, seq, steps, fixing, seen)

    rng = random.Random(31)
    graphs = [bipartite_minus_matching(12, 6), pentagon_blowup(BlobSpec((1, 2, 1, 2, 3)))[0]]
    graphs += [random_complete(rng, 7) for _ in range(5)]
    graphs += [
        ColoredGraph(12, r["colors"]) for r in golden_records() if r["name"] == "symmetric n=12"
    ]

    def search(h, autos):
        return canonical._Search(h.color_rows(), canonical._twins(h.color_rows()), autos).run()

    seeds = []
    for g in graphs:
        for h in (g, g.swap_colors()):
            assert Rescanned(h, []).run() == search(h, [])
        autos = []
        search(g, autos)
        seeds.append(len(autos))
        assert Rescanned(g.swap_colors(), autos).run() == search(g.swap_colors(), [])
    assert max(nodes) > 50  # nodes below many automorphisms were checked
    assert max(seeds) > 10  # the swap's search started from many of them
