import random
from fractions import Fraction
from itertools import combinations

import pytest

from monopack import lp
from monopack.graph import BLUE, RED, ColoredGraph
from monopack.lp import (
    certified_exceeds,
    frac_decomposition,
    integer_nu,
    nu_star,
    pack,
    prescribed_packing,
    rationalize,
    solve_loads,
    triangle_edges,
)
from monopack.structure import bip_distance_at_most

F = Fraction


def random_graph(rng, n):
    return ColoredGraph(n, "".join(rng.choice("RB") for _ in range(n * (n - 1) // 2)))


def test_nu_star_k4_all_red():
    g = ColoredGraph.monochromatic(4)
    res = nu_star(g, RED)
    assert res.primal_value == res.dual_value == 2
    # the optimum is the uniform vertex: every triangle at weight 1/2
    res.packing.check_feasible(g)
    res.cover.check_feasible(g)
    assert nu_star(g, BLUE).primal_value == 0


def test_nu_star_k5_and_k7():
    assert nu_star(ColoredGraph.monochromatic(5), RED).primal_value == F(10, 3)
    assert nu_star(ColoredGraph.monochromatic(7), RED).primal_value == 7


def test_pack_values():
    assert pack(ColoredGraph.monochromatic(5)).value == 10
    # blue = K_{3,3}: no blue triangle, red = two disjoint K_3
    g = ColoredGraph.from_red_edges(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    )
    assert pack(g).value == 6


def test_pentagon_coloring_packs_to_zero():
    red = [(i, (i + 1) % 5) for i in range(5)]
    g = ColoredGraph.from_red_edges(5, red)
    assert pack(g).value == 0


def test_exact_and_float_paths_agree():
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng, rng.randint(4, 7))
        for c in (RED, BLUE):
            fast = nu_star(g, c)
            slow = nu_star(g, c, exact_only=True)
            assert fast.primal_value == slow.primal_value
            assert fast.primal_value == fast.dual_value
            fast.packing.check_feasible(g)
            fast.cover.check_feasible(g)


def test_partial_colouring_uses_assigned_part_only():
    g = ColoredGraph.monochromatic(3).add_vertex()
    assert nu_star(g, RED).primal_value == 1
    g = g.set_edge(0, 3, RED).set_edge(1, 3, RED)
    assert nu_star(g, RED).primal_value == 1
    g = g.set_edge(2, 3, RED)
    assert nu_star(g, RED).primal_value == 2


def test_float_solution_failing_checks_falls_back_to_exact(monkeypatch):
    g = ColoredGraph.monochromatic(4)
    tris = g.monochromatic_triangles(RED)
    edges = sorted({e for t in tris for e in triangle_edges(t)})
    # primal and dual both total 51/25, but every edge is loaded to 51/50
    overloaded = ([0.51] * len(tris), [0.34] * len(edges))
    assert rationalize(*overloaded, tris, edges, g, RED) is None
    exact_calls = []
    real_exact_solve = lp._exact_solve

    def exact_solve(*args):
        exact_calls.append(args)
        return real_exact_solve(*args)

    monkeypatch.setattr(lp, "_float_solve", lambda triangles, edges: overloaded)
    monkeypatch.setattr(lp, "_exact_solve", exact_solve)
    res = nu_star(g, RED)
    assert res.primal_value == res.dual_value == 2
    assert len(exact_calls) == 1
    res.packing.check_feasible(g)
    res.cover.check_feasible(g)
    # the optimum itself is accepted as it stands
    optimal = rationalize([0.5] * len(tris), [1 / 3] * len(edges), tris, edges, g, RED)
    assert optimal.primal_value == optimal.dual_value == 2
    assert optimal.packing.weights == {t: F(1, 2) for t in tris}


def test_certified_exceeds_is_strict_and_sound():
    g = ColoredGraph.monochromatic(3)
    assert certified_exceeds(g, F(3)) is None  # pack = 3, not > 3
    cert = certified_exceeds(g, F(5, 2))
    assert cert is not None
    cert.check(g)
    assert certified_exceeds(ColoredGraph.monochromatic(4), F(100)) is None


def test_frac_decomposition_k7():
    edges = list(combinations(range(7), 2))
    packing, farkas = frac_decomposition(7, edges)
    assert farkas is None
    loads = packing.edge_loads()
    assert all(loads[e] == 1 for e in edges)


def test_frac_decomposition_k6_minus_edges_fails_with_farkas():
    edges = [e for e in combinations(range(6), 2) if e not in {(0, 1), (2, 3)}]
    packing, farkas = frac_decomposition(6, edges)
    assert packing is None
    triangles = [
        t
        for t in combinations(range(6), 3)
        if all(e in edges for e in triangle_edges(t))
    ]
    for t in triangles:
        assert sum(farkas[e] for e in triangle_edges(t)) >= 0
    assert sum(farkas.values()) < 0


def test_frac_decomposition_edge_in_no_triangle():
    packing, farkas = frac_decomposition(4, [(0, 1), (2, 3)])
    assert packing is None and farkas is not None


def test_prescribed_packing_roundtrip():
    # uniform K4 decomposition demand: every edge exactly 1
    demand = {e: F(1) for e in combinations(range(4), 2)}
    packing, farkas = prescribed_packing(4, demand)
    assert farkas is None
    assert all(v == 1 for v in packing.edge_loads().values())
    # an isolated demanded edge is unreachable
    packing, farkas = prescribed_packing(4, {(0, 1): F(1, 2)})
    assert packing is None
    # every demanded edge lies in the triangle 012, but its loads differ
    demand = {(0, 1): F(1), (0, 2): F(1), (1, 2): F(1, 2)}
    packing, farkas = prescribed_packing(4, demand)
    assert packing is None
    assert_farkas(farkas, [(0, 1, 2)], demand, {})


def assert_farkas(farkas, triangles, demand, capacity):
    """`farkas` proves that no weights on `triangles` meet the demands and
    capacities."""
    assert set(farkas) == set(demand) | set(capacity)
    assert all(farkas[e] >= 0 for e in capacity)
    for t in triangles:
        assert sum(farkas[e] for e in triangle_edges(t)) >= 0
    rhs = {**demand, **capacity}
    assert sum(y * rhs[e] for e, y in farkas.items()) < 0


def test_solve_loads_with_capacities():
    triangles = list(combinations(range(4), 3))
    demand = {(0, 1): F(1)}
    others = [e for e in combinations(range(4), 2) if e != (0, 1)]
    # (0, 1) is in two triangles, each through a capacity edge at (0, 2) or (0, 3)
    capacity = {e: F(1, 4) for e in others}
    packing, farkas = solve_loads(triangles, demand, capacity)
    assert packing is None
    assert_farkas(farkas, triangles, demand, capacity)
    capacity = {e: F(1, 2) for e in others}
    packing, farkas = solve_loads(triangles, demand, capacity)
    assert farkas is None
    assert packing.weights == {(0, 1, 2): F(1, 2), (0, 1, 3): F(1, 2)}


def test_integer_nu_oracle_values():
    assert integer_nu(4, combinations(range(4), 2)) == 1
    assert integer_nu(7, combinations(range(7), 2)) == 7
    assert integer_nu(3, [(0, 1)]) == 0
    with pytest.raises(ValueError):
        integer_nu(10, [])


def test_loop_edge_rejected():
    edges = [(0, 1), (1, 2), (0, 2), (1, 1)]
    with pytest.raises(ValueError, match="loop"):
        frac_decomposition(3, edges)
    with pytest.raises(ValueError, match="loop"):
        integer_nu(3, edges)
    with pytest.raises(ValueError, match="loop"):
        bip_distance_at_most(3, edges, 1)
    out_of_range = [(0, 1), (1, 2), (0, 2), (2, 5)]
    with pytest.raises(ValueError, match="out of range"):
        frac_decomposition(3, out_of_range)
    with pytest.raises(ValueError, match="out of range"):
        integer_nu(3, out_of_range)
    with pytest.raises(ValueError, match="out of range"):
        prescribed_packing(3, {(2, 5): F(1, 2)})


def test_integer_at_most_fractional_small_random():
    rng = random.Random(2)
    for _ in range(30):
        g = random_graph(rng, rng.randint(4, 6))
        for c in (RED, BLUE):
            nu = integer_nu(g.n, g.edges_of_color(c))
            assert nu <= nu_star(g, c).primal_value
