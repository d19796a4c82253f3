import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog

from monopack import lp
from monopack.certs import format_covercert, format_packcert
from monopack.constructions import (
    TABLE1, BlobSpec, ab_packing, bipartite_minus_matching, flipped_blowup, pentagon_blowup,
)
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
from monopack.search import SearchConfig, run_search
from monopack.structure import bip_distance_at_most, e_bip, min_bipartition_deletions

F = Fraction


def random_graph(rng, n):
    return ColoredGraph(n, "".join(rng.choice("RB") for _ in range(n * (n - 1) // 2)))


def test_nu_star_k4_all_red():
    g = ColoredGraph.monochromatic(4)
    res = nu_star(g, RED)
    assert res.packing.value() == res.cover.value() == 2
    # the optimum is the uniform vertex: every triangle at weight 1/2
    res.packing.check_feasible(g)
    res.cover.check_feasible(g)
    assert nu_star(g, BLUE).lo == 0


def test_nu_star_k5_and_k7():
    assert nu_star(ColoredGraph.monochromatic(5), RED).lo == F(10, 3)
    assert nu_star(ColoredGraph.monochromatic(7), RED).lo == 7


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


def packing_lp(g, color):
    """g's `color` triangles, their edges and the unit rhs and objective of
    its packing LP."""
    tris = g.monochromatic_triangles(color)
    edges = sorted({e for t in tris for e in triangle_edges(t)})
    return tris, edges, [1] * len(edges), [1] * len(tris)


def loads_lp(triangles, demand, capacity):
    """The triangles, edges, rhs and objective of `solve_loads`' LP."""
    loads = {**demand, **capacity}
    edges = sorted(loads)
    c = [sum(e in demand for e in triangle_edges(t)) for t in triangles]
    return triangles, edges, [loads[e] for e in edges], c


def test_incidence_is_column_wise():
    # a loads LP whose triangles have 0, 1, 2 and 3 edges among the rows
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    tris = [(2, 3, 4), (0, 3, 4), (1, 2, 3), (0, 1, 3), (0, 1, 2)]
    index, start = lp.incidence(tris, edges)
    assert len(start) == len(tris) + 1 and start[0] == 0
    for col, t in enumerate(tris):
        rows = [edges.index(e) for e in triangle_edges(t) if e in edges]
        assert index[start[col]:start[col + 1]] == sorted(rows) == rows, t
    # (2, 3, 4) has no row, and so an empty column
    assert [start[c + 1] - start[c] for c in range(len(tris))] == [0, 1, 2, 3, 3]
    assert start[-1] == len(index)


def test_exact_and_float_paths_agree():
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng, rng.randint(4, 7))
        for c in (RED, BLUE):
            fast = nu_star(g, c)
            tris, edges, rhs, ones = packing_lp(g, c)
            if tris:
                assert fast.lo == lp._exact_solve(*lp.incidence(tris, edges), rhs, ones)[2]
            assert fast.packing.value() == fast.cover.value()
            fast.packing.check_feasible(g)
            fast.cover.check_feasible(g)


def test_partial_colouring_uses_assigned_part_only():
    g = ColoredGraph.monochromatic(3).add_vertex()
    assert nu_star(g, RED).lo == 1
    g = g.set_edge(0, 3, RED).set_edge(1, 3, RED)
    assert nu_star(g, RED).lo == 1
    g = g.set_edge(2, 3, RED)
    assert nu_star(g, RED).lo == 2


def test_float_solution_failing_checks_falls_back_to_exact(monkeypatch):
    g = ColoredGraph.monochromatic(4)
    tris, edges, rhs, c = packing_lp(g, RED)
    lp_args = (*lp.incidence(tris, edges), rhs, c)
    # primal and dual both total 51/25, but every edge is loaded to 51/50
    overloaded = ([0.51] * len(tris), [0.34] * len(edges))
    assert rationalize(*overloaded, *lp_args) is None
    exact_calls = []
    real_exact_solve = lp._exact_solve

    def exact_solve(*args):
        exact_calls.append(args)
        return real_exact_solve(*args)

    monkeypatch.setattr(lp, "linprog", lambda **_: overloaded)
    monkeypatch.setattr(lp, "_exact_solve", exact_solve)
    res = nu_star(g, RED)
    assert res.packing.value() == res.cover.value() == 2
    assert len(exact_calls) == 1
    res.packing.check_feasible(g)
    res.cover.check_feasible(g)
    # so does a loads LP: x = y = 0 fails A^T y >= c, though read as an
    # optimum it would make K_4, which decomposes, look infeasible
    def zeros(c, index, start, rhs):
        return np.zeros(len(c)), np.zeros(len(rhs))

    monkeypatch.setattr(lp, "linprog", zeros)
    packing, farkas = frac_decomposition(4, combinations(range(4), 2))
    assert farkas is None and set(packing.edge_loads().values()) == {1}
    assert len(exact_calls) == 2
    # the optimum itself is accepted as it stands
    x, y, value = rationalize([0.5] * len(tris), [1 / 3] * len(edges), *lp_args)
    assert value == 2
    assert x == {i: F(1, 2) for i in range(len(tris))}
    assert y == {j: F(1, 3) for j in range(len(edges))}


def test_non_optimal_highs_model_falls_back_to_exact(monkeypatch):
    # HiGHS reports an unbounded model (a column in no row) and an
    # infeasible one as not optimal, and `linprog` returns None for both
    assert lp.linprog(c=[1], index=[], start=[0, 0], rhs=[]) is None
    assert lp.linprog(c=[1], index=[0], start=[0, 1], rhs=[-1]) is None
    # `_optimum` then returns the exact simplex's optimum
    g = random_graph(random.Random(43), 8)
    tris, edges, rhs, c = packing_lp(g, RED)
    assert tris
    monkeypatch.setattr(lp, "linprog", lambda **_: None)
    x, y, value = lp._optimum(tris, edges, rhs, c)
    ex, ey, exact_value = lp._exact_solve(*lp.incidence(tris, edges), rhs, c)
    assert value == exact_value
    assert x == {tris[i]: w for i, w in ex.items()}
    assert y == {edges[j]: w for j, w in ey.items()}


def test_rationalize_refuses_a_feasible_pair_of_unequal_values():
    g = ColoredGraph.monochromatic(3)
    lp_args = (*lp.incidence(*packing_lp(g, RED)[:2]), [1, 1, 1], [1])
    # x = 0 and y = 1 on every edge are feasible, but 0 != 3
    assert rationalize([0.0], [1.0, 1.0, 1.0], *lp_args) is None
    assert rationalize([1.0], [1.0, 0.0, 0.0], *lp_args)[2] == 1


def test_float_path_checks_cover_against_the_solved_triangles(monkeypatch):
    g = ColoredGraph.monochromatic(4)
    tris, edges, rhs, c = packing_lp(g, RED)
    lp_args = (*lp.incidence(tris, edges), rhs, c)
    # packing 1/2 on 012 and 013 and cover 1 on 01 both total 1, but the
    # cover leaves 023 and 123 uncovered
    xs = [0.5 if t in ((0, 1, 2), (0, 1, 3)) else 0.0 for t in tris]
    duals = [1.0 if e == (0, 1) else 0.0 for e in edges]
    assert rationalize(xs, duals, *lp_args) is None
    with pytest.raises(ValueError, match="not covered"):
        lp.FractionalCover(RED, {(0, 1): F(1)}).check_feasible(g)
    # the float path enumerates g's triangles once per solve
    calls = []
    real_triangles = ColoredGraph.monochromatic_triangles

    def triangles(self, color):
        calls.append(color)
        return real_triangles(self, color)

    monkeypatch.setattr(ColoredGraph, "monochromatic_triangles", triangles)
    rng = random.Random(41)
    solved = []
    for _ in range(5):
        h = random_graph(rng, 9)
        calls.clear()
        solved.append((h, nu_star(h, RED)))
        assert calls == [RED]
    monkeypatch.undo()
    for h, res in solved:
        res.cover.check_feasible(h)


def table1_graph(sizes, flipped):
    spec = BlobSpec(tuple(sizes))
    return flipped_blowup(spec) if flipped else pentagon_blowup(spec)[0]


def assert_linprog_matches_scipy(tris, edges, rhs, c):
    """`lp.linprog` returns the very floats scipy's public `linprog` does."""
    a = np.zeros((len(edges), len(tris)))
    index, start = lp.incidence(tris, edges)
    for col in range(len(tris)):
        a[index[start[col]:start[col + 1]], col] = 1.0
    res = linprog(
        c=-np.array(c, dtype=float), A_ub=a, b_ub=np.array(rhs, dtype=float),
        bounds=(0, None), method="highs",
    )
    assert res.success
    xs, duals = lp.linprog(c=c, index=index, start=start, rhs=rhs)
    assert np.array_equal(xs, res.x), (tris, rhs)
    assert np.array_equal(duals, -res.ineqlin.marginals), (tris, rhs)


def test_float_solve_matches_scipy_linprog():
    """The direct HiGHS call returns the very floats scipy's `linprog` does,
    on packing LPs and on demand/capacity LPs."""
    rng = random.Random(43)
    graphs = [random_graph(rng, n) for n in range(4, 17) for _ in range(3)]
    partial = random_graph(rng, 12)
    graphs.append(ColoredGraph(12, "".join(
        "." if rng.random() < 0.3 else c for c in partial.colors
    )))
    sizes, flipped, _ = TABLE1[1]
    graphs.append(table1_graph(sizes, flipped))
    solved = 0
    for g in graphs:
        for color in (RED, BLUE):
            if g.monochromatic_triangles(color):
                assert_linprog_matches_scipy(*packing_lp(g, color))
                solved += 1
    assert solved > len(graphs)
    # rhs in {1/4, 1/2, 1} and c = each triangle's number of demand edges;
    # an edge in neither dict leaves its triangles fewer than three rows
    short = 0
    for _ in range(30):
        n = rng.randint(4, 7)
        tris = list(combinations(range(n), 3))
        demand, capacity = {}, {}
        for e in combinations(range(n), 2):
            r = rng.random()
            if r < 0.85:
                (demand if r < 0.5 else capacity)[e] = rng.choice((F(1, 4), F(1, 2), F(1)))
        short += sum(not all(e in demand or e in capacity for e in triangle_edges(t))
                     for t in tris)
        assert_linprog_matches_scipy(*loads_lp(tris, demand, capacity))
    assert short


def test_float_path_accepts_the_mid_size_lps(monkeypatch):
    """Every LP here is accepted from HiGHS: falling back to the dense exact
    simplex on LPs of this size costs seconds to minutes each.  It covers
    both LP kinds: packings (`nu_star`) and prescribed loads (`solve_loads`,
    under `frac_decomposition` and `ab_packing` case c)."""
    rng = random.Random(47)
    graphs = [table1_graph(sizes, flipped) for sizes, flipped, _ in TABLE1]
    graphs.append(bipartite_minus_matching(16, 8))
    graphs.extend(random_graph(rng, 18) for _ in range(10))

    def exact(a_rows, b, c):
        raise AssertionError(f"exact fallback on {len(c)} triangles and {len(b)} edges")

    monkeypatch.setattr(lp, "simplex_max_leq", exact)
    for g in graphs:
        for color in (RED, BLUE):
            res = nu_star(g, color)
            assert res.lo == res.hi
    for g in graphs[:len(TABLE1)]:
        for color in (RED, BLUE):
            frac_decomposition(g.n, g.edges_of_color(color))
    for n_a in range(3, 6):
        for n_b in (n_a, n_a + 1):
            for y, z in combinations(range(n_a, n_a + n_b), 2):
                ab_packing("c", n_a, n_b, [(0, y), (0, z)])
    # criterion 3's (n-3)-non-edge construction, which does not decompose
    for n in (8, 9, 10):
        missing = {(x, n - 1) for x in range(3, n - 1)} | {(0, 1)}
        edges = [e for e in combinations(range(n), 2) if e not in missing]
        packing, farkas = frac_decomposition(n, edges)
        assert packing is None and farkas is not None


def test_missing_highs_binding_fails_at_import():
    code = (
        "import sys; sys.modules['scipy.optimize._highspy._core'] = None; "
        "import monopack"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode != 0
    assert "monopack needs scipy >= 1.15" in run.stderr


LP_GOLDEN = os.path.join(os.path.dirname(__file__), "lp_golden.json")


def cert_digest(g):
    """sha256 over g's PACKCERT and its red and blue COVERCERTs."""
    p = pack(g)
    text = (
        format_packcert(g, p.red.packing, p.blue.packing)
        + format_covercert(g, p.red.cover)
        + format_covercert(g, p.blue.cover)
    )
    return hashlib.sha256(text.encode()).hexdigest()


def search_checkpoint_digest(path):
    """sha256 of the checkpoint the empty-seed search to n = 7 leaves at `path`."""
    run_search([ColoredGraph.empty()], SearchConfig(n_end=7), checkpoint_path=path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_certificates_and_checkpoint_match_recorded(tmp_path):
    """Certificate and checkpoint bytes recorded with scipy's `linprog` as
    the float solver: random colourings with n = 5-18, every other TABLE1
    row and bip(16, 8)."""
    with open(LP_GOLDEN) as fh:
        golden = json.load(fh)
    assert len(golden["graphs"]) == 40
    for r in golden["graphs"]:
        assert cert_digest(ColoredGraph(r["n"], r["colors"])) == r["sha256"], r["name"]
    path = str(tmp_path / "grow7.json")
    assert search_checkpoint_digest(path) == golden["checkpoint_sha256"]


def test_certified_exceeds_is_strict_and_sound():
    g = ColoredGraph.monochromatic(3)
    p = pack(g)
    # pack = 3, not > 3
    assert certified_exceeds(g, F(3), p.red.packing, p.blue.packing) is None
    assert certified_exceeds(g, F(5, 2), p.red.packing, p.blue.packing) == p.value
    k4 = ColoredGraph.monochromatic(4)
    q = pack(k4)
    assert certified_exceeds(k4, F(100), q.red.packing, q.blue.packing) is None
    # the labels are checked: red K_4 passed as both colours would total 12
    with pytest.raises(ValueError, match="red then blue"):
        certified_exceeds(k4, F(6), q.red.packing, q.red.packing)
    with pytest.raises(ValueError, match="red then blue"):
        certified_exceeds(k4, F(0), q.blue.packing, q.red.packing)


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
    # on K_2 the demanded edge is in no triangle: y = -1 there is the proof
    packing, farkas = prescribed_packing(2, {(0, 1): F(1)})
    assert packing is None and farkas == {(0, 1): -1}
    assert_farkas(farkas, [], {(0, 1): F(1)}, {})
    # every demanded edge lies in the triangle 012, but its loads differ
    demand = {(0, 1): F(1), (0, 2): F(1), (1, 2): F(1, 2)}
    packing, farkas = prescribed_packing(4, demand)
    assert packing is None
    assert_farkas(farkas, [(0, 1, 2)], demand, {})


def test_prescribed_packing_refuses_a_pair_named_twice():
    # the demand on 01 is 1 in one spelling and 0 in the other, in either
    # key order; a pair named twice was read as whichever key came last
    spellings = [((0, 1), F(1)), ((1, 0), F(0))]
    for first, second in (spellings, spellings[::-1]):
        demand = dict([first, ((1, 2), F(1)), ((0, 2), F(1)), second])
        with pytest.raises(ValueError, match=r"pair \(0, 1\) twice"):
            prescribed_packing(3, demand)
    # one spelling alone is read as the ordered pair
    packing, farkas = prescribed_packing(3, {(1, 0): 1, (1, 2): 1, (0, 2): 1})
    assert farkas is None and packing.weights == {(0, 1, 2): 1}


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
    # an edge with both a demand and a capacity has no one row
    with pytest.raises(ValueError, match=r"edges \[\(0, 1\)\] have both"):
        solve_loads(triangles, demand, {**capacity, (0, 1): F(1)})


def random_loads():
    """Forty (triangles, demand, capacity) programs on K_n, n = 4..6, with
    loads in {0, 1/4, ..., 1}."""
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(4, 6)
        triangles = list(combinations(range(n), 3))
        demand, capacity = {}, {}
        for e in combinations(range(n), 2):
            rows = demand if rng.random() < 0.6 else capacity
            rows[e] = F(rng.randint(0, 4), 4)
        yield triangles, demand, capacity


def test_random_loads_certified():
    """Random demands and capacities on K_n: either a packing that meets
    every demand exactly within the capacities, or a Farkas vector."""
    feasible = infeasible = 0
    for triangles, demand, capacity in random_loads():
        packing, farkas = solve_loads(triangles, demand, capacity)
        if packing is not None:
            feasible += 1
            assert farkas is None
            assert all(w > 0 for w in packing.weights.values())
            loads = packing.edge_loads()
            for e, d in demand.items():
                assert loads.get(e, 0) == d
            for e, cap in capacity.items():
                assert loads.get(e, 0) <= cap
        else:
            infeasible += 1
            assert_farkas(farkas, triangles, demand, capacity)
    assert feasible and infeasible


def test_random_loads_match_the_exact_simplex():
    """On the same programs, the float path's optimum and `solve_loads`'
    verdict are the exact simplex's."""
    for triangles, demand, capacity in random_loads():
        lp_args = loads_lp(triangles, demand, capacity)
        _, _, value = lp._optimum(*lp_args)
        _, _, exact = lp._exact_solve(*lp.incidence(*lp_args[:2]), *lp_args[2:])
        assert value == exact
        packing, _ = solve_loads(triangles, demand, capacity)
        assert (packing is not None) == (exact == sum(demand.values()))


def test_integer_nu_oracle_values():
    assert integer_nu(4, combinations(range(4), 2)) == 1
    assert integer_nu(7, combinations(range(7), 2)) == 7
    assert integer_nu(3, [(0, 1)]) == 0
    with pytest.raises(ValueError):
        integer_nu(10, [])


def brute_integer_nu(n, edges):
    """The largest set of pairwise edge-disjoint triangles, by trying every
    subset of the triangles from the largest size down."""
    es = {tuple(sorted(e)) for e in edges}
    tris = [t for t in combinations(range(n), 3) if set(triangle_edges(t)) <= es]
    for r in range(min(len(tris), len(es) // 3), 0, -1):
        for sub in combinations(tris, r):
            if len({e for t in sub for e in triangle_edges(t)}) == 3 * r:
                return r
    return 0


def test_integer_nu_matches_brute_force():
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [e for k, e in enumerate(pairs) if mask >> k & 1]
            assert integer_nu(n, edges) == brute_integer_nu(n, edges), (n, edges)
    rng = random.Random(6)
    for _ in range(20):
        edges = [e for e in combinations(range(6), 2) if rng.random() < 0.7]
        assert integer_nu(6, edges) == brute_integer_nu(6, edges), edges


def test_integer_nu_decides_a_dense_graph_quickly():
    """K_9 less two disjoint edges has 34 edges, so counting edges allows 11
    triangles.  But the four ends have odd degree 7, so a packing leaves an
    edge at each of them, at least two edges in all, and nu = 10: the search
    must refute every family of 11."""
    edges = [e for e in combinations(range(9), 2) if e not in ((0, 1), (2, 3))]
    start = time.perf_counter()
    assert integer_nu(9, edges) == 10
    assert time.perf_counter() - start < 0.5


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
    # a pair outside K_n is refused whatever its demand, zero included
    with pytest.raises(ValueError, match="out of range"):
        prescribed_packing(3, {(2, 5): F(0)})
    with pytest.raises(ValueError, match="out of range"):
        prescribed_packing(3, {(-1, 1): F(0)})
    with pytest.raises(ValueError, match="out of range"):
        min_bipartition_deletions(4, [(0, 7)])
    with pytest.raises(ValueError, match="out of range"):
        e_bip(4, [(0, 7)])
    with pytest.raises(ValueError, match="out of range"):
        bip_distance_at_most(3, [(0, 5)], 1)
    with pytest.raises(ValueError, match="out of range"):
        min_bipartition_deletions(4, [(-1, 2)])


def test_integer_at_most_fractional_small_random():
    rng = random.Random(2)
    for _ in range(30):
        g = random_graph(rng, rng.randint(4, 6))
        for c in (RED, BLUE):
            nu = integer_nu(g.n, g.edges_of_color(c))
            assert nu <= nu_star(g, c).lo
