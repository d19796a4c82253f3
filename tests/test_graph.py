import itertools
import random

import pytest

from monopack.graph import (
    BLUE,
    RED,
    UNASSIGNED,
    ColoredGraph,
    GraphFormatError,
    all_edges,
    edge_index,
    norm_edge,
    parse,
)


def test_edge_index_is_upper_triangular_row_major():
    n = 6
    expected = 0
    for i in range(n):
        for j in range(i + 1, n):
            assert edge_index(n, i, j) == expected
            assert edge_index(n, j, i) == expected
            expected += 1
    assert expected == n * (n - 1) // 2


def test_edge_index_rejects_loops_and_out_of_range():
    with pytest.raises(ValueError):
        edge_index(5, 2, 2)
    with pytest.raises(ValueError):
        edge_index(5, 0, 5)
    with pytest.raises(ValueError):
        edge_index(5, -1, 3)


def test_norm_edge_orders_a_pair_of_k_n_and_refuses_the_rest():
    assert norm_edge((3, 1), 5) == norm_edge((1, 3), 5) == (1, 3)
    with pytest.raises(ValueError, match="loop"):
        norm_edge((2, 2), 5)
    for e in [(0, 5), (5, 0), (-1, 3), (3, -1)]:
        with pytest.raises(ValueError, match="out of range"):
            norm_edge(e, 5)


def test_color_string_length_validated():
    with pytest.raises(ValueError):
        ColoredGraph(4, "RRB")
    with pytest.raises(ValueError):
        ColoredGraph(3, "RXB")


def brute_triangles(g, c):
    out = []
    for t in itertools.combinations(range(g.n), 3):
        if all(g.color_of(a, b) == c for a, b in itertools.combinations(t, 2)):
            out.append(t)
    return out


def test_monochromatic_triangles_match_brute_force():
    import random

    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(3, 8)
        colors = "".join(rng.choice("RB.") for _ in range(n * (n - 1) // 2))
        g = ColoredGraph(n, colors)
        for c in (RED, BLUE):
            assert g.monochromatic_triangles(c) == brute_triangles(g, c)


def test_monochromatic_triangles_sorted_lexicographically():
    g = ColoredGraph.monochromatic(6)
    tris = g.monochromatic_triangles(RED)
    assert tris == sorted(tris)
    assert len(tris) == 20
    assert g.monochromatic_triangles(BLUE) == []


def test_add_vertex_and_set_edge():
    g = ColoredGraph.monochromatic(3)
    h = g.add_vertex()
    assert h.n == 4 and not h.is_complete
    assert h.unassigned_edges() == [(0, 3), (1, 3), (2, 3)]
    # old edges keep their colours
    for i, j in all_edges(3):
        assert h.color_of(i, j) == RED
    h = h.set_edge(1, 3, BLUE)
    assert h.color_of(1, 3) == BLUE
    with pytest.raises(ValueError):
        h.set_edge(1, 3, RED)  # already coloured
    with pytest.raises(ValueError):
        g.add_vertex().set_edge(0, 3, ".")


def test_flip_edge_is_an_involution():
    g = ColoredGraph(4, "RBRBRB")
    for e in all_edges(4):
        assert g.flip_edge(*e).flip_edge(*e) == g
    assert g.flip_edge(0, 1).color_of(0, 1) == BLUE


def random_graphs(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(2, 9)
        yield ColoredGraph(n, "".join(rng.choice("RB.") for _ in range(n * (n - 1) // 2)))


def test_delete_vertex_keeps_induced_colours():
    for g in [ColoredGraph(5, "RBRBRBRBRB"), *random_graphs(20, seed=1)]:
        for u in range(g.n):
            h = g.delete_vertex(u)
            keep = [v for v in range(g.n) if v != u]
            for a, b in all_edges(h.n):
                assert h.color_of(a, b) == g.color_of(keep[a], keep[b])


def test_swap_colors():
    g = ColoredGraph(4, "RRBB.R")
    assert g.swap_colors().colors == "BBRR.B"
    assert g.swap_colors().swap_colors() == g


def test_serialize_parse_round_trip():
    for colors in ("", "R", "RBB", "RB.RB."):
        n = {0: 0, 1: 2, 3: 3, 6: 4}[len(colors)]
        g = ColoredGraph(n, colors)
        assert parse(g.serialize()) == g


def test_parse_errors_carry_positions():
    with pytest.raises(GraphFormatError):
        parse("m=3\nRRR")
    with pytest.raises(GraphFormatError):
        parse("n=x\nRRR")
    with pytest.raises(GraphFormatError):
        parse("n=3\nRR")
    err = None
    try:
        parse("n=3\nRXR")
    except GraphFormatError as exc:
        err = exc
    assert err is not None and err.position == 5
    with pytest.raises(GraphFormatError):
        parse("n=3\nRRR\njunk")
    # the vertex count is ASCII digits, or '-' and digits to report the sign
    for count in ("+3", "\u0663", " 3", "3 ", "0x3", "3_0", ""):
        with pytest.raises(GraphFormatError, match="bad vertex count"):
            parse(f"n={count}\nRRR")
    for text in ("n=-2\nRRR", "n=-0\n\n"):
        with pytest.raises(GraphFormatError, match="non-negative"):
            parse(text)


def test_neighbor_masks():
    g = ColoredGraph(4, "RRBBRB")
    masks = g.neighbor_masks(RED)
    for v in range(4):
        for u in range(4):
            if u == v:
                continue
            assert bool(masks[v] >> u & 1) == (g.color_of(u, v) == RED)


def test_from_red_edges():
    g = ColoredGraph.from_red_edges(4, [(0, 1), (2, 3)])
    assert g.edges_of_color(RED) == [(0, 1), (2, 3)]
    assert g.is_complete
    for g in random_graphs(20, seed=2):
        for c in (RED, BLUE, UNASSIGNED):
            assert g.edges_of_color(c) == [e for e in all_edges(g.n) if g.color_of(*e) == c]
