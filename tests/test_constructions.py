import itertools
import random
from fractions import Fraction

import pytest

from monopack import constructions
from monopack.constructions import (
    B1,
    B2,
    TABLE1,
    BlobSpec,
    ab_packing,
    abc_packing,
    bipartite_minus_matching,
    flipped_blowup,
    pentagon_blowup,
    pentagon_pack_closed_form,
)
from monopack.graph import BLUE, RED, ColoredGraph
from monopack.lp import FractionalPacking, pack

F = Fraction


# -- pentagon blow-ups ------------------------------------------------------


def test_blowup_spec_validation():
    with pytest.raises(ValueError):
        BlobSpec((1, 1, 1, 1))
    with pytest.raises(ValueError):
        BlobSpec((1, 1, 1, 1, 0))
    with pytest.raises(ValueError):
        BlobSpec((2, 1, 1, 1, 1), ({(0, 0): RED}, RED, RED, RED, RED))
    with pytest.raises(ValueError):
        BlobSpec((2, 1, 1, 1, 1), ({(0, 1): "X"}, RED, RED, RED, RED))


def test_blowup_explicit_interiors():
    spec = BlobSpec((3, 1, 1, 1, 1), ({(0, 1): BLUE, (0, 2): RED, (1, 2): RED},) + (RED,) * 4)
    g, cert = pentagon_blowup(spec)
    assert g.color_of(0, 1) == BLUE
    assert g.color_of(0, 2) == RED
    assert cert.check(g)


def test_flipped_blowup_differs_by_one_edge():
    spec = BlobSpec((2, 2, 2, 2, 2))
    g, cert = pentagon_blowup(spec)
    h = flipped_blowup(spec)
    diff = [
        (i, j)
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if g.color_of(i, j) != h.color_of(i, j)
    ]
    assert diff == [(cert.blobs[0][0], cert.blobs[2][0])]


def test_closed_form_values_match_table():
    for sizes, flipped, value in TABLE1:
        assert pentagon_pack_closed_form(sizes, flipped) == value


def test_closed_form_rejects_unknown_sizes():
    with pytest.raises(ValueError):
        pentagon_pack_closed_form((1, 1, 1, 1, 1), False)
    # family for flipped variants is smaller
    assert (3, 3, 3, 3, 5) in B1 and (3, 3, 3, 3, 5) not in B2
    with pytest.raises(ValueError):
        pentagon_pack_closed_form((3, 3, 3, 3, 5), True)


def test_closed_form_agrees_with_lp_on_samples():
    for sizes, flipped, value in [
        ((3, 3, 3, 4, 4), False, 63),
        ((3, 3, 3, 4, 4), True, 66),
        ((2, 3, 4, 4, 4), False, 66),
    ]:
        spec = BlobSpec(sizes)
        g = flipped_blowup(spec) if flipped else pentagon_blowup(spec)[0]
        assert pack(g).value == value == pentagon_pack_closed_form(sizes, flipped)


# -- bipartite minus a matching ---------------------------------------------


def test_bipartite_minus_matching_structure():
    g = bipartite_minus_matching(9, 2)
    top = 5
    for i, j in itertools.combinations(range(9), 2):
        same_part = (i < top) == (j < top)
        if same_part:
            assert g.color_of(i, j) == RED
        elif j - top == i and i < 2:
            assert g.color_of(i, j) == RED
        else:
            assert g.color_of(i, j) == BLUE
    with pytest.raises(ValueError):
        bipartite_minus_matching(9, 5)


def test_bipartite_minus_matching_pack_value():
    for n, m in [(8, 0), (8, 2), (9, 1), (10, 4)]:
        g = bipartite_minus_matching(n, m)
        assert pack(g).value == (n - 1) ** 2 // 4


# -- two-blob packings ------------------------------------------------------


def test_ab_case_a_all_admissible_sizes():
    for n_a in range(2, 7):
        for n_b in range(n_a, min(n_a + 2, 6) + 1):
            g, packing = ab_packing("a", n_a, n_b)
            # every cross triangle covers exactly one inside edge, and each
            # inside edge is covered exactly 1/2
            inside_edges = n_a * (n_a - 1) // 2 + n_b * (n_b - 1) // 2
            assert packing.value() == F(inside_edges, 2)
    with pytest.raises(ValueError):
        ab_packing("a", 2, 5)
    with pytest.raises(ValueError):
        ab_packing("a", 3, 3, [(0, 3)])


def test_ab_case_b_all_matchings():
    for n_a in range(3, 7):
        for n_b in range(n_a, min(n_a + 1, 6) + 1):
            for m in range(0, n_a + 1):
                missing = [(i, n_a + i) for i in range(m)]
                ab_packing("b", n_a, n_b, missing)
    with pytest.raises(ValueError):
        ab_packing("b", 2, 2)
    with pytest.raises(ValueError):
        ab_packing("b", 3, 4, [(0, 3), (0, 4)])


def test_ab_case_c_all_positions():
    # exhaustive at the small sizes, spot checks at the largest
    for n_a in range(3, 5):
        for n_b in range(n_a, n_a + 2):
            for y, z in itertools.combinations(range(n_a, n_a + n_b), 2):
                ab_packing("c", n_a, n_b, [(0, y), (0, z)])
    ab_packing("c", 5, 5, [(1, 5), (1, 7)])
    ab_packing("c", 5, 6, [(2, 6), (2, 10)])
    with pytest.raises(ValueError):
        ab_packing("c", 3, 3, [(0, 3)])
    with pytest.raises(ValueError):
        ab_packing("c", 3, 3, [(0, 3), (1, 4)])


def test_ab_case_d_all_two_matchings():
    for a1, a2 in itertools.combinations(range(3), 2):
        for b1, b2 in itertools.permutations(range(3, 8), 2):
            if b1 == b2:
                continue
            ab_packing("d", 3, 5, [(a1, b1), (a2, b2)])
    with pytest.raises(ValueError):
        ab_packing("d", 3, 4, [(0, 3), (1, 4)])
    with pytest.raises(ValueError):
        ab_packing("d", 3, 5, [(0, 3), (0, 4)])


def test_ab_unknown_case():
    with pytest.raises(ValueError):
        ab_packing("e", 3, 3)


def tampered_ab_packing(monkeypatch, case, missing, tamper):
    """ab_packing(case, 3, 3, missing) with its matching weights edited by
    `tamper` before the postconditions are checked."""
    build = constructions._matching_weights

    def tampered(*args, **kwargs):
        weights = dict(build(*args, **kwargs).weights)
        tamper(weights)
        return FractionalPacking(RED, weights)

    monkeypatch.setattr(constructions, "_matching_weights", tampered)
    return ab_packing(case, 3, 3, missing)


def test_blob_checker_rejects_an_absent_pair(monkeypatch):
    # (0, 3) is absent, so (0, 1, 3) is not red; the inside loads and the
    # cross-only rule still hold, so only the feasibility check sees it
    def move(weights):
        weights[(0, 1, 3)] = weights.pop((0, 1, 5))

    with pytest.raises(ValueError, match="not R-monochromatic"):
        tampered_ab_packing(monkeypatch, "b", [(0, 3)], move)


def test_blob_checker_rejects_a_non_cross_triangle(monkeypatch):
    # trade the three cross triangles at vertex 3 over A's edges for the
    # triangle A itself: every load stays feasible and every A edge at 1/2
    def trade(weights):
        for t in ((0, 1, 3), (0, 2, 3), (1, 2, 3)):
            del weights[t]
        weights[(0, 1, 2)] = F(1, 6)

    with pytest.raises(AssertionError, match="non-cross triangle"):
        tampered_ab_packing(monkeypatch, "a", [], trade)


def test_blob_checker_rejects_an_inside_load_off_by_a_sixth(monkeypatch):
    def raise_one(weights):
        weights[(0, 1, 3)] += F(1, 6)

    with pytest.raises(AssertionError, match="inside edge"):
        tampered_ab_packing(monkeypatch, "a", [], raise_one)
    monkeypatch.undo()
    # the middle blob of the three-blob case must carry exactly 1
    g, packing = abc_packing(3, 3, [(0, 2)], [(3, 5)])
    blobs = (range(2), range(2, 5), range(5, 8))
    inside = (F(1, 2), F(1), F(1, 2))
    constructions._check_blob_packing(packing, g, blobs, inside)
    weights = dict(packing.weights)
    weights[(1, 2, 3)] -= F(1, 6)
    with pytest.raises(AssertionError, match=r"inside edge \(2, 3\)"):
        constructions._check_blob_packing(FractionalPacking(RED, weights), g, blobs, inside)


# -- three-blob packings ----------------------------------------------------


def admissible_abc_instances():
    for n_b in (3, 4):
        for n_c in (3, 4):
            b_verts = list(range(2, 2 + n_b))
            c_verts = list(range(2 + n_b, 2 + n_b + n_c))
            ab_pairs = [(a, b) for a in (0, 1) for b in b_verts]
            bc_pairs = [(b, c) for b in b_verts for c in c_verts]
            for k_ab in range(3):
                for m_ab in itertools.combinations(ab_pairs, k_ab):
                    ends = [v for e in m_ab for v in e]
                    if len(set(ends)) != len(ends):
                        continue
                    for k_bc in range(3):
                        for m_bc in itertools.combinations(bc_pairs, k_bc):
                            ends2 = ends + [v for e in m_bc for v in e]
                            if len(set(ends2)) != len(ends2):
                                continue
                            yield n_b, n_c, m_ab, m_bc


def test_abc_many_admissible_instances():
    rng = random.Random(61)
    instances = list(admissible_abc_instances())
    assert len(instances) > 1000
    for n_b, n_c, m_ab, m_bc in rng.sample(instances, 200):
        g, packing = abc_packing(n_b, n_c, m_ab, m_bc)
        # every triangle covers exactly one inside edge, so the total weight
        # equals the prescribed inside loads
        inside = F(2 + n_c * (n_c - 1), 4) + F(n_b * (n_b - 1), 2)
        assert packing.value() == inside


def test_abc_validation():
    with pytest.raises(ValueError):
        abc_packing(2, 3)
    with pytest.raises(ValueError):
        abc_packing(3, 3, [(0, 9)])
    with pytest.raises(ValueError):
        abc_packing(3, 3, [], [(2, 5), (3, 6), (4, 7)])
    with pytest.raises(ValueError):
        abc_packing(3, 3, [(0, 2)], [(2, 5)])
