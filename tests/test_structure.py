import hashlib
import itertools
import json
import os
import random
import time
from fractions import Fraction

import pytest

from monopack.constructions import (
    BlobSpec,
    bipartite_minus_matching,
    flipped_blowup,
    pentagon_blowup,
)
from monopack.graph import BLUE, RED, ColoredGraph
from monopack.structure import (
    BadConfiguration,
    BipartitionCert,
    absorb_apex,
    bad_configurations,
    bip_distance_at_most,
    e_bip,
    max_disjoint_bad_configs,
    min_bipartition_deletions,
    pentagon_distance,
)

F = Fraction


def brute_min_deletions(n, edges):
    edges = [tuple(sorted(e)) for e in edges]
    best = len(edges)
    for bits in range(2 ** max(n - 1, 0)):
        side = [0] + [bits >> k & 1 for k in range(n - 1)]
        internal = sum(1 for u, v in edges if side[u] == side[v])
        best = min(best, internal)
    return best


def random_edges(rng, n, p):
    return [e for e in itertools.combinations(range(n), 2) if rng.random() < p]


# -- bipartization ----------------------------------------------------------


def test_min_deletions_matches_brute_force():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 8)
        edges = random_edges(rng, n, rng.choice([0.2, 0.5, 0.8]))
        assert min_bipartition_deletions(n, edges) == brute_min_deletions(n, edges)


def test_bip_distance_certificate_agrees_with_exact_minimum():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(3, 8)
        edges = random_edges(rng, n, 0.5)
        opt = brute_min_deletions(n, edges)
        for k in range(0, 4):
            cert = bip_distance_at_most(n, edges, k)
            if opt <= k:
                assert cert is not None
                assert cert.check(n, edges)
                assert len(cert.removed_edges) <= k
            else:
                assert cert is None
    # every graph on at most 5 vertices, and random ones on 9 to 14
    cases = []
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            cases.append((n, [e for t, e in enumerate(pairs) if bits >> t & 1]))
    for _ in range(20):
        n = rng.randint(9, 14)
        cases.append((n, random_edges(rng, n, rng.choice([0.2, 0.35]))))
    for n, edges in cases:
        opt = min_bipartition_deletions(n, edges)
        for k in range(0, 4):
            cert = bip_distance_at_most(n, edges, k)
            assert (cert is not None) == (opt <= k), (n, edges, k)
            if cert is not None:
                assert cert.check(n, edges)
                assert len(cert.removed_edges) <= k
    # C_59 and three disjoint triangles: four disjoint odd cycles, one edge each
    edges = [(i, (i + 1) % 59) for i in range(59)]
    for a in range(59, 68, 3):
        edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
    assert bip_distance_at_most(68, edges, 3) is None
    cert = bip_distance_at_most(68, edges, 4)
    assert cert is not None and cert.check(68, edges)
    assert len(cert.removed_edges) <= 4


def test_bip_distance_refutes_a_dense_class_quickly():
    """K_{30,30} (the blue class of the n = 60 bipartite construction) with
    five edges inside one side: any other partition leaves at least 30 of
    its edges inside a part, so all five must go, and k = 4 is refuted only
    after the whole search tree."""
    g = bipartite_minus_matching(60, 0)
    inside = random.Random(60).sample(list(itertools.combinations(range(30), 2)), 5)
    edges = g.edges_of_color(BLUE) + inside
    start = time.perf_counter()
    assert bip_distance_at_most(60, edges, 4) is None
    assert time.perf_counter() - start < 0.3
    cert = bip_distance_at_most(60, edges, 5)
    assert cert is not None and cert.check(60, edges)
    assert cert.removed_edges == frozenset(inside)


def test_bipartition_cert_check_rejects_tampering():
    edges = [(0, 1), (1, 2), (0, 2)]
    cert = bip_distance_at_most(3, edges, 1)
    assert cert is not None and cert.check(3, edges)
    bad = BipartitionCert(cert.part1, cert.part2, frozenset())
    assert not bad.check(3, edges)
    not_partition = BipartitionCert(frozenset({0}), frozenset({1}), cert.removed_edges)
    assert not not_partition.check(3, edges)
    # an edge with a vertex outside 0..n-1 is never accepted
    assert not BipartitionCert({0}, {1, 2}, {}).check(3, [(0, 7)])
    assert not BipartitionCert({0}, {1, 2}, {}).check(3, [(-1, 0)])


def test_e_bip_values():
    # 5-cycle: one deletion out of 25 vertex pairs
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    assert e_bip(5, c5) == F(1, 25)
    k4 = list(itertools.combinations(range(4), 2))
    assert e_bip(4, k4) == F(1, 8)
    assert e_bip(4, [(0, 1), (2, 3)]) == 0


def test_min_deletions_moderate_size():
    rng = random.Random(41)
    edges = random_edges(rng, 14, 0.5)
    assert min_bipartition_deletions(14, edges) == brute_min_deletions(14, edges)
    # larger instances stay fast
    big = random_edges(rng, 20, 0.5)
    assert 0 <= min_bipartition_deletions(20, big) <= len(big)


# -- pentagon blow-ups ------------------------------------------------------


def test_blowup_detected_with_zero_flips():
    for sizes in [(1, 1, 1, 1, 1), (3, 3, 3, 4, 4), (2, 1, 4, 1, 2)]:
        g, built = pentagon_blowup(BlobSpec(sizes))
        cert = pentagon_distance(g, max_flips=0)
        assert cert is not None and not cert.flips
        assert cert.check(g)
        assert sorted(cert.sizes) == sorted(sizes)
        # same partition up to the canonical dihedral relabelling of blobs
        assert {frozenset(b) for b in cert.blobs} == {
            frozenset(b) for b in built.blobs
        }


def test_flipped_blowup_needs_exactly_one_flip():
    spec = BlobSpec((2, 2, 3, 3, 3))
    g = flipped_blowup(spec)
    assert pentagon_distance(g, max_flips=0) is None
    cert = pentagon_distance(g, max_flips=1)
    assert cert is not None and len(cert.flips) == 1
    assert cert.check(g)


def test_non_blowups_rejected():
    assert pentagon_distance(ColoredGraph.monochromatic(10), max_flips=1) is None
    assert pentagon_distance(bipartite_minus_matching(17, 3), max_flips=1) is None


def test_pentagon_search_stays_fast_on_large_non_blowups():
    """Without the lookahead that cuts a branch once the five blobs cannot
    all be filled, monochromatic K_n takes exponential time."""
    for g in (ColoredGraph.monochromatic(25), bipartite_minus_matching(40, 20)):
        for max_flips in (0, 1):
            start = time.perf_counter()
            assert pentagon_distance(g, max_flips) is None
            assert time.perf_counter() - start < 0.5, (g.n, max_flips)


def test_pentagon_cert_check_rejects_tampering():
    g, cert = pentagon_blowup(BlobSpec((2, 2, 2, 2, 2)))
    assert cert.check(g)
    # rotations and reflections of the blob cycle are genuine symmetries
    rotated = type(cert)(cert.blobs[1:] + cert.blobs[:1], cert.flips)
    assert rotated.check(g)
    # swapping two adjacent blobs is not
    b = cert.blobs
    swapped = type(cert)((b[1], b[0], b[2], b[3], b[4]), cert.flips)
    assert not swapped.check(g)
    assert not cert.check(g.flip_edge(0, 2))


def test_relabelled_blowup_still_detected():
    rng = random.Random(43)
    from monopack.canonical import relabel

    g, _ = pentagon_blowup(BlobSpec((1, 2, 3, 1, 2)))
    order = list(range(g.n))
    rng.shuffle(order)
    h = relabel(g, order)
    cert = pentagon_distance(h, max_flips=0)
    assert cert is not None and cert.check(h)


def pentagon_result(cert):
    if cert is None:
        return None
    return [[list(b) for b in cert.blobs], [list(e) for e in cert.flips]]


def pentagon_golden():
    with open(os.path.join(os.path.dirname(__file__), "pentagon_golden.json")) as fh:
        return json.load(fh)


def test_pentagon_certificates_match_recorded():
    """Certificates recorded with the search that re-ran a blob constraint
    search once per flipped edge: TABLE1, bipartite graphs minus a matching,
    monochromatic K_n, random colourings and relabelled blow-ups with random
    interiors, singleton blobs and 0-2 flipped cross edges."""
    records = pentagon_golden()["named"]
    assert len(records) == 60
    for r in records:
        g = ColoredGraph(r["n"], r["colors"])
        assert pentagon_result(pentagon_distance(g, 0)) == r["flips0"], r["name"]
        assert pentagon_result(pentagon_distance(g, 1)) == r["flips1"], r["name"]


def test_pentagon_certificates_match_recorded_exhaustively():
    """Every colouring of K_5 and K_6, in both modes, hashed in the order of
    itertools.product over (R, B)."""
    for r in pentagon_golden()["exhaustive"]:
        n, max_flips = r["n"], r["max_flips"]
        results = [
            pentagon_result(pentagon_distance(ColoredGraph(n, "".join(c)), max_flips))
            for c in itertools.product((RED, BLUE), repeat=n * (n - 1) // 2)
        ]
        assert len(results) == r["count"]
        assert sum(x is not None for x in results) == r["hits"]
        assert sum(x is not None and bool(x[1]) for x in results) == r["one_flip"]
        encoded = json.dumps(results, separators=(",", ":")).encode()
        assert hashlib.sha256(encoded).hexdigest() == r["sha256"], (n, max_flips)


# -- bad configurations -----------------------------------------------------


def apex_graph(colors_to_blobs):
    """Singleton-blob pentagon plus an apex joined by the given 5 colours."""
    g, cert = pentagon_blowup(BlobSpec((1, 1, 1, 1, 1)))
    h = g.add_vertex()
    for i, c in enumerate(colors_to_blobs):
        h = h.set_edge(i, 5, c)
    return h, cert


def test_apex_has_bad_configuration_unless_it_fits_a_blob():
    for bits in range(32):
        colors = [RED if bits >> i & 1 else BLUE for i in range(5)]
        h, cert = apex_graph(colors)
        configs = bad_configurations(h, 5, cert)
        fits = any(
            colors[(i + 1) % 5] == RED
            and colors[(i + 4) % 5] == RED
            and colors[(i + 2) % 5] == BLUE
            and colors[(i + 3) % 5] == BLUE
            for i in range(5)
        )
        assert (len(configs) == 0) == fits
        for c in configs:
            assert c.apex == 5
            for v, blob in zip(c.vertices, c.window):
                assert v in cert.blobs[blob]
                assert h.color_of(5, v) == c.color


def test_pentagon_distance_refuses_bad_arguments():
    g = pentagon_blowup(BlobSpec((1, 1, 1, 1, 1)))[0]
    assert pentagon_distance(g, 0) is not None
    for max_flips in (-1, 2):
        with pytest.raises(ValueError, match="max_flips must be 0 or 1"):
            pentagon_distance(g, max_flips)
    with pytest.raises(ValueError, match="complete colourings"):
        pentagon_distance(ColoredGraph(5, "R" * 9 + "."), 0)


def test_bad_configurations_require_flip_free_cert():
    g = flipped_blowup(BlobSpec((2, 2, 2, 2, 2)))
    h = g.add_vertex()
    for v in range(10):
        h = h.set_edge(v, 10, RED)
    cert = pentagon_distance(g, max_flips=1)
    with pytest.raises(ValueError):
        bad_configurations(h, 10, cert)


def test_max_disjoint_bad_configs_matches_brute_force():
    rng = random.Random(47)

    def brute(configs):
        best = 0
        for r in range(len(configs), 0, -1):
            for sub in itertools.combinations(range(len(configs)), r):
                sets = [set(configs[k].vertices) for k in sub]
                if all(
                    sets[a].isdisjoint(sets[b])
                    for a in range(r)
                    for b in range(a + 1, r)
                ):
                    return r
        return best

    for _ in range(20):
        m = rng.randint(0, 8)
        configs = [
            BadConfiguration(
                tuple(rng.sample(range(12), 3)), RED, 99, (0, 2, 3)
            )
            for _ in range(m)
        ]
        count, family = max_disjoint_bad_configs(configs)
        assert count == brute(configs)
        sets = [set(c.vertices) for c in family]
        assert all(
            sets[a].isdisjoint(sets[b])
            for a in range(len(sets))
            for b in range(a + 1, len(sets))
        )


# -- apex absorption --------------------------------------------------------


def test_absorb_apex_zero_cost_when_apex_fits():
    rng = random.Random(53)
    for _ in range(20):
        sizes = tuple(rng.randint(1, 3) for _ in range(5))
        g, cert = pentagon_blowup(BlobSpec(sizes))
        target = rng.randrange(5)
        h = g.add_vertex()
        u = g.n
        for i in range(5):
            off = (i - target) % 5
            want = RED if off in (0, 1, 4) else BLUE
            for v in cert.blobs[i]:
                h = h.set_edge(v, u, want)
        i, flips = absorb_apex(h, u, cert)
        assert flips == ()


def test_absorb_apex_cost_bounded_by_perturbation():
    rng = random.Random(59)
    for _ in range(30):
        sizes = tuple(rng.randint(1, 3) for _ in range(5))
        g, cert = pentagon_blowup(BlobSpec(sizes))
        target = rng.randrange(5)
        h = g.add_vertex()
        u = g.n
        for i in range(5):
            off = (i - target) % 5
            want = RED if off in (0, 1, 4) else BLUE
            for v in cert.blobs[i]:
                h = h.set_edge(v, u, want)
        t = rng.randint(0, 3)
        victims = rng.sample(range(g.n), min(t, g.n))
        for v in victims:
            h = h.flip_edge(v, u)
        i, flips = absorb_apex(h, u, cert)
        assert len(flips) <= t
        # replaying the flips restores a zero-cost absorption at blob i
        for e in flips:
            h = h.flip_edge(*e)
        assert absorb_apex(h, u, cert)[1] == ()


def test_structure_refusals():
    for n in (0, 29):
        with pytest.raises(ValueError, match=f"n={n} outside supported range 1..28"):
            min_bipartition_deletions(n, [])
    g, cert = pentagon_blowup(BlobSpec((1, 1, 1, 1, 2)))
    b = cert.blobs
    for blobs in (
        b[:4],  # four blobs
        ((), b[1], b[2], b[3], b[0] + b[4]),  # an empty blob
        (b[0] + b[1], b[1], b[2], b[3], b[4]),  # a vertex in two blobs
        (b[0], b[1], b[2], b[3], b[4][:1]),  # a vertex in none
    ):
        assert not type(cert)(blobs, cert.flips).check(g)
    # an apex must lie outside every blob, and the certificate be flip-free
    h, cert = apex_graph([RED] * 5)
    with pytest.raises(ValueError, match="apex 0 lies inside a blob"):
        bad_configurations(h, 0, cert)
    with pytest.raises(ValueError, match="apex 0 lies inside a blob"):
        absorb_apex(h, 0, cert)
    flipped = type(cert)(cert.blobs, ((0, 2),))
    with pytest.raises(ValueError, match="absorption needs a flip-free"):
        absorb_apex(h, 5, flipped)
