"""Acceptance gate: one criterion per test, each printing a PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py` (or `-s` to see the lines as
they are produced).  Every numeric claim is checked in exact rational
arithmetic.
"""

import itertools
import random
from fractions import Fraction

from monopack.canonical import canonical_key
from monopack.constructions import (
    TABLE1,
    BlobSpec,
    ab_packing,
    abc_packing,
    bipartite_minus_matching,
    flipped_blowup,
    pentagon_blowup,
)
from monopack.graph import BLUE, RED, ColoredGraph
from monopack.lp import frac_decomposition, integer_nu, nu_star, pack
from monopack.search import PentagonFilter, SearchConfig, run_search
from monopack.structure import bad_configurations, pentagon_distance

F = Fraction


def report(ok: bool, label: str) -> None:
    print(("PASS: " if ok else "FAIL: ") + label)
    assert ok, label


def all_colorings(n):
    m = n * (n - 1) // 2
    for bits in range(2 ** m):
        yield ColoredGraph(
            n, "".join("R" if bits >> k & 1 else "B" for k in range(m))
        )


def test_criterion_1_table_reproduction():
    ok = True
    for sizes, flipped, expected in TABLE1:
        spec = BlobSpec(sizes)
        g = flipped_blowup(spec) if flipped else pentagon_blowup(spec)[0]
        if pack(g).value != expected:
            ok = False
            break
    report(ok, "criterion 1: all 21 blow-up family pack values match by exact LP")


def test_criterion_2_bipartite_family_value():
    ok = True
    for n in range(8, 21):
        for m in range(0, n // 2 + 1):
            g = bipartite_minus_matching(n, m)
            if pack(g).value != (n - 1) ** 2 // 4:
                ok = False
    report(
        ok,
        "criterion 2: pack(bipartite minus matching) = floor((n-1)^2/4) "
        "for 8 <= n <= 20 and every matching size",
    )


def complements_up_to_iso(n, max_missing):
    """Missing-edge sets of K_n up to isomorphism, level by level.

    A graph whose present edges are red and missing edges blue is canonical
    under vertex relabelling only, so canonical keys dedup the edge sets."""
    full = ColoredGraph.monochromatic(n)
    levels = [[full]]
    seen = {canonical_key(full, admit_swap=False)[0].key}
    for _ in range(max_missing):
        nxt = []
        for g in levels[-1]:
            for i, j in itertools.combinations(range(n), 2):
                if g.color_of(i, j) != RED:
                    continue
                h = g.flip_edge(i, j)
                key = canonical_key(h, admit_swap=False)[0].key
                if key not in seen:
                    seen.add(key)
                    nxt.append(h)
        levels.append(nxt)
    return levels


def test_criterion_3_decomposition_threshold():
    ok = True
    for n in (7, 8, 9):
        for level in complements_up_to_iso(n, n - 4):
            for g in level:
                packing, _ = frac_decomposition(n, g.edges_of_color(RED))
                if packing is None:
                    ok = False
    # K_6 minus any two edges never decomposes
    k6 = list(itertools.combinations(range(6), 2))
    for e1, e2 in itertools.combinations(k6, 2):
        edges = [e for e in k6 if e not in (e1, e2)]
        packing, farkas = frac_decomposition(6, edges)
        if packing is not None or farkas is None:
            ok = False
    # the (n-3)-non-edge construction: non-edges {x, n-1} for x in 3..n-2
    # plus {0, 1}
    for n in (8, 9, 10):
        missing = {(x, n - 1) for x in range(3, n - 1)} | {(0, 1)}
        assert len(missing) == n - 3
        edges = [
            e for e in itertools.combinations(range(n), 2) if e not in missing
        ]
        packing, farkas = frac_decomposition(n, edges)
        if packing is not None or farkas is None:
            ok = False
    report(
        ok,
        "criterion 3: every K_n minus <= n-4 edges (n in 7..9) decomposes; "
        "K_6 minus two edges and the (n-3)-non-edge construction do not",
    )


def test_criterion_4_search_oracle_equivalence():
    cfg = SearchConfig(n_end=6)
    levels, _ = run_search([ColoredGraph.empty()], cfg)
    got = {canonical_key(g)[0].key for g in levels[6]}

    threshold = lambda k: F(k * (k + 1), 4)
    keys = {canonical_key(g)[0].key for g in all_colorings(3)}
    for k in range(3, 6):
        nxt = set()
        for g in all_colorings(k + 1):
            if pack(g).value > threshold(k):
                continue
            if any(
                canonical_key(g.delete_vertex(u))[0].key in keys
                for u in range(k + 1)
            ):
                nxt.add(canonical_key(g)[0].key)
        keys = nxt
    report(
        got == keys,
        "criterion 4: search from the empty seed to n = 6 equals the "
        "exhaustive 2^15 survivor set up to canonical equivalence",
    )


def test_criterion_5_two_and_three_blob_postconditions():
    ok = True
    try:
        # case a: complete cross graph
        for n_a in range(2, 7):
            for n_b in range(n_a, min(n_a + 2, 6) + 1):
                ab_packing("a", n_a, n_b)
        # case b: all matchings
        for n_a in range(3, 7):
            for n_b in range(n_a, min(n_a + 1, 6) + 1):
                for m in range(0, n_a + 1):
                    ab_packing("b", n_a, n_b, [(i, n_a + i) for i in range(m)])
        # case c: all positions of two missing edges meeting at A
        for n_a in range(3, 6):
            for n_b in range(n_a, n_a + 2):
                if n_a == 5:
                    pairs = [(5, 6), (5, 5 + n_b - 1)]
                else:
                    pairs = itertools.combinations(range(n_a, n_a + n_b), 2)
                for y, z in pairs:
                    ab_packing("c", n_a, n_b, [(0, y), (0, z)])
        # case d: all 2-matchings at |A| = 3, |B| = 5
        for a1, a2 in itertools.combinations(range(3), 2):
            for b1 in range(3, 8):
                for b2 in range(3, 8):
                    if b1 != b2:
                        ab_packing("d", 3, 5, [(a1, b1), (a2, b2)])
        # three blobs: every admissible missing pattern
        count = 0
        for n_b in (3, 4):
            for n_c in (3, 4):
                b_verts = range(2, 2 + n_b)
                c_verts = range(2 + n_b, 2 + n_b + n_c)
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
                                abc_packing(n_b, n_c, m_ab, m_bc)
                                count += 1
        assert count > 1000
    except (AssertionError, ValueError) as exc:
        print(f"postcondition failure: {exc}")
        ok = False
    report(
        ok,
        "criterion 5: all admissible two-blob and three-blob packings "
        "(blob sizes <= 6) satisfy their exact postconditions",
    )


def test_criterion_6_averaging_bound():
    rng = random.Random(97)
    ok = True
    # the bound for a colouring on m vertices divides by m - 2: each edge
    # survives in m - 2 of the vertex-deleted subgraphs
    for m in range(5, 11):
        for _ in range(500):
            g = ColoredGraph(
                m, "".join(rng.choice("RB") for _ in range(m * (m - 1) // 2))
            )
            total = sum((pack(g.delete_vertex(u)).value for u in range(m)), F(0))
            if pack(g).value < total / (m - 2):
                ok = False
    k4 = ColoredGraph.monochromatic(4)
    total = sum((pack(k4.delete_vertex(u)).value for u in range(4)), F(0))
    equality = pack(k4).value == total / 2 == 6
    report(
        ok and equality,
        "criterion 6: pack(G) >= sum of pack(G - u) over (m - 2) on 500 "
        "random colourings per vertex count m in 5..10, equality 6 = 6 on "
        "all-red K_4",
    )


def test_criterion_7_apex_triangles():
    ok = True
    base, cert = pentagon_blowup(BlobSpec((1, 1, 1, 1, 1)))
    for bits in range(32):
        colors = [RED if bits >> i & 1 else BLUE for i in range(5)]
        g = base.add_vertex()
        for i, c in enumerate(colors):
            g = g.set_edge(i, 5, c)
        through_u = [
            t
            for c in (RED, BLUE)
            for t in g.monochromatic_triangles(c)
            if 5 in t
        ]
        if not through_u:
            ok = False
        if bad_configurations(g, 5, cert):
            # two triangles through u sharing no edge
            disjoint = any(
                not (
                    {frozenset(e) for e in itertools.combinations(s, 2)}
                    & {frozenset(e) for e in itertools.combinations(t, 2)}
                )
                for s, t in itertools.combinations(through_u, 2)
            )
            if not disjoint:
                ok = False
    report(
        ok,
        "criterion 7: every apex colouring of the singleton-blob pentagon "
        "has a monochromatic triangle through the apex; with a bad "
        "configuration, two edge-disjoint ones",
    )


def test_criterion_8_duality_and_integrality():
    rng = random.Random(101)
    ok = True

    def check(g):
        nonlocal ok
        for c in (RED, BLUE):
            res = nu_star(g, c)
            if res.primal_value != res.dual_value:
                ok = False
            nu = integer_nu(g.n, g.edges_of_color(c))
            if nu > res.primal_value:
                ok = False

    for n in (3, 4, 5):
        for g in all_colorings(n):
            check(g)
    for n in (6, 7):
        for _ in range(40):
            check(
                ColoredGraph(
                    n, "".join(rng.choice("RB") for _ in range(n * (n - 1) // 2))
                )
            )
    report(
        ok,
        "criterion 8: primal equals dual exactly on every optimum; "
        "integer packing number <= fractional (exhaustive n <= 5, "
        "sampled n = 6, 7)",
    )


def test_shadow_of_seeded_extension_step():
    """Extending the three listed 17-vertex blow-up families by one vertex:
    every completion within the threshold is at most one flip from a pentagon
    blow-up, so a level-18 pentagon filter leaves no survivors."""
    ok = True
    for sizes in [(3, 3, 3, 4, 4), (2, 3, 4, 4, 4), (3, 3, 3, 3, 5)]:
        g, _ = pentagon_blowup(BlobSpec(sizes))
        levels, rep = run_search(
            [g],
            SearchConfig(n_end=18, filters={18: PentagonFilter(max_flips=1)}),
        )
        if levels[18] or rep.at(18).completed == 0:
            ok = False
        if rep.at(18).filtered != rep.at(18).completed:
            ok = False
    report(
        ok,
        "seeded shadow: all within-threshold one-vertex extensions of the "
        "three 17-vertex blow-up families stay <= 1 flip from a blow-up",
    )


def _insertion_flip_counts(g, u, cert):
    """Edges at u violating the blob pattern, per target blob index."""
    counts = []
    for i in range(5):
        bad = 0
        for off, want in ((1, RED), (4, RED), (2, BLUE), (3, BLUE)):
            for v in cert.blobs[(i + off) % 5]:
                if g.color_of(u, v) != want:
                    bad += 1
        counts.append(bad)
    return counts


def test_spot_check_apex_extension_of_balanced_blowups():
    """One new vertex over a balanced blow-up H on m in {15..19} vertices,
    t = floor(m/5) = minimum blob size of H: pack(G) >= pack(H) + 3t always;
    + 3(t+1) unless u fits a size-t blob exactly; + 3(t+2) unless u fits
    some blob exactly or a size-t blob within one flip."""
    rng = random.Random(103)
    ok = True
    balanced = {
        15: (3, 3, 3, 3, 3),
        16: (3, 3, 3, 3, 4),
        17: (3, 3, 3, 4, 4),
        18: (3, 3, 4, 4, 4),
        19: (3, 4, 4, 4, 4),
    }
    for n_h, sizes in balanced.items():
        h, cert = pentagon_blowup(BlobSpec(sizes))
        pack_h = pack(h).value
        t = n_h // 5
        assert t == min(sizes)

        cases = []
        # structured: perfect insertion into each blob, a one-flip variant,
        # and the two constant colourings
        for target in range(5):
            colors = {}
            for i in range(5):
                off = (i - target) % 5
                want = RED if off in (0, 1, 4) else BLUE
                for v in cert.blobs[i]:
                    colors[v] = want
            cases.append(dict(colors))
            flipped = dict(colors)
            victim = cert.blobs[(target + 1) % 5][0]
            flipped[victim] = BLUE if flipped[victim] == RED else RED
            cases.append(flipped)
        cases.append({v: RED for v in range(n_h)})
        cases.append({v: BLUE for v in range(n_h)})
        for _ in range(10):
            cases.append({v: rng.choice("RB") for v in range(n_h)})

        for colors in cases:
            g = h.add_vertex()
            for v, c in colors.items():
                g = g.set_edge(v, n_h, c)
            pack_g = pack(g).value
            counts = _insertion_flip_counts(g, n_h, cert)
            fits_t = any(
                counts[i] == 0 and len(cert.blobs[i]) == t for i in range(5)
            )
            fits_any = any(counts[i] == 0 for i in range(5))
            one_flip_t = any(
                counts[i] <= 1 and len(cert.blobs[i]) == t for i in range(5)
            )
            if pack_g < pack_h + 3 * t:
                ok = False
            if not fits_t and pack_g < pack_h + 3 * (t + 1):
                ok = False
            if not (one_flip_t or fits_any) and pack_g < pack_h + 3 * (t + 2):
                ok = False
    report(
        ok,
        "spot check: apex extensions of balanced blow-ups on 15..19 "
        "vertices gain 3t, 3(t+1), 3(t+2) under the stated exceptions",
    )
