import itertools
import json
import os
import random
from fractions import Fraction

import pytest

from monopack import certs, search as search_mod
from monopack.cli import main
from monopack.canonical import canonical_key, twin_classes
from monopack.constructions import BlobSpec, flipped_blowup, pentagon_blowup
from monopack.graph import BLUE, RED, UNASSIGNED, ColoredGraph, parse
from monopack.lp import Bounds, FractionalPacking, nu_star, pack
from monopack.search import (
    BipartiteFilter,
    PentagonFilter,
    SearchConfig,
    SearchNode,
    choose_next_vertex,
    default_threshold,
    expose,
    prune,
    resume,
    run_search,
    settle,
    checkpoint,
    SearchState,
)

F = Fraction


def all_colorings(n):
    m = n * (n - 1) // 2
    for bits in range(2 ** m):
        yield ColoredGraph(
            n, "".join("R" if bits >> k & 1 else "B" for k in range(m))
        )


def brute_survivors(n, threshold_fn, admit_swap=True):
    """Canonical keys of the survivors at level n by direct enumeration.

    Level 3 holds every seed; a colouring on k+1 vertices survives when its
    pack value is within the threshold applied while extending k vertices and
    some vertex deletion leads back to a level-k survivor."""
    keys = {canonical_key(g, admit_swap)[0].key for g in all_colorings(3)}
    for k in range(3, n):
        nxt = set()
        for g in all_colorings(k + 1):
            if pack(g).value > threshold_fn(k):
                continue
            if any(
                canonical_key(g.delete_vertex(u), admit_swap)[0].key in keys
                for u in range(k + 1)
            ):
                nxt.add(canonical_key(g, admit_swap)[0].key)
        keys = nxt
    return keys


def test_default_threshold():
    assert default_threshold(4) == 5
    assert default_threshold(6) == F(21, 2)


@pytest.mark.parametrize("admit_swap", [True, False])
@pytest.mark.parametrize("n_end", [4, 5])
def test_search_matches_brute_force(n_end, admit_swap):
    # all 3-vertex colourings up to isomorphism and colour swap
    seeds = [ColoredGraph(3, "RRR"), ColoredGraph(3, "RRB")]
    levels, report = run_search(seeds, SearchConfig(n_end=n_end))
    survivors = levels[n_end]
    assert report.at(n_end).survivors == len({canonical_key(g)[0].key for g in survivors})
    if not admit_swap:
        # closed under swap, the survivors are those of a search without swap
        survivors = survivors + [g.swap_colors() for g in survivors]
    got = {canonical_key(g, admit_swap)[0].key for g in survivors}
    assert got == brute_survivors(n_end, default_threshold, admit_swap)


def test_survivor_values_within_threshold():
    cfg = SearchConfig(n_end=5)
    levels, _ = run_search([ColoredGraph(3, "RRB")], cfg)
    for n, graphs in levels.items():
        if n == 3:
            continue
        for g in graphs:
            assert pack(g).value <= default_threshold(n)


def exact_node(g):
    return SearchNode(g, nu_star(g, RED), nu_star(g, BLUE))


def test_prune_is_sound():
    # a pruned branch really does exceed the threshold
    g = ColoredGraph.monochromatic(5)
    node = exact_node(g)
    assert prune(node, F(6)) == pack(g).value
    assert prune(node, F(10)) is None


def exposed_nodes(node):
    """node and every node reached from it by expose alone, in any order."""
    yield node
    u = node.graph.n - 1
    for v in range(u):
        if node.graph.color_of(v, u) == UNASSIGNED:
            for child in expose(node, v, list(range(node.graph.n))):
                yield from exposed_nodes(child)


def test_expose_builds_only_the_children_in_twin_order():
    # in K_3 all red every vertex is a twin of every other; take a = 0 < b = 1
    parent = ColoredGraph.monochromatic(3)
    twin = twin_classes(parent)
    assert twin[0] == twin[1]
    grown = parent.add_vertex()
    u = grown.n - 1
    identity = list(range(grown.n))  # every vertex its own class

    def colours(node, v, twin):
        return [child.graph.color_of(v, u) for child in expose(node, v, twin)]

    a_red = exact_node(grown.set_edge(0, u, RED))
    assert colours(a_red, 1, twin) == [RED]
    assert colours(a_red, 1, identity) == [RED, BLUE]
    b_blue = exact_node(grown.set_edge(1, u, BLUE))
    assert colours(b_blue, 0, twin) == [BLUE]
    assert colours(b_blue, 0, identity) == [RED, BLUE]
    # an admitted child is the one built without the order
    assert expose(a_red, 1, twin) == expose(a_red, 1, identity)[:1]
    assert expose(b_blue, 0, twin) == expose(b_blue, 0, identity)[1:]


def test_choose_next_vertex_refuses_a_complete_node():
    with pytest.raises(ValueError, match="node is complete"):
        choose_next_vertex(exact_node(ColoredGraph.monochromatic(4)))


def test_bounds_bracket_the_cold_optimum():
    root = exact_node(ColoredGraph(4, "RRBRBB").add_vertex())
    values = {}
    loosest = {}  # per colouring, the reached node with the widest bounds
    for node in exposed_nodes(root):
        g = node.graph
        if g.colors not in values:
            values[g.colors] = {c: nu_star(g, c).lo for c in (RED, BLUE)}
        for color, b in ((RED, node.red), (BLUE, node.blue)):
            b.packing.check_feasible(g)
            b.cover.check_feasible(g)
            assert b.packing.color == b.cover.color == color
            assert b.lo == b.packing.value()
            assert b.hi == b.cover.value()
            assert b.lo <= values[g.colors][color] <= b.hi
        gap = node.red.hi - node.red.lo + node.blue.hi - node.blue.lo
        if g.colors not in loosest or gap > loosest[g.colors][0]:
            loosest[g.colors] = (gap, node)
    assert len(values) == 81  # every partial colouring of the four new edges
    assert any(gap > 0 for gap, _ in loosest.values())
    most_solves = 0
    for colors, (_, node) in loosest.items():
        pack_value = 3 * (values[colors][RED] + values[colors][BLUE])
        for twice_t in range(0, 21):
            t = F(twice_t, 2)
            settled, solves = settle(node, t)
            assert solves <= 2 and not settled.straddles(t)
            assert (prune(settled, t) is not None) == (pack_value > t)
        # from a seed's bounds (no packing, every edge covered) both colours
        # may need their LP
        g = node.graph
        trivial = SearchNode(
            g, *(Bounds.from_packing(g, FractionalPacking(c)) for c in (RED, BLUE))
        )
        for t in (pack_value - 1, pack_value):
            settled, solves = settle(trivial, t)
            assert solves <= 2 and not settled.straddles(t)
            assert (prune(settled, t) is not None) == (pack_value > t)
            most_solves = max(most_solves, solves)
    assert most_solves == 2


def without_symmetry_cuts(monkeypatch):
    """Make every twin class a single vertex: the search then cuts nothing by
    symmetry and weighs every completion 1."""
    monkeypatch.setattr(search_mod, "twin_classes", lambda g: list(range(g.n)))


def test_empty_seed_search_decisions(monkeypatch):
    # the counts of the search that solved an LP for every child: bounds
    # may save LPs but must not change a single decision; symmetry cuts
    # change the nodes visited, not the weighted counts
    levels = range(1, 7)
    for cut in (True, False):
        if not cut:
            without_symmetry_cuts(monkeypatch)
        _, report = run_search([ColoredGraph.empty()], SearchConfig(n_end=6))
        assert [report.at(n).completed for n in levels] == [1, 2, 3, 8, 42, 142]
        assert [report.at(n).duplicates for n in levels] == [0, 1, 2, 3, 36, 112]
        assert [report.at(n).survivors for n in levels] == [1, 1, 1, 5, 6, 30]
        if cut:
            assert [report.at(n).pruned for n in levels] == [0, 0, 1, 0, 18, 28]
            assert [report.at(n).sym_cuts for n in levels] == [0, 0, 1, 2, 12, 23]
        else:
            assert [report.at(n).pruned for n in levels] == [0, 0, 1, 0, 23, 40]
            assert [report.at(n).sym_cuts for n in levels] == [0] * 6


def extend17_relabelling():
    """The first relabelling of the (2,3,4,4,4) blow-up that the benchmark's
    extend17 workload searches for seed 1."""
    g, _ = pentagon_blowup(BlobSpec((2, 3, 4, 4, 4)))
    order = list(range(g.n))
    random.Random("extend17-1").shuffle(order)
    return relabelled(g, order)


@pytest.mark.parametrize(
    "seed, n_end, filters",
    [
        ("empty", 6, {}),
        ("empty", 7, {}),
        ("smoke", 8, {8: PentagonFilter(max_flips=1)}),
        ("extend17", 18, {18: PentagonFilter(max_flips=1)}),
    ],
)
def test_symmetry_cuts_keep_the_unpruned_counts(monkeypatch, seed, n_end, filters):
    """Cutting by twin orbits and weighing each kept completion by its orbit
    size reports the counts and survivors of the search that cuts nothing."""
    g = {
        "empty": ColoredGraph.empty,
        "smoke": lambda: pentagon_blowup(BlobSpec((1, 1, 1, 2, 2)))[0],
        "extend17": extend17_relabelling,
    }[seed]()
    cfg = SearchConfig(n_end=n_end, filters=filters)
    cut_levels, cut = run_search([g], cfg)
    without_symmetry_cuts(monkeypatch)
    full_levels, full = run_search([g], cfg)
    assert sum(s.sym_cuts for s in cut.levels.values()) > 0
    assert sum(s.sym_cuts for s in full.levels.values()) == 0
    assert cut.levels.keys() == full.levels.keys()
    for n in full.levels:
        for name in ("completed", "filtered", "duplicates", "survivors"):
            assert getattr(cut.at(n), name) == getattr(full.at(n), name), (n, name)
        assert cut.at(n).lp_solves <= full.at(n).lp_solves
        # the kept representative is the first the uncut search reaches, so
        # the frontier is the same labelled graphs in the same order
        assert cut_levels[n] == full_levels[n], n
    if filters:
        assert full.at(n_end).filtered > 0


def test_lp_solves_counts_every_search_lp(monkeypatch):
    calls = []

    def counted(g, color):
        calls.append(g)
        return nu_star(g, color)

    monkeypatch.setattr(search_mod, "nu_star", counted)
    seeds = [ColoredGraph(3, "RRB")]
    _, report = run_search(seeds, SearchConfig(n_end=6))
    solves = [report.at(n).lp_solves for n in (4, 5, 6)]
    assert all(k > 0 for k in solves)
    assert len(calls) == sum(solves)


def test_bad_filters_fail_before_any_lp(monkeypatch):
    with pytest.raises(ValueError, match="non-negative"):
        BipartiteFilter(-1)
    for flips in (-1, 2):
        with pytest.raises(ValueError, match="0 or 1"):
            PentagonFilter(flips)
    calls = []

    def counted(g, color):
        calls.append(g)
        return nu_star(g, color)

    monkeypatch.setattr(search_mod, "nu_star", counted)
    for level in (2, 4):
        cfg = SearchConfig(n_end=6, filters={level: PentagonFilter()})
        with pytest.raises(ValueError, match="at least 5 vertices"):
            run_search([ColoredGraph(3, "RRB")], cfg)
    # a filter is an instance, never its name or its class
    for bogus in ("pentagon", PentagonFilter, None, 1):
        cfg = SearchConfig(n_end=6, filters={6: bogus})
        with pytest.raises(ValueError, match="unknown filter"):
            run_search([ColoredGraph.empty()], cfg)
    assert calls == []


def test_filter_levels_and_n_end_fail_before_any_lp(monkeypatch, tmp_path):
    path = os.path.join(tmp_path, "ckpt.json")
    run_search([ColoredGraph(3, "RRB")], SearchConfig(n_end=4), checkpoint_path=path)
    state = resume(path)
    calls = []

    def counted(g, color):
        calls.append(g)
        return nu_star(g, color)

    monkeypatch.setattr(search_mod, "nu_star", counted)
    seed = [ColoredGraph(3, "RRB")]
    for filters in (
        {3: BipartiteFilter(0), 9: BipartiteFilter(0)},
        {3: BipartiteFilter(0)},
        {9: BipartiteFilter(0)},
    ):
        with pytest.raises(ValueError, match="outside the searched levels"):
            run_search(seed, SearchConfig(n_end=5, filters=filters))
    with pytest.raises(ValueError, match="below the start level"):
        run_search(seed, SearchConfig(n_end=2))
    # the resumed frontier is at level 4
    for filters in ({4: BipartiteFilter(0)}, {6: PentagonFilter()}):
        with pytest.raises(ValueError, match="outside the searched levels"):
            run_search([], SearchConfig(n_end=5, filters=filters), state=state)
    with pytest.raises(ValueError, match="below the start level"):
        run_search([], SearchConfig(n_end=3), state=state)
    assert calls == []
    # an n_end equal to the start level runs no level
    levels, _ = run_search([], SearchConfig(n_end=4), state=state)
    assert list(levels) == [4] and calls == []


def test_seed_validation():
    cfg = SearchConfig(n_end=4)
    with pytest.raises(ValueError):
        run_search([], cfg)
    with pytest.raises(ValueError):
        run_search([ColoredGraph(3, "RRR"), ColoredGraph(4, "RRRRRR")], cfg)
    with pytest.raises(ValueError):
        run_search([ColoredGraph(3, "RRR").add_vertex()], cfg)
    # isomorphic seeds (colour swap admitted)
    with pytest.raises(ValueError):
        run_search([ColoredGraph(3, "RRR"), ColoredGraph(3, "BBB")], cfg)


def test_filters_remove_structured_survivors():
    seeds = [ColoredGraph(3, "RRB")]
    plain = run_search(seeds, SearchConfig(n_end=5))[0][5]
    filtered = run_search(
        seeds, SearchConfig(n_end=5, filters={5: PentagonFilter(max_flips=1)})
    )[0][5]
    assert len(filtered) < len(plain)
    from monopack.structure import pentagon_distance

    for g in filtered:
        assert pentagon_distance(g, 1) is None

    bip = run_search(
        seeds, SearchConfig(n_end=5, filters={5: BipartiteFilter(k=2)})
    )[0][5]
    from monopack.structure import bip_distance_at_most

    for g in bip:
        for color in (RED, BLUE):
            assert bip_distance_at_most(5, g.edges_of_color(color), 2) is None


def test_classify_complete():
    g, _ = pentagon_blowup(BlobSpec((1, 1, 1, 1, 1)))
    cert = PentagonFilter(0).rejects(g)
    assert cert is not None and cert.check(g)
    # both colour classes are 5-cycles, so neither is bipartite
    assert BipartiteFilter(0).rejects(g) is None


def test_filters_give_a_colouring_and_its_swap_one_verdict():
    filters = [PentagonFilter(0), PentagonFilter(1), BipartiteFilter(0), BipartiteFilter(1)]
    five = list(all_colorings(5))
    # verdicts are invariant under relabelling, and every colouring on six
    # vertices relabels to an extension of a five-vertex class representative
    reps = {canonical_key(g, False)[0].key: g for g in five}.values()
    six = []
    for g in reps:
        for bits in range(2 ** 5):
            h = g.add_vertex()
            for v in range(5):
                h = h.set_edge(v, 5, RED if bits >> v & 1 else BLUE)
            six.append(h)
    for g in five + six:
        for level_filter in filters:
            verdict = level_filter.rejects(g) is None
            assert (level_filter.rejects(g.swap_colors()) is None) == verdict


def test_checkpoint_round_trip(tmp_path):
    path = os.path.join(tmp_path, "ckpt.json")
    seeds = [ColoredGraph(3, "RRB")]
    cfg = SearchConfig(n_end=5)
    run_search(seeds, cfg, checkpoint_path=path)
    state = resume(path)
    assert state.level == 5
    # writing the resumed state again is byte-identical
    path2 = os.path.join(tmp_path, "ckpt2.json")
    checkpoint(state, path2)
    with open(path) as a, open(path2) as b:
        assert a.read() == b.read()


def test_failed_checkpoint_keeps_previous_snapshot(tmp_path, monkeypatch):
    path = os.path.join(tmp_path, "ckpt.json")
    run_search([ColoredGraph(3, "RRB")], SearchConfig(n_end=4), checkpoint_path=path)
    with open(path) as fh:
        before = fh.read()
    state = resume(path)

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"format": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(OSError):
        checkpoint(SearchState(5, [], state.report), path)
    monkeypatch.undo()
    with open(path) as fh:
        assert fh.read() == before
    again = resume(path)
    assert again.level == 4
    assert [n.graph for n in again.frontier] == [n.graph for n in state.frontier]


def test_checkpoint_syncs_the_snapshot_before_renaming_it(tmp_path, monkeypatch):
    path = os.path.join(tmp_path, "ckpt.json")
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        calls.append(("fsync", st.st_ino, st.st_size))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.stat(src).st_ino, src, dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    run_search([ColoredGraph(3, "RRB")], SearchConfig(n_end=4), checkpoint_path=path)
    assert [c[0] for c in calls] == ["fsync", "replace"]
    (_, synced, size), (_, renamed, src, dst) = calls
    # the file synced is the temporary one, complete, and only then renamed
    assert (synced, src, dst) == (renamed, path + ".tmp", path)
    assert size == os.path.getsize(path)


def test_resume_loads_report_without_lp_solves(tmp_path, monkeypatch):
    path = os.path.join(tmp_path, "ckpt.json")
    run_search([ColoredGraph(3, "RRB")], SearchConfig(n_end=4), checkpoint_path=path)
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["report"]["4"]["lp_solves"] > 0
    payload["report"] = {
        "4": {"survivors": 2, "pruned": 1, "filtered": 0, "completed": 5, "duplicates": 3}
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
    calls = []
    monkeypatch.setattr(search_mod, "nu_star", lambda g, color: calls.append(g))
    state = resume(path)
    assert state.report.at(4).lp_solves == 0
    assert state.report.at(4).completed == 5
    # resume solves no LP: each node starts from its PACKCERT's packings
    assert calls == []
    assert len(state.frontier) == len(payload["frontier"]) > 0
    for node, item in zip(state.frontier, payload["frontier"]):
        g, red, blue, _ = certs.parse_packcert(item["packcert"])
        assert (node.graph, node.red.packing, node.blue.packing) == (g, red, blue)


OLD_CHECKPOINT = os.path.join(os.path.dirname(__file__), "checkpoint_v1_n5.json")


def test_resume_loads_a_checkpoint_written_before_symmetry_cuts():
    # `monopack search --n-end 5 --checkpoint` from before sym_cuts existed
    with open(OLD_CHECKPOINT) as fh:
        assert all("sym_cuts" not in s for s in json.load(fh)["report"].values())
    state = resume(OLD_CHECKPOINT)
    assert state.level == 5 and state.report.at(5).sym_cuts == 0
    levels, report = run_search([], SearchConfig(n_end=6), state=state)
    direct_levels, direct = run_search([ColoredGraph.empty()], SearchConfig(n_end=6))
    assert levels[6] == direct_levels[6]
    for name in ("completed", "duplicates", "survivors"):
        assert getattr(report.at(6), name) == getattr(direct.at(6), name), name


def test_resume_continues_equivalently(tmp_path, monkeypatch):
    # a resumed search makes the uninterrupted one's decisions level by level;
    # only lp_solves may differ, since a resumed node starts without its covers
    seeds = [ColoredGraph(3, "RRB")]
    cfg = SearchConfig(n_end=7, filters={7: BipartiteFilter(1)})
    written = {}  # level -> (frontier nodes, checkpoint text)
    write = search_mod.checkpoint

    def recorded(state, path):
        write(state, path)
        with open(path) as fh:
            written[state.level] = (state.frontier, fh.read())

    monkeypatch.setattr(search_mod, "checkpoint", recorded)
    path = os.path.join(tmp_path, "ckpt.json")
    direct_levels, direct = run_search(seeds, cfg, checkpoint_path=path)
    monkeypatch.undo()
    assert sorted(written) == [4, 5, 6, 7] and direct.at(7).filtered > 0

    def keys(graphs):
        return [canonical_key(g)[0].key for g in graphs]

    def same_as_direct(text, level):
        with open(path, "w") as fh:
            fh.write(text)
        levels, report = run_search([], cfg, state=resume(path))
        for n in range(level + 1, 8):
            got, want = report.at(n), direct.at(n)
            for name in ("pruned", "completed", "duplicates", "filtered", "survivors"):
                assert getattr(got, name) == getattr(want, name), (level, n, name)
            assert keys(levels[n]) == keys(direct_levels[n]), (level, n)

    for level, (frontier, text) in written.items():
        # a PACKCERT claims the lower bound its node carries, and the node
        # is within the threshold it was found under
        items = json.loads(text)["frontier"]
        assert len(items) == len(frontier) > 0
        for node, item in zip(frontier, items):
            g, _, _, claim = certs.parse_packcert(item["packcert"])
            assert g == node.graph and claim == 3 * (node.red.lo + node.blue.lo)
            assert pack(g).value <= default_threshold(level - 1)
        if level < 7:
            same_as_direct(text, level)
    # a checkpoint holding exact packings resumes to the same survivors; at
    # level 6 some carried packings are not optimal
    with open(path, "w") as fh:
        fh.write(written[6][1])
    state = resume(path)
    exact = [exact_node(n.graph) for n in state.frontier]
    checkpoint(SearchState(6, exact, state.report), path)
    with open(path) as fh:
        exact_text = fh.read()
    assert exact_text != written[6][1]
    same_as_direct(exact_text, 6)


def relabelled(g, order):
    """g with vertex order[v] renamed v."""
    n = g.n
    return ColoredGraph(
        n, "".join(g.color_of(order[p], order[q]) for p in range(n) for q in range(p + 1, n))
    )


def test_resume_rejects_corrupt_and_mismatched(tmp_path):
    path = os.path.join(tmp_path, "bad.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    with pytest.raises(ValueError):
        resume(path)
    with open(path, "w") as fh:
        fh.write('{"format": "something-else"}')
    with pytest.raises(ValueError):
        resume(path)
    # nesting deeper than the JSON reader's recursion limit is a parse error
    with open(path, "w") as fh:
        fh.write("[" * 5000 + "]" * 5000)
    with pytest.raises(ValueError, match="corrupt checkpoint"):
        resume(path)
    assert main(["search", "--resume", path, "--n-end", "5"]) == 2
    good = os.path.join(tmp_path, "good.json")
    run_search([ColoredGraph(3, "RRB")], SearchConfig(n_end=4), checkpoint_path=good)
    # an overstated claim fails the same replay as `monopack verify`
    with open(good) as fh:
        payload = json.load(fh)
    item = payload["frontier"][0]
    head, claim, rest = item["packcert"].partition("claim: pack >= ")
    item["packcert"] = head + claim + "1000" + rest[rest.index("\n"):]
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(ValueError, match="below the claim 1000"):
        resume(path)

    # each malformed checkpoint is a ValueError, so `search --resume` exits 2
    def item(g):
        empty = FractionalPacking(RED), FractionalPacking(BLUE)
        return {"graph": g.serialize(), "packcert": certs.format_packcert(g, *empty)}

    with open(good) as fh:
        text = fh.read()
    first = certs.parse_packcert(json.loads(text)["frontier"][0]["packcert"])[0]
    copy = relabelled(first, [1, 2, 3, 0])
    assert copy != first
    edits = [
        lambda p: p.pop("level"),
        lambda p: p.pop("frontier"),
        lambda p: p.pop("report"),
        lambda p: p.pop("admit_swap"),
        lambda p: p.update(version=2),
        # a frontier kept up to isomorphism without colour swap
        lambda p: p.update(admit_swap=False),
        lambda p: p["frontier"][0].pop("packcert"),
        lambda p: p["frontier"][0].pop("graph"),
        lambda p: p["frontier"][0].update(packcert=7),
        lambda p: p["report"]["4"].update(speed=1),
        lambda p: p["report"].update({"5": {"pruned": "x"}}),
        # report levels are ASCII digits, each named once
        lambda p: p["report"].update({"+4": {"survivors": 999}}),
        lambda p: p["report"].update({"\u0663": {}}),
        lambda p: p["report"].update({" 3": {}}),
        lambda p: p["report"].update({"04": p["report"]["4"]}),
        # a level the checkpoint has not reached
        lambda p: p["report"].update({"5": {}}),
        lambda p: p.update(level="x"),
        # a negative level, which would otherwise search from level -2 up
        lambda p: p.update(level=-3, frontier=[], report={}),
        # a frontier graph of the wrong size, or one with unassigned edges
        lambda p: p["frontier"].append(item(ColoredGraph(3, "RRB"))),
        lambda p: p["frontier"].append(item(ColoredGraph(4, "RRBRB."))),
        # a frontier item repeated, or one isomorphic to another
        lambda p: p["frontier"].append(p["frontier"][0]),
        lambda p: p["frontier"].append(item(copy)),
    ]
    variants = [[json.loads(text)]]  # a list, not a checkpoint object
    for edit in edits:
        payload = json.loads(text)
        edit(payload)
        variants.append(payload)
    for payload in variants:
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError):
            resume(path)
        assert main(["search", "--resume", path, "--n-end", "5"]) == 2
    # the unmodified checkpoint still resumes from the CLI
    assert main(["search", "--resume", good, "--n-end", "5"]) == 0


def test_resume_checks_each_item_graph_field(tmp_path):
    path = os.path.join(tmp_path, "ckpt.json")
    run_search([ColoredGraph(3, "RRB")], SearchConfig(n_end=4), checkpoint_path=path)
    with open(path) as fh:
        text = fh.read()
    first = parse(json.loads(text)["frontier"][0]["graph"])
    # a garbled field, and another valid K_4 colouring than the PACKCERT's
    other = first.flip_edge(0, 1)
    cases = [
        ("n=9\nnonsense\n", "frontier graph rejected"),
        (other.serialize(), "certificate graph differs from the supplied graph"),
    ]
    for field, message in cases:
        payload = json.loads(text)
        payload["frontier"][0]["graph"] = field
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError, match=message):
            resume(path)


def test_blowup_extension_shadows_known_families():
    """Extending a 17-vertex blow-up of the smallest listed families by one
    vertex: every survivor within the running threshold stays within one
    flip of a pentagon blow-up, so the pentagon filter empties the level."""
    for sizes in [(3, 3, 3, 4, 4)]:
        g, _ = pentagon_blowup(BlobSpec(sizes))
        levels, report = run_search(
            [g],
            SearchConfig(n_end=18, filters={18: PentagonFilter(max_flips=1)}),
        )
        assert levels[18] == []
        assert report.at(18).filtered == report.at(18).completed
        assert report.at(18).completed > 0
