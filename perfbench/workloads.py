"""The three benchmark workloads: inputs, one timed pass, and output checks.

Every workload calls only monopack's public API, and always through a module
attribute looked up at call time (`mp.pack`, `certs.verify_packcert`, ...), so
that the tracer in `tracing.py` can time each call where its caller binds it.

A workload is built once per set-up from the seed (`build`), then run in
passes (`run_pass`): a pass is a fixed amount of work, the same on every
repeat of one seed, so wall times can be compared and counts repeat exactly.
Checks (`check`) run after the timed passes and compare against
`reference.json`, recorded by `record.py`.
"""

from __future__ import annotations

import json
import os
import random
import time
from fractions import Fraction

import monopack as mp
from monopack import certs
from monopack.search import PentagonFilter, SearchConfig

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

EXTEND_SIZES = (2, 3, 4, 4, 4)
EXTEND_RELABELLINGS = 2  # searches per extend17 pass: one alone spreads ~11% across seeds
SMOKE_EXTEND_SIZES = (1, 1, 1, 2, 2)

GROW_END = 7
SMOKE_GROW_END = 5


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def permute(g: mp.ColoredGraph, order: list[int]) -> mp.ColoredGraph:
    """Graph whose vertex p is vertex order[p] of g."""
    n = g.n
    return mp.ColoredGraph(
        n,
        "".join(
            g.color_of(order[p], order[q]) for p in range(n) for q in range(p + 1, n)
        ),
    )


def shuffled(n: int, rng: random.Random) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    return order


class Check:
    """Counts checked outputs and records the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def search_counts(outputs: list) -> dict[str, int]:
    """Completions, duplicates and survivors summed over one pass's searches;
    all 0 for a pass that ran no search."""
    counts = {"completed": 0, "duplicates": 0, "survivors": 0}
    for out in outputs:
        if isinstance(out[1], mp.SearchReport):
            for stats in out[1].levels.values():
                counts["completed"] += stats.completed
                counts["duplicates"] += stats.duplicates
                counts["survivors"] += stats.survivors
    return counts


# -- extend17 -------------------------------------------------------------


def build_extend(seed: int, smoke: bool, ref: dict) -> dict:
    sizes = SMOKE_EXTEND_SIZES if smoke else EXTEND_SIZES
    g, _ = mp.pentagon_blowup(mp.BlobSpec(sizes))
    rng = random.Random(f"extend17-{seed}")
    graphs = [permute(g, shuffled(g.n, rng)) for _ in range(EXTEND_RELABELLINGS)]
    n_end = g.n + 1
    cfg = SearchConfig(n_end=n_end, filters={n_end: PentagonFilter(max_flips=1)})
    want = ref["extend17"]["smoke" if smoke else "full"]
    return {"graphs": graphs, "cfg": cfg, "n_end": n_end, "want": want}


def run_extend(inputs: dict, ops: list[float], ctx: dict) -> list:
    out = []
    for g in inputs["graphs"]:
        t0 = time.perf_counter()
        levels, report = mp.run_search([g], inputs["cfg"])
        ops.append(time.perf_counter() - t0)
        out.append((levels, report))
    return out


def check_extend(inputs: dict, outputs: list, ref: dict, chk: Check) -> None:
    n_end = inputs["n_end"]
    for levels, report in outputs:
        stats = report.at(n_end)
        got = {
            "completed": stats.completed,
            "filtered": stats.filtered,
            "survivors": len(levels[n_end]),
        }
        for k, want in inputs["want"].items():
            chk.expect(got[k] == want, f"extension {k}: {got[k]} != {want}")


# -- grow7 ----------------------------------------------------------------


def build_grow(seed: int, smoke: bool, ref: dict) -> dict:
    n_end = SMOKE_GROW_END if smoke else GROW_END
    return {"cfg": SearchConfig(n_end=n_end), "n_end": n_end}


def run_grow(inputs: dict, ops: list[float], ctx: dict) -> list:
    t0 = time.perf_counter()
    levels, report = mp.run_search(
        [mp.ColoredGraph.empty()], inputs["cfg"], checkpoint_path=ctx["checkpoint"]
    )
    ops.append(time.perf_counter() - t0)
    return [(levels, report)]


def check_grow(inputs: dict, outputs: list, ref: dict, chk: Check) -> None:
    want = ref["grow7"]["levels"]
    for levels, _ in outputs:
        for n in range(1, inputs["n_end"] + 1):
            keys = sorted(mp.canonical_key(g)[0].key for g in levels[n])
            chk.expect(keys == want[str(n)], f"level {n} survivor keys differ")


# -- query ----------------------------------------------------------------


def corpus_entries(ref: dict, smoke: bool) -> list[dict]:
    entries = ref["query"]["corpus"]
    if smoke:
        entries = [e for e in entries if e.get("smoke")]
    return entries


def build_query(seed: int, smoke: bool, ref: dict) -> dict:
    """The corpus, each graph relabelled and the order shuffled by the seed.

    The bipartite family keeps one fixed relabelling for every seed: its
    canonical search cost depends on the labelling so much (bip(16, 8): 2 to
    15 s over 12 random labellings) that one draw per seed would move a pass
    by more than the benchmark's bound.
    """
    rng = random.Random(f"query-{seed}")
    fixed = random.Random("query-bipartite")
    items = []
    for e in corpus_entries(ref, smoke):
        kind = e["kind"]
        if kind == "table":
            spec = mp.BlobSpec(tuple(e["sizes"]))
            g = mp.flipped_blowup(spec) if e["flipped"] else mp.pentagon_blowup(spec)[0]
        elif kind == "bipartite":
            g = mp.bipartite_minus_matching(e["n"], e["m"])
        else:
            g = mp.ColoredGraph(e["n"], e["colors"])
        order = shuffled(g.n, fixed if kind == "bipartite" else rng)
        items.append((e, permute(g, order)))
    rng.shuffle(items)
    return {"items": items}


def query_op(g: mp.ColoredGraph):
    """What `monopack pack --certs`, `verify` x3, `canon` and `pentagon` do."""
    pv = mp.pack(g)
    packcert = certs.format_packcert(g, pv.red.packing, pv.blue.packing)
    cover_r = certs.format_covercert(g, pv.red.cover)
    cover_b = certs.format_covercert(g, pv.blue.cover)
    verdicts = (
        certs.verify_packcert(packcert, g)[0],
        certs.verify_covercert(cover_r, g)[0],
        certs.verify_covercert(cover_b, g)[0],
    )
    key, _ = mp.canonical_key(g)
    pent = mp.pentagon_distance(g, 1)
    return (
        pv.value,
        tuple(_claim(text) for text in (packcert, cover_r, cover_b)),
        verdicts,
        key.key,
        None if pent is None else len(pent.flips),
    )


def _claim(cert_text: str) -> Fraction:
    for line in cert_text.splitlines():
        if line.startswith("claim: "):
            return Fraction(line.rsplit(" ", 1)[1])
    raise ValueError("certificate has no claim line")


def run_query(inputs: dict, ops: list[float], ctx: dict) -> list:
    out = []
    clock = time.perf_counter
    for _, g in inputs["items"]:
        t0 = clock()
        result = query_op(g)
        ops.append(clock() - t0)
        out.append(result)
    return out


def check_query(inputs: dict, outputs: list, ref: dict, chk: Check) -> None:
    for (e, _), (value, claims, verdicts, key, flips) in zip(inputs["items"], outputs):
        name = e["name"]
        if e["kind"] == "bipartite":
            want = Fraction((e["n"] - 1) ** 2 // 4)
        else:
            want = Fraction(e["pack"])
        chk.expect(value == want, f"{name}: pack {value} != {want}")
        chk.expect(all(verdicts), f"{name}: a certificate failed to verify")
        pack_claim, claim_r, claim_b = claims
        chk.expect(
            pack_claim == value == 3 * (claim_r + claim_b),
            f"{name}: certificate bounds do not meet",
        )
        chk.expect(key == e["key"], f"{name}: canonical key differs")
        if e["kind"] == "table":
            want_flips = 1 if e["flipped"] else 0
        else:
            want_flips = e["pentagon"]
        chk.expect(flips == want_flips, f"{name}: pentagon verdict {flips} != {want_flips}")


WORKLOADS = {
    "extend17": (build_extend, run_extend, check_extend),
    "grow7": (build_grow, run_grow, check_grow),
    "query": (build_query, run_query, check_query),
}
