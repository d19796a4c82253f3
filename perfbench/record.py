#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py [--out perfbench/reference.json]

Run once at a commit whose outputs are trusted; the benchmark never writes
this file.  Every value is computed from the unrelabelled graphs and checked
against what is known independently before it is written: the TABLE1 values,
floor((n-1)^2/4) for the bipartite family, 72 completions for the seeded
(2,3,4,4,4) extension.  The grow7 survivor sets come from the search itself,
which the acceptance tests compare with brute force up to n = 6.
"""

import argparse
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import monopack as mp  # noqa: E402
from monopack.search import PentagonFilter, SearchConfig  # noqa: E402

import workloads  # noqa: E402

RANDOM_SIZES = range(8, 22)  # random n >= 22 can reach the exact-simplex cliff
RANDOM_PER_SIZE = 10
BIPARTITE_SIZES = (16, 17)


def random_coloring(n: int, rng: random.Random) -> mp.ColoredGraph:
    return mp.ColoredGraph(n, "".join(rng.choice("RB") for _ in range(n * (n - 1) // 2)))


def key_of(g) -> str:
    return mp.canonical_key(g)[0].key


def verdict(g):
    cert = mp.pentagon_distance(g, 1)
    return None if cert is None else len(cert.flips)


def corpus() -> list[dict]:
    out = []
    for i, (sizes, flipped, value) in enumerate(mp.TABLE1):
        spec = mp.BlobSpec(sizes)
        g = mp.flipped_blowup(spec) if flipped else mp.pentagon_blowup(spec)[0]
        assert mp.pack(g).value == value, (sizes, flipped)
        assert verdict(g) == (1 if flipped else 0), (sizes, flipped)
        out.append(
            {
                "name": "table-" + "".join(map(str, sizes)) + ("-flip" if flipped else ""),
                "kind": "table",
                "sizes": list(sizes),
                "flipped": flipped,
                "pack": str(value),
                "key": key_of(g),
                "smoke": i < 2,
            }
        )
    for n in BIPARTITE_SIZES:
        for m in range(n // 2 + 1):
            g = mp.bipartite_minus_matching(n, m)
            assert mp.pack(g).value == (n - 1) ** 2 // 4, (n, m)
            out.append(
                {
                    "name": f"bip-{n}-{m}",
                    "kind": "bipartite",
                    "n": n,
                    "m": m,
                    "key": key_of(g),
                    "pentagon": verdict(g),
                    "smoke": n == 16 and m < 2,
                }
            )
    for n in RANDOM_SIZES:
        for i in range(RANDOM_PER_SIZE):
            g = random_coloring(n, random.Random(f"random-{n}-{i}"))
            out.append(
                {
                    "name": f"random-{n}-{i}",
                    "kind": "random",
                    "n": n,
                    "colors": g.colors,
                    "pack": str(mp.pack(g).value),
                    "key": key_of(g),
                    "pentagon": verdict(g),
                    "smoke": n <= 10 and i == 0,
                }
            )
    return out


def grow_levels() -> dict[str, list[str]]:
    levels, _ = mp.run_search([mp.ColoredGraph.empty()], SearchConfig(n_end=workloads.GROW_END))
    return {str(n): sorted(key_of(g) for g in levels[n]) for n in range(1, workloads.GROW_END + 1)}


def extension_outcome(sizes) -> dict[str, int]:
    g, _ = mp.pentagon_blowup(mp.BlobSpec(sizes))
    n_end = g.n + 1
    levels, report = mp.run_search(
        [g], SearchConfig(n_end=n_end, filters={n_end: PentagonFilter(max_flips=1)})
    )
    stats = report.at(n_end)
    return {
        "completed": stats.completed,
        "filtered": stats.filtered,
        "survivors": len(levels[n_end]),
    }


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", default=workloads.REFERENCE_PATH)
    args = p.parse_args()
    full = extension_outcome(workloads.EXTEND_SIZES)
    assert full == {"completed": 72, "filtered": 72, "survivors": 0}, full
    ref = {
        "extend17": {"full": full, "smoke": extension_outcome(workloads.SMOKE_EXTEND_SIZES)},
        "grow7": {"levels": grow_levels()},
        "query": {"corpus": corpus()},
    }
    with open(args.out, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
