"""Spans around the calls into monopack's layers, recorded from outside.

`Tracer.patch()` replaces each traced function at the name its caller looks
it up by (for example `monopack.search.nu_star`, which `expose` calls, and
`monopack.lp.nu_star`, which `pack` calls) with a wrapper that records a span
[layer, parent span index, start, end].  Spans stay in memory; `run.py`
writes them out when the run ends.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import monopack
import monopack.certs
import monopack.lp
import monopack.search

# (span name, owner object, attribute): every binding a benchmark call reaches
TARGETS = (
    ("nu_star", monopack.search, "nu_star"),
    ("nu_star", monopack.lp, "nu_star"),
    ("highs", monopack.lp, "linprog"),
    ("rationalize", monopack.lp, "rationalize"),
    ("exact", monopack.lp, "simplex_max_leq"),
    ("expose", monopack.search, "expose"),
    ("prune", monopack.search, "prune"),
    ("exceeds", monopack.search, "certified_exceeds"),
    ("checkpoint", monopack.search, "checkpoint"),
    ("canonical", monopack.search, "canonical_key"),
    ("canonical", monopack, "canonical_key"),
    ("pentagon", monopack.search, "pentagon_distance"),
    ("pentagon", monopack, "pentagon_distance"),
    ("triangles", monopack.ColoredGraph, "monochromatic_triangles"),
    ("format", monopack.certs, "format_packcert"),
    ("format", monopack.certs, "format_covercert"),
    ("verify", monopack.certs, "verify_packcert"),
    ("verify", monopack.certs, "verify_covercert"),
    ("construct", monopack, "pentagon_blowup"),
    ("construct", monopack, "flipped_blowup"),
    ("construct", monopack, "bipartite_minus_matching"),
)

# spans whose result is kept: a hit is a cut branch or a blob certificate
HIT_SPANS = {"prune", "pentagon"}

# layer metrics that are counts: they must repeat exactly for one seed
COUNT_METRICS = (
    "lp.nu_star.calls",
    "lp.highs.calls",
    "lp.lp_vars",
    "simplex.exact.calls",
    "search.expose.calls",
    "search.prune.calls",
    "search.prune.cuts",
    "search.completed",
    "search.duplicates",
    "search.survivors",
    "certs.exceeds.calls",
    "certs.verify.calls",
    "canonical.key.calls",
    "structure.pentagon.calls",
    "structure.pentagon.hits",
    "graph.triangles.calls",
)


class Tracer:
    def __init__(self):
        # one list per span: [name, parent index or -1, start, end, result]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        keep = name in HIT_SPANS

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if keep:
                span[4] = result is not None
            elif name == "highs":
                span[4] = len(kwargs["c"])  # one LP column per triangle
            return result

        return traced

    @contextmanager
    def patch(self):
        """Trace every target inside the block; restore the originals after."""
        saved = []
        try:
            for name, owner, attr in TARGETS:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


_EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0, "hits": 0, "result_sum": 0}


def summarize(spans: list[list], base: int = 0) -> tuple[dict[str, dict], int, int]:
    """Per span name: calls, total seconds, self seconds, max seconds, hits
    and summed results; then the nu_star solves that ran HiGHS, and how many
    of those the float path settled (no exact-simplex child).

    `spans` is a slice of a tracer's spans that starts at index `base` and
    holds whole span trees, so parents are found at `parent - base`."""
    child_time = [0.0] * len(spans)
    children: dict[int, set[str]] = {}
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent - base] += end - start
            children.setdefault(parent - base, set()).add(name)
    out: dict[str, dict] = {}
    for i, (name, _, start, end, result) in enumerate(spans):
        s = out.setdefault(name, dict(_EMPTY))
        d = end - start
        s["calls"] += 1
        s["s"] += d
        s["self_s"] += d - child_time[i]
        s["max_s"] = max(s["max_s"], d)
        if result is True:
            s["hits"] += 1
        elif isinstance(result, int) and not isinstance(result, bool):
            s["result_sum"] += result
    solved = accepted = 0
    for i, span in enumerate(spans):
        if span[0] == "nu_star" and "highs" in children.get(i, ()):
            solved += 1
            accepted += "exact" not in children[i]
    return out, solved, accepted


def layer_metrics(
    spans: list[list], base: int, search_counts: dict[str, int]
) -> dict[str, float]:
    """The per-layer metrics of one pass, keyed by BENCHMARK.json name."""
    s, solved, accepted = summarize(spans, base)

    def get(name):
        return s.get(name, _EMPTY)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "lp.nu_star.calls": get("nu_star")["calls"],
        "lp.nu_star.s": get("nu_star")["s"],
        "lp.nu_star.self_s": get("nu_star")["self_s"],
        "lp.highs.calls": get("highs")["calls"],
        "lp.highs.s": get("highs")["s"],
        "lp.rationalize.s": get("rationalize")["s"],
        "lp.lp_vars": get("highs")["result_sum"],
        "lp.float_accept_ratio": ratio(accepted, solved),
        "simplex.exact.calls": get("exact")["calls"],
        "simplex.exact.s": get("exact")["s"],
        "search.expose.calls": get("expose")["calls"],
        "search.expose.self_s": get("expose")["self_s"],
        "search.prune.calls": get("prune")["calls"],
        "search.prune.cuts": get("prune")["hits"],
        "search.prune.cut_ratio": ratio(get("prune")["hits"], get("prune")["calls"]),
        "search.completed": search_counts["completed"],
        "search.duplicates": search_counts["duplicates"],
        "search.survivors": search_counts["survivors"],
        "search.checkpoint.s": get("checkpoint")["s"],
        "certs.exceeds.calls": get("exceeds")["calls"],
        "certs.exceeds.s": get("exceeds")["s"],
        "certs.verify.calls": get("verify")["calls"],
        "certs.verify.s": get("verify")["s"],
        "certs.format.s": get("format")["s"],
        "canonical.key.calls": get("canonical")["calls"],
        "canonical.key.s": get("canonical")["s"],
        "canonical.key.max_s": get("canonical")["max_s"],
        "structure.pentagon.calls": get("pentagon")["calls"],
        "structure.pentagon.hits": get("pentagon")["hits"],
        "structure.pentagon.s": get("pentagon")["s"],
        "structure.pentagon.hit_ratio": ratio(get("pentagon")["hits"], get("pentagon")["calls"]),
        "graph.triangles.calls": get("triangles")["calls"],
        "graph.triangles.s": get("triangles")["s"],
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first pass (they must agree); times as medians."""
    first = per_pass[0]
    return {
        k: first[k] if k in COUNT_METRICS else statistics.median(p[k] for p in per_pass)
        for k in first
    }


def count_drift(per_pass: list[dict[str, float]]) -> list[str]:
    """Count metrics that differ between passes over the same inputs."""
    return [
        k for k in COUNT_METRICS if len({p[k] for p in per_pass}) > 1
    ]
