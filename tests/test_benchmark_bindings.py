"""The benchmark traces monopack by patching names it reads from the library.

`perfbench/tracing.py` replaces each `TARGETS` binding through
`owner.__dict__[attr]`, so a renamed or moved function breaks `--trace 1`
with a KeyError.  It counts a cut or a pentagon hit when the traced call
returns something other than None, so `prune` and `pentagon_distance` must
return None exactly when they do not cut or match.  These tests only read
`perfbench/`; they do not run its workloads.
"""

import importlib.util
import os

from monopack import search as search_mod
from monopack.constructions import BlobSpec, flipped_blowup, pentagon_blowup
from monopack.graph import BLUE, RED, ColoredGraph
from monopack.lp import pack
from monopack.search import PentagonFilter, SearchConfig, run_search

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_binding_exists():
    tracing = load_tracing()
    assert tracing.TARGETS
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for _, owner, attr in tracing.TARGETS
        if not callable(owner.__dict__.get(attr))
    ]
    assert not missing, missing


def traced_smoke_extension(tracing):
    """Spans and report of the smoke extension: a 7-vertex blow-up extended
    to n = 8."""
    g, _ = pentagon_blowup(BlobSpec((1, 1, 1, 2, 2)))
    cfg = SearchConfig(n_end=8, filters={8: PentagonFilter(max_flips=1)})
    tracer = tracing.Tracer()
    with tracer.patch():
        _, report = run_search([g], cfg)
    spans, _, _ = tracing.summarize(tracer.spans)
    return spans, report.levels.values()


def test_traced_hits_match_the_search_report(monkeypatch):
    tracing = load_tracing()
    spans, levels = traced_smoke_extension(tracing)
    assert spans["prune"]["hits"] == sum(s.pruned for s in levels) > 0
    # every LP the search solves is in the report, the seed's among them
    assert spans["nu_star"]["calls"] == sum(s.lp_solves for s in levels) > 0
    # a kept completion stands for its whole twin orbit in the report
    assert 0 < spans["pentagon"]["calls"] < sum(s.completed for s in levels)
    # with one-vertex twin classes every completion is visited and weighs 1
    monkeypatch.setattr(search_mod, "twin_classes", lambda g: list(range(g.n)))
    spans, levels = traced_smoke_extension(tracing)
    assert spans["prune"]["hits"] == sum(s.pruned for s in levels) > 0
    assert spans["pentagon"]["calls"] == sum(s.completed for s in levels) > 0
    assert spans["pentagon"]["hits"] == sum(s.filtered for s in levels) > 0
    assert spans["nu_star"]["calls"] == sum(s.lp_solves for s in levels) > 0


def test_tracer_sees_one_highs_call_per_colour_class():
    # `lp.lp_vars` is the summed length of the `c=` cost vector of each traced
    # `monopack.lp.linprog` call: one column per monochromatic triangle
    tracing = load_tracing()
    # triangles of both colours, of red only, and none at all
    graphs = [
        pentagon_blowup(BlobSpec((3, 1, 3, 1, 2), (RED, RED, BLUE, RED, BLUE)))[0],
        flipped_blowup(BlobSpec((1, 1, 1, 2, 2))),
        ColoredGraph.from_red_edges(5, [(i, (i + 1) % 5) for i in range(5)]),
    ]
    for g in graphs:
        classes = [len(g.monochromatic_triangles(c)) for c in (RED, BLUE)]
        tracer = tracing.Tracer()
        with tracer.patch():
            pack(g)
        spans, solved, accepted = tracing.summarize(tracer.spans)
        highs = spans.get("highs", tracing._EMPTY)
        assert highs["calls"] == solved == accepted == sum(k > 0 for k in classes)
        assert highs["result_sum"] == sum(classes)
