"""Walk through the threshold-pruned extension search at desk scale.

Starting from the empty colouring, the search grows complete colourings one
vertex at a time, exposing the new vertex's edges one by one and cutting a
branch only when an exact rational certificate shows the partial colouring's
monochromatic packing weight already exceeds n(n+1)/4.  Survivors at each
level are deduplicated by canonical form (vertex relabelling plus colour
swap).  A pentagon filter at the final level shows how structured survivors
are recognised and removed.

Permuting twins of a parent (vertices with the same colour to every other
vertex) is an automorphism, so the search colours the new vertex's edges to
each twin class blue before red only; `sym_cuts` counts the children it drops
that way.  Each kept completion counts for its whole orbit, so `completed`
and `duplicates` are the labelled counts of a search without that cut.
"""

from monopack import ColoredGraph, PentagonFilter, SearchConfig, run_search
from monopack.search import default_threshold


def main() -> None:
    cfg = SearchConfig(n_end=6)
    levels, report = run_search([ColoredGraph.empty()], cfg)
    print("level-by-level statistics (threshold n(n+1)/4):")
    for n in sorted(report.levels):
        s = report.levels[n]
        print(
            f"  n={n}: completed={s.completed} pruned={s.pruned} "
            f"sym_cuts={s.sym_cuts} duplicates={s.duplicates} survivors={s.survivors}"
        )
    print(
        "(pruned: branches cut by the threshold; sym_cuts: children dropped as "
        "twin permutations of a kept one, whose completions count in completed)"
    )
    print(f"\nthreshold while extending n=5: {default_threshold(5)}")
    print(f"survivors at n=6: {len(levels[6])}")
    for g in levels[6][:5]:
        print(f"  {g.colors}")
    print("  ...")

    filtered_cfg = SearchConfig(n_end=6, filters={6: PentagonFilter(max_flips=1)})
    filtered_levels, filtered_report = run_search(
        [ColoredGraph.empty()], filtered_cfg
    )
    removed = filtered_report.at(6).filtered
    print(
        f"\nwith a level-6 pentagon filter: {len(filtered_levels[6])} survivors "
        f"({removed} completions were within one flip of a pentagon blow-up)"
    )


if __name__ == "__main__":
    main()
