"""Command-line front end.

All numeric output is exact rationals formatted as p/q; results that state a
bound are backed by certificates that `verify` can replay.  Exit codes:
0 success, 1 property violated, 2 parse error, 3 precondition error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import certs, search as search_mod
from .canonical import canonical_key
from .constructions import (
    TABLE1,
    BlobSpec,
    bipartite_minus_matching,
    flipped_blowup,
    pentagon_blowup,
)
from .graph import (
    BLUE, RED, ColoredGraph, GraphFormatError, parse, parse_decimal, parse_integer,
)
from .lp import frac_decomposition, pack
from .structure import bip_distance_at_most, pentagon_distance

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _rat(v) -> str:
    f = Fraction(v)
    return f"{f.numerator}/{f.denominator}"


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from exc


def _load_graph(path: str) -> ColoredGraph:
    try:
        return parse(_read_text(path))
    except GraphFormatError as exc:
        raise CliError(f"{path}: {exc}", EXIT_PARSE) from exc


def _require_complete(g: ColoredGraph) -> None:
    if not g.is_complete:
        raise CliError("graph has unassigned edges", EXIT_PRECONDITION)


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _write_cert(directory: str, name: str, text: str) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


# -- commands --------------------------------------------------------------


def cmd_pack(args) -> int:
    g = _load_graph(args.graph)
    _require_complete(g)
    result = pack(g)
    print(f"pack = {_rat(result.value)}")
    if args.certs:
        _write_cert(
            args.certs,
            "pack.packcert",
            certs.format_packcert(g, result.red.packing, result.blue.packing),
        )
        for side in (result.red, result.blue):
            _write_cert(
                args.certs,
                f"nustar-{side.packing.color}.covercert",
                certs.format_covercert(g, side.cover),
            )
    return EXIT_OK


def cmd_verify(args) -> int:
    text = _read_text(args.certificate)
    g = _load_graph(args.graph) if args.graph else None
    try:
        ok, message = certs.verify(text, g)
    except certs.CertFormatError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    print(("ok: " if ok else "fail: ") + message)
    return EXIT_OK if ok else EXIT_VIOLATED


def cmd_table1(args) -> int:
    failures = 0
    for sizes, flipped, expected in TABLE1:
        spec = BlobSpec(tuple(sorted(sizes, reverse=True)))
        g = flipped_blowup(spec) if flipped else pentagon_blowup(spec)[0]
        value = pack(g).value
        n = g.n
        record = {
            "family": "".join(map(str, sizes)) + ("*" if flipped else ""),
            "n": n,
            "pack": _rat(value),
            "extension_threshold": _rat(search_mod.default_threshold(n)),
            "bipartite_value": (n - 1) ** 2 // 4,
            "expected": expected,
            "match": value == expected,
        }
        _emit(record)
        if not record["match"]:
            failures += 1
    return EXIT_VIOLATED if failures else EXIT_OK


def cmd_canon(args) -> int:
    g = _load_graph(args.graph)
    _require_complete(g)
    key, witness = canonical_key(g, admit_swap=not args.no_swap)
    _emit(
        {
            "n": key.n,
            "key": key.key,
            "perm": list(witness.perm),
            "swapped": witness.swapped,
        }
    )
    return EXIT_OK


def cmd_pentagon(args) -> int:
    g = _load_graph(args.graph)
    _require_complete(g)
    cert = pentagon_distance(g, args.max_flips)
    if cert is None:
        _emit({"pentagon": None, "max_flips": args.max_flips})
    else:
        _emit(
            {
                "pentagon": {
                    "blobs": [list(b) for b in cert.blobs],
                    "flips": [list(e) for e in cert.flips],
                },
                "max_flips": args.max_flips,
            }
        )
    return EXIT_OK


def cmd_bipdist(args) -> int:
    g = _load_graph(args.graph)
    cert = bip_distance_at_most(g.n, g.edges_of_color(args.color), args.k)
    if cert is None:
        _emit({"bipartite_within": None, "color": args.color, "k": args.k})
    else:
        _emit(
            {
                "bipartite_within": {
                    "part1": sorted(cert.part1),
                    "part2": sorted(cert.part2),
                    "removed_edges": sorted(map(list, cert.removed_edges)),
                },
                "color": args.color,
                "k": args.k,
            }
        )
    return EXIT_OK


def cmd_construct(args) -> int:
    if args.family == "blowup":
        try:
            sizes = tuple(parse_decimal(s) for s in args.sizes.split(","))
        except (AttributeError, ValueError):
            raise CliError("--sizes must be five comma-separated integers", EXIT_PRECONDITION)
        spec = BlobSpec(sizes)
        g = flipped_blowup(spec) if args.flip else pentagon_blowup(spec)[0]
    else:
        if args.n is None or args.m is None:
            raise CliError("bipartite construction needs -n and -m", EXIT_PRECONDITION)
        g = bipartite_minus_matching(args.n, args.m)
    sys.stdout.write(g.serialize())
    return EXIT_OK


def cmd_decompose(args) -> int:
    g = _load_graph(args.graph)
    edges = g.edges_of_color(args.color)
    packing, farkas = frac_decomposition(g.n, edges)
    if packing is not None:
        _emit(
            {
                "decomposable": True,
                "color": args.color,
                "triangles": {
                    " ".join(map(str, t)): _rat(w) for t, w in sorted(packing.weights.items())
                },
            }
        )
        return EXIT_OK
    _emit(
        {
            "decomposable": False,
            "color": args.color,
            "farkas": {" ".join(map(str, e)): _rat(y) for e, y in sorted(farkas.items()) if y},
        }
    )
    return EXIT_VIOLATED


def _parse_filters(specs: list[str]) -> dict:
    filters: dict[int, object] = {}
    for spec in specs:
        parts = spec.split(":")
        try:
            level = parse_decimal(parts[0])
        except ValueError:
            raise CliError(f"bad filter {spec!r}", EXIT_PRECONDITION) from None
        if level in filters:
            raise CliError(f"filter {spec!r}: level {level} named twice", EXIT_PRECONDITION)
        if len(parts) == 2 and parts[1] == "pentagon":
            filters[level] = search_mod.PentagonFilter()
        elif len(parts) == 3 and parts[1] == "bip":
            try:
                filters[level] = search_mod.BipartiteFilter(parse_decimal(parts[2]))
            except ValueError:
                raise CliError(f"bad filter {spec!r}", EXIT_PRECONDITION) from None
        else:
            raise CliError(f"bad filter {spec!r}", EXIT_PRECONDITION)
    return filters


def cmd_search(args) -> int:
    cfg = search_mod.SearchConfig(n_end=args.n_end, filters=_parse_filters(args.filter))
    state = None
    if args.resume:
        try:
            state = search_mod.resume(args.resume)
        except (OSError, ValueError) as exc:
            raise CliError(str(exc), EXIT_PARSE) from exc
        seeds = []
    elif args.seed:
        seeds = [_load_graph(p) for p in args.seed]
    else:
        seeds = [ColoredGraph.empty()]
    levels, report = search_mod.run_search(
        seeds, cfg, checkpoint_path=args.checkpoint, state=state
    )
    for n in sorted(report.levels):
        stats = report.levels[n]
        _emit({"level": n, **vars(stats)})
    final = max(levels)
    for idx, g in enumerate(levels[final]):
        _emit({"survivor": idx, "n": g.n, "colors": g.colors})
        if args.certs:
            result = pack(g)
            _write_cert(
                args.certs,
                f"survivor-{final}-{idx}.packcert",
                certs.format_packcert(g, result.red.packing, result.blue.packing),
            )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monopack",
        description="Monochromatic fractional triangle packings of 2-coloured complete graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pack", help="exact pack value of a complete colouring")
    p.add_argument("graph")
    p.add_argument("--certs", help="directory for packing/cover certificates")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("verify", help="replay a PACKCERT or COVERCERT file")
    p.add_argument("certificate")
    p.add_argument("graph", nargs="?", help="graph the certificate must match")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table1", help="recompute the blow-up family table by LP")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("canon", help="canonical form and relabelling witness")
    p.add_argument("graph")
    p.add_argument("--no-swap", action="store_true", help="do not admit colour swap")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("pentagon", help="distance (0 or 1 flips) to a pentagon blow-up")
    p.add_argument("graph")
    p.add_argument("--max-flips", type=parse_integer, choices=(0, 1), default=1)
    p.set_defaults(func=cmd_pentagon)

    p = sub.add_parser("bipdist", help="is a colour class k-close to bipartite")
    p.add_argument("graph")
    p.add_argument("--color", required=True, choices=(RED, BLUE))
    p.add_argument("-k", type=parse_integer, required=True)
    p.set_defaults(func=cmd_bipdist)

    p = sub.add_parser("construct", help="emit a named construction as graph text")
    p.add_argument("family", choices=("blowup", "bipartite"))
    p.add_argument("--sizes", help="blob sizes, e.g. 3,3,3,4,4")
    p.add_argument("--flip", action="store_true", help="recolour one distance-2 cross edge")
    p.add_argument("-n", type=parse_integer, help="vertex count (bipartite)")
    p.add_argument("-m", type=parse_integer, help="matching size (bipartite)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("decompose", help="fractional triangle decomposition of a colour class")
    p.add_argument("graph")
    p.add_argument("--color", required=True, choices=(RED, BLUE))
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("search", help="frontier search over extensions of the seeds")
    start = p.add_mutually_exclusive_group()
    start.add_argument("--seed", nargs="+", help="seed graph files")
    start.add_argument("--resume", help="continue from a checkpoint file")
    p.add_argument("--n-end", type=parse_integer, required=True)
    p.add_argument("--filter", action="append", default=[],
                   help="level:pentagon or level:bip:k, repeatable")
    p.add_argument("--checkpoint", help="write a resumable snapshot after each level")
    p.add_argument("--certs", help="directory for survivor certificates")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # a library precondition; parse errors are CliErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
