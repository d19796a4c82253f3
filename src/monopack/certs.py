"""Replayable text certificates for packing and cover claims.

PACKCERT v1 certifies a lower bound on the total monochromatic edge weight:

    PACKCERT v1
    graph: n=<k> <colour string>
    claim: pack >= <p/q>
    R <i> <j> <k> <p/q>
    B <i> <j> <k> <p/q>
    ...

Each triangle line lists a monochromatic triangle and its weight.  The
certificate is valid if both colour packings are feasible and three times
their total weight is at least the claim.

COVERCERT v1 certifies an upper bound on one colour's fractional packing:

    COVERCERT v1
    graph: n=<k> <colour string>
    color: <R|B>
    claim: nustar <= <p/q>
    <i> <j> <p/q>
    ...

Each line weights an edge; the certificate is valid if the weights are
non-negative, every monochromatic triangle of the colour is covered to at
least 1, and the total weight is at most the claim.

A <p/q> is what `str(Fraction)` writes: an optional `-`, digits, optionally
`/` and digits.  Decimal points and exponents are rejected.  Vertex numbers
and the vertex count are ASCII digits only, with no sign; the graph line is
read by `graph.parse`, as a graph file is.  Both parsers refuse, at parse
time, a line whose vertices are not increasing and below n.  `verify` picks
the verifier by the header.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .graph import BLUE, RED, ColoredGraph, GraphFormatError, parse_decimal
from .graph import parse as parse_graph
from .lp import FractionalCover, FractionalPacking

PACKCERT_HEADER = "PACKCERT v1"
COVERCERT_HEADER = "COVERCERT v1"


class CertFormatError(ValueError):
    """Malformed certificate text."""


def _graph_line(g: ColoredGraph) -> str:
    return f"graph: n={g.n} {g.colors}"


def _parse_graph_line(line: str) -> ColoredGraph:
    if not line.startswith("graph: n="):
        raise CertFormatError(f"expected 'graph: n=<k> <colours>', got {line!r}")
    count, _, colors = line[len("graph: ") :].partition(" ")
    try:
        return parse_graph(f"{count}\n{colors}")
    except GraphFormatError as exc:
        raise CertFormatError(f"bad graph line: {exc}") from exc


def _parse_fraction(text: str) -> Fraction:
    if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text):
        raise CertFormatError(f"bad rational {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CertFormatError(f"bad rational {text!r}") from exc


def format_packcert(g: ColoredGraph, red: FractionalPacking, blue: FractionalPacking) -> str:
    claim = 3 * (red.value() + blue.value())
    lines = [PACKCERT_HEADER, _graph_line(g), f"claim: pack >= {claim}"]
    for packing in (red, blue):
        for (i, j, k), w in sorted(packing.weights.items()):
            lines.append(f"{packing.color} {i} {j} {k} {w}")
    return "\n".join(lines) + "\n"


def parse_packcert(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != PACKCERT_HEADER:
        raise CertFormatError(f"expected {PACKCERT_HEADER!r} header")
    if len(lines) < 3:
        raise CertFormatError("truncated certificate")
    g = _parse_graph_line(lines[1])
    if not lines[2].startswith("claim: pack >= "):
        raise CertFormatError(f"expected 'claim: pack >= <p/q>', got {lines[2]!r}")
    claim = _parse_fraction(lines[2][len("claim: pack >= ") :])
    weights = {RED: {}, BLUE: {}}
    for ln in lines[3:]:
        parts = ln.split()
        if len(parts) != 5 or parts[0] not in (RED, BLUE):
            raise CertFormatError(f"bad triangle line {ln!r}")
        try:
            t = tuple(parse_decimal(p) for p in parts[1:4])
        except ValueError:
            raise CertFormatError(f"bad triangle line {ln!r}") from None
        if not 0 <= t[0] < t[1] < t[2] < g.n:
            raise CertFormatError(f"triangle line {ln!r} needs 0 <= i < j < k < {g.n}")
        if t in weights[parts[0]]:
            raise CertFormatError(f"duplicate triangle line {ln!r}")
        weights[parts[0]][t] = _parse_fraction(parts[4])
    red = FractionalPacking(RED, weights[RED])
    blue = FractionalPacking(BLUE, weights[BLUE])
    return g, red, blue, claim


def verify_packcert(text: str, g: ColoredGraph | None = None) -> tuple[bool, str]:
    """Replay a packing certificate; returns (ok, first violation or summary)."""
    try:
        cg, red, blue, claim = parse_packcert(text)
    except CertFormatError as exc:
        return False, str(exc)
    if g is not None and (g.n != cg.n or g.colors != cg.colors):
        return False, "certificate graph differs from the supplied graph"
    total = Fraction(0)
    for packing in (red, blue):
        try:
            total += 3 * packing.check_feasible(cg)
        except ValueError as exc:
            return False, f"{packing.color} packing infeasible: {exc}"
    if total < claim:
        return False, f"total weight {total} is below the claim {claim}"
    return True, f"pack >= {claim} verified (total {total})"


def verify(text: str, g: ColoredGraph | None) -> tuple[bool, str]:
    """Replay a PACKCERT or a COVERCERT, as its header (the first non-blank
    line, unstripped, as the parsers read it) names; CertFormatError on any
    other header."""
    header = next((ln for ln in text.splitlines() if ln.strip()), "")
    if header == PACKCERT_HEADER:
        return verify_packcert(text, g)
    if header == COVERCERT_HEADER:
        return verify_covercert(text, g)
    raise CertFormatError(f"unrecognised certificate header {header!r}")


def format_covercert(g: ColoredGraph, cover: FractionalCover) -> str:
    lines = [
        COVERCERT_HEADER,
        _graph_line(g),
        f"color: {cover.color}",
        f"claim: nustar <= {cover.value()}",
    ]
    for (i, j), w in sorted(cover.edge_weights.items()):
        lines.append(f"{i} {j} {w}")
    return "\n".join(lines) + "\n"


def parse_covercert(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != COVERCERT_HEADER:
        raise CertFormatError(f"expected {COVERCERT_HEADER!r} header")
    if len(lines) < 4:
        raise CertFormatError("truncated certificate")
    g = _parse_graph_line(lines[1])
    if lines[2] not in ("color: R", "color: B"):
        raise CertFormatError(f"expected 'color: R|B', got {lines[2]!r}")
    color = lines[2][-1]
    if not lines[3].startswith("claim: nustar <= "):
        raise CertFormatError(f"expected 'claim: nustar <= <p/q>', got {lines[3]!r}")
    claim = _parse_fraction(lines[3][len("claim: nustar <= ") :])
    edge_weights = {}
    for ln in lines[4:]:
        parts = ln.split()
        if len(parts) != 3:
            raise CertFormatError(f"bad edge line {ln!r}")
        try:
            e = (parse_decimal(parts[0]), parse_decimal(parts[1]))
        except ValueError:
            raise CertFormatError(f"bad edge line {ln!r}") from None
        if not 0 <= e[0] < e[1] < g.n:
            raise CertFormatError(f"edge line {ln!r} needs 0 <= i < j < {g.n}")
        if e in edge_weights:
            raise CertFormatError(f"duplicate edge line {ln!r}")
        edge_weights[e] = _parse_fraction(parts[2])
    return g, FractionalCover(color, edge_weights), claim


def verify_covercert(text: str, g: ColoredGraph | None = None) -> tuple[bool, str]:
    """Replay a cover certificate; returns (ok, first violation or summary)."""
    try:
        cg, cover, claim = parse_covercert(text)
    except CertFormatError as exc:
        return False, str(exc)
    if g is not None and (g.n != cg.n or g.colors != cg.colors):
        return False, "certificate graph differs from the supplied graph"
    try:
        total = cover.check_feasible(cg)
    except ValueError as exc:
        return False, f"cover infeasible: {exc}"
    if total > claim:
        return False, f"total weight {total} exceeds the claim {claim}"
    return True, f"nustar({cover.color}) <= {claim} verified (total {total})"
