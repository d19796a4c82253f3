"""Red/blue edge-coloured complete graphs, possibly partially coloured.

A colouring of K_n is stored as a string of length n(n-1)/2 over the
alphabet {R, B, .}, in upper-triangular row-major order: the edge {i, j}
with i < j sits at index i*(2n-i-1)//2 + (j-i-1).  '.' marks an edge whose
colour has not been assigned yet; such edges only occur while a new vertex
is being attached to a complete colouring.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations

RED = "R"
BLUE = "B"
UNASSIGNED = "."

COLORS = (RED, BLUE)
SWAP_COLORS = str.maketrans({RED: BLUE, BLUE: RED})  # str.translate table
# matches the longest well-formed prefix of a colour string
_COLOUR_RUN = re.compile("[" + re.escape(RED + BLUE + UNASSIGNED) + "]*")

Triangle = tuple[int, int, int]
Edge = tuple[int, int]


class GraphFormatError(ValueError):
    """Malformed graph text."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


def edge_index(n: int, i: int, j: int) -> int:
    if i == j:
        raise ValueError(f"no loop edge ({i}, {j})")
    if i > j:
        i, j = j, i
    if i < 0 or j >= n:
        raise ValueError(f"vertex out of range for n={n}: ({i}, {j})")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def norm_edge(e, n: int) -> Edge:
    """The vertex pair `e` of K_n as (smaller, larger); ValueError on a loop
    or on a vertex outside 0..n-1.  The one reader of a vertex pair given
    from outside; `edge_index` keeps its own check, as `color_of`'s hot path."""
    i, j = e
    if i == j:
        raise ValueError(f"loop edge ({i}, {j})")
    if i > j:
        i, j = j, i
    if i < 0 or j >= n:
        raise ValueError(f"vertex out of range for n={n}: ({i}, {j})")
    return i, j


def parse_decimal(text: str) -> int:
    """The value of text, which must be ASCII digits 0-9 only; ValueError on
    a sign, `_`, surrounding space or another script's digits, which `int`
    would accept."""
    if not (text.isascii() and text.isdecimal()):
        raise ValueError(f"not a decimal number: {text!r}")
    return int(text)


def parse_integer(text: str) -> int:
    """parse_decimal with an optional leading '-', so that a negative value is
    read as such and can be refused by the caller."""
    return -parse_decimal(text[1:]) if text.startswith("-") else parse_decimal(text)


def all_edges(n: int) -> list[Edge]:
    return list(combinations(range(n), 2))


@dataclass(frozen=True)
class ColoredGraph:
    """An immutable (partial) red/blue colouring of K_n."""

    n: int
    colors: str

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be non-negative, got {self.n}")
        m = self.n * (self.n - 1) // 2
        if len(self.colors) != m:
            raise ValueError(
                f"colour string has length {len(self.colors)}, expected {m} for n={self.n}"
            )
        bad = set(self.colors) - {RED, BLUE, UNASSIGNED}
        if bad:
            raise ValueError(f"invalid colour characters: {sorted(bad)}")

    # -- queries ----------------------------------------------------------

    def color_of(self, i: int, j: int) -> str:
        return self.colors[edge_index(self.n, i, j)]

    def triangle_colors(self, i: int, j: int, k: int) -> str:
        """The colours of ij, ik and jk; ValueError unless 0 <= i < j < k < n."""
        n = self.n
        if not 0 <= i < j < k < n:
            raise ValueError(f"triangle {(i, j, k)} needs 0 <= i < j < k < {n}")
        # edge_index without its checks: row r starts at r*(2n-r-1)//2 - r - 1
        row_i = i * (2 * n - i - 1) // 2 - i - 1
        row_j = j * (2 * n - j - 1) // 2 - j - 1
        c = self.colors
        return c[row_i + j] + c[row_i + k] + c[row_j + k]

    @property
    def is_complete(self) -> bool:
        return UNASSIGNED not in self.colors

    def color_rows(self) -> list[str]:
        """rows[v][u] is the colour of edge vu; the diagonal holds '-'."""
        n = self.n
        rows = [["-"] * n for _ in range(n)]
        idx = 0
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = self.colors[idx]
                idx += 1
        return ["".join(row) for row in rows]

    def edges_of_color(self, c: str) -> list[Edge]:
        return [e for e, x in zip(combinations(range(self.n), 2), self.colors) if x == c]

    def unassigned_edges(self) -> list[Edge]:
        return self.edges_of_color(UNASSIGNED)

    def neighbor_masks(self, c: str) -> list[int]:
        """Bitmask of c-coloured neighbours for every vertex."""
        masks = [0] * self.n
        idx = 0
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.colors[idx] == c:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
                idx += 1
        return masks

    def monochromatic_triangles(self, c: str) -> list[Triangle]:
        """All triangles whose three edges have colour c, sorted lexicographically."""
        if c not in COLORS:
            raise ValueError(f"colour must be one of {COLORS}, got {c!r}")
        masks = self.neighbor_masks(c)
        out: list[Triangle] = []
        idx = 0
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.colors[idx] == c:
                    common = masks[i] & masks[j] & ~((1 << (j + 1)) - 1)
                    while common:
                        low = common & -common
                        out.append((i, j, low.bit_length() - 1))
                        common ^= low
                idx += 1
        return out

    # -- constructors -----------------------------------------------------

    @staticmethod
    def empty() -> "ColoredGraph":
        return ColoredGraph(0, "")

    @staticmethod
    def monochromatic(n: int, c: str = RED) -> "ColoredGraph":
        return ColoredGraph(n, c * (n * (n - 1) // 2))

    @staticmethod
    def from_red_edges(n: int, red_edges) -> "ColoredGraph":
        """Complete colouring with the given edges red and everything else blue."""
        chars = [BLUE] * (n * (n - 1) // 2)
        for i, j in red_edges:
            chars[edge_index(n, i, j)] = RED
        return ColoredGraph(n, "".join(chars))

    # -- mutations (return new graphs) ------------------------------------

    def add_vertex(self) -> "ColoredGraph":
        if not self.is_complete:
            raise ValueError("can only add a vertex to a completely coloured graph")
        n = self.n
        chars = []
        pos = 0
        for i in range(n):
            row = n - 1 - i
            chars.append(self.colors[pos : pos + row])
            chars.append(UNASSIGNED)
            pos += row
        return ColoredGraph(n + 1, "".join(chars))

    def set_edge(self, i: int, j: int, c: str) -> "ColoredGraph":
        if c not in COLORS:
            raise ValueError(f"colour must be one of {COLORS}, got {c!r}")
        k = edge_index(self.n, i, j)
        if self.colors[k] != UNASSIGNED:
            raise ValueError(f"edge ({i}, {j}) already coloured {self.colors[k]}")
        return ColoredGraph(self.n, self.colors[:k] + c + self.colors[k + 1 :])

    def flip_edge(self, i: int, j: int) -> "ColoredGraph":
        k = edge_index(self.n, i, j)
        old = self.colors[k]
        if old == UNASSIGNED:
            raise ValueError(f"edge ({i}, {j}) is unassigned")
        new = RED if old == BLUE else BLUE
        return ColoredGraph(self.n, self.colors[:k] + new + self.colors[k + 1 :])

    def delete_vertex(self, u: int) -> "ColoredGraph":
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} out of range for n={self.n}")
        # the pairs avoiding u keep their row-major order once renumbered
        pairs = zip(combinations(range(self.n), 2), self.colors)
        return ColoredGraph(self.n - 1, "".join(x for e, x in pairs if u not in e))

    def swap_colors(self) -> "ColoredGraph":
        return ColoredGraph(self.n, self.colors.translate(SWAP_COLORS))

    # -- text format ------------------------------------------------------

    def serialize(self) -> str:
        return f"n={self.n}\n{self.colors}\n"

    def __str__(self) -> str:
        return f"ColoredGraph(n={self.n}, {self.colors!r})"


def parse(text: str) -> ColoredGraph:
    """Parse the two-line graph format (`n=<k>` then the colour string)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("n="):
        raise GraphFormatError("first line must be 'n=<decimal>'", 0)
    count = lines[0][2:]
    try:
        n = parse_integer(count)
    except ValueError:
        raise GraphFormatError(f"bad vertex count {count!r}", 2) from None
    if count.startswith("-"):  # "-0" too, which parse_integer reads as 0
        raise GraphFormatError("vertex count must be non-negative", 2)
    m = n * (n - 1) // 2
    body = lines[1] if len(lines) > 1 else ""
    if len(body) != m:
        raise GraphFormatError(
            f"colour string has length {len(body)}, expected {m}", len(lines[0]) + 1
        )
    k = _COLOUR_RUN.match(body).end()
    if k < m:
        raise GraphFormatError(f"invalid colour {body[k]!r}", len(lines[0]) + 1 + k)
    if any(line.strip() for line in lines[2:]):
        raise GraphFormatError("trailing content after colour string", len(lines[0]) + 1 + m)
    return ColoredGraph(n, body)
