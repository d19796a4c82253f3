"""Exact rational simplex over `fractions.Fraction`.

`simplex_max_leq` solves  max c^T x  s.t.  A x <= b, x >= 0  (b >= 0) and
returns the optimal primal vertex together with the optimal dual vector,
whose objective values agree exactly (strong duality read off the final
tableau).  It is the fallback of `lp._optimum`, for the LPs whose float
solution fails its duality certificate, and the tests' exact reference.

Anti-cycling: entering columns are scanned in index order and the leaving
row breaks ties by smallest basis index, i.e. Bland's rule, which
terminates.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class UnboundedError(RuntimeError):
    pass


def _pivot(tab: list[list[Fraction]], basis: list[int], r: int, col: int) -> None:
    piv = tab[r][col]
    row = tab[r]
    inv = ONE / piv
    tab[r] = [v * inv for v in row]
    row = tab[r]
    for k, other in enumerate(tab):
        if k == r:
            continue
        factor = other[col]
        if factor:
            tab[k] = [a - factor * b for a, b in zip(other, row)]
    basis[r] = col


def _run(tab, basis) -> None:
    """Drive the objective row (last row of `tab`) to optimality.

    Entering columns are scanned in index order over every column but the
    rhs.  Slack columns must be candidates too, otherwise a vertex with a
    negative dual component (positive slack reduced cost) looks optimal.
    """
    obj = tab[-1]
    while True:
        col = -1
        for j in range(len(obj) - 1):
            if obj[j] > 0:
                col = j
                break
        if col < 0:
            return
        best_r, best_ratio = -1, None
        for r in range(len(tab) - 1):
            a = tab[r][col]
            if a > 0:
                ratio = tab[r][-1] / a
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[r] < basis[best_r]
                ):
                    best_r, best_ratio = r, ratio
        if best_r < 0:
            raise UnboundedError("objective unbounded above")
        _pivot(tab, basis, best_r, col)
        obj = tab[-1]


def simplex_max_leq(
    a_rows: list[list[Fraction]],
    b: list[Fraction],
    c: list[Fraction],
):
    """Maximise c.x subject to A x <= b (b >= 0), x >= 0.

    Returns (x, y, value): exact primal solution, exact dual solution on the
    rows, and the shared optimal value.
    """
    m, n = len(a_rows), len(c)
    if any(bi < 0 for bi in b):
        raise ValueError("rhs must be non-negative")
    tab = []
    for i in range(m):
        row = [Fraction(v) for v in a_rows[i]]
        row += [ONE if k == i else ZERO for k in range(m)]
        row.append(Fraction(b[i]))
        tab.append(row)
    obj = [Fraction(v) for v in c] + [ZERO] * (m + 1)
    tab.append(obj)
    basis = [n + i for i in range(m)]

    _run(tab, basis)

    x = [ZERO] * n
    for r, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[r][-1]
    obj = tab[-1]
    y = [-obj[n + i] for i in range(m)]
    value = -obj[-1]
    return x, y, value

