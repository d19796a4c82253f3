import random
from fractions import Fraction
from itertools import combinations

import pytest

from monopack.simplex import UnboundedError, simplex_max_leq

F = Fraction


def test_small_lp_known_optimum():
    # max x + y  s.t.  x + 2y <= 4, 3x + y <= 6
    a = [[F(1), F(2)], [F(3), F(1)]]
    b = [F(4), F(6)]
    c = [F(1), F(1)]
    x, y, value = simplex_max_leq(a, b, c)
    assert value == F(14, 5)
    assert x == [F(8, 5), F(6, 5)]
    # strong duality
    assert sum(yi * bi for yi, bi in zip(y, b)) == value


def test_dual_is_feasible_and_tight():
    rng = random.Random(3)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[F(rng.randint(0, 4)) for _ in range(n)] for _ in range(m)]
        b = [F(rng.randint(0, 6)) for _ in range(m)]
        c = [F(rng.randint(-2, 4)) for _ in range(n)]
        try:
            x, y, value = simplex_max_leq(a, b, c)
        except UnboundedError:
            continue
        # primal feasibility
        assert all(xj >= 0 for xj in x)
        for row, bi in zip(a, b):
            assert sum(r * xj for r, xj in zip(row, x)) <= bi
        # dual feasibility: y >= 0, y^T A >= c
        assert all(yi >= 0 for yi in y)
        for j in range(n):
            assert sum(y[i] * a[i][j] for i in range(m)) >= c[j]
        # matching objectives
        assert sum(cj * xj for cj, xj in zip(c, x)) == value
        assert sum(yi * bi for yi, bi in zip(y, b)) == value


def test_unbounded_detected():
    with pytest.raises(UnboundedError):
        simplex_max_leq([[F(-1)]], [F(1)], [F(1)])


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        simplex_max_leq([[F(1)]], [F(-1)], [F(1)])


def test_triangle_packing_lp_k4():
    # four triangles of K4 sharing edges pairwise: optimum is 1
    edges = list(combinations(range(4), 2))
    triangles = list(combinations(range(4), 3))
    rows = []
    for e in edges:
        rows.append(
            [F(1) if set(e) <= set(t) else F(0) for t in triangles]
        )
    x, y, value = simplex_max_leq(rows, [F(1)] * 6, [F(1)] * 4)
    assert value == 2  # fractional optimum of K4 is 2 (weight 1/2 per triangle)
    assert sum(x) == 2
