import random
from fractions import Fraction

import pytest

from monopack.certs import (
    CertFormatError,
    format_covercert,
    format_packcert,
    parse_covercert,
    parse_packcert,
    verify,
    verify_covercert,
    verify_packcert,
)
from monopack.constructions import BlobSpec, pentagon_blowup
from monopack.graph import BLUE, RED, ColoredGraph
from monopack.lp import FractionalCover, FractionalPacking, nu_star, pack

F = Fraction


def solved_k5():
    g = ColoredGraph.monochromatic(5)
    red = nu_star(g, RED).packing
    blue = nu_star(g, BLUE).packing
    return g, red, blue


def test_packcert_round_trip():
    g, red, blue = solved_k5()
    text = format_packcert(g, red, blue)
    g2, red2, blue2, claim = parse_packcert(text)
    assert g2 == g
    assert red2.weights == red.weights
    assert blue2.weights == blue.weights
    assert claim == 10
    ok, msg = verify_packcert(text)
    assert ok, msg
    assert format_packcert(g2, red2, blue2) == text


def test_packcert_verifies_against_supplied_graph():
    g, red, blue = solved_k5()
    text = format_packcert(g, red, blue)
    ok, _ = verify_packcert(text, g)
    assert ok
    other = ColoredGraph(5, "B" + g.colors[1:])
    ok, msg = verify_packcert(text, other)
    assert not ok and "differs" in msg


def test_packcert_rejects_tampered_weight():
    g, red, blue = solved_k5()
    text = format_packcert(g, red, blue)
    # raise one weight to 2: the edge loads blow past 1
    tampered = text.replace("R 0 1 2 1/3", "R 0 1 2 2", 1)
    assert tampered != text
    ok, msg = verify_packcert(tampered)
    assert not ok


def test_packcert_rejects_overstated_claim():
    g, _ = pentagon_blowup(BlobSpec((4, 4, 4, 4, 4)))
    res = pack(g)
    assert res.value == 90
    text = format_packcert(g, res.red.packing, res.blue.packing)
    assert "claim: pack >= 90\n" in text
    ok, _ = verify_packcert(text)
    assert ok
    overstated = text.replace("claim: pack >= 90\n", "claim: pack >= 91\n")
    ok, msg = verify_packcert(overstated)
    assert not ok and "below the claim" in msg


def test_packcert_parse_errors():
    with pytest.raises(CertFormatError):
        parse_packcert("BOGUS v1\n")
    with pytest.raises(CertFormatError):
        parse_packcert("PACKCERT v1\ngraph: n=3 RRR\n")
    with pytest.raises(CertFormatError):
        parse_packcert("PACKCERT v1\nwrong\nclaim: pack >= 3\n")
    with pytest.raises(CertFormatError):
        parse_packcert("PACKCERT v1\ngraph: n=3 RRR\nclaim: pack >= x\n")
    with pytest.raises(CertFormatError, match="expected 'claim: pack >= <p/q>'"):
        parse_packcert("PACKCERT v1\ngraph: n=3 RRR\nclaim: pack > 3\n")
    with pytest.raises(CertFormatError):
        parse_packcert(
            "PACKCERT v1\ngraph: n=3 RRR\nclaim: pack >= 3\nR 0 1 2\n"
        )
    with pytest.raises(CertFormatError):
        parse_packcert(
            "PACKCERT v1\ngraph: n=3 RRR\nclaim: pack >= 3\n"
            "R 0 1 2 1\nR 0 1 2 1\n"
        )
    # triangle lines are refused at parse time, as COVERCERT edge lines are,
    # unless 0 <= i < j < k < n
    for line in ("R 2 1 0 1", "R 0 1 9 1"):
        with pytest.raises(CertFormatError, match="0 <= i < j < k < 3"):
            parse_packcert(f"PACKCERT v1\ngraph: n=3 RRR\nclaim: pack >= 6\n{line}\n")


def test_packcert_rejects_wrong_color_triangle():
    text = (
        "PACKCERT v1\ngraph: n=3 RRB\nclaim: pack >= 0\nR 0 1 2 1/2\n"
    )
    ok, msg = verify_packcert(text)
    assert not ok and "not R-monochromatic" in msg


def test_packcert_rejects_unsorted_and_out_of_range_triangles():
    # the reordered copy of 0 1 2 would load other edge keys than its own
    reordered = "PACKCERT v1\ngraph: n=3 RRR\nclaim: pack >= 6\nR 0 1 2 1\nR 2 1 0 1\n"
    ok, msg = verify_packcert(reordered)
    assert not ok and "0 <= i < j < k < 3" in msg
    outside = "PACKCERT v1\ngraph: n=3 RRR\nclaim: pack >= 0\nR 0 1 5 1\n"
    ok, msg = verify_packcert(outside)
    assert not ok and "0 <= i < j < k < 3" in msg


def test_verify_picks_the_verifier_by_header():
    g, red, blue = solved_k5()
    packcert = format_packcert(g, red, blue)
    covercert = format_covercert(g, nu_star(g, RED).cover)
    assert verify(packcert, g) == verify_packcert(packcert, g)
    assert verify(covercert, None) == verify_covercert(covercert)
    # the header is the first non-blank line, unstripped
    assert verify("\n" + packcert, g)[0]
    for text in ("", "PACKCERT v1 \n", " COVERCERT v1\n", "BOGUS v1\n" + packcert):
        with pytest.raises(CertFormatError, match="unrecognised certificate header"):
            verify(text, None)


def test_covercert_round_trip():
    g = ColoredGraph.monochromatic(5)
    cover = nu_star(g, RED).cover
    text = format_covercert(g, cover)
    g2, cover2, claim = parse_covercert(text)
    assert g2 == g and claim == F(10, 3)
    assert cover2.edge_weights == cover.edge_weights
    ok, msg = verify_covercert(text)
    assert ok, msg
    ok, _ = verify_covercert(text, g)
    assert ok


def test_covercert_rejects_tampering():
    g = ColoredGraph.monochromatic(4)
    cover = nu_star(g, RED).cover
    text = format_covercert(g, cover)
    lowered = text.replace("claim: nustar <= 2", "claim: nustar <= 1")
    ok, msg = verify_covercert(lowered)
    assert not ok and "exceeds the claim" in msg
    # dropping an edge line leaves a triangle uncovered
    lines = text.strip().splitlines()
    ok, msg = verify_covercert("\n".join(lines[:-1]) + "\n")
    assert not ok and "not covered" in msg
    other = ColoredGraph(4, "B" + g.colors[1:])
    ok, msg = verify_covercert(text, other)
    assert not ok


def test_covercert_parse_errors():
    with pytest.raises(CertFormatError):
        parse_covercert("COVERCERT v2\n")
    with pytest.raises(CertFormatError):
        parse_covercert("COVERCERT v1\ngraph: n=3 RRR\ncolor: R\n")
    with pytest.raises(CertFormatError):
        parse_covercert(
            "COVERCERT v1\ngraph: n=3 RRR\ncolor: G\nclaim: nustar <= 1\n"
        )
    with pytest.raises(CertFormatError, match="expected 'claim: nustar <= <p/q>'"):
        parse_covercert("COVERCERT v1\ngraph: n=3 RRR\ncolor: R\nclaim: nustar < 1\n")
    with pytest.raises(CertFormatError):
        parse_covercert(
            "COVERCERT v1\ngraph: n=3 RRR\ncolor: R\nclaim: nustar <= 1\n0 1\n"
        )
    head = "COVERCERT v1\ngraph: n=3 RRR\ncolor: R\nclaim: nustar <= 1\n"
    for body in (
        "0 1 1/2\n0 1 1/2\n",  # duplicate edge line
        "1 0 1\n",  # i > j
        "1 1 1\n",  # i == j
        "0 3 1\n",  # vertex outside 0..n-1
        "-1 2 1\n",
    ):
        with pytest.raises(CertFormatError):
            parse_covercert(head + body)


def test_integer_fields_are_ascii_digits():
    # int() accepts all of these; read as integers they would name vertices
    for fields in ("+0 1 2", "0 1_0 2", "0 1 \u0662", "0 \u0661 2", "-0 1 2"):
        ok, msg = verify_packcert(
            f"PACKCERT v1\ngraph: n=3 RRR\nclaim: pack >= 3\nR {fields} 1\n"
        )
        assert not ok and "bad triangle line" in msg, fields
    for fields in ("+0 1", "0 \u0661", "0 +1", "1_0 2"):
        text = f"COVERCERT v1\ngraph: n=3 RRR\ncolor: R\nclaim: nustar <= 1\n{fields} 1\n"
        with pytest.raises(CertFormatError, match="bad edge line"):
            parse_covercert(text)
        ok, msg = verify_covercert(text)
        assert not ok and "bad edge line" in msg, fields
    for count in ("+3", "\u0663", "3_0", " 3"):
        ok, msg = verify_packcert(f"PACKCERT v1\ngraph: n={count} RRR\nclaim: pack >= 0\n")
        assert not ok and "bad vertex count" in msg, count
        ok, msg = verify_covercert(
            f"COVERCERT v1\ngraph: n={count} RRR\ncolor: R\nclaim: nustar <= 0\n"
        )
        assert not ok and "bad vertex count" in msg, count
    # the plain forms still read
    ok, _ = verify_packcert("PACKCERT v1\ngraph: n=3 RRR\nclaim: pack >= 3\nR 0 1 2 1\n")
    assert ok


def test_negative_vertex_count_rejected():
    # n = -2 gives n(n-1)/2 = 3, the length of the colour string; n = -0
    # reads as 0, with an empty one
    for graph in ("n=-2 RRR", "n=-0 "):
        ok, msg = verify_packcert(f"PACKCERT v1\ngraph: {graph}\nclaim: pack >= 0\n")
        assert not ok and "non-negative" in msg, graph
        ok, msg = verify_covercert(
            f"COVERCERT v1\ngraph: {graph}\ncolor: R\nclaim: nustar <= 0\n"
        )
        assert not ok and "non-negative" in msg, graph


def test_negative_cover_weight_rejected():
    text = (
        "COVERCERT v1\ngraph: n=3 BBB\ncolor: R\nclaim: nustar <= 0\n0 1 -1\n"
    )
    ok, msg = verify_covercert(text)
    assert not ok and "negative" in msg


def test_cover_check_compares_over_common_denominator():
    g = ColoredGraph(3, "RRR")
    exact = {(0, 1): F(1, 2), (0, 2): F(1, 3), (1, 2): F(1, 6)}
    short = {**exact, (1, 2): F(1, 7)}
    FractionalCover(RED, exact).check_feasible(g)
    ok, msg = verify_covercert(format_covercert(g, FractionalCover(RED, exact)))
    assert ok, msg
    with pytest.raises(ValueError, match="not covered"):
        FractionalCover(RED, short).check_feasible(g)
    ok, msg = verify_covercert(format_covercert(g, FractionalCover(RED, short)))
    assert not ok and "not covered: 41/42 < 1" in msg


def test_packing_check_compares_over_common_denominator():
    g = ColoredGraph.monochromatic(5)
    # three triangles through edge (0, 1): its load is the sum of the weights
    exact = {(0, 1, 2): F(1, 2), (0, 1, 3): F(1, 3), (0, 1, 4): F(1, 6)}
    assert FractionalPacking(RED, exact).check_feasible(g) == 1
    ok, msg = verify_packcert(
        format_packcert(g, FractionalPacking(RED, exact), FractionalPacking(BLUE))
    )
    assert ok and "(total 3)" in msg
    over = FractionalPacking(RED, {**exact, (0, 1, 4): F(1, 5)})
    with pytest.raises(ValueError, match=r"edge \(0, 1\) is overloaded: 31/30"):
        over.check_feasible(g)
    ok, msg = verify_packcert(format_packcert(g, over, FractionalPacking(BLUE)))
    assert not ok and "overloaded: 31/30" in msg
    # weight 1 is allowed, 7/6 is not
    assert FractionalPacking(RED, {(0, 1, 2): F(1)}).check_feasible(g) == 1
    with pytest.raises(ValueError, match=r"weight 7/6 outside \[0, 1\]"):
        FractionalPacking(RED, {(0, 1, 2): F(7, 6)}).check_feasible(g)


def test_checks_return_the_value_they_verify():
    rng = random.Random(8)
    for n in range(3, 12):
        g = ColoredGraph(n, "".join(rng.choice("RB") for _ in range(n * (n - 1) // 2)))
        res = pack(g)
        red, blue = res.red.packing, res.blue.packing
        assert red.check_feasible(g) == red.value()
        assert blue.check_feasible(g) == blue.value()
        ok, msg = verify_packcert(format_packcert(g, red, blue))
        assert ok and msg.endswith(f"(total {3 * (red.value() + blue.value())})")
        for side in (res.red, res.blue):
            cover = side.cover
            assert cover.check_feasible(g) == cover.value() == side.packing.value()
            ok, msg = verify_covercert(format_covercert(g, cover))
            assert ok and msg.endswith(f"(total {cover.value()})")


def test_rationals_must_be_integers_or_fractions():
    words = ("1e3", "0.5", "1e-2", "0.5e1", "+1", "1/-2", "\u0661", "1_0", "inf", "1/0")
    for text in words + (" 1", "1 /2", ""):  # whitespace only matters in a claim
        packcert = f"PACKCERT v1\ngraph: n=3 RRR\nclaim: pack >= {text}\n"
        ok, msg = verify_packcert(packcert)
        assert not ok and "bad rational" in msg, text
        covercert = f"COVERCERT v1\ngraph: n=3 RRR\ncolor: R\nclaim: nustar <= {text}\n"
        ok, msg = verify_covercert(covercert)
        assert not ok and "bad rational" in msg, text
    for text in words:
        packcert = f"PACKCERT v1\ngraph: n=3 RRR\nclaim: pack >= 0\nR 0 1 2 {text}\n"
        ok, msg = verify_packcert(packcert)
        assert not ok and "bad rational" in msg, text
        covercert = f"COVERCERT v1\ngraph: n=3 RRR\ncolor: R\nclaim: nustar <= 1\n0 1 {text}\n"
        ok, msg = verify_covercert(covercert)
        assert not ok and "bad rational" in msg, text
    # a 12-character exponent is refused without expanding it
    ok, msg = verify_covercert(
        "COVERCERT v1\ngraph: n=3 RRR\ncolor: R\nclaim: nustar <= 1e999999999\n0 1 1\n"
    )
    assert not ok and "bad rational" in msg
    # what str(Fraction) writes still parses; the red cover of BBB has value 0
    for text in ("-3", "0", "7/2", "-1/3", "007/010"):
        ok, msg = verify_covercert(
            f"COVERCERT v1\ngraph: n=3 BBB\ncolor: R\nclaim: nustar <= {text}\n"
        )
        assert ok == (F(text) >= 0), (text, msg)
