import json
import os
from fractions import Fraction

import pytest

from monopack.cli import _parse_threshold, main
from monopack.graph import ColoredGraph


def write_graph(tmp_path, g, name="g.txt"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        fh.write(g.serialize())
    return path


def test_pack_and_certs(tmp_path, capsys):
    path = write_graph(tmp_path, ColoredGraph.monochromatic(5))
    certdir = os.path.join(tmp_path, "certs")
    assert main(["pack", path, "--certs", certdir]) == 0
    out = capsys.readouterr().out
    assert "pack = 10/1" in out
    names = sorted(os.listdir(certdir))
    assert names == ["nustar-B.covercert", "nustar-R.covercert", "pack.packcert"]
    # the emitted certificates replay cleanly against the graph
    for name in names:
        cert = os.path.join(certdir, name)
        assert main(["verify", cert, path]) == 0


def test_pack_requires_complete_graph(tmp_path, capsys):
    g = ColoredGraph.monochromatic(3).add_vertex()
    path = write_graph(tmp_path, g)
    assert main(["pack", path]) == 3
    assert "unassigned" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    path = os.path.join(tmp_path, "bad.txt")
    with open(path, "w") as fh:
        fh.write("n=3\nRX\n")
    assert main(["pack", path]) == 2
    assert main(["pack", os.path.join(tmp_path, "missing.txt")]) == 2


def test_verify_detects_violation(tmp_path, capsys):
    cert = os.path.join(tmp_path, "bad.packcert")
    with open(cert, "w") as fh:
        fh.write("PACKCERT v1\ngraph: n=3 RRR\nclaim: pack >= 4\nR 0 1 2 1\n")
    assert main(["verify", cert]) == 1
    assert "fail:" in capsys.readouterr().out
    with open(cert, "w") as fh:
        fh.write("GARBAGE\n")
    assert main(["verify", cert]) == 2


def test_canon(tmp_path, capsys):
    path = write_graph(tmp_path, ColoredGraph(4, "RRRRRR"))
    assert main(["canon", path]) == 0
    record = json.loads(capsys.readouterr().out)
    # all-red swaps to the lexicographically smaller all-blue form
    assert record["key"] == "BBBBBB" and record["swapped"]
    assert main(["canon", path, "--no-swap"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["key"] == "RRRRRR" and not record["swapped"]


def test_construct_pentagon_pipeline(tmp_path, capsys):
    out_path = os.path.join(tmp_path, "blowup.txt")
    assert main(["construct", "blowup", "--sizes", "2,2,2,2,2"]) == 0
    with open(out_path, "w") as fh:
        fh.write(capsys.readouterr().out)
    assert main(["pentagon", out_path, "--max-flips", "0"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["pentagon"] is not None
    assert [len(b) for b in record["pentagon"]["blobs"]] == [2, 2, 2, 2, 2]
    assert main(["construct", "blowup", "--sizes", "1,2"]) == 3
    capsys.readouterr()


def test_construct_bipartite_and_bipdist(tmp_path, capsys):
    assert main(["construct", "bipartite", "-n", "8", "-m", "2"]) == 0
    path = os.path.join(tmp_path, "bip.txt")
    with open(path, "w") as fh:
        fh.write(capsys.readouterr().out)
    assert main(["bipdist", path, "--color", "B", "-k", "0"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["bipartite_within"] is not None
    assert record["bipartite_within"]["removed_edges"] == []
    assert main(["bipdist", path, "--color", "R", "-k", "1"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["bipartite_within"] is None
    assert main(["construct", "bipartite", "-n", "8"]) == 3
    capsys.readouterr()


def test_decompose(tmp_path, capsys):
    path = write_graph(tmp_path, ColoredGraph.monochromatic(7))
    assert main(["decompose", path, "--color", "R"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["decomposable"]
    # an empty colour class is vacuously decomposable
    assert main(["decompose", path, "--color", "B"]) == 0
    capsys.readouterr()
    # red K6 minus two disjoint edges is not decomposable
    import itertools

    red = [
        e
        for e in itertools.combinations(range(6), 2)
        if e not in {(0, 1), (2, 3)}
    ]
    bad = write_graph(tmp_path, ColoredGraph.from_red_edges(6, red), "bad.txt")
    assert main(["decompose", bad, "--color", "R"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert not record["decomposable"] and record["farkas"]


def test_table1_runs(capsys):
    assert main(["table1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 21
    for line in lines:
        record = json.loads(line)
        assert record["match"]


def test_search_cli(tmp_path, capsys):
    seed = write_graph(tmp_path, ColoredGraph(3, "RRB"))
    ckpt = os.path.join(tmp_path, "ckpt.json")
    certdir = os.path.join(tmp_path, "certs")
    assert (
        main(
            [
                "search",
                "--seed",
                seed,
                "--n-end",
                "5",
                "--checkpoint",
                ckpt,
                "--certs",
                certdir,
                "--filter",
                "5:pentagon",
            ]
        )
        == 0
    )
    records = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    survivors = [r for r in records if "survivor" in r]
    assert survivors and all(r["n"] == 5 for r in survivors)
    assert len(os.listdir(certdir)) == len(survivors)
    # resume from the checkpoint and continue one more level
    assert main(["search", "--resume", ckpt, "--n-end", "6"]) == 0
    capsys.readouterr()
    # malformed inputs
    assert main(["search", "--n-end", "5", "--threshold", "nonsense("]) == 3
    capsys.readouterr()
    assert main(["search", "--n-end", "5", "--filter", "5:bogus"]) == 3
    capsys.readouterr()
    missing = os.path.join(tmp_path, "nope.json")
    assert main(["search", "--resume", missing, "--n-end", "6"]) == 2
    capsys.readouterr()


def test_threshold_expression_is_restricted(capsys):
    escape = (
        '[c for c in ().__class__.__base__.__subclasses__() '
        'if c.__name__ == "_wrap_close"][0].__init__.__globals__["getcwd"]()'
    )
    long_list = "[" + "1, " * 5000 + "]"
    for expr in (escape, "[1]", "n ** 2", "abs(n)", "1 / (n - 4)", long_list):
        assert main(["search", "--n-end", "5", "--threshold", expr]) == 3
        err = capsys.readouterr().err
        assert "bad threshold expression" in err
        assert len(err) < 1000  # long expressions are quoted only in part
    threshold = _parse_threshold("Fraction(n * (n + 1), 4)")
    assert [threshold(n) for n in range(3, 20)] == [
        Fraction(n * (n + 1), 4) for n in range(3, 20)
    ]
    assert _parse_threshold("-n // 3 + 7 / 2")(5) == Fraction(3, 2)
    # nesting deep enough to exhaust the recursion limit or memory
    for expr in ("-" * 1000 + "1", "+".join(["n"] * 1000), "-" * 100000 + "1"):
        assert main(["search", "--n-end", "3", "--threshold=" + expr]) == 3
        err = capsys.readouterr().err
        assert "nested too deeply" in err
        assert len(err) < 1000


def test_pentagon_too_small(tmp_path, capsys):
    path = write_graph(tmp_path, ColoredGraph.monochromatic(4))
    assert main(["pentagon", path]) == 3
    capsys.readouterr()
