import json
import os

import pytest

from monopack import search as search_mod
from monopack.cli import main
from monopack.constructions import BlobSpec, pentagon_blowup
from monopack.graph import ColoredGraph
from monopack.lp import nu_star


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
    # a file that is not UTF-8 is a parse error, for graphs and certificates
    with open(path, "wb") as fh:
        fh.write(b"n=3\nRR\xff\n")
    capsys.readouterr()
    for argv in (["pack", path], ["canon", path], ["decompose", path, "--color", "R"]):
        assert main(argv) == 2, argv
        assert "cannot read" in capsys.readouterr().err, argv
    good = write_graph(tmp_path, ColoredGraph.monochromatic(5))
    certdir = os.path.join(tmp_path, "certs")
    assert main(["pack", good, "--certs", certdir]) == 0
    cert = os.path.join(certdir, "pack.packcert")
    assert main(["verify", cert, path]) == 2
    with open(cert, "ab") as fh:
        fh.write(b"\xff\n")
    capsys.readouterr()
    assert main(["verify", cert, good]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_verify_detects_violation(tmp_path, capsys):
    cert = os.path.join(tmp_path, "bad.packcert")
    with open(cert, "w") as fh:
        fh.write("PACKCERT v1\ngraph: n=3 RRR\nclaim: pack >= 4\nR 0 1 2 1\n")
    assert main(["verify", cert]) == 1
    assert "fail:" in capsys.readouterr().out
    with open(cert, "w") as fh:
        fh.write("GARBAGE\n")
    assert main(["verify", cert]) == 2


def test_verify_reads_the_header_as_the_parsers_do(tmp_path, capsys):
    path = write_graph(tmp_path, ColoredGraph.monochromatic(5))
    certdir = os.path.join(tmp_path, "certs")
    assert main(["pack", path, "--certs", certdir]) == 0
    with open(os.path.join(certdir, "pack.packcert")) as fh:
        text = fh.read()
    cert = os.path.join(tmp_path, "edited.packcert")
    with open(cert, "w") as fh:
        fh.write("\n" + text)
    assert main(["verify", cert, path]) == 0
    with open(cert, "w") as fh:
        fh.write(text.replace("PACKCERT v1\n", "PACKCERT v1 \n", 1))
    capsys.readouterr()
    assert main(["verify", cert, path]) == 2
    assert "unrecognised certificate header 'PACKCERT v1 '" in capsys.readouterr().err


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
    levels = [r for r in records if "level" in r]
    assert [r["level"] for r in levels] == [4, 5]
    assert all(r["lp_solves"] > 0 for r in levels)
    # each level line is the library's report, symmetry cuts included
    cfg = search_mod.SearchConfig(n_end=5, filters={5: search_mod.PentagonFilter()})
    _, report = search_mod.run_search([ColoredGraph(3, "RRB")], cfg)
    for r in levels:
        assert r["sym_cuts"] == report.at(r["level"]).sym_cuts
        assert r["completed"] == report.at(r["level"]).completed > 0
    assert len(os.listdir(certdir)) == len(survivors)
    # resume from the checkpoint and continue one more level
    assert main(["search", "--resume", ckpt, "--n-end", "6"]) == 0
    capsys.readouterr()
    # malformed inputs
    assert main(["search", "--n-end", "5", "--filter", "5:bogus"]) == 3
    capsys.readouterr()
    missing = os.path.join(tmp_path, "nope.json")
    assert main(["search", "--resume", missing, "--n-end", "6"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["search", "--resume", ckpt, "--seed", seed, "--n-end", "6"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with" in err
    # --seed names at least one file, and colour swap is not an option
    for argv in (["--seed"], ["--no-swap"]):
        with pytest.raises(SystemExit) as exc:
            main(["search", *argv, "--n-end", "4"])
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and argv[0] in err, argv


def test_bad_filter_fails_before_the_search(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(g, color):
        calls.append(g)
        return nu_star(g, color)

    monkeypatch.setattr(search_mod, "nu_star", counted)
    for spec in ("6:bip:-1", "2:pentagon", "9:pentagon"):
        assert main(["search", "--n-end", "6", "--filter", spec]) == 3
        out, err = capsys.readouterr()
        assert '"level"' not in out and err, spec
    # a level named twice would keep only its last filter
    argv = ["search", "--n-end", "6", "--filter", "5:bip:0", "--filter", "5:pentagon"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and "level 5 named twice" in err
    # an n_end below the seed's level would print the seed as the survivor
    seed = write_graph(tmp_path, pentagon_blowup(BlobSpec((1, 1, 1, 1, 1)))[0])
    assert main(["search", "--seed", seed, "--n-end", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "below the start level" in err
    assert calls == []


def test_cli_integers_are_ascii_digits(tmp_path, capsys):
    for spec in ("\u0666:pentagon", "+7:bip:1_0", " 6:pentagon", "6:bip:\u0661", "6:bip:+1"):
        assert main(["search", "--n-end", "6", "--filter", spec]) == 3
        assert "bad filter" in capsys.readouterr().err, spec
    for sizes in ("\u0663,3,3,4,4", "+3,3,3,4,4", "3,3,3,4,4_0", "3, 3,3,4,4"):
        assert main(["construct", "blowup", "--sizes", sizes]) == 3
        assert "--sizes" in capsys.readouterr().err, sizes
    assert main(["construct", "blowup", "--sizes", "3,3,3,4,4"]) == 0
    assert capsys.readouterr().out.startswith("n=17")
    assert main(["search", "--n-end", "5", "--filter", "5:bip:0"]) == 0
    capsys.readouterr()
    # integer options are an optional '-' then ASCII digits; else argparse exits 2
    path = write_graph(tmp_path, ColoredGraph.monochromatic(5))
    commands = [
        lambda x: ["search", "--n-end", x],
        lambda x: ["bipdist", path, "--color", "R", "-k", x],
        lambda x: ["construct", "bipartite", "-n", x, "-m", "1"],
        lambda x: ["construct", "bipartite", "-n", "8", "-m", x],
        lambda x: ["pentagon", path, "--max-flips", x],
    ]
    for command in commands:
        for x in ("\u0664", "+1", "1_0", " 1", "1 ", "-"):
            with pytest.raises(SystemExit) as exc:
                main(command(x))
            assert exc.value.code == 2, command(x)
            out, err = capsys.readouterr()
            assert out == "" and "invalid" in err, command(x)
    # a well-formed negative k is read, then refused as a precondition
    assert main(["bipdist", path, "--color", "R", "-k", "-1"]) == 3
    assert "non-negative" in capsys.readouterr().err


def test_threshold_is_not_an_option(capsys):
    escape = (
        '[c for c in ().__class__.__base__.__subclasses__() '
        'if c.__name__ == "_wrap_close"][0].__init__.__globals__["getcwd"]()'
    )
    for expr in (escape, "Fraction(n * (n + 1), 4)"):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--n-end", "5", "--threshold", expr])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert '"level"' not in out and "--threshold" in err


def test_pentagon_too_small(tmp_path, capsys):
    path = write_graph(tmp_path, ColoredGraph.monochromatic(4))
    assert main(["pentagon", path]) == 3
    capsys.readouterr()
