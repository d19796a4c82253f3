"""Self-tests of the benchmark on its smoke configuration.

    python3 -m pytest -q perfbench

They check that a correct run reports exactly the metrics BENCHMARK.json
names, that a wrong reference value or a perturbed result makes the run fail,
that count metrics repeat exactly for one seed, and that the benchmark fails
cleanly when monopack's sources are missing.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, run.SRC)
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")


def spec():
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def bench(capsys, workload, *extra, seed=1, trace=0):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.01"]
    argv += ["--trace", str(trace), "--smoke", *extra]
    code = run.main(argv)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_reports_end_to_end_metrics(capsys, workload):
    code, res = bench(capsys, workload)
    assert code == 0
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert list(res["metrics"]) == [m["name"] for m in spec()["end_to_end"]]
    for m in spec()["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_reports_layer_metrics(capsys, workload):
    code, res = bench(capsys, workload, trace=1)
    assert code == 0 and res["correct"]
    assert list(res["metrics"]) == [m["name"] for m in spec()["per_layer"]]
    for m in spec()["per_layer"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    assert res["metrics"]["simplex.exact.calls"]["value"] == 0
    assert res["metrics"]["lp.nu_star.calls"]["value"] > 0


def _wrong_reference(ref, workload):
    ref = copy.deepcopy(ref)
    if workload == "extend17":
        ref["extend17"]["smoke"]["completed"] += 1
    elif workload == "grow7":
        ref["grow7"]["levels"]["5"].pop()
    else:
        entry = next(e for e in ref["query"]["corpus"] if e["smoke"] and e["kind"] == "random")
        entry["key"] = entry["key"][::-1]
    return ref


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_wrong_reference_fails_the_run(capsys, tmp_path, workload):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(_wrong_reference(workloads.load_reference(), workload)))
    code, res = bench(capsys, workload, "--reference", str(path))
    assert code == 1
    assert not res["correct"] and res["failed"] > 0


def _perturb(workload, outputs):
    if workload == "query":
        value, *rest = outputs[0]
        outputs[0] = (value + 1, *rest)
    else:
        levels, report = outputs[-1]
        n = max(levels)
        if workload == "extend17":
            report.at(n).completed -= 1
        else:
            levels[n] = levels[n][1:]
    return outputs


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_perturbed_result_fails_the_run(capsys, monkeypatch, workload):
    build, run_pass, check = workloads.WORKLOADS[workload]

    def perturbed(inputs, ops, ctx):
        return _perturb(workload, run_pass(inputs, ops, ctx))

    monkeypatch.setitem(workloads.WORKLOADS, workload, (build, perturbed, check))
    code, res = bench(capsys, workload)
    assert code == 1
    assert res["failed"] > 0


def test_counts_repeat_and_drift_is_flagged(capsys):
    seed = 9
    counts_path = os.path.join(run.OUT_DIR, f"counts-grow7-smoke-seed{seed}.json")
    if os.path.exists(counts_path):
        os.remove(counts_path)
    _, first = bench(capsys, "grow7", seed=seed, trace=1)
    _, second = bench(capsys, "grow7", seed=seed, trace=1)
    assert first["correct"] and second["correct"]
    for name in tracing.COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name

    with open(counts_path) as fh:
        saved = json.load(fh)
    saved["counts"]["lp.nu_star.calls"] += 1
    with open(counts_path, "w") as fh:
        json.dump(saved, fh)
    code, third = bench(capsys, "grow7", seed=seed, trace=1)
    assert code == 1 and third["failed"] == 1


def test_fails_without_monopack_sources(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    argv = [sys.executable, "perfbench/run.py", "--workload", "query", "--seed", "1"]
    argv += ["--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
