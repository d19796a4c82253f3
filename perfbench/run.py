#!/usr/bin/env python3
"""monopack benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload {extend17,grow7,query} --seed N \
        --seconds S --trace {0,1}

Builds the workload's inputs from the seed, runs timed passes over them for
about S seconds (at least one pass), checks every output against
`reference.json`, and prints one metric per line followed, as the last line,
by a JSON object {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` one pass
runs untraced and the rest traced, and the metrics are the per-layer ones
plus the tracing overhead.  Exit code 0 when every check passed, 1 when one
failed, 2 when monopack cannot be imported from `src/` beside this directory.
"""

import os

# BLAS reads these once, when numpy loads: keep the process single-threaded
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("extend17", "grow7", "query")

SETUP_REPEATS = 5
# query makes at least two passes, so that its tail is p95 of >= 358 operations
MIN_PASSES = {"extend17": 1, "grow7": 1, "query": 2}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--smoke", action="store_true", help="small inputs, for the benchmark's own tests"
    )
    p.add_argument("--reference", help="reference outputs (default: reference.json here)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def percentile(xs: list[float], p: float) -> float:
    """Linear interpolation between order statistics (p in 0..100)."""
    s = sorted(xs)
    pos = p / 100 * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def per_op_medians(ops: list[float], passes: int) -> list[float]:
    """Median latency of each distinct operation over the passes."""
    per_pass = len(ops) // passes
    return [statistics.median(ops[i::per_pass]) for i in range(per_pass)]


def tail_percentile(operations: int) -> float:
    """Highest ladder percentile with at least ten operations beyond it; 100
    when there are fewer than twenty operations."""
    for p in TAIL_LADDER:
        if operations * (1 - p / 100) >= TAIL_MIN_BEYOND:
            return p
    return 100.0


def op_latencies(ops: list[float], passes: int, min_passes: int) -> tuple[float, float, str]:
    """Median and tail latency of one operation, in seconds, and how the tail
    was taken.

    Both are taken over every operation the run made.  The tail percentile
    is fixed by the fewest operations a run of the workload makes
    (`min_passes` passes), so it is the same percentile however many passes
    fit in `--seconds`.  With fewer than twenty such operations (the search
    workloads) no percentile qualifies, and the tail is the slowest distinct
    operation, each the median of its latencies over the passes."""
    distinct = len(ops) // passes
    tail_p = tail_percentile(distinct * min_passes)
    if tail_p == 100:
        tail = max(per_op_medians(ops, passes))
        how = f"slowest of {distinct} distinct ops, each the median of {passes} passes"
    else:
        tail = percentile(ops, tail_p)
        how = f"p{tail_p:g} of {len(ops)} ops: {distinct} distinct, {passes} passes"
    return percentile(ops, 50), tail, how


def timed_passes(run_pass, inputs, ctx, seconds, ops, at_least=1):
    """Repeat passes while the next one is expected to end within `seconds`."""
    walls, outputs = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outputs.append(run_pass(inputs, ops, ctx))
        walls.append(time.perf_counter() - t0)
        spent = time.perf_counter() - start
        if len(walls) >= at_least and spent + statistics.median(walls) > seconds:
            return walls, outputs


def git_rev() -> str:
    """HEAD of the repository around ROOT, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Digest of monopack's sources: counts are compared only under one digest."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "monopack")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def os_threads() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


def environment(np, scipy) -> dict:
    return {
        "git_rev": git_rev(),
        "monopack_sources": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "os_threads": os_threads(),
    }


def compare_counts(path: str, digest: str, counts: dict, chk) -> None:
    """Flag count drift against an earlier run of the same seed and sources."""
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
        if old.get("monopack_sources") == digest:
            drift = sorted(k for k in counts if old["counts"].get(k) != counts[k])
            chk.expect(not drift, f"counts drifted from an earlier run: {drift}")
    with open(path, "w") as fh:
        json.dump({"monopack_sources": digest, "counts": counts}, fh, indent=1)


def traced_run(tracer, run_pass, inputs, ctx, seconds, ops):
    """One untraced pass, then traced passes for the rest of `seconds`.

    Returns the untraced wall time, the traced walls, every pass's outputs,
    and per traced pass its outputs and its [first, last) span indices."""
    plain_walls, outputs = timed_passes(run_pass, inputs, ctx, 0, [])
    traced = []

    def traced_pass(inp, op_list, c):
        first = len(tracer.spans)
        with tracer.patch():
            out = run_pass(inp, op_list, c)
        traced.append((out, first, len(tracer.spans)))
        return out

    walls, traced_outputs = timed_passes(
        traced_pass, inputs, ctx, max(seconds - plain_walls[0], 0), ops
    )
    return plain_walls[0], walls, outputs + traced_outputs, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    clock = time.perf_counter
    t_import = clock()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import numpy as np
        import scipy

        import monopack as mp
        import tracing
        import workloads
    except ImportError as exc:
        print(f"error: cannot import monopack from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(mp.__file__)) != os.path.join(SRC, "monopack"):
        print(f"error: monopack was imported from {mp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    def warm_lp():
        mp.nu_star(mp.ColoredGraph.monochromatic(5), mp.RED)

    warm_lp()  # the first linprog call loads HiGHS
    one_time_s = clock() - t_import

    ref = workloads.load_reference(args.reference or workloads.REFERENCE_PATH)
    build, run_pass, check = workloads.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        inputs = build(args.seed, args.smoke, ref)
        warm_lp()
        setups.append(clock() - t0)

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}"
    ctx = {"checkpoint": os.path.join(OUT_DIR, f"checkpoint-{tag}.json")}
    ops: list[float] = []
    tracer = tracing.Tracer()
    if args.trace:
        with tracer.patch():
            build(args.seed, args.smoke, ref)
        constructions_s = sum(sp[3] - sp[2] for sp in tracer.spans if sp[0] == "construct")
        tracer.spans.clear()
        plain_wall, walls, outputs, traced = traced_run(
            tracer, run_pass, inputs, ctx, args.seconds, ops
        )
    else:
        walls, outputs = timed_passes(
            run_pass, inputs, ctx, args.seconds, ops, MIN_PASSES[args.workload]
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    chk = workloads.Check()
    for out in outputs:
        check(inputs, out, ref, chk)

    env = environment(np, scipy)
    op_p50, op_tail, tail_how = op_latencies(ops, len(walls), MIN_PASSES[args.workload])
    if args.trace:
        per_pass = [
            tracing.layer_metrics(tracer.spans[a:b], a, workloads.search_counts(out))
            for out, a, b in traced
        ]
        drift = tracing.count_drift(per_pass)
        chk.expect(not drift, f"counts differ between passes of one seed: {drift}")
        metrics = tracing.median_metrics(per_pass)
        compare_counts(
            os.path.join(OUT_DIR, f"counts-{tag}.json"),
            env["monopack_sources"],
            {k: metrics[k] for k in tracing.COUNT_METRICS},
            chk,
        )
        metrics["constructions.s"] = constructions_s
        metrics["trace.overhead_s"] = statistics.median(walls) - plain_wall
        metrics["trace.spans"] = len(tracer.spans) // len(walls)
        units = {k: _layer_unit(k) for k in metrics}
        with open(os.path.join(OUT_DIR, f"trace-{tag}.json"), "w") as fh:
            json.dump({"env": env, "spans": [sp[:4] for sp in tracer.spans]}, fh)
    else:
        metrics = {
            "setup_s": one_time_s + statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_p50_ms": op_p50 * 1000,
            "op_tail_ms": op_tail * 1000,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(zip(metrics, ("s", "s", "ms", "ms", "MB")))

    failed = len(chk.failures)
    fail_ratio = failed / chk.attempted
    with open(os.path.join(OUT_DIR, f"result-{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "pass_walls_s": walls,
                "op_latencies_s": ops,
                "op_tail": tail_how,
                "fail_ratio": fail_ratio,
                "failures": chk.failures,
                "env": env,
                "metrics": metrics,
            },
            fh,
            indent=1,
        )

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed} passes={len(walls)} ops={len(ops)}")
    for name, value in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  ({tail_how})"
        print(f"{name} = {value:.6g} {units[name]}{note}")
    print(f"fail_ratio = {fail_ratio:.6g} 1  ({failed} of {chk.attempted} checks failed)")
    for what in chk.failures[:20]:
        print(f"# FAILED: {what}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": chk.attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
