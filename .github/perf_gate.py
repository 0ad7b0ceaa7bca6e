#!/usr/bin/env python3
"""Perf gate: a perfbench A/B run of a base tree against a head tree.

    python3 .github/perf_gate.py BASE_DIR HEAD_DIR

Both directories are full checkouts (CI uses the merge-base as BASE_DIR
and the change under test as HEAD_DIR). For each gated workload it runs
`perfbench/run.py` inside each tree, in pairs that alternate which side
goes first, and prints every run. Each tree builds into its own
`.bench_build`. The gate fails if any run is incorrect or reports a
failed operation, or if, on any workload, HEAD's median of a gated
metric is worse than the base's median by more than the metric's bound:
below (1 - bound) times it where higher is better, above (1 + bound)
times it where lower is better. `better` and `bound` come from the base
tree's BENCHMARK.json (so a change cannot loosen its own gate). The
gated metrics are throughput, p50 latency and peak RSS; `setup_s` is
left out because it is bimodal from run to run, and `wall_s` because it
is derived from throughput. Workloads, seed and length are fixed here on
purpose: the gate takes no options.
"""

import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("repro_cold", "serve_cold", "serve_warm", "serve_restart")
PAIRS = 3
SEED = 1
SECONDS = 2
METRICS = ("throughput_rps", "latency_p50_ms", "peak_rss_mb")


def bounds(tree):
    """Each gated metric's (better, bound) in `tree`'s BENCHMARK.json."""
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        doc = json.load(f)
    rows = {m["name"]: (m["better"], m["bound"]) for m in doc["end_to_end"]}
    return {name: rows[name] for name in METRICS}


def run(tree, workload):
    """One perfbench run inside `tree`; its result document, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main():
    if len(sys.argv) != 3:
        raise SystemExit("usage: perf_gate.py BASE_DIR HEAD_DIR")
    trees = {"base": os.path.abspath(sys.argv[1]), "head": os.path.abspath(sys.argv[2])}
    limits = bounds(trees["base"])
    ok = True
    for workload in WORKLOADS:
        values = {side: {name: [] for name in METRICS} for side in trees}
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                result = run(trees[side], workload)
                if result is None:
                    print(f"{workload} pair {pair + 1} {side}: perfbench failed", flush=True)
                    ok = False
                    continue
                shown = []
                for name in METRICS:
                    value = result["metrics"][name]["value"]
                    values[side][name].append(value)
                    shown.append(f"{name} {value:.6g}")
                print(f"{workload} pair {pair + 1} {side}: {', '.join(shown)}"
                      f" correct {result['correct']} attempted {result['attempted']}"
                      f" failed {result['failed']}", flush=True)
                if not result["correct"] or result["failed"] > 0:
                    ok = False
        for name in METRICS:
            if not (values["base"][name] and values["head"][name]):
                continue
            base = statistics.median(values["base"][name])
            head = statistics.median(values["head"][name])
            better, limit = limits[name]
            if better == "higher":
                word, edge = "floor", (1 - limit) * base
                passed = head >= edge
            else:
                word, edge = "ceiling", (1 + limit) * base
                passed = head <= edge
            verdict = "ok" if passed else "REGRESSION"
            print(f"{workload} {name}: median base {base:.6g}, head {head:.6g}, "
                  f"{word} {edge:.6g} (bound {limit}) -> {verdict}", flush=True)
            ok = ok and passed
    print("perf gate: " + ("pass" if ok else "FAIL"), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
