#!/usr/bin/env python3
"""Perf gate: a perfbench A/B run of a base tree against a head tree.

    python3 .github/perf_gate.py BASE_DIR HEAD_DIR

Both directories are full checkouts (CI uses the merge-base as BASE_DIR
and the change under test as HEAD_DIR). For each gated workload it runs
`perfbench/run.py` inside each tree, in pairs that alternate which side
goes first, and prints every run. Each tree builds into its own
`.bench_build`. The gate fails if any run is incorrect or reports a
failed operation, or if HEAD's median `throughput_rps` falls below
(1 - bound) times the base's median, where `bound` is the metric's bound
in the base tree's BENCHMARK.json (so a change cannot loosen its own
gate). Workloads, seed and length are fixed here on purpose: the gate
takes no options.
"""

import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("serve_cold", "serve_warm", "serve_restart")
PAIRS = 3
SEED = 1
SECONDS = 2
METRIC = "throughput_rps"


def bound(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        doc = json.load(f)
    return next(m["bound"] for m in doc["end_to_end"] if m["name"] == METRIC)


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
    limit = bound(trees["base"])
    ok = True
    for workload in WORKLOADS:
        rps = {"base": [], "head": []}
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                result = run(trees[side], workload)
                if result is None:
                    print(f"{workload} pair {pair + 1} {side}: perfbench failed", flush=True)
                    ok = False
                    continue
                value = result["metrics"][METRIC]["value"]
                rps[side].append(value)
                print(f"{workload} pair {pair + 1} {side}: {METRIC} {value:.1f}"
                      f" correct {result['correct']} attempted {result['attempted']}"
                      f" failed {result['failed']}", flush=True)
                if not result["correct"] or result["failed"] > 0:
                    ok = False
        if not (rps["base"] and rps["head"]):
            continue
        base, head = statistics.median(rps["base"]), statistics.median(rps["head"])
        floor = (1 - limit) * base
        verdict = "ok" if head >= floor else "REGRESSION"
        print(f"{workload}: median base {base:.1f}, head {head:.1f}, "
              f"floor {floor:.1f} (bound {limit}) -> {verdict}", flush=True)
        ok = ok and head >= floor
    print("perf gate: " + ("pass" if ok else "FAIL"), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
