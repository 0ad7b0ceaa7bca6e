#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. It builds the release `impact` and
`repro` binaries and the benchmark's own `perfbench` tool (into
$CARGO_TARGET_DIR, default `.bench_build`), runs workload W with inputs
made from the seed, checks every output, and prints one JSON result as
the last line of standard output. With `--trace 0` the result holds the
end-to-end metrics; with `--trace 1` the per-layer metrics of the traced
in-process run. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("repro_cold", "serve_cold", "serve_warm", "serve_restart")
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")
DEFAULT_SEED = 1
REPRO_TABLES = [f"table{n}" for n in range(1, 10)]
# Warm-up runs of repro before the measured one; setup_s is their median.
REPRO_SETUPS = 5
# Workloads whose load generator and server share one CPU. A one-connection
# ping-pong of 20-microsecond requests is otherwise paced by cross-CPU
# wake-ups, which a shared host stretches by up to 2x from run to run.
ONE_CPU = ("serve_warm",)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(target):
    """Builds the program's binaries and the perfbench tool from source."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "impact", "--bin", "impact",
         "-p", "impact-experiments", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "tool", "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")


def steal_ticks():
    """Clock ticks the hypervisor gave to other guests, over all CPUs."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return -1


def cpu_loop_ms():
    """A fixed CPU loop in the benchmark's own code: best of three, ms."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for _ in range(300_000):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        ms = (time.perf_counter() - t0) * 1e3
        best = ms if best is None else min(best, ms)
    return best


def metric(value, unit):
    return {"value": value, "unit": unit}


def split_tables(text):
    """repro output split into tables, each starting at a `Table ` line."""
    chunks, cur = [], None
    for line in text.splitlines(keepends=True):
        if line.startswith("Table "):
            cur = []
            chunks.append(cur)
        if cur is not None:
            cur.append(line)
    return ["".join(c) for c in chunks]


def run_timed(cmd, stdout):
    """Runs cmd to completion; returns (seconds, exit status, peak RSS KiB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss


def repro_cold(repro, work):
    """`repro table1 .. table9 --jobs 1` in a fresh process, no store."""
    setups = []
    for _ in range(REPRO_SETUPS):
        seconds, code, _ = run_timed(
            [repro, "table6", "--fast", "--jobs", "1"], subprocess.DEVNULL)
        if code != 0:
            raise SystemExit(f"perfbench: warm-up repro exited {code}")
        setups.append(seconds)

    json_dir = os.path.join(work, "json")
    out_path = os.path.join(work, "repro.out")
    with open(out_path, "wb") as out:
        wall, code, rss_kib = run_timed(
            [repro, *REPRO_TABLES, "--jobs", "1", "--json", json_dir], out)
    with open(out_path, encoding="utf-8") as f:
        text = f.read()

    with open(os.path.join(REFERENCE, "repro_tables.txt"), encoding="utf-8") as f:
        want_tables = split_tables(f.read())
    with open(os.path.join(REFERENCE, "repro_cold.json")) as f:
        want = json.load(f)
    problems = []
    if code != 0:
        problems.append(f"repro exited {code}")
    got_tables = split_tables(text)
    for i, want_table in enumerate(want_tables):
        if i >= len(got_tables) or got_tables[i] != want_table:
            problems.append(f"{REPRO_TABLES[i]} differs from the reference")
    miss = traffic = float("nan")
    try:
        with open(os.path.join(json_dir, "table6.json")) as f:
            rows = json.load(f)
        # Table 6 column 2 is the 2 KB direct-mapped cache.
        miss = sum(r["cells"][2][0] for r in rows) / len(rows) * 100
        traffic = sum(r["cells"][2][1] for r in rows) / len(rows) * 100
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as e:
        problems.append(f"table6.json unreadable: {e}")
    if (miss, traffic) != (want["miss_pct_2k"], want["traffic_pct_2k"]):
        problems.append(f"2 KB miss/traffic {miss}/{traffic} differ from the reference")
    for p in problems:
        log("repro_cold:", p)

    # One researcher request: the whole invocation.
    return {
        "correct": not problems,
        "attempted": 1,
        "failed": 1 if problems else 0,
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(wall, "s"),
            "throughput_rps": metric(1 / wall, "req/s"),
            "latency_p50_ms": metric(wall * 1e3, "ms"),
            "peak_rss_mb": metric(rss_kib / 1024, "MiB"),
            "miss_pct_2k": metric(miss if miss == miss else 0.0, "%"),
            "traffic_pct_2k": metric(traffic if traffic == traffic else 0.0, "%"),
        },
    }


def tool(bin_dir, command, args, work):
    """Runs the perfbench tool; returns its parsed last stdout line."""
    cmd = [os.path.join(bin_dir, "perfbench"), command,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--impact", os.path.join(bin_dir, "impact"), "--work", work]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {command} {args.workload} failed ({proc.returncode})")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        raise SystemExit("perfbench: --seed must be >= 0 and --seconds >= 1")
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        raise SystemExit("perfbench: run from the root of a full checkout "
                         "(Cargo.toml and crates/ are missing)")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    bin_dir = os.path.join(target, "release")
    work = os.path.abspath(os.path.join(".bench_work", args.workload))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    # Write back what the build and the last run left dirty, so the
    # disk is idle when timing starts.
    os.sync()
    if args.workload in ONE_CPU:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    steal0, loop_ms = steal_ticks(), cpu_loop_ms()
    if args.trace:
        result = tool(bin_dir, "trace", args, work)
    elif args.workload == "repro_cold":
        result = repro_cold(os.path.join(bin_dir, "repro"), work)
    else:
        result = tool(bin_dir, "serve", args, work)
    os.sync()
    canary = {
        "cpu_loop_ms": loop_ms,
        "cpu_loop_ms_after": cpu_loop_ms(),
        "steal_ticks": steal_ticks() - steal0,
        "ticks_per_s": os.sysconf("SC_CLK_TCK"),
    }
    print("canary " + json.dumps(canary), flush=True)
    log("canary", json.dumps(canary))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
