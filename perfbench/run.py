#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and compiles
perfbench/ (and the simulator modules it uses) into the build directory:
$CARGO_TARGET_DIR if set, else .bench_build. Build output goes to stderr,
so the last line on stdout is the benchmark's JSON result.

A run is a fixed number of episodes, each in a fresh xoar_perfbench
process (so each draws its own address-space layout). The count depends
only on --seconds. Host-time metrics are medians over the episodes;
metric names and units come from BENCHMARK.json. A traced run alternates
untraced and traced episodes and writes the spans of its first traced
episode to <build dir>/traces/<workload>-seed<N>.json.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(BENCH_DIR, "..", "BENCHMARK.json")
BINARY = "xoar_perfbench"

# Host seconds one episode takes, process start included, on the 4-vCPU
# Xeon VM the benchmark was written on. A run makes --seconds / this many
# episodes, so both sides of a comparison take their medians over the
# same number of episodes however fast the code under test is.
EPISODE_SECONDS = {
    "density_churn": 1.45,
    "guest_io": 0.16,
    "restart_io": 1.3,
}
MIN_EPISODES = 4
EPISODE_TIMEOUT_S = 60


def build(build_dir):
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", BINARY, "--parallel",
         str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def quantile(values, q):
    """Nearest-rank quantile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def best_calls(episodes):
    """The fastest repetition of each call index across the episodes."""
    return [min(us) for us in zip(*(r["call_us"] for r in episodes))]


def throughput(episodes):
    """Ops per episode / the summed fastest repetitions of its calls."""
    total_us = sum(best_calls(episodes))
    return episodes[0]["ops"] * 1e6 / total_us if total_us > 0 else 0.0


def run_episode(binary, args, traced, trace_out):
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--trace", "1" if traced else "0"]
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=EPISODE_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError("%s exited with %d" % (binary, done.returncode))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(EPISODE_SECONDS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    traced_run = args.trace == "1"

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.exists(BENCHMARK_JSON) or not build(build_dir):
        print("perfbench: no BENCHMARK.json or build failed", file=sys.stderr)
        return 1
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    reported = spec["per_layer"] if traced_run else spec["end_to_end"]

    binary = os.path.join(build_dir, BINARY)
    trace_out = None
    if traced_run:
        os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
        trace_out = os.path.join(build_dir, "traces", "%s-seed%d.json" %
                                 (args.workload, args.seed))
    count = max(MIN_EPISODES,
                round(args.seconds / EPISODE_SECONDS[args.workload]))
    errors = []
    untraced, traced = [], []
    for i in range(count):
        is_traced = traced_run and i % 2 == 1
        r = run_episode(binary, args, is_traced,
                        trace_out if i == 1 else None)
        (traced if is_traced else untraced).append(r)
        print("episode %d%s: setup %.4f s, %.6g ops/s" %
              (i, " (traced)" if is_traced else "", r["wall"]["setup_s"],
               throughput([r])))
        if not r["correct"]:
            errors.append("episode %d: %s" % (i, r["error"]))
    episodes = untraced + traced
    first = episodes[0]
    if any(r["digest"] != first["digest"] or r["sim"] != first["sim"]
           for r in episodes):
        errors.append("simulated outputs differ between episodes of one seed")
    unknown = {name for r in episodes for name in list(r["sim"]) +
               list(r["wall"]) if name not in units}
    if unknown:
        errors.append("metrics missing from BENCHMARK.json: %s" %
                      ", ".join(sorted(unknown)))

    metrics = {}
    clocks = {}
    for m in reported:
        name = m["name"]
        if name in first["sim"]:
            metrics[name], clocks[name] = first["sim"][name], "sim"
            continue
        clocks[name] = "wall"
        if name == "trace.overhead":
            metrics[name] = throughput(traced) / throughput(untraced)
        elif name == "ops_per_s":
            metrics[name] = throughput(untraced)
        elif name in ("call_p50_us", "call_p99_us"):
            metrics[name] = quantile(best_calls(untraced),
                                     0.5 if name == "call_p50_us" else 0.99)
        elif all(name in r["wall"] for r in (traced or untraced)):
            metrics[name] = statistics.median(
                r["wall"][name] for r in (traced or untraced))
        elif traced_run:
            # A layer this workload does not exercise.
            metrics[name], clocks[name] = 0.0, "not exercised"
        else:
            errors.append("workload reports no %s" % name)
            metrics[name] = 0.0

    attempted = sum(r["attempted"] for r in episodes)
    failed = sum(r["failed"] for r in episodes)
    print("workload %s seed %d: %d untraced + %d traced episodes" %
          (args.workload, args.seed, len(untraced), len(traced)))
    print("ops attempted %d failed %d" % (attempted, failed))
    print("sim digest %s" % first["digest"])
    for m in reported:
        print("metric %-30s %.6g %s (%s)" % (m["name"], metrics[m["name"]],
                                             m["unit"], clocks[m["name"]]))
    if trace_out:
        print("trace: spans of episode 1 -> %s" % trace_out)
    for error in errors:
        print("INCORRECT: %s" % error, file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
