#!/usr/bin/env python3
"""Real-mode benchmark of the diffuse runtime.

Builds the library and the benchmark binary from source (CMake, into
.bench_build/perfbench at the repository root), then runs each workload
in its own process:

    python3 perfbench/run.py --workload <apps_dram|solvers_small|serving_mix|all>
                             --seed <n> --seconds <s> --trace <0|1>

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced
process (per-layer metrics, Chrome trace-event JSON under
.bench_build/perfbench/traces) plus two short same-seed count runs
whose counts must repeat exactly. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The
exit code is non-zero when any output check failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["apps_dram", "solvers_small", "serving_mix"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# One workload process must end well within the 180 s a run may take.
PROCESS_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "diffuse.h")):
        die("library sources not found under src/ next to perfbench/")
    if shutil.which("cmake") is None:
        die("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env).returncode != 0:
            die("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr, env=env).returncode != 0:
        die("build failed")


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs from need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def run_process(workload, seed, seconds, mode):
    """Run one workload process; relay its report and return
    (exit code, result dict or None, counts dict or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--mode", mode]
    if mode == "traced":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{seed}.json")]
    # Library options stay at their defaults: no ambient DIFFUSE_* knob
    # reaches the workload.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIFFUSE_")}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} {mode} timed out", file=sys.stderr)
        return 1, None, None
    sys.stderr.write(proc.stderr)
    result = counts = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line.split(" ", 1)[1])
        elif line.startswith("PERFBENCH_COUNTS "):
            counts = json.loads(line.split(" ", 1)[1])
        else:
            print(f"[{workload}] {line}")
    sys.stdout.flush()
    return proc.returncode, result, counts


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(workload, seed, seconds, trace):
    code, result, _ = run_process(workload, seed, seconds,
                                  "traced" if trace else "run")
    if result is None:
        return None
    if trace:
        # The same-seed repeat check: per-operation counts of two
        # fresh processes must be equal.
        _, _, first = run_process(workload, seed, seconds, "counts")
        _, _, second = run_process(workload, seed, seconds, "counts")
        match = first is not None and first == second
        print(f"[{workload}] repeat counts run 1: {json.dumps(first)}")
        print(f"[{workload}] repeat counts run 2: {json.dumps(second)}")
        print(f"[{workload}] repeat counts match: {match}")
        result["metrics"]["repeat.counts_match"] = {
            "value": 1.0 if match else 0.0, "unit": "count"}
    if code != 0:
        result["correct"] = False
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    build()
    print(f"source digest {source_digest()}  git sha {git_sha()}")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        r = run_workload(w, args.seed, args.seconds, args.trace == 1)
        if r is None:
            die(f"{w} produced no result")
        results[w] = r

    expected = declared_metrics(args.trace == 1)
    if expected is not None:
        for w, r in results.items():
            missing = [m for m in expected if m not in r["metrics"]]
            if missing:
                die(f"{w} did not report {', '.join(missing)}")
            r["metrics"] = {m: r["metrics"][m] for m in expected}

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps({"correct": final["correct"],
                      "attempted": final["attempted"],
                      "failed": final["failed"],
                      "metrics": final["metrics"]}))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
