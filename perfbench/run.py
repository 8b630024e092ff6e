#!/usr/bin/env python3
"""The repo benchmark: builds the perfbench driver from this checkout, runs
one workload, and prints every metric BENCHMARK.json names.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the checkout.  With --trace 0 the metrics are the
end-to-end ones, measured untraced; with --trace 1 they are the per-layer
ones, and the tracing overhead (traced minus untraced, per end-to-end
metric) is printed before the result.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Exits
non-zero without a result when the build or the run fails.  README.md
describes the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing into the benchmark's sources

import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the driver and sdsm_worker; a no-op
    when nothing changed."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no sdsm source tree next to perfbench/ (nothing to build)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(max(1, min(4, os.cpu_count() or 1)))])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail("build failed: " + " ".join(cmd) + "\n" + tail)
    return os.path.join(BUILD_DIR, "bin", "perfbench")


def source_revision():
    """The git commit when the checkout is a repository; otherwise a digest
    of the source files the benchmark builds."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_driver(binary, args):
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    out = os.path.join(OUT_DIR, "result-%s.json" % tag)
    trace_out = os.path.join(OUT_DIR, "trace-%s.json" % tag)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--trace-out", trace_out, "--work-dir", OUT_DIR]
    try:
        code = subprocess.call(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_TIMEOUT_S)
    if code != 0:
        fail("driver exited with status %d" % code)
    with open(out) as f:
        result = json.load(f)
    trace = None
    if args.trace:
        with open(trace_out) as f:
            trace = json.load(f)
    return result, trace, trace_out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    definition_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(definition_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(definition_path) as f:
        definition = json.load(f)
    if args.workload not in [w["name"] for w in definition["workloads"]]:
        fail("unknown workload %r" % args.workload)

    binary = build()
    result, trace, trace_path = run_driver(binary, args)

    host = dict(result["host"], commit=source_revision(), seed=args.seed,
                workload=args.workload)
    print("host " + json.dumps(host, sort_keys=True))
    for line in result["failures"]:
        print("FAILED " + line)

    metrics = {}
    missing = []
    if args.trace:
        layer_self = stats.layer_self_times(stats.chrome_spans(trace))
        wanted = definition["per_layer"]
        for m in wanted:
            value = stats.layer_metric_value(m["name"], result["layer"],
                                             layer_self)
            if value is None:
                missing.append(m["name"])
            else:
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("trace: %s (open in Perfetto)" % os.path.relpath(trace_path, ROOT))
        for m in definition["end_to_end"]:
            plain = stats.metric_value(m["name"], result["e2e"])
            if m["name"] in result["e2e"]["exact"]:
                print("trace overhead %-20s none: an exact count, not a "
                      "timing" % m["name"])
                continue
            traced = stats.metric_value(m["name"], result["traced"])
            if plain is None or traced is None:
                fail("no traced/untraced pair for " + m["name"])
            print("trace overhead %-20s traced %.6g - untraced %.6g = %+.6g %s"
                  % (m["name"], traced, plain, traced - plain, m["unit"]))
    else:
        for m in definition["end_to_end"]:
            value = stats.metric_value(m["name"], result["e2e"])
            if value is None:
                missing.append(m["name"])
            else:
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if missing:
        fail("no measurement for: " + ", ".join(missing))

    # Median-reduced metrics also show their sample count and spread.
    samples_of = (result["layer"] if args.trace else result["e2e"])["samples"]
    for name, m in metrics.items():
        line = "%-32s %14.6g %-6s" % (name, m["value"], m["unit"])
        samples = samples_of.get(name)
        if samples and len(samples) >= 2:
            line += "  n=%d IQR/median=%.3f" % (len(samples),
                                                stats.spread(samples))
        print(line)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
