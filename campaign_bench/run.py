#!/usr/bin/env python3
"""Builds and runs the campaign benchmark.

    python3 campaign_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds campaign_bench/ (which
pulls in the engine through the repository's CMakeLists.txt) under
$CARGO_TARGET_DIR (default .bench_build), then runs the benchmark binary.
Build output goes to stderr; the benchmark's stdout ends with one JSON line,
which is then checked against the metrics BENCHMARK.json names (exit 1 if it
lacks one, has another, or a value is not a finite number in its unit).
"""
import argparse
import json
import math
import os
import subprocess
import sys

WORKLOADS = ("vision_campaign", "tabular_kmnc", "fresh_daemon")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        sys.exit("campaign_bench: engine sources (CMakeLists.txt, src/) not found in " + root)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(root, target, "campaign_bench")
    build = os.path.join(out, "build")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=False)
    built = subprocess.run(["cmake", "--build", build, "--target", "campaign_bench", "-j", jobs],
                           stdout=sys.stderr, check=False)
    binary = os.path.join(build, "campaign_bench")
    if built.returncode != 0 or not os.path.isfile(binary):
        sys.exit("campaign_bench: build failed")

    sys.stdout.flush()
    result = subprocess.run([binary, "--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", str(args.trace),
                             "--work-dir", os.path.join(out, "work")],
                            stdout=subprocess.PIPE, text=True, check=False)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode != 0:
        sys.exit(result.returncode)
    lines = result.stdout.strip().splitlines()
    problem = check_result(root, args.trace, lines[-1] if lines else "")
    if problem:
        sys.exit("campaign_bench: result line does not match BENCHMARK.json: " + problem)


def check_result(root, trace, line):
    """Holds the result line against the manifest: every metric of the run's
    kind (end_to_end, or per_layer when traced), no other, each in its unit
    and finite. Returns what is wrong, or "" when nothing is."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    expected = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(line)
        metrics = result["metrics"]
    except (ValueError, KeyError, TypeError):
        return "the last line is not a result object"
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing or extra:
        return "missing %s, unexpected %s" % (missing, extra)
    for name, unit in expected.items():
        value = metrics[name].get("value")
        if metrics[name].get("unit") != unit:
            return "%s is in %r, not %r" % (name, metrics[name].get("unit"), unit)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return "%s is %r" % (name, value)
    return ""


if __name__ == "__main__":
    main()
