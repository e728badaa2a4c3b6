#!/usr/bin/env python3
"""Builds and runs the repository benchmark; see espbench/README.md.

    python3 espbench/run.py --workload saturate_dag --seed 1 --seconds 30 --trace 0

Run from the repository root.  The first run configures and builds
espbench/ (the engine libraries from src/ plus the measuring program) into
$CARGO_TARGET_DIR/espbench, default .bench_build/espbench; later runs only
rebuild what changed.  The program's output is passed through, and the last
line printed is one JSON object with the keys correct, attempted, failed and
metrics, where metrics holds exactly the end-to-end metrics of BENCHMARK.json
(--trace 0) or its per-layer metrics (--trace 1).

Exit codes: 0 all checks passed, 1 a correctness check failed (the result
line says correct: false), 2 the benchmark could not run (no result line).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"espbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "espbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found: run from a checkout with src/ beside espbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target", "espbench"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out_dir, "espbench")


def source_digest():
    """SHA-256 over src/ and espbench/ sources: identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "espbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = build_dir()
    binary = build(out_dir)
    report_dir = os.path.join(out_dir, "reports")
    os.makedirs(report_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", report_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail(f"espbench exited with code {done.returncode} and no result")
    result = json.loads(lines[-1])

    metrics = {}
    not_exercised = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None and args.trace:
            # A per-layer metric of a layer this workload does not run.
            got = {"value": 0, "unit": m["unit"]}
            not_exercised.append(m["name"])
        if got is None:
            fail(f"espbench did not report end-to-end metric {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']}: unit {got['unit']!r}, BENCHMARK.json says {m['unit']!r}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    for line in lines[:-1]:
        print(line)
    print("meta " + json.dumps({"git_commit": git_commit(), "source_digest": source_digest(),
                                "not_exercised": not_exercised,
                                "extra_metrics": sorted(set(result["metrics"]) - set(metrics))}))
    for m in wanted:
        arrow = "higher" if m["better"] == "higher" else "lower"
        value = metrics[m["name"]]["value"]
        print(f"result {m['name']:<38} {value:>16.6g} {m['unit']:<6} ({arrow} is better)")
    print(json.dumps({"correct": bool(result["correct"]) and done.returncode == 0,
                      "attempted": int(result["attempted"]), "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
