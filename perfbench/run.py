#!/usr/bin/env python3
"""Builds and runs the store benchmark for one workload, checks its
answers, and prints the metrics named in BENCHMARK.json.

    python3 perfbench/run.py --workload point_large --seed 1 --seconds 10 --trace 0

Run from the repository root.  The build goes to $CARGO_TARGET_DIR (default
.bench_build); stores and trace files are written under the same directory
and the stores are removed again.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones (and writes the
replay's spans as a Chrome trace-event file).
"""

import argparse
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the source tree
import analysis  # noqa: E402

WORKLOADS = ("point_large", "write_durable", "range_mixed")
BINARY_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures and builds the perfbench binary; exits on failure."""
    cmake_dir = os.path.join(build_dir, "perfbench-cmake")
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(cmake_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", str(min(4, os.cpu_count() or 1)),
                  "--target", "perfbench"])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=root) != 0:
                # A failed configure must not leave a cache behind.
                shutil.rmtree(cmake_dir, ignore_errors=True)
                with open(log_path) as f:
                    log(f.read()[-4000:])
                log("perfbench: build failed (%s)" % " ".join(cmd))
                sys.exit(1)
    return os.path.join(cmake_dir, "perfbench")


def self_test():
    """Runs the arithmetic unit tests; returns True when they pass."""
    suite = unittest.defaultTestLoader.loadTestsFromName("test_analysis")
    stream = io.StringIO()
    result = unittest.TextTestRunner(stream=stream, verbosity=0).run(suite)
    if not result.wasSuccessful():
        log(stream.getvalue())
    return result.wasSuccessful()


def source_digest(root):
    """sha256 over the library and benchmark sources (the checkout need
    not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        return subprocess.check_output(["git", "rev-parse", "HEAD"], cwd=root,
                                       stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def units(root, section):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[section]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "BENCHMARK.json")):
        log("perfbench: run from the repository root (BENCHMARK.json not found)")
        return 1
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root, build_dir)
    arithmetic_ok = self_test()

    store_dir = os.path.join(build_dir, "stores", "%s-%d" % (args.workload, os.getpid()))
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_prefix = os.path.join(trace_dir, "%s-seed%d" % (args.workload, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", store_dir, "--trace-out", trace_prefix]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S, cwd=root)
    except subprocess.TimeoutExpired:
        log("perfbench: workload did not finish in %d s" % BINARY_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    if proc.returncode != 0:
        log("perfbench: workload exited with %d" % proc.returncode)
        return 1
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    raw, meta = out["report"], out["meta"]

    meta.update({
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "command": ["python3", os.path.relpath(os.path.abspath(__file__), root)]
                   + sys.argv[1:],
    })
    print("META " + json.dumps(meta, sort_keys=True))

    attempted, failed = raw["attempted"], raw["failed"]
    frac = analysis.failed_ops_frac(attempted, failed)
    for sample in raw["failure_samples"]:
        log("FAILED: " + sample)
    print("%-34s %14.6g %-8s" % ("failed_ops_frac", frac, "ratio")
          + "  (%d of %d ops)" % (failed, attempted))

    section = "end_to_end" if args.trace == 0 else "per_layer"
    reconciled = True  # traced runs: layer spans cover bench.op
    unit_of = units(root, section)
    try:
        if args.trace == 0:
            metrics, ungated, notes = analysis.end_to_end(raw)
        else:
            spans = analysis.load_spans(trace_prefix + ".replay.json")
            metrics, tables = analysis.per_layer(raw, spans)
    except ValueError as e:  # too few samples for a metric
        log("perfbench: %s" % e)
        return 1
    if args.trace == 0:
        shown = dict(metrics, **ungated)
        for name in sorted(shown):
            print("%-34s %14.6g %-8s %s" % (name, shown[name],
                                           unit_of.get(name, "us"),
                                           notes.get(name, "")))
    else:
        print("%-34s %14s %-8s %-36s %-28s %s" % (
            "per-layer metric", "value", "unit", "should move", "works on",
            "little work on"))
        for name in sorted(metrics):
            moves, on, idle = analysis.LAYER_MAP[name]
            print("%-34s %14.6g %-8s %-36s %-28s %s" % (
                name, metrics[name], unit_of.get(name, "?"),
                moves, on, idle))
        for op, table in tables.items():
            print("self times of one %s op (median ns, share of op time):" % op)
            for name, (ns, share) in sorted(table.items(), key=lambda kv: -kv[1][1]):
                print("  %-22s %12.1f ns %6.1f%%" % (name, ns, 100 * share))
        tol = 100 * (1 - analysis.RECONCILE_TOLERANCE)
        for key in ("trace.get_attributed_pct", "trace.put_attributed_pct"):
            reconciled = reconciled and metrics[key] >= tol
            verdict = "ok" if metrics[key] >= tol else "OUTSIDE TOLERANCE"
            print("reconcile %s: layers cover %.2f%% of bench.op (tolerance: >= %.0f%%) %s"
                  % (key, metrics[key], tol, verdict))
        print("trace files: %s.replay.json, %s.load.json (%d spans, %d dropped)" % (
            trace_prefix, trace_prefix, raw["num"].get("trace.spans.replay.json", 0),
            raw["num"].get("trace.dropped.replay.json", 0)))

    expected = set(unit_of)
    missing = sorted(expected - set(metrics))
    if missing:
        log("perfbench: metrics not produced: %s" % ", ".join(missing))
    values_ok = all(isinstance(v, (int, float)) and v == v for v in metrics.values())
    correct = (failed == 0 and arithmetic_ok and not missing and values_ok
               and reconciled)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_of[name]}
                    for name in sorted(expected) if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
