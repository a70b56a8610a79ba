#!/usr/bin/env python3
"""Build and run the Sedna wall-clock benchmark.

    python3 perfbench/run.py --workload fig8_rw|store_mt|skew_churn|all \
        --seed N [--seconds S] [--trace 0|1]

Builds perfbench/ (CMake, Ninja when available, RelWithDebInfo) into
.bench_build/ at the repository root, runs the workload, prints every
metric as `name value unit`, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. A traced run also writes its span file to
.bench_build/spans/<workload>.csv; the per-layer times and self times are
computed here from that file. See perfbench/README.md.
"""

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["fig8_rw", "store_mt", "skew_churn"]
RUN_TIMEOUT_S = 170

# Per-layer metrics computed from the span file: name -> (span name, unit,
# how). "per_call" = total span time / calls, "median_s" = median span
# duration in seconds.
SPAN_METRICS = {
    "sim.ns_per_event": ("sim.run", "ns", "per_call"),
    "sim.self_ns_per_event": ("sim.run", "ns", "self_per_call"),
    "cluster.boot_s": ("cluster.boot", "s", "median_s"),
    "cluster.restart_s": ("cluster.restart", "s", "median_s"),
    "cluster.codec_ns.write_req": ("codec.write_req", "ns", "per_call"),
    "cluster.codec_ns.write_reply": ("codec.write_reply", "ns", "per_call"),
    "cluster.codec_ns.read_req": ("codec.read_req", "ns", "per_call"),
    "cluster.codec_ns.read_reply": ("codec.read_reply", "ns", "per_call"),
    "store.read_latest_ns": ("store.read_latest", "ns", "per_call"),
    "store.write_latest_ns": ("store.write_latest", "ns", "per_call"),
    "ring.lookup_ns": ("ring.replicas_for_key", "ns", "per_call"),
}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "cluster",
                                       "sedna_cluster.h")):
        fail("repository sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            fail("build failed: " + " ".join(cmd), 1)


def expected_metrics():
    """(end_to_end, per_layer) lists of (name, unit) from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def span_table(path):
    """Per span name: spans, calls, total ns, self ns.

    Self time of a span is its duration minus the part of it covered by
    its children (the union of their intervals)."""
    spans = {}
    children = defaultdict(list)
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            sid, parent = int(row["id"]), int(row["parent"])
            start, end = int(row["start_ns"]), int(row["end_ns"])
            spans[sid] = (row["name"], start, end, int(row["count"]))
            if parent:
                children[parent].append((start, end))
    table = defaultdict(lambda: {"spans": 0, "calls": 0, "total": 0,
                                 "self": 0, "durations": []})
    for sid, (name, start, end, count) in spans.items():
        covered, reach = 0, start
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        t = table[name]
        t["spans"] += 1
        t["calls"] += count
        t["total"] += end - start
        t["self"] += end - start - covered
        t["durations"].append(end - start)
    return table


def span_metrics(table):
    out = {}
    for metric, (span, unit, how) in SPAN_METRICS.items():
        t = table.get(span)
        if t is None or t["calls"] == 0:
            continue
        if how == "per_call":
            out[metric] = (t["total"] / t["calls"], unit)
        elif how == "self_per_call":
            out[metric] = (t["self"] / t["calls"], unit)
        else:
            out[metric] = (statistics.median(t["durations"]) * 1e-9, unit)
    return out


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns (metrics, correct, attempted, failed)."""
    tmp = os.path.join(BUILD_ROOT, "tmp-%s-%d" % (workload, os.getpid()))
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    spans_dir = os.path.join(BUILD_ROOT, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, workload + ".csv")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--spans", spans_path, "--tmp", tmp]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(workload + ": timed out", 1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("%s exited with code %d" % (workload, proc.returncode),
             proc.returncode)

    metrics, result = {}, None
    for line in proc.stdout.splitlines():
        parts = line.split()
        if parts and parts[0] == "result":
            result = dict(p.split("=", 1) for p in parts[1:])
            continue
        print(line)
        if len(parts) == 3 and not line.startswith("#"):
            metrics[parts[0]] = (float(parts[1]), parts[2])
    if result is None:
        fail(workload + ": no result line", 1)

    if trace:
        table = span_table(spans_path)
        print("# span file: " + os.path.relpath(spans_path, ROOT))
        print("# span name: spans calls total_ms self_ms")
        for name in sorted(table):
            t = table[name]
            print("#   %s: %d %d %.3f %.3f" % (
                name, t["spans"], t["calls"], t["total"] * 1e-6,
                t["self"] * 1e-6))
        for name, (value, unit) in sorted(span_metrics(table).items()):
            metrics[name] = (value, unit)
            print("%s %.10g %s" % (name, value, unit))
    return (metrics, result["correct"] == "1", int(result["attempted"]),
            int(result["failed"]))


def select(metrics, expected):
    """The metrics BENCHMARK.json lists for this mode. A per-layer metric a
    workload does not load is reported as 0 (see README.md)."""
    chosen, missing = {}, []
    for name, unit in expected:
        if name in metrics:
            chosen[name] = {"value": metrics[name][0], "unit": unit}
        else:
            chosen[name] = {"value": 0, "unit": unit}
            missing.append(name)
    return chosen, missing


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    end_to_end, per_layer = expected_metrics()
    expected = per_layer if args.trace else end_to_end
    names = WORKLOADS if args.workload == "all" else [args.workload]

    correct, attempted, failed, combined = True, 0, 0, {}
    for workload in names:
        metrics, ok, n, bad = run_workload(workload, args.seed, args.seconds,
                                           args.trace == 1)
        chosen, missing = select(metrics, expected)
        if missing and not args.trace:
            print("# missing end-to-end metrics: " + " ".join(missing))
            ok = False
        elif missing:
            print("# not loaded by %s (reported as 0): %s"
                  % (workload, " ".join(missing)))
        correct = correct and ok
        attempted += n
        failed += bad
        if len(names) == 1:
            combined = chosen
        else:
            combined.update({workload + "." + k: v for k, v in chosen.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))


if __name__ == "__main__":
    main()
