#!/usr/bin/env python3
"""Repo benchmark: builds the perfbench program and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload batch-lu|explore-cg|live-lu \
        --seed N --seconds S --trace 0|1

The program is built from source into $CARGO_TARGET_DIR (default
.bench_build) on first use.  The run prints a host and build record, the
metrics and the exact work counts, and as its last line one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  The exit code is 0 only when every operation matched its
oracle and the work counts repeated those of earlier runs of the same
build, workload, seed and length.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("batch-lu", "explore-cg", "live-lu")


def layer(*names):
    """The self-time and share metrics of each named layer."""
    return {m for n in names
            for m in (n + "_s", "share." + n, "wall_share." + n)}


# Per-layer metrics that do not apply to a workload (README.md, "Per-layer
# metrics"): its traced run reports them as 0.  Any other per-layer metric
# the program does not report is missing.
DECODE = layer("trace.decode") | {"trace.decode_mb_per_s",
                                  "trace.decode_of_mem_bw"}
QUERY_LAYERS = layer("trace.view", "model.build", "core.cube", "core.cache",
                     "core.dp") | {"core.dp.probes", "core.dp.levels",
                                   "core.dp.levels_per_probe"}
LIVE = layer("trace.parse", "core.session.ingest", "core.session.seal",
             "core.session.advance") | {
                 "core.pipeline.submit_blocked_s",
                 "core.pipeline.blocked_pushes",
                 "core.pipeline.queue_high_water",
                 "core.pipeline.gen_lag_ms", "core.pipeline.backlog_rounds",
                 "core.pipeline.backlog_growth",
                 "baseline.sync_events_per_cpu_s", "trace.spilled_mb",
                 "trace.chunks_sealed", "trace.spilled_bytes"}
NOT_APPLICABLE = {
    "batch-lu": LIVE,
    "explore-cg": DECODE | LIVE | {"trace.file_bytes"},
    "live-lu": DECODE | QUERY_LAYERS,
}

TIME_LIMIT_S = 175.0
FIRST_BUILD_LIMIT_S = 880.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir, deadline):
    """Configures (once) and builds the program; returns its path."""
    if not (root / "src").is_dir() or not (root / "CMakeLists.txt").is_file():
        raise RuntimeError("no stagg source tree next to perfbench/")
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        left = deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError("build ran out of time")
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=left,
                              check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd[:2]))
    exe = build_dir / "perfbench"
    if not exe.is_file():
        raise RuntimeError("build produced no perfbench executable")
    return exe


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def check_counts(ledger_path, key, counts):
    """Records the run's exact counts; returns the earlier counts of the
    same key when they differ, else None."""
    ledger = {}
    if ledger_path.is_file():
        try:
            ledger = json.loads(ledger_path.read_text())
        except ValueError:
            ledger = {}
    previous = ledger.get(key)
    if previous is not None and previous != counts:
        return previous
    ledger[key] = counts
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(ledger_path)
    return None


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    first_build = not (build_dir / "perfbench").is_file()
    limit = FIRST_BUILD_LIMIT_S if first_build else TIME_LIMIT_S
    try:
        exe = build(root, build_dir, start + limit - 60.0)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 2

    work_dir = build_dir / "work"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=max(
            1.0, start + limit - time.monotonic()), check=False)
    except subprocess.TimeoutExpired:
        log("perfbench: workload ran out of time")
        return 2
    lines = done.stdout.decode(errors="replace").strip().splitlines()
    if done.returncode not in (0, 3) or not lines:
        log("perfbench: program exited with %d" % done.returncode)
        return 2
    report = json.loads(lines[-1])

    problems = list(report["failures"])
    metrics = {}
    for name, unit in declared.items():
        m = report["metrics"].get(name)
        if m is None and args.trace:
            # The traced run also reports the exact counts, and 0 for what
            # does not apply to the workload.
            if name in report["counts"]:
                m = {"value": report["counts"][name], "unit": unit}
            elif name in NOT_APPLICABLE[args.workload]:
                m = {"value": 0, "unit": unit}
        if (m is None or m["unit"] != unit
                or not isinstance(m["value"], (int, float))
                or not math.isfinite(m["value"])):
            problems.append("metric %s missing or malformed" % name)
            continue
        if not args.trace and m["value"] <= 0:
            problems.append("metric %s is not positive" % name)
        metrics[name] = {"value": m["value"], "unit": unit}
    undeclared = sorted(set(report["metrics"]) - set(declared))
    if undeclared:
        problems.append("undeclared metrics: " + ", ".join(undeclared))

    ledger_key = "%s|%s|%d|%r" % (file_digest(exe), args.workload, args.seed,
                                  args.seconds)
    earlier = check_counts(build_dir / "perfbench-counts.json", ledger_key,
                           report["counts"])
    if earlier is not None:
        problems.append("work counts differ from an earlier run of this "
                        "seed: %s vs %s" % (report["counts"], earlier))

    attempted = max(1, int(report["attempted"]))
    failed = int(report["failed"])
    if problems and failed == 0:
        failed = 1
    correct = not problems

    print("perfbench %s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("host: " + json.dumps(report["host"], sort_keys=True))
    print("info: " + json.dumps(report["info"], sort_keys=True))
    print("counts: " + json.dumps(report["counts"], sort_keys=True))
    for name in sorted(metrics):
        print("  %-34s %18.6g %s" % (name, metrics[name]["value"],
                                     metrics[name]["unit"]))
    print("failed_ratio: %.6g (%d of %d)" % (failed / attempted, failed,
                                              attempted))
    for p in problems:
        print("FAILURE: " + p)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
