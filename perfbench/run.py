#!/usr/bin/env python3
"""The repo benchmark: builds perfbench from source, runs one workload, checks
its outputs and prints the metrics.

    python3 perfbench/run.py --workload characterize --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to .bench_build/ and the
full per-pass report, run envelope and span files to .perfbench_out/, both at
the root of the checkout. The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}; --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".perfbench_out"
# BENCHMARK.json names the workloads and every metric with its unit.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
FLEET = ("characterize", "sharded_scan")
PASS_TIMEOUT_S = 120
# Passes per end-to-end run, each in a fresh process. A fleet pass is sized
# by its query count; the serve workload splits --seconds of offered load
# over its passes.
PASSES = {"characterize": 7, "sharded_scan": 9, "serve_light": 5}
PLATFORMS = ("Spanner", "BigTable", "BigQuery")

# Simulated counts a fleet pass reports; they repeat exactly for one seed,
# traced or not.
FLEET_COUNTS = ("digest", "queries_completed", "sim.events", "net.rpc_calls",
                "net.rpc_failed", "profiling.traces_sampled",
                "sim.shard.epochs", "sim.shard.coalesced_epochs",
                "sim.shard.messages_posted")


class BenchError(Exception):
    pass


def build():
    """Configures and builds .bench_build; raises BenchError on failure."""
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD), "-j", jobs,
              "--target", "perfbench"]]
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError(f"build failed: {' '.join(step)} (see {log})")
    binary = BUILD / "perfbench"
    if not binary.exists():
        raise BenchError(f"build produced no {binary}")
    return binary


def run_pass(binary, workload, mode, seed, seconds):
    """Runs one pass in its own process; returns its JSON report."""
    cmd = [str(binary), workload, mode, "--seed", str(seed),
           "--seconds", repr(seconds), "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass timed out: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass failed ({proc.returncode}): {' '.join(cmd)}\n"
                         f"{proc.stderr[-2000:]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"unparsable pass output: {lines[-1][:200]}") from exc


def median_of(passes, fn):
    return statistics.median(fn(p) for p in passes)


def end_to_end(workload, binary, seed, seconds):
    """Untraced passes; every metric is the median over the passes."""
    count = PASSES[workload]
    passes = [run_pass(binary, workload, "untraced", seed, seconds / count)
              for _ in range(count)]
    metrics = {key: median_of(passes, lambda p: p[key]) for key in E2E_UNITS}
    return passes, metrics


def fleet_layers(untraced, traced):
    m = {key: 0.0 for key in LAYER_UNITS}
    for key in ("sim.events", "sim.shard.epochs", "sim.shard.coalesced_epochs",
                "sim.shard.messages_posted", "sim.shard.exchange_allocs",
                "sim.kernel_mb", "net.rpc_calls", "net.rpc_failed",
                "storage.ram_serve_fraction", "storage.ssd_serve_fraction",
                "profiling.traces_sampled", "profiling.dropped_spans",
                "profiling.tracer_mb", "profiling.profiler_mb"):
        m[key] = untraced[key]
    m["sim.events_per_s"] = untraced["sim.events"] / untraced["run_all_s"]
    if untraced["sim.shard.epochs"]:
        m["sim.shard.us_per_epoch"] = (untraced["run_all_s"] * 1e6 /
                                       untraced["sim.shard.epochs"])
    m["platforms.add_platform_s"] = untraced["add_platform_s"]
    m["profiling.result_s"] = untraced["result_s"]
    for p in PLATFORMS:
        m[f"platforms.add_platform_s.{p}"] = untraced.get(
            f"add_platform_s.{p}", 0.0)
        m[f"platforms.run_s.{p}"] = traced.get(f"platforms.run_s.{p}", 0.0)
    m["platforms.straggler_share"] = traced["platforms.straggler_share"]
    m["platforms.finalize_s"] = traced["platforms.finalize_s"]
    m["trace.overhead_share"] = traced["run_all_s"] / untraced["run_all_s"] - 1
    return m


def serve_layers(untraced, traced, overload, replay):
    m = {key: 0.0 for key in LAYER_UNITS}
    for key in ("serve.offered", "serve.admitted", "serve.shed",
                "serve.completed", "serve.protocol_errors",
                "serve.daemon_busy_share", "loadgen.late_ms.p99",
                "loadgen.sent"):
        m[key] = untraced[key]
    for key in ("p50_ms", "p99_ms", "goodput_qps", "error_rate"):
        m[f"serve.{key}"] = untraced[key]
        m[f"serve.overload_{key}"] = overload[key]
    m["serve.overload_busy_share"] = overload["serve.daemon_busy_share"]
    m["loadgen.overload_late_ms.p99"] = overload["loadgen.late_ms.p99"]
    for key in ("serve.run_once_us.p50", "serve.run_once_us.p99"):
        m[key] = traced[key]
    for key in ("serve.admit_ns_per_query", "serve.pump_ns_per_query",
                "serve.codec_ns_per_request"):
        m[key] = replay[key]
    m["platforms.add_platform_s"] = untraced["add_platform_s"]
    for p in PLATFORMS:
        m[f"platforms.add_platform_s.{p}"] = untraced[f"add_platform_s.{p}"]
    m["trace.overhead_share"] = (traced["cpu_us_per_query"] /
                                 untraced["cpu_us_per_query"] - 1)
    return m


def per_layer(workload, binary, seed, seconds):
    """An untraced and a traced pass; serve adds the overload point."""
    if workload in FLEET:
        passes = [run_pass(binary, workload, mode, seed, seconds)
                  for mode in ("untraced", "traced")]
        metrics = fleet_layers(*passes)
    else:
        third = seconds / 3
        passes = [run_pass(binary, "serve_light", "untraced", seed, third),
                  run_pass(binary, "serve_light", "traced", seed, third),
                  run_pass(binary, "serve_overload", "untraced", seed, third),
                  run_pass(binary, "serve_overload", "replay", seed, 1.0)]
        metrics = serve_layers(*passes)
    traced = passes[1]
    for key in LAYER_UNITS:
        if key.startswith("trace.self_s."):
            metrics[key] = traced.get(key, 0.0)
    return passes, metrics


def cross_checks(workload, passes, reference):
    """Checks across passes: exact repeats, traced == untraced, 1 shard."""
    failures = []
    if workload in FLEET:
        for key in FLEET_COUNTS:
            values = {str(p[key]) for p in passes}
            if len(values) != 1:
                failures.append(f"{key} differs between passes: {values}")
        if reference is not None and reference["digest"] != passes[0]["digest"]:
            failures.append("digest differs from the 1-shard reference run")
    return failures


def source_digest():
    """sha256 over the library sources and the benchmark, in path order."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_rev():
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def run(args):
    binary = build()
    OUT.mkdir(exist_ok=True)
    workload, seed, seconds = args.workload, args.seed, float(args.seconds)
    reference = None
    if workload == "sharded_scan":
        reference = run_pass(binary, workload, "reference", seed, seconds)
    measure = per_layer if args.trace else end_to_end
    passes, metrics = measure(workload, binary, seed, seconds)

    if workload in FLEET:
        attempted = sum(p["queries_expected"] for p in passes)
        failed = sum(p["queries_expected"] - p["queries_completed"]
                     for p in passes)
    else:
        daemons = [p for p in passes if p["mode"] != "replay"]
        attempted = sum(p["loadgen.total_sent"] for p in daemons)
        failed = sum(p["failed"] for p in daemons)
    failures = [f"{p['workload']} {p['mode']} pass: {c}"
                for p in passes + ([reference] if reference else [])
                for c in p["checks"]]
    failures += cross_checks(workload, passes, reference)

    units = LAYER_UNITS if args.trace else E2E_UNITS
    envelope = {
        "nproc": passes[0]["env.nproc"],
        "compiler": passes[0]["env.compiler"],
        "build_type": passes[0]["env.build_type"],
        "kernel_dispatch": passes[0]["env.kernel_dispatch"],
        "seed": seed,
        "seconds": seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
    }
    report_path = OUT / f"result_{workload}_trace{args.trace}.json"
    report_path.write_text(json.dumps({
        "workload": workload,
        "envelope": envelope,
        "check_failures": failures,
        "passes": passes + ([reference] if reference else []),
        "metrics": metrics,
    }, indent=1))

    print(f"perfbench {workload}: seed {seed}, {len(passes)} passes, "
          f"report {report_path.relative_to(ROOT)}")
    print("envelope: " + json.dumps(envelope))
    if workload in FLEET:
        print(f"digest: {passes[0]['digest']}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    for key, unit in units.items():
        print(f"  {key:36s} {metrics[key]:>18.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    try:
        run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"perfbench: {time.monotonic() - started:.1f} s wall",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
