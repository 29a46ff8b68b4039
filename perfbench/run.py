#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload serve_1m --seed 42 --seconds 20 --trace 0

Builds perfbench/ (the ghs_perfbench executable, linked against the
repository's module libraries) into .bench_build/perfbench, then runs the
workload in a fresh single-threaded process again and again until
--seconds have passed. Each process runs the workload once and checks its
outputs. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over
the untraced processes. --trace 1 alternates untraced and traced processes
and reports the per-layer metrics: medians over the traced processes, plus
bench.trace_overhead_pct (traced run_s against untraced run_s). Metrics of
a layer that a workload does not reach read 0; an end-to-end metric that a
workload does not report is an error.

Every output check is one operation; a check that does not hold is a
failed operation. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "ghs_perfbench")
REFERENCE_DIR = os.path.join(HERE, "reference")
WORKLOADS = ("paper_sweep", "serve_1m", "fleet_16", "serve_1m_observed")
# Fewest processes a run measures, whatever --seconds says.
MIN_UNTRACED = 3
MIN_TRACED = 2
# One process may take this long before the run is abandoned.
PROCESS_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layers


def build():
    """Configures (once) and builds ghs_perfbench; output goes to stderr."""
    for needed in ("CMakeLists.txt", os.path.join("src", "ghs")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"no repository sources here: {needed} is missing")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ghs_perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(step)}")


def run_process(workload, seed, traced, run_id, spans_out=None):
    cmd = [BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--reference={REFERENCE_DIR}", f"--run-id={run_id}"]
    if traced:
        cmd.append("--traced")
    if spans_out:
        cmd.append(f"--spans-out={spans_out}")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} process timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload} process exited {done.returncode}")
    return json.loads(lines[-1])


def value(result, name):
    metric = result["metrics"].get(name)
    return None if metric is None else metric["value"]


def median_of(results, name):
    values = [v for v in (value(r, name) for r in results) if v is not None]
    return statistics.median(values) if values else None


def measure(workload, seed, seconds, trace):
    """Runs processes until `seconds` have passed; returns (untraced, traced)."""
    untraced, traced = [], []
    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    start = time.monotonic()
    run_id = 0
    while True:
        elapsed = time.monotonic() - start
        if trace:
            enough = len(untraced) >= MIN_TRACED and len(traced) >= MIN_TRACED
        else:
            enough = len(untraced) >= MIN_UNTRACED
        if enough and elapsed >= seconds:
            break
        want_traced = trace and len(traced) < len(untraced)
        spans_out = None
        if want_traced and not traced:
            spans_out = os.path.join(spans_dir, f"{workload}.csv")
        result = run_process(workload, seed, want_traced, run_id, spans_out)
        (traced if want_traced else untraced).append(result)
        run_id += 1
    return untraced, traced


def consistency_checks(results):
    """Checks across processes: the same seed gives the same inputs and the
    same report, traced or not."""
    checks = []
    digests = {r["report_digest"] for r in results}
    checks.append({"name": "report identical in every process (traced or not)",
                   "ok": len(digests) == 1, "detail": f"digests {sorted(digests)}"})
    inputs = {r["inputs_digest"] for r in results}
    checks.append({"name": "inputs identical in every process",
                   "ok": len(inputs) == 1, "detail": f"digests {sorted(inputs)}"})
    return checks


def print_summary(workload, seed, trace, untraced, traced, checks, metrics):
    print(f"perfbench {workload} seed={seed} trace={trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced processes")
    for note in (untraced or traced)[0]["notes"]:
        print(f"  note: {note}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if traced:
        # The denominators are deterministic counts, so the median ratio is
        # the median numerator over the common denominator.
        for r in traced[0]["ratios"]:
            numerators = [q["numerator_value"] for t in traced
                          for q in t["ratios"] if q["name"] == r["name"]]
            print(f"  ratio {r['name']} = {metrics[r['name']]['value']:.6g} "
                  f"{r['unit']} (= {statistics.median(numerators):.6g} "
                  f"{r['numerator']} / {r['denominator_value']:.6g} "
                  f"{r['denominator']})")
        print("  self time per span (median over traced processes):")
        names = sorted({n for r in traced for n in r["spans"]})
        for name in names:
            selfs = [r["spans"][name]["self_s"] for r in traced if name in r["spans"]]
            counts = [r["spans"][name]["count"] for r in traced if name in r["spans"]]
            print(f"    {name:40s} self {statistics.median(selfs):.6f} s"
                  f"  x{counts[0]}")
    failed = [c for c in checks if not c["ok"]]
    print(f"  checks: {len(checks)} attempted, {len(failed)} failed")
    for c in failed[:20]:
        print(f"    FAILED {c['name']}: {c['detail']}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = args.seed % (1 << 64)

    try:
        e2e_units, layer_units = load_spec()
        build()
        untraced, traced = measure(args.workload, seed, args.seconds, args.trace)
        checks = [c for r in untraced + traced for c in r["checks"]]
        checks += consistency_checks(untraced + traced)
        if args.trace:
            wanted = layer_units
            metrics = {n: median_of(traced, n) for n in wanted}
            traced_run = median_of(traced, "run_s")
            untraced_run = median_of(untraced, "run_s")
            metrics["bench.trace_overhead_pct"] = (
                100.0 * (traced_run / untraced_run - 1.0))
        else:
            wanted = e2e_units
            metrics = {n: median_of(untraced, n) for n in wanted}
        units = {}
        for r in untraced + traced:
            for name, m in r["metrics"].items():
                units.setdefault(name, m["unit"])
        out = {}
        for name, unit in wanted.items():
            if name in units and units[name] != unit:
                raise BenchError(f"{name}: program reports {units[name]}, "
                                 f"BENCHMARK.json says {unit}")
            v = metrics.get(name)
            if v is None and not args.trace:
                raise BenchError(f"{args.workload} does not report {name}")
            # A per-layer metric of a layer this workload does not reach.
            out[name] = {"value": 0.0 if v is None else v, "unit": unit}
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1

    print_summary(args.workload, seed, args.trace, untraced, traced, checks, out)
    failed = sum(1 for c in checks if not c["ok"])
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
