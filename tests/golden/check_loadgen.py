#!/usr/bin/env python3
"""Golden-digest guard for the loadgen binaries.

Runs a small fixed matrix of serve_loadgen and cluster_loadgen invocations
and compares SHA-256 digests against tests/golden/loadgen.sha256. Each run
contributes the digest of its stdout report with the "build_info" object
removed (it names the compiler and build type) and the digest of every
artefact it writes: the --metrics-out JSON snapshot, --series-out,
--trace and --profile-out. The Prometheus exposition and --perf carry
wall time and are not hashed. It then checks that a bad --plan, --policy
or --router exits 2 on both loadgens, as does a malformed --drain-at on
cluster_loadgen.

Run from the repository root; the chaos cases pass
--plan=configs/chaos.plan, and the report echoes that path:

  $ python3 tests/golden/check_loadgen.py --bindir build/bench

A change that moves a digest on purpose records the new digests with
--update (digests only; exit statuses are not checked) and says why in
CHANGES.md.

Exit status: 0 when every digest and exit status matches, 1 otherwise.
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "loadgen.sha256")
PLAN = "--plan=configs/chaos.plan"

# (case id, binary, args). "{out}" is the run's temporary directory.
CASES = [
    ("serve_all", "serve_loadgen",
     ["--policy=all", "--metrics-out={out}/m.prom"]),
    ("serve_closed", "serve_loadgen",
     ["--closed", "--tenants=16", "--metrics-out={out}/m.prom"]),
    ("serve_scrape_trace", "serve_loadgen",
     ["--scrape-interval=50", "--series-out={out}/s.series.json",
      "--trace={out}/t.json", "--trace-sample=0.5",
      "--metrics-out={out}/m.prom"]),
    ("serve_cost_profile", "serve_loadgen",
     ["--um-fraction=0.3", "--cost-report", "--profile-interval=50",
      "--profile-out={out}/p.folded", "--metrics-out={out}/m.prom"]),
    ("chaos_fifo", "serve_loadgen",
     ["--policy=fifo", PLAN, "--metrics-out={out}/m.prom"]),
    ("chaos_fifo_cost", "serve_loadgen",
     ["--policy=fifo", PLAN, "--um-fraction=0.3", "--cost-report",
      "--profile-interval=50", "--profile-out={out}/p.folded"]),
    ("chaos_all_slo", "serve_loadgen",
     ["--policy=all", "--slo", PLAN, "--um-fraction=0.3", "--cost-report",
      "--profile-interval=50", "--trace={out}/t.json",
      "--metrics-out={out}/m.prom"]),
    ("fleet_routers", "cluster_loadgen",
     ["--router=all", "--jobs=1000", "--metrics-out={out}/m.prom"]),
    ("fleet_scaling", "cluster_loadgen",
     ["--scaling", "--nodes=16", "--jobs=2000"]),
    ("fleet_crash_drain", "cluster_loadgen",
     ["--nodes=4", "--jobs=1000", "--crash-plan=1@300us:2ms",
      "--drain-at=3@1ms", "--heartbeat-us=100",
      "--metrics-out={out}/m.prom"]),
    ("fleet_remote_cost", "cluster_loadgen",
     ["--nodes=4", "--jobs=1000", "--router=all", "--remote-fraction=0.4",
      "--um-fraction=0.2", "--cost-report", "--profile-interval=50",
      "--profile-out={out}/p.folded", "--trace={out}/t.json"]),
    ("fleet_fault", "cluster_loadgen",
     ["--nodes=4", "--jobs=1000", PLAN, "--fault-node=1", "--slo",
      "--metrics-out={out}/m.prom"]),
    ("fleet_scrape_trace", "cluster_loadgen",
     ["--nodes=4", "--jobs=1000", "--scrape-interval=50",
      "--series-out={out}/s.series.json", "--trace={out}/t.json",
      "--metrics-out={out}/m.prom"]),
]

# Artefacts hashed when the run wrote them; m.prom itself is wall-clock.
ARTEFACTS = ["m.prom.json", "s.series.json", "t.json", "p.folded"]

BUILD_INFO = re.compile(rb'"build_info":\{[^{}]*\},?')

# (binary, args) that must exit 2; "{out}" as above.
BAD_INPUTS = [
    (binary, args)
    for binary in ("serve_loadgen", "cluster_loadgen")
    for args in (["--plan={out}/missing.plan"], ["--plan={out}/bad.plan"],
                 ["--policy=bogus"], ["--router=bogus"])
] + [("cluster_loadgen", ["--drain-at=x@1ms"])]


def run(bindir, binary, args, out):
    command = [os.path.join(bindir, binary)] + [a.format(out=out)
                                                for a in args]
    return subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, check=False)


def digests(bindir):
    """{"case/artefact": sha256} for every run in the matrix."""
    found = {}
    for case, binary, args in CASES:
        with tempfile.TemporaryDirectory() as out:
            result = run(bindir, binary, args, out)
            if result.returncode != 0:
                sys.exit(f"{case}: {binary} exited {result.returncode}:\n"
                         f"{result.stderr.decode(errors='replace')}")
            report = BUILD_INFO.sub(b"", result.stdout, count=1)
            found[f"{case}/stdout"] = hashlib.sha256(report).hexdigest()
            for name in ARTEFACTS:
                path = os.path.join(out, name)
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        found[f"{case}/{name}"] = hashlib.sha256(
                            fh.read()).hexdigest()
    return found


def bad_input_failures(bindir):
    failures = []
    with tempfile.TemporaryDirectory() as out:
        with open(os.path.join(out, "bad.plan"), "w", encoding="utf-8") as fh:
            fh.write("kernel-fault gpu p=banana\n")
        for binary, args in BAD_INPUTS:
            status = run(bindir, binary, args, out).returncode
            if status != 2:
                failures.append(f"{binary} {' '.join(args)}: exit {status}, "
                                f"expected 2")
    return failures


def load_digests():
    expected = {}
    with open(DIGESTS, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                digest, name = line.split()
                expected[name] = digest
    return expected


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--bindir", default="build/bench",
                        help="directory holding the loadgen binaries")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the digest file from this run")
    args = parser.parse_args()

    found = digests(args.bindir)
    if args.update:
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            for name in sorted(found):
                fh.write(f"{found[name]}  {name}\n")
        print(f"recorded {len(found)} digest(s) -> {DIGESTS}")
        return 0

    expected = load_digests()
    failures = []
    for name in sorted(set(expected) | set(found)):
        if expected.get(name) != found.get(name):
            failures.append(f"{name}: expected {expected.get(name)}, "
                            f"got {found.get(name)}")
    failures += bad_input_failures(args.bindir)
    for line in failures:
        print(f"FAIL {line}")
    if failures:
        return 1
    print(f"ok: {len(found)} digest(s) and {len(BAD_INPUTS)} exit-2 "
          f"checks match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
