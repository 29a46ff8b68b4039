#!/usr/bin/env python3
"""Golden-digest guard for the paper-artefact benches.

Runs Table 1 and every Fig. 1-5 bench with --csv --iters=2 and compares
the SHA-256 digest of each stdout against tests/golden/figures.sha256.
The CSVs print every reproduced number the paper's artefacts rest on, so
any change to the GPU, CPU, UM or fluid models that moves a printed digit
moves a digest:

  $ python3 tests/golden/check_figures.py --bindir build/bench

A change that moves a digest on purpose records the new digests with
--update and says why in CHANGES.md.

Exit status: 0 when every digest matches, 1 otherwise.
"""

import argparse
import hashlib
import os
import subprocess
import sys

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "figures.sha256")
ARGS = ["--csv", "--iters=2"]
BENCHES = [
    "table1_baseline_vs_optimized",
    "fig1_gpu_sweep",
    "fig2a_um_a1_baseline",
    "fig2b_um_a1_optimized",
    "fig3_um_a1_speedup",
    "fig4a_um_a2_baseline",
    "fig4b_um_a2_optimized",
    "fig5_um_a2_speedup",
]


def digests(bindir):
    """{"bench/stdout": sha256} for every bench."""
    found = {}
    for bench in BENCHES:
        command = [os.path.join(bindir, bench)] + ARGS
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, check=False)
        if result.returncode != 0:
            sys.exit(f"{bench} exited {result.returncode}:\n"
                     f"{result.stderr.decode(errors='replace')}")
        found[f"{bench}/stdout"] = hashlib.sha256(result.stdout).hexdigest()
    return found


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
                        help="directory holding the bench binaries")
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
    failures = [f"{name}: expected {expected.get(name)}, got {found.get(name)}"
                for name in sorted(set(expected) | set(found))
                if expected.get(name) != found.get(name)]
    for line in failures:
        print(f"FAIL {line}")
    if failures:
        return 1
    print(f"ok: {len(found)} digest(s) match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
