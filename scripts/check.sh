#!/usr/bin/env bash
# Full local gate: build the Release and the ASan+UBSan configurations and
# run the test suite under both. Run from the repository root:
#
#   $ scripts/check.sh            # both configs
#   $ scripts/check.sh release    # just the plain build
#   $ scripts/check.sh asan       # just the sanitized build: every test,
#                                 # then the loadgen smokes (same-seed
#                                 # series, crash/drain and profiler byte
#                                 # identity, profiler-off snapshot
#                                 # identity, cost conservation, exit-2
#                                 # flag validation) and the
#                                 # instrument-name lint
#   $ scripts/check.sh perf       # Release event-core throughput gate only:
#                                 # a 10^5-job serve_loadgen smoke with
#                                 # --perf, then the serve_perf wall-clock
#                                 # lower bounds (docs/PERFORMANCE.md)
#
# The release config also runs scripts/perf_gate.py against the checked-in
# bench baseline after the tests pass. The asan config exercises the
# arena-backed event queue under ASan+UBSan via the sim and serve suites.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
configs=("${1:-release}")
if [[ $# -eq 0 ]]; then
  configs=(release asan)
fi

for config in "${configs[@]}"; do
  target=""
  case "$config" in
    release)
      dir=build
      flags=(-DCMAKE_BUILD_TYPE=Release -DGHS_SANITIZE=OFF)
      ;;
    asan)
      dir=build-asan
      flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo -DGHS_SANITIZE=ON)
      ;;
    perf)
      dir=build
      flags=(-DCMAKE_BUILD_TYPE=Release -DGHS_SANITIZE=OFF)
      target=serve_loadgen
      ;;
    *)
      echo "unknown config '$config' (release|asan|perf)" >&2
      exit 2
      ;;
  esac
  echo "==> configure $config"
  cmake -B "$dir" -S . "${flags[@]}"
  echo "==> build $config"
  if [[ -n "$target" ]]; then
    cmake --build "$dir" -j "$jobs" --target "$target"
  else
    cmake --build "$dir" -j "$jobs"
  fi
  if [[ "$config" == perf ]]; then
    echo "==> perf smoke (10^5 jobs)"
    "$dir/bench/serve_loadgen" --jobs=100000 --policy=fifo --perf >/dev/null
    echo "==> perf gate (wall-clock lower bounds)"
    python3 scripts/perf_gate.py --bindir "$dir/bench" --only serve_perf
    continue
  fi
  echo "==> test $config"
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  if [[ "$config" == asan ]]; then
    echo "==> series determinism smoke (same-seed byte identity under ASan)"
    tmp=$(mktemp -d)
    "$dir/bench/cluster_loadgen" --nodes=4 --jobs=2000 --scrape-interval=50 \
      --series-out="$tmp/a.series.json" >/dev/null 2>&1
    "$dir/bench/cluster_loadgen" --nodes=4 --jobs=2000 --scrape-interval=50 \
      --series-out="$tmp/b.series.json" >/dev/null 2>&1
    cmp "$tmp/a.series.json" "$tmp/b.series.json"
    python3 scripts/metrics_diff.py --series \
      "$tmp/a.series.json" "$tmp/b.series.json"
    rm -rf "$tmp"
    echo "==> crash/drain determinism smoke (same-seed byte identity under ASan)"
    tmp=$(mktemp -d)
    "$dir/bench/cluster_loadgen" --nodes=4 --jobs=2000 \
      --crash-plan=1@300us:2ms --drain-at=3@1ms --heartbeat-us=100 \
      >"$tmp/a.json" 2>/dev/null
    "$dir/bench/cluster_loadgen" --nodes=4 --jobs=2000 \
      --crash-plan=1@300us:2ms --drain-at=3@1ms --heartbeat-us=100 \
      >"$tmp/b.json" 2>/dev/null
    cmp "$tmp/a.json" "$tmp/b.json"
    rm -rf "$tmp"
    echo "==> flag-validation smoke (out-of-range node targets exit 2)"
    for bad in "--nodes=0" "--fault-node=9" "--crash-plan=9@1ms" \
               "--drain-at=9@1ms" "--crash-plan=bogus"; do
      status=0
      "$dir/bench/cluster_loadgen" --nodes=4 "$bad" >/dev/null 2>&1 \
        || status=$?
      if [[ "$status" -ne 2 ]]; then
        echo "expected exit 2 for $bad, got $status" >&2
        exit 1
      fi
    done
    echo "==> profiler determinism smoke (same-seed byte identity under ASan)"
    tmp=$(mktemp -d)
    for run in a b; do
      "$dir/bench/serve_loadgen" --jobs=500 --cost-report \
        --profile-interval=50 --profile-out="$tmp/$run.folded" \
        >"$tmp/$run.json" 2>/dev/null
    done
    cmp "$tmp/a.json" "$tmp/b.json"
    cmp "$tmp/a.folded" "$tmp/b.folded"
    echo "==> profiler-off byte-identity (snapshot unchanged by attribution)"
    # Attribution only (--cost-report, no --profile-interval): sampling
    # adds the profiler's own tick events to the sim, which legitimately
    # moves ghs_sim_* — same as scraper ticks. Non-UM workload: unified
    # jobs warm the tuner memo-cache when a recorder is attached (the
    # same documented perturbation tracing has), so the identity property
    # is checked without --um-fraction.
    "$dir/bench/serve_loadgen" --jobs=500 --metrics-out="$tmp/off.prom" \
      >/dev/null 2>&1
    "$dir/bench/serve_loadgen" --jobs=500 --metrics-out="$tmp/on.prom" \
      --cost-report >/dev/null 2>&1
    python3 scripts/metrics_diff.py "$tmp/off.prom.json" "$tmp/on.prom.json"
    echo "==> conservation smoke (fleet with crash/replay + remote transfers)"
    # write_json GHS_CHECKs attributed == telemetry totals; a leak aborts.
    "$dir/bench/cluster_loadgen" --nodes=4 --jobs=1000 --router=all \
      --remote-fraction=0.4 --um-fraction=0.2 --crash-plan=1@300us:2ms \
      --heartbeat-us=100 --cost-report --profile-interval=50 \
      >/dev/null 2>&1
    "$dir/bench/serve_loadgen" --policy=fifo --plan=configs/chaos.plan \
      --jobs=500 --um-fraction=0.3 --cost-report --profile-interval=50 \
      >/dev/null 2>&1
    rm -rf "$tmp"
    echo "==> flag-validation smoke (bad profile/trace flags exit 2)"
    for bad in "--profile-interval=-1" "--profile-out=x.folded" \
               "--trace-sample=1.5" "--trace-sample=-0.1" \
               "--um-fraction=2" "--scrape-interval=-1"; do
      status=0
      "$dir/bench/serve_loadgen" --jobs=10 "$bad" >/dev/null 2>&1 \
        || status=$?
      if [[ "$status" -ne 2 ]]; then
        echo "expected exit 2 for $bad, got $status" >&2
        exit 1
      fi
    done
    echo "==> instrument-name lint (code vs docs/OBSERVABILITY.md)"
    python3 scripts/lint_instruments.py
  fi
  if [[ "$config" == release ]]; then
    echo "==> instrument-name lint (code vs docs/OBSERVABILITY.md)"
    python3 scripts/lint_instruments.py
    echo "==> perf gate ($config)"
    python3 scripts/perf_gate.py --bindir "$dir/bench"
  fi
done
echo "==> all green"
