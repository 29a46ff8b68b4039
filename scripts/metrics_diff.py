#!/usr/bin/env python3
"""Compare two telemetry JSON snapshots (telemetry::write_json_snapshot).

Typical uses:

  # Determinism gate: same-seed runs must match exactly.
  $ build/bench/serve_loadgen --seed=7 --metrics-out=a.prom >/dev/null
  $ build/bench/serve_loadgen --seed=7 --metrics-out=b.prom >/dev/null
  $ scripts/metrics_diff.py a.prom.json b.prom.json

  # Regression gate: flag counters that moved more than 5% between a
  # baseline snapshot and a candidate one.
  $ scripts/metrics_diff.py --threshold=0.05 baseline.json candidate.json

  # Per-node namespaces: a cluster snapshot labels every node-level
  # instrument with node="i". Compare one node across two fleet runs:
  $ scripts/metrics_diff.py --select-label node=3 a.prom.json b.prom.json

  # ... or check a node against a standalone-service snapshot by
  # selecting its namespace and then stripping the label (instruments
  # without the label — the standalone ones, and any cluster-level
  # metrics — pass selection untouched):
  $ scripts/metrics_diff.py --select-label node=0 --strip-label node \\
      solo.prom.json fleet.prom.json

  # Time-series dumps (--series-out, format ghs-series-v1) use --series.
  # Each series contributes its point/drop counters, value sums, and
  # per-tier rollup shape, so same-seed runs must match exactly and a
  # thresholded compare flags series whose totals drifted:
  $ scripts/metrics_diff.py --series a.series.json b.series.json

  # Top-level loadgen reports (serve_loadgen and cluster_loadgen stdout
  # JSON) use --report. Every numeric leaf is compared by its JSON path;
  # the build_info stamp itself is excluded from the value diff but its
  # schema version is enforced first — two reports whose binaries speak
  # different report schemas refuse to diff (exit 2) instead of
  # producing a wall of spurious NEW/REMOVED lines:
  $ build/bench/serve_loadgen --plan=configs/chaos.plan > a.report.json
  $ build/bench/serve_loadgen --plan=configs/chaos.plan --fault-seed=9 \\
      > b.report.json
  $ scripts/metrics_diff.py --report a.report.json b.report.json

Exit status: 0 when the snapshots agree (within the threshold), 1 when any
instrument regressed/appeared/disappeared, 2 on usage errors — including a
missing or malformed snapshot file and a --report schema mismatch.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            snapshot = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read snapshot {path}: {err}", file=sys.stderr)
        sys.exit(2)
    for section in ("counters", "gauges", "histograms"):
        if section not in snapshot:
            print(f"error: {path} is not a telemetry snapshot "
                  f"(missing '{section}')", file=sys.stderr)
            sys.exit(2)
    return snapshot


def load_series(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read series dump {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if doc.get("format") != "ghs-series-v1" or "series" not in doc:
        print(f"error: {path} is not a ghs-series-v1 dump", file=sys.stderr)
        sys.exit(2)
    return doc


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read report {path}: {err}", file=sys.stderr)
        sys.exit(2)
    info = doc.get("build_info")
    if not isinstance(info, dict) or "schema" not in info:
        print(f"error: {path} is not a loadgen report (missing "
              f"'build_info.schema' — produced by a pre-v2 binary?)",
              file=sys.stderr)
        sys.exit(2)
    return doc


def require_matching_schema(baseline, candidate, baseline_path,
                            candidate_path):
    """Refuses to diff reports from shape-incompatible binaries."""
    before = baseline["build_info"]["schema"]
    after = candidate["build_info"]["schema"]
    if before != after:
        print(f"error: report schema mismatch: {baseline_path} is "
              f"'{before}' but {candidate_path} is '{after}'; not "
              f"comparing shape-incompatible reports", file=sys.stderr)
        sys.exit(2)


def flatten_report(doc):
    """One {json path: numeric value} map per loadgen report.

    build_info is compared via its schema gate, not per-field (compiler
    versions legitimately differ between comparable runs), and the
    --perf section is wall-clock by design, so both stay out.
    """
    values = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, child in node.items():
                walk(child, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for index, child in enumerate(node):
                walk(child, f"{path}[{index}]")
        elif isinstance(node, bool):
            values[path] = float(node)
        elif isinstance(node, (int, float)):
            values[path] = float(node)

    for key, child in doc.items():
        if key in ("build_info", "perf"):
            continue
        walk(child, key)
    return values


def parse_instrument(name):
    """Splits 'name{k="v",...}' into (base, [(k, v), ...])."""
    brace = name.find("{")
    if brace < 0 or not name.endswith("}"):
        return name, []
    labels = []
    body = name[brace + 1:-1]
    for part in body.split(","):
        key, _, value = part.partition("=")
        labels.append((key, value.strip('"')))
    return name[:brace], labels


def render_instrument(base, labels):
    if not labels:
        return base
    body = ",".join(f'{key}="{value}"' for key, value in labels)
    return base + "{" + body + "}"


def rewrite(snapshot, path, select, strip):
    """Applies --select-label / --strip-label to every section in place.

    Selection drops instruments that carry a requested key with a DIFFERENT
    value; instruments without the key pass through, so a standalone
    snapshot survives `--select-label node=0` intact and cluster-level
    (node-less) instruments ride along with whichever node is selected.
    Stripping then removes the key from the rendered name so namespaced
    instruments line up with unlabelled ones. Two instruments collapsing
    onto one name after stripping is ambiguous, hence a usage error.
    """
    if not select and not strip:
        return snapshot
    for section in ("counters", "gauges", "histograms"):
        rewritten = {}
        for name, value in snapshot[section].items():
            base, labels = parse_instrument(name)
            present = dict(labels)
            if any(key in present and present[key] != want
                   for key, want in select):
                continue
            kept = [(k, v) for k, v in labels if k not in strip]
            new_name = render_instrument(base, kept)
            if new_name in rewritten:
                print(f"error: --strip-label collapses two instruments in "
                      f"{path} onto '{new_name}'", file=sys.stderr)
                sys.exit(2)
            rewritten[new_name] = value
        snapshot[section] = rewritten
    return snapshot


def split_series_key(key):
    """Splits a series key into (instrument, derived suffix).

    The scraper keys histogram-derived series as 'name{labels}:count',
    ':sum', or ':p95'; the suffix follows the closing brace (or, for an
    unlabelled instrument, the bare name — metric names themselves never
    contain ':').
    """
    brace = key.rfind("}")
    if brace >= 0:
        rest = key[brace + 1:]
        if rest.startswith(":"):
            return key[:brace + 1], rest
        return key, ""
    colon = key.find(":")
    if colon >= 0:
        return key[:colon], key[colon:]
    return key, ""


def rewrite_series(doc, path, select, strip):
    """--select-label / --strip-label over a series dump.

    Same pass-through semantics as rewrite(): selection keeps series whose
    instrument lacks the key entirely, and stripping re-renders the key
    with the label removed, derived suffix preserved.
    """
    if not select and not strip:
        return doc
    rewritten = {}
    for key, body in doc["series"].items():
        instrument, suffix = split_series_key(key)
        base, labels = parse_instrument(instrument)
        present = dict(labels)
        if any(k in present and present[k] != want for k, want in select):
            continue
        kept = [(k, v) for k, v in labels if k not in strip]
        new_key = render_instrument(base, kept) + suffix
        if new_key in rewritten:
            print(f"error: --strip-label collapses two series in "
                  f"{path} onto '{new_key}'", file=sys.stderr)
            sys.exit(2)
        rewritten[new_key] = body
    doc["series"] = rewritten
    return doc


def flatten_series(doc):
    """One {key: numeric value} map per series dump.

    Per series: lifetime point/drop counters, value sums, the retained raw
    sample count and its value sum, and each rollup tier's row and folded
    sample counts. Timestamps are left out so a thresholded compare between
    runs of slightly different length reports value drift, not clock skew;
    the exact (threshold 0) gate still catches any behavioural divergence
    because every scraped value lands in a sum.
    """
    values = {
        "meta interval_ps": float(doc["interval_ps"]),
        "meta scrapes": float(doc["scrapes"]),
    }
    for key, body in doc["series"].items():
        prefix = f"series {key}"
        values[f"{prefix} points"] = float(body["points"])
        values[f"{prefix} dropped"] = float(body["dropped"])
        values[f"{prefix} sum"] = float(body["sum"])
        values[f"{prefix} dropped_sum"] = float(body["dropped_sum"])
        samples = body.get("samples", [])
        values[f"{prefix} raw points"] = float(len(samples))
        values[f"{prefix} raw sum"] = float(sum(v for _, v in samples))
        for tier in body.get("rollups", []):
            rows = tier.get("rows", [])
            t = tier.get("tier", 0)
            values[f"{prefix} tier{t} rows"] = float(len(rows))
            values[f"{prefix} tier{t} folded"] = float(
                sum(row[2] for row in rows))
    return values


def flatten(snapshot):
    """One {instrument: numeric value} map per snapshot.

    Histograms contribute their count, sum, and per-bucket counts. The
    "exemplars" sub-object is deliberately excluded: exemplar trace_ids
    name whichever trace last landed in a bucket, so two behaviourally
    identical runs of differently-traced builds may disagree on them —
    they are debugging breadcrumbs, not metric values.
    """
    values = {}
    for name, value in snapshot["counters"].items():
        values[f"counter {name}"] = float(value)
    for name, value in snapshot["gauges"].items():
        values[f"gauge {name}"] = float(value)
    for name, hist in snapshot["histograms"].items():
        values[f"histogram {name} count"] = float(hist["count"])
        values[f"histogram {name} sum"] = float(hist["sum"])
        for le, bucket_count in hist.get("buckets", {}).items():
            values[f"histogram {name} le={le}"] = float(bucket_count)
    return values


def relative_delta(before, after):
    if before == after:
        return 0.0
    denom = max(abs(before), abs(after))
    return abs(after - before) / denom


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", help="baseline snapshot (.json)")
    parser.add_argument("candidate", help="candidate snapshot (.json)")
    parser.add_argument(
        "--threshold", type=float, default=0.0,
        help="allowed relative change per instrument (default 0 = exact)")
    parser.add_argument(
        "--select-label", action="append", default=[], metavar="KEY=VALUE",
        help="keep only instruments labelled KEY=\"VALUE\" (repeatable; "
             "e.g. node=3 for one node of a cluster snapshot)")
    parser.add_argument(
        "--strip-label", action="append", default=[], metavar="KEY",
        help="drop label KEY from instrument names after selection "
             "(repeatable), aligning namespaced and plain snapshots")
    parser.add_argument(
        "--series", action="store_true",
        help="compare ghs-series-v1 time-series dumps (--series-out files) "
             "instead of telemetry snapshots")
    parser.add_argument(
        "--report", action="store_true",
        help="compare top-level loadgen reports (stdout JSON); enforces a "
             "matching build_info.schema before diffing")
    args = parser.parse_args()
    if args.series and args.report:
        parser.error("--series and --report are mutually exclusive")
    if args.report and (args.select_label or args.strip_label):
        parser.error("--select-label/--strip-label apply to snapshots and "
                     "series, not reports")
    if args.threshold < 0:
        parser.error("--threshold must be >= 0")
    select = []
    for spec in args.select_label:
        key, eq, value = spec.partition("=")
        if not eq or not key:
            parser.error(f"--select-label needs KEY=VALUE, got '{spec}'")
        select.append((key, value))
    strip = set(args.strip_label)

    if args.report:
        baseline_doc = load_report(args.baseline)
        candidate_doc = load_report(args.candidate)
        require_matching_schema(baseline_doc, candidate_doc,
                                args.baseline, args.candidate)
        before = flatten_report(baseline_doc)
        after = flatten_report(candidate_doc)
    elif args.series:
        before = flatten_series(rewrite_series(
            load_series(args.baseline), args.baseline, select, strip))
        after = flatten_series(rewrite_series(
            load_series(args.candidate), args.candidate, select, strip))
    else:
        before = flatten(rewrite(load(args.baseline), args.baseline,
                                 select, strip))
        after = flatten(rewrite(load(args.candidate), args.candidate,
                                select, strip))

    failures = []
    for key in sorted(set(before) | set(after)):
        if key not in before:
            failures.append(
                f"NEW       {key} = {after[key]:g} (only in "
                f"{args.candidate}; missing from {args.baseline})")
        elif key not in after:
            failures.append(
                f"REMOVED   {key} (was {before[key]:g} in "
                f"{args.baseline}; missing from {args.candidate})")
        else:
            delta = relative_delta(before[key], after[key])
            if delta > args.threshold:
                failures.append(
                    f"CHANGED   {key}: {before[key]:g} -> {after[key]:g} "
                    f"({delta:+.1%} vs threshold {args.threshold:.1%})")

    if failures:
        print(f"{len(failures)} instrument(s) outside threshold "
              f"{args.threshold:g}:")
        for line in failures:
            print(f"  {line}")
        return 1

    print(f"snapshots agree: {len(after)} instrument value(s) within "
          f"threshold {args.threshold:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
