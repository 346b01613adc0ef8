#!/usr/bin/env python3
"""Text report / validator for the telemetry exporters.

Reads a `--stats-json` dump (schema "dtexl-stats-v1") and prints, per
run prefix, a per-unit breakdown of where the raster-phase cycles went:
busy, the top stall reasons, and idle, as percentages of the unit's
accounted total. With --baseline pointing at a second stats dump (e.g.
the coupled-barrier configuration), it also prints the barrier-wait
delta between the two runs — the paper's headline mechanism, read
straight off the attribution counters.

--check turns the script into a CI validator (exit 1 on any violation):

  * the stats JSON parses, carries the expected schema marker, and
    every ".telemetry." node satisfies busy + stalls + idle == total;
  * an optional --timeline-csv file has the canonical header and
    well-formed rows with per-(label, frame, source) monotonic cycles,
    and every source of a (label, frame) has the same row count (one
    row per tile);
  * an optional --trace file parses as Chrome trace JSON and contains
    counter ("ph":"C") events with numeric args.value.

Usage:
  python3 scripts/telemetry_report.py stats.json [--baseline other.json]
      [--timeline-csv timeline.csv] [--trace trace.json]
      [--top 3] [--check]
"""

import argparse
import csv
import json
import sys
from pathlib import Path

SCHEMA = "dtexl-stats-v1"
STALL_KEYS = (
    "stall_barrier_wait",
    "stall_no_ready_warp",
    "stall_upstream_starve",
    "stall_downstream_backpressure",
    "stall_mshr_full",
    "stall_bank_conflict",
    "stall_channel_busy",
)
TIMELINE_HEADER = ["label", "frame", "cycle", "source", "value"]

errors = []


def fail(msg):
    errors.append(msg)
    print(f"CHECK FAIL: {msg}", file=sys.stderr)


def load_stats(path):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"{path}: cannot read stats JSON: {e}")
    if doc.get("schema") != SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    nodes = doc.get("nodes")
    if not isinstance(nodes, dict):
        sys.exit(f"{path}: no 'nodes' object")
    return doc


def telemetry_nodes(doc):
    """{run prefix: {unit name: counters}} from the flat node paths."""
    runs = {}
    for path, counters in doc["nodes"].items():
        if ".telemetry." not in path:
            continue
        prefix, unit = path.split(".telemetry.", 1)
        runs.setdefault(prefix, {})[unit] = counters
    return runs


def check_invariants(path, runs):
    if not runs:
        fail(f"{path}: no '.telemetry.' nodes (telemetry=0 run?)")
    for prefix, units in runs.items():
        for unit, c in units.items():
            where = f"{path}: {prefix}.telemetry.{unit}"
            unknown = set(c) - {"busy", "idle", "total"} - set(STALL_KEYS)
            if unknown:
                fail(f"{where}: unexpected keys {sorted(unknown)}")
            accounted = (
                c.get("busy", 0)
                + c.get("idle", 0)
                + sum(c.get(k, 0) for k in STALL_KEYS)
            )
            if accounted != c.get("total", 0):
                fail(f"{where}: busy+stalls+idle = {accounted} != "
                     f"total = {c.get('total', 0)}")


def barrier_wait(units):
    return sum(c.get("stall_barrier_wait", 0) for c in units.values())


def report(runs, top):
    for prefix in sorted(runs):
        units = runs[prefix]
        total = sum(c.get("total", 0) for c in units.values())
        print(f"\n== {prefix} ({len(units)} units, "
              f"{total} unit-cycles accounted) ==")
        print(f"{'unit':<10} {'busy':>7} {'idle':>7}  top stall reasons")
        print("-" * 64)
        for unit in sorted(units):
            c = units[unit]
            t = c.get("total", 0)
            if t == 0:
                continue

            def pct(v):
                return 100.0 * v / t

            stalls = sorted(
                ((k[len("stall_"):], c.get(k, 0)) for k in STALL_KEYS),
                key=lambda kv: kv[1],
                reverse=True,
            )
            tops = "  ".join(
                f"{name} {pct(v):.1f}%" for name, v in stalls[:top] if v
            )
            print(f"{unit:<10} {pct(c.get('busy', 0)):6.1f}% "
                  f"{pct(c.get('idle', 0)):6.1f}%  {tops}")


def report_baseline_delta(runs, base_runs):
    print("\n== barrier-wait delta vs baseline ==")
    for prefix in sorted(runs):
        bw = barrier_wait(runs[prefix])
        # Match by prefix when possible, else compare against the
        # baseline file's single run.
        if prefix in base_runs:
            base = barrier_wait(base_runs[prefix])
        elif len(base_runs) == 1:
            base = barrier_wait(next(iter(base_runs.values())))
        else:
            print(f"{prefix}: no matching baseline run")
            continue
        saved = base - bw
        rel = (100.0 * saved / base) if base else 0.0
        print(f"{prefix}: barrier-wait {bw} vs baseline {base} "
              f"({saved:+d} cycles, {rel:+.1f}%)")


def check_timeline(path):
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        fail(f"{path}: cannot read timeline CSV: {e}")
        return
    if not rows or rows[0] != TIMELINE_HEADER:
        fail(f"{path}: header is {rows[0] if rows else 'missing'}, "
             f"want {TIMELINE_HEADER}")
        return
    if len(rows) == 1:
        fail(f"{path}: no timeline rows (needs a telemetry=2 run)")
    last_cycle = {}
    counts = {}
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 5:
            fail(f"{path}:{i}: {len(row)} columns, want 5")
            continue
        label, frame, cycle, source, value = row
        try:
            frame, cycle, value = int(frame), int(cycle), int(value)
        except ValueError:
            fail(f"{path}:{i}: non-integer frame/cycle/value")
            continue
        key = (label, frame, source)
        if key in last_cycle and cycle < last_cycle[key]:
            fail(f"{path}:{i}: cycle went backwards for {key}")
        last_cycle[key] = cycle
        per_frame = counts.setdefault((label, frame), {})
        per_frame[source] = per_frame.get(source, 0) + 1
    for (label, frame), per_source in sorted(counts.items()):
        if len(set(per_source.values())) > 1:
            fail(f"{path}: {label} frame {frame}: sources have unequal "
                 f"row counts {per_source}")


def check_trace(path):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: cannot read trace JSON: {e}")
        return
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: no traceEvents array")
        return
    n_counters = 0
    last_ts = {}
    for e in events:
        if e.get("ph") != "C":
            continue
        n_counters += 1
        if e.get("cat") != "counter":
            fail(f"{path}: counter event {e.get('name')!r} has "
                 f"cat {e.get('cat')!r}")
        value = e.get("args", {}).get("value")
        if not isinstance(value, (int, float)):
            fail(f"{path}: counter event {e.get('name')!r} lacks a "
                 f"numeric args.value")
        key = (e.get("tid"), e.get("name"))
        ts = e.get("ts", 0)
        if key in last_ts and ts < last_ts[key]:
            fail(f"{path}: counter track {key} timestamps go backwards")
        last_ts[key] = ts
    if n_counters == 0:
        fail(f"{path}: no counter events (needs telemetry=2 + --trace)")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("stats", help="--stats-json output to read")
    ap.add_argument("--baseline",
                    help="second stats JSON to diff barrier-wait against")
    ap.add_argument("--timeline-csv", help="--timeline-csv output to "
                    "validate alongside")
    ap.add_argument("--trace", help="--trace output to validate for "
                    "counter tracks")
    ap.add_argument("--top", type=int, default=3,
                    help="stall reasons shown per unit (default 3)")
    ap.add_argument("--check", action="store_true",
                    help="validate only; exit 1 on any violation")
    args = ap.parse_args()

    doc = load_stats(args.stats)
    runs = telemetry_nodes(doc)
    check_invariants(args.stats, runs)

    if args.timeline_csv:
        check_timeline(args.timeline_csv)
    if args.trace:
        check_trace(args.trace)

    if not args.check:
        report(runs, args.top)
        if args.baseline:
            base_doc = load_stats(args.baseline)
            report_baseline_delta(runs, telemetry_nodes(base_doc))

    if errors:
        print(f"\n{len(errors)} check(s) failed", file=sys.stderr)
        return 1
    if args.check:
        print(f"{args.stats}: OK "
              f"({sum(len(u) for u in runs.values())} telemetry nodes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
