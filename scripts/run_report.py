#!/usr/bin/env python3
"""Validator / summarizer for the run-event ledger (--events=FILE).

The ledger is append-only JSONL, schema "dtexl-events-v1" (see
DESIGN.md "Run observability"): one event per line, a monotonic `seq`
assigned under the event bus lock, wall timestamps, and a typed
`event` field drawn from a closed vocabulary.

Default mode prints a per-sweep summary: per-job wall time and
frame/cycle totals, the cache hit rate, an error breakdown by kind,
and the slowest frames of the run.

--check turns the script into a CI validator (exit 1 on any
violation):

  * every line parses as JSON and carries seq/ts_ms/t_ms/event;
  * the first event is run_start with the expected schema marker;
  * seq is exactly 0..N-1 in file order;
  * every event name is in the vocabulary, job-scoped events name
    their job, and per-kind required fields are present;
  * the last event is run_end and its totals agree with the counted
    job_submit/job_complete/job_error events;
  * optional --expect-jobs / --expect-errors pin the sweep shape.

--canon prints a canonical form for cross-run comparison: volatile
fields (seq, timestamps, wall times, worker ids, argv/host metadata)
are stripped and the remaining lines sorted, so two ledgers of the
same sweep compare equal for ANY --jobs value:

  diff <(run_report.py a.jsonl --canon) <(run_report.py b.jsonl --canon)

Usage:
  python3 scripts/run_report.py events.jsonl [--check] [--canon]
      [--expect-jobs N] [--expect-errors N] [--top 5]
"""

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "dtexl-events-v1"

EVENTS = {
    "run_start",
    "job_submit",
    "job_start",
    "job_frame",
    "job_checkpoint",
    "job_cache_hit",
    "job_cache_miss",
    "job_cache_store",
    "job_resume",
    "job_complete",
    "job_error",
    "watchdog",
    "run_end",
}

# Fields required per event kind, beyond the common envelope.
REQUIRED = {
    "run_start": ["args", "config", "build"],
    "job_submit": ["index", "frames"],
    "job_start": ["worker"],
    "job_frame": ["frame", "cycles", "wall_ms"],
    "job_checkpoint": ["frames_done"],
    "job_cache_hit": ["key"],
    "job_cache_miss": ["key"],
    "job_cache_store": ["key"],
    "job_resume": ["key"],
    "job_complete": ["frames", "cycles", "wall_ms", "cached"],
    "job_error": ["kind", "error"],
    "watchdog": ["error"],
    "run_end": ["jobs", "ok", "failed", "frames", "cache_hits"],
}

# Events that must carry a "job" label.
JOB_SCOPED = EVENTS - {"run_start", "run_end"}

# Stripped by --canon: host-execution artifacts that legitimately vary
# between runs of the same sweep. "simd" (the host SIMD mode, which
# run_start no longer records) stays listed so that ledgers written
# while it existed still canon-compare equal to current ones.
VOLATILE = {"seq", "ts_ms", "t_ms", "wall_ms", "worker"}
VOLATILE_RUN_START = {"args", "pid", "host", "nproc", "simd"}

errors = []


def fail(msg):
    errors.append(msg)
    print(f"CHECK FAIL: {msg}", file=sys.stderr)


def load(path):
    events = []
    try:
        text = Path(path).read_text()
    except OSError as e:
        sys.exit(f"{path}: cannot read ledger: {e}")
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            ev = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{lineno}: not JSON: {e}")
            continue
        if not isinstance(ev, dict):
            fail(f"{path}:{lineno}: not a JSON object")
            continue
        ev["_line"] = lineno
        events.append(ev)
    if not events:
        sys.exit(f"{path}: empty ledger")
    return events


def validate(path, events, expect_jobs, expect_errors):
    for ev in events:
        line = ev["_line"]
        for field in ("seq", "ts_ms", "t_ms", "event"):
            if field not in ev:
                fail(f"{path}:{line}: missing '{field}'")
        name = ev.get("event")
        if name not in EVENTS:
            fail(f"{path}:{line}: unknown event {name!r}")
            continue
        if name in JOB_SCOPED and not ev.get("job"):
            fail(f"{path}:{line}: {name} without a 'job'")
        for field in REQUIRED.get(name, []):
            if field not in ev:
                fail(f"{path}:{line}: {name} missing '{field}'")

    first, last = events[0], events[-1]
    if first.get("event") != "run_start":
        fail(f"{path}: first event is {first.get('event')!r}, "
             "want 'run_start'")
    elif first.get("schema") != SCHEMA:
        fail(f"{path}: schema is {first.get('schema')!r}, "
             f"want {SCHEMA!r}")
    if last.get("event") != "run_end":
        fail(f"{path}: last event is {last.get('event')!r}, "
             "want 'run_end' (truncated run?)")

    seqs = [ev.get("seq") for ev in events]
    if seqs != list(range(len(events))):
        fail(f"{path}: seq is not 0..{len(events) - 1} in file order")

    submits = sum(1 for ev in events if ev.get("event") == "job_submit")
    completes = sum(
        1 for ev in events if ev.get("event") == "job_complete")
    errs = sum(1 for ev in events if ev.get("event") == "job_error")
    if last.get("event") == "run_end":
        if last.get("jobs") != submits:
            fail(f"{path}: run_end jobs={last.get('jobs')} but "
                 f"{submits} job_submit event(s)")
        if last.get("ok") != completes:
            fail(f"{path}: run_end ok={last.get('ok')} but "
                 f"{completes} job_complete event(s)")
        if last.get("failed") != errs:
            fail(f"{path}: run_end failed={last.get('failed')} but "
                 f"{errs} job_error event(s)")
    if expect_jobs is not None and submits != expect_jobs:
        fail(f"{path}: expected {expect_jobs} job(s), ledger has "
             f"{submits}")
    if expect_errors is not None and errs != expect_errors:
        fail(f"{path}: expected {expect_errors} error(s), ledger has "
             f"{errs}")


def canon(events):
    lines = []
    for ev in events:
        name = ev.get("event")
        drop = VOLATILE | {"_line"}
        if name == "run_start":
            drop = drop | VOLATILE_RUN_START
        kept = {k: v for k, v in ev.items() if k not in drop}
        lines.append(json.dumps(kept, sort_keys=True))
    return sorted(lines)


def summarize(path, events, top):
    run_start = events[0] if events[0].get("event") == "run_start" else {}
    print(f"ledger: {path}")
    if run_start:
        print(f"  build  {run_start.get('build')}   "
              f"config {run_start.get('config')}")
        if "simd" in run_start:
            print(f"  simd   {run_start['simd']}")
        print(f"  args   {run_start.get('args')}")

    jobs = {}  # label -> dict
    frames = []  # (wall_ms, job, frame)
    cache = {"hit": 0, "miss": 0, "store": 0, "resume": 0}
    error_kinds = {}
    for ev in events:
        name = ev.get("event")
        job = ev.get("job", "")
        if name == "job_submit":
            jobs.setdefault(job, {"frames": ev.get("frames", 0)})
        elif name == "job_frame":
            frames.append((ev.get("wall_ms", 0.0), job,
                           ev.get("frame", 0)))
        elif name == "job_complete":
            jobs.setdefault(job, {})
            jobs[job].update(wall=ev.get("wall_ms", 0.0),
                             cycles=ev.get("cycles", 0),
                             done=ev.get("frames", 0),
                             cached=bool(ev.get("cached")),
                             ok=True)
        elif name == "job_error":
            jobs.setdefault(job, {})
            jobs[job].update(ok=False, error=ev.get("error", ""),
                             kind=ev.get("kind", "?"))
            error_kinds[ev.get("kind", "?")] = (
                error_kinds.get(ev.get("kind", "?"), 0) + 1)
        elif name == "job_cache_hit":
            cache["hit"] += 1
        elif name == "job_cache_miss":
            cache["miss"] += 1
        elif name == "job_cache_store":
            cache["store"] += 1
        elif name == "job_resume":
            cache["resume"] += 1

    print(f"\n  {'job':<16} {'status':<10} {'frames':>6} "
          f"{'cycles':>12} {'wall ms':>10}")
    for label, j in jobs.items():
        if j.get("ok") is False:
            status = f"FAILED:{j.get('kind', '?')}"
        elif j.get("cached"):
            status = "cached"
        else:
            status = "ok"
        print(f"  {label:<16} {status:<10} {j.get('done', 0):>6} "
              f"{j.get('cycles', 0):>12} {j.get('wall', 0.0):>10.1f}")

    looked_up = cache["hit"] + cache["miss"]
    if looked_up:
        rate = 100.0 * cache["hit"] / looked_up
        print(f"\n  cache: {cache['hit']} hit(s), {cache['miss']} "
              f"miss(es), {cache['store']} store(s), "
              f"{cache['resume']} resume(s) — {rate:.0f}% hit rate")
    if error_kinds:
        breakdown = ", ".join(
            f"{k}: {n}" for k, n in sorted(error_kinds.items()))
        print(f"  errors: {breakdown}")
    if frames:
        frames.sort(reverse=True)
        print(f"\n  slowest frame(s):")
        for wall, job, frame in frames[:top]:
            print(f"    {job} frame {frame}: {wall:.1f} ms")


def main():
    ap = argparse.ArgumentParser(
        description="validate / summarize a dtexl-events-v1 ledger")
    ap.add_argument("ledger", help="JSONL file from --events=FILE")
    ap.add_argument("--check", action="store_true",
                    help="validate; exit 1 on any violation")
    ap.add_argument("--canon", action="store_true",
                    help="print the canonical (order/host-invariant) "
                         "form for cross-run diffs")
    ap.add_argument("--expect-jobs", type=int, default=None,
                    help="with --check: require exactly N job_submit "
                         "events")
    ap.add_argument("--expect-errors", type=int, default=None,
                    help="with --check: require exactly N job_error "
                         "events")
    ap.add_argument("--top", type=int, default=5,
                    help="slowest frames to list (default 5)")
    args = ap.parse_args()

    events = load(args.ledger)
    if args.canon:
        for line in canon(events):
            print(line)
        return
    validate(args.ledger, events, args.expect_jobs, args.expect_errors)
    if args.check:
        if errors:
            sys.exit(f"{len(errors)} check(s) failed")
        print(f"{args.ledger}: OK ({len(events)} events)")
        return
    summarize(args.ledger, events, args.top)


if __name__ == "__main__":
    main()
