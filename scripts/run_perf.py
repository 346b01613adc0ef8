#!/usr/bin/env python3
"""Simulator-throughput benchmark: emits BENCH_perf.json.

Runs sim_cli on a set of figure benchmarks and records, per benchmark:

  * simulated cycles,
  * wall time of the simulation phase (scene generation excluded),
  * a per-phase wall-time breakdown (geometry front-end vs raster)
    from the engine's job.<label>.{geometry,raster}.wall_us counters,
  * simulator throughput in Mcycles/s (key mcycles_per_s_fast, the
    name committed BENCH_perf.json files carry),
  * the wall-time overhead of telemetry=1 (stall attribution) relative
    to a plain run, gated at --max-telemetry-overhead (1.05x),
  * the wall-time overhead of the run-event ledger (--events
    --progress) relative to a plain run, gated at the same budget; the
    ledger must terminate in run_end and must not change any simulated
    statistic.

The report also embeds host metadata (CPU model, logical and physical
core counts, compiler) so committed BENCH_perf.json numbers carry
their provenance, and --baseline FILE arms a regression gate: the run
fails if the geomean Mcycles/s drops more than --max-regression
(default 15%) below the baseline file's.

Every per-frame statistics line printed by sim_cli (cycles, quads,
cache/DRAM accesses, energy) must be byte-identical across repeats and
under telemetry and the ledger; any divergence fails the script. Wall
time is taken as the best of --repeat attempts to damp scheduler noise.

Usage:
  python3 scripts/run_perf.py [--build-dir build] [--out BENCH_perf.json]
      [--benches GTr,SWa,CCS,SoD] [--frames 2] [--width 980]
      [--height 384] [--repeat 3] [--baseline BENCH_perf.json]
      [--max-regression 0.15]

Requires a Release build (cmake -DCMAKE_BUILD_TYPE=Release); Debug
timings are not meaningful and the script refuses obvious Debug trees.
"""

import argparse
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SUMMARY_RE = re.compile(
    r"^(?P<label>\S+) summary: (?P<frames>\d+) frame\(s\), "
    r"(?P<cycles>\d+) sim cycles, (?P<wall>[0-9.]+) ms wall, "
    r"(?P<mcps>[0-9.]+) Mcycles/s$"
)
FRAME_RE = re.compile(r"^\S+ frame \d+: ")


def run_sim(sim_cli, alias, frames, width, height, telemetry=0,
            phases=False, events=False):
    cmd = [
        str(sim_cli),
        f"--bench={alias}",
        f"--frames={frames}",
        "--preset=dtexl",
        f"width={width}",
        f"height={height}",
        f"telemetry={telemetry}",
        # Perf numbers must measure the simulator, never the result
        # cache: a warm cache would skip simulation entirely (see
        # EXPERIMENTS.md "Result cache & perf methodology").
        "--cache=off",
    ]
    events_path = None
    if events:
        fd, events_path = tempfile.mkstemp(suffix=".jsonl",
                                           prefix="run_perf_events_")
        os.close(fd)
        cmd += [f"--events={events_path}", "--progress"]
    stats_path = None
    if phases:
        fd, stats_path = tempfile.mkstemp(suffix=".json",
                                          prefix="run_perf_stats_")
        os.close(fd)
        cmd.append(f"--stats-json={stats_path}")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, check=True
        )
        summary = None
        frame_lines = []
        for line in proc.stdout.splitlines():
            m = SUMMARY_RE.match(line)
            if m:
                summary = m
            elif FRAME_RE.match(line):
                frame_lines.append(line)
        if summary is None:
            sys.exit(f"no summary line in sim_cli output:\n{proc.stdout}")
        result = {
            "cycles": int(summary["cycles"]),
            "wall_ms": float(summary["wall"]),
            "frame_lines": frame_lines,
        }
        if phases:
            result["phase_wall_ms"] = phase_breakdown(stats_path)
        if events:
            # The ledger must have terminated cleanly (run_end on the
            # last line) even under the perf harness.
            last = ""
            for line in Path(events_path).read_text().splitlines():
                if line.strip():
                    last = line
            if '"event":"run_end"' not in last:
                sys.exit(f"{alias}: events ledger did not end in "
                         f"run_end:\n{last}")
        return result
    finally:
        for path in (stats_path, events_path):
            if path is not None:
                try:
                    os.unlink(path)
                except OSError:
                    pass


def phase_breakdown(stats_path):
    """Geometry/raster host wall time from a --stats-json dump.

    The engine splits the tiling architecture's two phases at the
    Parameter Buffer boundary: "geometry" covers the vertex/assembly/
    binning front-end, "raster" everything from tile fetch to flush.
    """
    nodes = json.loads(Path(stats_path).read_text())["nodes"]
    out = {"geometry": 0.0, "raster": 0.0}
    for path, counters in nodes.items():
        for phase in out:
            if path.endswith("." + phase):
                out[phase] += counters.get("wall_us", 0) / 1e3
    return out


def best_of(sim_cli, alias, frames, width, height, repeat,
            phases=False):
    best = None
    for _ in range(repeat):
        r = run_sim(sim_cli, alias, frames, width, height,
                    phases=phases)
        if best is None or r["wall_ms"] < best["wall_ms"]:
            if best is not None and r["frame_lines"] != best["frame_lines"]:
                sys.exit(f"{alias}: non-deterministic frame stats "
                         f"across repeats")
            best = r
    return best


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def host_metadata(build_dir):
    """CPU model, core count and compiler of the measuring host."""
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    logical = os.cpu_count() or 1
    # Physical cores: unique (physical id, core id) pairs. SMT hosts
    # report 2x the logical count, and throughput claims for the
    # threaded simulator need the distinction; fall back to the
    # logical count when /proc/cpuinfo lacks topology (VMs, non-x86).
    physical = 0
    try:
        pairs = set()
        phys_id = ""
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("physical id"):
                    phys_id = line.split(":", 1)[1].strip()
                elif line.startswith("core id"):
                    pairs.add((phys_id, line.split(":", 1)[1].strip()))
        physical = len(pairs)
    except OSError:
        pass
    meta = {
        "cpu_model": cpu_model,
        "logical_cores": logical,
        "physical_cores": physical or logical,
        "platform": platform.platform(),
    }
    compiler = ""
    cache = Path(build_dir) / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1].strip()
                break
    if compiler:
        try:
            out = subprocess.run([compiler, "--version"],
                                 capture_output=True, text=True)
            first = out.stdout.splitlines()
            meta["compiler"] = first[0] if first else compiler
        except OSError:
            meta["compiler"] = compiler
    return meta


def telemetry_overhead(sim_cli, alias, frames, width, height, repeat,
                       plain_lines):
    """Wall-time ratio of telemetry=1 over telemetry=0.

    The two runs of each repeat execute back to back and only the
    ratio is kept, so slow drift in background machine load cancels;
    the minimum over repeats is reported because noise can only
    inflate a ratio, never deflate the true overhead of both runs at
    once. Also asserts telemetry never changes a simulated statistic.
    """
    best = None
    for _ in range(max(repeat, 2)):
        off = run_sim(sim_cli, alias, frames, width, height)
        on = run_sim(sim_cli, alias, frames, width, height, telemetry=1)
        if on["frame_lines"] != plain_lines:
            print("PLAIN:\n" + "\n".join(plain_lines))
            print("TELEMETRY:\n" + "\n".join(on["frame_lines"]))
            sys.exit(f"{alias}: telemetry=1 changed simulated stats")
        ratio = on["wall_ms"] / off["wall_ms"]
        if best is None or ratio < best:
            best = ratio
    return best


def events_overhead(sim_cli, alias, frames, width, height, repeat,
                    plain_lines):
    """Wall-time ratio of --events --progress over a plain run.

    Same paired-ratio methodology as telemetry_overhead(); also
    asserts the run-event ledger never changes a simulated statistic.
    """
    best = None
    for _ in range(max(repeat, 2)):
        off = run_sim(sim_cli, alias, frames, width, height)
        on = run_sim(sim_cli, alias, frames, width, height, events=True)
        if on["frame_lines"] != plain_lines:
            print("PLAIN:\n" + "\n".join(plain_lines))
            print("EVENTS:\n" + "\n".join(on["frame_lines"]))
            sys.exit(f"{alias}: --events changed simulated stats")
        ratio = on["wall_ms"] / off["wall_ms"]
        if best is None or ratio < best:
            best = ratio
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--out", default="BENCH_perf.json")
    ap.add_argument("--benches", default="GTr,SWa,CCS,SoD")
    ap.add_argument("--frames", type=int, default=2)
    ap.add_argument("--width", type=int, default=980)
    ap.add_argument("--height", type=int, default=384)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--max-telemetry-overhead", type=float, default=1.05,
                    help="fail if geomean telemetry=1 wall-time "
                         "overhead exceeds this ratio")
    ap.add_argument("--baseline", default=None,
                    help="committed BENCH_perf.json to gate against")
    ap.add_argument("--max-regression", type=float, default=0.15,
                    help="fail if geomean Mcycles/s drops more than "
                         "this fraction below --baseline")
    args = ap.parse_args()

    # Read the baseline before any run (and before --out, which may be
    # the same file, is overwritten).
    baseline = None
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())

    build = Path(args.build_dir)
    sim_cli = build / "examples" / "sim_cli"
    if not sim_cli.exists():
        sys.exit(f"{sim_cli} not found; build the repo first")
    cache = build / "CMakeCache.txt"
    if cache.exists() and "CMAKE_BUILD_TYPE:STRING=Debug" in cache.read_text():
        sys.exit("refusing to benchmark a Debug build tree")

    benches = []
    for alias in args.benches.split(","):
        alias = alias.strip()
        if not alias:
            continue
        print(f"== {alias} ({args.frames} frames at "
              f"{args.width}x{args.height}) ==", flush=True)
        run = best_of(sim_cli, alias, args.frames, args.width,
                      args.height, args.repeat, phases=True)
        overhead = telemetry_overhead(sim_cli, alias, args.frames,
                                      args.width, args.height,
                                      args.repeat, run["frame_lines"])
        ev_overhead = events_overhead(sim_cli, alias, args.frames,
                                      args.width, args.height,
                                      args.repeat, run["frame_lines"])

        entry = {
            "alias": alias,
            "frames": args.frames,
            "sim_cycles": run["cycles"],
            "wall_ms_fast": run["wall_ms"],
            "mcycles_per_s_fast": run["cycles"] / run["wall_ms"] / 1e3,
            "telemetry_overhead": overhead,
            "events_overhead": ev_overhead,
            "phase_wall_ms": run["phase_wall_ms"],
        }
        benches.append(entry)
        print(f"   {run['wall_ms']:9.1f} ms "
              f"({entry['mcycles_per_s_fast']:6.2f} Mcycles/s) | "
              f"telemetry {overhead:.3f}x | "
              f"events {ev_overhead:.3f}x", flush=True)

    if not benches:
        sys.exit("no benchmarks selected")

    overheads = [b["telemetry_overhead"] for b in benches]
    report = {
        "generated_by": "scripts/run_perf.py",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": host_metadata(args.build_dir),
        "config": {
            "width": args.width,
            "height": args.height,
            "frames": args.frames,
            "preset": "dtexl",
            "repeat": args.repeat,
            "jobs": 1,
        },
        "benches": benches,
        "geomean_mcycles_per_s_fast": geomean(
            [b["mcycles_per_s_fast"] for b in benches]
        ),
        "geomean_telemetry_overhead": geomean(overheads),
        "geomean_events_overhead": geomean(
            [b["events_overhead"] for b in benches]
        ),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}: geomean "
          f"{report['geomean_mcycles_per_s_fast']:.2f} Mcycles/s, "
          f"telemetry overhead "
          f"{report['geomean_telemetry_overhead']:.3f}x")

    if baseline is not None:
        base_benches = {b["alias"]: b for b in baseline["benches"]}
        shared = [b["alias"] for b in benches
                  if b["alias"] in base_benches]
        if not shared:
            sys.exit("--baseline shares no benchmarks with this run")
        base_g = geomean(
            [base_benches[a]["mcycles_per_s_fast"] for a in shared]
        )
        new_g = geomean(
            [b["mcycles_per_s_fast"] for b in benches
             if b["alias"] in base_benches]
        )
        ratio = new_g / base_g
        report["baseline_geomean_mcycles_per_s_fast"] = base_g
        report["vs_baseline"] = ratio
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"perf gate: {new_g:.3f} vs baseline {base_g:.3f} "
              f"Mcycles/s geomean ({ratio:.2f}x, floor "
              f"{1.0 - args.max_regression:.2f}x)")
        if ratio < 1.0 - args.max_regression:
            print(f"ERROR: geomean throughput regressed "
                  f"{(1.0 - ratio) * 100:.1f}% vs {args.baseline} "
                  f"(budget {args.max_regression * 100:.0f}%)",
                  file=sys.stderr)
            return 1

    if report["geomean_telemetry_overhead"] > args.max_telemetry_overhead:
        print(f"ERROR: telemetry=1 geomean overhead "
              f"{report['geomean_telemetry_overhead']:.3f}x exceeds the "
              f"{args.max_telemetry_overhead:.2f}x budget",
              file=sys.stderr)
        return 1
    if report["geomean_events_overhead"] > args.max_telemetry_overhead:
        print(f"ERROR: --events geomean overhead "
              f"{report['geomean_events_overhead']:.3f}x exceeds the "
              f"{args.max_telemetry_overhead:.2f}x budget",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
