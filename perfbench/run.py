#!/usr/bin/env python3
"""The repository benchmark: Table II frame throughput, dtexld sweep
latency, and an outside-in per-layer host profile.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload table2-dtexl --seed 1 \
      --seconds 20 --trace 0

  --workload  table2-dtexl | table2-baseline | sweep-dtexld | all
  --trace 0   end-to-end metrics (BENCHMARK.json "end_to_end")
  --trace 1   per-layer metrics (BENCHMARK.json "per_layer") and a
              span file under .bench_build/out/

The first run builds the simulator (Release) into .bench_build/. The
last line of standard output is one JSON object: correct, attempted,
failed, metrics. Exit status: 0 ok, 1 a correctness check failed,
2 the run could not be made (missing sources, build failure, refusal).
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import build  # noqa: E402
import workloads  # noqa: E402
from build import OUT_DIR, ROOT, BenchError  # noqa: E402


def metric_spec(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def emit(name, seed, trace, prov, res, wall_s):
    """Print the table, save the full record, print the JSON line."""
    print(f"perfbench: workload={name} seed={seed} trace={trace}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    metrics = {}
    missing = []
    for m in metric_spec(trace):
        if m["name"] not in res.metrics:
            missing.append(m["name"])
            continue
        value, unit, n = res.metrics[m["name"]]
        if unit != m["unit"]:
            missing.append(f"{m['name']} (unit {unit} != {m['unit']})")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<30} {value:>14.6g} {unit:<10} n={n}")
    for key, val in res.extra.items():
        if isinstance(val, tuple):
            print(f"  {key:<30} {val[0]:>14.6g} {val[1]:<10} n={val[2]}")
        else:
            print(f"  {key:<30} {val}")
    for m in missing:
        res.check(False, f"metric not produced: {m}")
    correct = not res.errors
    for e in res.errors[:20]:
        print(f"CHECK FAIL: {e}")
    print(f"correctness: {'ok' if correct else 'FAILED'}; "
          f"run wall {wall_s:.1f} s")
    record = {"workload": name, "seed": seed, "trace": trace,
              "provenance": prov, "errors": res.errors,
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in res.metrics.items()},
              "extra": {k: list(v) if isinstance(v, tuple) else v
                        for k, v in res.extra.items()}}
    (OUT_DIR / f"result-{name}-{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return correct


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny screens and passes (benchmark self-test)")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    try:
        bin_dir = build.build()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        prov = build.provenance(bin_dir, args.seed)
        names = (sorted(workloads.WORKLOADS) if args.workload == "all"
                 else [args.workload])
        ok = True
        for name in names:
            t0 = time.monotonic()
            res = workloads.run(bin_dir, name, args.seed, args.seconds,
                                args.trace, args.smoke)
            ok &= emit(name, args.seed, args.trace, prov, res,
                       time.monotonic() - t0)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
