"""The benchmark's workloads and how each one's metrics are computed.

Every workload reports every end-to-end metric (untraced run) and
every per-layer metric (traced run); README.md gives each metric's
meaning on each workload. A Result collects metric values, sample
counts, op counts and correctness failures.
"""

import json
import shutil
import statistics
import subprocess
from pathlib import Path

import stats
import sweep
from build import OUT_DIR, ROOT, BenchError

WORKLOADS = {
    # traced_frames: fixed frame count per scene of a traced run.
    # warm_passes: warm passes of the traced run's daemon pass.
    "table2-dtexl": {
        "kind": "frames", "preset": "dtexl", "bench": ["GTr", "CCS"],
        "width": 1960, "height": 768, "traced_frames": 3,
        "warm_passes": 50,
    },
    "table2-baseline": {
        "kind": "frames", "preset": "baseline", "bench": ["RoK", "CRa"],
        "width": 1960, "height": 768, "traced_frames": 3,
        "warm_passes": 50,
    },
    # 10 games x 8 variants x 2 presets = 160 cold jobs; at least 10
    # warm passes. Both leave more than ten samples beyond the p90 and
    # p99 the sweep reports.
    "sweep-dtexld": {
        "kind": "sweep", "presets": ["baseline", "dtexl"],
        "width": 640, "height": 288, "variants": 8, "warm_passes": 10,
    },
}

# Smoke sizes (--smoke): every code path and check, tiny inputs.
SMOKE = {"width": 128, "height": 64, "variants": 1, "warm_passes": 2,
         "traced_frames": 2, "smoke": True}

SETUP_REPS = 7            # frame workloads: set-up is milliseconds
SWEEP_SETUP_REPS = 5      # daemon launches per sweep run
VERIFY_THREADS = 4


class Result:
    def __init__(self):
        self.metrics = {}   # name -> (value, unit, samples)
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.extra = {}     # printed, not part of the JSON metrics

    def put(self, name, value, unit, n):
        self.metrics[name] = (float(value), unit, int(n))

    def check(self, ok, msg):
        if not ok:
            self.errors.append(msg)
            self.failed += 1


def rel(path):
    """Path relative to the checkout root (the processes' cwd)."""
    return str(Path(path).resolve().relative_to(ROOT))


def run_driver(bin_dir, args):
    r = subprocess.run([str(bin_dir / "perfbench_driver")] + args,
                       capture_output=True, text=True)
    if r.returncode != 0:
        raise BenchError(f"perfbench_driver {args[0]} failed "
                         f"({r.returncode}): {r.stderr.strip()[-2000:]}")


def fresh_dir(path):
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def digest_check(res, key, digest):
    """Outputs of one seed must be identical across runs: the first run
    of a seed records them, later runs (traced or not) compare."""
    path = OUT_DIR / "digests" / f"{key}.json"
    if path.is_file():
        old = json.loads(path.read_text())
        for name, want in old.items():
            if name in digest:
                res.check(digest[name] == want,
                          f"{key}: {name} differs from an earlier run of "
                          f"this seed")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(digest, sort_keys=True))


# ---------------------------------------------------------------------
# Per-layer arithmetic shared by the workloads
# ---------------------------------------------------------------------

MODEL_FIELDS = {
    "model.l1tex_accesses": ("l1TexAccesses", "count"),
    "model.l2_accesses": ("l2Accesses", "count"),
    "model.dram_accesses": ("dramAccesses", "count"),
    "model.quads_shaded": ("quadsShaded", "count"),
    "model.quads_culled_ez": ("quadsCulledEarlyZ", "count"),
    "model.barrier_wait_cycles": ("barrierIdleTotal", "cycles"),
}


def put_model(res, frames, sc_busy):
    """Simulated counts, mean per frame over the workload's frames. They
    depend only on the seed and must repeat exactly."""
    n = len(frames)
    res.put("model.cycles_per_frame",
            sum(f["totalCycles"] for f in frames) / n, "cycles", n)
    for name, (field, unit) in MODEL_FIELDS.items():
        res.put(name, sum(f[field] for f in frames) / n, unit, n)
    res.put("model.texture_replication",
            sum(f["textureReplication"] for f in frames) / n, "ratio", n)
    res.put("model.sc_busy_frac", sum(sc_busy) / len(sc_busy), "ratio",
            len(sc_busy))


def put_replay(res, replays, frames, raster_ms):
    """Layer costs from the replay harness, and the part of the raster
    phase the replay does not cover (shader-core event loop, Early-Z,
    blend and bank flush): raster wall time minus each replayed layer's
    per-op cost times the frame's own op count."""
    for r in replays:
        res.check(r["mismatch"] == "", f"replay cross-check: {r['mismatch']}")
    tot = {k: sum(r[k] for r in replays) for k in replays[0]
           if k != "mismatch"}
    n = len(replays)
    per = {
        "raster": tot["raster_ns"] / tot["quads"],
        "texture": tot["texture_ns"] / tot["textured_quads"],
        "l1": tot["l1_self_ns"] / tot["l1_accesses"],
        "l2": tot["l2_self_ns"] / max(1, tot["l2_accesses"]),
        "dram": tot["dram_ns"] / max(1, tot["dram_accesses"]),
    }
    res.put("sfc.tile_order_us", tot["tile_order_us"] / n, "us", n)
    res.put("tiling.overlap_ns_per_prim", tot["overlap_ns"] / tot["prims"],
            "ns", tot["prims"])
    res.put("tiling.bins_per_prim", tot["bins"] / tot["prims"], "count",
            tot["prims"])
    res.put("raster.ns_per_quad", per["raster"], "ns", tot["quads"])
    res.put("raster.quads", tot["quads"] / n, "count", n)
    res.put("texture.ns_per_quad", per["texture"], "ns",
            tot["textured_quads"])
    res.put("texture.lines_per_quad",
            tot["tex_lines"] / tot["textured_quads"], "count",
            tot["textured_quads"])
    res.put("mem.l1.ns_per_access", per["l1"], "ns", tot["l1_accesses"])
    res.put("mem.l1.accesses", tot["l1_accesses"] / n, "count", n)
    res.put("mem.l2.ns_per_access", per["l2"], "ns", tot["l2_accesses"])
    res.put("mem.l2.accesses", tot["l2_accesses"] / n, "count", n)
    res.put("mem.dram.ns_per_access", per["dram"], "ns",
            tot["dram_accesses"])
    res.put("mem.dram.accesses", tot["dram_accesses"] / n, "count", n)
    unreplayed = []
    for f, ms in zip(frames, raster_ms):
        replayed_ns = (per["raster"] * f["quadsRasterized"] +
                       per["texture"] * f["quadsShaded"] +
                       per["l1"] * f["l1TexAccesses"] +
                       per["l2"] * f["l2Accesses"] +
                       per["dram"] * f["dramAccesses"])
        unreplayed.append(ms - replayed_ns / 1e6)
    res.put("core.raster_unreplayed_ms", statistics.median(unreplayed),
            "ms", len(unreplayed))


def put_serve(res, raw):
    """serve.*, cache.* and obs.* from one daemon pass."""
    lay = sweep.ledger_layers(raw)
    cold_lat = [r["latency_ms"] for r in raw["cold"]]
    hit_lat = [r["latency_ms"] for r in raw["warm"]]
    admits = [r["admit_ms"] for r in raw["cold"] + raw["warm"]]
    res.put("serve.admit_ms", statistics.median(admits), "ms", len(admits))
    for name, key in (("serve.queue_wait_ms", "cold.queue_wait_ms"),
                      ("serve.run_ms", "cold.run_ms"),
                      ("serve.overhead_ms", "warm.overhead_ms"),
                      ("cache.lookup_ms", "warm.lookup_ms"),
                      ("cache.store_ms", "cold.store_ms")):
        res.put(name, statistics.median(lay[key]), "ms", len(lay[key]))
    res.put("serve.rejected", raw["counters"].get("rejected", 0), "count",
            raw["counters"].get("submits", 0))
    res.put("serve.cold_job_ms_p50", stats.percentile(cold_lat, 50), "ms",
            len(cold_lat))
    res.put("serve.hit_ms_p50", stats.percentile(hit_lat, 50), "ms",
            len(hit_lat))
    res.put("serve.hit_ms_p99", stats.percentile(hit_lat, 99), "ms",
            len(hit_lat))
    warm_hits = lay["warm.hits"]
    res.put("cache.hit_rate", sum(warm_hits) / len(warm_hits), "ratio",
            len(warm_hits))
    res.check(sum(lay["cold.hits"]) == 0,
              "cold pass hit the result cache")
    res.check(all(warm_hits), "warm pass missed the result cache")
    res.put("obs.events_per_job",
            statistics.mean(lay["warm.events"]), "count",
            len(lay["warm.events"]))
    res.put("obs.ledger_bytes_per_job", statistics.mean(lay["warm.bytes"]),
            "bytes", len(lay["warm.bytes"]))
    return lay


def check_sweep_outcomes(res, raw, specs, expected):
    """Every job done on its first attempt; each warm hit equal to its
    cold result; each cold result equal to `expected[spec index]`
    (cycles, image hash); the ledger passes run_report.py --check."""
    for msg in sweep.outcome_failures(raw):
        res.check(False, f"job outcome: {msg}")
    by_label = {j["job"]: j for j in raw["status"]}

    def result(rec):
        j = by_label.get(rec["label"], {})
        return (j.get("cycles"), j.get("image_hash"))

    cold = {rec["spec"]: result(rec) for rec in raw["cold"]}
    for rec in raw["cold"]:
        res.check(cold[rec["spec"]] == expected[rec["spec"]],
                  f"{rec['label']}: daemon result {cold[rec['spec']]} != "
                  f"in-process {expected[rec['spec']]}")
    for rec in raw["warm"]:
        res.check(result(rec) == cold[rec["spec"]],
                  f"{rec['label']}: warm hit differs from its cold result")
    ok, log = sweep.check_ledger(ROOT, raw["ledger"],
                                 len(raw["cold"]) + len(raw["warm"]))
    res.check(ok, f"run_report.py --check failed: {log}")
    res.attempted += raw["counters"].get("submits", 0)
    res.failed += raw["counters"].get("rejected", 0)
    return cold


# ---------------------------------------------------------------------
# Frame workloads
# ---------------------------------------------------------------------

def frames_untraced(bin_dir, name, w, seed, seconds):
    res = Result()
    out = OUT_DIR / f"{name}-{seed}-frames.json"
    run_driver(bin_dir, [
        "frames", "--preset", w["preset"], "--bench", ",".join(w["bench"]),
        "--seed", str(seed), "--seconds", str(seconds),
        "--width", str(w["width"]), "--height", str(w["height"]),
        "--setup-reps", str(SETUP_REPS), "--trace", "0", "--out", str(out)])
    raw = json.loads(out.read_text())
    scenes = raw["scenes"]
    frame_ms = [s["frame_ms"] for s in scenes]
    n = sum(len(f) for f in frame_ms)
    res.put("setup_s", statistics.median(raw["setup_s"]), "s",
            len(raw["setup_s"]))
    # Per-scene medians, not totals: a host that stalls for a few
    # seconds moves a median frame far less than the run's sum.
    res.put("host_mcycles_per_s",
            stats.ratio(sum(statistics.median(s["cycles"]) for s in scenes),
                        sum(statistics.median(f) for f in frame_ms) * 1e3),
            "Mcycles/s", n)
    res.put("frame_ms_p50", stats.mean_of_medians(frame_ms), "ms", n)
    res.put("peak_rss_mb", raw["peak_rss_mb"], "MB", 1)
    res.attempted = n + len(scenes)  # timed frames + warm-up frames
    for s in scenes:
        res.check(all(c > 0 for c in s["cycles"]),
                  f"{s['bench']}: a frame simulated zero cycles")
    digest_check(res, f"{name}-{seed}-{w['width']}x{w['height']}",
                 {s["bench"]: s["stats"] for s in scenes})
    res.extra["frames_per_scene"] = {s["bench"]: len(s["frame_ms"])
                                     for s in scenes}
    return res


def frames_traced(bin_dir, name, w, seed, spans):
    res = Result()
    work = fresh_dir(OUT_DIR / f"{name}-{seed}-traced")
    out = work / "frames.json"
    frames = w["traced_frames"]
    run_driver(bin_dir, [
        "frames", "--preset", w["preset"], "--bench", ",".join(w["bench"]),
        "--seed", str(seed), "--seconds", "0", "--frames", str(frames),
        "--width", str(w["width"]), "--height", str(w["height"]),
        "--trace", "1", "--scene-dir", str(work),
        "--spans", str(work / "driver-spans.json"), "--out", str(out)])
    raw = json.loads(out.read_text())
    plain, traced = raw["untraced"], raw["traced"]
    res.attempted = 2 * frames * len(w["bench"]) + len(w["bench"])
    for b, p, t in zip(w["bench"], plain, traced):
        res.check(p["stats"] == t["stats"],
                  f"{b}: traced FrameStats differ from untraced")
    digest_check(res, f"{name}-{seed}-{w['width']}x{w['height']}",
                 {b: t["stats"][:2] for b, t in zip(w["bench"], traced)})

    res.put("workloads.scene_gen_ms", statistics.median(raw["scene_gen_ms"]),
            "ms", len(raw["scene_gen_ms"]))
    res.put("workloads.scene_load_ms",
            statistics.median(raw["scene_load_ms"]), "ms",
            len(raw["scene_load_ms"]))
    res.put("core.sim_construct_ms",
            statistics.median(raw["sim_construct_ms"]), "ms",
            len(raw["sim_construct_ms"]))
    # Per-frame phase times of the warm frames (frame 0 fills caches).
    geo = [t["geometry_ms"][1:] for t in traced]
    ras = [t["raster_ms"][1:] for t in traced]
    nwarm = sum(len(g) for g in geo)
    res.put("core.geometry_ms", stats.mean_of_medians(geo), "ms", nwarm)
    res.put("core.raster_ms", stats.mean_of_medians(ras), "ms", nwarm)
    warm_stats = [t["stats"][1] for t in traced]
    put_replay(res, raw["replay"], warm_stats,
               [statistics.median(r) for r in ras])
    put_model(res, warm_stats, [t["sc_busy_frac"] for t in traced])
    res.put("trace.overhead_ratio",
            stats.ratio(sum(sum(t["frame_ms"]) for t in traced),
                        sum(sum(p["frame_ms"]) for p in plain)),
            "ratio", 2 * frames * len(traced))

    # The same scenes through dtexld: serve/cache/obs layers on Table II
    # sized jobs. Cold results must equal the in-process frame 0.
    specs = [{"scene": rel(work / f"{b}.scene"), "preset": w["preset"],
              "width": w["width"], "height": w["height"]}
             for b in w["bench"]]
    expected = [(t["stats"][0]["totalCycles"], t["stats"][0]["imageHash"])
                for t in traced]
    raw_d = sweep.run_sweep(
        bin_dir / "dtexld", work / "daemon", specs, seconds=0, trace=True,
        spans=spans, setup_reps=1, min_warm_passes=w["warm_passes"])
    put_serve(res, raw_d)
    check_sweep_outcomes(res, raw_d, specs, expected)
    return res, [("driver", work / "driver-spans.json")]


# ---------------------------------------------------------------------
# Sweep workload
# ---------------------------------------------------------------------

def sweep_inputs(bin_dir, w, seed, work):
    scenes = fresh_dir(work / "scenes")
    out = work / "scenes.json"
    run_driver(bin_dir, [
        "gen-scenes", "--seed", str(seed), "--width", str(w["width"]),
        "--height", str(w["height"]), "--variants", str(w["variants"]),
        "--out-dir", str(scenes), "--out", str(out)])
    gen = json.loads(out.read_text())
    specs = [{"scene": rel(f), "preset": p, "width": w["width"],
              "height": w["height"]}
             for f in gen["files"] for p in w["presets"]]
    return specs, gen


def verify_in_process(bin_dir, specs, work, trace, replay_first=0):
    """Each spec through an in-process SimulationSession."""
    jobs = work / ("verify-traced.txt" if trace else "verify.txt")
    jobs.write_text("".join(
        f"{s['preset']} {s['width']} {s['height']} "
        f"{1 if i < replay_first else 0} {s['scene']}\n"
        for i, s in enumerate(specs)))
    out = work / ("verify-traced.json" if trace else "verify.json")
    run_driver(bin_dir, [
        "verify-jobs", "--jobs", str(jobs), "--threads",
        str(VERIFY_THREADS), "--trace", "1" if trace else "0",
        "--spans", str(work / "driver-spans.json"), "--out", str(out)])
    return json.loads(out.read_text())["jobs"]


def sweep_run(bin_dir, w, seconds, trace, spans, work, specs):
    return sweep.run_sweep(bin_dir / "dtexld", work / ("daemon-traced"
                           if trace else "daemon"), specs, seconds,
                           trace=trace, spans=spans,
                           setup_reps=SWEEP_SETUP_REPS,
                           min_warm_passes=w["warm_passes"])


def sweep_untraced(bin_dir, name, w, seed, seconds):
    res = Result()
    work = fresh_dir(OUT_DIR / f"{name}-{seed}")
    specs, _ = sweep_inputs(bin_dir, w, seed, work)
    raw = sweep_run(bin_dir, w, seconds, False, sweep.Spans(False), work,
                    specs)
    verified = verify_in_process(bin_dir, specs, work, trace=False)
    expected = [(j["cycles"], j["image_hash"]) for j in verified]
    cold = check_sweep_outcomes(res, raw, specs, expected)
    digest_check(res, f"{name}-{seed}-{w['width']}x{w['height']}",
                 {"cold": [list(cold[i]) for i in range(len(specs))]})

    cold_lat = [r["latency_ms"] for r in raw["cold"]]
    hit_lat = [r["latency_ms"] for r in raw["warm"]]
    cycles = sum(c for c, _ in cold.values())
    res.put("setup_s", statistics.median(raw["setup_s"]), "s",
            len(raw["setup_s"]))
    res.put("host_mcycles_per_s",
            stats.ratio(cycles, raw["cold_wall_s"] * 1e6), "Mcycles/s",
            len(cold_lat))
    res.put("frame_ms_p50", stats.percentile(cold_lat, 50), "ms",
            len(cold_lat))
    res.put("peak_rss_mb", raw["rss_mb"], "MB", 1)
    # Sweep-only end-to-end figures: printed with their sample counts.
    failed_jobs = res.failed
    res.extra.update({
        "cold_jobs_per_s": (stats.ratio(len(cold_lat), raw["cold_wall_s"]),
                            "1/s", len(cold_lat)),
        "cold_job_ms_p50": (stats.percentile(cold_lat, 50), "ms",
                            len(cold_lat)),
        "cold_job_ms_p90": (stats.percentile(cold_lat, 90), "ms",
                            len(cold_lat)),
        "hit_ms_p50": (stats.percentile(hit_lat, 50), "ms", len(hit_lat)),
        "hit_ms_p99": (stats.percentile(hit_lat, 99), "ms", len(hit_lat)),
        "error_rate": (failed_jobs / max(1, res.attempted), "ratio",
                       res.attempted),
    })
    if not w.get("smoke"):
        res.check(stats.samples_beyond(len(cold_lat), 90) >= 10,
                  "cold pass too small for a p90")
        res.check(stats.samples_beyond(len(hit_lat), 99) >= 10,
                  "warm pass too small for a p99")
    return res


def sweep_traced(bin_dir, name, w, seed, seconds, spans):
    res = Result()
    work = fresh_dir(OUT_DIR / f"{name}-{seed}-traced")
    specs, gen = sweep_inputs(bin_dir, w, seed, work)
    plain = sweep_run(bin_dir, w, seconds, False, sweep.Spans(False), work,
                      specs)
    traced = sweep_run(bin_dir, w, seconds, True, spans, work, specs)
    # Variant 0 of every game, under both presets, is replayed.
    nrep = len(specs) // w["variants"]
    verified = verify_in_process(bin_dir, specs, work, trace=True,
                                 replay_first=nrep)
    expected = [(j["cycles"], j["image_hash"]) for j in verified]
    check_sweep_outcomes(res, plain, specs, expected)
    cold = check_sweep_outcomes(res, traced, specs, expected)
    digest_check(res, f"{name}-{seed}-{w['width']}x{w['height']}",
                 {"cold": [list(cold[i]) for i in range(len(specs))]})

    res.put("workloads.scene_gen_ms", statistics.median(gen["gen_ms"]),
            "ms", len(gen["gen_ms"]))
    for name_, key in (("workloads.scene_load_ms", "scene_load_ms"),
                       ("core.sim_construct_ms", "sim_construct_ms"),
                       ("core.geometry_ms", "geometry_ms"),
                       ("core.raster_ms", "raster_ms")):
        vals = [j[key] for j in verified]
        res.put(name_, statistics.median(vals), "ms", len(vals))
    replayed = verified[:nrep]
    put_replay(res, [j["replay"] for j in replayed],
               [j["stats"] for j in replayed],
               [j["raster_ms"] for j in replayed])
    put_model(res, [j["stats"] for j in verified],
              [j["sc_busy_frac"] for j in verified])
    put_serve(res, traced)
    res.put("trace.overhead_ratio",
            stats.ratio(traced["cold_wall_s"], plain["cold_wall_s"]),
            "ratio", len(specs))
    return res, [("driver", work / "driver-spans.json")]


def run(bin_dir, name, seed, seconds, trace, smoke):
    w = dict(WORKLOADS[name])
    if smoke:
        w.update(SMOKE)
    spans = sweep.Spans(trace)
    span_files = []
    if w["kind"] == "frames":
        if trace:
            res, span_files = frames_traced(bin_dir, name, w, seed, spans)
        else:
            res = frames_untraced(bin_dir, name, w, seed, seconds)
    else:
        if trace:
            res, span_files = sweep_traced(bin_dir, name, w, seed, seconds,
                                           spans)
        else:
            res = sweep_untraced(bin_dir, name, w, seed, seconds)
    if trace:
        groups = [{"source": "client", "unit": "ns", "spans": spans.items}]
        for source, path in span_files:
            groups.append({"source": source,
                           **json.loads(Path(path).read_text())})
        out = OUT_DIR / f"spans-{name}-{seed}.json"
        out.write_text(json.dumps({"groups": groups}))
        res.extra["span_file"] = rel(out)
    return res
