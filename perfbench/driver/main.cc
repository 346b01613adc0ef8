/**
 * @file
 * perfbench_driver — the in-process half of the repository benchmark
 * (perfbench/run.py is the orchestrator). It reaches the simulator only
 * through public entry points and writes raw samples as JSON; run.py
 * computes the statistics.
 *
 * Subcommands:
 *   frames       Table II frame workloads: set-up, warm-up, then timed
 *                successive frames of one SimulationSession per scene.
 *                --trace 1 adds an untraced and a traced pass over a
 *                fixed frame count, and a layer replay per scene.
 *   gen-scenes   Seeded Table I scene files for the dtexld sweep.
 *   verify-jobs  In-process SimulationSession runs of scene files
 *                (the sweep's cold-result reference).
 *   replay-tiny  Replay cross-check on makeTinyScene.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hh"
#include "common/sim_error.hh"
#include "common/stat_registry.hh"
#include "core/engine.hh"
#include "json_out.hh"
#include "replay.hh"
#include "spans.hh"
#include "workloads/benchmarks.hh"
#include "workloads/scene_io.hh"
#include "workloads/scenegen.hh"

using namespace dtexl;
using perfbench::JsonObject;
using perfbench::Nanos;
using perfbench::ReplayResult;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

namespace {

using Args = std::map<std::string, std::string>;

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "perfbench_driver: %s\n", msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv, int first)
{
    Args a;
    for (int i = first; i < argc; ++i) {
        std::string k = argv[i];
        if (k.rfind("--", 0) != 0 || i + 1 >= argc)
            die("expected --key value pairs, got '" + k + "'");
        a[k.substr(2)] = argv[++i];
    }
    return a;
}

std::string
get(const Args &a, const std::string &k, const std::string &def = "")
{
    const auto it = a.find(k);
    if (it != a.end())
        return it->second;
    if (def.empty())
        die("missing --" + k);
    return def;
}

std::uint64_t
getU(const Args &a, const std::string &k, const std::string &def = "")
{
    return std::strtoull(get(a, k, def).c_str(), nullptr, 10);
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, sep))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/** splitmix64 finalizer: decorrelates derived scene seeds. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Scene parameters for one Table I game under the run's seed. */
BenchmarkParams
seededParams(const std::string &alias, std::uint64_t seed,
             std::uint64_t variant)
{
    BenchmarkParams p = benchmarkByAlias(alias);
    std::uint64_t h = mix64(seed);
    for (const char c : alias)
        h = mix64(h ^ static_cast<unsigned char>(c));
    p.seed = mix64(h ^ (variant << 32));
    return p;
}

GpuConfig
presetConfig(const std::string &preset, std::uint32_t w, std::uint32_t h)
{
    GpuConfig cfg;
    if (preset == "dtexl")
        cfg = makeDTexLConfig();
    else if (preset == "baseline")
        cfg = makeBaselineConfig();
    else
        die("unknown preset '" + preset + "'");
    cfg.screenWidth = w;
    cfg.screenHeight = h;
    // One host thread per simulation: host time per frame, not per
    // core-second, is what the frame workloads measure.
    cfg.geomThreads = 1;
    cfg.rasterThreads = 1;
    cfg.validate();
    return cfg;
}

double
msSince(const SpanRecorder &clock, Nanos t0)
{
    return static_cast<double>(clock.now() - t0) / 1e6;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/** Every simulated field of a FrameStats, for exact comparison. */
std::string
statsJson(const FrameStats &fs)
{
    JsonObject o;
    o.u64("geometryCycles", fs.geometryCycles)
        .u64("rasterCycles", fs.rasterCycles)
        .u64("totalCycles", fs.totalCycles)
        .u64("verticesProcessed", fs.verticesProcessed)
        .u64("primitivesBinned", fs.primitivesBinned)
        .u64("quadsRasterized", fs.quadsRasterized)
        .u64("quadsCulledEarlyZ", fs.quadsCulledEarlyZ)
        .u64("quadsCulledHiZ", fs.quadsCulledHiZ)
        .u64("quadsShaded", fs.quadsShaded)
        .u64("fragmentsShaded", fs.fragmentsShaded)
        .u64("shaderInstructions", fs.shaderInstructions)
        .u64("textureSamples", fs.textureSamples)
        .u64("earlyZTests", fs.earlyZTests)
        .u64("blendOps", fs.blendOps)
        .u64("flushLineWrites", fs.flushLineWrites)
        .u64("flushesEliminated", fs.flushesEliminated)
        .u64("l1TexAccesses", fs.l1TexAccesses)
        .u64("l1TexMisses", fs.l1TexMisses)
        .u64("l1VertexAccesses", fs.l1VertexAccesses)
        .u64("l1TileAccesses", fs.l1TileAccesses)
        .u64("l2Accesses", fs.l2Accesses)
        .u64("l2Misses", fs.l2Misses)
        .u64("dramAccesses", fs.dramAccesses);
    std::uint64_t barrier = 0;
    for (std::size_t i = 0; i < fs.quadsPerSc.size(); ++i) {
        o.u64("quadsPerSc" + std::to_string(i), fs.quadsPerSc[i]);
        o.u64("barrierIdleCycles" + std::to_string(i),
              fs.barrierIdleCycles[i]);
        barrier += fs.barrierIdleCycles[i];
    }
    o.u64("barrierIdleTotal", barrier)
        .num("textureReplication", fs.textureReplication)
        .str("imageHash", hex64(fs.imageHash));
    return o.text();
}

std::string
replayJson(const ReplayResult &r)
{
    JsonObject o;
    o.u64("prims", r.prims)
        .u64("bins", r.bins)
        .u64("quads", r.quads)
        .u64("textured_quads", r.texturedQuads)
        .u64("tex_lines", r.texLines)
        .u64("l1_accesses", r.l1Accesses)
        .u64("l2_accesses", r.l2Accesses)
        .u64("dram_accesses", r.dramAccesses)
        .num("tile_order_us", r.tileOrderUs)
        .num("overlap_ns", r.overlapNs)
        .num("raster_ns", r.rasterNs)
        .num("texture_ns", r.textureNs)
        .num("l1_self_ns", r.l1SelfNs)
        .num("l2_self_ns", r.l2SelfNs)
        .num("dram_ns", r.dramNs)
        .str("mismatch", r.mismatch);
    return o.text();
}

/**
 * Telemetry busy fraction of the shader cores: busy cycles over
 * attributed cycles, summed over every "*.telemetry.sc<N>" node.
 */
double
scBusyFraction(const StatRegistry &reg)
{
    std::uint64_t busy = 0, total = 0;
    for (const std::string &p : reg.paths()) {
        const std::size_t dot = p.rfind('.');
        if (dot == std::string::npos || p.compare(dot + 1, 2, "sc") != 0 ||
            p.find(".telemetry.") == std::string::npos)
            continue;
        const StatSet *s = reg.find(p);
        busy += s->get("busy");
        total += s->get("total");
    }
    return total == 0 ? 0.0
                      : static_cast<double>(busy) /
                            static_cast<double>(total);
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path);
    f << text << "\n";
    return static_cast<bool>(f);
}

// ------------------------------------------------------------------
// frames
// ------------------------------------------------------------------

/** One workload's scenes and sessions, built as one set-up unit. */
struct FrameSet
{
    std::vector<std::unique_ptr<Scene>> scenes;
    std::vector<std::unique_ptr<SimulationSession>> sessions;
    std::vector<std::unique_ptr<StatRegistry>> registries;
    /** Per scene / per session, in bench order. */
    std::vector<double> genMs, constructMs;
};

FrameSet
buildFrameSet(const GpuConfig &cfg, const std::vector<std::string> &benches,
              std::uint64_t seed, SpanRecorder &spans, bool registry)
{
    FrameSet fs;
    for (const std::string &alias : benches) {
        ScopedSpan s(spans, "workloads.generateScene", alias);
        const Nanos t0 = spans.now();
        fs.scenes.push_back(std::make_unique<Scene>(
            generateScene(seededParams(alias, seed, 0), cfg)));
        fs.genMs.push_back(msSince(spans, t0));
    }
    for (std::size_t i = 0; i < benches.size(); ++i) {
        ScopedSpan s(spans, "core.SimulationSession", benches[i]);
        const Nanos t0 = spans.now();
        fs.sessions.push_back(std::make_unique<SimulationSession>(
            cfg, *fs.scenes[i], "engine"));
        if (registry) {
            fs.registries.push_back(std::make_unique<StatRegistry>());
            fs.sessions.back()->setStatRegistry(fs.registries.back().get());
        }
        fs.constructMs.push_back(msSince(spans, t0));
    }
    return fs;
}

/** Frames of a fixed-length pass, per scene. */
struct PassResult
{
    std::vector<std::vector<double>> frameMs;
    std::vector<std::vector<std::string>> stats;
    std::vector<std::vector<FrameStats>> frames;
    std::vector<std::vector<double>> geomMs, rasterMs;
    std::vector<double> scBusy;
};

PassResult
runFixedPass(FrameSet &set, std::uint32_t frames, SpanRecorder &spans,
             const std::vector<std::string> &benches)
{
    PassResult pr;
    const std::size_t n = set.sessions.size();
    pr.frameMs.resize(n);
    pr.stats.resize(n);
    pr.frames.resize(n);
    pr.geomMs.resize(n);
    pr.rasterMs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t geomUs = 0, rasterUs = 0;
        for (std::uint32_t f = 0; f < frames; ++f) {
            ScopedSpan s(spans, "core.renderFrame", benches[i]);
            const Nanos t0 = spans.now();
            const FrameStats fs = set.sessions[i]->renderFrame();
            pr.frameMs[i].push_back(msSince(spans, t0));
            pr.stats[i].push_back(statsJson(fs));
            pr.frames[i].push_back(fs);
            if (!set.registries.empty()) {
                const StatRegistry &reg = *set.registries[i];
                const std::uint64_t g = reg.total("engine.geometry",
                                                  "wall_us");
                const std::uint64_t r = reg.total("engine.raster",
                                                  "wall_us");
                pr.geomMs[i].push_back((g - geomUs) / 1e3);
                pr.rasterMs[i].push_back((r - rasterUs) / 1e3);
                geomUs = g;
                rasterUs = r;
            }
        }
        if (!set.registries.empty())
            pr.scBusy.push_back(scBusyFraction(*set.registries[i]));
    }
    return pr;
}

std::string
passJson(const PassResult &pr)
{
    std::vector<std::string> scenes;
    for (std::size_t i = 0; i < pr.frameMs.size(); ++i) {
        JsonObject o;
        o.nums("frame_ms", pr.frameMs[i])
            .raw("stats", perfbench::jsonArray(pr.stats[i]));
        if (!pr.geomMs[i].empty())
            o.nums("geometry_ms", pr.geomMs[i])
                .nums("raster_ms", pr.rasterMs[i])
                .num("sc_busy_frac", pr.scBusy[i]);
        scenes.push_back(o.text());
    }
    return perfbench::jsonArray(scenes);
}

int
cmdFrames(const Args &a)
{
    const GpuConfig cfg =
        presetConfig(get(a, "preset"), getU(a, "width", "1960"),
                     getU(a, "height", "768"));
    const std::vector<std::string> benches = split(get(a, "bench"), ',');
    const std::uint64_t seed = getU(a, "seed");
    const double seconds = std::strtod(get(a, "seconds").c_str(), nullptr);
    const std::uint32_t setupReps = getU(a, "setup-reps", "3");
    const bool trace = get(a, "trace", "0") == "1";
    const std::string out = get(a, "out");

    JsonObject res;
    res.str("preset", get(a, "preset"))
        .u64("width", cfg.screenWidth)
        .u64("height", cfg.screenHeight)
        .u64("seed", seed);

    if (!trace) {
        SpanRecorder clock(false);
        // Set-up is repeated; the last repetition's objects are kept.
        std::vector<double> setupS;
        FrameSet set;
        for (std::uint32_t r = 0; r < std::max(1u, setupReps); ++r) {
            set = FrameSet{};
            // Hand the previous repetition's memory back to the kernel,
            // so every repetition pays the first-touch page faults a
            // fresh process pays, not just the first.
            malloc_trim(0);
            const Nanos t0 = clock.now();
            set = buildFrameSet(cfg, benches, seed, clock, false);
            setupS.push_back(msSince(clock, t0) / 1e3);
        }
        // Warm-up: the first frame fills the caches (frame 0 of each
        // session) and is excluded from the timed samples.
        PassResult warm = runFixedPass(set, 1, clock, benches);
        // Timed rounds, one frame per scene per round, until the
        // budget is spent; at least one round.
        std::vector<std::vector<double>> frameMs(benches.size());
        std::vector<std::vector<std::uint64_t>> cycles(benches.size());
        std::vector<std::string> frame1(benches.size());
        const Nanos start = clock.now();
        do {
            for (std::size_t i = 0; i < benches.size(); ++i) {
                const Nanos t0 = clock.now();
                const FrameStats fs = set.sessions[i]->renderFrame();
                frameMs[i].push_back(msSince(clock, t0));
                cycles[i].push_back(fs.totalCycles);
                if (frame1[i].empty())
                    frame1[i] = statsJson(fs);
            }
        } while (msSince(clock, start) < seconds * 1e3);

        std::vector<std::string> scenes;
        for (std::size_t i = 0; i < benches.size(); ++i) {
            std::vector<double> cyc(cycles[i].begin(), cycles[i].end());
            JsonObject o;
            o.str("bench", benches[i])
                .nums("frame_ms", frameMs[i])
                .nums("cycles", cyc)
                .raw("stats", perfbench::jsonArray(
                                  {warm.stats[i][0], frame1[i]}));
            scenes.push_back(o.text());
        }
        res.nums("setup_s", setupS)
            .raw("scenes", perfbench::jsonArray(scenes))
            .num("peak_rss_mb", peakRssMb());
        return writeFile(out, res.text()) ? 0 : 2;
    }

    // --- Traced run: a fixed frame count, untraced then traced. ---
    const std::uint32_t frames = getU(a, "frames", "3");
    const std::string sceneDir = get(a, "scene-dir");
    SpanRecorder spans(true);
    PassResult plain;
    {
        SpanRecorder off(false);
        FrameSet set = buildFrameSet(cfg, benches, seed, off, false);
        plain = runFixedPass(set, frames, off, benches);
    }
    GpuConfig tcfg = cfg;
    tcfg.telemetryLevel = 1;
    FrameSet set = buildFrameSet(tcfg, benches, seed, spans, true);
    PassResult traced = runFixedPass(set, frames, spans, benches);

    std::vector<std::string> replays;
    std::vector<double> loadMs;
    for (std::size_t i = 0; i < benches.size(); ++i) {
        const ReplayResult r = perfbench::replayFrame(
            cfg, *set.scenes[i], traced.frames[i][0], spans, benches[i]);
        replays.push_back(replayJson(r));
        // Scene files for the daemon pass; the load is timed here.
        const std::string path = sceneDir + "/" + benches[i] + ".scene";
        saveSceneFile(path, *set.scenes[i]);
        ScopedSpan s(spans, "workloads.loadSceneFile", benches[i]);
        const Nanos t0 = spans.now();
        const Scene loaded = loadSceneFile(path);
        loadMs.push_back(msSince(spans, t0));
        if (loaded.draws.size() != set.scenes[i]->draws.size())
            die("scene file round trip lost draws: " + path);
    }
    res.nums("scene_gen_ms", set.genMs)
        .nums("sim_construct_ms", set.constructMs)
        .raw("untraced", passJson(plain))
        .raw("traced", passJson(traced))
        .raw("replay", perfbench::jsonArray(replays))
        .nums("scene_load_ms", loadMs);
    if (!spans.write(get(a, "spans")))
        die("cannot write span file");
    return writeFile(out, res.text()) ? 0 : 2;
}

// ------------------------------------------------------------------
// gen-scenes
// ------------------------------------------------------------------

int
cmdGenScenes(const Args &a)
{
    GpuConfig cfg;
    cfg.screenWidth = getU(a, "width");
    cfg.screenHeight = getU(a, "height");
    const std::uint64_t seed = getU(a, "seed");
    const std::uint64_t variants = getU(a, "variants");
    const std::string dir = get(a, "out-dir");
    SpanRecorder clock(false);
    std::vector<std::string> files;
    std::vector<double> genMs;
    for (std::uint64_t v = 0; v < variants; ++v)
        for (const BenchmarkParams &b : tableOneBenchmarks()) {
            const Nanos t0 = clock.now();
            const Scene scene =
                generateScene(seededParams(b.alias, seed, v), cfg);
            genMs.push_back(msSince(clock, t0));
            const std::string path =
                dir + "/" + b.alias + "-v" + std::to_string(v) + ".scene";
            saveSceneFile(path, scene);
            files.push_back(perfbench::jsonQuote(path));
        }
    JsonObject o;
    o.raw("files", perfbench::jsonArray(files)).nums("gen_ms", genMs);
    return writeFile(get(a, "out"), o.text()) ? 0 : 2;
}

// ------------------------------------------------------------------
// verify-jobs
// ------------------------------------------------------------------

/**
 * Run each listed job (one line: "<preset> <width> <height> <replay 0|1>
 * <scene path>") in its own SimulationSession, over a few threads.
 * With --trace 1, sessions run with telemetry and a registry, and
 * jobs marked for replay are also replayed.
 */
int
cmdVerifyJobs(const Args &a)
{
    struct Job
    {
        std::string preset, path;
        std::uint32_t w = 0, h = 0;
        bool replay = false;
        std::string result;
    };
    std::vector<Job> jobs;
    {
        std::ifstream in(get(a, "jobs"));
        Job j;
        int rep = 0;
        while (in >> j.preset >> j.w >> j.h >> rep >> j.path) {
            j.replay = rep != 0;
            jobs.push_back(j);
        }
    }
    const bool trace = get(a, "trace", "0") == "1";
    const unsigned threads =
        std::max<unsigned>(1, getU(a, "threads", "2"));
    const auto epoch = SpanRecorder::Clock::now();
    std::vector<std::unique_ptr<SpanRecorder>> recs;
    for (unsigned t = 0; t < threads; ++t)
        recs.push_back(std::make_unique<SpanRecorder>(trace, epoch));
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    auto worker = [&](unsigned t) {
        SpanRecorder &spans = *recs[t];
        for (std::size_t i = next++; i < jobs.size(); i = next++) {
            Job &j = jobs[i];
            try {
                GpuConfig cfg = presetConfig(j.preset, j.w, j.h);
                if (trace)
                    cfg.telemetryLevel = 1;
                const std::string label = std::to_string(i);
                Nanos t0 = spans.now();
                Scene scene;
                {
                    ScopedSpan s(spans, "workloads.loadSceneFile", label);
                    scene = loadSceneFile(j.path);
                }
                const double loadMs = msSince(spans, t0);
                t0 = spans.now();
                StatRegistry reg;
                std::unique_ptr<SimulationSession> sess;
                {
                    ScopedSpan s(spans, "core.SimulationSession", label);
                    sess = std::make_unique<SimulationSession>(cfg, scene,
                                                               "engine");
                    if (trace)
                        sess->setStatRegistry(&reg);
                }
                const double constructMs = msSince(spans, t0);
                t0 = spans.now();
                FrameStats fs;
                {
                    ScopedSpan s(spans, "core.renderFrame", label);
                    fs = sess->renderFrame();
                }
                const double frameMs = msSince(spans, t0);
                JsonObject o;
                o.u64("cycles", fs.totalCycles)
                    .str("image_hash", hex64(fs.imageHash))
                    .raw("stats", statsJson(fs))
                    .num("scene_load_ms", loadMs)
                    .num("sim_construct_ms", constructMs)
                    .num("frame_ms", frameMs);
                if (trace) {
                    o.num("geometry_ms",
                          reg.total("engine.geometry", "wall_us") / 1e3)
                        .num("raster_ms",
                             reg.total("engine.raster", "wall_us") / 1e3)
                        .num("sc_busy_frac", scBusyFraction(reg));
                    if (j.replay) {
                        GpuConfig rcfg = cfg;
                        rcfg.telemetryLevel = 0;
                        o.raw("replay",
                              replayJson(perfbench::replayFrame(
                                  rcfg, scene, fs, spans, label)));
                    }
                }
                j.result = o.text();
            } catch (const SimError &e) {
                std::fprintf(stderr, "perfbench_driver: %s: %s\n",
                             j.path.c_str(), e.describe().c_str());
                failed = true;
            } catch (const std::exception &e) {
                std::fprintf(stderr, "perfbench_driver: %s: %s\n",
                             j.path.c_str(), e.what());
                failed = true;
            }
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(worker, t);
    for (std::thread &th : pool)
        th.join();
    if (failed)
        return 1;

    std::vector<std::string> results;
    for (const Job &j : jobs)
        results.push_back(j.result);
    if (trace) {
        // Merge the per-thread recorders into one span file; each
        // thread's parent indices shift by the spans written before it.
        SpanRecorder merged(true, epoch);
        for (const auto &rec : recs) {
            const auto base =
                static_cast<std::int64_t>(merged.spans().size());
            for (const auto &s : rec->spans())
                merged.add(s.name, s.job, s.start, s.end,
                           s.parent < 0 ? -1 : s.parent + base);
        }
        if (!merged.write(get(a, "spans")))
            die("cannot write span file");
    }
    JsonObject o;
    o.raw("jobs", perfbench::jsonArray(results));
    return writeFile(get(a, "out"), o.text()) ? 0 : 2;
}

// ------------------------------------------------------------------
// replay-tiny
// ------------------------------------------------------------------

int
cmdReplayTiny(const Args &a)
{
    std::vector<std::string> out;
    bool ok = true;
    for (const char *preset : {"baseline", "dtexl"}) {
        const GpuConfig cfg = presetConfig(preset, getU(a, "width", "256"),
                                           getU(a, "height", "128"));
        const Scene scene = makeTinyScene(cfg);
        SimulationSession sess(cfg, scene, "engine");
        const FrameStats fs = sess.renderFrame();
        SpanRecorder spans(true);
        const ReplayResult r =
            perfbench::replayFrame(cfg, scene, fs, spans, preset);
        ok &= r.mismatch.empty() && r.quads > 0 && r.bins > 0;
        JsonObject o;
        o.str("preset", preset)
            .raw("replay", replayJson(r))
            .u64("frame_quads", fs.quadsRasterized)
            .u64("frame_prims", fs.primitivesBinned)
            .u64("spans", spans.spans().size());
        out.push_back(o.text());
    }
    std::printf("%s\n", perfbench::jsonArray(out).c_str());
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        die("usage: perfbench_driver frames|gen-scenes|verify-jobs|"
            "replay-tiny --key value ...");
    const std::string cmd = argv[1];
    const Args a = parseArgs(argc, argv, 2);
    try {
        if (cmd == "frames")
            return cmdFrames(a);
        if (cmd == "gen-scenes")
            return cmdGenScenes(a);
        if (cmd == "verify-jobs")
            return cmdVerifyJobs(a);
        if (cmd == "replay-tiny")
            return cmdReplayTiny(a);
    } catch (const SimError &e) {
        die(e.describe());
    }
    die("unknown subcommand '" + cmd + "'");
}
