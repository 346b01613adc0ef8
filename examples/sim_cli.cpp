/**
 * @file
 * The production driver: a command-line front end to the whole
 * simulator. Generates or loads scenes, applies arbitrary machine /
 * scheduling options, renders N frames per benchmark through the
 * phase-structured engine and reports statistics. Several benchmarks
 * are fanned over the parallel batch driver.
 *
 * Usage:
 *   sim_cli [--bench=GTr[,CCS,...] | --scene=file.dscene] [--frames=N]
 *           [--jobs=N] [--trace=trace.json] [--stats]
 *           [--stats-json=stats.json] [--timeline-csv=timeline.csv]
 *           [--save-scene=file.dscene] [--preset=baseline|dtexl]
 *           [--cache-dir=DIR] [--cache=MODE]
 *           [--checkpoint-every=N] [--resume]
 *           [--events=events.jsonl] [--progress] [--version]
 *           [key=value ...]
 *
 * key=value options are applyConfigOption() keys, e.g.:
 *   sim_cli --bench=CCS grouping=CG-square order=Hilbert \
 *           assignment=flp2 decoupled=1 width=980 height=384
 *
 * Telemetry (see EXPERIMENTS.md "Observability"): telemetry=1 records
 * per-unit stall attribution, telemetry=2 adds one counter row per tile;
 * e.g.  sim_cli --bench=GTr telemetry=2 --trace=t.json \
 *               --stats-json=s.json --timeline-csv=tl.csv
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/dtexl.hh"
#include "power/energy_model.hh"
#include "telemetry/cli_options.hh"
#include "telemetry/export.hh"
#include "workloads/scene_io.hh"
#include "workloads/scenegen.hh"

using namespace dtexl;

namespace {

void
printFrame(const std::string &label, std::size_t f,
           const FrameStats &fs, const EnergyBreakdown &e)
{
    std::printf(
        "%s frame %zu: %llu cycles (%.1f fps) | quads %llu shaded "
        "(%llu EZ-culled, %llu HiZ-culled) | L1tex %llu  L2 %llu  "
        "DRAM %llu | repl %.2f | %.1f uJ\n",
        label.c_str(), f,
        static_cast<unsigned long long>(fs.totalCycles), fs.fps,
        static_cast<unsigned long long>(fs.quadsShaded),
        static_cast<unsigned long long>(fs.quadsCulledEarlyZ),
        static_cast<unsigned long long>(fs.quadsCulledHiZ),
        static_cast<unsigned long long>(fs.l1TexAccesses),
        static_cast<unsigned long long>(fs.l2Accesses),
        static_cast<unsigned long long>(fs.dramAccesses),
        fs.textureReplication, e.total() * 1e6);
}

} // namespace

int
simCliMain(int argc, char **argv)
{
    std::string bench_list = "SoD";
    std::string scene_path;
    std::string save_path;
    int frames = 1;
    bool dump_stats = false;
    CommonCliOptions common;
    CommonCliOptions::noteInvocation(argc, argv);
    GpuConfig cfg = makeBaselineConfig();
    cfg.screenWidth = 640;
    cfg.screenHeight = 288;
    std::vector<std::pair<std::string, std::string>> options;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value_of = [&](const char *prefix) {
            return arg.substr(std::string(prefix).size());
        };
        if (common.tryParse(arg)) {
            // Shared flag (--jobs, --trace, --stats-json,
            // --timeline-csv, the cache and ledger flags).
        } else if (arg.rfind("--bench=", 0) == 0) {
            bench_list = value_of("--bench=");
        } else if (arg.rfind("--scene=", 0) == 0) {
            scene_path = value_of("--scene=");
        } else if (arg.rfind("--save-scene=", 0) == 0) {
            save_path = value_of("--save-scene=");
        } else if (arg.rfind("--frames=", 0) == 0) {
            const std::string value = value_of("--frames=");
            char *end = nullptr;
            const long n = std::strtol(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0' || n < 1 ||
                n > 100000)
                fatal("--frames must be a number in [1, 100000], "
                      "got '%s'", value.c_str());
            frames = static_cast<int>(n);
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--preset=dtexl") {
            const std::uint32_t w = cfg.screenWidth;
            const std::uint32_t h = cfg.screenHeight;
            cfg = makeDTexLConfig();
            cfg.screenWidth = w;
            cfg.screenHeight = h;
        } else if (arg == "--preset=baseline") {
            // default
        } else if (arg == "--help" || arg == "-h") {
            std::printf("see file header for usage\n");
            return 0;
        } else if (arg.find('=') != std::string::npos &&
                   arg.rfind("--", 0) != 0) {
            const std::size_t eq = arg.find('=');
            options.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
        } else {
            CommonCliOptions::rejectUnknown(
                arg, "usage: sim_cli [--bench=A[,B,...] | "
                     "--scene=FILE] [--frames=N] [--stats] "
                     "[--preset=baseline|dtexl] [key=value ...] plus "
                     "the shared flags (see --help)");
        }
    }
    for (const auto &[k, v] : options)
        applyConfigOption(cfg, k, v);
    common.applyRunOptions(cfg);
    cfg.validate();

    std::printf("%s\n", cfg.describe().c_str());

    // Resolve the benchmark list (a saved scene is a single job).
    std::vector<std::string> aliases;
    if (scene_path.empty()) {
        std::size_t pos = 0;
        while (pos <= bench_list.size()) {
            const std::size_t comma = bench_list.find(',', pos);
            const std::size_t end =
                comma == std::string::npos ? bench_list.size() : comma;
            if (end > pos)
                aliases.push_back(bench_list.substr(pos, end - pos));
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
        if (aliases.empty())
            fatal("--bench needs at least one alias");
    }

    // Pre-generate every job's frame scenes (they must stay valid and
    // unmutated while workers render from them).
    std::vector<std::string> labels;
    std::vector<std::vector<Scene>> job_scenes;
    if (!scene_path.empty()) {
        std::printf("loading scene '%s'\n", scene_path.c_str());
        labels.push_back(scene_path);
        job_scenes.emplace_back();
        job_scenes.back().push_back(loadSceneFile(scene_path));
        frames = 1;
    } else {
        for (const std::string &alias : aliases) {
            const BenchmarkParams &bench = benchmarkByAlias(alias);
            std::printf("generating %d frame(s) of %s\n", frames,
                        bench.name.c_str());
            labels.push_back(alias);
            job_scenes.emplace_back();
            for (int f = 0; f < frames; ++f)
                job_scenes.back().push_back(generateScene(
                    bench, cfg, static_cast<std::uint32_t>(f)));
        }
    }
    if (!save_path.empty()) {
        saveSceneFile(save_path, job_scenes[0][0]);
        std::printf("scene saved to '%s'\n", save_path.c_str());
    }

    // Fan the jobs over the batch driver; results come back in job
    // order whatever --jobs is. The exporter detaches the registry at
    // its explicit flush below, before this stack frame dies.
    StatRegistry registry("sim_cli");
    TelemetryExport::global().attachRegistry(&registry);
    std::vector<BatchJob> batch;
    for (std::size_t j = 0; j < job_scenes.size(); ++j) {
        BatchJob bj;
        bj.label = labels[j];
        bj.cfg = cfg;
        const std::vector<Scene> *scenes = &job_scenes[j];
        bj.scene = [scenes](std::uint32_t f) -> const Scene & {
            return (*scenes)[f];
        };
        bj.frames = static_cast<std::uint32_t>(job_scenes[j].size());
        batch.push_back(std::move(bj));
    }
    const std::vector<BatchResult> results =
        runBatch(batch, common.jobs, &registry);

    EnergyModel energy;
    for (const BatchResult &r : results) {
        if (!r.ok)
            continue;
        for (std::size_t f = 0; f < r.frames.size(); ++f)
            printFrame(r.label, f, r.frames[f],
                       energy.compute(cfg, r.frames[f]));
        // Simulator throughput summary (scene generation excluded);
        // scripts/run_perf.py parses these lines.
        std::uint64_t sim_cycles = 0;
        for (const FrameStats &fs : r.frames)
            sim_cycles += fs.totalCycles;
        const double mcps = r.wallMs > 0.0
                                ? static_cast<double>(sim_cycles) /
                                      (r.wallMs * 1e3)
                                : 0.0;
        std::printf("%s summary: %zu frame(s), %llu sim cycles, "
                    "%.3f ms wall, %.3f Mcycles/s%s\n",
                    r.label.c_str(), r.frames.size(),
                    static_cast<unsigned long long>(sim_cycles),
                    r.wallMs, mcps,
                    r.cacheHit ? " (cached)" : "");
    }
    // Batch-level cache summary: hit rate over this batch's jobs, and
    // the process-cumulative counters published into the registry so
    // --stats-json carries them too.
    if (ResultCache::global().enabled()) {
        ResultCache::global().publishStats(&registry);
        std::size_t cached = 0;
        for (const BatchResult &r : results)
            cached += r.cacheHit ? 1 : 0;
        std::printf("cache summary: %zu of %zu job(s) served from "
                    "cache (%.0f%% hit rate)\n",
                    cached, results.size(),
                    results.empty()
                        ? 0.0
                        : 100.0 * static_cast<double>(cached) /
                              static_cast<double>(results.size()));
    }
    if (dump_stats)
        std::printf("\n%s", registry.dump().c_str());
    TelemetryExport::global().flush();
    TraceWriter::global().flush();
    // Failed jobs are summarized after the artifacts are safe on disk;
    // the exit code distinguishes all-ok / user error / internal /
    // watchdog / partial batch (see DESIGN.md).
    reportBatchFailures(results);
    return batchExitCode(results);
}

int
main(int argc, char **argv)
{
    return runGuardedMain([&] { return simCliMain(argc, argv); });
}
