#include "harness.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>

#include "telemetry/cli_options.hh"
#include "telemetry/export.hh"

namespace dtexl {
namespace bench {

namespace {
/**
 * CSV sink for printHeader/printRow. Guarded by a mutex so rows from
 * concurrent writers cannot interleave mid-line; the figure binaries
 * print from the collector after the batch completes, but the sink
 * must stay safe if a binary reports progress from workers.
 */
std::mutex csv_mu;
FILE *csv_file = nullptr;
} // namespace

void
setCsvOutput(const std::string &path)
{
    std::lock_guard<std::mutex> lock(csv_mu);
    if (csv_file) {
        std::fclose(csv_file);
        csv_file = nullptr;
    }
    if (!path.empty()) {
        csv_file = std::fopen(path.c_str(), "a");
        if (!csv_file)
            fatal("cannot open CSV file '%s'", path.c_str());
    }
}

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    BenchOptions opt;
    CommonCliOptions common;
    CommonCliOptions::noteInvocation(argc, argv);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (common.tryParse(arg)) {
            // Shared flag (--jobs, --trace, --stats-json,
            // --timeline-csv, the cache and ledger flags); copied
            // below.
        } else if (arg == "--full") {
            opt.width = 1960;
            opt.height = 768;
        } else if (arg.rfind("--scale=", 0) == 0) {
            const char *value = arg.c_str() + 8;
            char *end = nullptr;
            const double s = std::strtod(value, &end);
            if (end == value || *end != '\0' || s <= 0.0 || s > 1.0)
                fatal("--scale must be a number in (0, 1], got '%s'",
                      value);
            opt.width = static_cast<std::uint32_t>(1960 * s) & ~31u;
            opt.height = static_cast<std::uint32_t>(768 * s) & ~31u;
            if (opt.width == 0 || opt.height == 0)
                fatal("--scale too small");
        } else if (arg.rfind("--csv=", 0) == 0) {
            opt.csvPath = arg.substr(6);
            setCsvOutput(opt.csvPath);
        } else if (arg.rfind("--benchmarks=", 0) == 0) {
            const std::string list = arg.substr(13);
            std::size_t pos = 0;
            while (pos <= list.size()) {
                const std::size_t comma = list.find(',', pos);
                const std::size_t end =
                    comma == std::string::npos ? list.size() : comma;
                // Skip empty segments (trailing comma, ",,").
                if (end > pos)
                    opt.aliases.push_back(list.substr(pos, end - pos));
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
            if (opt.aliases.empty())
                fatal("--benchmarks needs at least one alias");
            // Validate every alias now, with the full list in the
            // message, instead of dying on first lookup mid-run.
            std::string valid;
            for (const BenchmarkParams &b : tableOneBenchmarks())
                valid += (valid.empty() ? "" : ", ") + b.alias;
            for (const std::string &a : opt.aliases) {
                bool known = false;
                for (const BenchmarkParams &b : tableOneBenchmarks())
                    known |= b.alias == a;
                if (!known)
                    fatal("unknown benchmark alias '%s' (valid: %s)",
                          a.c_str(), valid.c_str());
            }
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "options:\n"
                "  --full              Table II screen (1960x768)\n"
                "  --scale=F           fraction of the full screen\n"
                "  --benchmarks=A,B,.. subset of Table I aliases\n"
                "  --csv=FILE          append tables as CSV\n"
                "%s",
                CommonCliOptions::helpText());
            std::exit(0);
        } else {
            CommonCliOptions::rejectUnknown(
                arg, "run with --help for the option list");
        }
    }
    opt.jobs = common.jobs;
    opt.tracePath = common.tracePath;
    opt.common = common;
    return opt;
}

const std::vector<BenchmarkParams> &
BenchOptions::benchmarks() const
{
    if (!selected.empty())
        return selected;
    if (aliases.empty()) {
        selected = tableOneBenchmarks();
    } else {
        for (const std::string &a : aliases)
            selected.push_back(benchmarkByAlias(a));
    }
    return selected;
}

GpuConfig
BenchOptions::baseline() const
{
    GpuConfig cfg = makeBaselineConfig();
    cfg.screenWidth = width;
    cfg.screenHeight = height;
    common.applyRunOptions(cfg);
    return cfg;
}

GpuConfig
BenchOptions::dtexl() const
{
    GpuConfig cfg = makeDTexLConfig();
    cfg.screenWidth = width;
    cfg.screenHeight = height;
    common.applyRunOptions(cfg);
    return cfg;
}

GpuConfig
BenchOptions::upperBound() const
{
    GpuConfig cfg = makeUpperBoundConfig();
    cfg.screenWidth = width;
    cfg.screenHeight = height;
    common.applyRunOptions(cfg);
    return cfg;
}

const Scene &
sceneFor(const BenchmarkParams &params, const GpuConfig &cfg)
{
    // Scene cache: key on alias + screen; configs share the scene.
    // Shared across worker threads: the mutex covers lookup AND
    // generation, so a scene is generated exactly once and concurrent
    // first-touchers of the same key wait for it. std::map nodes are
    // stable, so returned references survive later insertions.
    static std::mutex mu;
    static std::map<std::string, Scene> cache;
    const std::string key = params.alias + ":" +
                            std::to_string(cfg.screenWidth) + "x" +
                            std::to_string(cfg.screenHeight);
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(key);
    if (it == cache.end())
        it = cache.emplace(key, generateScene(params, cfg)).first;
    return it->second;
}

RunOutput
runOne(const BenchmarkParams &params, const GpuConfig &cfg)
{
    GpuSimulator gpu(cfg, sceneFor(params, cfg));
    RunOutput out;
    out.fs = gpu.renderFrame();
    out.energy = EnergyModel{}.compute(cfg, out.fs);
    return out;
}

std::vector<RunOutput>
runGrid(const std::vector<GridJob> &jobs, const BenchOptions &opt)
{
    std::vector<BatchJob> batch;
    batch.reserve(jobs.size());
    for (const GridJob &j : jobs) {
        BatchJob bj;
        bj.label = j.label.empty() ? j.bench.alias : j.label;
        bj.cfg = j.cfg;
        // The provider captures by value; generation happens on the
        // worker through the shared cache.
        const BenchmarkParams bench = j.bench;
        const GpuConfig cfg = j.cfg;
        bj.scene = [bench, cfg](std::uint32_t) -> const Scene & {
            return sceneFor(bench, cfg);
        };
        bj.frames = 1;
        batch.push_back(std::move(bj));
    }

    // Process-lifetime registry so the figure binaries' per-job phase
    // and telemetry counters are visible to --stats-json (the exporter
    // holds a pointer until its final flush).
    static StatRegistry registry("bench");
    TelemetryExport::global().attachRegistry(&registry);

    const std::vector<BatchResult> raw =
        runBatch(batch, opt.jobs, &registry);

    // A figure's table is meaningless with holes, so any failed grid
    // job aborts the whole binary: summarize every failure, flush the
    // exporters, and rethrow the first failure's classification so the
    // guarded main exits with its kind's code.
    if (reportBatchFailures(raw) > 0) {
        TelemetryExport::global().flush();
        TraceWriter::global().flush();
        for (const BatchResult &r : raw) {
            if (!r.ok) {
                throw SimError(r.errorKind,
                               "grid job '" + r.label +
                                   "' failed: " + r.error);
            }
        }
    }

    std::vector<RunOutput> out(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        dtexl_assert(!raw[i].frames.empty(),
                     "batch job '%s' produced no frames",
                     raw[i].label.c_str());
        out[i].fs = raw[i].frames.front();
        out[i].energy = EnergyModel{}.compute(jobs[i].cfg, out[i].fs);
    }
    return out;
}

double
geoMeanRatio(const std::vector<double> &ratios)
{
    return geoMean(ratios);
}

void
printHeader(const std::string &title,
            const std::vector<std::string> &columns)
{
    std::printf("\n== %s ==\n", title.c_str());
    std::printf("%-10s", "benchmark");
    for (const std::string &c : columns)
        std::printf(" %12s", c.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < 10 + 13 * columns.size(); ++i)
        std::printf("-");
    std::printf("\n");
    std::lock_guard<std::mutex> lock(csv_mu);
    if (csv_file) {
        std::fprintf(csv_file, "# %s\nlabel", title.c_str());
        for (const std::string &c : columns)
            std::fprintf(csv_file, ",%s", c.c_str());
        std::fprintf(csv_file, "\n");
    }
}

void
printRow(const std::string &label, const std::vector<double> &cells,
         int precision)
{
    std::printf("%-10s", label.c_str());
    for (double c : cells)
        std::printf(" %12.*f", precision, c);
    std::printf("\n");
    std::lock_guard<std::mutex> lock(csv_mu);
    if (csv_file) {
        // Build the whole row first so one fprintf hits the stream:
        // rows stay atomic even with FILE-level buffering quirks.
        std::ostringstream row;
        row << label;
        char cell[64];
        for (double c : cells) {
            std::snprintf(cell, sizeof cell, ",%.*f", precision + 3, c);
            row << cell;
        }
        row << "\n";
        std::fputs(row.str().c_str(), csv_file);
        std::fflush(csv_file);
    }
}

} // namespace bench
} // namespace dtexl
