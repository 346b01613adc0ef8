/**
 * @file
 * Shared experiment harness for the figure/table reproduction
 * binaries: option parsing (--full, --scale, --benchmarks, --jobs,
 * --trace), a thread-safe scene cache, config construction for the
 * paper's named configurations, the parallel grid runner the figure
 * binaries fan their (benchmark x config) matrices over, and table
 * formatting.
 */

#ifndef DTEXL_BENCH_HARNESS_HH
#define DTEXL_BENCH_HARNESS_HH

#include <map>
#include <string>
#include <vector>

#include "core/dtexl.hh"
#include "power/energy_model.hh"
#include "telemetry/cli_options.hh"
#include "workloads/scenegen.hh"

namespace dtexl {
namespace bench {

/** Command-line options common to every experiment binary. */
struct BenchOptions
{
    /** Screen size; default is a half-scale screen for fast runs,
     *  --full selects the paper's Table II 1960x768. */
    std::uint32_t width = 640;
    std::uint32_t height = 288;
    /** Benchmarks to run; default: the whole Table I suite. */
    std::vector<std::string> aliases;
    /** When set (--csv=FILE), tables are also appended as CSV. */
    std::string csvPath;
    /** Worker threads for the batch driver (--jobs=N). */
    unsigned jobs = 1;
    /** When set (--trace=FILE), write a Chrome-trace JSON on exit. */
    std::string tracePath;
    /**
     * The shared flags as parsed; baseline()/dtexl()/upperBound()
     * apply the run-level ones (cache, ledger) to each config.
     */
    CommonCliOptions common;

    /**
     * Parse argv; exits 0 after printing --help, throws
     * SimError{UserInput} on an unknown option or malformed value
     * (the guarded main maps it to kExitUserError).
     */
    static BenchOptions parse(int argc, char **argv);

    /** GpuConfig preset resized to the selected screen. */
    GpuConfig baseline() const;
    GpuConfig dtexl() const;
    GpuConfig upperBound() const;

    const std::vector<BenchmarkParams> &benchmarks() const;

  private:
    mutable std::vector<BenchmarkParams> selected;
};

/** One simulated run. */
struct RunOutput
{
    FrameStats fs;
    EnergyBreakdown energy;
};

/**
 * Render one frame of a benchmark under a configuration. Scenes are
 * cached per (alias, screen), so successive configs over the same
 * benchmark reuse the generated scene. Thread-safe.
 */
RunOutput runOne(const BenchmarkParams &params, const GpuConfig &cfg);

/**
 * The scene the harness would simulate for (params, cfg): served from
 * the shared mutex-guarded cache, generated on first touch. The
 * returned reference is stable for the process lifetime. Thread-safe.
 */
const Scene &sceneFor(const BenchmarkParams &params,
                      const GpuConfig &cfg);

/** One cell of an experiment grid for runGrid(). */
struct GridJob
{
    BenchmarkParams bench;
    GpuConfig cfg;
    /** Trace/stat label; defaults to the benchmark alias. */
    std::string label;
};

/**
 * Run every grid job, fanned over opt.jobs worker threads via the
 * engine's runBatch() (each worker owns its own GpuSimulator; the
 * scene cache is shared). Results are returned in job order and are
 * bit-identical for any --jobs value.
 *
 * A figure binary cannot use a grid with holes, so any failed job
 * aborts the run: failures are summarized on stderr, the exporters
 * flushed, and the first failure rethrown as SimError for the guarded
 * main (distinct exit code per failure kind).
 */
std::vector<RunOutput> runGrid(const std::vector<GridJob> &jobs,
                               const BenchOptions &opt);

/** Geometric mean of speedups / ratios. */
double geoMeanRatio(const std::vector<double> &ratios);

/** Print a header row followed by a separator. */
void printHeader(const std::string &title,
                 const std::vector<std::string> &columns);

/** Print one row: label + formatted numeric cells. */
void printRow(const std::string &label,
              const std::vector<double> &cells, int precision = 3);

/** Route printHeader/printRow copies to a CSV file ("" disables). */
void setCsvOutput(const std::string &path);

} // namespace bench
} // namespace dtexl

#endif // DTEXL_BENCH_HARNESS_HH
