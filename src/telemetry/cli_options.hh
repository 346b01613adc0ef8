/**
 * @file
 * Command-line options shared by every driver binary (the four
 * experiment binaries and sim_cli): worker count, trace output,
 * the result cache, the run ledger and the telemetry exporters. Each binary's arg
 * loop offers unrecognized arguments to CommonCliOptions::tryParse()
 * first, so these flags are spelled, validated and wired identically
 * everywhere instead of five slightly different copies.
 */

#ifndef DTEXL_TELEMETRY_CLI_OPTIONS_HH
#define DTEXL_TELEMETRY_CLI_OPTIONS_HH

#include <cstdint>
#include <string>

#include "cache/result_store.hh"

namespace dtexl {

struct GpuConfig;

/** Options common to every CLI; parse side effects arm the globals. */
struct CommonCliOptions
{
    /** Worker threads for the batch driver (--jobs=N, [1, 256]). */
    unsigned jobs = 1;
    /** --trace=FILE: Chrome-trace JSON; enables TraceWriter. */
    std::string tracePath;
    /** --stats-json=FILE: flat StatRegistry dump (dtexl-stats-v1). */
    std::string statsJsonPath;
    /** --timeline-csv=FILE: level-2 per-tile rows as CSV. */
    std::string timelineCsvPath;
    /** --crash-dir=DIR: where watchdog crash reports land. */
    std::string crashDir;
    /** --cache-dir=DIR: root of the content-addressed result store. */
    std::string cacheDir;
    /** --cache=off|read|readwrite: per-job result-cache mode. */
    CacheMode cacheMode = CacheMode::Off;
    /** --checkpoint-every=N: checkpoint every N frames (0 = off). */
    std::uint32_t checkpointEvery = 0;
    /** --resume: resume interrupted jobs from their checkpoints. */
    bool resumeFlag = false;
    /** --cache-gc=AGE value meaning "not given". */
    static constexpr std::uint64_t kCacheGcUnset = ~0ull;
    /**
     * --cache-gc=AGE: prune ckpt-*.bin files in --cache-dir older than
     * AGE (seconds, or with an s/m/h/d suffix; 0 = all) before the
     * run. Applied by applyRunOptions() after the cache is armed.
     */
    std::uint64_t cacheGcAge = kCacheGcUnset;
    /** --events=FILE: JSONL run-event ledger (dtexl-events-v1). */
    std::string eventsPath;
    /** --progress: live jobs/frames/ETA line on stderr. */
    bool progressFlag = false;

    /**
     * Consume @p arg if it is one of the shared flags (returns true);
     * throws SimError{UserInput} on a malformed value. Side effects:
     * --trace enables the global TraceWriter, --stats-json /
     * --timeline-csv arm the global TelemetryExport, --crash-dir sets
     * the crash-report directory, --inject-fault=SITE[:N] arms a
     * fault-injection site. The cache flags (--cache-dir, --cache,
     * --checkpoint-every, --resume) only record values here; they are
     * applied by applyRunOptions() so flag order never matters.
     */
    bool tryParse(const std::string &arg);

    /**
     * Record the process invocation (joined argv) for the ledger's
     * run_start event. Every driver calls this before its arg loop;
     * free-standing (no EventBus arming) so it is safe whether or not
     * --events ends up on the command line.
     */
    static void noteInvocation(int argc, char *const *argv);

    /**
     * Throw the canonical unknown-argument SimError{UserInput} for
     * @p arg, appending @p usage (typically the binary's usage/help
     * text) to the message. Every CLI's final else branch lands here so
     * unknown flags exit with kExitUserError and a usage hint.
     */
    [[noreturn]] static void rejectUnknown(const std::string &arg,
                                           const char *usage = "");

    /**
     * Apply the run-level options that must wait until every flag is
     * parsed, whatever their order on the command line: arm the global
     * ResultCache from the recorded cache flags, run --cache-gc and
     * open the --events ledger (its run_start carries @p cfg's
     * digest). Call after every other
     * config option is applied, before cfg.validate(). Idempotent:
     * the bench harness calls it once per config variant, and the
     * first call opens the ledger.
     */
    void applyRunOptions(const GpuConfig &cfg) const;

    /** Help lines for the shared flags (one per line, indented). */
    static const char *helpText();
};

} // namespace dtexl

#endif // DTEXL_TELEMETRY_CLI_OPTIONS_HH
