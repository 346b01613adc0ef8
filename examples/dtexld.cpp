/**
 * @file
 * dtexld — the persistent simulation-service daemon (src/serve/).
 * Listens on a Unix-domain socket for line-framed JSON commands
 * (submit/status/cancel/gc/drain/shutdown/subscribe), runs jobs on a
 * bounded worker pool with per-job deadlines, retry-with-backoff for
 * transient failures, checkpoint resume, and graceful SIGTERM drain.
 * scripts/dtexl_client.py is the reference client.
 *
 * Usage:
 *   dtexld [--state-dir=DIR] [--socket=PATH] [--workers=N]
 *          [--queue-depth=N] [--deadline-ms=N] [--retry-max=N]
 *          [--retry-base-ms=N] [--retry-after-ms=N]
 *          [--preset=baseline|dtexl] [key=value ...]
 *          plus the shared flags (--cache-dir, --events, ...)
 *
 * Defaults favour the robustness features: unless overridden, the
 * state directory hosts the socket (dtexld.sock), the crash-recovery
 * journal (jobs.journal), a rotated event ledger (events.jsonl, the
 * previous run's moved to events.jsonl.1), and a read-write result
 * cache with per-frame checkpoints + resume — so an interrupted or
 * retried job continues from its last completed frame out of the box.
 *
 * key=value options (and --preset) set the BASE config jobs inherit;
 * a submit's own preset/options are applied on top per job.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/dtexl.hh"
#include "obs/event_bus.hh"
#include "serve/daemon.hh"
#include "telemetry/cli_options.hh"

using namespace dtexl;

namespace {

const char *kUsage =
    "usage: dtexld [--state-dir=DIR] [--socket=PATH] [--workers=N] "
    "[--queue-depth=N] [--deadline-ms=N] [--retry-max=N] "
    "[--retry-base-ms=N] [--retry-after-ms=N] "
    "[--preset=baseline|dtexl] [key=value ...] plus the shared flags "
    "(see --help)";

long
parseCount(const std::string &arg, const char *flag, long lo, long hi)
{
    const std::string value = arg.substr(std::strlen(flag));
    char *end = nullptr;
    const long n = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || n < lo || n > hi)
        fatal("%s must be a number in [%ld, %ld], got '%s'", flag, lo,
              hi, value.c_str());
    return n;
}

int
dtexldMain(int argc, char **argv)
{
    CommonCliOptions common;
    CommonCliOptions::noteInvocation(argc, argv);

    DaemonConfig dc;
    dc.stateDir = "dtexld-state";
    GpuConfig cfg = makeBaselineConfig();
    cfg.screenWidth = 640;
    cfg.screenHeight = 288;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (common.tryParse(arg)) {
            // Shared flag.
        } else if (arg.rfind("--state-dir=", 0) == 0) {
            dc.stateDir = arg.substr(12);
            if (dc.stateDir.empty())
                fatal("--state-dir needs a directory path");
        } else if (arg.rfind("--socket=", 0) == 0) {
            dc.socketPath = arg.substr(9);
        } else if (arg.rfind("--workers=", 0) == 0) {
            dc.workers = static_cast<unsigned>(
                parseCount(arg, "--workers=", 1, 64));
        } else if (arg.rfind("--queue-depth=", 0) == 0) {
            dc.queueDepth = static_cast<std::size_t>(
                parseCount(arg, "--queue-depth=", 1, 4096));
        } else if (arg.rfind("--deadline-ms=", 0) == 0) {
            dc.defaultDeadlineMs = static_cast<double>(
                parseCount(arg, "--deadline-ms=", 0, 86400000));
        } else if (arg.rfind("--retry-max=", 0) == 0) {
            dc.retryMax = static_cast<std::uint32_t>(
                parseCount(arg, "--retry-max=", 1, 100));
        } else if (arg.rfind("--retry-base-ms=", 0) == 0) {
            dc.backoff.baseDelayMs = static_cast<std::uint32_t>(
                parseCount(arg, "--retry-base-ms=", 1, 600000));
        } else if (arg.rfind("--retry-after-ms=", 0) == 0) {
            dc.retryAfterMs = static_cast<std::uint32_t>(
                parseCount(arg, "--retry-after-ms=", 0, 600000));
        } else if (arg == "--preset=dtexl") {
            const std::uint32_t w = cfg.screenWidth;
            const std::uint32_t h = cfg.screenHeight;
            cfg = makeDTexLConfig();
            cfg.screenWidth = w;
            cfg.screenHeight = h;
        } else if (arg == "--preset=baseline") {
            // default
        } else if (arg == "--help" || arg == "-h") {
            std::printf("%s\n\nshared flags:\n%s", kUsage,
                        CommonCliOptions::helpText());
            return 0;
        } else if (arg.find('=') != std::string::npos &&
                   arg.rfind("--", 0) != 0) {
            const std::size_t eq = arg.find('=');
            applyConfigOption(cfg, arg.substr(0, eq),
                              arg.substr(eq + 1));
        } else {
            CommonCliOptions::rejectUnknown(arg, kUsage);
        }
    }

    std::error_code ec;
    std::filesystem::create_directories(dc.stateDir, ec);
    if (ec)
        throwIoError("cannot create state dir '%s': %s",
                     dc.stateDir.c_str(), ec.message().c_str());

    if (dc.socketPath.empty())
        dc.socketPath = dc.stateDir + "/dtexld.sock";

    // Checkpoint-resume by default: a retried or drained job should
    // continue, not recompute. Explicit cache flags win.
    if (common.cacheDir.empty()) {
        common.cacheDir = dc.stateDir + "/cache";
        common.cacheMode = CacheMode::ReadWrite;
        if (common.checkpointEvery == 0)
            common.checkpointEvery = 1;
        common.resumeFlag = true;
    }

    // Event ledger, rotated: the previous daemon's ledger survives as
    // events.jsonl.1 (EventBus::enable truncates), so a restart after
    // SIGTERM keeps both halves of the story auditable.
    if (!EventBus::armed()) {
        const std::string ledger = dc.stateDir + "/events.jsonl";
        std::rename(ledger.c_str(), (ledger + ".1").c_str());
        EventBus::global().enable(ledger);
    }

    // Arms the cache and emits run_start with the base config digest.
    common.applyRunOptions(cfg);
    cfg.validate();
    dc.baseCfg = cfg;

    Daemon daemon(std::move(dc));
    return daemon.run();
}

} // namespace

int
main(int argc, char **argv)
{
    return runGuardedMain([&] { return dtexldMain(argc, argv); });
}
