#include "telemetry/cli_options.hh"

#include <cstdio>
#include <cstdlib>

#include "cache/result_key.hh"
#include "common/config.hh"
#include "common/fault_inject.hh"
#include "common/log.hh"
#include "common/sim_error.hh"
#include "common/trace.hh"
#include "obs/event_bus.hh"
#include "telemetry/export.hh"

namespace dtexl {

bool
CommonCliOptions::tryParse(const std::string &arg)
{
    if (arg.rfind("--jobs=", 0) == 0) {
        const char *value = arg.c_str() + 7;
        char *end = nullptr;
        const unsigned long n = std::strtoul(value, &end, 10);
        if (end == value || *end != '\0' || n < 1 || n > 256)
            throwUserError("--jobs must be a number in [1, 256], got "
                           "'%s'", value);
        jobs = static_cast<unsigned>(n);
        return true;
    }
    if (arg.rfind("--trace=", 0) == 0) {
        tracePath = arg.substr(8);
        if (tracePath.empty())
            fatal("--trace needs a file path");
        TraceWriter::global().enable(tracePath);
        return true;
    }
    if (arg.rfind("--stats-json=", 0) == 0) {
        statsJsonPath = arg.substr(13);
        if (statsJsonPath.empty())
            fatal("--stats-json needs a file path");
        TelemetryExport::global().setStatsJsonPath(statsJsonPath);
        return true;
    }
    if (arg.rfind("--timeline-csv=", 0) == 0) {
        timelineCsvPath = arg.substr(15);
        if (timelineCsvPath.empty())
            fatal("--timeline-csv needs a file path");
        TelemetryExport::global().setTimelineCsvPath(timelineCsvPath);
        return true;
    }
    if (arg.rfind("--crash-dir=", 0) == 0) {
        crashDir = arg.substr(12);
        if (crashDir.empty())
            fatal("--crash-dir needs a directory path");
        setCrashReportDir(crashDir);
        return true;
    }
    if (arg.rfind("--cache-dir=", 0) == 0) {
        cacheDir = arg.substr(12);
        if (cacheDir.empty())
            fatal("--cache-dir needs a directory path");
        return true;
    }
    if (arg.rfind("--cache=", 0) == 0) {
        cacheMode = cacheModeFromString(arg.substr(8));
        return true;
    }
    if (arg.rfind("--checkpoint-every=", 0) == 0) {
        const char *value = arg.c_str() + 19;
        char *end = nullptr;
        const unsigned long n = std::strtoul(value, &end, 10);
        if (end == value || *end != '\0' || n < 1 || n > 100'000)
            throwUserError("--checkpoint-every must be a number in "
                           "[1, 100000], got '%s'", value);
        checkpointEvery = static_cast<std::uint32_t>(n);
        return true;
    }
    if (arg == "--resume") {
        resumeFlag = true;
        return true;
    }
    if (arg.rfind("--cache-gc=", 0) == 0) {
        // AGE in seconds, or with a unit suffix: 90, 30s, 15m, 2h, 7d.
        const std::string value = arg.substr(11);
        char *end = nullptr;
        const unsigned long long n =
            std::strtoull(value.c_str(), &end, 10);
        std::uint64_t scale = 1;
        if (end != value.c_str() && end[0] != '\0' && end[1] == '\0') {
            switch (*end) {
              case 's': scale = 1; break;
              case 'm': scale = 60; break;
              case 'h': scale = 3600; break;
              case 'd': scale = 86400; break;
              default: scale = 0; break;
            }
        } else if (end == value.c_str() || *end != '\0') {
            scale = 0;
        }
        if (scale == 0)
            throwUserError("--cache-gc must be an age like 90, 30s, "
                           "15m, 2h or 7d, got '%s'", value.c_str());
        cacheGcAge = static_cast<std::uint64_t>(n) * scale;
        return true;
    }
    if (arg.rfind("--events=", 0) == 0) {
        eventsPath = arg.substr(9);
        if (eventsPath.empty())
            fatal("--events needs a file path");
        EventBus::global().enable(eventsPath);
        return true;
    }
    if (arg == "--progress") {
        progressFlag = true;
        EventBus::global().enableProgress();
        return true;
    }
    if (arg == "--version") {
        std::printf("%s\n", buildVersionString().c_str());
        std::exit(kExitSuccess);
    }
    if (arg.rfind("--inject-fault=", 0) == 0) {
        // SITE[:COUNT[@SKIP]]: fire COUNT times after letting the
        // first SKIP hook evaluations pass. faultSiteFromString()
        // throws a user error listing the legal site names on junk.
        std::string spec = arg.substr(15);
        std::uint32_t count = 1;
        std::uint32_t skip = 0;
        const std::size_t colon = spec.find(':');
        if (colon != std::string::npos) {
            std::string num = spec.substr(colon + 1);
            const std::size_t at = num.find('@');
            if (at != std::string::npos) {
                const std::string skip_str = num.substr(at + 1);
                char *send = nullptr;
                const unsigned long s =
                    std::strtoul(skip_str.c_str(), &send, 10);
                if (send == skip_str.c_str() || *send != '\0' ||
                    s > 1'000'000) {
                    throwUserError("--inject-fault skip must be in "
                                   "[0, 1000000], got '%s'",
                                   skip_str.c_str());
                }
                skip = static_cast<std::uint32_t>(s);
                num.resize(at);
            }
            char *end = nullptr;
            const unsigned long n =
                std::strtoul(num.c_str(), &end, 10);
            if (end == num.c_str() || *end != '\0' || n < 1 ||
                n > 1'000'000) {
                throwUserError("--inject-fault count must be in "
                               "[1, 1000000], got '%s'", num.c_str());
            }
            count = static_cast<std::uint32_t>(n);
            spec.resize(colon);
        }
        FaultInject::global().arm(faultSiteFromString(spec), count,
                                  skip);
        return true;
    }
    return false;
}

void
CommonCliOptions::rejectUnknown(const std::string &arg,
                                const char *usage)
{
    throwUserError("unknown argument '%s'%s%s", arg.c_str(),
                   usage && *usage ? "\n" : "",
                   usage ? usage : "");
}

void
CommonCliOptions::noteInvocation(int argc, char *const *argv)
{
    std::string joined;
    for (int i = 0; i < argc; ++i) {
        if (i > 0)
            joined += ' ';
        joined += argv[i];
    }
    EventBus::global().setInvocation(std::move(joined));
}

void
CommonCliOptions::applyRunOptions(const GpuConfig &cfg) const
{
    // Arm the result cache here, not at parse time: --cache may appear
    // before --cache-dir on the command line. configure() validates
    // the combination and is idempotent (the bench harness applies the
    // options once per variant).
    ResultCache::global().configure(cacheDir, cacheMode,
                                    checkpointEvery, resumeFlag);

    // --cache-gc: prune leaked checkpoints before the run touches the
    // store. The age guard protects live checkpoints of a concurrent
    // daemon sharing the directory.
    if (cacheGcAge != kCacheGcUnset) {
        if (cacheDir.empty())
            throwUserError("--cache-gc requires --cache-dir=DIR");
        const CheckpointGcReport gc =
            pruneStaleCheckpoints(cacheDir, cacheGcAge);
        inform("cache gc: removed %llu of %llu checkpoint file(s), "
               "%llu byte(s) reclaimed",
               static_cast<unsigned long long>(gc.removed),
               static_cast<unsigned long long>(gc.scanned),
               static_cast<unsigned long long>(gc.bytes));
    }

    // Open the ledger: run_start carries the config digest, which
    // deliberately excludes the host-execution knobs, so the same
    // sweep hashes identically for any --jobs. First call wins
    // (the bench harness applies the options once per config variant).
    if (EventBus::armed())
        EventBus::global().emitRunStart(hashConfig(cfg),
                                        buildFingerprint());
}

const char *
CommonCliOptions::helpText()
{
    return
        "  --jobs=N            worker threads for the batch driver\n"
        "  --trace=FILE        write Chrome-trace JSON "
        "(chrome://tracing)\n"
        "  --stats-json=FILE   write a flat JSON dump of all counters\n"
        "                      (schema dtexl-stats-v1)\n"
        "  --timeline-csv=FILE write telemetry=2 per-tile counter rows "
        "as CSV\n"
        "  --crash-dir=DIR     directory for watchdog crash reports "
        "(default .)\n"
        "  --cache-dir=DIR     root of the content-addressed result "
        "store\n"
        "  --cache=MODE        off (default), read, or readwrite: "
        "serve repeated\n"
        "                      (scene, config) jobs from --cache-dir "
        "with\n"
        "                      byte-identical results\n"
        "  --checkpoint-every=N\n"
        "                      checkpoint each job's warm state to "
        "--cache-dir\n"
        "                      every N frames\n"
        "  --resume            resume interrupted jobs from their "
        "checkpoints\n"
        "                      (bit-identical to an uninterrupted "
        "run)\n"
        "  --cache-gc=AGE      prune ckpt-*.bin files in --cache-dir "
        "older than\n"
        "                      AGE (90, 30s, 15m, 2h, 7d; 0 = all) "
        "before the run\n"
        "  --events=FILE       append-only JSONL run-event ledger "
        "(schema\n"
        "                      dtexl-events-v1; validate/summarize "
        "with\n"
        "                      scripts/run_report.py)\n"
        "  --progress          live progress line on stderr (jobs, "
        "frames,\n"
        "                      frames/s, ETA, cache hits)\n"
        "  --version           print the build fingerprint and exit\n"
        "  --inject-fault=SITE[:N[@SKIP]]\n"
        "                      arm a fault-injection site for N hook "
        "evaluations\n"
        "                      after SKIP unharmed ones (testing/CI; "
        "sites:\n"
        "                      scene-truncate, scene-corrupt-token, "
        "config-mis-size,\n"
        "                      barrier-credit-leak, "
        "drop-mem-completion,\n"
        "                      cache-truncate, ckpt-flip-byte, "
        "frame-io-fail)\n";
}

} // namespace dtexl
