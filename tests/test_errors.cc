/**
 * @file
 * Structured error model tests: the SimError taxonomy and exit-code
 * mapping, GpuConfig::validate() coverage (every rejected knob names
 * itself and its legal range), crash-report files, the failure-flush
 * hook registry, and the guarded-main wrapper every CLI exits through.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>

#include "common/config.hh"
#include "common/log.hh"
#include "common/sim_error.hh"
#include "telemetry/cli_options.hh"

namespace dtexl {
namespace {

/** Expect validate() on @p mutate(cfg) to throw Config naming @p knob. */
void
expectConfigReject(const std::function<void(GpuConfig &)> &mutate,
                   const std::string &knob)
{
    GpuConfig cfg;
    mutate(cfg);
    try {
        cfg.validate();
        FAIL() << "expected Config SimError naming " << knob;
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Config);
        EXPECT_NE(std::string(e.what()).find(knob), std::string::npos)
            << knob << " not named in: " << e.what();
    }
}

TEST(SimErrors, ExitCodeMapping)
{
    EXPECT_EQ(exitCodeFor(ErrorKind::UserInput), kExitUserError);
    EXPECT_EQ(exitCodeFor(ErrorKind::Config), kExitUserError);
    EXPECT_EQ(exitCodeFor(ErrorKind::Io), kExitUserError);
    EXPECT_EQ(exitCodeFor(ErrorKind::Watchdog), kExitWatchdog);
    EXPECT_EQ(exitCodeFor(ErrorKind::Internal), kExitInternal);
}

TEST(SimErrors, DescribeFormat)
{
    const SimError plain(ErrorKind::Internal, "broken invariant");
    EXPECT_EQ(plain.describe(), "internal: broken invariant");

    const SimError located(ErrorKind::UserInput, "bad token",
                           "scene.dscene:12:7");
    EXPECT_EQ(located.describe(),
              "user-input: bad token (scene.dscene:12:7)");
}

TEST(SimErrors, PanicAndFatalThrowInsteadOfAborting)
{
    try {
        fatal("user gave %d bad inputs", 3);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::UserInput);
        EXPECT_STREQ(e.what(), "user gave 3 bad inputs");
    }
    try {
        panic("invariant %s violated", "x");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Internal);
    }
    // dtexl_assert carries the failed condition and file:line context.
    try {
        dtexl_assert(1 == 2, "math %s", "stopped working");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Internal);
        EXPECT_NE(std::string(e.what()).find("1 == 2"),
                  std::string::npos);
        EXPECT_NE(e.context().find(":"), std::string::npos);
    }
}

TEST(ConfigValidate, AcceptsDefaultsAndPresets)
{
    EXPECT_NO_THROW(GpuConfig{}.validate());
    EXPECT_NO_THROW(makeBaselineConfig().validate());
    EXPECT_NO_THROW(makeDTexLConfig().validate());
    EXPECT_NO_THROW(makeUpperBoundConfig().validate());
}

TEST(ConfigValidate, RejectsEveryBrokenKnobByName)
{
    expectConfigReject([](GpuConfig &c) { c.clockHz = 0; }, "clock");
    expectConfigReject([](GpuConfig &c) { c.screenWidth = 0; },
                       "screen");
    expectConfigReject(
        [](GpuConfig &c) { c.screenWidth = kMaxScreenSide + 1; },
        "screen");
    expectConfigReject(
        [](GpuConfig &c) { c.screenHeight = 0xFFFFFFFFu; }, "screen");
    expectConfigReject([](GpuConfig &c) { c.tileSize = 3; },
                       "tile size");
    expectConfigReject([](GpuConfig &c) { c.tileSize = 0; },
                       "tile size");
    // Even sizes whose side in quads is not a multiple of 4: the
    // subtile layout would assert (an internal error) instead.
    expectConfigReject([](GpuConfig &c) { c.tileSize = 4; },
                       "tile size");
    expectConfigReject([](GpuConfig &c) { c.tileSize = 12; },
                       "tile size");
    expectConfigReject(
        [](GpuConfig &c) {
            c = makeUpperBoundConfig();
            c.tileSize = 12;
        },
        "tile size");
    expectConfigReject([](GpuConfig &c) { c.numPipelines = 3; },
                       "numPipelines");
    expectConfigReject([](GpuConfig &c) { c.maxWarpsPerCore = 0; },
                       "warps");
    expectConfigReject([](GpuConfig &c) { c.stageFifoDepth = 0; },
                       "fifo");
    expectConfigReject([](GpuConfig &c) { c.rasterQuadsPerCycle = 0; },
                       "rasterQuadsPerCycle");
    expectConfigReject(
        [](GpuConfig &c) { c.textureCache.lineBytes = 48; },
        "line size");
    expectConfigReject(
        [](GpuConfig &c) { c.textureCache.sizeBytes += 13; },
        "not divisible");
    expectConfigReject([](GpuConfig &c) { c.textureCache.numMshrs = 0; },
                       "numMshrs");
    expectConfigReject([](GpuConfig &c) { c.dram.bytesPerCycle = 0; },
                       "dram");
    expectConfigReject(
        [](GpuConfig &c) {
            c.dram.rowMissLatency = c.dram.rowHitLatency - 1;
        },
        "rowMissLatency");
    expectConfigReject([](GpuConfig &c) { c.telemetryLevel = 9; },
                       "telemetry");
}

/** Expect @p fn to throw SimError{UserInput} naming @p name. */
void
expectUserReject(const std::function<void()> &fn, const std::string &name)
{
    try {
        fn();
        FAIL() << "expected UserInput SimError naming " << name;
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::UserInput);
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << name << " not named in: " << e.what();
    }
}

TEST(ConfigValidate, PerJobThreadKnobsAreRejected)
{
    // Every simulation runs on one host thread: the old per-job thread
    // flags and keys are unknown, and the inert GpuConfig members
    // accept only 1.
    for (const std::string flag :
         {"--geom-threads=2", "--raster-threads=auto"}) {
        expectUserReject(
            [&] {
                CommonCliOptions opts;
                if (!opts.tryParse(flag))
                    CommonCliOptions::rejectUnknown(flag);
            },
            flag.substr(0, flag.find('=')));
    }
    for (const std::string key : {"geom_threads", "raster_threads"}) {
        expectUserReject(
            [&] {
                GpuConfig cfg;
                applyConfigOption(cfg, key, "2");
            },
            key);
    }
    // The simulator-path and host SIMD selectors are gone too: one
    // implementation per behaviour, so neither their keys nor their
    // flags are accepted.
    const std::pair<const char *, const char *> retired[] = {
        {"fastpath", "0"}, {"simd", "scalar"}};
    for (const auto &[key, value] : retired) {
        expectUserReject(
            [&] {
                GpuConfig cfg;
                applyConfigOption(cfg, key, value);
            },
            key);
    }
    for (const std::string flag : {"--reference-path", "--simd=scalar"}) {
        expectUserReject(
            [&] {
                CommonCliOptions opts;
                if (!opts.tryParse(flag))
                    CommonCliOptions::rejectUnknown(flag);
            },
            flag.substr(0, flag.find('=')));
    }
    expectUserReject(
        [] {
            GpuConfig cfg;
            cfg.geomThreads = 2;
            cfg.validate();
        },
        "geomThreads");
    expectUserReject(
        [] {
            GpuConfig cfg;
            cfg.rasterThreads = 0;
            cfg.validate();
        },
        "rasterThreads");
}

TEST(ConfigValidate, OutOfRangeNumericOptionsAreRejected)
{
    // A bare cast to 32 bits used to rewrite these silently (a 1 KiB
    // L2 from l2_kib=4194305, 512 wide from width=4294967808, 4 warps
    // from warps=4294967300), and width=-1 wrapped to a screen too big
    // to allocate. Each must fail as a UserInput error naming the key.
    const std::pair<const char *, const char *> bad[] = {
        {"l2_kib", "4194304"},         // 4 GiB: byte size overflows
        {"l2_kib", "4194305"},
        {"l1tex_kib", "18446744073709551615"},
        {"width", "4294967808"},
        {"width", "-1"},
        {"height", "-0"},
        {"warps", "4294967300"},
        {"fifo", " 8"},
        {"tile", "+32"},
        {"telemetry", "99999999999999999999999"},
        {"watchdog_cycles", "-1"},
        {"watchdog_cycles", "18446744073709551616"},
    };
    for (const auto &[key, value] : bad) {
        SCOPED_TRACE(std::string(key) + "=" + value);
        expectUserReject(
            [&] {
                GpuConfig cfg;
                applyConfigOption(cfg, key, value);
            },
            key);
    }
    // The largest values that fit still parse exactly.
    GpuConfig cfg;
    applyConfigOption(cfg, "l2_kib", "4194303");
    EXPECT_EQ(cfg.l2Cache.sizeBytes, 4194303u * 1024u);
    applyConfigOption(cfg, "warps", "4294967295");
    EXPECT_EQ(cfg.maxWarpsPerCore, 4294967295u);
    applyConfigOption(cfg, "watchdog_cycles", "18446744073709551615");
    EXPECT_EQ(cfg.watchdogCycles, 18446744073709551615ull);
}

TEST(ConfigValidate, WatchdogKnobParsesAndValidates)
{
    GpuConfig cfg;
    applyConfigOption(cfg, "watchdog_cycles", "12345");
    EXPECT_EQ(cfg.watchdogCycles, 12345u);
    applyConfigOption(cfg, "watchdog_cycles", "0");  // 0 disables
    EXPECT_EQ(cfg.watchdogCycles, 0u);
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_THROW(applyConfigOption(cfg, "watchdog_cycles", "soon"),
                 SimError);
}

TEST(SimErrors, CrashReportFileCarriesDump)
{
    setCrashReportDir(::testing::TempDir());
    const SimError err(ErrorKind::Watchdog, "no forward progress",
                       "tile 7", "unit occupancy:\n  sc0: wedged\n");
    const std::string path = writeCrashReport("my/job label", err);
    ASSERT_FALSE(path.empty());
    // The label is sanitized into a filename (no '/' past the
    // "<dir>/" prefix the report path starts with).
    EXPECT_EQ(path.find('/', ::testing::TempDir().size() + 1),
              std::string::npos);

    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string report = ss.str();
    EXPECT_NE(report.find("watchdog"), std::string::npos);
    EXPECT_NE(report.find("no forward progress"), std::string::npos);
    EXPECT_NE(report.find("tile 7"), std::string::npos);
    EXPECT_NE(report.find("sc0: wedged"), std::string::npos);

    std::remove(path.c_str());
    setCrashReportDir(".");
}

TEST(SimErrors, FailureFlushHooksRunAndNeverThrow)
{
    static int runs = 0;
    registerFailureFlush([] { ++runs; });
    registerFailureFlush([] { throw std::runtime_error("hook bug"); });
    const int before = runs;
    // Both hooks execute; the throwing one is swallowed (noexcept).
    flushFailureArtifacts();
    flushFailureArtifacts();
    EXPECT_EQ(runs, before + 2);
}

TEST(SimErrors, RunGuardedMainMapsExitCodes)
{
    EXPECT_EQ(runGuardedMain([] { return 0; }), 0);
    EXPECT_EQ(runGuardedMain([]() -> int {
                  throw SimError(ErrorKind::UserInput, "bad flag");
              }),
              kExitUserError);
    EXPECT_EQ(runGuardedMain([]() -> int {
                  throw SimError(ErrorKind::Watchdog, "hung", "",
                                 "dump");
              }),
              kExitWatchdog);
    EXPECT_EQ(runGuardedMain(
                  []() -> int { throw std::bad_alloc(); }),
              kExitInternal);
    // Crash report from the watchdog path above lands in the crash
    // dir under the "main" label; clean it up.
    std::remove((crashReportDir() + "/crash-main.txt").c_str());
}

} // namespace
} // namespace dtexl
