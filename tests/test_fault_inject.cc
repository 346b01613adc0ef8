/**
 * @file
 * Fault-injection harness tests (see DESIGN.md "Error handling &
 * fault tolerance"): each injection site must produce a structured
 * SimError of the right kind instead of aborting; the forward-progress
 * watchdog must catch the two "hung simulation" faults (leaked barrier
 * credit, dropped memory completion) and emit a crash-report dump;
 * sibling batch jobs must complete bit-exactly next to an injected
 * failure; and the harness must be invisible when disarmed — the same
 * binary, same config, same scene renders bit-identical frames.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/fault_inject.hh"
#include "common/json.hh"
#include "common/sim_error.hh"
#include "core/dtexl.hh"
#include "stats_equality.hh"
#include "telemetry/export.hh"
#include "workloads/scene_io.hh"
#include "workloads/scenegen.hh"

namespace dtexl {
namespace {

GpuConfig
smallCfg()
{
    GpuConfig cfg;
    cfg.screenWidth = 256;
    cfg.screenHeight = 128;
    return cfg;
}

/** One single-frame BatchJob over a static scene. */
BatchJob
makeJob(const std::string &label, const GpuConfig &cfg,
        const Scene &scene)
{
    BatchJob job;
    job.label = label;
    job.cfg = cfg;
    const Scene *sp = &scene;
    job.scene = [sp](std::uint32_t) -> const Scene & { return *sp; };
    job.frames = 1;
    return job;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

TEST(FaultInject, DisarmedHarnessIsBitExact)
{
    const GpuConfig cfg = smallCfg();
    const Scene scene = generateScene(benchmarkByAlias("GTr"), cfg, 0);

    GpuSimulator a(cfg, scene);
    const FrameStats fa = a.renderFrame();

    // Arm-and-disarm must leave no residue: a later simulation is
    // bit-identical to one that never saw the harness armed.
    {
        ScopedFault f(FaultSite::DropMemCompletion, 3);
    }
    GpuSimulator b(cfg, scene);
    expectSameStats(fa, b.renderFrame(), "disarmed rerun");
    EXPECT_EQ(FaultInject::global().fired(FaultSite::DropMemCompletion),
              0u);
}

TEST(FaultInject, SiteNamesRoundTripAndRejectJunk)
{
    for (std::uint32_t s = 0;
         s < static_cast<std::uint32_t>(FaultSite::kNumSites); ++s) {
        const FaultSite site = static_cast<FaultSite>(s);
        EXPECT_EQ(faultSiteFromString(toString(site)), site);
    }
    try {
        faultSiteFromString("no-such-site");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::UserInput);
        // The message must list the legal names.
        EXPECT_NE(std::string(e.what()).find("scene-truncate"),
                  std::string::npos);
    }
}

TEST(FaultInject, SceneTruncateYieldsUserInputError)
{
    const GpuConfig cfg = smallCfg();
    const Scene scene = generateScene(benchmarkByAlias("SoD"), cfg, 0);
    std::stringstream ss;
    saveScene(ss, scene);

    ScopedFault f(FaultSite::SceneTruncate);
    try {
        loadScene(ss, "injected.dscene");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::UserInput);
        EXPECT_NE(std::string(e.what()).find("unexpected end of file"),
                  std::string::npos);
    }
    EXPECT_EQ(FaultInject::global().fired(FaultSite::SceneTruncate),
              1u);
}

TEST(FaultInject, SceneCorruptTokenYieldsUserInputError)
{
    const GpuConfig cfg = smallCfg();
    const Scene scene = generateScene(benchmarkByAlias("SoD"), cfg, 0);
    std::stringstream ss;
    saveScene(ss, scene);

    ScopedFault f(FaultSite::SceneCorruptToken);
    try {
        loadScene(ss, "injected.dscene");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::UserInput);
        // The corrupted token is quoted (control byte sanitized) and
        // pinned to source:line:column.
        EXPECT_NE(std::string(e.what()).find("corrupt"),
                  std::string::npos)
            << e.what();
        EXPECT_EQ(e.context().rfind("injected.dscene:", 0), 0u)
            << e.context();
    }
}

TEST(FaultInject, ConfigMisSizeRejectedAtConstruction)
{
    const GpuConfig cfg = smallCfg();
    const Scene scene = generateScene(benchmarkByAlias("SoD"), cfg, 0);

    ScopedFault f(FaultSite::ConfigMisSize);
    try {
        GpuSimulator gpu(cfg, scene);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Config);
    }
}

TEST(FaultInject, DroppedMemCompletionTripsWatchdogWithIsolation)
{
    const GpuConfig cfg = smallCfg();
    const Scene scene = generateScene(benchmarkByAlias("GTr"), cfg, 0);

    // Clean reference for the sibling job.
    GpuSimulator ref(cfg, scene);
    const FrameStats clean = ref.renderFrame();

    setCrashReportDir(::testing::TempDir());
    ScopedFault f(FaultSite::DropMemCompletion);
    // Two jobs, serial workers: the first job absorbs the armed fault
    // and must fail on the watchdog; the second must complete and be
    // bit-identical to the clean run. The process never aborts.
    const std::vector<BatchJob> jobs = {
        makeJob("victim", cfg, scene), makeJob("sibling", cfg, scene)};
    const std::vector<BatchResult> res = runBatch(jobs, 1);

    ASSERT_EQ(res.size(), 2u);
    ASSERT_FALSE(res[0].ok);
    EXPECT_EQ(res[0].errorKind, ErrorKind::Watchdog);
    EXPECT_NE(res[0].error.find("no forward progress"),
              std::string::npos)
        << res[0].error;

    // The crash report exists and carries the pipeline-state dump.
    ASSERT_FALSE(res[0].crashReportPath.empty());
    const std::string report = readFile(res[0].crashReportPath);
    ASSERT_FALSE(report.empty()) << res[0].crashReportPath;
    EXPECT_NE(report.find("watchdog"), std::string::npos);
    EXPECT_NE(report.find("shader cores"), std::string::npos);
    EXPECT_NE(report.find("raster pipeline"), std::string::npos);
    EXPECT_NE(report.find("memory in flight"), std::string::npos);
    // The shader-core state at the trip, recorded before ALU issue
    // left the cross-core merge: every core has processed exactly the
    // events that precede the parked one in (cycle, core) order.
    const std::size_t sc_begin = report.find("shader cores");
    const std::size_t sc_end = report.find("raster pipeline", sc_begin);
    ASSERT_NE(sc_end, std::string::npos);
    EXPECT_EQ(report.substr(sc_begin, sc_end - sc_begin),
              "shader cores (last progress cycle 1224)\n"
              "  sc0: 1 active warp(s), admitted 67/67 quads, next issue "
              "at 1225\n"
              "    warp 0: quad 0 (batch 0), ready at 4611686018427387908 "
              "(+4611686018427386684), alu left 1, tex left 1\n"
              "  sc1: 0 active warp(s), admitted 67/67 quads, next issue "
              "at 1225\n"
              "  sc2: 0 active warp(s), admitted 67/67 quads, next issue "
              "at 1219\n"
              "  sc3: 0 active warp(s), admitted 67/67 quads, next issue "
              "at 1220\n");

    ASSERT_TRUE(res[1].ok) << res[1].error;
    ASSERT_EQ(res[1].frames.size(), 1u);
    expectSameStats(res[1].frames[0], clean, "sibling next to fault");
    EXPECT_EQ(batchExitCode(res), kExitPartialBatch);

    std::remove(res[0].crashReportPath.c_str());
    setCrashReportDir(".");
}

TEST(FaultInject, BarrierCreditLeakTripsWatchdogWithIsolation)
{
    GpuConfig cfg = smallCfg();
    // A shallow stage FIFO puts the leaked (never-consumed) credit at
    // the head quickly, so the stall surfaces within the first tiles.
    cfg.stageFifoDepth = 2;
    const Scene scene = generateScene(benchmarkByAlias("GTr"), cfg, 0);

    GpuSimulator ref(cfg, scene);
    const FrameStats clean = ref.renderFrame();

    setCrashReportDir(::testing::TempDir());
    ScopedFault f(FaultSite::BarrierCreditLeak);
    const std::vector<BatchJob> jobs = {
        makeJob("leak-victim", cfg, scene),
        makeJob("leak-sibling", cfg, scene)};
    const std::vector<BatchResult> res = runBatch(jobs, 1);

    ASSERT_EQ(res.size(), 2u);
    ASSERT_FALSE(res[0].ok);
    EXPECT_EQ(res[0].errorKind, ErrorKind::Watchdog);
    EXPECT_EQ(FaultInject::global().fired(FaultSite::BarrierCreditLeak),
              1u);

    ASSERT_FALSE(res[0].crashReportPath.empty());
    const std::string report = readFile(res[0].crashReportPath);
    EXPECT_NE(report.find("raster pipeline"), std::string::npos);
    EXPECT_NE(report.find("fifo"), std::string::npos);

    ASSERT_TRUE(res[1].ok) << res[1].error;
    ASSERT_EQ(res[1].frames.size(), 1u);
    expectSameStats(res[1].frames[0], clean, "sibling next to leak");

    std::remove(res[0].crashReportPath.c_str());
    setCrashReportDir(".");
}

TEST(FaultInject, WatchdogBoundaryIsPinned)
{
    // The smallest budget that renders smallCfg() GTr, found by
    // bisection and recorded before ALU issue left the cross-core
    // merge of the shader-core loop. One cycle less trips the
    // per-tile check with exactly this message.
    constexpr Cycle kBoundary = 2301;
    GpuConfig cfg = smallCfg();
    const Scene scene = generateScene(benchmarkByAlias("GTr"), cfg, 0);
    cfg.watchdogCycles = kBoundary;
    GpuSimulator pass(cfg, scene);
    EXPECT_NO_THROW(pass.renderFrame());

    cfg.watchdogCycles = kBoundary - 1;
    GpuSimulator trip(cfg, scene);
    try {
        trip.renderFrame();
        FAIL() << "expected a watchdog trip";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Watchdog);
        EXPECT_EQ(std::string(e.what()),
                  "no forward progress: tile 6 completes at cycle 10714, "
                  "2301 cycles past the previous tile (budget 2300; "
                  "watchdog_cycles=0 disables)");
    }
}

TEST(FaultInject, WatchdogBudgetIsRespectedWhenHealthy)
{
    // A tight-but-sane budget must not fire on a healthy run: the
    // baseline absorbs legitimate gaps (tile barriers, cold misses).
    GpuConfig cfg = smallCfg();
    cfg.watchdogCycles = 100000;
    const Scene scene = generateScene(benchmarkByAlias("SoD"), cfg, 0);
    GpuSimulator gpu(cfg, scene);
    EXPECT_NO_THROW(gpu.renderFrame());

    // watchdog_cycles=0 disables the checks entirely (still healthy).
    GpuConfig off = smallCfg();
    off.watchdogCycles = 0;
    GpuSimulator gpu2(off, scene);
    EXPECT_NO_THROW(gpu2.renderFrame());
}

TEST(FaultInject, FailedJobStillWritesValidJsonArtifacts)
{
    const std::string stats_path =
        ::testing::TempDir() + "fault_inject_stats.json";
    TelemetryExport::global().setStatsJsonPath(stats_path);

    const GpuConfig good = smallCfg();
    GpuConfig bad = smallCfg();
    bad.tileSize = 3;  // rejected by validate() inside the job
    const Scene scene =
        generateScene(benchmarkByAlias("SoD"), good, 0);

    StatRegistry registry("fault_artifacts");
    TelemetryExport::global().attachRegistry(&registry);
    const std::vector<BatchJob> jobs = {makeJob("good", good, scene),
                                        makeJob("bad", bad, scene)};
    const std::vector<BatchResult> res =
        runBatch(jobs, 1, &registry);
    ASSERT_TRUE(res[0].ok);
    ASSERT_FALSE(res[1].ok);
    EXPECT_EQ(res[1].errorKind, ErrorKind::Config);

    // The failure path flushed a checkpoint: the stats JSON exists
    // right now (no atexit needed) and parses cleanly.
    const std::string text = readFile(stats_path);
    ASSERT_FALSE(text.empty());
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(parseJson(text, doc, err)) << text;
    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(doc.find("schema")->text, "dtexl-stats-v1");

    TelemetryExport::global().flush();
    std::remove(stats_path.c_str());
}

} // namespace
} // namespace dtexl
