/**
 * @file
 * Phase-structured engine tests: the parallel batch driver must be
 * deterministic for any worker count, and the observability layer
 * (StatRegistry, Chrome trace) must record what the engine did.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "core/dtexl.hh"
#include "harness.hh"
#include "stats_equality.hh"
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

TEST(Engine, SessionAccumulatesHistory)
{
    const GpuConfig cfg = smallCfg();
    const BenchmarkParams &p = benchmarkByAlias("SoD");
    const Scene f0 = generateScene(p, cfg, 0);
    const Scene f1 = generateScene(p, cfg, 1);

    SimulationSession session(cfg, f0, "test");
    const FrameStats a = session.renderFrame();
    const FrameStats b = session.renderFrame(f1);
    ASSERT_EQ(session.history().size(), 2u);
    EXPECT_EQ(session.history()[0].imageHash, a.imageHash);
    EXPECT_EQ(session.history()[1].imageHash, b.imageHash);
    EXPECT_NE(a.imageHash, b.imageHash);
}

/** Build a small mixed batch: 2 benchmarks x 2 configs, 2 frames. */
std::vector<BatchJob>
makeBatch(const std::vector<std::vector<Scene>> &scenes)
{
    GpuConfig base = smallCfg();
    GpuConfig dt = makeDTexLConfig();
    dt.screenWidth = base.screenWidth;
    dt.screenHeight = base.screenHeight;

    std::vector<BatchJob> jobs;
    const char *labels[] = {"SWa/base", "SWa/dtexl", "CCS/base",
                            "CCS/dtexl"};
    const GpuConfig cfgs[] = {base, dt, base, dt};
    for (int j = 0; j < 4; ++j) {
        BatchJob bj;
        bj.label = labels[j];
        bj.cfg = cfgs[j];
        const std::vector<Scene> *sv = &scenes[j];
        bj.scene = [sv](std::uint32_t f) -> const Scene & {
            return (*sv)[f];
        };
        bj.frames = 2;
        jobs.push_back(std::move(bj));
    }
    return jobs;
}

std::vector<std::vector<Scene>>
makeBatchScenes()
{
    GpuConfig base = smallCfg();
    GpuConfig dt = makeDTexLConfig();
    dt.screenWidth = base.screenWidth;
    dt.screenHeight = base.screenHeight;
    const char *aliases[] = {"SWa", "SWa", "CCS", "CCS"};
    const GpuConfig cfgs[] = {base, dt, base, dt};

    std::vector<std::vector<Scene>> scenes;
    for (int j = 0; j < 4; ++j) {
        scenes.emplace_back();
        for (std::uint32_t f = 0; f < 2; ++f)
            scenes.back().push_back(generateScene(
                benchmarkByAlias(aliases[j]), cfgs[j], f));
    }
    return scenes;
}

TEST(Engine, RunBatchDeterministicAcrossWorkerCounts)
{
    const std::vector<std::vector<Scene>> scenes = makeBatchScenes();
    const std::vector<BatchJob> jobs = makeBatch(scenes);

    const std::vector<BatchResult> serial = runBatch(jobs, 1);
    const std::vector<BatchResult> parallel = runBatch(jobs, 4);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        // Collected in submission order under both worker counts...
        EXPECT_EQ(serial[i].label, jobs[i].label);
        EXPECT_EQ(parallel[i].label, jobs[i].label);
        // ...with bit-identical per-frame outputs.
        ASSERT_EQ(serial[i].frames.size(), 2u);
        ASSERT_EQ(parallel[i].frames.size(), 2u);
        for (std::size_t f = 0; f < 2; ++f)
            expectSameStats(serial[i].frames[f], parallel[i].frames[f],
                            jobs[i].label + " frame " +
                                std::to_string(f));
    }
}

TEST(Engine, RunBatchMatchesDirectSimulation)
{
    const std::vector<std::vector<Scene>> scenes = makeBatchScenes();
    const std::vector<BatchJob> jobs = makeBatch(scenes);
    const std::vector<BatchResult> results = runBatch(jobs, 2);

    // Job 0 must equal a plain warm-cache GpuSimulator run.
    GpuSimulator gpu(jobs[0].cfg, scenes[0][0]);
    const FrameStats a = gpu.renderFrame();
    gpu.setScene(scenes[0][1]);
    const FrameStats b = gpu.renderFrame();
    expectSameStats(results[0].frames[0], a, "job0 frame0");
    expectSameStats(results[0].frames[1], b, "job0 frame1");
}

TEST(Engine, FaultIsolationKeepsSiblingJobsBitExact)
{
    const std::vector<std::vector<Scene>> scenes = makeBatchScenes();
    std::vector<BatchJob> jobs = makeBatch(scenes);
    ASSERT_EQ(jobs.size(), 4u);

    // Job 2's simulator constructor must reject this config: tiles are
    // quad-aligned, so an odd tile size fails GpuConfig::validate().
    jobs[2].cfg.tileSize = 3;

    const std::vector<BatchResult> faulty = runBatch(jobs, 4);

    ASSERT_EQ(faulty.size(), 4u);
    // Submission order is preserved around the failure...
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(faulty[i].label, jobs[i].label);
    // ...the broken job fails alone, classified as a config error...
    EXPECT_TRUE(faulty[0].ok);
    EXPECT_TRUE(faulty[1].ok);
    EXPECT_TRUE(faulty[3].ok);
    ASSERT_FALSE(faulty[2].ok);
    EXPECT_EQ(faulty[2].errorKind, ErrorKind::Config);
    EXPECT_NE(faulty[2].error.find("tile"), std::string::npos)
        << faulty[2].error;
    EXPECT_TRUE(faulty[2].frames.empty());
    EXPECT_EQ(batchExitCode(faulty), kExitPartialBatch);

    // ...and the surviving jobs are bit-identical to a clean batch
    // that never contained the broken job.
    const std::vector<BatchJob> clean = {jobs[0], jobs[1], jobs[3]};
    const std::vector<BatchResult> ref = runBatch(clean, 3);
    ASSERT_EQ(ref.size(), 3u);
    const std::size_t pairs[3][2] = {{0, 0}, {1, 1}, {3, 2}};
    for (const auto &pair : pairs) {
        const BatchResult &got = faulty[pair[0]];
        const BatchResult &want = ref[pair[1]];
        ASSERT_EQ(got.frames.size(), want.frames.size());
        for (std::size_t f = 0; f < got.frames.size(); ++f)
            expectSameStats(got.frames[f], want.frames[f],
                            got.label + " frame " + std::to_string(f));
    }
}

TEST(Engine, BatchExitCodeClassification)
{
    std::vector<BatchResult> all_ok(2);
    EXPECT_EQ(batchExitCode(all_ok), kExitSuccess);

    std::vector<BatchResult> all_bad(2);
    for (BatchResult &r : all_bad) {
        r.ok = false;
        r.errorKind = ErrorKind::UserInput;
    }
    EXPECT_EQ(batchExitCode(all_bad), kExitUserError);
    all_bad[0].errorKind = ErrorKind::Watchdog;
    EXPECT_EQ(batchExitCode(all_bad), kExitWatchdog);

    std::vector<BatchResult> mixed(2);
    mixed[1].ok = false;
    mixed[1].errorKind = ErrorKind::Internal;
    EXPECT_EQ(batchExitCode(mixed), kExitPartialBatch);
}

TEST(Engine, StatRegistryCollectsPerPhaseCounters)
{
    const GpuConfig cfg = smallCfg();
    const Scene scene =
        generateScene(benchmarkByAlias("SoD"), cfg, 0);

    StatRegistry reg("test");
    GpuSimulator gpu(cfg, scene);
    gpu.setStatRegistry(&reg, "engine");
    const FrameStats fs = gpu.renderFrame();

    EXPECT_EQ(reg.node("engine.geometry").get("frames"), 1u);
    EXPECT_EQ(reg.node("engine.geometry").get("cycles"),
              fs.geometryCycles);
    EXPECT_EQ(reg.node("engine.raster").get("cycles"),
              fs.rasterCycles);
    const std::string dump = reg.dump();
    EXPECT_NE(dump.find("geometry"), std::string::npos);
    EXPECT_NE(dump.find("cycles"), std::string::npos);
}

TEST(Engine, StatRegistryHierarchy)
{
    StatRegistry reg("r");
    reg.inc("a.b", "x", 2);
    reg.inc("a.b", "x", 3);
    reg.inc("a.c", "y");
    EXPECT_EQ(reg.node("a.b").get("x"), 5u);
    ASSERT_EQ(reg.paths().size(), 2u);
    EXPECT_EQ(reg.paths()[0], "a.b");
    reg.clear();
    EXPECT_EQ(reg.node("a.b").get("x"), 0u);
}

TEST(Engine, BenchOptionsSkipsEmptyBenchmarkSegments)
{
    const char *argv[] = {"prog", "--benchmarks=SoD,,GTr,"};
    const bench::BenchOptions opt =
        bench::BenchOptions::parse(2, const_cast<char **>(argv));
    ASSERT_EQ(opt.aliases.size(), 2u);
    EXPECT_EQ(opt.aliases[0], "SoD");
    EXPECT_EQ(opt.aliases[1], "GTr");
}

TEST(Engine, BenchOptionsRejectsUnknownAlias)
{
    const char *argv[] = {"prog", "--benchmarks=NoSuchGame"};
    try {
        bench::BenchOptions::parse(2, const_cast<char **>(argv));
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::UserInput);
        EXPECT_EQ(exitCodeFor(e.kind()), kExitUserError);
        EXPECT_NE(std::string(e.what()).find("unknown benchmark alias"),
                  std::string::npos);
    }
}

TEST(Engine, BenchOptionsRejectsAllEmptyList)
{
    const char *argv[] = {"prog", "--benchmarks=,"};
    try {
        bench::BenchOptions::parse(2, const_cast<char **>(argv));
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::UserInput);
        EXPECT_NE(std::string(e.what()).find("at least one alias"),
                  std::string::npos);
    }
}

TEST(Engine, BenchOptionsRejectsUnknownFlag)
{
    const char *argv[] = {"prog", "--frobnicate"};
    try {
        bench::BenchOptions::parse(2, const_cast<char **>(argv));
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::UserInput);
        EXPECT_NE(std::string(e.what()).find("unknown argument"),
                  std::string::npos);
        // The rejection carries a usage hint for the user.
        EXPECT_NE(std::string(e.what()).find("--help"),
                  std::string::npos);
    }
}

TEST(Engine, CommonCliOptionsRejectsMalformedJobs)
{
    CommonCliOptions common;
    EXPECT_THROW(common.tryParse("--jobs=12x"), SimError);
    EXPECT_THROW(common.tryParse("--jobs=0"), SimError);
    EXPECT_THROW(common.tryParse("--jobs="), SimError);
    EXPECT_TRUE(common.tryParse("--jobs=12"));
    EXPECT_EQ(common.jobs, 12u);
}

} // namespace
} // namespace dtexl
