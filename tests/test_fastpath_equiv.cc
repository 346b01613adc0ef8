/**
 * @file
 * Bit-exactness harness for the simulator hot-path overhaul: every
 * optimization selected by GpuConfig::simFastPath (cache last-hit
 * filter, contiguous RateWindow storage, pooled flush counting) must
 * produce FrameStats, StatRegistry contents and figure-style CSV
 * output identical to the original reference implementations, across
 * workloads, machine configurations and multi-frame sessions. (The
 * shader-core event loop and the cache MSHR walk have one
 * implementation, which both settings run.)
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/dtexl.hh"
#include "harness.hh"
#include "mem/rate_window.hh"
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

/** Every FrameStats field, including the distributions. */
void
expectSameStats(const FrameStats &a, const FrameStats &b,
                const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.geometryCycles, b.geometryCycles);
    EXPECT_EQ(a.rasterCycles, b.rasterCycles);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_DOUBLE_EQ(a.fps, b.fps);
    EXPECT_EQ(a.verticesProcessed, b.verticesProcessed);
    EXPECT_EQ(a.primitivesBinned, b.primitivesBinned);
    EXPECT_EQ(a.quadsRasterized, b.quadsRasterized);
    EXPECT_EQ(a.quadsCulledEarlyZ, b.quadsCulledEarlyZ);
    EXPECT_EQ(a.quadsCulledHiZ, b.quadsCulledHiZ);
    EXPECT_EQ(a.quadsShaded, b.quadsShaded);
    EXPECT_EQ(a.fragmentsShaded, b.fragmentsShaded);
    EXPECT_EQ(a.shaderInstructions, b.shaderInstructions);
    EXPECT_EQ(a.textureSamples, b.textureSamples);
    EXPECT_EQ(a.earlyZTests, b.earlyZTests);
    EXPECT_EQ(a.blendOps, b.blendOps);
    EXPECT_EQ(a.flushLineWrites, b.flushLineWrites);
    EXPECT_EQ(a.flushesEliminated, b.flushesEliminated);
    EXPECT_EQ(a.l1TexAccesses, b.l1TexAccesses);
    EXPECT_EQ(a.l1TexMisses, b.l1TexMisses);
    EXPECT_EQ(a.l1VertexAccesses, b.l1VertexAccesses);
    EXPECT_EQ(a.l1TileAccesses, b.l1TileAccesses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.dramAccesses, b.dramAccesses);
    EXPECT_EQ(a.quadsPerSc, b.quadsPerSc);
    EXPECT_EQ(a.barrierIdleCycles, b.barrierIdleCycles);
    EXPECT_EQ(a.tileTimeDeviation.samples(),
              b.tileTimeDeviation.samples());
    EXPECT_EQ(a.tileQuadDeviation.samples(),
              b.tileQuadDeviation.samples());
    EXPECT_DOUBLE_EQ(a.textureReplication, b.textureReplication);
    EXPECT_EQ(a.imageHash, b.imageHash);
}

/**
 * Render 3 animated frames of @p alias under @p cfg with the fast
 * path and with the reference path; every frame must be bit-exact.
 */
void
fastMatchesReference(GpuConfig cfg, const std::string &alias)
{
    cfg.simFastPath = true;
    GpuConfig ref_cfg = cfg;
    ref_cfg.simFastPath = false;

    const BenchmarkParams &p = benchmarkByAlias(alias);
    const Scene f0 = generateScene(p, cfg, 0);
    const Scene f1 = generateScene(p, cfg, 1);
    const Scene f2 = generateScene(p, cfg, 2);

    GpuSimulator fast(cfg, f0);
    GpuSimulator ref(ref_cfg, f0);

    const Scene *frames[] = {&f0, &f1, &f2};
    for (int f = 0; f < 3; ++f) {
        fast.setScene(*frames[f]);
        ref.setScene(*frames[f]);
        const FrameStats a = fast.renderFrame();
        const FrameStats b = ref.renderFrame();
        expectSameStats(a, b, alias + " frame " + std::to_string(f));
    }
}

TEST(FastPathEquiv, Baseline)
{
    fastMatchesReference(smallCfg(), "SWa");
}

TEST(FastPathEquiv, DTexL)
{
    GpuConfig cfg = makeDTexLConfig();
    cfg.screenWidth = 256;
    cfg.screenHeight = 128;
    fastMatchesReference(cfg, "GTr");
}

TEST(FastPathEquiv, UpperBoundSinglePipe)
{
    GpuConfig cfg = makeUpperBoundConfig();
    cfg.screenWidth = 256;
    cfg.screenHeight = 128;
    fastMatchesReference(cfg, "SoD");
}

TEST(FastPathEquiv, Extensions)
{
    // HiZ, transaction elimination and texture prefetch exercise the
    // prefetch MSHR path and the flush-CRC early return.
    GpuConfig cfg = smallCfg();
    cfg.hierarchicalZ = true;
    cfg.transactionElimination = true;
    cfg.texturePrefetch = true;
    cfg.decoupledBarriers = true;
    fastMatchesReference(cfg, "CCS");
}

TEST(FastPathEquiv, GreedyScheduler)
{
    // Greedy keeps issuing the last-issued warp, so it exercises the
    // scheduler's lastIssued state under both settings.
    GpuConfig cfg = smallCfg();
    cfg.warpScheduler = WarpSched::Greedy;
    fastMatchesReference(cfg, "Mze");
}

TEST(FastPathEquiv, OldestFirstScheduler)
{
    GpuConfig cfg = smallCfg();
    cfg.warpScheduler = WarpSched::OldestFirst;
    fastMatchesReference(cfg, "CRa");
}

TEST(FastPathEquiv, MshrPressure)
{
    // Tiny MSHR pools force the acquireMshr() stall loop and the
    // purge path to run constantly in both implementations.
    GpuConfig cfg = smallCfg();
    cfg.textureCache.numMshrs = 2;
    cfg.l2Cache.numMshrs = 4;
    cfg.tileCache.numMshrs = 2;
    fastMatchesReference(cfg, "GTr");
}

TEST(FastPathEquiv, StatRegistryBitExact)
{
    // The per-phase registry trees must match key-for-key, except the
    // host wall-clock counter which is inherently non-deterministic.
    const GpuConfig cfg = smallCfg();
    GpuConfig ref_cfg = cfg;
    ref_cfg.simFastPath = false;
    const Scene scene =
        generateScene(benchmarkByAlias("SoD"), cfg, 0);

    StatRegistry fast_reg("fast"), ref_reg("ref");
    GpuSimulator fast(cfg, scene);
    GpuSimulator ref(ref_cfg, scene);
    fast.setStatRegistry(&fast_reg, "engine");
    ref.setStatRegistry(&ref_reg, "engine");
    (void)fast.renderFrame();
    (void)ref.renderFrame();

    ASSERT_EQ(fast_reg.paths(), ref_reg.paths());
    for (const std::string &path : fast_reg.paths()) {
        const auto &a = fast_reg.node(path).counters();
        const auto &b = ref_reg.node(path).counters();
        ASSERT_EQ(a.size(), b.size()) << path;
        for (const auto &[key, value] : a) {
            if (key == "wall_us")
                continue;
            EXPECT_EQ(value, b.at(key)) << path << "." << key;
        }
    }
}

/**
 * The figure binaries' CSV rows are what the paper's plots are made
 * from: render a small benchmark x config grid under both knobs,
 * format the same rows the figure binaries would, and require the two
 * CSV files to be byte-identical.
 */
TEST(FastPathEquiv, FigureCsvBitIdentical)
{
    const char *aliases[] = {"SWa", "GTr"};
    const std::string paths[2] = {"fastpath_fast.csv",
                                  "fastpath_ref.csv"};
    for (int knob = 0; knob < 2; ++knob) {
        const bool fast = knob == 0;
        GpuConfig base = smallCfg();
        base.simFastPath = fast;
        GpuConfig dt = makeDTexLConfig();
        dt.screenWidth = base.screenWidth;
        dt.screenHeight = base.screenHeight;
        dt.simFastPath = fast;

        std::vector<bench::GridJob> jobs;
        for (const char *a : aliases) {
            jobs.push_back({benchmarkByAlias(a), base,
                            std::string(a) + "/base"});
            jobs.push_back({benchmarkByAlias(a), dt,
                            std::string(a) + "/dtexl"});
        }
        bench::BenchOptions opt;
        opt.jobs = 2;
        const std::vector<bench::RunOutput> results =
            bench::runGrid(jobs, opt);

        std::remove(paths[knob].c_str());
        bench::setCsvOutput(paths[knob]);
        bench::printHeader("fastpath-equiv",
                           {"cycles", "l2", "dram", "energy_mj"});
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            bench::printRow(
                jobs[i].label,
                {static_cast<double>(results[i].fs.totalCycles),
                 static_cast<double>(results[i].fs.l2Accesses),
                 static_cast<double>(results[i].fs.dramAccesses),
                 results[i].energy.total() * 1e3});
        }
        bench::setCsvOutput("");
    }

    auto slurp = [](const std::string &p) {
        std::ifstream in(p, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    };
    const std::string fast_csv = slurp(paths[0]);
    const std::string ref_csv = slurp(paths[1]);
    ASSERT_FALSE(fast_csv.empty());
    EXPECT_EQ(fast_csv, ref_csv);
    std::remove(paths[0].c_str());
    std::remove(paths[1].c_str());
}

/**
 * Unit-level fuzz: both RateWindow implementations must grant the
 * same start cycle and stall flag for arbitrary out-of-order request
 * sequences, across several (capacity, window) shapes.
 */
TEST(FastPathEquiv, RateWindowFuzz)
{
    const struct
    {
        std::uint32_t cap;
        Cycle win;
    } shapes[] = {{1, 1}, {2, 8}, {16, 8}, {32, 64}, {8, 256}};

    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto next = [&rng]() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };

    for (const auto &shape : shapes) {
        RateWindow fast(shape.cap, shape.win, true);
        RateWindow ref(shape.cap, shape.win, false);
        Cycle base = 0;
        for (int i = 0; i < 20000; ++i) {
            // Mostly forward drift with out-of-order jitter, plus
            // occasional large jumps to exercise horizon pruning.
            base += next() % 3;
            if (next() % 512 == 0)
                base += shape.win * 200;
            const Cycle jitter = next() % (2 * shape.win + 1);
            const Cycle now =
                base > jitter ? base - jitter : Cycle{0};
            bool fast_stalled = false, ref_stalled = false;
            const Cycle a = fast.reserve(now, fast_stalled);
            const Cycle b = ref.reserve(now, ref_stalled);
            ASSERT_EQ(a, b) << "cap=" << shape.cap
                            << " win=" << shape.win << " i=" << i;
            ASSERT_EQ(fast_stalled, ref_stalled) << "i=" << i;
        }
        fast.clear();
        ref.clear();
        bool s1 = false, s2 = false;
        EXPECT_EQ(fast.reserve(5, s1), ref.reserve(5, s2));
    }
}

} // namespace
} // namespace dtexl
