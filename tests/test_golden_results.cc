/**
 * @file
 * Golden-result pins for the paper's figures: one small benchmark per
 * figure family, headline metrics compared with exact integers. These
 * values were produced by this simulator and freeze its current
 * behaviour: any change — scheduler tweak, cache fix, hot-path
 * optimization — that moves a simulated statistic must be noticed and
 * either justified (regenerate the constants in the same commit) or
 * fixed. Wall-clock metrics are deliberately excluded.
 *
 * The headline scenarios render frame 0 of a Table I benchmark at
 * 256x128 (the small screen keeps each render ~100 ms; the figure
 * binaries use the full screen). The GoldenDigest cases below freeze
 * everything else as FNV-1a digests.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/serial.hh"
#include "core/dtexl.hh"
#include "harness.hh"
#include "power/energy_model.hh"
#include "workloads/scenegen.hh"

namespace dtexl {
namespace {

GpuConfig
small(GpuConfig cfg)
{
    cfg.screenWidth = 256;
    cfg.screenHeight = 128;
    return cfg;
}

FrameStats
render(const GpuConfig &cfg, const char *alias)
{
    const Scene scene = generateScene(benchmarkByAlias(alias), cfg, 0);
    GpuSimulator sim(cfg, scene);
    return sim.renderFrame();
}

/** Picojoule rounding: turns the energy doubles into pinnable ints. */
long long
pj(double joules)
{
    return llround(joules * 1e12);
}

TEST(GoldenResults, MotivationBaselineTextureTraffic)
{
    // Figures 1/2: the baseline's cross-SC texture replication is the
    // motivating observation — the same lines are fetched into several
    // L1s, inflating L2 traffic.
    const FrameStats fs = render(small(makeBaselineConfig()), "GTr");
    EXPECT_EQ(fs.l1TexAccesses, 174560u);
    EXPECT_EQ(fs.l1TexMisses, 10420u);
    EXPECT_EQ(fs.l2Accesses, 11949u);
    EXPECT_EQ(fs.l2Misses, 3596u);
    EXPECT_EQ(fs.dramAccesses, 3706u);
    EXPECT_EQ(fs.flushLineWrites, 8192u);
    // Nearly 4 SCs' worth of duplicated texture lines.
    EXPECT_DOUBLE_EQ(fs.textureReplication, 3.8208955223880596);
}

TEST(GoldenResults, QuadGroupingBalance)
{
    // Figures 11/12: fine-grained grouping balances quads across SCs
    // almost perfectly; the coarse-grained DTexL grouping trades a
    // little balance for locality.
    const FrameStats fg = render(small(makeBaselineConfig()), "GTr");
    const FrameStats cg = render(small(makeDTexLConfig()), "GTr");
    EXPECT_EQ(fg.quadsPerSc,
              (std::array<std::uint64_t, 4>{3935, 3898, 3941, 3888}));
    EXPECT_EQ(cg.quadsPerSc,
              (std::array<std::uint64_t, 4>{3721, 3941, 3856, 4144}));
    EXPECT_EQ(fg.tileQuadDeviation.samples().size(), 32u);
    EXPECT_EQ(cg.tileQuadDeviation.samples().size(), 32u);
    // Same total work either way.
    EXPECT_EQ(fg.quadsShaded, 15662u);
    EXPECT_EQ(cg.quadsShaded, 15662u);
}

TEST(GoldenResults, NonDecoupledSpeedup)
{
    // Figure 13: DTexL's locality scheduling WITHOUT decoupled
    // barriers already beats the baseline, but barrier imbalance eats
    // most of the win.
    GpuConfig nondec = small(makeDTexLConfig());
    nondec.decoupledBarriers = false;
    const FrameStats base = render(small(makeBaselineConfig()), "GTr");
    const FrameStats nd = render(nondec, "GTr");
    const FrameStats full = render(small(makeDTexLConfig()), "GTr");
    EXPECT_EQ(base.totalCycles, 50086u);
    EXPECT_EQ(nd.totalCycles, 47606u);
    EXPECT_EQ(full.totalCycles, 38907u);
    EXPECT_LT(nd.totalCycles, base.totalCycles);
    EXPECT_LT(full.totalCycles, nd.totalCycles);
}

TEST(GoldenResults, BarrierImbalance)
{
    // Figures 14/15: per-pipeline idle cycles at the tile barrier.
    // Decoupling collapses the idle time by an order of magnitude vs
    // the coupled coarse-grained machine.
    GpuConfig nondec = small(makeDTexLConfig());
    nondec.decoupledBarriers = false;
    const FrameStats nd = render(nondec, "GTr");
    const FrameStats full = render(small(makeDTexLConfig()), "GTr");
    EXPECT_EQ(nd.barrierIdleCycles,
              (std::array<std::uint64_t, 4>{7484, 6008, 7347, 3879}));
    EXPECT_EQ(full.barrierIdleCycles,
              (std::array<std::uint64_t, 4>{229, 231, 261, 263}));
    EXPECT_EQ(nd.tileTimeDeviation.samples().size(), 32u);
}

TEST(GoldenResults, SubtileMappingLocality)
{
    // Figure 16: the Flip2 subtile assignment (DTexL default) keeps
    // seam-sharing subtiles on the same SC across consecutive tiles,
    // beating the Constant mapping on both L2 traffic and cycles.
    GpuConfig constant = small(makeDTexLConfig());
    constant.assignment = SubtileAssignment::Constant;
    const FrameStats cst = render(constant, "GTr");
    const FrameStats flp = render(small(makeDTexLConfig()), "GTr");
    EXPECT_EQ(cst.totalCycles, 39161u);
    EXPECT_EQ(cst.l2Accesses, 5750u);
    EXPECT_EQ(flp.totalCycles, 38907u);
    EXPECT_EQ(flp.l2Accesses, 5038u);
    EXPECT_LT(flp.l2Accesses, cst.l2Accesses);
}

TEST(GoldenResults, SpeedupHeadline)
{
    // Figure 17: full DTexL vs baseline on the texture-bound best case
    // (GTr) and a lighter benchmark (SWa). The ratio is pinned through
    // the exact cycle counts.
    const FrameStats base_gtr =
        render(small(makeBaselineConfig()), "GTr");
    const FrameStats dtexl_gtr =
        render(small(makeDTexLConfig()), "GTr");
    const FrameStats base_swa =
        render(small(makeBaselineConfig()), "SWa");
    const FrameStats dtexl_swa =
        render(small(makeDTexLConfig()), "SWa");

    EXPECT_EQ(base_gtr.totalCycles, 50086u);
    EXPECT_EQ(dtexl_gtr.totalCycles, 38907u);
    EXPECT_EQ(base_swa.totalCycles, 54710u);
    EXPECT_EQ(dtexl_swa.totalCycles, 48876u);

    const double speedup_gtr =
        static_cast<double>(base_gtr.totalCycles) /
        static_cast<double>(dtexl_gtr.totalCycles);
    EXPECT_GT(speedup_gtr, 1.25);

    // Scheduling must not change the rendered image.
    EXPECT_EQ(base_gtr.imageHash, dtexl_gtr.imageHash);
    EXPECT_EQ(base_swa.imageHash, dtexl_swa.imageHash);
}

TEST(GoldenResults, EnergySplit)
{
    // Figure 18: the frame-energy breakdown of the DTexL machine,
    // pinned as integer picojoules per component. DRAM dominates, and
    // the L2-traffic reduction is what moves the total vs baseline.
    const FrameStats fs = render(small(makeDTexLConfig()), "GTr");
    const EnergyBreakdown e =
        EnergyModel{}.compute(small(makeDTexLConfig()), fs);
    EXPECT_EQ(pj(e.shaderDynamic), 2241424);
    EXPECT_EQ(pj(e.l1), 2128068);
    EXPECT_EQ(pj(e.l2), 327470);
    EXPECT_EQ(pj(e.dram), 11859200);
    EXPECT_EQ(pj(e.fixedFunction), 492080);
    EXPECT_EQ(pj(e.staticEnergy), 3242250);
    EXPECT_EQ(pj(e.total()), 20290492);
}

// ---------------------------------------------------------------------
// Frozen digests. One FNV-1a value per scenario over every FrameStats
// field (distribution samples and imageHash included), so any change to
// any simulated statistic is caught, not only the headline metrics
// above. Scenarios render 3 animated frames at 256x128 on one
// simulator, exercising the per-frame pipeline reset. The values were
// recorded with both the optimized and the original reference
// implementations of the cache last-hit filter, RateWindow and the bank
// flush count, and the two agreed before the reference versions were
// retired.
// ---------------------------------------------------------------------

void
digestStats(Fnv1a64 &h, const FrameStats &fs)
{
    for (std::uint64_t v :
         {fs.geometryCycles, fs.rasterCycles, fs.totalCycles,
          fs.verticesProcessed, fs.primitivesBinned,
          fs.quadsRasterized, fs.quadsCulledEarlyZ, fs.quadsCulledHiZ,
          fs.quadsShaded, fs.fragmentsShaded, fs.shaderInstructions,
          fs.textureSamples, fs.earlyZTests, fs.blendOps,
          fs.flushLineWrites, fs.flushesEliminated, fs.l1TexAccesses,
          fs.l1TexMisses, fs.l1VertexAccesses, fs.l1TileAccesses,
          fs.l2Accesses, fs.l2Misses, fs.dramAccesses, fs.imageHash})
        h.u64(v);
    h.f64(fs.fps);
    h.f64(fs.textureReplication);
    for (std::uint64_t v : fs.quadsPerSc)
        h.u64(v);
    for (std::uint64_t v : fs.barrierIdleCycles)
        h.u64(v);
    for (const Distribution *d :
         {&fs.tileTimeDeviation, &fs.tileQuadDeviation}) {
        h.u64(d->samples().size());
        for (double x : d->samples())
            h.f64(x);
    }
}

/** Every registry counter path, key and value, except host wall time. */
void
digestRegistry(Fnv1a64 &h, StatRegistry &reg)
{
    for (const std::string &path : reg.paths()) {
        h.str(path);
        for (const auto &[key, value] : reg.node(path).counters()) {
            if (key == "wall_us")
                continue;
            h.str(key);
            h.u64(value);
        }
    }
}

/**
 * Digest of 3 animated frames of @p alias rendered on one simulator;
 * with @p with_registry, also of every registry counter afterwards
 * (per-cache and telemetry attribution counters included).
 */
std::uint64_t
threeFrameDigest(const GpuConfig &cfg, const char *alias,
                 bool with_registry = false)
{
    const BenchmarkParams &p = benchmarkByAlias(alias);
    const Scene frames[3] = {generateScene(p, cfg, 0),
                             generateScene(p, cfg, 1),
                             generateScene(p, cfg, 2)};
    StatRegistry reg("golden");
    GpuSimulator sim(cfg, frames[0]);
    if (with_registry)
        sim.setStatRegistry(&reg, "engine");
    Fnv1a64 h;
    for (const Scene &scene : frames) {
        sim.setScene(scene);
        digestStats(h, sim.renderFrame());
    }
    if (with_registry)
        digestRegistry(h, reg);
    return h.value();
}

TEST(GoldenDigest, BaselineSWa)
{
    EXPECT_EQ(threeFrameDigest(small(GpuConfig{}), "SWa"),
              0xfb297699a0d58e7dull);
}

TEST(GoldenDigest, DTexLGTr)
{
    EXPECT_EQ(threeFrameDigest(small(makeDTexLConfig()), "GTr"),
              0x806396c1f7c6cb18ull);
}

TEST(GoldenDigest, UpperBoundSinglePipeSoD)
{
    EXPECT_EQ(threeFrameDigest(small(makeUpperBoundConfig()), "SoD"),
              0x5306e0c41c1468f7ull);
}

TEST(GoldenDigest, ExtensionsCCS)
{
    // HiZ, transaction elimination and texture prefetch exercise the
    // prefetch MSHR path and the flush-CRC early return.
    GpuConfig cfg = small(GpuConfig{});
    cfg.hierarchicalZ = true;
    cfg.transactionElimination = true;
    cfg.texturePrefetch = true;
    cfg.decoupledBarriers = true;
    EXPECT_EQ(threeFrameDigest(cfg, "CCS"), 0xf3164f2ce4dd84f3ull);
}

TEST(GoldenDigest, GreedySchedulerMze)
{
    GpuConfig cfg = small(GpuConfig{});
    cfg.warpScheduler = WarpSched::Greedy;
    EXPECT_EQ(threeFrameDigest(cfg, "Mze"), 0x7c8c28706eea9e9eull);
}

TEST(GoldenDigest, OldestFirstSchedulerCRa)
{
    GpuConfig cfg = small(GpuConfig{});
    cfg.warpScheduler = WarpSched::OldestFirst;
    EXPECT_EQ(threeFrameDigest(cfg, "CRa"), 0x39161d0b4da2e4b7ull);
}

TEST(GoldenDigest, MshrPressureGTr)
{
    // Tiny MSHR pools keep the acquireMshr() stall loop and the purge
    // path busy.
    GpuConfig cfg = small(GpuConfig{});
    cfg.textureCache.numMshrs = 2;
    cfg.l2Cache.numMshrs = 4;
    cfg.tileCache.numMshrs = 2;
    EXPECT_EQ(threeFrameDigest(cfg, "GTr"), 0x30133ea028718b4eull);
}

TEST(GoldenDigest, StatRegistryTreeSoD)
{
    // Every per-phase counter path, key and value, except the host
    // wall-clock counter.
    const GpuConfig cfg = small(GpuConfig{});
    const Scene scene = generateScene(benchmarkByAlias("SoD"), cfg, 0);
    StatRegistry reg("golden");
    GpuSimulator sim(cfg, scene);
    sim.setStatRegistry(&reg, "engine");
    (void)sim.renderFrame();

    Fnv1a64 h;
    digestRegistry(h, reg);
    EXPECT_EQ(h.value(), 0x2590e98ea2a9c4adull);
}

/**
 * Miss-heavy texture traffic from four cores at once: a 1 KiB texture
 * L1 (4 sets) with next-line prefetch sends most reads to the shared
 * L2, so the cross-core order of L2 requests shows in every L2/DRAM
 * counter and, at telemetry level 1, in the L2 track's stall
 * attribution. Recorded before ALU issue left the cross-core merge of
 * the shader-core loop, one case per warp scheduling policy.
 */
GpuConfig
missHeavy(WarpSched policy)
{
    GpuConfig cfg = small(GpuConfig{});
    cfg.numPipelines = 4;
    cfg.textureCache.sizeBytes = 1024;
    cfg.texturePrefetch = true;
    cfg.telemetryLevel = 1;
    cfg.warpScheduler = policy;
    return cfg;
}

TEST(GoldenDigest, MissHeavyEarliestReadyGTr)
{
    EXPECT_EQ(threeFrameDigest(missHeavy(WarpSched::EarliestReady), "GTr",
                               true),
              0x68f057d856129f2aull);
}

TEST(GoldenDigest, MissHeavyOldestFirstGTr)
{
    EXPECT_EQ(threeFrameDigest(missHeavy(WarpSched::OldestFirst), "GTr",
                               true),
              0xca388527ea8c59d3ull);
}

TEST(GoldenDigest, MissHeavyGreedyGTr)
{
    EXPECT_EQ(threeFrameDigest(missHeavy(WarpSched::Greedy), "GTr", true),
              0x67c8e9447fdbcb6bull);
}

TEST(GoldenDigest, FigureCsvGrid)
{
    // The figure binaries' CSV rows are what the paper's plots are
    // made from: a SWa/GTr x base/dtexl grid through the batch driver,
    // formatted exactly as the figure binaries format it.
    GpuConfig base = small(GpuConfig{});
    GpuConfig dt = small(makeDTexLConfig());
    std::vector<bench::GridJob> jobs;
    for (const char *a : {"SWa", "GTr"}) {
        jobs.push_back({benchmarkByAlias(a), base,
                        std::string(a) + "/base"});
        jobs.push_back({benchmarkByAlias(a), dt,
                        std::string(a) + "/dtexl"});
    }
    bench::BenchOptions opt;
    opt.jobs = 2;
    const std::vector<bench::RunOutput> results =
        bench::runGrid(jobs, opt);

    const std::string path = "golden_digest_grid.csv";
    std::remove(path.c_str());
    bench::setCsvOutput(path);
    bench::printHeader("golden-digest",
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

    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    const std::string csv = os.str();
    std::remove(path.c_str());
    ASSERT_FALSE(csv.empty());
    EXPECT_EQ(fnv1a64(reinterpret_cast<const std::uint8_t *>(csv.data()),
                      csv.size()),
              0x851d3e60ad80c083ull);
}

} // namespace
} // namespace dtexl
