/**
 * @file
 * Tests for the shader core warp model: program timing, multithreaded
 * latency hiding, batch gating, texture-unit traffic, and determinism.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "common/serial.hh"
#include "common/sim_error.hh"
#include "core/shader_core.hh"
#include "mem/address_map.hh"
#include "workloads/scenegen.hh"

namespace dtexl {
namespace {

struct CoreFixture
{
    GpuConfig cfg;
    Scene scene;
    MemHierarchy mem;
    Primitive prim;
    std::vector<Quad> quad_store;

    explicit CoreFixture(std::uint16_t alu = 8, std::uint8_t tex = 1,
                         std::uint32_t max_warps = 32)
        : cfg(makeSmallCfg(max_warps)), scene(makeTinyScene(cfg)),
          mem(cfg)
    {
        prim.id = 0;
        prim.texture = 0;
        prim.shader.aluOps = alu;
        prim.shader.texSamples = tex;
        prim.shader.filter = FilterMode::Bilinear;
        prim.v[0].uv = {0.0f, 0.0f};
        prim.v[1].uv = {0.5f, 0.0f};
        prim.v[2].uv = {0.0f, 0.5f};
    }

    static GpuConfig
    makeSmallCfg(std::uint32_t max_warps)
    {
        GpuConfig cfg;
        cfg.screenWidth = 64;
        cfg.screenHeight = 64;
        cfg.maxWarpsPerCore = max_warps;
        return cfg;
    }

    /** Build n quads sampling distinct texture regions. */
    std::vector<const Quad *>
    makeQuads(std::size_t n)
    {
        quad_store.clear();
        quad_store.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            Quad q;
            q.prim = &prim;
            q.coverage = 0xF;
            const float u =
                static_cast<float>((i * 8) % 256) / 256.0f;
            const float v =
                static_cast<float>((i * 8) / 256 % 256) / 256.0f;
            for (unsigned k = 0; k < 4; ++k)
                q.frags[k].uv = {u + static_cast<float>(k % 2) / 256.0f,
                                 v + static_cast<float>(k / 2) / 256.0f};
            quad_store.push_back(q);
        }
        std::vector<const Quad *> ptrs;
        for (const Quad &q : quad_store)
            ptrs.push_back(&q);
        return ptrs;
    }
};

TEST(ShaderCore, EmptyBatch)
{
    CoreFixture f;
    ShaderCore core(0, f.cfg, f.mem, f.scene);
    const auto r = core.runBatch({}, {}, 100);
    EXPECT_EQ(r.start, 100u);
    EXPECT_EQ(r.finish, 100u);
    EXPECT_TRUE(r.completion.empty());
}

TEST(ShaderCore, SingleAluOnlyQuadTiming)
{
    CoreFixture f(/*alu=*/10, /*tex=*/0);
    ShaderCore core(0, f.cfg, f.mem, f.scene);
    const auto quads = f.makeQuads(1);
    const auto r = core.runBatch(quads, {0}, 0);
    // 10 dependent ALU ops, kAluLatency apart, single warp:
    // completion ~= 1 + 10 * kAluLatency (no overlap to exploit).
    EXPECT_GE(r.finish, 10 * ShaderCore::kAluLatency - 4);
    EXPECT_LE(r.finish, 10 * ShaderCore::kAluLatency + 8);
    EXPECT_EQ(core.stats().get("alu_ops"), 10u);
    EXPECT_EQ(core.stats().get("tex_instructions"), 0u);
    EXPECT_EQ(core.stats().get("warps"), 1u);
    EXPECT_EQ(core.stats().get("fragments"), 4u);
}

TEST(ShaderCore, TextureInstructionAccessesL1)
{
    CoreFixture f(/*alu=*/0, /*tex=*/1);
    ShaderCore core(0, f.cfg, f.mem, f.scene);
    const auto quads = f.makeQuads(1);
    core.runBatch(quads, {0}, 0);
    EXPECT_EQ(core.stats().get("tex_instructions"), 1u);
    EXPECT_EQ(core.stats().get("tex_samples"), 4u);  // 4 fragments
    EXPECT_GT(f.mem.textureCache(0).accesses(), 0u);
}

TEST(ShaderCore, MultithreadingHidesLatency)
{
    // Many independent warps: total time must be far less than the
    // serial sum of per-warp latencies.
    CoreFixture f(/*alu=*/8, /*tex=*/1);
    ShaderCore core(0, f.cfg, f.mem, f.scene);
    const std::size_t n = 32;
    const auto quads = f.makeQuads(n);
    std::vector<Cycle> arrivals(n, 0);
    const auto r = core.runBatch(quads, arrivals, 0);

    CoreFixture f1(/*alu=*/8, /*tex=*/1, /*max_warps=*/1);
    ShaderCore serial(0, f1.cfg, f1.mem, f1.scene);
    const auto quads1 = f1.makeQuads(n);
    const auto r1 = serial.runBatch(quads1, arrivals, 0);

    EXPECT_LT(r.finish - r.start, (r1.finish - r1.start) / 2)
        << "multithreading failed to hide latency";
}

TEST(ShaderCore, GateDelaysStart)
{
    CoreFixture f;
    ShaderCore core(0, f.cfg, f.mem, f.scene);
    const auto quads = f.makeQuads(4);
    std::vector<Cycle> arrivals(4, 10);
    const auto r = core.runBatch(quads, arrivals, 500);
    EXPECT_GE(r.start, 500u);
    for (Cycle c : r.completion)
        EXPECT_GT(c, 500u);
}

TEST(ShaderCore, ArrivalsRespected)
{
    CoreFixture f(/*alu=*/4, /*tex=*/0);
    ShaderCore core(0, f.cfg, f.mem, f.scene);
    const auto quads = f.makeQuads(2);
    const auto r = core.runBatch(quads, {0, 1000}, 0);
    EXPECT_LT(r.completion[0], 1000u);
    EXPECT_GT(r.completion[1], 1000u);
}

TEST(ShaderCore, BatchesSerializeNaturally)
{
    CoreFixture f;
    ShaderCore core(0, f.cfg, f.mem, f.scene);
    const auto quads = f.makeQuads(8);
    std::vector<Cycle> arrivals(8, 0);
    const auto r1 = core.runBatch(quads, arrivals, 0);
    // The next subtile is gated at the previous finish (the Fragment
    // Stage barrier); completions must not precede the gate.
    const auto r2 = core.runBatch(quads, arrivals, r1.finish);
    for (Cycle c : r2.completion)
        EXPECT_GE(c, r1.finish);
}

TEST(ShaderCore, WarmCacheSpeedsSecondRun)
{
    CoreFixture f(/*alu=*/2, /*tex=*/2);
    ShaderCore core(0, f.cfg, f.mem, f.scene);
    const auto quads = f.makeQuads(16);
    std::vector<Cycle> arrivals(16, 0);
    const auto cold = core.runBatch(quads, arrivals, 0);
    const auto warm = core.runBatch(quads, arrivals, cold.finish);
    EXPECT_LT(warm.finish - warm.start, cold.finish - cold.start);
}

TEST(ShaderCore, DeterministicAcrossInstances)
{
    CoreFixture fa, fb;
    ShaderCore a(0, fa.cfg, fa.mem, fa.scene);
    ShaderCore b(0, fb.cfg, fb.mem, fb.scene);
    const auto qa = fa.makeQuads(12);
    const auto qb = fb.makeQuads(12);
    std::vector<Cycle> arrivals;
    for (std::size_t i = 0; i < 12; ++i)
        arrivals.push_back(i * 3);
    const auto ra = a.runBatch(qa, arrivals, 0);
    const auto rb = b.runBatch(qb, arrivals, 0);
    EXPECT_EQ(ra.completion, rb.completion);
    EXPECT_EQ(ra.finish, rb.finish);
}

TEST(ShaderCore, RunBatchesInterleavesFairly)
{
    // Four cores with identical concurrent batches must finish within
    // a small spread of each other: the joint event loop may not
    // systematically starve the last core at the shared L2/DRAM.
    CoreFixture f(/*alu=*/4, /*tex=*/2);
    std::vector<std::unique_ptr<ShaderCore>> cores;
    for (CoreId p = 0; p < 4; ++p)
        cores.push_back(
            std::make_unique<ShaderCore>(p, f.cfg, f.mem, f.scene));

    const std::size_t n = 24;
    // Separate quad storage per core so textures regions differ a bit
    // but the workload is statistically identical.
    std::array<QuadStream, 4> streams;
    std::array<std::vector<std::uint32_t>, 4> indices;
    std::vector<Cycle> arrivals(n, 0);
    for (int c = 0; c < 4; ++c) {
        for (std::size_t i = 0; i < n; ++i) {
            Quad q;
            q.prim = &f.prim;
            q.coverage = 0xF;
            const float u = static_cast<float>((c * 64 + i * 2) % 256) /
                            256.0f;
            for (unsigned k = 0; k < 4; ++k)
                q.frags[k].uv = {u, static_cast<float>(k) / 256.0f};
            indices[c].push_back(streams[c].push(q));
        }
    }

    std::vector<ShaderCore *> core_ptrs;
    std::vector<ShaderCore::BatchInput> inputs;
    for (int c = 0; c < 4; ++c) {
        core_ptrs.push_back(cores[c].get());
        inputs.push_back({&streams[c], &indices[c], &arrivals, 0});
    }
    const auto results = ShaderCore::runBatches(core_ptrs, inputs);
    Cycle min_fin = results[0].finish, max_fin = results[0].finish;
    for (const auto &r : results) {
        min_fin = std::min(min_fin, r.finish);
        max_fin = std::max(max_fin, r.finish);
    }
    EXPECT_LT(max_fin - min_fin, min_fin / 2)
        << "cores drifted: " << min_fin << " vs " << max_fin;
}

TEST(ShaderCore, RunBatchesMatchesSoloRunsWhenIndependent)
{
    // With private memory systems, the joint loop reduces to the solo
    // behaviour.
    CoreFixture fa(/*alu=*/6, /*tex=*/1), fb(/*alu=*/6, /*tex=*/1);
    ShaderCore solo(0, fa.cfg, fa.mem, fa.scene);
    ShaderCore joint(0, fb.cfg, fb.mem, fb.scene);
    const auto qa = fa.makeQuads(10);
    const auto qb = fb.makeQuads(10);
    std::vector<Cycle> arrivals(10, 5);
    const auto r_solo = solo.runBatch(qa, arrivals, 0);
    QuadStream sb;
    std::vector<std::uint32_t> ib;
    for (const Quad *q : qb)
        ib.push_back(sb.push(*q));
    const auto r_joint =
        ShaderCore::runBatches({&joint}, {{&sb, &ib, &arrivals, 0}});
    EXPECT_EQ(r_solo.completion, r_joint.front().completion);
}

class WarpSchedTest : public ::testing::TestWithParam<WarpSched>
{};

TEST_P(WarpSchedTest, AllPoliciesCompleteAllWork)
{
    CoreFixture f(/*alu=*/8, /*tex=*/1, /*max_warps=*/8);
    f.cfg.warpScheduler = GetParam();
    ShaderCore core(0, f.cfg, f.mem, f.scene);
    const std::size_t n = 40;
    const auto quads = f.makeQuads(n);
    std::vector<Cycle> arrivals(n, 0);
    const auto r = core.runBatch(quads, arrivals, 0);
    ASSERT_EQ(r.completion.size(), n);
    for (Cycle c : r.completion)
        EXPECT_GT(c, 0u);
    EXPECT_EQ(core.stats().get("warps"), n);
    EXPECT_EQ(core.stats().get("alu_ops"), n * 8);
}

INSTANTIATE_TEST_SUITE_P(Policies, WarpSchedTest,
                         ::testing::Values(WarpSched::EarliestReady,
                                           WarpSched::OldestFirst,
                                           WarpSched::Greedy));

TEST(ShaderCore, GreedyKeepsIssuingSameWarp)
{
    // With ALU-only programs and a single free-running warp pool, the
    // greedy policy must finish the first warp before the last warp
    // starts (depth-first), unlike earliest-ready (breadth-first).
    CoreFixture fg(/*alu=*/12, /*tex=*/0, /*max_warps=*/8);
    fg.cfg.warpScheduler = WarpSched::Greedy;
    ShaderCore greedy(0, fg.cfg, fg.mem, fg.scene);
    const auto qg = fg.makeQuads(8);
    std::vector<Cycle> arrivals(8, 0);
    const auto rg = greedy.runBatch(qg, arrivals, 0);

    CoreFixture fe(/*alu=*/12, /*tex=*/0, /*max_warps=*/8);
    ShaderCore earliest(0, fe.cfg, fe.mem, fe.scene);
    const auto qe = fe.makeQuads(8);
    const auto re = earliest.runBatch(qe, arrivals, 0);

    // Greedy retires the first quad much earlier.
    EXPECT_LT(rg.completion[0], re.completion[0]);
    // Total throughput is the same (issue-port bound).
    EXPECT_NEAR(static_cast<double>(rg.finish),
                static_cast<double>(re.finish),
                static_cast<double>(re.finish) * 0.2);
}

/** ALU-only primitive with @p alu dependent ops, for schedule tests. */
Primitive
aluPrim(std::uint16_t alu)
{
    Primitive p;
    p.shader.aluOps = alu;
    p.shader.texSamples = 0;
    return p;
}

TEST_P(WarpSchedTest, EqualReadyCyclesPickLowerBatchIndex)
{
    // Two warp slots. Quad 0 (3 ALU ops) holds slot 0 while quad 1
    // (1 op) retires at its first issue, so quad 2 takes slot 1; then
    // quad 0 retires and quad 3 takes slot 0. Quads 2 and 3 are both
    // ready at 1000 with slot order opposite to batch order: the
    // lower batch index (quad 2, slot 1) must issue first.
    CoreFixture f(/*alu=*/1, /*tex=*/0, /*max_warps=*/2);
    f.cfg.warpScheduler = GetParam();
    const Primitive long_prim = aluPrim(3);
    ShaderCore core(0, f.cfg, f.mem, f.scene);
    const auto quads = f.makeQuads(4);
    f.quad_store[0].prim = &long_prim;
    const auto r = core.runBatch(quads, {0, 0, 1000, 1000}, 0);
    const Cycle alu = ShaderCore::kAluLatency;
    EXPECT_EQ(r.completion, (std::vector<Cycle>{
                                8 + alu, 1 + alu, 1000 + alu,
                                1001 + alu}));
    EXPECT_EQ(r.issues, 6u);
}

TEST_P(WarpSchedTest, FreedSlotIsNeverPicked)
{
    // Quad 0 retires at its first issue and nothing refills its slot,
    // which keeps the lowest batch index and the earliest ready cycle
    // it ever had; quad 1 must still issue all six ops back to back.
    CoreFixture f(/*alu=*/1, /*tex=*/0, /*max_warps=*/4);
    f.cfg.warpScheduler = GetParam();
    const Primitive long_prim = aluPrim(6);
    ShaderCore core(0, f.cfg, f.mem, f.scene);
    const auto quads = f.makeQuads(2);
    f.quad_store[1].prim = &long_prim;
    const auto r = core.runBatch(quads, {0, 0}, 0);
    const Cycle alu = ShaderCore::kAluLatency;
    EXPECT_EQ(r.completion, (std::vector<Cycle>{alu, 1 + 6 * alu}));
    EXPECT_EQ(r.issues, 7u);
    EXPECT_EQ(core.stats().get("alu_ops"), 7u);
}

/**
 * Four cores on one hierarchy with staggered arrivals, under a
 * watchdog budget: core 2 starts late, core 3 idles mid-batch and
 * warps wait on cold texture misses, so the gaps between events in
 * (cycle, core) order cross cores as well as lie within one. Returns
 * the completions, or the watchdog's message and state dump.
 */
std::string
watchdogScenario(WarpSched policy, Cycle budget)
{
    CoreFixture f(/*alu=*/6, /*tex=*/2, /*max_warps=*/3);
    f.cfg.warpScheduler = policy;
    f.cfg.watchdogCycles = budget;
    std::vector<std::unique_ptr<ShaderCore>> cores;
    std::array<QuadStream, 4> streams;
    std::array<std::vector<std::uint32_t>, 4> indices;
    std::array<std::vector<Cycle>, 4> arrivals;
    std::vector<ShaderCore *> core_ptrs;
    std::vector<ShaderCore::BatchInput> inputs;
    const std::size_t n = 12;
    for (CoreId c = 0; c < 4; ++c) {
        cores.push_back(
            std::make_unique<ShaderCore>(c, f.cfg, f.mem, f.scene));
        for (std::size_t i = 0; i < n; ++i) {
            Quad q;
            q.prim = &f.prim;
            q.coverage = static_cast<std::uint8_t>(0xF >> (i % 3));
            const float u =
                static_cast<float>((c * 48 + i * 5) % 256) / 256.0f;
            for (unsigned k = 0; k < 4; ++k)
                q.frags[k].uv = {u, static_cast<float>(k * c) / 64.0f};
            indices[c].push_back(streams[c].push(q));
            arrivals[c].push_back(i * 11 + (c == 2 ? 3000 : 0) +
                                  (c == 3 && i >= n / 2 ? 6000 : 0));
        }
        core_ptrs.push_back(cores.back().get());
        inputs.push_back({&streams[c], &indices[c], &arrivals[c], 0});
    }
    std::ostringstream os;
    try {
        for (const auto &r : ShaderCore::runBatches(core_ptrs, inputs))
            for (Cycle done : r.completion)
                os << done << " ";
    } catch (const SimError &e) {
        os << e.what() << "\n" << e.dump();
    }
    return os.str();
}

TEST_P(WarpSchedTest, WatchdogVerdictsArePinned)
{
    // Verdicts, messages and state dumps over a sweep of budgets,
    // recorded once gates and EZ arrivals count as progress. The sweep
    // brackets every inter-event gap of the scenario, and the
    // smallest budget that completes is pinned on its own: the
    // remaining gaps are warps waiting on cold texture misses.
    const WarpSched policy = GetParam();
    Fnv1a64 h;
    std::uint64_t trips = 0;
    for (Cycle budget = 1; budget < 20000;
         budget += std::max<Cycle>(1, budget / 8)) {
        const std::string out = watchdogScenario(policy, budget);
        trips += out.find("no forward progress") != std::string::npos;
        h.str(out);
    }
    const std::size_t p = static_cast<std::size_t>(policy);
    constexpr std::uint64_t kDigest[] = {0xb86399e3273f00b4ull,
                                         0x0eea8b2f3ccd9aa0ull,
                                         0x36b14abac5c1e198ull};
    constexpr std::uint64_t kTrips[] = {31, 30, 30};
    constexpr Cycle kBoundary[] = {84, 79, 80};
    EXPECT_EQ(h.value(), kDigest[p]);
    EXPECT_EQ(trips, kTrips[p]);
    EXPECT_EQ(watchdogScenario(policy, kBoundary[p]).find("no forward"),
              std::string::npos);
    EXPECT_NE(watchdogScenario(policy, kBoundary[p] - 1).find("no forward"),
              std::string::npos);
}

TEST_P(WarpSchedTest, LateEzArrivalMidBatchIsNotAStall)
{
    // Core 3's second half arrives 6000 cycles late, mid-batch, while
    // the other cores have long finished. That is an upstream stall:
    // the instruction the arrival releases is judged against it, so a
    // budget far below the gap completes.
    const std::string out = watchdogScenario(GetParam(), 2853);
    EXPECT_EQ(out.find("no forward"), std::string::npos) << out;
}

TEST(ShaderCore, PartialCoverageSamplesFewerFragments)
{
    CoreFixture f(/*alu=*/0, /*tex=*/1);
    ShaderCore core(0, f.cfg, f.mem, f.scene);
    auto quads = f.makeQuads(1);
    f.quad_store[0].coverage = 0x3;  // two fragments
    core.runBatch(quads, {0}, 0);
    EXPECT_EQ(core.stats().get("tex_samples"), 2u);
    EXPECT_EQ(core.stats().get("fragments"), 2u);
}

} // namespace
} // namespace dtexl
