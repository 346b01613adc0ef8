/**
 * @file
 * Coverage for the telemetry subsystem (src/telemetry/): UnitTrack's
 * watermark interval accounting, the per-unit conservation invariant
 *
 *     busy + sum(stall buckets) + idle == total
 *
 * across the three paper configurations, observation-only behaviour
 * (FrameStats bit-identical at every knob level), the decoupled-mode
 * barrier-wait signature, the level-2 per-tile rows and their bound,
 * and the --stats-json exporter.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/config.hh"
#include "common/json.hh"
#include "common/stat_registry.hh"
#include "core/gpu.hh"
#include "stats_equality.hh"
#include "telemetry/export.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/unit_track.hh"
#include "workloads/scenegen.hh"

namespace dtexl {
namespace {

// ---------- UnitTrack ----------

std::uint64_t
attributed(const EpochTotals &t)
{
    std::uint64_t s = t.busy;
    for (std::uint64_t v : t.stall)
        s += v;
    return s;
}

TEST(UnitTrack, WatermarkClampsOverlappingSpans)
{
    UnitTrack t;
    t.beginEpoch();
    t.span(0, 10, StallReason::MshrFull);
    // Fully below the watermark: contributes nothing.
    t.span(2, 8, StallReason::BankConflict);
    // Straddles it: only [10, 15) lands in the bucket.
    t.span(5, 15, StallReason::BankConflict);
    // busy() clamps the same way.
    t.busy(12, 20);

    const EpochTotals e = t.finalizeEpoch(100);
    EXPECT_EQ(e.stall[static_cast<std::size_t>(StallReason::MshrFull)],
              10u);
    EXPECT_EQ(
        e.stall[static_cast<std::size_t>(StallReason::BankConflict)],
        5u);
    EXPECT_EQ(e.busy, 5u);
    EXPECT_EQ(e.idle, 80u);
    EXPECT_EQ(e.total, 100u);
    EXPECT_EQ(attributed(e) + e.idle, e.total);
}

TEST(UnitTrack, StallCreditsFromWatermark)
{
    UnitTrack t;
    t.beginEpoch();
    t.busy(0, 4);
    t.stall(10, StallReason::BarrierWait);  // [4, 10)
    t.stall(10, StallReason::BarrierWait);  // no-op: wm == 10
    const EpochTotals e = t.finalizeEpoch(10);
    EXPECT_EQ(e.busy, 4u);
    EXPECT_EQ(
        e.stall[static_cast<std::size_t>(StallReason::BarrierWait)], 6u);
    EXPECT_EQ(e.idle, 0u);
    EXPECT_EQ(e.total, 10u);
}

TEST(UnitTrack, DrainedTailExtendsTotal)
{
    // A unit that keeps draining past the phase end must not make the
    // invariant fail: total grows to the covered interval instead.
    UnitTrack t;
    t.beginEpoch();
    t.busy(0, 120);
    const EpochTotals e = t.finalizeEpoch(100);
    EXPECT_EQ(e.total, 120u);
    EXPECT_EQ(e.idle, 0u);
    EXPECT_EQ(attributed(e) + e.idle, e.total);
}

TEST(UnitTrack, EpochsFoldIntoCumulativeTotals)
{
    UnitTrack t;
    t.beginEpoch();
    t.addBusy(30);
    t.add(StallReason::NoReadyWarp, 20);
    t.finalizeEpoch(60);

    t.beginEpoch();
    t.addBusy(10);
    t.finalizeEpoch(40);

    EXPECT_EQ(t.busyCycles(), 40u);
    EXPECT_EQ(t.stallCycles(StallReason::NoReadyWarp), 20u);
    EXPECT_EQ(t.idleCycles(), 10u + 30u);
    EXPECT_EQ(t.totalCycles(), 100u);
    EXPECT_EQ(t.busyCycles() + t.attributedStallCycles() +
                  t.idleCycles(),
              t.totalCycles());
}

// ---------- Whole-simulator integration ----------

struct RunResult
{
    std::vector<FrameStats> frames;
    EpochTotals units[kNumTelemetryUnits];
    std::uint64_t rasterTotal = 0;
};

RunResult
runFrames(GpuConfig cfg, const std::string &alias, int frames,
          StatRegistry *reg = nullptr,
          const std::string &prefix = "run")
{
    cfg.screenWidth = 256;
    cfg.screenHeight = 128;
    cfg.validate();
    static std::map<std::string, Scene> scenes;
    const std::string key = alias;
    if (!scenes.count(key))
        scenes.emplace(key, generateScene(benchmarkByAlias(alias),
                                          cfg, 0));
    GpuSimulator gpu(cfg, scenes.at(key));
    if (reg)
        gpu.setStatRegistry(reg, prefix);
    RunResult out;
    for (int f = 0; f < frames; ++f) {
        out.frames.push_back(gpu.renderFrame());
        out.rasterTotal += out.frames.back().rasterCycles;
    }
    for (std::size_t u = 0; u < kNumTelemetryUnits; ++u)
        out.units[u] =
            gpu.telemetry().track(static_cast<TelemetryUnit>(u))
                .cumulative();
    return out;
}

/** The conservation invariant on every unit of a finished run. */
void
expectInvariant(const RunResult &r, const char *what)
{
    for (std::size_t u = 0; u < kNumTelemetryUnits; ++u) {
        const EpochTotals &e = r.units[u];
        EXPECT_EQ(attributed(e) + e.idle, e.total)
            << what << " unit " << u;
        // Each epoch's total is at least that frame's raster-phase
        // length, so the cumulative total covers the summed phases.
        EXPECT_GE(e.total, r.rasterTotal) << what << " unit " << u;
    }
}

TEST(TelemetryIntegration, InvariantHoldsOnBaseline)
{
    GpuConfig cfg = makeBaselineConfig();
    cfg.telemetryLevel = 1;
    expectInvariant(runFrames(cfg, "GTr", 2), "baseline");
}

TEST(TelemetryIntegration, InvariantHoldsOnDTexL)
{
    GpuConfig cfg = makeDTexLConfig();
    cfg.telemetryLevel = 1;
    expectInvariant(runFrames(cfg, "GTr", 2), "dtexl");
}

TEST(TelemetryIntegration, InvariantHoldsOnUpperBound)
{
    GpuConfig cfg = makeUpperBoundConfig();
    cfg.telemetryLevel = 1;
    expectInvariant(runFrames(cfg, "GTr", 2), "upper-bound");
}

TEST(TelemetryIntegration, InvariantHoldsAtLevelTwo)
{
    GpuConfig cfg = makeBaselineConfig();
    cfg.telemetryLevel = 2;
    expectInvariant(runFrames(cfg, "GTr", 2), "level-2");
}

TEST(TelemetryIntegration, ObservationOnlyAcrossKnobLevels)
{
    // Telemetry derives everything from cycles the pipeline computes
    // anyway: results must be bit-identical at levels 0, 1 and 2.
    for (const bool dtexl : {false, true}) {
        GpuConfig base =
            dtexl ? makeDTexLConfig() : makeBaselineConfig();
        base.telemetryLevel = 0;
        const RunResult off = runFrames(base, "GTr", 2);

        GpuConfig l1 = base;
        l1.telemetryLevel = 1;
        expectSameHistory(off.frames, runFrames(l1, "GTr", 2).frames,
                          dtexl ? "dtexl-l1" : "base-l1");

        GpuConfig l2 = base;
        l2.telemetryLevel = 2;
        expectSameHistory(off.frames, runFrames(l2, "GTr", 2).frames,
                          dtexl ? "dtexl-l2" : "base-l2");
    }
}

TEST(TelemetryIntegration, TileRowsSumToUnitTotals)
{
    // Level 2 writes one timeline row per tile and source, and a
    // frame's per-tile SC deltas add up to its attribution totals.
    const std::string path =
        "test_telemetry_tiles." + std::to_string(::getpid()) + ".csv";
    TelemetryExport::global().setTimelineCsvPath(path);
    GpuConfig cfg = makeDTexLConfig();
    cfg.telemetryLevel = 2;
    cfg.screenWidth = 256;
    cfg.screenHeight = 128;
    const Scene scene = generateScene(benchmarkByAlias("GTr"), cfg, 0);
    GpuSimulator gpu(cfg, scene);
    constexpr std::uint32_t kFrames = 2;
    std::vector<std::vector<EpochTotals>> sc(kFrames);
    for (std::uint32_t f = 0; f < kFrames; ++f) {
        gpu.renderFrame();
        for (std::uint32_t p = 0; p < cfg.numPipelines; ++p)
            sc[f].push_back(gpu.telemetry().epoch(scUnit(p)));
    }
    TelemetryExport::global().flush();
    TelemetryExport::global().setTimelineCsvPath("");

    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "label,frame,cycle,source,value");
    // (frame, source) -> rows, summed values
    std::map<std::pair<std::uint32_t, std::string>,
             std::pair<std::uint64_t, std::uint64_t>>
        sums;
    while (std::getline(in, line)) {
        std::vector<std::string> f;
        std::stringstream ss(line);
        for (std::string cell; std::getline(ss, cell, ',');)
            f.push_back(cell);
        ASSERT_EQ(f.size(), 5u) << line;
        auto &[rows, sum] =
            sums[{static_cast<std::uint32_t>(std::stoul(f[1])), f[3]}];
        ++rows;
        sum += std::stoull(f[4]);
    }
    std::remove(path.c_str());

    ASSERT_EQ(sums.size(), kFrames * (2 * cfg.numPipelines + 2));
    for (const auto &[key, v] : sums)
        EXPECT_EQ(v.first, cfg.numTiles()) << key.first << " " << key.second;
    for (std::uint32_t f = 0; f < kFrames; ++f) {
        const auto sum = [&](const std::string &source) {
            return sums[std::make_pair(f, source)].second;
        };
        for (std::uint32_t p = 0; p < cfg.numPipelines; ++p) {
            const std::string name = "sc" + std::to_string(p);
            const EpochTotals &e = sc[f][p];
            EXPECT_GT(e.busy, 0u);
            EXPECT_EQ(sum(name + ".busy"), e.busy)
                << "frame " << f << " " << name;
            EXPECT_EQ(sum(name + ".stall"), attributed(e) - e.busy)
                << "frame " << f << " " << name;
        }
    }
}

TEST(TelemetryIntegration, TileRowTruncationWarns)
{
    // 64 x 65 tiles of 8x8 pixels (the smallest legal tile), past the
    // per-frame row bound.
    GpuConfig cfg = makeDTexLConfig();
    cfg.telemetryLevel = 2;
    cfg.tileSize = 8;
    cfg.screenWidth = 512;
    cfg.screenHeight = 520;
    ASSERT_GT(cfg.numTiles(), Telemetry::kMaxRows);
    const Scene scene = generateScene(benchmarkByAlias("GTr"), cfg, 0);
    GpuSimulator gpu(cfg, scene);
    ::testing::internal::CaptureStderr();
    gpu.renderFrame();
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("warn: telemetry: frame 0 has 4160 tiles; its "
                       "per-tile rows keep the first 4096\n"),
              std::string::npos)
        << err;
    EXPECT_EQ(gpu.telemetry().epochTiles(), cfg.numTiles());
    EXPECT_EQ(gpu.telemetry().tileRows().size(), Telemetry::kMaxRows);
}

TEST(TelemetryIntegration, DecoupledModeEliminatesBarrierWait)
{
    // The paper's mechanism, visible directly in the attribution: with
    // coupled tile barriers the post-raster units wait for the slowest
    // sibling pipe; decoupling makes every gate a unit's own previous
    // finish, so BarrierWait must measure exactly zero.
    GpuConfig coupled = makeBaselineConfig();
    coupled.telemetryLevel = 1;
    const RunResult c = runFrames(coupled, "GTr", 2);

    GpuConfig dec = makeDTexLConfig();
    dec.telemetryLevel = 1;
    ASSERT_TRUE(dec.decoupledBarriers);
    const RunResult d = runFrames(dec, "GTr", 2);

    const auto bw = [](const EpochTotals &e) {
        return e.stall[static_cast<std::size_t>(
            StallReason::BarrierWait)];
    };

    std::uint64_t coupled_wait = 0;
    for (std::uint32_t p = 0; p < coupled.numPipelines; ++p) {
        coupled_wait += bw(c.units[static_cast<std::size_t>(ezUnit(p))]);
        coupled_wait += bw(c.units[static_cast<std::size_t>(scUnit(p))]);
        coupled_wait +=
            bw(c.units[static_cast<std::size_t>(blendUnit(p))]);
    }
    EXPECT_GT(coupled_wait, 0u);

    for (std::uint32_t p = 0; p < dec.numPipelines; ++p) {
        EXPECT_EQ(bw(d.units[static_cast<std::size_t>(ezUnit(p))]), 0u)
            << "ez" << p;
        EXPECT_EQ(bw(d.units[static_cast<std::size_t>(scUnit(p))]), 0u)
            << "sc" << p;
        EXPECT_EQ(bw(d.units[static_cast<std::size_t>(blendUnit(p))]),
                  0u)
            << "blend" << p;
    }
}

// ---------- Exporter ----------

TEST(TelemetryExportTest, StatsJsonParsesAndHoldsInvariant)
{
    const char *kPath = "test_telemetry_stats.json";
    StatRegistry reg("telemetry-test");
    TelemetryExport::global().setStatsJsonPath(kPath);
    TelemetryExport::global().attachRegistry(&reg);

    GpuConfig cfg = makeBaselineConfig();
    cfg.telemetryLevel = 1;
    runFrames(cfg, "GTr", 1, &reg, "run");
    TelemetryExport::global().flush();

    std::ifstream in(kPath, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    const std::string text = os.str();
    ASSERT_FALSE(text.empty());

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(text, doc, err)) << text;
    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
    for (const char *k : {"schema", "registry", "nodes"})
        ASSERT_NE(doc.find(k), nullptr) << k;
    EXPECT_EQ(doc.find("schema")->text, "dtexl-stats-v1");
    EXPECT_EQ(doc.find("registry")->text, "telemetry-test");

    const JsonValue &nodes = *doc.find("nodes");
    ASSERT_EQ(nodes.kind, JsonValue::Kind::Object);

    // Every published telemetry node must carry the closed key set and
    // satisfy the conservation invariant after the JSON round trip.
    int telemetry_nodes = 0;
    for (const auto &[path, node] : nodes.members) {
        if (path.find(".telemetry.") == std::string::npos)
            continue;
        ++telemetry_nodes;
        ASSERT_EQ(node.kind, JsonValue::Kind::Object) << path;
        std::uint64_t sum = 0;
        for (const auto &[key, val] : node.members) {
            ASSERT_EQ(val.kind, JsonValue::Kind::Number) << path;
            if (key != "total")
                sum += static_cast<std::uint64_t>(val.number);
        }
        ASSERT_TRUE(node.find("total") != nullptr) << path;
        EXPECT_EQ(sum,
                  static_cast<std::uint64_t>(node.find("total")->number))
            << path;
    }
    EXPECT_EQ(telemetry_nodes, static_cast<int>(kNumTelemetryUnits));

    std::remove(kPath);
}

} // namespace
} // namespace dtexl
