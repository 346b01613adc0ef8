/**
 * @file
 * Equality oracles shared by the bit-exactness tests: every FrameStats
 * field (distributions and image hash included), a whole frame
 * history, and a StatRegistry minus its host wall-clock counters.
 */

#ifndef DTEXL_TESTS_STATS_EQUALITY_HH
#define DTEXL_TESTS_STATS_EQUALITY_HH

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/stat_registry.hh"
#include "core/frame_stats.hh"

namespace dtexl {

/** Every FrameStats field, including the distributions. */
inline void
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

/** expectSameStats() over two frame histories of equal length. */
inline void
expectSameHistory(const std::vector<FrameStats> &a,
                  const std::vector<FrameStats> &b,
                  const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t f = 0; f < a.size(); ++f)
        expectSameStats(a[f], b[f], what + " frame " + std::to_string(f));
}

/** Full registry equality, minus the host wall-clock counters. */
inline void
expectSameRegistry(const StatRegistry &a, const StatRegistry &b)
{
    ASSERT_EQ(a.paths(), b.paths());
    for (const std::string &path : a.paths()) {
        const auto &ca = a.find(path)->counters();
        const auto &cb = b.find(path)->counters();
        ASSERT_EQ(ca.size(), cb.size()) << path;
        for (const auto &[key, value] : ca) {
            if (key == "wall_us")
                continue;
            EXPECT_EQ(value, cb.at(key)) << path << "." << key;
        }
    }
}

} // namespace dtexl

#endif // DTEXL_TESTS_STATS_EQUALITY_HH
