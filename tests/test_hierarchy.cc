/**
 * @file
 * Integration tests for the wired memory hierarchy (Figure 5): miss
 * propagation L1 -> L2 -> DRAM, private texture caches, shared L2,
 * and the paper's key counter (total L2 accesses).
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "mem/hierarchy.hh"

namespace dtexl {
namespace {

/** One-line texture read by @p core. */
Cycle
readLine(MemHierarchy &mem, CoreId core, Addr line, Cycle now)
{
    return mem.textureRead(core, &line, 1, now);
}

TEST(Hierarchy, BuildsPerConfig)
{
    GpuConfig cfg;
    MemHierarchy mem(cfg);
    EXPECT_EQ(mem.numTextureCaches(), 4u);

    GpuConfig ub = makeUpperBoundConfig();
    MemHierarchy mem1(ub);
    EXPECT_EQ(mem1.numTextureCaches(), 1u);
}

TEST(Hierarchy, MissPropagatesToL2AndDram)
{
    GpuConfig cfg;
    MemHierarchy mem(cfg);
    const Cycle t = readLine(mem, 0, 0x1000'0000, 0);
    EXPECT_EQ(mem.textureCache(0).misses(), 1u);
    EXPECT_EQ(mem.l2().accesses(), 1u);
    EXPECT_EQ(mem.dram().accesses(), 1u);
    // End-to-end latency: L1 tag (1) + L2 (12) + DRAM row miss (100).
    EXPECT_GE(t, 113u);

    // Re-read long after the fill: pure L1 hit, no new L2 traffic.
    const Cycle t2 = readLine(mem, 0, 0x1000'0000, 1000);
    EXPECT_EQ(t2, 1001u);
    EXPECT_EQ(mem.l2().accesses(), 1u);
}

TEST(Hierarchy, TextureReadReturnsLatestLine)
{
    GpuConfig cfg;
    MemHierarchy mem(cfg);
    readLine(mem, 0, 0x1000, 0);
    // One warm line and one cold line: the sample waits for the cold
    // one. No lines at all complete at the issue cycle.
    const Addr lines[] = {0x1000, 0x8000, 0x1000};
    const Cycle t = mem.textureRead(0, lines, 3, 1000);
    EXPECT_GE(t, 1000u + 113u);
    EXPECT_EQ(mem.textureCache(0).reads(), 4u);
    EXPECT_EQ(mem.textureCache(0).misses(), 2u);
    EXPECT_EQ(mem.textureRead(0, lines, 0, 5000), 5000u);
}

TEST(Hierarchy, L2HitServesSecondCore)
{
    GpuConfig cfg;
    MemHierarchy mem(cfg);
    readLine(mem, 0, 0x1000'0000, 0);
    // Core 1 misses its private L1 but hits the shared L2: this is
    // exactly the block replication the paper counts.
    readLine(mem, 1, 0x1000'0000, 500);
    EXPECT_EQ(mem.l2().accesses(), 2u);
    EXPECT_EQ(mem.dram().accesses(), 1u);
    EXPECT_TRUE(mem.textureCache(0).contains(0x1000'0000));
    EXPECT_TRUE(mem.textureCache(1).contains(0x1000'0000));
}

TEST(Hierarchy, TextureCachesArePrivate)
{
    GpuConfig cfg;
    MemHierarchy mem(cfg);
    readLine(mem, 2, 0x2000, 0);
    EXPECT_TRUE(mem.textureCache(2).contains(0x2000));
    EXPECT_FALSE(mem.textureCache(0).contains(0x2000));
    EXPECT_FALSE(mem.textureCache(3).contains(0x2000));
}

TEST(Hierarchy, VertexAndTileCachesShareL2)
{
    GpuConfig cfg;
    MemHierarchy mem(cfg);
    mem.vertexRead(0x4000'0000, 0);
    mem.tileAccess(0x5000'0000, AccessType::Write, 10);
    EXPECT_EQ(mem.l2().accesses(), 2u);
    EXPECT_EQ(mem.vertexCache().accesses(), 1u);
    EXPECT_EQ(mem.tileCache().accesses(), 1u);
    EXPECT_EQ(mem.l2Accesses(), 2u);
}

TEST(Hierarchy, FlushAllColdsEverything)
{
    GpuConfig cfg;
    MemHierarchy mem(cfg);
    readLine(mem, 0, 0x1000, 0);
    mem.flushAll();
    EXPECT_FALSE(mem.textureCache(0).contains(0x1000));
    readLine(mem, 0, 0x1000, 1000);
    EXPECT_EQ(mem.textureCache(0).misses(), 2u);
}

TEST(Hierarchy, ResetTimingKeepsWarmContents)
{
    GpuConfig cfg;
    MemHierarchy mem(cfg);
    readLine(mem, 0, 0x1000, 123456);
    mem.resetTiming();
    const Cycle t = readLine(mem, 0, 0x1000, 0);
    EXPECT_EQ(t, 1u);  // warm L1 hit at cycle 0
}

TEST(Hierarchy, UpperBoundCacheIsQuadSized)
{
    GpuConfig ub = makeUpperBoundConfig();
    MemHierarchy mem(ub);
    // 64 KiB / 64 B = 1024 lines: fill 1024 distinct lines and verify
    // they are all resident (4-way, 256 sets, sequential addresses
    // spread evenly).
    for (std::uint32_t i = 0; i < 1024; ++i)
        readLine(mem, 0, static_cast<Addr>(i) * 64, i * 10);
    std::uint32_t resident = 0;
    for (std::uint32_t i = 0; i < 1024; ++i)
        resident += mem.textureCache(0).contains(
            static_cast<Addr>(i) * 64) ? 1 : 0;
    EXPECT_EQ(resident, 1024u);
}

} // namespace
} // namespace dtexl
