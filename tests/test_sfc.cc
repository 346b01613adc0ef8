/**
 * @file
 * Tests for the space-filling-curve module: Morton coding, Hilbert
 * bijection and unit-step property, and the tile traversals (every
 * traversal is a permutation; locality-oriented traversals keep
 * consecutive tiles adjacent far more often than scanline).
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/serial.hh"
#include "sfc/hilbert.hh"
#include "sfc/morton.hh"
#include "sfc/tile_order.hh"

namespace dtexl {
namespace {

// ---------- Morton ----------

TEST(Morton, KnownValues)
{
    EXPECT_EQ(mortonEncode(0, 0), 0u);
    EXPECT_EQ(mortonEncode(1, 0), 1u);
    EXPECT_EQ(mortonEncode(0, 1), 2u);
    EXPECT_EQ(mortonEncode(1, 1), 3u);
    EXPECT_EQ(mortonEncode(2, 0), 4u);
    EXPECT_EQ(mortonEncode(0, 2), 8u);
    EXPECT_EQ(mortonEncode(3, 5), 0x27u);
}

TEST(Morton, RoundTrip)
{
    for (std::uint32_t x = 0; x < 64; x += 7) {
        for (std::uint32_t y = 0; y < 64; y += 5) {
            const std::uint64_t code = mortonEncode(x, y);
            EXPECT_EQ(mortonDecodeX(code), x);
            EXPECT_EQ(mortonDecodeY(code), y);
        }
    }
    // Large coordinates exercise the full bit-spread.
    const std::uint64_t code = mortonEncode(0xdeadbeef, 0x12345678);
    EXPECT_EQ(mortonDecodeX(code), 0xdeadbeefu);
    EXPECT_EQ(mortonDecodeY(code), 0x12345678u);
}

TEST(Morton, LocalityWithinBlocks)
{
    // A 4x4-aligned block maps to 16 consecutive codes: the property
    // the tiled texture layout relies on (64 B line = 4x4 texels).
    const std::uint64_t base = mortonEncode(4, 8);
    std::set<std::uint64_t> codes;
    for (std::uint32_t dy = 0; dy < 4; ++dy)
        for (std::uint32_t dx = 0; dx < 4; ++dx)
            codes.insert(mortonEncode(4 + dx, 8 + dy));
    EXPECT_EQ(codes.size(), 16u);
    EXPECT_EQ(*codes.begin(), base);
    EXPECT_EQ(*codes.rbegin(), base + 15);
}

// ---------- Hilbert ----------

class HilbertSideTest : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(HilbertSideTest, BijectionAndRoundTrip)
{
    const std::uint32_t side = GetParam();
    std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
    for (std::uint64_t d = 0; d < std::uint64_t{side} * side; ++d) {
        std::uint32_t x, y;
        hilbertD2XY(side, d, x, y);
        EXPECT_LT(x, side);
        EXPECT_LT(y, side);
        EXPECT_TRUE(seen.insert({x, y}).second)
            << "duplicate cell at d=" << d;
        EXPECT_EQ(hilbertXY2D(side, x, y), d);
    }
    EXPECT_EQ(seen.size(), std::size_t{side} * side);
}

TEST_P(HilbertSideTest, UnitSteps)
{
    // The defining Hilbert property: consecutive indices are grid
    // neighbours.
    const std::uint32_t side = GetParam();
    std::uint32_t px, py;
    hilbertD2XY(side, 0, px, py);
    for (std::uint64_t d = 1; d < std::uint64_t{side} * side; ++d) {
        std::uint32_t x, y;
        hilbertD2XY(side, d, x, y);
        EXPECT_TRUE(isEdgeAdjacent(
            {static_cast<std::int32_t>(px), static_cast<std::int32_t>(py)},
            {static_cast<std::int32_t>(x), static_cast<std::int32_t>(y)}))
            << "jump at d=" << d;
        px = x;
        py = y;
    }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, HilbertSideTest,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u));

// ---------- Tile orders ----------

using GridParam = std::tuple<std::uint32_t, std::uint32_t>;

class TileOrderGridTest : public ::testing::TestWithParam<GridParam>
{};

TEST_P(TileOrderGridTest, EveryOrderIsAPermutation)
{
    const auto [tx, ty] = GetParam();
    for (TileOrder order : kAllTileOrders) {
        const auto trav = makeTileOrder(order, tx, ty);
        ASSERT_EQ(trav.size(), std::size_t{tx} * ty)
            << toString(order) << " on " << tx << "x" << ty;
        std::set<TileId> seen(trav.begin(), trav.end());
        EXPECT_EQ(seen.size(), trav.size());
        EXPECT_EQ(*seen.rbegin(), tx * ty - 1);
    }
}

INSTANTIATE_TEST_SUITE_P(
    GridShapes, TileOrderGridTest,
    ::testing::Values(GridParam{1, 1}, GridParam{4, 4}, GridParam{8, 8},
                      GridParam{16, 16}, GridParam{5, 3},
                      GridParam{62, 24},   // Table II screen
                      GridParam{13, 7}, GridParam{1, 9},
                      GridParam{31, 2}));

TEST(TileOrders, ScanlineIsRowMajor)
{
    const auto t = makeTileOrder(TileOrder::Scanline, 3, 2);
    EXPECT_EQ(t, (std::vector<TileId>{0, 1, 2, 3, 4, 5}));
}

TEST(TileOrders, SOrderSerpentine)
{
    const auto t = makeTileOrder(TileOrder::SOrder, 3, 2);
    EXPECT_EQ(t, (std::vector<TileId>{0, 1, 2, 5, 4, 3}));
}

TEST(TileOrders, ZOrderSquare)
{
    const auto t = makeTileOrder(TileOrder::ZOrder, 2, 2);
    EXPECT_EQ(t, (std::vector<TileId>{0, 1, 2, 3}));
    const auto t4 = makeTileOrder(TileOrder::ZOrder, 4, 4);
    // First quadrant of a 4x4 Z-order: (0,0),(1,0),(0,1),(1,1), then
    // jumps to (2,0).
    EXPECT_EQ(t4[0], 0u);
    EXPECT_EQ(t4[1], 1u);
    EXPECT_EQ(t4[2], 4u);
    EXPECT_EQ(t4[3], 5u);
    EXPECT_EQ(t4[4], 2u);
}

/**
 * The exact Z-order traversal, pinned as one FNV-1a digest over grids
 * that exercise the power-of-two enclosing square's filter: 1x1, single
 * rows and columns, odd and non-square sides, and the Table II screen
 * (62x24) next to its neighbour 61x24.
 */
TEST(TileOrders, ZOrderDigestIsPinned)
{
    const struct
    {
        std::uint32_t x, y;
    } grids[] = {{1, 1}, {2, 3}, {8, 8}, {13, 7}, {61, 24}, {5, 1},
                 {1, 9}, {62, 24}};
    Fnv1a64 digest;
    for (const auto &g : grids) {
        const std::vector<TileId> order =
            makeTileOrder(TileOrder::ZOrder, g.x, g.y);
        digest.u64(order.size());
        for (TileId id : order)
            digest.u32(id);
    }
    EXPECT_EQ(digest.value(), 0x8df571502af3d153ull);
}

TEST(TileOrders, SOrderIsFullyAdjacent)
{
    const auto t = makeTileOrder(TileOrder::SOrder, 10, 6);
    EXPECT_DOUBLE_EQ(adjacencyFraction(t, 10), 1.0);
}

TEST(TileOrders, HilbertAdjacentWithinSubframes)
{
    // On a single 8x8 sub-frame the traversal is a pure Hilbert curve:
    // fully adjacent.
    const auto t = makeTileOrder(TileOrder::RectHilbert, 8, 8);
    EXPECT_DOUBLE_EQ(adjacencyFraction(t, 8), 1.0);
}

TEST(TileOrders, LocalityRanking)
{
    // On the Table II tile grid, Hilbert and S-order preserve
    // adjacency better than Z-order, which beats nothing; scanline
    // breaks adjacency once per row end.
    const std::uint32_t tx = 62, ty = 24;
    const double adj_scan =
        adjacencyFraction(makeTileOrder(TileOrder::Scanline, tx, ty), tx);
    const double adj_z =
        adjacencyFraction(makeTileOrder(TileOrder::ZOrder, tx, ty), tx);
    const double adj_h = adjacencyFraction(
        makeTileOrder(TileOrder::RectHilbert, tx, ty), tx);
    const double adj_s =
        adjacencyFraction(makeTileOrder(TileOrder::SOrder, tx, ty), tx);
    EXPECT_GT(adj_h, adj_z);
    EXPECT_GT(adj_s, adj_z);
    EXPECT_GT(adj_z, 0.5);
    EXPECT_LT(adj_scan, 1.0);
    EXPECT_GT(adj_h, 0.9);
}

TEST(TileOrders, RectHilbertCoversPartialSubframes)
{
    // 10x5 grid: right and bottom sub-frames are partial; the
    // traversal must still be a permutation (checked in the
    // parameterized test) and must start inside the first sub-frame.
    const auto t = makeTileOrder(TileOrder::RectHilbert, 10, 5);
    const Coord2 first = tileCoord(t.front(), 10);
    EXPECT_LT(first.x, 8);
    EXPECT_LT(first.y, 5);
}

} // namespace
} // namespace dtexl
