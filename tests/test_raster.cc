/**
 * @file
 * Tests for the Rasterizer and frame buffer: coverage against the
 * reference predicate, the shared-edge exactly-once property (top-left
 * fill rule), attribute interpolation, tile clipping, a digest pin of
 * the rasterizer's exact output bits, and the order-sensitivity of the
 * blend arithmetic.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/rng.hh"
#include "common/serial.hh"
#include "geom/prim_assembler.hh"
#include "raster/framebuffer.hh"
#include "raster/rasterizer.hh"

namespace dtexl {
namespace {

GpuConfig
smallCfg()
{
    GpuConfig cfg;
    cfg.screenWidth = 128;
    cfg.screenHeight = 64;
    return cfg;
}

Primitive
makeTri(Vec2f a, Vec2f b, Vec2f c)
{
    Primitive p;
    p.v[0].screen = a;
    p.v[1].screen = b;
    p.v[2].screen = c;
    p.v[0].depth = 0.25f;
    p.v[1].depth = 0.5f;
    p.v[2].depth = 0.75f;
    p.v[0].uv = {0.0f, 0.0f};
    p.v[1].uv = {1.0f, 0.0f};
    p.v[2].uv = {0.0f, 1.0f};
    return p;
}

/** Collect covered pixels (global coords) from rasterized quads. */
std::map<std::pair<int, int>, int>
coverageMap(const GpuConfig &cfg, const Primitive &prim)
{
    Rasterizer rast(cfg);
    std::map<std::pair<int, int>, int> covered;
    for (std::uint32_t ty = 0; ty < cfg.tilesY(); ++ty) {
        for (std::uint32_t tx = 0; tx < cfg.tilesX(); ++tx) {
            std::vector<Quad> quads;
            rast.rasterize(prim, {static_cast<std::int32_t>(tx),
                                  static_cast<std::int32_t>(ty)},
                           quads);
            for (const Quad &q : quads) {
                for (unsigned k = 0; k < 4; ++k) {
                    if (!q.covered(k))
                        continue;
                    const int px = static_cast<int>(tx) * 32 +
                                   q.quadInTile.x * 2 +
                                   static_cast<int>(k % 2);
                    const int py = static_cast<int>(ty) * 32 +
                                   q.quadInTile.y * 2 +
                                   static_cast<int>(k / 2);
                    covered[{px, py}]++;
                }
            }
        }
    }
    return covered;
}

TEST(Rasterizer, CoverageMatchesReferencePredicate)
{
    GpuConfig cfg = smallCfg();
    const Primitive prim = makeTri({5, 5}, {60, 12}, {20, 50});
    const auto covered = coverageMap(cfg, prim);
    EXPECT_GT(covered.size(), 100u);
    for (std::uint32_t py = 0; py < cfg.screenHeight; ++py) {
        for (std::uint32_t px = 0; px < cfg.screenWidth; ++px) {
            const bool ref = Rasterizer::pixelCovered(prim, px, py);
            const bool got = covered.count(
                {static_cast<int>(px), static_cast<int>(py)}) > 0;
            ASSERT_EQ(got, ref) << "pixel " << px << "," << py;
        }
    }
}

TEST(Rasterizer, NoPixelCoveredTwiceWithinOnePrimitive)
{
    GpuConfig cfg = smallCfg();
    const auto covered =
        coverageMap(cfg, makeTri({3, 3}, {100, 10}, {40, 60}));
    for (const auto &[pix, count] : covered)
        ASSERT_EQ(count, 1) << pix.first << "," << pix.second;
}

class SharedEdgeTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SharedEdgeTest, AdjacentTrianglesCoverEachPixelOnce)
{
    // Two triangles forming a quad share the diagonal: the top-left
    // rule must shade every covered pixel exactly once.
    GpuConfig cfg = smallCfg();
    Rng rng(GetParam());
    for (int iter = 0; iter < 30; ++iter) {
        const Vec2f a{static_cast<float>(rng.nextDouble(2, 120)),
                      static_cast<float>(rng.nextDouble(2, 60))};
        const Vec2f b{static_cast<float>(rng.nextDouble(2, 120)),
                      static_cast<float>(rng.nextDouble(2, 60))};
        const Vec2f c{static_cast<float>(rng.nextDouble(2, 120)),
                      static_cast<float>(rng.nextDouble(2, 60))};
        const Vec2f d{a.x + c.x - b.x, a.y + c.y - b.y};  // parallelogram
        auto m1 = coverageMap(cfg, makeTri(a, b, c));
        auto m2 = coverageMap(cfg, makeTri(a, c, d));
        for (const auto &[pix, count] : m2)
            m1[pix] += count;
        for (const auto &[pix, count] : m1)
            ASSERT_EQ(count, 1)
                << "iter " << iter << " pixel " << pix.first << ","
                << pix.second;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedEdgeTest,
                         ::testing::Values(11u, 22u, 33u));

TEST(Rasterizer, WindingInsensitive)
{
    GpuConfig cfg = smallCfg();
    const auto cw = coverageMap(cfg, makeTri({5, 5}, {60, 12}, {20, 50}));
    const auto ccw =
        coverageMap(cfg, makeTri({5, 5}, {20, 50}, {60, 12}));
    EXPECT_EQ(cw.size(), ccw.size());
}

TEST(Rasterizer, QuadsStayInsideTheirTile)
{
    GpuConfig cfg = smallCfg();
    Rasterizer rast(cfg);
    std::vector<Quad> quads;
    const Primitive prim = makeTri({0, 0}, {127, 0}, {0, 63});
    rast.rasterize(prim, {1, 1}, quads);
    EXPECT_GT(quads.size(), 0u);
    for (const Quad &q : quads) {
        EXPECT_GE(q.quadInTile.x, 0);
        EXPECT_LT(q.quadInTile.x, 16);
        EXPECT_GE(q.quadInTile.y, 0);
        EXPECT_LT(q.quadInTile.y, 16);
    }
}

TEST(Rasterizer, InterpolatesDepthAndUv)
{
    GpuConfig cfg = smallCfg();
    Rasterizer rast(cfg);
    // Right triangle spanning a tile: attributes vary linearly.
    Primitive prim = makeTri({0, 0}, {32, 0}, {0, 32});
    std::vector<Quad> quads;
    rast.rasterize(prim, {0, 0}, quads);
    ASSERT_GT(quads.size(), 0u);
    for (const Quad &q : quads) {
        for (unsigned k = 0; k < 4; ++k) {
            if (!q.covered(k))
                continue;
            const float px = static_cast<float>(q.quadInTile.x * 2 +
                                                static_cast<int>(k % 2)) +
                             0.5f;
            const float py = static_cast<float>(q.quadInTile.y * 2 +
                                                static_cast<int>(k / 2)) +
                             0.5f;
            const float u_expect = px / 32.0f;
            const float v_expect = py / 32.0f;
            EXPECT_NEAR(q.frags[k].uv.x, u_expect, 1e-4f);
            EXPECT_NEAR(q.frags[k].uv.y, v_expect, 1e-4f);
            const float z_expect =
                0.25f + 0.25f * u_expect + 0.5f * v_expect;
            EXPECT_NEAR(q.frags[k].depth, z_expect, 1e-4f);
        }
    }
}

TEST(Rasterizer, EmptyOutsideBbox)
{
    GpuConfig cfg = smallCfg();
    Rasterizer rast(cfg);
    std::vector<Quad> quads;
    rast.rasterize(makeTri({5, 5}, {20, 5}, {5, 20}), {3, 1}, quads);
    EXPECT_TRUE(quads.empty());
}

TEST(Rasterizer, PartialEdgeTileClampsToScreen)
{
    GpuConfig cfg = smallCfg();
    cfg.screenWidth = 100;  // tile column 3 is 4 px wide
    Rasterizer rast(cfg);
    std::vector<Quad> quads;
    rast.rasterize(makeTri({90, 0}, {127, 0}, {90, 63}), {3, 0}, quads);
    for (const Quad &q : quads) {
        for (unsigned k = 0; k < 4; ++k) {
            if (!q.covered(k)) continue;
            const int px = 96 + q.quadInTile.x * 2 +
                           static_cast<int>(k % 2);
            EXPECT_LT(px, 100);
        }
    }
}

/** Deterministic xorshift64 for the randomized digest sweep. */
struct XorShift64
{
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    std::uint64_t
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
    /** Uniform float in [lo, hi). */
    float
    uniform(float lo, float hi)
    {
        const float t = static_cast<float>(next() >> 40) /
                        static_cast<float>(1u << 24);
        return lo + (hi - lo) * t;
    }
};

Primitive
randomTri(XorShift64 &rng, float lo, float hi)
{
    Primitive p;
    for (int i = 0; i < 3; ++i) {
        p.v[i].screen =
            Vec2f{rng.uniform(lo, hi), rng.uniform(lo, hi)};
        p.v[i].depth = rng.uniform(0.0f, 1.0f);
        p.v[i].uv = Vec2f{rng.uniform(-1.0f, 2.0f),
                          rng.uniform(-1.0f, 2.0f)};
    }
    return p;
}

/**
 * Every bit the rasterizer emits, pinned: quad coords, coverage and the
 * depth/uv bit patterns of all four fragments (helper pixels included)
 * for 400 random triangles x 4 tiles — big overlapping ones, slivers
 * that barely touch pixel centres, off-screen spans (the screen clamp)
 * and vertices on pixel centres (edge functions exactly zero, so the
 * top-left rule decides) — plus zero-area triangles, which emit
 * nothing. Recorded with both the lane and the per-fragment scalar
 * rasterizers, which agreed bit for bit.
 */
TEST(Rasterizer, QuadDigestIsPinned)
{
    GpuConfig cfg;
    cfg.screenWidth = 64;
    cfg.screenHeight = 48;
    const Rasterizer rast(cfg);

    XorShift64 rng;
    Fnv1a64 digest;
    std::uint64_t quads = 0;
    auto rasterize = [&](const Primitive &p, Coord2 tc) {
        std::vector<Quad> out;
        const std::size_t n = rast.rasterize(p, tc, out);
        EXPECT_EQ(n, out.size());
        digest.u64(n);
        for (const Quad &q : out) {
            digest.u32(static_cast<std::uint32_t>(q.quadInTile.x));
            digest.u32(static_cast<std::uint32_t>(q.quadInTile.y));
            digest.byte(q.coverage);
            for (const Fragment &f : q.frags) {
                digest.f32(f.depth);
                digest.f32(f.uv.x);
                digest.f32(f.uv.y);
            }
        }
        quads += n;
        return n;
    };

    const Coord2 tiles[] = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};
    for (int iter = 0; iter < 400; ++iter) {
        Primitive p = iter % 3 == 0 ? randomTri(rng, -16.0f, 80.0f)
                                    : randomTri(rng, 0.0f, 64.0f);
        if (iter % 5 == 0) {
            // Sliver: collapse towards an edge.
            p.v[2].screen = Vec2f{
                p.v[0].screen.x +
                    0.9f * (p.v[1].screen.x - p.v[0].screen.x) + 0.01f,
                p.v[0].screen.y +
                    0.9f * (p.v[1].screen.y - p.v[0].screen.y)};
        }
        if (iter % 7 == 0) {
            for (int i = 0; i < 3; ++i)
                p.v[i].screen = Vec2f{
                    std::floor(p.v[i].screen.x) + 0.5f,
                    std::floor(p.v[i].screen.y) + 0.5f};
        }
        for (const Coord2 &tc : tiles)
            rasterize(p, tc);
    }

    // Zero area: a repeated vertex, and three collinear vertices.
    Primitive degen = randomTri(rng, 0.0f, 64.0f);
    degen.v[1] = degen.v[0];
    EXPECT_EQ(rasterize(degen, {0, 0}), 0u);
    Primitive collinear = randomTri(rng, 0.0f, 64.0f);
    collinear.v[1].screen = Vec2f{collinear.v[0].screen.x + 8.0f,
                                  collinear.v[0].screen.y + 4.0f};
    collinear.v[2].screen = Vec2f{collinear.v[0].screen.x + 16.0f,
                                  collinear.v[0].screen.y + 8.0f};
    EXPECT_EQ(rasterize(collinear, {0, 0}), 0u);

    EXPECT_EQ(quads, 30119u);
    EXPECT_EQ(digest.value(), 0xcbad94a0cdef493eull);
}

TEST(Quad, LodFromDerivatives)
{
    Quad q;
    // 2 texels of a 256-texture per pixel horizontally, 1 vertically.
    q.frags[0].uv = {0.0f, 0.0f};
    q.frags[1].uv = {2.0f / 256.0f, 0.0f};
    q.frags[2].uv = {0.0f, 1.0f / 256.0f};
    q.frags[3].uv = {2.0f / 256.0f, 1.0f / 256.0f};
    EXPECT_NEAR(q.lod(256), 1.0f, 1e-4f);  // log2(max(2,1))
    // Magnification clamps at zero.
    q.frags[1].uv = {0.25f / 256.0f, 0.0f};
    q.frags[2].uv = {0.0f, 0.25f / 256.0f};
    EXPECT_FLOAT_EQ(q.lod(256), 0.0f);
}

TEST(Quad, LodMatchesPrimitiveForAffineContent)
{
    // For affine uv mappings, the per-quad derivative LOD equals the
    // per-primitive setup LOD.
    GpuConfig cfg = smallCfg();
    Primitive prim = makeTri({0, 0}, {64, 0}, {0, 64});
    prim.v[1].uv = {1.0f, 0.0f};
    prim.v[2].uv = {0.0f, 1.0f};
    prim.lod = PrimAssembler::computeLod(prim, 512);
    Rasterizer rast(cfg);
    std::vector<Quad> quads;
    rast.rasterize(prim, {0, 0}, quads);
    ASSERT_GT(quads.size(), 0u);
    for (const Quad &q : quads)
        ASSERT_NEAR(q.lod(512), prim.lod, 1e-3f);
}

// ---------- framebuffer / blending ----------

TEST(FrameBuffer, ClearAndHash)
{
    GpuConfig cfg = smallCfg();
    FrameBuffer fb(cfg);
    const std::uint64_t h0 = fb.hash();
    fb.setPixel(3, 4, 0xdeadbeef);
    EXPECT_NE(fb.hash(), h0);
    fb.clear();
    EXPECT_EQ(fb.hash(), h0);
    EXPECT_EQ(fb.pixel(3, 4), kClearColor);
}

TEST(FrameBuffer, PixelAddressesLinear)
{
    GpuConfig cfg = smallCfg();
    FrameBuffer fb(cfg);
    EXPECT_EQ(fb.pixelAddr(1, 0) - fb.pixelAddr(0, 0), 4u);
    EXPECT_EQ(fb.pixelAddr(0, 1) - fb.pixelAddr(0, 0),
              4u * cfg.screenWidth);
}

TEST(Blend, OpaqueReplaces)
{
    EXPECT_EQ(blendPixel(0x12345678, 0xabcdef01, false), 0xabcdef01u);
}

TEST(Blend, TransparentIsOrderSensitive)
{
    const PixelColor a = shadeColor(1, 0);
    const PixelColor b = shadeColor(2, 0);
    const PixelColor ab = blendPixel(blendPixel(kClearColor, a, true),
                                     b, true);
    const PixelColor ba = blendPixel(blendPixel(kClearColor, b, true),
                                     a, true);
    EXPECT_NE(ab, ba);
}

TEST(Blend, ShadeColorDeterministic)
{
    EXPECT_EQ(shadeColor(42, 3), shadeColor(42, 3));
    EXPECT_NE(shadeColor(42, 3), shadeColor(42, 2));
    EXPECT_NE(shadeColor(42, 3), shadeColor(43, 3));
}

} // namespace
} // namespace dtexl
