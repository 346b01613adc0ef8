/**
 * @file
 * Scalar-vs-SIMD bit-exactness battery for the portable lane layer
 * (common/simd.hh) and every kernel built on it: the lane primitives'
 * scalar semantics (ordered-compare behaviour on NaN), the Morton codec, the striped FNV checksum,
 * the vectorized rasterizer, and finally whole-frame equivalence: FrameStats,
 * registry counters and the image hash must be byte-identical under
 * --simd=auto and --simd=scalar for every preset. Also holds
 * the pow2-texture-side regression tests (the repeat-addressing wrap
 * mask assumes it) and the --simd plumbing tests.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/serial.hh"
#include "common/sim_error.hh"
#include "common/simd.hh"
#include "core/dtexl.hh"
#include "raster/rasterizer.hh"
#include "sfc/morton.hh"
#include "sfc/morton_lanes.hh"
#include "sfc/tile_order.hh"
#include "stats_equality.hh"
#include "telemetry/cli_options.hh"
#include "texture/texture.hh"
#include "workloads/scene_io.hh"
#include "workloads/scenegen.hh"

namespace dtexl {
namespace {

/** Deterministic xorshift64 for the randomized sweeps. */
struct Rng
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
    std::uint32_t u32() { return static_cast<std::uint32_t>(next()); }
    /** Uniform float in [lo, hi). */
    float
    uniform(float lo, float hi)
    {
        const float t = static_cast<float>(next() >> 40) /
                        static_cast<float>(1u << 24);
        return lo + (hi - lo) * t;
    }
};

/** Bit-pattern float equality: distinguishes -0.0, keeps NaN == NaN. */
::testing::AssertionResult
bitEqF(float a, float b)
{
    if (std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " (0x" << std::hex << std::bit_cast<std::uint32_t>(a)
           << ") vs " << b << " (0x" << std::bit_cast<std::uint32_t>(b)
           << ")";
}

// ---------------------------------------------------------------------
// Lane-primitive semantics
// ---------------------------------------------------------------------

TEST(SimdLanes, ComparesAreOrdered)
{
    // NaN lanes must produce a false mask from every compare, matching
    // scalar <, > and == (all false on unordered operands).
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float av[4] = {nan, 1.0f, nan, 0.0f};
    const float bv[4] = {1.0f, nan, nan, 0.0f};
    const F32x4 a = loadF4(av);
    const F32x4 b = loadF4(bv);
    EXPECT_EQ(moveMask4(cmpGtF4(a, b)), 0);
    EXPECT_EQ(moveMask4(cmpEqF4(a, b)), 0x8);  // only lane 3 (0 == 0)
}

TEST(SimdLanes, IntToFloatMatchesStaticCast)
{
    // Values above 2^24 round; the hardware cvt must round exactly
    // like static_cast<float> (to nearest even).
    const std::int32_t cases[] = {0,          1,          -1,
                                  (1 << 24),  (1 << 24) + 1,
                                  0x7fffffbf, 0x7fffffc0, -0x7fffffff,
                                  123456789,  -987654321};
    for (std::int32_t v : cases) {
        float out[4];
        storeF4(out, toF4(splatI4(v)));
        for (int i = 0; i < 4; ++i)
            EXPECT_TRUE(bitEqF(out[i], static_cast<float>(v))) << v;
    }
}

// ---------------------------------------------------------------------
// Morton lanes
// ---------------------------------------------------------------------

TEST(SimdSfc, MortonEncode4MatchesScalar)
{
    Rng rng;
    const std::uint32_t edge[] = {0u, 1u, 0xFFFFu, 0x10000u, 0x55555555u,
                                  0xAAAAAAAAu, 0xFFFFFFFFu};
    std::vector<std::uint32_t> xs(edge, edge + 7), ys(edge, edge + 7);
    for (int i = 0; i < 997; ++i) {
        xs.push_back(rng.u32());
        ys.push_back(rng.u32());
    }
    for (std::size_t i = 0; i + 4 <= xs.size(); i += 4) {
        const U32x4 x = makeU4(xs[i], xs[i + 1], xs[i + 2], xs[i + 3]);
        const U32x4 y = makeU4(ys[i], ys[i + 1], ys[i + 2], ys[i + 3]);
        std::uint64_t code[4];
        storeU64x4(code, mortonEncode4(x, y));
        for (int j = 0; j < 4; ++j)
            EXPECT_EQ(code[j], mortonEncode(xs[i + j], ys[i + j]))
                << "x=" << xs[i + j] << " y=" << ys[i + j];
    }
}

TEST(SimdSfc, MortonDecode4MatchesScalar)
{
    Rng rng;
    for (int i = 0; i < 256; ++i) {
        std::uint64_t codes[4];
        for (int j = 0; j < 4; ++j)
            codes[j] = rng.next();
        codes[0] = i == 0 ? 0 : codes[0];
        codes[1] = i == 0 ? ~0ull : codes[1];
        const U64x4 c = loadU64x4(codes);
        std::uint32_t x[4], y[4];
        storeU4(x, mortonDecodeX4(c));
        storeU4(y, mortonDecodeY4(c));
        for (int j = 0; j < 4; ++j) {
            EXPECT_EQ(x[j], mortonDecodeX(codes[j]));
            EXPECT_EQ(y[j], mortonDecodeY(codes[j]));
        }
    }
}

TEST(SimdSfc, TileOrderIdenticalUnderBothModes)
{
    const struct
    {
        std::uint32_t x, y;
    } grids[] = {{1, 1}, {2, 3}, {8, 8}, {13, 7}, {61, 24}, {5, 1},
                 {1, 9}, {62, 24}};
    for (TileOrder o : kAllTileOrders) {
        for (const auto &g : grids) {
            const std::vector<TileId> lanes =
                makeTileOrder(o, g.x, g.y, SimdMode::Auto);
            const std::vector<TileId> scalar =
                makeTileOrder(o, g.x, g.y, SimdMode::Scalar);
            EXPECT_EQ(lanes, scalar)
                << toString(o) << " " << g.x << "x" << g.y;
        }
    }
}

// ---------------------------------------------------------------------
// Striped FNV checksum
// ---------------------------------------------------------------------

/**
 * Every tail length 0..3 and the chain crossover points against a
 * byte-at-a-time reference (h[i % 4] chains, folded with length):
 * the production unrolled loop must agree at every size.
 */
TEST(SimdHash, StripedFnvMatchesReferenceAtEverySize)
{
    Rng rng;
    std::vector<std::uint8_t> buf;
    auto reference = [](const std::vector<std::uint8_t> &b) {
        std::uint64_t h[4] = {
            Fnv1a64::kOffsetBasis, Fnv1a64::kOffsetBasis,
            Fnv1a64::kOffsetBasis, Fnv1a64::kOffsetBasis};
        for (std::size_t i = 0; i < b.size(); ++i)
            h[i % 4] = (h[i % 4] ^ b[i]) * Fnv1a64::kPrime;
        Fnv1a64 fold;
        for (std::uint64_t d : h)
            fold.u64(d);
        fold.u64(b.size());
        return fold.value();
    };
    for (std::size_t size = 0; size <= 130; ++size) {
        buf.resize(size);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng.next());
        EXPECT_EQ(fnv1a64Striped(buf), reference(buf))
            << "size=" << size;
    }
    buf.resize(65536);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(fnv1a64Striped(buf), reference(buf));
}

/**
 * The layer's 64-bit lane multiply must be exact mod 2^64 on every
 * backend — the AVX2 backend assembles it from 32x32->64 partial
 * products, which this cross-checks against scalar multiplication on
 * carry-heavy operands (FNV constants, all-ones, high bits set).
 */
TEST(SimdHash, MulU64x4MatchesScalar)
{
    Rng rng;
    const std::uint64_t specials[] = {
        0,
        1,
        Fnv1a64::kPrime,
        Fnv1a64::kOffsetBasis,
        0xFFFFFFFFull,
        0x100000000ull,
        ~0ull,
        0x8000000000000000ull,
    };
    std::vector<std::uint64_t> vals(specials, std::end(specials));
    for (int i = 0; i < 64; ++i)
        vals.push_back(rng.next());
    for (std::size_t i = 0; i + 4 <= vals.size(); ++i) {
        for (std::size_t j = 0; j + 4 <= vals.size(); j += 4) {
            const U64x4 a = makeU64x4(vals[i], vals[i + 1], vals[i + 2],
                                      vals[i + 3]);
            const U64x4 b = makeU64x4(vals[j], vals[j + 1], vals[j + 2],
                                      vals[j + 3]);
            std::uint64_t got[4];
            storeU64x4(got, mulU64x4(a, b));
            for (int k = 0; k < 4; ++k) {
                EXPECT_EQ(got[k], vals[i + k] * vals[j + k])
                    << "i=" << i << " j=" << j << " lane " << k;
            }
        }
    }
}

/**
 * Freeze the v2 artifact-checksum format with an implementation the
 * production code never touches: four byte-interleaved FNV-1a chains,
 * folded with plain FNV-1a over the four digests and the length. A
 * change to either side is a silent format break result_store and
 * checkpoint files would trip over.
 */
TEST(SimdHash, StripedFnvFormatIsFrozen)
{
    Rng rng;
    std::vector<std::uint8_t> buf(1037);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());

    std::uint64_t h[4] = {Fnv1a64::kOffsetBasis, Fnv1a64::kOffsetBasis,
                          Fnv1a64::kOffsetBasis, Fnv1a64::kOffsetBasis};
    for (std::size_t i = 0; i < buf.size(); ++i)
        h[i % 4] = (h[i % 4] ^ buf[i]) * Fnv1a64::kPrime;
    Fnv1a64 fold;
    fold.u64(h[0]);
    fold.u64(h[1]);
    fold.u64(h[2]);
    fold.u64(h[3]);
    fold.u64(buf.size());

    EXPECT_EQ(fnv1a64Striped(buf), fold.value());
    // Not interchangeable with the serial digest (a mixed-up call site
    // must fail checksum verification, not silently pass).
    EXPECT_NE(fnv1a64Striped(buf), fnv1a64(buf));
}

// ---------------------------------------------------------------------
// Vectorized rasterizer
// ---------------------------------------------------------------------

Primitive
makeTri(Rng &rng, float lo, float hi)
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

void
expectSameQuads(const std::vector<Quad> &a, const std::vector<Quad> &b,
                int iter)
{
    ASSERT_EQ(a.size(), b.size()) << "iter " << iter;
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("iter " + std::to_string(iter) + " quad " +
                     std::to_string(i));
        EXPECT_EQ(a[i].prim, b[i].prim);
        EXPECT_EQ(a[i].quadInTile.x, b[i].quadInTile.x);
        EXPECT_EQ(a[i].quadInTile.y, b[i].quadInTile.y);
        EXPECT_EQ(a[i].coverage, b[i].coverage);
        for (int k = 0; k < 4; ++k) {
            EXPECT_TRUE(
                bitEqF(a[i].frags[k].depth, b[i].frags[k].depth));
            EXPECT_TRUE(bitEqF(a[i].frags[k].uv.x, b[i].frags[k].uv.x));
            EXPECT_TRUE(bitEqF(a[i].frags[k].uv.y, b[i].frags[k].uv.y));
        }
    }
}

TEST(SimdRaster, RasterizerMatchesScalar)
{
    GpuConfig lanes_cfg;
    lanes_cfg.screenWidth = 64;
    lanes_cfg.screenHeight = 48;
    lanes_cfg.simdMode = SimdMode::Auto;
    GpuConfig scalar_cfg = lanes_cfg;
    scalar_cfg.simdMode = SimdMode::Scalar;
    const Rasterizer lanes(lanes_cfg);
    const Rasterizer scalar(scalar_cfg);

    Rng rng;
    const Coord2 tiles[] = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};
    for (int iter = 0; iter < 400; ++iter) {
        // Mix of big overlapping triangles, slivers that barely touch
        // pixel centres, and off-screen spans (the on_screen clamp).
        Primitive p = iter % 3 == 0 ? makeTri(rng, -16.0f, 80.0f)
                                    : makeTri(rng, 0.0f, 64.0f);
        if (iter % 5 == 0) {
            // Sliver: collapse towards an edge.
            p.v[2].screen = Vec2f{
                p.v[0].screen.x +
                    0.9f * (p.v[1].screen.x - p.v[0].screen.x) + 0.01f,
                p.v[0].screen.y +
                    0.9f * (p.v[1].screen.y - p.v[0].screen.y)};
        }
        if (iter % 7 == 0) {
            // Vertices on pixel centres: edge functions hit exactly
            // zero and the top-left rule decides coverage.
            for (int i = 0; i < 3; ++i)
                p.v[i].screen = Vec2f{
                    std::floor(p.v[i].screen.x) + 0.5f,
                    std::floor(p.v[i].screen.y) + 0.5f};
        }
        for (const Coord2 &tc : tiles) {
            std::vector<Quad> qa, qb;
            const std::size_t na = lanes.rasterize(p, tc, qa);
            const std::size_t nb = scalar.rasterize(p, tc, qb);
            EXPECT_EQ(na, nb);
            expectSameQuads(qa, qb, iter);
        }
    }

    // Degenerate triangles: zero area (repeated vertex, collinear).
    Primitive degen = makeTri(rng, 0.0f, 64.0f);
    degen.v[1] = degen.v[0];
    std::vector<Quad> qa, qb;
    EXPECT_EQ(lanes.rasterize(degen, {0, 0}, qa), 0u);
    EXPECT_EQ(scalar.rasterize(degen, {0, 0}, qb), 0u);
    Primitive collinear = makeTri(rng, 0.0f, 64.0f);
    collinear.v[1].screen = Vec2f{collinear.v[0].screen.x + 8.0f,
                                  collinear.v[0].screen.y + 4.0f};
    collinear.v[2].screen = Vec2f{collinear.v[0].screen.x + 16.0f,
                                  collinear.v[0].screen.y + 8.0f};
    EXPECT_EQ(lanes.rasterize(collinear, {0, 0}, qa), 0u);
    EXPECT_EQ(scalar.rasterize(collinear, {0, 0}, qb), 0u);
}

// ---------------------------------------------------------------------
// pow2 texture-side guard (the wrap mask's precondition)
// ---------------------------------------------------------------------

TEST(SimdGuards, TextureRejectsNonPow2Side)
{
    for (std::uint32_t side : {0u, 3u, 48u, 100u, 65u}) {
        try {
            TextureDesc t(7, 0, side);
            FAIL() << "side " << side << " accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::UserInput) << e.describe();
            EXPECT_NE(e.describe().find("power of two"),
                      std::string::npos)
                << e.describe();
        }
    }
    // Powers of two stay accepted, including the trivial 1x1.
    EXPECT_NO_THROW(TextureDesc(8, 0, 1));
    EXPECT_NO_THROW(TextureDesc(9, 0, 1024));
}

TEST(SimdGuards, SceneLoaderRejectsNonPow2Side)
{
    std::stringstream ss("DTEXL_SCENE v1\n"
                         "textures 1\n"
                         "  0 4096 48 RGBA8\n"
                         "draws 0\n");
    try {
        loadScene(ss, "test.dscene");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::UserInput) << e.describe();
        EXPECT_NE(e.describe().find("power of two"), std::string::npos)
            << e.describe();
        EXPECT_EQ(e.context().rfind("test.dscene:3", 0), 0u)
            << e.context();
    }
}

// ---------------------------------------------------------------------
// --simd plumbing
// ---------------------------------------------------------------------

TEST(SimdPlumbing, CliAndConfigKeys)
{
    CommonCliOptions opts;
    EXPECT_EQ(opts.simdMode, CommonCliOptions::kSimdUnset);
    EXPECT_TRUE(opts.tryParse("--simd=scalar"));
    EXPECT_EQ(opts.simdMode,
              static_cast<std::uint32_t>(SimdMode::Scalar));
    EXPECT_TRUE(opts.tryParse("--simd=auto"));
    EXPECT_EQ(opts.simdMode, static_cast<std::uint32_t>(SimdMode::Auto));
    EXPECT_FALSE(opts.tryParse("--not-a-flag"));

    GpuConfig cfg;
    applyConfigOption(cfg, "simd", "scalar");
    EXPECT_EQ(cfg.simdMode, SimdMode::Scalar);
    applyConfigOption(cfg, "simd", "auto");
    EXPECT_EQ(cfg.simdMode, SimdMode::Auto);

    EXPECT_EQ(toString(SimdMode::Auto), "auto");
    EXPECT_EQ(toString(SimdMode::Scalar), "scalar");
    EXPECT_EQ(simdModeFromString("auto"), SimdMode::Auto);
    EXPECT_EQ(simdModeFromString("scalar"), SimdMode::Scalar);
}

// ---------------------------------------------------------------------
// Whole-frame equivalence
// ---------------------------------------------------------------------

GpuConfig
smallCfg()
{
    GpuConfig cfg;
    cfg.screenWidth = 256;
    cfg.screenHeight = 128;
    return cfg;
}

/**
 * Render 3 animated frames of @p alias with --simd=auto and
 * --simd=scalar; every frame must be bit-exact.
 */
void
autoMatchesScalar(GpuConfig cfg, const std::string &alias)
{
    cfg.simdMode = SimdMode::Auto;
    GpuConfig scalar_cfg = cfg;
    scalar_cfg.simdMode = SimdMode::Scalar;

    const BenchmarkParams &p = benchmarkByAlias(alias);
    const Scene f0 = generateScene(p, cfg, 0);
    const Scene f1 = generateScene(p, cfg, 1);
    const Scene f2 = generateScene(p, cfg, 2);

    GpuSimulator lanes(cfg, f0);
    GpuSimulator scalar(scalar_cfg, f0);

    const Scene *frames[] = {&f0, &f1, &f2};
    for (int f = 0; f < 3; ++f) {
        lanes.setScene(*frames[f]);
        scalar.setScene(*frames[f]);
        const FrameStats a = lanes.renderFrame();
        const FrameStats b = scalar.renderFrame();
        expectSameStats(a, b, alias + " frame " + std::to_string(f));
    }
}

TEST(SimdEquiv, Baseline)
{
    autoMatchesScalar(smallCfg(), "SWa");
}

TEST(SimdEquiv, DTexLPreset)
{
    // RectHilbert tile order, CG grouping, decoupled barriers.
    GpuConfig cfg = makeDTexLConfig();
    cfg.screenWidth = 256;
    cfg.screenHeight = 128;
    autoMatchesScalar(cfg, "GTr");
}

TEST(SimdEquiv, UpperBoundPreset)
{
    GpuConfig cfg = makeUpperBoundConfig();
    cfg.screenWidth = 256;
    cfg.screenHeight = 128;
    autoMatchesScalar(cfg, "SoD");
}

TEST(SimdEquiv, StatRegistryBitExact)
{
    GpuConfig cfg = smallCfg();
    cfg.simdMode = SimdMode::Auto;
    GpuConfig scalar_cfg = cfg;
    scalar_cfg.simdMode = SimdMode::Scalar;
    const Scene scene = generateScene(benchmarkByAlias("SoD"), cfg, 0);

    StatRegistry lanes_reg("lanes"), scalar_reg("scalar");
    GpuSimulator lanes(cfg, scene);
    GpuSimulator scalar(scalar_cfg, scene);
    lanes.setStatRegistry(&lanes_reg, "engine");
    scalar.setStatRegistry(&scalar_reg, "engine");
    (void)lanes.renderFrame();
    (void)scalar.renderFrame();

    ASSERT_EQ(lanes_reg.paths(), scalar_reg.paths());
    for (const std::string &path : lanes_reg.paths()) {
        const auto &a = lanes_reg.node(path).counters();
        const auto &b = scalar_reg.node(path).counters();
        ASSERT_EQ(a.size(), b.size()) << path;
        for (const auto &[key, value] : a) {
            if (key == "wall_us")
                continue;
            EXPECT_EQ(value, b.at(key)) << path << "." << key;
        }
    }
}

} // namespace
} // namespace dtexl
