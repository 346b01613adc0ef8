/**
 * @file
 * Tests for texture descriptors (mip chains, Morton-tiled layout) and
 * sampling footprints (filter widths, wrap addressing, cache-line
 * dedup, the adjacent-quad line-sharing property that underpins the
 * whole paper, quad footprints against per-fragment ones, and a pinned
 * digest of the footprint output).
 */

#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "common/serial.hh"
#include "common/sim_error.hh"
#include "texture/sampler.hh"
#include "texture/texture.hh"

namespace dtexl {
namespace {

TEST(Texture, MipChainGeometry)
{
    TextureDesc t(0, 0x1000, 256);
    EXPECT_EQ(t.numMipLevels(), 9u);  // 256..1
    EXPECT_EQ(t.levelSide(0), 256u);
    EXPECT_EQ(t.levelSide(1), 128u);
    EXPECT_EQ(t.levelSide(8), 1u);
    // Total = 4 * (256^2 + 128^2 + ... + 1).
    std::uint64_t expect = 0;
    for (std::uint32_t s = 256; s >= 1; s /= 2) {
        expect += std::uint64_t{s} * s * 4;
        if (s == 1)
            break;
    }
    EXPECT_EQ(t.totalBytes(), expect);
}

TEST(Texture, MipLevelsDisjointAndOrdered)
{
    TextureDesc t(0, 0x1000, 64);
    const Addr l0_first = t.texelAddr(0, 0, 0);
    const Addr l0_last = t.texelAddr(0, 63, 63);
    const Addr l1_first = t.texelAddr(1, 0, 0);
    EXPECT_EQ(l0_first, 0x1000u);
    EXPECT_LT(l0_last, l1_first);
    EXPECT_EQ(l1_first, 0x1000u + 64 * 64 * 4);
}

TEST(Texture, MortonTiledLayout)
{
    TextureDesc t(0, 0, 64);
    // A 4x4 texel block occupies exactly one 64 B line.
    std::set<Addr> lines;
    for (std::uint32_t y = 8; y < 12; ++y)
        for (std::uint32_t x = 4; x < 8; ++x)
            lines.insert(t.texelAddr(0, x, y) / 64);
    EXPECT_EQ(lines.size(), 1u);

    // Crossing the block boundary switches line.
    EXPECT_NE(t.texelAddr(0, 3, 8) / 64, t.texelAddr(0, 4, 8) / 64);
}

TEST(Sampler, TexelsPerSample)
{
    EXPECT_EQ(texelsPerSample(FilterMode::Nearest), 1u);
    EXPECT_EQ(texelsPerSample(FilterMode::Bilinear), 4u);
    EXPECT_EQ(texelsPerSample(FilterMode::Trilinear), 8u);
    EXPECT_EQ(texelsPerSample(FilterMode::Aniso2x), 8u);
}

class FilterFootprintTest
    : public ::testing::TestWithParam<FilterMode>
{};

TEST_P(FilterFootprintTest, FootprintSizeMatchesFilter)
{
    TextureDesc t(0, 0, 128);
    const SampleFootprint fp =
        sampleFootprint(t, GetParam(), 0.37f, 0.61f, 0.0f);
    EXPECT_EQ(fp.count, texelsPerSample(GetParam()));
    for (std::uint32_t i = 0; i < fp.count; ++i) {
        EXPECT_GE(fp.texels[i], t.baseAddr());
        EXPECT_LT(fp.texels[i], t.baseAddr() + t.totalBytes());
    }
}

INSTANTIATE_TEST_SUITE_P(AllFilters, FilterFootprintTest,
                         ::testing::Values(FilterMode::Nearest,
                                           FilterMode::Bilinear,
                                           FilterMode::Trilinear,
                                           FilterMode::Aniso2x));

TEST(Sampler, BilinearTapIsTwoByTwo)
{
    TextureDesc t(0, 0, 64);
    // Sample exactly between texels (10,20),(11,20),(10,21),(11,21).
    const float u = 11.0f / 64.0f;
    const float v = 21.0f / 64.0f;
    const SampleFootprint fp =
        sampleFootprint(t, FilterMode::Bilinear, u, v, 0.0f);
    std::set<Addr> expect = {
        t.texelAddr(0, 10, 20), t.texelAddr(0, 11, 20),
        t.texelAddr(0, 10, 21), t.texelAddr(0, 11, 21)};
    std::set<Addr> got(fp.texels.begin(), fp.texels.begin() + fp.count);
    EXPECT_EQ(got, expect);
}

TEST(Sampler, TrilinearTouchesTwoMips)
{
    TextureDesc t(0, 0, 64);
    const SampleFootprint fp =
        sampleFootprint(t, FilterMode::Trilinear, 0.5f, 0.5f, 1.3f);
    bool in_l1 = false, in_l2 = false;
    const Addr l1_base = t.texelAddr(1, 0, 0);
    const Addr l2_base = t.texelAddr(2, 0, 0);
    const Addr l3_base = t.texelAddr(3, 0, 0);
    for (std::uint32_t i = 0; i < fp.count; ++i) {
        in_l1 |= fp.texels[i] >= l1_base && fp.texels[i] < l2_base;
        in_l2 |= fp.texels[i] >= l2_base && fp.texels[i] < l3_base;
    }
    EXPECT_TRUE(in_l1);
    EXPECT_TRUE(in_l2);
}

TEST(Sampler, WrapAddressing)
{
    TextureDesc t(0, 0, 32);
    // u slightly negative wraps to the right edge; no out-of-range
    // texels (the descriptor asserts internally).
    const SampleFootprint fp =
        sampleFootprint(t, FilterMode::Bilinear, -0.01f, 0.5f, 0.0f);
    EXPECT_EQ(fp.count, 4u);
    const SampleFootprint fp2 =
        sampleFootprint(t, FilterMode::Bilinear, 1.49f, 2.75f, 0.0f);
    EXPECT_EQ(fp2.count, 4u);
}

TEST(Sampler, LodClampsToChain)
{
    TextureDesc t(0, 0, 16);  // 5 levels
    const SampleFootprint fp =
        sampleFootprint(t, FilterMode::Trilinear, 0.5f, 0.5f, 99.0f);
    // All texels must fall in the last levels, never past the chain.
    for (std::uint32_t i = 0; i < fp.count; ++i)
        EXPECT_LT(fp.texels[i], t.totalBytes());
}

TEST(Sampler, FootprintLinesDedup)
{
    TextureDesc t(0, 0, 64);
    // A bilinear tap interior to one 4x4 Morton block: 4 texels, one
    // line.
    const float u = 1.5f / 64.0f;
    const float v = 1.5f / 64.0f;
    const SampleFootprint fp =
        sampleFootprint(t, FilterMode::Bilinear, u, v, 0.0f);
    std::array<Addr, SampleFootprint::kMaxTexels> lines;
    EXPECT_EQ(footprintLines(fp, 64, lines), 1u);
}

TEST(Sampler, AdjacentQuadsShareCacheLines)
{
    // The paper's core claim (Section II-B): at ~1 texel/pixel,
    // adjacent quads' footprints overlap in cache lines.
    TextureDesc t(0, 0, 256);
    const float scale = 1.0f / 256.0f;  // 1 texel per pixel
    auto lines_at = [&](float px, float py) {
        std::set<Addr> s;
        for (int dy = 0; dy < 2; ++dy) {
            for (int dx = 0; dx < 2; ++dx) {
                const SampleFootprint fp = sampleFootprint(
                    t, FilterMode::Bilinear,
                    (px + static_cast<float>(dx) + 0.5f) * scale,
                    (py + static_cast<float>(dy) + 0.5f) * scale, 0.0f);
                for (std::uint32_t i = 0; i < fp.count; ++i)
                    s.insert(fp.texels[i] / 64);
            }
        }
        return s;
    };
    int shared_pairs = 0;
    for (int q = 0; q < 16; ++q) {
        const float px = static_cast<float>(16 + q * 2);
        const std::set<Addr> a = lines_at(px, 32.0f);
        const std::set<Addr> b = lines_at(px + 2.0f, 32.0f);
        for (Addr l : a)
            if (b.count(l)) {
                ++shared_pairs;
                break;
            }
    }
    // Most horizontally adjacent quads share at least one line.
    EXPECT_GE(shared_pairs, 10);
}


/** Expect quadSampleFootprints to equal four sampleFootprint calls. */
void
expectSameFootprints(const TextureDesc &tex, FilterMode mode,
                     const Vec2f uv[4], float lod)
{
    SampleFootprint fp[4];
    quadSampleFootprints(tex, mode, uv, lod, fp);
    for (int k = 0; k < 4; ++k) {
        const SampleFootprint ref =
            sampleFootprint(tex, mode, uv[k].x, uv[k].y, lod);
        ASSERT_EQ(fp[k].count, ref.count)
            << "fmt=" << toString(tex.format())
            << " mode=" << static_cast<int>(mode) << " frag=" << k
            << " uv=(" << uv[k].x << "," << uv[k].y << ") lod=" << lod;
        for (std::uint32_t t = 0; t < ref.count; ++t)
            EXPECT_EQ(fp[k].texels[t], ref.texels[t])
                << "fmt=" << toString(tex.format()) << " frag=" << k
                << " tap=" << t;
    }
}

TEST(Sampler, QuadFootprintsMatchPerFragment)
{
    const TextureDesc textures[] = {
        TextureDesc(0, 0, 64, TexFormat::RGBA8),
        TextureDesc(1, 1 << 20, 32, TexFormat::RGB565),
        TextureDesc(2, 1 << 21, 64, TexFormat::ETC2),
        TextureDesc(3, 1 << 22, 1, TexFormat::RGBA8),  // 1x1 edge case
    };
    const FilterMode modes[] = {FilterMode::Nearest, FilterMode::Bilinear,
                                FilterMode::Trilinear,
                                FilterMode::Aniso2x};
    // LODs: base level, fractional, exact level boundary, beyond the
    // chain (clamped), and the last level.
    const float lods[] = {0.0f, 0.37f, 1.0f, 2.6f, 100.0f};

    // Wrap-boundary straddling quads: taps around u=0 and u=1 must
    // wrap to the far column identically for the quad and for each
    // fragment, as must coordinates far outside [0, 1).
    const Vec2f straddles[][4] = {
        {{-0.001f, 0.5f}, {0.001f, 0.5f}, {-0.001f, 0.52f},
         {0.001f, 0.52f}},
        {{0.999f, 0.0f}, {1.001f, 0.0f}, {0.999f, -0.01f},
         {1.001f, 0.996f}},
        {{0.0f, 0.0f}, {1.0f, 1.0f}, {-1.0f, 2.0f}, {0.5f, -2.5f}},
        // Exactly on texel centres and corners (side 64: centres at
        // k/64 + 1/128) — the floor(x - 0.5) boundary.
        {{0.5f, 0.5f}, {0.5f + 1.0f / 128.0f, 0.5f},
         {0.25f, 0.5f + 1.0f / 128.0f}, {31.0f / 64.0f, 33.0f / 64.0f}},
    };

    Rng rng(0x9e3779b97f4a7c15ull);
    auto uniform = [&rng] {
        return static_cast<float>(rng.nextDouble(-2.0, 3.0));
    };
    for (const TextureDesc &tex : textures) {
        for (FilterMode mode : modes) {
            for (float lod : lods) {
                for (const auto &uv : straddles)
                    expectSameFootprints(tex, mode, uv, lod);
                for (int iter = 0; iter < 25; ++iter) {
                    Vec2f uv[4];
                    for (auto &p : uv)
                        p = Vec2f{uniform(), uniform()};
                    expectSameFootprints(tex, mode, uv, lod);
                }
            }
        }
    }
}

/**
 * Frozen output of quadSampleFootprints + footprintLines: one FNV-1a
 * digest over every texel and line address the pair produces across
 * all filters and formats, power-of-two sides 1..4096, lods below 0
 * and past the last level, and uv at wrap boundaries, signed zeros,
 * outside [0, 1] and past 2^31 texels, at line sizes 32/64/128. The
 * value was recorded with the SIMD lane implementation, before the
 * footprints became scalar code; any rewrite must reproduce it.
 */
TEST(Sampler, QuadFootprintDigestIsPinned)
{
    const TexFormat formats[] = {TexFormat::RGBA8, TexFormat::RGB565,
                                 TexFormat::ETC2};
    const FilterMode modes[] = {FilterMode::Nearest, FilterMode::Bilinear,
                                FilterMode::Trilinear,
                                FilterMode::Aniso2x};
    const float lods[] = {-3.0f, -0.0f, 0.0f, 0.37f, 1.0f,
                          2.6f,  11.5f, 12.0f, 100.0f};
    // Wrap boundaries, signed zeros, texel-centre boundaries of small
    // sides, values outside [0, 1], and magnitudes whose texel
    // coordinate passes 2^31 at every side (still inside int64).
    const float specials[] = {
        0.0f,          -0.0f,         1.0f,          -1.0f,
        0.5f,          1e-7f,         -1e-7f,        0.99999994f,
        1.0000001f,    -0.99999994f,  2.5f,          -2.5f,
        1.0f / 128.0f, 3.0f / 256.0f, 0x1p31f,       -0x1p31f,
        0x1.8p33f,     -0x1.8p33f,    1e12f,         -1e12f,
    };
    constexpr std::size_t kSpecials = std::size(specials);
    // Four fragments per quad, walking every (u, v) pair of specials.
    std::vector<Vec2f> uvs;
    for (float u : specials)
        for (float v : specials)
            uvs.push_back(Vec2f{u, v});
    // Plus multiples of 1/8192 in [-4, 4): exact texel boundaries at
    // every side up to 4096.
    Rng rng(0x5eed);
    for (int i = 0; i < 64; ++i) {
        uvs.push_back(Vec2f{
            static_cast<float>(rng.nextBounded(65536)) / 8192.0f - 4.0f,
            static_cast<float>(rng.nextBounded(65536)) / 8192.0f -
                4.0f});
    }
    ASSERT_EQ(uvs.size() % 4, 0u);
    ASSERT_EQ(kSpecials * kSpecials % 4, 0u);

    Fnv1a64 h;
    std::uint64_t lines_total = 0;
    for (TexFormat fmt : formats) {
        for (std::uint32_t side = 1; side <= 4096; side *= 2) {
            const TextureDesc tex(7, 0x10000040ull * side, side, fmt);
            for (FilterMode mode : modes) {
                for (float lod : lods) {
                    for (std::size_t q = 0; q < uvs.size(); q += 4) {
                        SampleFootprint fp[4];
                        quadSampleFootprints(tex, mode, &uvs[q], lod, fp);
                        for (const SampleFootprint &f : fp) {
                            h.u32(f.count);
                            for (std::uint32_t t = 0; t < f.count; ++t)
                                h.u64(f.texels[t]);
                            for (std::uint32_t lb : {32u, 64u, 128u}) {
                                std::array<Addr,
                                           SampleFootprint::kMaxTexels>
                                    lines;
                                const std::uint32_t n =
                                    footprintLines(f, lb, lines);
                                h.u32(n);
                                for (std::uint32_t i = 0; i < n; ++i)
                                    h.u64(lines[i]);
                                lines_total += n;
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(lines_total, 3530744u);
    EXPECT_EQ(h.value(), 0xed7215cb0bd9d1c5ull);
}

// ---- pow2 texture side (the wrap mask's precondition) ----

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

} // namespace
} // namespace dtexl
