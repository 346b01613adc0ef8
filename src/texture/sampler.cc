#include "texture/sampler.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/log.hh"
#include "sfc/morton.hh"

namespace dtexl {

namespace {

/**
 * Exact floor of a float into an int64, for |x| < 2^63, without a libm
 * call: truncate toward zero, then step down where that rounded a
 * negative non-integer up. A float of magnitude >= 2^24 is already an
 * integer, so the truncation is exact there and the compare is false.
 * Out of range, the conversion's own result (INT64_MIN on x86-64, as
 * std::floor plus the cast gave) is left unadjusted, so nothing
 * overflows.
 */
inline std::int64_t
floorToInt64(float x)
{
    const auto t = static_cast<std::int64_t>(x);
    const bool down = (x < static_cast<float>(t)) &
                      (t != std::numeric_limits<std::int64_t>::min());
    return t - static_cast<std::int64_t>(down);
}

/**
 * Addressing of one mip level in dilated (Morton bit-spread) form, the
 * same layout as TextureDesc::texelAddr: the address of texel (x, y) is
 * base + ((mortonSpread(x >> unitShift) | mortonSpread(y >> unitShift)
 * << 1) << byteShift), where the addressing unit is a texel, or a 4x4
 * block for ETC2 (8 bytes each).
 */
struct LevelAddr
{
    Addr base;
    std::uint32_t side;
    float sideF;
    std::uint32_t unitShift;
    std::uint32_t byteShift;
    /** Dilated mask of the level's unit x coordinates (even bits). */
    std::uint64_t xMask;
};

LevelAddr
levelAddr(const TextureDesc &tex, std::uint32_t level)
{
    const std::uint32_t side = tex.levelSide(level);
    const std::uint32_t bs = blockSide(tex.format());
    const auto unit_shift =
        static_cast<std::uint32_t>(std::countr_zero(bs));
    const auto byte_shift = static_cast<std::uint32_t>(
        bs > 1 ? 3 : std::countr_zero(texelRate(tex.format()).bytesNum));
    return {tex.mipBase(level), side, static_cast<float>(side),
            unit_shift, byte_shift, mortonSpread((side - 1) >> unit_shift)};
}

/**
 * Dilated increment with wrap: add @p carry (0 or 1) to the coordinate
 * spread under @p mask. Setting every bit outside the mask makes the
 * carry ripple across them; the carry out of the top coordinate bit is
 * masked off, which is the repeat wrap.
 */
inline std::uint64_t
dilatedStep(std::uint64_t s, std::uint64_t mask, std::uint64_t carry)
{
    return ((s | ~mask) + carry) & mask;
}

/**
 * Append the texel of (u, v) under nearest filtering. Sides are powers
 * of two (asserted by TextureDesc), so the repeat wrap of the int64
 * texel coordinate is a mask of its low bits.
 */
inline void
addNearestTap(const LevelAddr &l, float u, float v, SampleFootprint &fp)
{
    const std::uint32_t wrap = l.side - 1;
    const auto x = static_cast<std::uint32_t>(floorToInt64(u * l.sideF)) &
                   wrap;
    const auto y = static_cast<std::uint32_t>(floorToInt64(v * l.sideF)) &
                   wrap;
    const std::uint64_t code = mortonSpread(x >> l.unitShift) |
                               (mortonSpread(y >> l.unitShift) << 1);
    fp.texels[fp.count++] = l.base + (code << l.byteShift);
}

/**
 * Append the 2x2 bilinear tap around (u, v), in (dy, dx) order. One
 * Morton spread per axis; the +1 neighbour is a dilated increment,
 * which also wraps. It moves to the next addressing unit only when the
 * base texel is the last of its unit (always, for uncompressed
 * formats).
 */
inline void
addBilinearTap(const LevelAddr &l, float u, float v, SampleFootprint &fp)
{
    // Texel-centre convention: the tap spans floor(x-0.5)..+1.
    const std::uint32_t wrap = l.side - 1;
    const auto x0 = static_cast<std::uint32_t>(
                        floorToInt64(u * l.sideF - 0.5f)) &
                    wrap;
    const auto y0 = static_cast<std::uint32_t>(
                        floorToInt64(v * l.sideF - 0.5f)) &
                    wrap;
    const std::uint32_t unit_mask = (1u << l.unitShift) - 1;
    const std::uint64_t sx0 = mortonSpread(x0 >> l.unitShift);
    const std::uint64_t sy0 = mortonSpread(y0 >> l.unitShift) << 1;
    const std::uint64_t sx1 =
        dilatedStep(sx0, l.xMask, ((x0 + 1) & unit_mask) == 0);
    const std::uint64_t sy1 =
        dilatedStep(sy0, l.xMask << 1, ((y0 + 1) & unit_mask) == 0);
    // At most two taps per sample, so four more texels always fit
    // (kMaxTexels).
    Addr *t = fp.texels.data() + fp.count;
    t[0] = l.base + ((sx0 | sy0) << l.byteShift);
    t[1] = l.base + ((sx1 | sy0) << l.byteShift);
    t[2] = l.base + ((sx0 | sy1) << l.byteShift);
    t[3] = l.base + ((sx1 | sy1) << l.byteShift);
    fp.count += 4;
}

/**
 * What one sample needs besides its uv: the filter, the addressing of
 * its level(s) and the anisotropic tap offset. A quad's fragments share
 * texture, filter and lod, so the quad resolves this once.
 */
struct SampleLevels
{
    FilterMode mode;
    LevelAddr l0;
    LevelAddr l1;  ///< second trilinear level
    float du;      ///< anisotropic tap offset along u
};

SampleLevels
sampleLevels(const TextureDesc &tex, FilterMode mode, float lod)
{
    const auto max_level = static_cast<float>(tex.numMipLevels() - 1);
    const float clamped = std::clamp(lod, 0.0f, max_level);
    const auto l0 = static_cast<std::uint32_t>(clamped);
    SampleLevels s{mode, levelAddr(tex, l0), {}, 0.0f};
    if (mode == FilterMode::Trilinear)
        s.l1 = levelAddr(tex, std::min(l0 + 1, tex.numMipLevels() - 1));
    // Two bilinear taps spread along the axis of anisotropy
    // (approximated as u); Heckbert-style elliptical footprint.
    if (mode == FilterMode::Aniso2x)
        s.du = 0.5f / s.l0.sideF;
    return s;
}

/** The footprint of one sample at (u, v); @p fp starts empty. */
inline void
addSample(const SampleLevels &s, float u, float v, SampleFootprint &fp)
{
    switch (s.mode) {
      case FilterMode::Nearest:
        addNearestTap(s.l0, u, v, fp);
        break;
      case FilterMode::Bilinear:
        addBilinearTap(s.l0, u, v, fp);
        break;
      case FilterMode::Trilinear:
        addBilinearTap(s.l0, u, v, fp);
        addBilinearTap(s.l1, u, v, fp);
        break;
      case FilterMode::Aniso2x:
        addBilinearTap(s.l0, u - s.du, v, fp);
        addBilinearTap(s.l0, u + s.du, v, fp);
        break;
    }
}

} // namespace

std::uint32_t
texelsPerSample(FilterMode mode)
{
    switch (mode) {
      case FilterMode::Nearest:   return 1;
      case FilterMode::Bilinear:  return 4;
      case FilterMode::Trilinear: return 8;
      case FilterMode::Aniso2x:   return 8;
    }
    panic("unknown FilterMode %d", static_cast<int>(mode));
}

SampleFootprint
sampleFootprint(const TextureDesc &tex, FilterMode mode, float u, float v,
                float lod)
{
    SampleFootprint fp;
    addSample(sampleLevels(tex, mode, lod), u, v, fp);
    return fp;
}

void
quadSampleFootprints(const TextureDesc &tex, FilterMode mode,
                     const Vec2f uv[4], float lod, SampleFootprint fp[4])
{
    const SampleLevels s = sampleLevels(tex, mode, lod);
    for (int k = 0; k < 4; ++k) {
        fp[k].count = 0;
        addSample(s, uv[k].x, uv[k].y, fp[k]);
    }
}

std::uint32_t
footprintLines(const SampleFootprint &fp, std::uint32_t line_bytes,
               std::array<Addr, SampleFootprint::kMaxTexels> &lines)
{
    std::uint32_t n = 0;
    for (std::uint32_t i = 0; i < fp.count; ++i) {
        const Addr line = fp.texels[i] & ~Addr{line_bytes - 1};
        bool seen = false;
        for (std::uint32_t j = 0; j < n; ++j) {
            if (lines[j] == line) {
                seen = true;
                break;
            }
        }
        if (!seen)
            lines[n++] = line;
    }
    return n;
}

} // namespace dtexl
