/**
 * @file
 * Texture sampling footprints. The fragment stage does not need texel
 * values — only which memory a sample touches — so a sample resolves to
 * the set of texel addresses required by the filter (Heckbert-style
 * footprints: 1 for nearest, 4 for bilinear, 8 for trilinear, 8 for the
 * 2-tap anisotropic approximation). The paper (Section II-B) notes that
 * wider filters increase cross-quad reuse; the filter mix is a workload
 * parameter.
 */

#ifndef DTEXL_TEXTURE_SAMPLER_HH
#define DTEXL_TEXTURE_SAMPLER_HH

#include <array>
#include <cstdint>

#include "geom/vec.hh"
#include "texture/texture.hh"

namespace dtexl {

/** Texture filter kind (Table/Section II-B: bilinear..anisotropic). */
enum class FilterMode : std::uint8_t
{
    Nearest,
    Bilinear,
    Trilinear,
    Aniso2x,
};

/** Texel addresses touched by one fragment's sample. */
struct SampleFootprint
{
    /** Room for every filter's footprint (at most two 2x2 taps). */
    static constexpr std::uint32_t kMaxTexels = 16;
    std::array<Addr, kMaxTexels> texels;
    std::uint32_t count = 0;
};

/** Number of texel reads a filter performs per fragment. */
std::uint32_t texelsPerSample(FilterMode mode);

/**
 * Resolve a sample to its texel footprint.
 *
 * @param tex  Sampled texture.
 * @param mode Filter.
 * @param u,v  Normalized coordinates; wrapped (repeat addressing).
 * @param lod  Level of detail; fractional part drives trilinear.
 */
SampleFootprint sampleFootprint(const TextureDesc &tex, FilterMode mode,
                                float u, float v, float lod);

/**
 * sampleFootprint for the four fragments of one quad, which share
 * texture, filter and lod: the level addressing is resolved once per
 * quad. fp[k] is overwritten with sampleFootprint(tex, mode, uv[k].x,
 * uv[k].y, lod) — texels in the same order — for every fragment,
 * covered or not; the caller applies its coverage mask to the results.
 */
void quadSampleFootprints(const TextureDesc &tex, FilterMode mode,
                          const Vec2f uv[4], float lod,
                          SampleFootprint fp[4]);

/**
 * Deduplicate a footprint to cache-line granularity.
 *
 * @param fp         Texel footprint.
 * @param line_bytes Cache line size.
 * @param lines      Output array (size >= kMaxTexels).
 * @return Number of distinct lines.
 */
std::uint32_t footprintLines(const SampleFootprint &fp,
                             std::uint32_t line_bytes,
                             std::array<Addr, SampleFootprint::kMaxTexels>
                                 &lines);

} // namespace dtexl

#endif // DTEXL_TEXTURE_SAMPLER_HH
