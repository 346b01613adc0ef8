/**
 * @file
 * Structure-of-arrays quad storage for the raster hot path.
 *
 * The pipeline touches different quad fields in different passes —
 * scheduling reads only tile coordinates, Early-Z only depths, the
 * shader cores only uv — so the AoS Quad (~80 B) dragged every field
 * through the cache on each pass. QuadStream keeps each field in its
 * own flat array (fragment attributes 4-wide per quad) and is reused
 * as a per-frame arena: clear() keeps capacity, so steady-state tiles
 * append without heap traffic.
 *
 * The AoS Quad struct (quad.hh) remains the interchange type for tests
 * and adapters; toQuad()/push(Quad) convert losslessly.
 */

#ifndef DTEXL_RASTER_QUAD_STREAM_HH
#define DTEXL_RASTER_QUAD_STREAM_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "raster/quad.hh"

namespace dtexl {

/** SoA stream of quads, appended in raster order. */
class QuadStream
{
  public:
    std::size_t size() const { return prims.size(); }
    bool empty() const { return prims.empty(); }

    /** Drop all quads, keeping capacity (arena reset). */
    void
    clear()
    {
        prims.clear();
        coords.clear();
        cover.clear();
        subtiles.clear();
        slots.clear();
        fragDepth.clear();
        fragUv.clear();
    }

    /** Append one quad; fragments row-major within the 2x2 block. */
    std::uint32_t
    push(const Primitive *prim, Coord2 quad_in_tile,
         std::uint8_t coverage, const std::array<Fragment, 4> &frags)
    {
        const auto i = static_cast<std::uint32_t>(size());
        prims.push_back(prim);
        coords.push_back(quad_in_tile);
        cover.push_back(coverage);
        subtiles.push_back(0);
        slots.push_back(0);
        for (unsigned k = 0; k < 4; ++k) {
            fragDepth.push_back(frags[k].depth);
            fragUv.push_back(frags[k].uv);
        }
        return i;
    }

    /** Append an AoS quad (adapter). */
    std::uint32_t
    push(const Quad &q)
    {
        return push(q.prim, q.quadInTile, q.coverage, q.frags);
    }

    const Primitive *prim(std::uint32_t i) const { return prims[i]; }
    Coord2 quadInTile(std::uint32_t i) const { return coords[i]; }

    std::uint8_t coverage(std::uint32_t i) const { return cover[i]; }
    void setCoverage(std::uint32_t i, std::uint8_t c) { cover[i] = c; }
    bool
    covered(std::uint32_t i, unsigned k) const
    {
        return cover[i] & (1u << k);
    }
    std::uint32_t
    coveredCount(std::uint32_t i) const
    {
        return static_cast<std::uint32_t>(
            std::popcount(std::uint32_t{cover[i]}));
    }

    std::uint8_t subtile(std::uint32_t i) const { return subtiles[i]; }
    void setSubtile(std::uint32_t i, std::uint8_t s) { subtiles[i] = s; }
    std::uint16_t slot(std::uint32_t i) const { return slots[i]; }
    void setSlot(std::uint32_t i, std::uint16_t s) { slots[i] = s; }

    float
    depth(std::uint32_t i, unsigned k) const
    {
        return fragDepth[std::size_t{i} * 4 + k];
    }
    Vec2f
    uv(std::uint32_t i, unsigned k) const
    {
        return fragUv[std::size_t{i} * 4 + k];
    }

    /**
     * Sampling level of detail from the quad's uv derivatives; the
     * same expression as Quad::lod, so AoS and SoA consumers compute
     * bit-identical levels.
     */
    float
    lod(std::uint32_t i, std::uint32_t texture_side) const
    {
        const Vec2f *f = &fragUv[std::size_t{i} * 4];
        const float dudx = f[1].x - f[0].x;
        const float dvdx = f[1].y - f[0].y;
        const float dudy = f[2].x - f[0].x;
        const float dvdy = f[2].y - f[0].y;
        const float s = static_cast<float>(texture_side);
        const float fx = std::sqrt(dudx * dudx + dvdx * dvdx) * s;
        const float fy = std::sqrt(dudy * dudy + dvdy * dvdy) * s;
        const float rho = std::max(fx, fy);
        return rho > 1.0f ? std::log2(rho) : 0.0f;
    }

    /** Materialize an AoS quad (tests, trace dumps). */
    Quad
    toQuad(std::uint32_t i) const
    {
        Quad q;
        q.prim = prims[i];
        q.quadInTile = coords[i];
        q.coverage = cover[i];
        q.subtile = subtiles[i];
        q.slot = slots[i];
        for (unsigned k = 0; k < 4; ++k) {
            q.frags[k].depth = depth(i, k);
            q.frags[k].uv = uv(i, k);
        }
        return q;
    }

  private:
    std::vector<const Primitive *> prims;
    std::vector<Coord2> coords;
    std::vector<std::uint8_t> cover;
    std::vector<std::uint8_t> subtiles;
    std::vector<std::uint16_t> slots;
    std::vector<float> fragDepth;  ///< 4 per quad, row-major 2x2
    std::vector<Vec2f> fragUv;     ///< 4 per quad, row-major 2x2
};

} // namespace dtexl

#endif // DTEXL_RASTER_QUAD_STREAM_HH
