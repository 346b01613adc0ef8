/**
 * @file
 * The Polygon List Builder (Figure 3): bins each assembled primitive
 * into the per-tile lists of the Parameter Buffer, writing attribute
 * records and list entries through the Tile Cache.
 *
 * overlapTiles() is the pure half (which tiles a primitive lands in —
 * geometry only); binPrimitive() adds the timed Parameter Buffer
 * writes and per-candidate test cost.
 */

#ifndef DTEXL_TILING_POLY_LIST_BUILDER_HH
#define DTEXL_TILING_POLY_LIST_BUILDER_HH

#include <vector>

#include "common/config.hh"
#include "mem/hierarchy.hh"
#include "tiling/param_buffer.hh"

namespace dtexl {

/** Timed primitive binning. */
class PolyListBuilder
{
  public:
    PolyListBuilder(const GpuConfig &cfg, MemHierarchy &mem,
                    ParamBuffer &pb)
        : cfg(cfg), mem(mem), pb(pb)
    {}

    /**
     * Bin one primitive: exact-overlap test against every tile in its
     * bounding box, attribute record written once, a list entry per
     * overlapped tile.
     *
     * @param prim Assembled primitive (in submission order).
     * @param now  Cycle binning may start.
     * @return Cycle the last write retires.
     */
    Cycle binPrimitive(const Primitive &prim, Cycle now);

    /**
     * The tiles @p prim overlaps, in bounding-box scan order (the
     * order binPrimitive() appends them). Pure: no Parameter Buffer or
     * memory side effects.
     */
    static void overlapTiles(const GpuConfig &cfg, const Primitive &prim,
                             std::vector<TileId> &out);

    std::uint64_t tileEntriesWritten() const { return entriesWritten; }

  private:
    /** Fixed cost of the overlap/setup logic per candidate tile. */
    static constexpr Cycle kBinTestCost = 1;

    const GpuConfig &cfg;
    MemHierarchy &mem;
    ParamBuffer &pb;
    std::uint64_t entriesWritten = 0;
    /** binPrimitive() scratch (capacity persists across primitives). */
    std::vector<TileId> overlapScratch;
};

} // namespace dtexl

#endif // DTEXL_TILING_POLY_LIST_BUILDER_HH
