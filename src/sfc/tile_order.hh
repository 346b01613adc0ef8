/**
 * @file
 * Tile traversal orders for the Tile Fetcher (paper Figure 7).
 *
 * A traversal is a permutation of the WxH tile grid. Z-order and the
 * rectangle-adapted Hilbert order are locality-preserving; Scanline and
 * S-order are the conventional raster traversals.
 */

#ifndef DTEXL_SFC_TILE_ORDER_HH
#define DTEXL_SFC_TILE_ORDER_HH

#include <cstdint>
#include <vector>

#include "common/policies.hh"
#include "common/types.hh"

namespace dtexl {

/**
 * Build the traversal for the given order over a tilesX x tilesY grid.
 * The unnamed trailing parameter is ignored; it exists only for the
 * benchmark driver's call (see InertSimdMode).
 *
 * @return Tile IDs (id = y * tilesX + x) in processing order; every tile
 *         appears exactly once.
 */
std::vector<TileId> makeTileOrder(TileOrder order, std::uint32_t tiles_x,
                                  std::uint32_t tiles_y,
                                  InertSimdMode = {});

/** Grid coordinates of a tile ID. */
inline Coord2
tileCoord(TileId id, std::uint32_t tiles_x)
{
    return Coord2{static_cast<std::int32_t>(id % tiles_x),
                  static_cast<std::int32_t>(id / tiles_x)};
}

/**
 * Locality figure of merit: the fraction of consecutive traversal steps
 * that move to an edge-adjacent tile. 1.0 means the traversal never
 * jumps; higher is better for cross-tile texture reuse.
 */
double adjacencyFraction(const std::vector<TileId> &order,
                         std::uint32_t tiles_x);

/**
 * Side length of the square sub-frame the paper's rectangular Hilbert
 * adaptation uses (Section III-C: "a square sub-frame with 8x8 tiles").
 */
inline constexpr std::uint32_t kHilbertSubframeSide = 8;

} // namespace dtexl

#endif // DTEXL_SFC_TILE_ORDER_HH
