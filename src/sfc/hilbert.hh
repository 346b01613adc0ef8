/**
 * @file
 * Hilbert curve index <-> coordinate conversion on a 2^k x 2^k grid.
 *
 * The paper (Section III-C) adapts Hilbert order to rectangular screens
 * by applying it to 8x8-tile square sub-frames; this header provides the
 * square-grid primitive, tile_order.cc builds the rectangular adaptation.
 */

#ifndef DTEXL_SFC_HILBERT_HH
#define DTEXL_SFC_HILBERT_HH

#include <cstdint>

namespace dtexl {

/**
 * Convert a distance along the Hilbert curve to grid coordinates.
 *
 * @param side Grid side length; must be a power of two.
 * @param d    Distance along the curve, in [0, side*side).
 * @param x    Output column.
 * @param y    Output row.
 */
void hilbertD2XY(std::uint32_t side, std::uint64_t d,
                 std::uint32_t &x, std::uint32_t &y);

/**
 * Convert grid coordinates to the distance along the Hilbert curve.
 *
 * @param side Grid side length; must be a power of two.
 */
std::uint64_t hilbertXY2D(std::uint32_t side,
                          std::uint32_t x, std::uint32_t y);

} // namespace dtexl

#endif // DTEXL_SFC_HILBERT_HH
