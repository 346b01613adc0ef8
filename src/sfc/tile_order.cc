#include "sfc/tile_order.hh"

#include <algorithm>

#include "common/log.hh"
#include "sfc/hilbert.hh"
#include "sfc/morton.hh"

namespace dtexl {

namespace {

std::vector<TileId>
scanlineOrder(std::uint32_t tx, std::uint32_t ty)
{
    std::vector<TileId> out;
    out.reserve(std::size_t{tx} * ty);
    for (std::uint32_t y = 0; y < ty; ++y)
        for (std::uint32_t x = 0; x < tx; ++x)
            out.push_back(y * tx + x);
    return out;
}

std::vector<TileId>
sOrder(std::uint32_t tx, std::uint32_t ty)
{
    std::vector<TileId> out;
    out.reserve(std::size_t{tx} * ty);
    for (std::uint32_t y = 0; y < ty; ++y) {
        if (y % 2 == 0) {
            for (std::uint32_t x = 0; x < tx; ++x)
                out.push_back(y * tx + x);
        } else {
            for (std::uint32_t x = tx; x-- > 0;)
                out.push_back(y * tx + x);
        }
    }
    return out;
}

/**
 * Z-order generalized to rectangles: enumerate Morton codes of the
 * enclosing power-of-two square and drop out-of-grid cells. This is the
 * conventional way GPUs walk non-square grids in Morton order.
 */
std::vector<TileId>
zOrder(std::uint32_t tx, std::uint32_t ty)
{
    std::uint32_t side = 1;
    while (side < tx || side < ty)
        side *= 2;
    std::vector<TileId> out;
    out.reserve(std::size_t{tx} * ty);
    const std::uint64_t total = std::uint64_t{side} * side;
    for (std::uint64_t code = 0; code < total; ++code) {
        std::uint32_t x = mortonDecodeX(code);
        std::uint32_t y = mortonDecodeY(code);
        if (x < tx && y < ty)
            out.push_back(y * tx + x);
    }
    return out;
}

/**
 * The paper's rectangular Hilbert adaptation: Hilbert order inside 8x8
 * tile sub-frames, sub-frames visited boustrophedonically ("in the shape
 * of an S"). Cells outside the grid (partial edge sub-frames) are
 * skipped. Odd sub-frame rows also mirror the intra-sub-frame curve
 * horizontally so the traversal stays near the sub-frame seam.
 */
std::vector<TileId>
rectHilbertOrder(std::uint32_t tx, std::uint32_t ty)
{
    const std::uint32_t side = kHilbertSubframeSide;
    const std::uint32_t sfx = divCeil(tx, side);
    const std::uint32_t sfy = divCeil(ty, side);
    const std::uint32_t total = side * side;
    // Resolve the intra-sub-frame curve once: every sub-frame replays
    // the same local (lx, ly) sequence, so the per-sub-frame work
    // reduces to the offset/mirror/filter tail.
    std::vector<std::uint32_t> lxs(total), lys(total);
    for (std::uint32_t d = 0; d < total; ++d)
        hilbertD2XY(side, d, lxs[d], lys[d]);
    std::vector<TileId> out;
    out.reserve(std::size_t{tx} * ty);
    for (std::uint32_t sy = 0; sy < sfy; ++sy) {
        bool reverse_row = (sy % 2 == 1);
        for (std::uint32_t i = 0; i < sfx; ++i) {
            std::uint32_t sx = reverse_row ? sfx - 1 - i : i;
            for (std::uint32_t d = 0; d < total; ++d) {
                std::uint32_t lx = lxs[d];
                std::uint32_t ly = lys[d];
                if (reverse_row)
                    lx = side - 1 - lx;
                std::uint32_t x = sx * side + lx;
                std::uint32_t y = sy * side + ly;
                if (x < tx && y < ty)
                    out.push_back(y * tx + x);
            }
        }
    }
    return out;
}

} // namespace

std::vector<TileId>
makeTileOrder(TileOrder order, std::uint32_t tiles_x, std::uint32_t tiles_y,
              InertSimdMode)
{
    dtexl_assert(tiles_x > 0 && tiles_y > 0);
    switch (order) {
      case TileOrder::Scanline:
        return scanlineOrder(tiles_x, tiles_y);
      case TileOrder::SOrder:
        return sOrder(tiles_x, tiles_y);
      case TileOrder::ZOrder:
        return zOrder(tiles_x, tiles_y);
      case TileOrder::RectHilbert:
        return rectHilbertOrder(tiles_x, tiles_y);
    }
    panic("unknown TileOrder %d", static_cast<int>(order));
}

double
adjacencyFraction(const std::vector<TileId> &order, std::uint32_t tiles_x)
{
    if (order.size() < 2)
        return 1.0;
    std::size_t adjacent = 0;
    for (std::size_t i = 1; i < order.size(); ++i) {
        if (isEdgeAdjacent(tileCoord(order[i - 1], tiles_x),
                           tileCoord(order[i], tiles_x))) {
            ++adjacent;
        }
    }
    return static_cast<double>(adjacent) /
           static_cast<double>(order.size() - 1);
}

} // namespace dtexl
