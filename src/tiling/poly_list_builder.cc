#include "tiling/poly_list_builder.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "tiling/overlap.hh"

namespace dtexl {

namespace {

/** Tile-index bounding box of a primitive, clamped to the screen. */
struct TileBounds
{
    std::int32_t tx0, ty0, tx1, ty1;
};

TileBounds
tileBounds(const GpuConfig &cfg, const Primitive &prim)
{
    const float ts = static_cast<float>(cfg.tileSize);
    const auto tiles_x = static_cast<std::int32_t>(cfg.tilesX());
    const auto tiles_y = static_cast<std::int32_t>(cfg.tilesY());

    TileBounds b;
    b.tx0 = std::max<std::int32_t>(
        0, static_cast<std::int32_t>(std::floor(prim.minX() / ts)));
    b.ty0 = std::max<std::int32_t>(
        0, static_cast<std::int32_t>(std::floor(prim.minY() / ts)));
    b.tx1 = std::min<std::int32_t>(
        tiles_x - 1,
        static_cast<std::int32_t>(std::floor(prim.maxX() / ts)));
    b.ty1 = std::min<std::int32_t>(
        tiles_y - 1,
        static_cast<std::int32_t>(std::floor(prim.maxY() / ts)));
    return b;
}

} // namespace

void
PolyListBuilder::overlapTiles(const GpuConfig &cfg, const Primitive &prim,
                              std::vector<TileId> &out)
{
    out.clear();
    const float ts = static_cast<float>(cfg.tileSize);
    const TileBounds b = tileBounds(cfg, prim);
    for (std::int32_t ty = b.ty0; ty <= b.ty1; ++ty) {
        for (std::int32_t tx = b.tx0; tx <= b.tx1; ++tx) {
            const RectF rect{static_cast<float>(tx) * ts,
                             static_cast<float>(ty) * ts,
                             static_cast<float>(tx + 1) * ts,
                             static_cast<float>(ty + 1) * ts};
            if (!triangleOverlapsRect(prim.v[0].screen, prim.v[1].screen,
                                      prim.v[2].screen, rect)) {
                continue;
            }
            out.push_back(static_cast<TileId>(ty) * cfg.tilesX() +
                          static_cast<TileId>(tx));
        }
    }
}

Cycle
PolyListBuilder::binPrimitive(const Primitive &prim, Cycle now)
{
    const std::vector<TileId> &overlaps = overlapScratch;
    overlapTiles(cfg, prim, overlapScratch);
    const TileBounds b = tileBounds(cfg, prim);

    Cycle cursor = now;
    const std::size_t index = pb.addPrimitive(prim);

    // The attribute record is written once per primitive.
    cursor = std::max(cursor, mem.tileAccess(pb.attrAddr(index),
                                             AccessType::Write, cursor));

    // Hardware tests every candidate tile in the bounding box, so each
    // costs kBinTestCost whether or not it is in the overlap set.
    std::size_t next = 0;
    for (std::int32_t ty = b.ty0; ty <= b.ty1; ++ty) {
        for (std::int32_t tx = b.tx0; tx <= b.tx1; ++tx) {
            cursor += kBinTestCost;
            const TileId tile =
                static_cast<TileId>(ty) * cfg.tilesX() +
                static_cast<TileId>(tx);
            if (next >= overlaps.size() || overlaps[next] != tile)
                continue;
            ++next;
            const std::size_t n = pb.tileList(tile).size();
            pb.appendToTile(tile, index);
            cursor = std::max(
                cursor, mem.tileAccess(pb.listEntryAddr(tile, n),
                                       AccessType::Write, cursor));
            ++entriesWritten;
        }
    }
    dtexl_assert(next == overlaps.size(),
                 "overlap set does not match primitive bounds");
    return cursor;
}

} // namespace dtexl
