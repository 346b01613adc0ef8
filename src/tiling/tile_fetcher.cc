#include "tiling/tile_fetcher.hh"

#include <algorithm>

#include "common/log.hh"

namespace dtexl {

TileFetcher::TileFetcher(const GpuConfig &cfg, MemHierarchy &mem,
                         const ParamBuffer &pb)
    : cfg(cfg), mem(mem), pb(pb),
      traversal(makeTileOrder(cfg.tileOrder, cfg.tilesX(), cfg.tilesY()))
{}

FetchedTile
TileFetcher::fetchNext(Cycle now)
{
    dtexl_assert(!done(), "fetchNext past the end of the frame");
    FetchedTile out;
    out.tile = traversal[cursor];
    out.coord = tileCoord(out.tile, cfg.tilesX());
    out.sequence = static_cast<std::uint32_t>(cursor);
    ++cursor;

    Cycle cursor_cycle = now;
    const auto &list = pb.tileList(out.tile);
    out.prims.reserve(list.size());
    for (std::size_t n = 0; n < list.size(); ++n) {
        // Read the list entry, then the attribute record it names.
        cursor_cycle = std::max(
            cursor_cycle + kDecodeCost,
            mem.tileAccess(pb.listEntryAddr(out.tile, n),
                           AccessType::Read, cursor_cycle));
        cursor_cycle = std::max(
            cursor_cycle,
            mem.tileAccess(pb.attrAddr(list[n]), AccessType::Read,
                           cursor_cycle));
        out.prims.push_back(&pb.primitive(list[n]));
    }
    out.readyAt = cursor_cycle;
    return out;
}

} // namespace dtexl
