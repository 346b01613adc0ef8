#include "replay.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/geometry_phase.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/hierarchy.hh"
#include "raster/rasterizer.hh"
#include "sched/subtile_layout.hh"
#include "sfc/tile_order.hh"
#include "texture/sampler.hh"
#include "tiling/param_buffer.hh"
#include "tiling/poly_list_builder.hh"

using namespace dtexl;

namespace perfbench {

namespace {

/** Port widths of the simulator's hierarchy (mem/hierarchy.cc). */
constexpr std::uint32_t kL1Ports = 4;
constexpr std::uint32_t kL2Ports = 2;
constexpr int kTileOrderReps = 5;

/**
 * MemLevel shim that times every access it forwards. Interposed
 * between two levels, it splits the upper level's inclusive time into
 * self time and time spent below.
 */
class TimedLevel : public MemLevel
{
  public:
    TimedLevel(MemLevel &next, const SpanRecorder &clock)
        : next_(next), clock_(clock)
    {}

    Cycle
    access(Addr addr, AccessType type, Cycle now) override
    {
        const Nanos t0 = clock_.now();
        const Cycle done = next_.access(addr, type, now);
        ns += clock_.now() - t0;
        ++calls;
        return done;
    }

    Nanos ns = 0;
    std::uint64_t calls = 0;

  private:
    MemLevel &next_;
    const SpanRecorder &clock_;
};

std::string
format(const char *fmt, unsigned long long a, unsigned long long b)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), fmt, a, b);
    return buf;
}

} // namespace

ReplayResult
replayFrame(const GpuConfig &cfg, const Scene &scene,
            const FrameStats &frame, SpanRecorder &spans,
            const std::string &job)
{
    ReplayResult r;
    ScopedSpan whole(spans, "replay.frame", job);

    // --- Geometry: a fresh hierarchy + Parameter Buffer, exactly what
    // the simulator's frame loop builds before its raster phase. ---
    MemHierarchy geomMem(cfg);
    ParamBuffer pb(cfg.numTiles());
    GeometryPhase geometry(cfg, geomMem, pb);
    {
        ScopedSpan s(spans, "core.GeometryPhase::run", job);
        geometry.run(scene);
    }
    r.prims = pb.numPrimitives();
    if (r.prims != frame.primitivesBinned)
        r.mismatch = format("primitives: replay %llu, frame %llu",
                            r.prims, frame.primitivesBinned);

    // --- Tile order ---
    std::vector<TileId> order;
    std::vector<double> orderUs;
    for (int i = 0; i < kTileOrderReps; ++i) {
        ScopedSpan s(spans, "sfc.makeTileOrder", job);
        const Nanos t0 = spans.now();
        order = makeTileOrder(cfg.tileOrder, cfg.tilesX(), cfg.tilesY(),
                              cfg.simdMode);
        orderUs.push_back(static_cast<double>(spans.now() - t0) / 1e3);
    }
    std::sort(orderUs.begin(), orderUs.end());
    r.tileOrderUs = orderUs[orderUs.size() / 2];
    {
        std::vector<TileId> sorted = order;
        std::sort(sorted.begin(), sorted.end());
        for (std::size_t i = 0; i < sorted.size(); ++i)
            if (sorted[i] != i) {
                r.mismatch = "tile order is not a permutation of the grid";
                break;
            }
        if (sorted.size() != cfg.numTiles())
            r.mismatch = format("tile order covers %llu of %llu tiles",
                                sorted.size(), cfg.numTiles());
    }

    // --- Binning: overlapTiles over every primitive must reproduce
    // the Parameter Buffer's per-tile lists entry for entry. ---
    std::vector<std::vector<std::uint32_t>> bins(cfg.numTiles());
    {
        ScopedSpan s(spans, "tiling.overlapTiles", job);
        std::vector<TileId> hit;
        const Nanos t0 = spans.now();
        for (std::size_t i = 0; i < pb.numPrimitives(); ++i) {
            PolyListBuilder::overlapTiles(cfg, pb.primitive(i), hit);
            for (const TileId t : hit)
                bins[t].push_back(static_cast<std::uint32_t>(i));
            r.bins += hit.size();
        }
        r.overlapNs = static_cast<double>(spans.now() - t0);
    }
    for (std::uint32_t t = 0; t < cfg.numTiles() && r.mismatch.empty(); ++t)
        if (bins[t] != pb.tileList(t))
            r.mismatch = format("tile %llu bins differ (replay %llu "
                                "entries)",
                                t, bins[t].size());

    // --- Raster -> texture -> memory, tile by tile in traversal
    // order. Quads go to the pipeline their subtile maps to, so each
    // private L1 sees the grouping's texel stream. ---
    Dram dram(cfg.dram);
    TimedLevel dramShim(dram, spans);
    Cache l2("l2", cfg.l2Cache, kL2Ports, dramShim);
    TimedLevel l2Shim(l2, spans);
    std::vector<std::unique_ptr<Cache>> l1s;
    CacheConfig texCfg = cfg.textureCache;
    texCfg.prefetchNextLine |= cfg.texturePrefetch;
    for (std::uint32_t p = 0; p < cfg.numPipelines; ++p)
        l1s.push_back(std::make_unique<Cache>(
            "l1tex" + std::to_string(p), texCfg, kL1Ports, l2Shim));
    const SubtileLayout layout(cfg.grouping, cfg.quadsPerTileSide());
    const Rasterizer rasterizer(cfg);

    struct LineRef
    {
        std::uint32_t pipe;
        std::uint32_t repeats;  ///< texture instructions per fragment
        Addr line;
    };
    std::vector<Quad> quads;
    std::vector<LineRef> lines;
    std::array<Addr, SampleFootprint::kMaxTexels> fpLines{};
    Nanos l1Inclusive = 0;
    Cycle cycle = 0;
    for (const TileId tile : order) {
        const Coord2 tc = tileCoord(tile, cfg.tilesX());
        quads.clear();
        {
            ScopedSpan s(spans, "raster.rasterize", job);
            const Nanos t0 = spans.now();
            for (const std::uint32_t idx : pb.tileList(tile))
                rasterizer.rasterize(pb.primitive(idx), tc, quads);
            r.rasterNs += static_cast<double>(spans.now() - t0);
        }
        r.quads += quads.size();

        lines.clear();
        {
            ScopedSpan s(spans, "texture.footprints", job);
            const Nanos t0 = spans.now();
            for (const Quad &q : quads) {
                const ShaderDesc &shader = q.prim->shader;
                if (shader.texSamples == 0)
                    continue;
                ++r.texturedQuads;
                const TextureDesc &tex = scene.texture(q.prim->texture);
                const float lod = q.lod(tex.side());
                Vec2f uv[4];
                for (unsigned k = 0; k < 4; ++k)
                    uv[k] = q.frags[k].uv;
                SampleFootprint fps[4];
                quadSampleFootprints(tex, shader.filter, uv, lod, fps);
                const std::uint32_t pipe =
                    cfg.numPipelines == 1
                        ? 0
                        : layout.subtileOf(q.quadInTile) % cfg.numPipelines;
                for (unsigned k = 0; k < 4; ++k) {
                    if (!q.covered(k))
                        continue;
                    const std::uint32_t n = footprintLines(
                        fps[k], cfg.textureCache.lineBytes, fpLines);
                    r.texLines += n;
                    for (std::uint32_t l = 0; l < n; ++l)
                        lines.push_back(
                            LineRef{pipe, shader.texSamples, fpLines[l]});
                }
            }
            r.textureNs += static_cast<double>(spans.now() - t0);
        }

        {
            ScopedSpan s(spans, "mem.l1.access", job);
            const Nanos t0 = spans.now();
            for (const LineRef &ref : lines)
                for (std::uint32_t i = 0; i < ref.repeats; ++i)
                    l1s[ref.pipe]->access(ref.line, AccessType::Read,
                                          cycle++);
            l1Inclusive += spans.now() - t0;
        }
        for (const LineRef &ref : lines)
            r.l1Accesses += ref.repeats;
    }
    if (r.quads != frame.quadsRasterized && r.mismatch.empty())
        r.mismatch = format("quads: replay %llu, FrameStats %llu", r.quads,
                            frame.quadsRasterized);

    r.l2Accesses = l2Shim.calls;
    r.dramAccesses = dramShim.calls;
    r.l1SelfNs = static_cast<double>(l1Inclusive - l2Shim.ns);
    r.l2SelfNs = static_cast<double>(l2Shim.ns - dramShim.ns);
    r.dramNs = static_cast<double>(dramShim.ns);
    return r;
}

} // namespace perfbench
