/**
 * @file
 * The Raster Pipeline (Figures 3/4/10): Tile Fetcher -> Rasterizer ->
 * Early-Z -> Fragment Stage -> Blending -> Color-Buffer flush, with
 * four parallel post-raster pipelines.
 *
 * Barrier semantics are the paper's central mechanism:
 *  - Coupled (baseline, Figure 4): Early-Z, Fragment and Blend each
 *    process one *tile* at a time — a stage admits quads of tile N+1
 *    only after every pipeline finished tile N in that stage, and the
 *    Color Buffer flushes whole tiles.
 *  - Decoupled (DTexL, Figure 10): each of the four parallel units
 *    advances to its next *subtile* independently, and each Color
 *    Buffer bank flushes on its own (it keeps its own tile ID).
 */

#ifndef DTEXL_CORE_RASTER_PIPELINE_HH
#define DTEXL_CORE_RASTER_PIPELINE_HH

#include <array>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/config.hh"
#include "core/frame_stats.hh"
#include "core/shader_core.hh"
#include "mem/hierarchy.hh"
#include "raster/framebuffer.hh"
#include "raster/rasterizer.hh"
#include "sched/subtile_assigner.hh"
#include "sched/subtile_layout.hh"
#include "telemetry/telemetry.hh"
#include "tiling/param_buffer.hh"
#include "tiling/tile_fetcher.hh"

namespace dtexl {

/**
 * Cross-frame flush signatures for transaction elimination: CRC of the
 * last content each (tile, subtile) flushed. Owned by the simulator so
 * it survives the per-frame pipeline reset.
 */
struct FlushSignatures
{
    std::unordered_map<std::uint64_t, std::uint64_t> crc;
};

/** Executes the raster phase of one frame. */
class RasterPipeline
{
  public:
    /**
     * @param signatures Cross-frame flush CRCs for transaction
     *                   elimination; may be null when the feature is
     *                   disabled.
     */
    RasterPipeline(const GpuConfig &cfg, MemHierarchy &mem,
                   const Scene &scene, FrameBuffer &fb,
                   FlushSignatures *signatures = nullptr);

    /**
     * Render every tile of the frame.
     *
     * @param pb Parameter Buffer built by the Tiling Engine.
     * @param fs Frame statistics, filled in.
     * @return Cycle the last flush retires (raster-phase length).
     */
    Cycle run(const ParamBuffer &pb, FrameStats &fs);

    /**
     * Reinitialize all per-frame state in place — PipeState timing
     * fields, inter-stage FIFOs, depth/color banks, shader cores,
     * subtile-assigner traversal state, per-frame counters — so a
     * persistent pipeline starts its next frame bit-identically to a
     * freshly constructed one (the structural state built by the
     * constructor, slot maps and bank sizing, depends only on the
     * configuration and is kept).
     */
    void beginFrame();

    /**
     * Rebind the scene for the next frame (animation). The texture
     * table layout must match; see GpuSimulator::setScene().
     */
    void setScene(const Scene &next);

    ShaderCore &core(CoreId p) { return *cores[p]; }
    const StatSet &stats() const { return stats_; }

    /**
     * Attach (or detach, with nullptr) the telemetry sink. run() then
     * attributes every non-productive cycle of the rasterizer, Early-Z,
     * Fragment and Blend units at the points where it makes the timing
     * decisions; with level 2 it also records one row of live counters
     * per tile as the tile completes.
     */
    void setTelemetry(Telemetry *t) { tel = t; }

  private:
    /** Timing/storage state of one parallel pipeline (bank + SC). */
    struct PipeState
    {
        Cycle ezFinish = 0;
        Cycle ezBusyUntil = 0;
        Cycle fsFinish = 0;
        Cycle blendFinish = 0;
        Cycle blendBusyUntil = 0;
        Cycle flushDone = 0;
        /** Raster->EZ FIFO: consume times of resident quads. */
        std::deque<Cycle> fifo;
        /** Depth per subtile slot (4 fragments each). */
        std::vector<float> depth;
        /** Color per subtile pixel (4 per slot). */
        std::vector<PixelColor> color;
        /** Surviving quads of the current tile (arena indices), EZ order. */
        std::vector<std::uint32_t> batch;
        std::vector<Cycle> arrivals;
    };

    std::uint32_t numPipes() const { return cfg.numPipelines; }
    bool singlePipe() const { return cfg.numPipelines == 1; }

    /** Pipeline that owns a quad this tile. */
    std::uint32_t pipeOf(const QuadStream &qs, std::uint32_t qi,
                         const std::array<CoreId, kNumSubtiles> &perm)
        const;
    /** Z/Color slot of a quad within its pipeline's bank. */
    std::uint32_t slotOf(const QuadStream &qs, std::uint32_t qi) const;

    /** Early-Z depth test; prunes coverage, returns survival. */
    bool earlyZTest(PipeState &ps, const QuadStream &qs,
                    std::uint32_t qi, std::uint8_t &coverage,
                    bool late_z) const;
    /** Blend a committed quad into the pipeline's color bank. */
    void blendQuad(PipeState &ps, const QuadStream &qs, std::uint32_t qi,
                   std::uint8_t coverage, bool late_z);
    /**
     * Flush a set of subtile slots to the framebuffer through the Tile
     * Cache; returns the completion cycle. With transaction
     * elimination, an unchanged bank (same CRC as the last frame's
     * flush of this tile/subtile) skips the timed writes.
     *
     * @param subtile Subtile index the bank held this tile (CRC key).
     */
    Cycle flushBank(PipeState &ps, Coord2 tile_coord,
                    std::uint8_t subtile,
                    const std::vector<Coord2> &slot_to_quad, Cycle start,
                    FrameStats &fs);

    /**
     * Watchdog crash-report dump: per-pipe stage gates and FIFO/credit
     * state, in-flight miss state of every memory level, and per-unit
     * telemetry occupancy when telemetry is attached.
     */
    std::string pipelineDump(std::uint32_t tile_sequence) const;

    const GpuConfig &cfg;
    MemHierarchy &mem;
    const Scene *scene;
    FrameBuffer &fb;
    FlushSignatures *signatures;

    SubtileLayout layout;
    SubtileAssigner assigner;
    Rasterizer rasterizer;
    std::array<std::unique_ptr<ShaderCore>, kNumSubtiles> cores;
    std::array<PipeState, kNumSubtiles> pipes;

    /** slot -> quad coords, per subtile (single-pipe: whole tile). */
    std::array<std::vector<Coord2>, kNumSubtiles> slotToQuad;

    /**
     * Pooled per-frame scratch (value-neutral: contents are fully
     * rewritten per tile, so reusing capacity cannot change results).
     * quadArena holds the current tile's rasterized quads in SoA
     * layout (each pass touches only the field arrays it needs);
     * beginFrame() resets length, keeping capacity, so steady-state
     * frames rasterize without heap traffic.
     */
    QuadStream quadArena;
    /** flushBank() scratch: one line address per pixel. */
    std::vector<Addr> flushAddrs;

    StatSet stats_{"raster_pipeline"};

    /**
     * Cached references into stats_ for the per-quad counters (see
     * Cache::HotStats); re-bound by beginFrame() because the per-frame
     * stats_.clear() erases the keys.
     */
    struct HotStats
    {
        std::uint64_t *hizCulled = nullptr;
        std::uint64_t *ezTests = nullptr;
        std::uint64_t *blendOps = nullptr;
        std::uint64_t *flushEliminated = nullptr;
        std::uint64_t *flushPartialLines = nullptr;
        std::uint64_t *flushLineWrites = nullptr;
    };
    HotStats hot;
    /** Re-bind the cached stat references (stats_ clears per frame). */
    void bindStats();

    /** Telemetry sink; null (and inert) when telemetry is off. */
    Telemetry *tel = nullptr;
};

} // namespace dtexl

#endif // DTEXL_CORE_RASTER_PIPELINE_HH
