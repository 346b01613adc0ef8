/**
 * @file
 * The full simulated GPU: Geometry Pipeline + Tiling Engine + Raster
 * Pipeline over the memory hierarchy of Figure 5. The public entry
 * point of the library: construct with a configuration and a scene,
 * call renderFrame().
 *
 * The frame loop is phase-structured: renderFrame() runs the
 * GeometryPhase, then the RasterPipeline, each in its own cycle-0
 * epoch, and reuses all heavy pipeline state in place across frames
 * (RasterPipeline::beginFrame()). Each phase reports sim-cycle and
 * wall-time counters into an optional StatRegistry and emits
 * Chrome-trace spans when tracing is enabled.
 */

#ifndef DTEXL_CORE_GPU_HH
#define DTEXL_CORE_GPU_HH

#include <memory>
#include <string>

#include "common/config.hh"
#include "common/stat_registry.hh"
#include "core/frame_stats.hh"
#include "core/geometry_phase.hh"
#include "core/raster_pipeline.hh"
#include "geom/scene.hh"
#include "mem/hierarchy.hh"
#include "raster/framebuffer.hh"
#include "telemetry/telemetry.hh"
#include "tiling/param_buffer.hh"

namespace dtexl {

/** Cycle-level TBR GPU simulator. */
class GpuSimulator
{
  public:
    /**
     * @param cfg   Machine + scheduling configuration (validated).
     * @param scene Frame input; must outlive the simulator.
     */
    GpuSimulator(const GpuConfig &cfg, const Scene &scene);

    /**
     * Render one frame and return its statistics. Successive calls
     * render successive frames with warm caches, which is how the
     * evaluation measures steady-state behaviour.
     */
    FrameStats renderFrame();

    /**
     * Swap the scene for the next frame (animation). The new scene's
     * texture table must describe the same texture memory (same ids,
     * addresses and sizes) or warm cache contents would be stale.
     */
    void setScene(const Scene &next);

    /**
     * Report per-phase counters into @p registry under
     * "<prefix>.geometry" / "<prefix>.raster" (sim cycles, wall
     * microseconds, frames). Pass nullptr to stop reporting. The
     * registry must outlive the simulator; counters are written by
     * whichever thread calls renderFrame().
     */
    void setStatRegistry(StatRegistry *registry,
                         const std::string &prefix = "engine");

    /**
     * Serialize all cross-frame warm state at a frame boundary: cache
     * tag arrays, transaction-elimination flush signatures (sorted for
     * a canonical byte stream), and cumulative telemetry. Everything
     * else is reset per frame, so restoring exactly this state resumes
     * a run bit-identically (tests/test_checkpoint.cc).
     */
    void saveWarmState(ByteWriter &w) const;

    /**
     * Inverse of saveWarmState(); throws SimError{Io} on a payload
     * that disagrees with this simulator's configuration. On throw the
     * simulator may hold partial state — call resetWarmState() before
     * using it again.
     */
    void restoreWarmState(ByteReader &r);

    /** Back to cold-start state (failed-restore recovery). */
    void resetWarmState();

    const GpuConfig &config() const { return cfg; }
    MemHierarchy &memory() { return *mem; }
    const MemHierarchy &memory() const { return *mem; }
    const FrameBuffer &framebuffer() const { return *fb; }
    RasterPipeline &rasterPipeline() { return *pipeline; }
    /** The simulator's telemetry sink (valid at any knob level). */
    const Telemetry &telemetry() const { return *tel; }

  private:
    GpuConfig cfg;
    const Scene *scene;
    std::unique_ptr<MemHierarchy> mem;
    std::unique_ptr<FrameBuffer> fb;
    std::unique_ptr<ParamBuffer> pb;
    std::unique_ptr<GeometryPhase> geom;
    std::unique_ptr<RasterPipeline> pipeline;
    /** Cross-frame flush CRCs for transaction elimination. */
    FlushSignatures flushSignatures;
    /** Stall attribution + tile rows (inert object when level is 0). */
    std::unique_ptr<Telemetry> tel;

    StatRegistry *registry = nullptr;
    std::string statPrefix = "engine";
    /**
     * Cached registry nodes for the per-frame phase counters, bound
     * once in setStatRegistry() (node references are stable), so
     * renderFrame() skips the mutex-guarded path lookup per frame.
     */
    StatSet *geomStats = nullptr;
    StatSet *rasterStats = nullptr;
};

} // namespace dtexl

#endif // DTEXL_CORE_GPU_HH
