/**
 * @file
 * The Geometry Phase of one frame (Figure 3, left half): Vertex Stage
 * -> Primitive Assembly -> Polygon List Builder (Tiling Engine),
 * extracted from the simulator's frame loop into its own unit so the
 * phase-structured engine can time and trace it independently of the
 * raster phase.
 */

#ifndef DTEXL_CORE_GEOMETRY_PHASE_HH
#define DTEXL_CORE_GEOMETRY_PHASE_HH

#include <vector>

#include "common/config.hh"
#include "geom/prim_assembler.hh"
#include "geom/scene.hh"
#include "geom/vertex_stage.hh"
#include "mem/hierarchy.hh"
#include "tiling/param_buffer.hh"
#include "tiling/poly_list_builder.hh"

namespace dtexl {

/**
 * Runs the geometry pipeline of one frame: transforms every draw's
 * vertices, assembles primitives, and bins them into the Parameter
 * Buffer. Persistent across frames; scratch buffers are reused, and
 * the timed stage objects are rebuilt per run() (they are cheap
 * cursor/counter state — the expensive per-frame state lives in the
 * Parameter Buffer and memory hierarchy, which persist).
 */
class GeometryPhase
{
  public:
    GeometryPhase(const GpuConfig &cfg, MemHierarchy &mem,
                  ParamBuffer &pb)
        : cfg(cfg), mem(mem), pb(pb)
    {}

    /** Outputs the frame loop folds into FrameStats. */
    struct Result
    {
        Cycle cycles = 0;                 ///< phase length
        std::uint64_t vertices = 0;       ///< vertex-program runs
        std::uint64_t primitives = 0;     ///< primitives binned
    };

    /**
     * Process every draw of @p scene; clears and refills the Parameter
     * Buffer. Timing starts at cycle 0 (the phase owns its epoch; see
     * GpuSimulator::renderFrame()).
     */
    Result run(const Scene &scene);

  private:
    const GpuConfig &cfg;
    MemHierarchy &mem;
    ParamBuffer &pb;

    /** Scratch reused across frames (capacity persists). */
    std::vector<TransformedVertex> transformed;
    std::vector<Primitive> prims;
};

} // namespace dtexl

#endif // DTEXL_CORE_GEOMETRY_PHASE_HH
