/**
 * @file
 * The Vertex Stage of the Geometry Pipeline (Figure 3): fetches vertex
 * attributes through the L1 Vertex Cache, applies the draw's transform,
 * and maps clip space to screen space.
 */

#ifndef DTEXL_GEOM_VERTEX_STAGE_HH
#define DTEXL_GEOM_VERTEX_STAGE_HH

#include <vector>

#include "common/config.hh"
#include "geom/vertex.hh"
#include "mem/hierarchy.hh"

namespace dtexl {

/**
 * Timed vertex processing. One instance per GPU; it advances a cycle
 * cursor as it consumes draws, so the geometry phase contributes its
 * real cost to the frame time.
 *
 * The stage walks the index stream, as hardware does, with a FIFO
 * post-transform cache: an index hit reuses the transformed vertex, a
 * miss fetches the attributes through the L1 Vertex Cache and runs the
 * vertex program.
 */
class VertexStage
{
  public:
    VertexStage(const GpuConfig &cfg, MemHierarchy &mem)
        : cfg(cfg), mem(mem)
    {}

    /**
     * Process the index stream of a draw.
     *
     * @param draw The draw command.
     * @param now  Cycle at which processing may start.
     * @param out  Transformed vertices, indexed like draw.vertices.
     * @return Cycle at which the last vertex is ready.
     */
    Cycle processDraw(const DrawCommand &draw, Cycle now,
                      std::vector<TransformedVertex> &out);

    /** Vertex-program invocations (post-transform-cache misses). */
    std::uint64_t verticesProcessed() const { return vertexCount; }
    /** Index-stream entries that reused a transformed vertex. */
    std::uint64_t transformsReused() const { return reuseCount; }

    /** Entries in the FIFO post-transform cache. */
    static constexpr std::size_t kPostTransformEntries = 16;

  private:
    /** Cycles the vector unit spends transforming one vertex. */
    static constexpr Cycle kTransformCost = 4;

    const GpuConfig &cfg;
    MemHierarchy &mem;
    std::uint64_t vertexCount = 0;
    std::uint64_t reuseCount = 0;
};

} // namespace dtexl

#endif // DTEXL_GEOM_VERTEX_STAGE_HH
