#include "core/geometry_phase.hh"

namespace dtexl {

GeometryPhase::Result
GeometryPhase::run(const Scene &scene)
{
    pb.clear();
    VertexStage vstage(cfg, mem);
    PrimAssembler assembler(cfg);
    PolyListBuilder binner(cfg, mem, pb);

    Cycle cursor = 0;
    for (const DrawCommand &draw : scene.draws) {
        cursor = vstage.processDraw(draw, cursor, transformed);
        prims.clear();
        assembler.assemble(draw, transformed,
                           scene.texture(draw.texture).side(), prims);
        for (const Primitive &prim : prims)
            cursor = binner.binPrimitive(prim, cursor);
    }

    Result r;
    r.cycles = cursor;
    r.vertices = vstage.verticesProcessed();
    r.primitives = pb.numPrimitives();
    return r;
}

} // namespace dtexl
