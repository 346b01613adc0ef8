#include "geom/vertex_stage.hh"

#include <algorithm>
#include <array>

namespace dtexl {

Cycle
VertexStage::processDraw(const DrawCommand &draw, Cycle now,
                         std::vector<TransformedVertex> &out)
{
    out.clear();
    out.resize(draw.vertices.size());

    const float half_w = static_cast<float>(cfg.screenWidth) * 0.5f;
    const float half_h = static_cast<float>(cfg.screenHeight) * 0.5f;
    Cycle cursor = now;

    // One vertex-program run: attribute fetch through the Vertex
    // Cache, then transform + viewport mapping.
    auto shade = [&](std::uint32_t i) {
        const Vertex &v = draw.vertices[i];
        const Vec4f clip = draw.transform.apply(v.pos);
        const float inv_w = clip.w != 0.0f ? 1.0f / clip.w : 1.0f;
        TransformedVertex &tv = out[i];
        tv.screen.x = (clip.x * inv_w * 0.5f + 0.5f) * 2.0f * half_w;
        tv.screen.y = (clip.y * inv_w * 0.5f + 0.5f) * 2.0f * half_h;
        tv.depth = std::clamp(clip.z * inv_w * 0.5f + 0.5f, 0.0f, 1.0f);
        tv.uv = v.uv;

        // A vertex record may straddle a line boundary; touch both
        // lines.
        const Addr a = draw.vertexBufferAddr + i * kVertexFetchBytes;
        Cycle data = mem.vertexRead(a, cursor);
        const Addr last = a + kVertexFetchBytes - 1;
        if ((a / cfg.vertexCache.lineBytes) !=
            (last / cfg.vertexCache.lineBytes)) {
            data = std::max(data, mem.vertexRead(last, cursor));
        }
        cursor = std::max(data, cursor + kTransformCost);
        ++vertexCount;
    };

    // Hardware walks the index stream; non-indexed access to unused
    // vertices never happens.
    if (draw.indices.empty()) {
        for (std::uint32_t i = 0; i < draw.vertices.size(); ++i)
            shade(i);
        return cursor;
    }

    // FIFO post-transform cache of recently shaded indices, kept in a
    // fixed ring (capacity is a compile-time constant): overwriting
    // the oldest slot when full is push_back + pop_front, and
    // membership only needs the live set, not its order.
    std::array<std::uint32_t, kPostTransformEntries> ptc;
    std::size_t ptcHead = 0;  // next slot to overwrite
    std::size_t ptcSize = 0;
    for (std::uint32_t idx : draw.indices) {
        bool hit = false;
        for (std::size_t k = 0; k < ptcSize; ++k) {
            if (ptc[k] == idx) {
                hit = true;
                break;
            }
        }
        if (hit) {
            ++reuseCount;
            continue;
        }
        // Miss: the vertex program runs (idempotent, so re-shading an
        // index evicted from the FIFO is functionally harmless and
        // pays the realistic re-fetch + re-transform cost).
        shade(idx);
        ptc[ptcHead] = idx;
        ptcHead = (ptcHead + 1) % kPostTransformEntries;
        ptcSize = std::min(ptcSize + 1, kPostTransformEntries);
    }
    return cursor;
}

} // namespace dtexl
