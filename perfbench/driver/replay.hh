/**
 * @file
 * Layer replay harness. Feeds one real frame's inputs through the
 * simulator's public layer entry points — GeometryPhase::run,
 * makeTileOrder, PolyListBuilder::overlapTiles, Rasterizer::rasterize,
 * quadSampleFootprints/footprintLines — and pushes the resulting
 * texel-line stream through an L1 Cache -> L2 Cache -> Dram chain
 * built from the public MemLevel interface. A timing MemLevel shim
 * sits between the levels, so each level's self time is measured from
 * outside the library.
 *
 * The replay is also a cross-check: its bins must equal the Parameter
 * Buffer the geometry phase built, and its quad count must equal the
 * frame's FrameStats::quadsRasterized.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <string>

#include "common/config.hh"
#include "core/frame_stats.hh"
#include "geom/scene.hh"
#include "spans.hh"

namespace perfbench {

/** Work counts and host times of one replayed frame. */
struct ReplayResult
{
    std::uint64_t prims = 0;
    std::uint64_t bins = 0;         ///< (primitive, tile) list entries
    std::uint64_t quads = 0;
    std::uint64_t texturedQuads = 0;  ///< quads with a texture sample
    std::uint64_t texLines = 0;     ///< distinct lines per fragment, summed
    std::uint64_t l1Accesses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t dramAccesses = 0;

    double tileOrderUs = 0;   ///< median of several makeTileOrder calls
    double overlapNs = 0;
    double rasterNs = 0;
    double textureNs = 0;
    double l1SelfNs = 0;      ///< L1 calls minus time inside the L2 shim
    double l2SelfNs = 0;      ///< L2 shim minus time inside the DRAM shim
    double dramNs = 0;

    /** Empty when every cross-check held; else what differed. */
    std::string mismatch;
};

/**
 * Replay @p scene under @p cfg. @p frame is a FrameStats the simulator
 * produced for the same (cfg, scene); its primitive and quad counts
 * are the cross-check's expected values.
 */
ReplayResult replayFrame(const dtexl::GpuConfig &cfg,
                         const dtexl::Scene &scene,
                         const dtexl::FrameStats &frame,
                         SpanRecorder &spans, const std::string &job);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
