/**
 * @file
 * The Shader Core (SC): a multithreaded fragment processor. A quad is
 * one warp of four fragment lanes; the core keeps up to maxWarpsPerCore
 * warps in flight, issues one instruction per cycle among ready warps,
 * and blocks warps on texture accesses through the core's private L1
 * texture cache — so memory latency is hidden exactly when occupancy is
 * high, reproducing the occupancy sensitivity the paper leans on
 * (Section V-C2).
 */

#ifndef DTEXL_CORE_SHADER_CORE_HH
#define DTEXL_CORE_SHADER_CORE_HH

#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "geom/scene.hh"
#include "mem/hierarchy.hh"
#include "raster/quad.hh"
#include "raster/quad_stream.hh"
#include "texture/sampler.hh"

namespace dtexl {

/** One fragment shader core with its warp scheduler and texture unit. */
class ShaderCore
{
  public:
    ShaderCore(CoreId id, const GpuConfig &cfg, MemHierarchy &mem,
               const Scene &scene);

    /** Result of executing one subtile's worth of quads. */
    struct BatchResult
    {
        /** Completion cycle of each quad, in input order. */
        std::vector<Cycle> completion;
        Cycle start = 0;   ///< first activity (>= gate)
        Cycle finish = 0;  ///< last quad completion
        /**
         * Instructions issued for the batch: the scheduler issues at
         * most one per cycle, so this is also the core's busy-cycle
         * count over [start, finish) (telemetry's SC busy bucket).
         */
        std::uint64_t issues = 0;
    };

    /**
     * Execute a batch of quads (the surviving quads of one subtile).
     * The Fragment Stage processes one subtile at a time (the paper's
     * barrier), so batches on one core never overlap.
     *
     * AoS adapter over runBatches(): copies the quads into a local
     * QuadStream. Kept for tests and standalone use; the pipeline
     * calls runBatches() with its SoA arena directly.
     *
     * @param quads    Quads in Early-Z output order.
     * @param arrivals Cycle each quad becomes available (>= its EZ
     *                 completion); same order as @p quads.
     * @param gate     Stage barrier: no quad may start earlier.
     */
    BatchResult runBatch(const std::vector<const Quad *> &quads,
                         const std::vector<Cycle> &arrivals, Cycle gate);

    /** One core's inputs for runBatches(). */
    struct BatchInput
    {
        const QuadStream *stream = nullptr;
        /** Indices into @ref stream, in Early-Z output order. */
        const std::vector<std::uint32_t> *quads = nullptr;
        const std::vector<Cycle> *arrivals = nullptr;
        Cycle gate = 0;
    };

    /**
     * Execute one batch on each of several cores in a single
     * time-interleaved event loop, so the cores' memory accesses reach
     * the shared L2/DRAM in global time order and contend fairly —
     * running the batches one core at a time would systematically
     * starve the last-simulated core at the shared levels.
     */
    static std::vector<BatchResult>
    runBatches(const std::vector<ShaderCore *> &cores,
               const std::vector<BatchInput> &inputs);

    /**
     * Reinitialize per-frame state in place (texture-unit occupancy,
     * per-frame counters) so a persistent core starts the next frame
     * bit-identically to a freshly constructed one.
     */
    void beginFrame();

    /**
     * Rebind the scene for the next frame (animation). The texture
     * table layout must match; see GpuSimulator::setScene().
     */
    void setScene(const Scene &next) { scene = &next; }

    CoreId id() const { return coreId; }
    const StatSet &stats() const { return stats_; }
    StatSet &stats() { return stats_; }

    /** Dependent-issue latency of an ALU instruction. */
    static constexpr Cycle kAluLatency = 4;
    /** Texture filtering latency after the last texel line arrives. */
    static constexpr Cycle kFilterLatency = 4;

  private:
    /** One warp slot; its ready cycle lives in CoreRun::slots. */
    struct Warp
    {
        const QuadStream *stream = nullptr;
        std::uint32_t quadIndex = 0;   ///< index into `stream`
        std::uint16_t aluLeft = 0;     ///< ALU ops before next tex/end
        std::uint8_t texLeft = 0;      ///< tex instructions remaining
        std::uint16_t aluPerSegment = 0;
        std::uint16_t aluTail = 0;     ///< ALU ops after the last tex

        /**
         * Sampling level of detail, resolved for the whole batch up
         * front (CoreRun::resolveLods) instead of per warp on its first
         * texture instruction. 0.0f for texture-less quads (never read).
         */
        float lod = 0.0f;

        /**
         * Per-fragment deduplicated texture-line footprint, computed
         * on the warp's first texture instruction and reused by the
         * rest: a warp's uv, lod and filter never change between its
         * tex instructions, so every one touches the same lines —
         * only the access timing differs. Caching skips the repeated
         * footprint resolve (floor/Morton per texel), which showed in
         * profiles; the issued line reads are bit-identical.
         */
        bool fpValid = false;
        std::array<std::uint8_t, 4> fpCount{};
        std::array<std::array<Addr, SampleFootprint::kMaxTexels>, 4>
            fpLines;
    };

    /** Per-core in-flight state of runBatches(); see shader_core.cc. */
    struct CoreRun;

    /** Watchdog: per-warp state dump for the crash report. */
    static std::string dumpRuns(const std::vector<CoreRun> &runs,
                                Cycle progress);
    /**
     * Watchdog: throw SimError{Watchdog} with a dump when the
     * candidate of run @p next sits more than @p budget cycles past
     * its predecessor in merged event order, gates and EZ arrivals
     * included. Only for candidates that
     * CoreRun::needsWatchdog(@p budget).
     */
    static void checkForwardProgress(const std::vector<CoreRun> &runs,
                                     std::size_t next, Cycle budget);

    /**
     * Issue the warp's next instruction; returns its next ready cycle
     * and sets @p done when that was the warp's last instruction.
     */
    Cycle issueInstruction(Warp &warp, Cycle cycle, bool &done);
    /** Execute a texture instruction; returns data-ready cycle. */
    Cycle sampleQuad(Warp &warp, Cycle cycle);
    /** Admit pending quads into free warp slots. */
    void admitWarps(CoreRun &run);
    /** Re-bind the cached stat references (stats_ clears per frame). */
    void bindStats();

    CoreId coreId;
    const GpuConfig &cfg;
    MemHierarchy &mem;
    const Scene *scene;
    /** Texture unit occupancy, in half-cycles (2 bilinear/cycle). */
    std::uint64_t texUnitFreeHalf = 0;
    StatSet stats_;

    /**
     * Cached references into stats_ for the per-instruction counters
     * (see Cache::HotStats); re-bound by beginFrame() because the
     * per-frame stats_.clear() erases the keys.
     */
    struct HotStats
    {
        std::uint64_t *texSamples = nullptr;
        std::uint64_t *texLineReads = nullptr;
        std::uint64_t *texDataCycles = nullptr;
        std::uint64_t *texWaitCycles = nullptr;
        std::uint64_t *aluOps = nullptr;
        std::uint64_t *texInstructions = nullptr;
        std::uint64_t *warps = nullptr;
        std::uint64_t *fragments = nullptr;
    };
    HotStats hot;
};

} // namespace dtexl

#endif // DTEXL_CORE_SHADER_CORE_HH
