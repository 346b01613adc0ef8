/**
 * @file
 * Simulated-GPU configuration. Defaults reproduce Table II of the paper;
 * scheduling-policy fields select the configurations compared in the
 * evaluation (Figures 11-18).
 */

#ifndef DTEXL_COMMON_CONFIG_HH
#define DTEXL_COMMON_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/policies.hh"
#include "common/types.hh"

namespace dtexl {

/**
 * Largest screen width or height validate() accepts: 8x the Table II
 * width. A larger value is a typo or a wrapped negative, and would ask
 * for framebuffer and per-tile arrays beyond any host's memory; it
 * fails as a named config error instead.
 */
constexpr std::uint32_t kMaxScreenSide = 16384;

/** Geometry/size/latency parameters of one cache (Table II rows). */
struct CacheConfig
{
    std::uint32_t sizeBytes = 0;
    std::uint32_t lineBytes = 64;
    std::uint32_t ways = 4;
    std::uint32_t hitLatency = 1;   ///< cycles
    std::uint32_t numMshrs = 16;    ///< outstanding misses
    /**
     * Next-line prefetch on demand miss (the decoupled-access
     * direction of Arnau et al. [2], cited by the paper as orthogonal
     * prior work on texture caching). Off by default.
     */
    bool prefetchNextLine = false;

    std::uint32_t numLines() const { return sizeBytes / lineBytes; }
    std::uint32_t numSets() const { return numLines() / ways; }
};

/** Banked-DRAM timing (Table II: 50-100 cycle latency window). */
struct DramConfig
{
    std::uint32_t numBanks = 8;
    std::uint32_t rowBytes = 2048;       ///< row-buffer coverage per bank
    std::uint32_t rowHitLatency = 50;    ///< cycles, open-row access
    std::uint32_t rowMissLatency = 100;  ///< cycles, row activate + access
    std::uint32_t bytesPerCycle = 16;    ///< channel bandwidth
};

/**
 * Full GPU configuration. Construct with defaults for the paper's
 * Table II machine; presets below select the paper's named
 * configurations.
 */
struct GpuConfig
{
    // --- Global parameters (Table II) ---
    std::uint64_t clockHz = 600'000'000;  ///< 600 MHz
    std::uint32_t screenWidth = 1960;
    std::uint32_t screenHeight = 768;
    std::uint32_t tileSize = 32;          ///< pixels per tile side

    // --- Raster pipeline structure ---
    std::uint32_t numPipelines = 4;       ///< parallel post-raster units/SCs
    std::uint32_t maxWarpsPerCore = 6;    ///< in-flight quads per SC
    std::uint32_t stageFifoDepth = 64;    ///< per-bank inter-stage FIFOs
    std::uint32_t rasterQuadsPerCycle = 4;///< rasterizer peak throughput

    // --- Scheduling policy (the paper's contribution) ---
    QuadGrouping grouping = QuadGrouping::FGXShift2;
    TileOrder tileOrder = TileOrder::ZOrder;
    SubtileAssignment assignment = SubtileAssignment::Constant;
    bool decoupledBarriers = false;
    /**
     * Hierarchical-Z (extension, off by default = paper baseline):
     * a conservative per-4x4-quad-block max-depth test in the
     * rasterizer culls fully-occluded quads before they enter the
     * Early-Z queues.
     */
    bool hierarchicalZ = false;
    /**
     * Next-line prefetching in the L1 texture caches (extension, off
     * by default = paper baseline); see CacheConfig::prefetchNextLine.
     */
    bool texturePrefetch = false;
    /** Warp selection policy in the shader cores. */
    WarpSched warpScheduler = WarpSched::EarliestReady;
    /**
     * Transaction elimination (extension, off by default): each Color
     * Buffer bank keeps a CRC of the region it last flushed; an
     * identical re-flush (static content across frames) is skipped,
     * saving framebuffer write bandwidth — ARM Mali's technique.
     */
    bool transactionElimination = false;
    /**
     * Telemetry knob (not modelled hardware; observation-only, results
     * are bit-identical at any level): 0 = off, 1 = per-unit stall/busy
     * cycle attribution into ".telemetry." registry nodes, 2 = level 1
     * plus one row of counters per tile (counter tracks in the Chrome
     * trace, --timeline-csv rows). Set with the `telemetry` key.
     */
    std::uint32_t telemetryLevel = 0;
    /**
     * Inert: every simulation runs on one host thread. Both members
     * exist only because perfbench/driver/main.cc still assigns them;
     * validate() rejects any value but 1, hashConfig() excludes them,
     * and a later change to the benchmark deletes them.
     */
    std::uint32_t geomThreads = 1;
    std::uint32_t rasterThreads = 1;

    /** Not a knob: see InertSimdMode. Adds nothing to sizeof. */
    static constexpr InertSimdMode simdMode{};

    /**
     * Forward-progress watchdog budget in simulated cycles (simulator
     * infrastructure, not modelled hardware): if the event-driven
     * engine advances its clock by more than this many cycles without
     * retiring a quad or completing a memory access while work is
     * pending, the run is declared hung and a SimError{Watchdog}
     * carrying a pipeline-state dump is raised instead of spinning
     * forever. Real frames retire work every few hundred cycles, so
     * the default (200M, ~a third of a second of simulated time) only
     * trips on genuine deadlocks — e.g. a leaked stage-FIFO credit or
     * a lost memory completion (see common/fault_inject.hh). 0
     * disables the watchdog. Set with the `watchdog_cycles` key.
     */
    std::uint64_t watchdogCycles = 200'000'000;

    // --- Memory hierarchy (Table II) ---
    CacheConfig vertexCache  {8 * 1024, 64, 4, 1, 8};
    CacheConfig textureCache {16 * 1024, 64, 4, 1, 16};
    CacheConfig tileCache    {64 * 1024, 64, 4, 1, 16};
    CacheConfig l2Cache      {1024 * 1024, 64, 8, 12, 32};
    DramConfig dram;

    // --- Derived ---
    std::uint32_t tilesX() const { return divCeil(screenWidth, tileSize); }
    std::uint32_t tilesY() const { return divCeil(screenHeight, tileSize); }
    std::uint32_t numTiles() const { return tilesX() * tilesY(); }
    /** Quads per tile side (a quad is 2x2 pixels). */
    std::uint32_t quadsPerTileSide() const { return tileSize / 2; }

    /** Human-readable multi-line dump (used by bench/table2_config). */
    std::string describe() const;

    /**
     * Check every knob; throws SimError{Config} naming the offending
     * knob and its legal range on any invalid value or combination.
     */
    void validate() const;
};

/** Paper baseline: FG-xshift2, Z-order, constant assignment, coupled. */
GpuConfig makeBaselineConfig();

/**
 * Full DTexL: CG-square grouping, rectangle-adapted Hilbert order,
 * Flip2 assignment (the paper's best, "HLB-flp2"), decoupled barriers.
 */
GpuConfig makeDTexLConfig();

/**
 * Upper-bound machine of Figure 16: one fragment pipeline whose L1
 * texture cache has 4x the capacity; only its L2 access count is used.
 */
GpuConfig makeUpperBoundConfig();

/**
 * Apply a textual "key=value" option to a configuration (the CLI
 * driver's interface). Supported keys: grouping, order, assignment,
 * decoupled, hiz, prefetch, te, warp_sched, warps, fifo, width,
 * height, tile, l1tex_kib, l2_kib, telemetry, watchdog_cycles.
 * Numeric values must be non-negative decimals that fit 32 bits (64
 * for watchdog_cycles; *_kib also in bytes). Throws SimError{UserInput}
 * naming the key on unknown keys or bad values.
 */
void applyConfigOption(GpuConfig &cfg, const std::string &key,
                       const std::string &value);

} // namespace dtexl

#endif // DTEXL_COMMON_CONFIG_HH
