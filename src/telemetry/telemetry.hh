/**
 * @file
 * Per-simulator telemetry sink: one UnitTrack per per-cycle unit plus
 * an optional row of live counters per tile, all behind the
 * GpuConfig::telemetryLevel knob (0 = off, 1 = stall/busy counters,
 * 2 = counters + per-tile rows).
 *
 * Telemetry is scoped to the *raster phase*: geometry and raster each
 * restart the cycle count at zero (see GpuSimulator::renderFrame), so
 * the simulator arms the tracks only around RasterPipeline::run() and
 * finalizes each epoch against that frame's raster-phase length. The
 * raster phase is where the paper's mechanisms live (barrier idling,
 * texture locality) and is the frame-time bottleneck in every
 * evaluated workload.
 *
 * Telemetry is strictly observation-only: every recorded quantity is
 * derived from simulated cycles the pipeline computes anyway, so
 * FrameStats, image hashes and every StatRegistry counter outside the
 * ".telemetry." namespace are bit-identical at any knob level
 * (tests/test_telemetry.cc).
 */

#ifndef DTEXL_TELEMETRY_TELEMETRY_HH
#define DTEXL_TELEMETRY_TELEMETRY_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stat_registry.hh"
#include "telemetry/unit_track.hh"

namespace dtexl {

class ByteReader;
class ByteWriter;

/** Every per-cycle unit the telemetry layer attributes cycles for. */
enum class TelemetryUnit : std::uint8_t {
    Raster,
    Ez0, Ez1, Ez2, Ez3,
    Sc0, Sc1, Sc2, Sc3,
    Blend0, Blend1, Blend2, Blend3,
    L1Tex0, L1Tex1, L1Tex2, L1Tex3,
    L1Vtx, L1Tile, L2, Dram,
};

inline constexpr std::size_t kNumTelemetryUnits = 21;

constexpr TelemetryUnit
ezUnit(std::uint32_t pipe)
{
    return static_cast<TelemetryUnit>(
        static_cast<std::uint8_t>(TelemetryUnit::Ez0) + pipe);
}
constexpr TelemetryUnit
scUnit(std::uint32_t pipe)
{
    return static_cast<TelemetryUnit>(
        static_cast<std::uint8_t>(TelemetryUnit::Sc0) + pipe);
}
constexpr TelemetryUnit
blendUnit(std::uint32_t pipe)
{
    return static_cast<TelemetryUnit>(
        static_cast<std::uint8_t>(TelemetryUnit::Blend0) + pipe);
}
constexpr TelemetryUnit
texUnit(std::uint32_t cache)
{
    return static_cast<TelemetryUnit>(
        static_cast<std::uint8_t>(TelemetryUnit::L1Tex0) + cache);
}

/** Stable unit name, used as the ".telemetry.<name>" node suffix. */
const char *unitName(TelemetryUnit u);

/** Telemetry state of one GpuSimulator (single-writer, like stats). */
class Telemetry
{
  public:
    explicit Telemetry(const GpuConfig &cfg)
        : level_(cfg.telemetryLevel)
    {}

    /** Level 1+: stall/busy attribution is recorded. */
    bool counters() const { return level_ >= 1; }
    /** Level 2: one counter row per tile is recorded too. */
    bool sampling() const { return level_ >= 2; }
    std::uint32_t level() const { return level_; }

    UnitTrack &
    track(TelemetryUnit u)
    {
        return tracks_[static_cast<std::size_t>(u)];
    }
    const UnitTrack &
    track(TelemetryUnit u) const
    {
        return tracks_[static_cast<std::size_t>(u)];
    }

    /** Arm a new raster-phase epoch (cycle counts restart at 0). */
    void
    beginEpoch()
    {
        for (UnitTrack &t : tracks_)
            t.beginEpoch();
        rows_.clear();
        epochTiles_ = 0;
    }

    /** Close the epoch against the raster-phase length. */
    void
    finalizeEpoch(Cycle phaseCycles)
    {
        for (std::size_t u = 0; u < kNumTelemetryUnits; ++u)
            epoch_[u] = tracks_[u].finalizeEpoch(phaseCycles);
        ++frames_;
    }

    /**
     * Report the cumulative per-unit totals into
     * "<prefix>.telemetry.<unit>" registry nodes (keys: busy,
     * stall_<reason>..., idle, total). Counters are *assigned*, not
     * incremented, so re-publishing every frame stays exact; node
     * handles are cached after the first publish.
     */
    void publish(StatRegistry &reg, const std::string &prefix);

    /** Per-unit totals of the most recently finalized epoch. */
    const EpochTotals &
    epoch(TelemetryUnit u) const
    {
        return epoch_[static_cast<std::size_t>(u)];
    }

    /** Frames finalized so far (the timeline's frame column). */
    std::uint32_t frames() const { return frames_; }

    // ---- Checkpoint support (frame-boundary warm state) ----

    /** Serialize cumulative per-unit totals + the frame count. */
    void saveState(ByteWriter &w) const;

    /** Inverse of saveState(); throws SimError{Io} on a bad payload. */
    void restoreState(ByteReader &r);

    /** Zero all cumulative state (failed-restore recovery). */
    void resetCumulative();

    // ---- Per-tile rows (level 2) ----

    /**
     * One tile's live counters, read when the tile completes. Values
     * are cumulative (GpuSimulator::renderFrame emits per-tile
     * deltas); SC entries past the configured pipe count stay zero.
     */
    struct TileRow
    {
        static constexpr std::size_t kMaxScs = 4;

        Cycle cycle = 0;  ///< the tile's completion cycle
        std::array<std::uint64_t, kMaxScs> scBusy{};
        std::array<std::uint64_t, kMaxScs> scStall{};
        std::uint64_t l2Accesses = 0;
        std::uint64_t dramAccesses = 0;
    };

    /** The live counters now, with the caller's memory access counts. */
    TileRow
    liveRow(Cycle cycle, std::uint64_t l2, std::uint64_t dram) const
    {
        TileRow row;
        row.cycle = cycle;
        for (std::uint32_t p = 0; p < TileRow::kMaxScs; ++p) {
            row.scBusy[p] = track(scUnit(p)).liveBusyCycles();
            row.scStall[p] = track(scUnit(p)).liveStallCycles();
        }
        row.l2Accesses = l2;
        row.dramAccesses = dram;
        return row;
    }

    /**
     * Append the row of a tile completed at @p cycle. The rows are
     * bounded: past kMaxRows per epoch a tile is only counted
     * (epochTiles()), so a huge frame never grows them further.
     */
    void
    recordTile(Cycle cycle, std::uint64_t l2, std::uint64_t dram)
    {
        if (epochTiles_++ < kMaxRows)
            rows_.push_back(liveRow(cycle, l2, dram));
    }

    /** Rows of the open or last finalized epoch, in tile order. */
    const std::vector<TileRow> &tileRows() const { return rows_; }
    /** Tiles completed in that epoch (rows past kMaxRows dropped). */
    std::size_t epochTiles() const { return epochTiles_; }

    static constexpr std::size_t kMaxRows = 4096;

  private:
    std::uint32_t level_ = 0;
    std::array<UnitTrack, kNumTelemetryUnits> tracks_;
    std::array<EpochTotals, kNumTelemetryUnits> epoch_{};
    std::uint32_t frames_ = 0;

    std::vector<TileRow> rows_;
    std::size_t epochTiles_ = 0;

    /** Cached registry handles; rebound if registry/prefix change. */
    struct NodeHandles
    {
        std::uint64_t *busy = nullptr;
        std::array<std::uint64_t *, kNumStallReasons> stall{};
        std::uint64_t *idle = nullptr;
        std::uint64_t *total = nullptr;
    };
    std::array<NodeHandles, kNumTelemetryUnits> nodes_{};
    const StatRegistry *boundReg = nullptr;
    std::string boundPrefix;
};

} // namespace dtexl

#endif // DTEXL_TELEMETRY_TELEMETRY_HH
