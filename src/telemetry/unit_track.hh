/**
 * @file
 * Per-unit cycle accounting with the hard invariant
 *
 *     busy + sum(stall buckets) + idle == total
 *
 * enforced exactly (tests/test_telemetry.cc). The simulator is
 * event-driven, not cycle-stepped: units compute finish times with
 * max() algebra and revisit earlier timestamps out of order. A naive
 * sum of per-access wait times would double-count concurrent waits and
 * overflow the phase length, so UnitTrack accounts *intervals* against
 * a monotonically advancing watermark: a span is credited only for the
 * part above the watermark, which makes over-attribution impossible by
 * construction — out-of-order revisits of already-covered cycles fall
 * below the watermark and contribute nothing (a deliberate
 * undercount; the remainder lands in Idle).
 *
 * Units whose work items are known to be disjoint in time (the shader
 * cores: per-batch issue counts at strictly increasing cycles) skip
 * the watermark and add bucket deltas directly.
 */

#ifndef DTEXL_TELEMETRY_UNIT_TRACK_HH
#define DTEXL_TELEMETRY_UNIT_TRACK_HH

#include <algorithm>
#include <array>
#include <cstdint>

#include "common/log.hh"
#include "common/types.hh"
#include "telemetry/stall.hh"

namespace dtexl {

/** Busy/stall/idle totals of one epoch (one raster phase). */
struct EpochTotals
{
    std::uint64_t busy = 0;
    std::array<std::uint64_t, kNumStallReasons> stall{};
    std::uint64_t idle = 0;
    std::uint64_t total = 0;
};

/** Cycle accounting of one per-cycle unit. */
class UnitTrack
{
  public:
    /** Start a new accounting epoch (cycle counts restart at 0). */
    void
    beginEpoch()
    {
        wm = 0;
        cur = EpochTotals{};
    }

    /** Credit [s, e) above the watermark to a stall bucket. */
    void
    span(Cycle s, Cycle e, StallReason r)
    {
        if (e <= wm)
            return;
        s = std::max(s, wm);
        cur.stall[static_cast<std::size_t>(r)] += e - s;
        wm = e;
    }

    /** Credit [watermark, upTo) to a stall bucket. */
    void stall(Cycle upTo, StallReason r) { span(wm, upTo, r); }

    /** Credit [s, e) above the watermark as productive work. */
    void
    busy(Cycle s, Cycle e)
    {
        if (e <= wm)
            return;
        s = std::max(s, wm);
        cur.busy += e - s;
        wm = e;
    }

    /** Direct bucket delta (for units with disjoint known intervals). */
    void
    add(StallReason r, std::uint64_t n)
    {
        cur.stall[static_cast<std::size_t>(r)] += n;
    }

    /** Direct busy delta (see add()). */
    void addBusy(std::uint64_t n) { cur.busy += n; }

    /**
     * Close the epoch against the phase length: everything not
     * attributed becomes Idle, the epoch folds into the cumulative
     * totals, and the closed epoch is returned (for publishing).
     *
     * A unit may legitimately stay busy slightly past the phase end —
     * a drained tail of work that no longer affects the critical path
     * (e.g. trailing Early-Z tests whose quads are all culled), so the
     * unit's total is max(phase length, cycles covered).
     */
    EpochTotals
    finalizeEpoch(Cycle phaseCycles)
    {
        std::uint64_t covered = cur.busy;
        for (std::uint64_t s : cur.stall)
            covered += s;
        // The watermark can run past `covered` (gaps between spans are
        // skipped uncredited), so a drained tail is bounded by the
        // larger of the two, not by covered alone.
        const std::uint64_t total = std::max<std::uint64_t>(
            phaseCycles, std::max<std::uint64_t>(covered, wm));
        dtexl_assert(covered <= total,
                     "telemetry covered %llu beyond unit total %llu",
                     (unsigned long long)covered,
                     (unsigned long long)total);
        cur.idle = total - covered;
        cur.total = total;

        cum.busy += cur.busy;
        for (std::size_t i = 0; i < kNumStallReasons; ++i)
            cum.stall[i] += cur.stall[i];
        cum.idle += cur.idle;
        cum.total += cur.total;

        const EpochTotals closed = cur;
        wm = 0;
        cur = EpochTotals{};
        return closed;
    }

    // Cumulative totals over all finalized epochs.
    std::uint64_t busyCycles() const { return cum.busy; }
    std::uint64_t
    stallCycles(StallReason r) const
    {
        return cum.stall[static_cast<std::size_t>(r)];
    }
    std::uint64_t idleCycles() const { return cum.idle; }
    std::uint64_t totalCycles() const { return cum.total; }
    std::uint64_t
    attributedStallCycles() const
    {
        std::uint64_t s = 0;
        for (std::uint64_t v : cum.stall)
            s += v;
        return s;
    }
    const EpochTotals &cumulative() const { return cum; }

    /**
     * Overwrite the cumulative totals (checkpoint restore, at an epoch
     * boundary: the open epoch and watermark are reset too). The next
     * publish() then re-assigns registry counters exactly as an
     * uninterrupted run would have.
     */
    void
    restoreCumulative(const EpochTotals &t)
    {
        wm = 0;
        cur = EpochTotals{};
        cum = t;
    }

    /** Cumulative + current-epoch busy (live value for tile rows). */
    std::uint64_t liveBusyCycles() const { return cum.busy + cur.busy; }
    /** Cumulative + current-epoch attributed stalls (live). */
    std::uint64_t
    liveStallCycles() const
    {
        std::uint64_t s = 0;
        for (std::uint64_t v : cur.stall)
            s += v;
        return attributedStallCycles() + s;
    }

  private:
    Cycle wm = 0;       ///< watermark: everything below is accounted
    EpochTotals cur;    ///< open epoch (idle/total unset until finalize)
    EpochTotals cum;    ///< all finalized epochs
};

} // namespace dtexl

#endif // DTEXL_TELEMETRY_UNIT_TRACK_HH
