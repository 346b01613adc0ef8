/**
 * @file
 * Set-associative write-back cache with LRU replacement and MSHRs.
 * Models all the L1 caches (Vertex, Texture x4, Tile) and the shared L2
 * of the paper's Figure 5 / Table II.
 */

#ifndef DTEXL_MEM_CACHE_HH
#define DTEXL_MEM_CACHE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "mem/mem_level.hh"
#include "mem/rate_window.hh"
#include "telemetry/unit_track.hh"

namespace dtexl {

class ByteReader;
class ByteWriter;

/**
 * A timed cache level. Misses allocate an MSHR and fetch from the next
 * level; accesses to a line with a pending miss merge into its MSHR
 * (secondary misses cost no extra downstream traffic). Dirty victims
 * write back to the next level.
 */
class Cache : public MemLevel
{
  public:
    /**
     * @param name Stats prefix, e.g. "l1tex0".
     * @param cfg  Geometry and latency.
     * @param accesses_per_cycle Port throughput (banked caches >1).
     * @param next Lower level servicing misses and write-backs.
     */
    Cache(std::string name, const CacheConfig &cfg,
          std::uint32_t accesses_per_cycle, MemLevel &next);
    /** Not copyable: the hit filter points into this cache's lines. */
    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    Cycle access(Addr addr, AccessType type, Cycle now) override;

    /**
     * Texture read of one fragment sample: the @p n lines of its
     * footprint, all issued at @p now. Exactly n access(Read) calls in
     * order, each preceded by the dropped-completion fault hook (a
     * fired hook parks that line at kFaultStallCycle and skips its
     * access), in one call with the per-line body inlined.
     *
     * @return The latest of @p now and the lines' completion cycles.
     */
    Cycle readLines(const Addr *line_addrs, std::uint32_t n, Cycle now);

    /** Entries of the direct-mapped hit filter (see hitFilter). */
    static constexpr std::size_t kHitFilterSlots = 32;

    /**
     * Full-line streaming store (write-validate): allocates the line
     * and marks it dirty without fetching it from below, since every
     * byte is being written. Used for Color Buffer flushes of fully
     * covered lines.
     */
    Cycle writeLine(Addr addr, Cycle now);

    /**
     * Tag-only presence probe (no side effects, no timing). Used by
     * tests and by replication analysis.
     */
    bool contains(Addr addr) const;

    /**
     * Visit the line address of every valid resident line (no side
     * effects). Used by the replication analysis.
     */
    template <typename Fn>
    void
    forEachResident(Fn &&fn) const
    {
        for (const Line &l : lines)
            if (l.valid)
                fn(l.tag);
    }

    /** Drop all contents and pending state (not the stats). */
    void flushAll();

    /**
     * Reset timing state only (ports, MSHRs, pending fills), keeping
     * tag contents warm. Used between frames: each frame restarts its
     * cycle count at zero.
     */
    void resetTiming();

    /**
     * Serialize the frame-boundary warm state: tag array (tag, valid,
     * dirty, lruStamp per line) and the LRU clock. Timing state is
     * empty at a frame boundary (resetTiming()), so this is the whole
     * result-affecting state. Stats are excluded — the checkpoint
     * layer captures them registry-wide instead.
     */
    void saveWarmState(ByteWriter &w) const;

    /**
     * Inverse of saveWarmState(). Throws SimError{Io} when the payload
     * disagrees with this cache's geometry; leaves timing state reset
     * and the hit filter cold (both bit-exact no-ops).
     */
    void restoreWarmState(ByteReader &r);

    const StatSet &stats() const { return stats_; }
    StatSet &stats() { return stats_; }

    /**
     * One-line summary of in-flight miss state (pending fills and
     * MSHR intervals) for the watchdog's crash report.
     */
    std::string dumpInFlight() const;

    /**
     * Attach (or detach, with nullptr) the telemetry track this cache
     * attributes cycles into: port-arbitration gaps as BankConflict,
     * MSHR waits as MshrFull, one busy cycle per accepted access.
     */
    void setTelemetry(UnitTrack *t) { telemetry = t; }

    std::uint64_t reads() const { return stats_.get("read"); }
    std::uint64_t writes() const { return stats_.get("write"); }
    std::uint64_t accesses() const { return reads() + writes(); }
    std::uint64_t misses() const
    {
        return stats_.get("read_miss") + stats_.get("write_miss");
    }
    double
    missRate() const
    {
        std::uint64_t a = accesses();
        return a == 0 ? 0.0 : static_cast<double>(misses()) /
                              static_cast<double>(a);
    }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lruStamp = 0;
        /** In-flight fill completion cycle, 0 for none (see access()). */
        Cycle pendingFill = 0;
    };

    Addr lineAddr(Addr a) const { return a & ~Addr{cfg.lineBytes - 1}; }
    std::size_t
    setIndex(Addr line_addr) const
    {
        return (line_addr >> lineShift) & setMask;
    }
    std::size_t
    filterSlot(Addr line_addr) const
    {
        return (line_addr >> lineShift) & (kHitFilterSlots - 1);
    }
    Line &findVictim(std::size_t set);
    /** Fill @p victim with @p line_addr and point the hit filter at it. */
    void install(Line &victim, Addr line_addr, bool dirty,
                 Cycle pending_fill);
    /** Point every hit-filter entry at line 0 (a cold filter). */
    void clearHitFilter();

    /** The per-line body of access() and readLines(). */
    Cycle accessLine(Addr line_addr, AccessType type, Cycle now);
    /** Miss path of accessLine(): MSHR, victim, fill and prefetch. */
    Cycle miss(Addr line_addr, AccessType type, Cycle start);

    /** Reserve an MSHR; returns the cycle the access may start. */
    Cycle acquireMshr(Cycle ready);
    /** Retire interval history that can no longer block any access. */
    void purgeMshrs(Cycle now);
    /** Port arbitration; returns the access start cycle. */
    Cycle arbitratePort(Cycle now);
    /** Tag lookup + LRU/dirty update; null if not resident. */
    Line *lookup(Addr line_addr, AccessType type);

    std::string name;
    CacheConfig cfg;
    std::uint32_t portsPerCycle;
    MemLevel &nextLevel;

    /** log2(lineBytes) and numSets - 1, so indexing never divides. */
    std::uint32_t lineShift = 0;
    Addr setMask = 0;

    std::vector<Line> lines;      ///< numSets * ways, set-major
    std::uint64_t lruCounter = 0;

    /**
     * Direct-mapped most-recently-used filter checked in front of the
     * way loop, indexed by the low line-number bits. Every entry
     * points at some line of this cache, and a line address lives in
     * exactly one way of exactly one set, so a valid tag match returns
     * precisely the line the way loop would find — bit-exact by
     * construction, however stale the entry.
     */
    std::array<Line *, kHitFilterSlots> hitFilter{};

    /**
     * In-flight miss intervals [start, fill). MSHR capacity is
     * enforced by interval overlap at the access's own issue time, so
     * an access that logically precedes already-simulated misses is
     * not falsely blocked by them (the sequential pipeline model
     * produces out-of-order issue times).
     */
    struct MshrInterval
    {
        Cycle start;
        Cycle fill;
    };
    std::vector<MshrInterval> mshrIntervals;
    /** acquireMshr() scratch, kept to reuse its capacity. */
    std::vector<Cycle> mshrFillHeap;
    std::vector<MshrInterval> mshrLater;

    /**
     * Port occupancy: portsPerCycle * kPortWindow accesses per
     * kPortWindow-cycle span, enforced out-of-order-tolerantly (see
     * RateWindow).
     */
    static constexpr std::uint32_t kPortWindow = 8;
    RateWindow port;

    StatSet stats_;

    /**
     * Cached references into stats_ for the per-access counters,
     * bound once at construction (cache stats are never cleared), so
     * the hot path skips the string-keyed map lookup. Binding happens
     * under both hot-path settings, so both expose the same key set.
     */
    struct HotStats
    {
        std::uint64_t *read = nullptr;
        std::uint64_t *write = nullptr;
        std::uint64_t *readHit = nullptr;
        std::uint64_t *writeHit = nullptr;
        std::uint64_t *readMiss = nullptr;
        std::uint64_t *writeMiss = nullptr;
        std::uint64_t *hitUnderFill = nullptr;
        std::uint64_t *mshrStall = nullptr;
        std::uint64_t *portStall = nullptr;
        std::uint64_t *writeback = nullptr;
        std::uint64_t *writeValidate = nullptr;
        std::uint64_t *prefetchIssued = nullptr;
    };
    HotStats hot;

    /** Stall/busy attribution sink; null (and inert) below level 1. */
    UnitTrack *telemetry = nullptr;
};

} // namespace dtexl

#endif // DTEXL_MEM_CACHE_HH
