/**
 * @file
 * Bandwidth rate limiter tolerant of out-of-order reservation times.
 *
 * The pipeline model simulates components in code order, so accesses
 * reach a shared resource with non-monotonic timestamps. A monotonic
 * "next free cycle" cursor would falsely serialize a logically-early
 * access behind later ones; this limiter instead enforces the actual
 * bandwidth invariant — at most `capacity` reservations within any
 * `window`-cycle span — by searching the recorded start times.
 *
 * The history is a contiguous ring (a vector with a dead prefix) so
 * the binary search and window scans run on cache-friendly memory,
 * with an O(1) append check for the common in-order case. The
 * original std::deque formulation is kept as a differential model in
 * tests/test_rate_window.cc.
 */

#ifndef DTEXL_MEM_RATE_WINDOW_HH
#define DTEXL_MEM_RATE_WINDOW_HH

#include <algorithm>
#include <deque>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace dtexl {

/** Sliding-window bandwidth reservation. */
class RateWindow
{
  public:
    /**
     * @param capacity  Reservations allowed per window.
     * @param window    Window length in cycles.
     */
    RateWindow(std::uint32_t capacity, Cycle window)
        : cap(capacity), win(window)
    {
        dtexl_assert(capacity > 0 && window > 0);
    }

    /**
     * Reserve a slot at the earliest cycle >= now satisfying the rate
     * invariant: no window of `win` cycles ever contains more than
     * `cap` reservations, counting reservations made both before and
     * after this one in simulation order (requests arrive with
     * out-of-order timestamps).
     *
     * @param now     Requested start cycle.
     * @param stalled Set true when the reservation had to be delayed.
     * @return Granted start cycle.
     *
     * `ring` holds the sorted history in [head, ring.size()); pruning
     * advances `head`, and the dead prefix is compacted in bulk.
     * Appends (the in-order common case) check one entry and skip both
     * the binary search and the prune; see prune() for why that is
     * exact.
     */
    Cycle
    reserve(Cycle now, bool &stalled)
    {
        stalled = false;
        const std::size_t live = ring.size() - head;
        if (live != 0 && now < ring.back())
            return reserveOutOfOrder(now, stalled);
        // Append fast path, O(1): with nothing after `start`, the only
        // candidate run the search's k loop could flag is `start` plus
        // the newest `cap` entries (k = cap is the only k with first +
        // cap <= n), so the whole violation scan collapses to one
        // comparison against the cap-th newest entry. After one
        // advance to it + win the run spans exactly `win` cycles — no
        // violation — and `start` only grew, so the append
        // precondition still holds.
        Cycle start = now;
        if (live >= cap) {
            const Cycle crowd = ring[ring.size() - cap];
            if (start < crowd + win) {
                stalled = true;
                start = crowd + win;
            }
        }
        ring.push_back(start);
        if (live >= pruneAt)
            prune();
        return start;
    }

    void
    clear()
    {
        ring.clear();
        head = 0;
        pruneAt = kMinPruneAt;
    }

  private:
    /** Retained history, in windows behind the newest reservation. */
    static constexpr Cycle kHorizonWindows = 64;
    /** Fewest live entries at which an append prunes. */
    static constexpr std::size_t kMinPruneAt = 1024;

    /**
     * reserve() for a request before the newest entry: prune, then
     * search the sorted history. Kept out of line so that the append
     * path stays small enough to inline into the cache's port.
     */
    [[gnu::noinline]] Cycle
    reserveOutOfOrder(Cycle now, bool &stalled)
    {
        prune();
        const Cycle *base = ring.data() + head;
        Cycle start = now;
        for (;;) {
            // Inserting `start` must not create any run of cap+1
            // reservations spanning fewer than `win` cycles. Examine
            // every window of cap existing entries that could combine
            // with `start`.
            const std::size_t n = ring.size() - head;
            std::size_t idx;
            if (n == 0 || start >= base[n - 1]) {
                idx = n;
            } else {
                idx = static_cast<std::size_t>(
                    std::lower_bound(base, base + n, start) - base);
            }
            bool violates = false;
            Cycle retry = start;
            // k = entries at or before `start` included in the run.
            for (std::size_t k = 0; k <= cap; ++k) {
                if (k > idx)
                    break;  // not enough earlier entries
                const std::size_t first = idx - k;
                const std::size_t last = first + cap;  // cap existing
                if (last > n)
                    continue;  // not enough later entries
                // Run = entries [first, last) plus `start`.
                const Cycle run_first =
                    k > 0 ? std::min(base[first], start) : start;
                const Cycle run_last =
                    last > first ? std::max(base[last - 1], start)
                                 : start;
                if (run_last - run_first < win) {
                    violates = true;
                    // Escape past the earliest entry of the crowd.
                    retry = std::max(retry, run_first + win);
                }
            }
            if (!violates) {
                if (idx == n) {
                    ring.push_back(start);
                } else {
                    ring.insert(ring.begin() +
                                    static_cast<std::ptrdiff_t>(
                                        head + idx),
                                start);
                }
                return start;
            }
            stalled = true;
            dtexl_assert(retry > start, "rate window failed to advance");
            start = retry;
        }
    }

    /**
     * Drop the entries more than kHorizonWindows windows older than the
     * newest reservation: they can no longer constrain any request we
     * guarantee the invariant for. The rule and its `newest` are those
     * of a prune before every request, and running it only before an
     * out-of-order search (and every so many appends, to bound memory)
     * changes no grant:
     *  - a prunable entry e has e + horizon < newest <= start on the
     *    append path, so it lies more than `win` before `start` and
     *    can never stall an append;
     *  - the history is sorted, so the prunable entries are a prefix:
     *    the append path's cap-th newest entry is the one a pruned
     *    history holds there, or, when fewer than cap entries lie
     *    inside the horizon, a prunable one that cannot stall;
     *  - `newest` only grows, so an entry prunable once stays
     *    prunable, and the search sees exactly the eager history.
     * Granted density is at most cap per window inside the horizon, so
     * the live history stays below about max(2 * (kHorizonWindows + 2)
     * * cap, kMinPruneAt) entries.
     */
    [[gnu::noinline]] void
    prune()
    {
        const Cycle newest = ring.back();
        const Cycle horizon = win * kHorizonWindows;
        // Stops at the newest entry at the latest.
        while (ring[head] + horizon < newest)
            ++head;
        // Compact once the dead prefix dominates; amortized O(1).
        if (head > 1024 && head * 2 > ring.size()) {
            ring.erase(ring.begin(),
                       ring.begin() + static_cast<std::ptrdiff_t>(head));
            head = 0;
        }
        pruneAt = std::max(2 * (ring.size() - head), kMinPruneAt);
    }

    std::uint32_t cap;
    Cycle win;
    std::vector<Cycle> ring;    ///< history; live part sorted
    std::size_t head = 0;       ///< first live entry of `ring`
    /** Live entries at which the next append prunes. */
    std::size_t pruneAt = kMinPruneAt;
};

/**
 * Single-server resource reserved for variable-length intervals, also
 * tolerant of out-of-order reservation times (used for DRAM banks: a
 * bank is occupied for a burst on a row hit, burst + activate on a
 * miss).
 */
class IntervalResource
{
  public:
    /**
     * Reserve the earliest interval of @p duration starting at or
     * after @p now that does not overlap an existing reservation.
     */
    Cycle
    reserve(Cycle now, Cycle duration)
    {
        dtexl_assert(duration > 0);
        while (busy.size() > 64)
            busy.pop_front();

        // Sorted, non-overlapping intervals have sorted ends: skip the
        // prefix ending by `now`. Past it every end exceeds `start`.
        auto it = std::partition_point(
            busy.begin(), busy.end(),
            [now](const std::pair<Cycle, Cycle> &iv) {
                return iv.second <= now;
            });
        Cycle start = now;
        for (; it != busy.end(); ++it) {
            if (it->first >= start + duration)
                break;  // fits in the gap before this interval
            start = it->second;
        }
        // `it` is the sorted insert position: earlier intervals end by
        // `start`, `it` starts at or after start + duration.
        busy.insert(it, {start, start + duration});
        return start;
    }

    void clear() { busy.clear(); }

  private:
    /** Sorted, non-overlapping [start, end) reservations. */
    std::deque<std::pair<Cycle, Cycle>> busy;
};

} // namespace dtexl

#endif // DTEXL_MEM_RATE_WINDOW_HH
