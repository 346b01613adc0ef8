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
     * `ring` holds the sorted history in [head, ring.size()), pruning
     * advances `head`, and the dead prefix is compacted in bulk.
     * Appends (the in-order common case) skip the binary search
     * entirely.
     */
    Cycle
    reserve(Cycle now, bool &stalled)
    {
        // Bound the history by a time horizon: entries more than
        // kHorizonWindows windows older than the newest reservation
        // can no longer constrain any request we guarantee the
        // invariant for. Because granted density is at most cap/win,
        // this also bounds memory to ~kHorizonWindows * cap entries.
        const std::size_t live = ring.size() - head;
        if (live > 0) {
            const Cycle newest = ring.back();
            const Cycle horizon = win * kHorizonWindows;
            while (head < ring.size() &&
                   ring[head] + horizon < newest) {
                ++head;
            }
            // Compact once the dead prefix dominates; amortized O(1).
            if (head > 1024 && head * 2 > ring.size()) {
                ring.erase(ring.begin(),
                           ring.begin() +
                               static_cast<std::ptrdiff_t>(head));
                head = 0;
            }
        }

        stalled = false;
        const Cycle *base = ring.data() + head;
        Cycle start = now;
        {
            // Append fast path, O(1): with nothing after `start`, the
            // only candidate run the k loop below could flag is `start`
            // plus the newest `cap` entries (k = cap is the only k with
            // first + cap <= n), so the whole violation scan collapses
            // to one comparison against base[n - cap]. After one
            // advance to base[n - cap] + win the run spans exactly
            // `win` cycles — no violation — and `start` only grew, so
            // the append precondition still holds.
            const std::size_t n = ring.size() - head;
            if (n == 0 || start >= base[n - 1]) {
                if (n >= cap && start < base[n - cap] + win) {
                    stalled = true;
                    start = base[n - cap] + win;
                }
                ring.push_back(start);
                return start;
            }
        }
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

    void
    clear()
    {
        ring.clear();
        head = 0;
    }

  private:
    /** Retained history, in windows behind the newest reservation. */
    static constexpr Cycle kHorizonWindows = 64;

    std::uint32_t cap;
    Cycle win;
    std::vector<Cycle> ring;    ///< history; live part sorted
    std::size_t head = 0;       ///< first live entry of `ring`
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
