/**
 * @file
 * Tests for the out-of-order-tolerant bandwidth primitives: the
 * sliding-window rate limiter and the single-server interval resource
 * (the key to correct contention modelling in a sequentially-simulated
 * pipeline — see rate_window.hh).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "common/rng.hh"
#include "mem/rate_window.hh"

namespace dtexl {
namespace {

TEST(RateWindow, AdmitsUpToCapacityAtOnce)
{
    RateWindow rw(4, 8);
    bool stalled = false;
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(rw.reserve(100, stalled), 100u);
        EXPECT_FALSE(stalled);
    }
    // 5th in the same window is pushed a window out.
    EXPECT_EQ(rw.reserve(100, stalled), 108u);
    EXPECT_TRUE(stalled);
}

TEST(RateWindow, SteadyStreamAtRate)
{
    // Capacity 2 per 4 cycles: a request every 2 cycles never stalls.
    RateWindow rw(2, 4);
    bool stalled = false;
    for (Cycle t = 0; t < 100; t += 2) {
        EXPECT_EQ(rw.reserve(t, stalled), t);
        EXPECT_FALSE(stalled) << t;
    }
}

TEST(RateWindow, EarlierRequestNotBlockedByLaterOnes)
{
    // The artifact this class exists to avoid: requests already
    // registered at a later time must not delay a logically-earlier
    // request in a disjoint window.
    RateWindow rw(2, 8);
    bool stalled = false;
    for (int i = 0; i < 2; ++i)
        rw.reserve(1000, stalled);
    // The window at cycle 100 is empty: grant immediately.
    EXPECT_EQ(rw.reserve(100, stalled), 100u);
    EXPECT_FALSE(stalled);
}

TEST(RateWindow, EarlierRequestStillSeesItsOwnWindow)
{
    RateWindow rw(1, 8);
    bool stalled = false;
    rw.reserve(100, stalled);
    // A later out-of-order request inside (100, 108) must queue.
    EXPECT_EQ(rw.reserve(104, stalled), 108u);
    EXPECT_TRUE(stalled);
}

TEST(RateWindow, SequentialOverloadQueues)
{
    RateWindow rw(1, 10);
    bool stalled = false;
    EXPECT_EQ(rw.reserve(0, stalled), 0u);
    EXPECT_EQ(rw.reserve(0, stalled), 10u);
    EXPECT_EQ(rw.reserve(0, stalled), 20u);
}

TEST(RateWindow, ClearResets)
{
    RateWindow rw(1, 10);
    bool stalled = false;
    rw.reserve(0, stalled);
    rw.clear();
    EXPECT_EQ(rw.reserve(0, stalled), 0u);
    EXPECT_FALSE(stalled);
}

class RateWindowRandomTest
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RateWindowRandomTest, InvariantHoldsUnderRandomTraffic)
{
    // Property: whatever the (possibly out-of-order) request stream,
    // the granted start times never put more than `cap` starts in any
    // window of W cycles, and every grant is >= its request.
    Rng rng(GetParam());
    const std::uint32_t cap = 3 + GetParam() % 5;
    const Cycle win = 6 + GetParam() % 9;
    RateWindow rw(cap, win);

    std::vector<Cycle> grants;
    Cycle base = 0;
    for (int i = 0; i < 400; ++i) {
        // Drifting base with out-of-order jitter.
        base += rng.nextBounded(3);
        const Cycle req = base + rng.nextBounded(20);
        bool stalled = false;
        const Cycle got = rw.reserve(req, stalled);
        EXPECT_GE(got, req);
        grants.push_back(got);
    }
    std::sort(grants.begin(), grants.end());
    for (std::size_t i = 0; i + cap < grants.size(); ++i) {
        // The (i+cap)-th grant must start a full window after the
        // i-th if they would otherwise overcrowd the window.
        EXPECT_GE(grants[i + cap], grants[i] + win)
            << "window overcrowded at grant " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RateWindowRandomTest,
                         ::testing::Values(1u, 7u, 13u, 29u));

/**
 * The original RateWindow formulation, kept as a differential model:
 * a sorted std::deque history bounded by the same time horizon, a
 * binary search for the insert position and the full violation scan
 * on every request, with no in-order append shortcut.
 */
class RateWindowModel
{
  public:
    RateWindowModel(std::uint32_t capacity, Cycle window)
        : cap(capacity), win(window)
    {}

    Cycle
    reserve(Cycle now, bool &stalled)
    {
        if (!starts.empty()) {
            const Cycle newest = starts.back();
            while (!starts.empty() &&
                   starts.front() + win * kHorizonWindows < newest)
                starts.pop_front();
        }
        stalled = false;
        Cycle start = now;
        for (;;) {
            const std::size_t idx = static_cast<std::size_t>(
                std::lower_bound(starts.begin(), starts.end(), start) -
                starts.begin());
            bool violates = false;
            Cycle retry = start;
            for (std::size_t k = 0; k <= cap && k <= idx; ++k) {
                const std::size_t first = idx - k;
                const std::size_t last = first + cap;
                if (last > starts.size())
                    continue;
                const Cycle run_first =
                    k > 0 ? std::min(starts[first], start) : start;
                const Cycle run_last =
                    last > first ? std::max(starts[last - 1], start)
                                 : start;
                if (run_last - run_first < win) {
                    violates = true;
                    retry = std::max(retry, run_first + win);
                }
            }
            if (!violates) {
                starts.insert(starts.begin() +
                                  static_cast<std::ptrdiff_t>(idx),
                              start);
                return start;
            }
            stalled = true;
            start = retry;
        }
    }

    void clear() { starts.clear(); }

  private:
    /** Same retained-history horizon as RateWindow. */
    static constexpr Cycle kHorizonWindows = 64;

    std::uint32_t cap;
    Cycle win;
    std::deque<Cycle> starts;
};

TEST(RateWindow, MatchesDequeModel)
{
    // Same start cycle and stall flag as the model for arbitrary
    // out-of-order request streams, across (capacity, window) shapes.
    const struct
    {
        std::uint32_t cap;
        Cycle win;
    } shapes[] = {{1, 1}, {2, 8}, {16, 8}, {32, 64}, {8, 256}};

    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto next = [&rng]() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };

    for (const auto &shape : shapes) {
        RateWindow rw(shape.cap, shape.win);
        RateWindowModel model(shape.cap, shape.win);
        Cycle base = 0;
        for (int i = 0; i < 20000; ++i) {
            // Mostly forward drift with out-of-order jitter, plus
            // occasional large jumps to exercise horizon pruning.
            base += next() % 3;
            if (next() % 512 == 0)
                base += shape.win * 200;
            const Cycle jitter = next() % (2 * shape.win + 1);
            const Cycle now = base > jitter ? base - jitter : Cycle{0};
            bool got_stalled = false, want_stalled = false;
            ASSERT_EQ(rw.reserve(now, got_stalled),
                      model.reserve(now, want_stalled))
                << "cap=" << shape.cap << " win=" << shape.win
                << " i=" << i;
            ASSERT_EQ(got_stalled, want_stalled) << "i=" << i;
        }
        rw.clear();
        model.clear();
        bool s1 = false, s2 = false;
        EXPECT_EQ(rw.reserve(5, s1), model.reserve(5, s2));
    }
}

TEST(RateWindow, MatchesDequeModelAtTheHorizon)
{
    // MatchesDequeModel's jitter stays within two windows of the
    // newest reservation, so it never reaches the retained-history
    // horizon (64 windows). Here, for the L1 port shape (32 per 8
    // cycles) and the L2 shape (16 per 8 cycles): long in-order runs,
    // some bursty enough to stall, then requests 63-65 windows behind
    // the newest entry (one exactly at entry + horizon == newest) and
    // forward jumps of 63-65 windows that leave fewer than `cap`
    // entries inside the horizon.
    const struct
    {
        std::uint32_t cap;
        Cycle win;
    } shapes[] = {{32, 8}, {16, 8}};

    Rng rng(0x4c31);
    for (const auto &shape : shapes) {
        const Cycle horizon = 64 * shape.win;
        RateWindow rw(shape.cap, shape.win);
        RateWindowModel model(shape.cap, shape.win);
        Cycle newest = 0;
        std::uint64_t requests = 0;
        auto request = [&](Cycle now) {
            bool got_stalled = false, want_stalled = false;
            const Cycle got = rw.reserve(now, got_stalled);
            const Cycle want = model.reserve(now, want_stalled);
            ++requests;
            EXPECT_EQ(got, want) << "cap=" << shape.cap << " request "
                                 << requests << " at " << now;
            EXPECT_EQ(got_stalled, want_stalled)
                << "cap=" << shape.cap << " request " << requests;
            newest = std::max(newest, want);
            return want;
        };
        Cycle t = 0;
        for (int round = 0; round < 40; ++round) {
            // In-order run: a steady stream with occasional bursts of
            // up to 2 * cap requests on one cycle.
            const std::uint64_t run = 500 + rng.nextBounded(3000);
            for (std::uint64_t i = 0; i < run; ++i) {
                t = std::max(t, newest) + rng.nextBounded(3);
                const std::uint64_t burst =
                    rng.nextBounded(64) == 0
                        ? 1 + rng.nextBounded(2 * shape.cap)
                        : 1;
                for (std::uint64_t b = 0; b < burst; ++b)
                    request(t);
            }
            // Requests 63-65 windows behind the newest entry.
            for (Cycle d = 63; d <= 65; ++d) {
                for (Cycle off : {Cycle{0}, Cycle{1}, shape.win - 1}) {
                    const Cycle back = d * shape.win + off;
                    if (newest >= back)
                        request(newest - back);
                }
            }
            // Exactly on the horizon: granted at newest - horizon, then
            // judged against an append at newest and an out-of-order
            // request just before and after it.
            if (newest >= horizon + 1) {
                const Cycle e = request(newest - horizon);
                request(newest);
                request(e - 1);
                request(e + 1);
                for (std::uint32_t i = 0; i < shape.cap + 1; ++i)
                    request(e);
            }
            // A forward jump of 63-65 windows, then appends on one
            // cycle: fewer than `cap` entries lie inside the horizon.
            const Cycle jump = (63 + rng.nextBounded(3)) * shape.win +
                               rng.nextBounded(shape.win);
            t = newest + jump;
            for (std::uint64_t i = 0; i < 2 * shape.cap; ++i)
                request(t);
            request(t - jump);
            request(t - horizon);
        }
        EXPECT_GT(requests, 40u * 500u);
    }
}

TEST(IntervalResource, NonOverlappingReservations)
{
    IntervalResource res;
    EXPECT_EQ(res.reserve(0, 10), 0u);
    EXPECT_EQ(res.reserve(20, 10), 20u);
    // A request inside an existing reservation queues behind it.
    EXPECT_EQ(res.reserve(5, 10), 10u);
}

TEST(IntervalResource, FillsGaps)
{
    IntervalResource res;
    res.reserve(0, 10);    // [0,10)
    res.reserve(30, 10);   // [30,40)
    // A 5-cycle request at 12 fits the [10,30) gap.
    EXPECT_EQ(res.reserve(12, 5), 12u);
    // A 25-cycle request at 10 does not fit before [30,40): it lands
    // after.
    EXPECT_EQ(res.reserve(10, 25), 40u);
}

TEST(IntervalResource, EarlierRequestUsesEarlierSlot)
{
    IntervalResource res;
    res.reserve(100, 50);  // [100,150)
    // A logically-earlier request fits entirely before it.
    EXPECT_EQ(res.reserve(10, 20), 10u);
}

TEST(IntervalResource, BackToBackChains)
{
    IntervalResource res;
    Cycle t = 0;
    for (int i = 0; i < 5; ++i)
        t = res.reserve(0, 7);
    EXPECT_EQ(t, 28u);  // fifth of five 7-cycle slots from 0
}

TEST(IntervalResource, ClearResets)
{
    IntervalResource res;
    res.reserve(0, 100);
    res.clear();
    EXPECT_EQ(res.reserve(0, 10), 0u);
}

TEST(IntervalResource, DroppedHistoryNoLongerBlocks)
{
    // The resource keeps at most 64 intervals before a reservation,
    // dropping the earliest-starting ones: after 66 back-to-back
    // 10-cycle slots from 0, [0,10) and [10,20) are gone, so a late
    // request for cycle 0 gets it.
    IntervalResource res;
    for (Cycle i = 0; i < 66; ++i)
        ASSERT_EQ(res.reserve(i * 10, 10), i * 10);
    EXPECT_EQ(res.reserve(0, 10), 0u);
}

/**
 * Brute-force model of IntervalResource: the same 64-entry history
 * bound, and first fit found by trying every candidate start — the
 * request cycle and every recorded end after it — in increasing order
 * against every recorded interval.
 */
class IntervalModel
{
  public:
    Cycle
    reserve(Cycle now, Cycle duration)
    {
        while (busy.size() > 64) {
            busy.erase(std::min_element(
                busy.begin(), busy.end(),
                [](const Iv &a, const Iv &b) { return a.s < b.s; }));
        }
        std::vector<Cycle> cands{now};
        for (const Iv &iv : busy)
            if (iv.e > now)
                cands.push_back(iv.e);
        std::sort(cands.begin(), cands.end());
        for (Cycle t : cands) {
            bool overlaps = false;
            for (const Iv &iv : busy)
                overlaps |= iv.s < t + duration && t < iv.e;
            if (!overlaps) {
                busy.push_back({t, t + duration});
                return t;
            }
        }
        ADD_FAILURE() << "no candidate fits";
        return now;
    }

  private:
    struct Iv
    {
        Cycle s, e;
    };
    std::vector<Iv> busy;
};

class IntervalResourceRandomTest
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(IntervalResourceRandomTest, MatchesFirstFitModel)
{
    // Out-of-order request stream: a drifting base with jitter both
    // ways, long enough that the 64-entry drop fires hundreds of
    // times, and gaps narrow enough that first fit lands both in gaps
    // and after chains.
    Rng rng(GetParam());
    IntervalResource res;
    IntervalModel model;
    Cycle base = 200;
    for (int i = 0; i < 2000; ++i) {
        base += rng.nextBounded(12);
        const Cycle now = base - 200 + rng.nextBounded(260);
        const Cycle duration = 1 + rng.nextBounded(16);
        ASSERT_EQ(res.reserve(now, duration),
                  model.reserve(now, duration))
            << "request " << i << " at " << now << " for " << duration;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalResourceRandomTest,
                         ::testing::Values(1u, 7u, 13u, 29u));

} // namespace
} // namespace dtexl
