/**
 * @file
 * Unit tests for the set-associative cache model: hit/miss behaviour,
 * LRU replacement, write-back of dirty victims, MSHR merging and
 * capacity stalls, port arbitration, and timing-vs-contents resets,
 * plus a differential check against a brute-force model over random
 * out-of-order access streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "mem/cache.hh"

namespace dtexl {
namespace {

/** A perfect backing store with fixed latency, recording accesses. */
class FakeMem : public MemLevel
{
  public:
    explicit FakeMem(Cycle latency) : latency(latency) {}

    Cycle
    access(Addr addr, AccessType type, Cycle now) override
    {
        ++count;
        lastAddr = addr;
        lastType = type;
        if (type == AccessType::Write)
            ++writes;
        return now + latency;
    }

    Cycle latency;
    std::uint64_t count = 0;
    std::uint64_t writes = 0;
    Addr lastAddr = 0;
    AccessType lastType = AccessType::Read;
};

CacheConfig
smallCache()
{
    // 4 sets x 2 ways x 64 B = 512 B.
    CacheConfig c;
    c.sizeBytes = 512;
    c.lineBytes = 64;
    c.ways = 2;
    c.hitLatency = 1;
    c.numMshrs = 4;
    return c;
}

TEST(Cache, ColdMissThenHit)
{
    FakeMem mem(100);
    Cache c("t", smallCache(), 4, mem);

    const Cycle t1 = c.access(0x1000, AccessType::Read, 0);
    EXPECT_EQ(t1, 101u);  // 1 cycle tag + 100 backing
    EXPECT_EQ(mem.count, 1u);
    EXPECT_EQ(c.misses(), 1u);

    // Second access at a later time hits in 1 cycle.
    const Cycle t2 = c.access(0x1000, AccessType::Read, 200);
    EXPECT_EQ(t2, 201u);
    EXPECT_EQ(mem.count, 1u);
    EXPECT_EQ(c.stats().get("read_hit"), 1u);
}

TEST(Cache, SameLineDifferentOffsetsHit)
{
    FakeMem mem(50);
    Cache c("t", smallCache(), 4, mem);
    c.access(0x1000, AccessType::Read, 0);
    c.access(0x103F, AccessType::Read, 100);  // last byte of the line
    EXPECT_EQ(mem.count, 1u);
}

TEST(Cache, HitUnderFillWaitsForData)
{
    FakeMem mem(100);
    Cache c("t", smallCache(), 4, mem);
    c.access(0x1000, AccessType::Read, 0);  // fill completes at 101
    // A second access to the same line at cycle 10 must not complete
    // before the line arrives.
    const Cycle t = c.access(0x1010, AccessType::Read, 10);
    EXPECT_GE(t, 101u);
    EXPECT_EQ(mem.count, 1u);  // merged, no extra downstream traffic
    EXPECT_EQ(c.stats().get("hit_under_fill"), 1u);
}

TEST(Cache, LruEviction)
{
    FakeMem mem(10);
    Cache c("t", smallCache(), 4, mem);
    // Three lines mapping to the same set (set stride = 4 sets * 64 B
    // = 256 B): 0x0, 0x100, 0x200.
    c.access(0x000, AccessType::Read, 0);
    c.access(0x100, AccessType::Read, 100);
    // Touch 0x000 so 0x100 becomes LRU.
    c.access(0x000, AccessType::Read, 200);
    c.access(0x200, AccessType::Read, 300);  // evicts 0x100
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_FALSE(c.contains(0x100));
    EXPECT_TRUE(c.contains(0x200));
}

TEST(Cache, DirtyVictimWritesBack)
{
    FakeMem mem(10);
    Cache c("t", smallCache(), 4, mem);
    c.access(0x000, AccessType::Write, 0);  // allocates + dirties
    c.access(0x100, AccessType::Read, 100);
    EXPECT_EQ(mem.writes, 0u);
    c.access(0x200, AccessType::Read, 200);  // evicts dirty 0x000
    EXPECT_EQ(mem.writes, 1u);
    EXPECT_EQ(c.stats().get("writeback"), 1u);
}

TEST(Cache, CleanVictimSilentlyDropped)
{
    FakeMem mem(10);
    Cache c("t", smallCache(), 4, mem);
    c.access(0x000, AccessType::Read, 0);
    c.access(0x100, AccessType::Read, 100);
    c.access(0x200, AccessType::Read, 200);
    EXPECT_EQ(mem.writes, 0u);
}

TEST(Cache, MshrCapacityStalls)
{
    FakeMem mem(1000);
    CacheConfig cfg = smallCache();
    cfg.numMshrs = 2;
    Cache c("t", cfg, 4, mem);
    // Two outstanding misses fill the MSHRs.
    c.access(0x0000, AccessType::Read, 0);
    c.access(0x1000, AccessType::Read, 0);
    // Third miss at cycle 1 must wait for an MSHR (~cycle 1001+).
    const Cycle t = c.access(0x2000, AccessType::Read, 1);
    EXPECT_GT(t, 1000u);
    EXPECT_GE(c.stats().get("mshr_stall"), 1u);
}

TEST(Cache, PortBandwidthBoundsBursts)
{
    // Ports are a sliding-window rate limit: a 1-port cache admits up
    // to 8 accesses in any 8-cycle window; the 9th is pushed a full
    // window out.
    FakeMem mem(10);
    CacheConfig cfg = smallCache();
    Cache c("t", cfg, 1, mem);  // single port
    c.access(0x000, AccessType::Read, 0);  // warm the line
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(c.access(0x000, AccessType::Read, 100), 101u) << i;
    const Cycle pushed = c.access(0x000, AccessType::Read, 100);
    EXPECT_EQ(pushed, 109u);
    EXPECT_GE(c.stats().get("port_stall"), 1u);
}

TEST(Cache, WidePortAllowsParallelHits)
{
    FakeMem mem(10);
    Cache c("t", smallCache(), 4, mem);
    c.access(0x000, AccessType::Read, 0);
    c.access(0x040, AccessType::Read, 50);
    const Cycle a = c.access(0x000, AccessType::Read, 100);
    const Cycle b = c.access(0x040, AccessType::Read, 100);
    EXPECT_EQ(a, 101u);
    EXPECT_EQ(b, 101u);
}

TEST(Cache, WriteLineAllocatesWithoutFill)
{
    FakeMem mem(100);
    Cache c("t", smallCache(), 4, mem);
    // A full-line streaming store allocates without reading below.
    const Cycle t = c.writeLine(0x000, 10);
    EXPECT_EQ(t, 11u);  // port + hit latency only
    EXPECT_EQ(mem.count, 0u);
    EXPECT_TRUE(c.contains(0x000));
    // It left the line dirty: conflicting it out writes back.
    c.access(0x100, AccessType::Read, 100);
    c.access(0x200, AccessType::Read, 200);
    EXPECT_EQ(mem.writes, 1u);
}

TEST(Cache, WriteLineHitIsCheap)
{
    FakeMem mem(100);
    Cache c("t", smallCache(), 4, mem);
    c.access(0x000, AccessType::Read, 0);
    const Cycle t = c.writeLine(0x000, 500);
    EXPECT_EQ(t, 501u);
    EXPECT_EQ(c.stats().get("write_hit"), 1u);
    EXPECT_EQ(c.stats().get("write_validate"), 0u);
}

TEST(Cache, MshrIntervalsDoNotBlockEarlierAccesses)
{
    // Misses registered at late cycles must not stall a
    // logically-earlier miss whose lifetime does not overlap theirs.
    FakeMem mem(100);
    CacheConfig cfg = smallCache();
    cfg.numMshrs = 1;
    Cache c("t", cfg, 4, mem);
    c.access(0x0000, AccessType::Read, 10'000);  // in flight 10k..10.1k
    // A miss at cycle 0 completes long before: no stall.
    const Cycle t = c.access(0x1000, AccessType::Read, 0);
    EXPECT_EQ(t, 101u);
    EXPECT_EQ(c.stats().get("mshr_stall"), 0u);
}

TEST(Cache, PrunedIntervalsKeepBlocking)
{
    // Regression for the MSHR prune policy: purging must evict only
    // intervals whose fill precedes the current access. The old
    // oldest-first size-capped prune dropped a still-in-flight miss
    // once enough later misses were recorded, so an access that
    // overlapped it sailed through without the capacity stall.
    FakeMem mem(10'000);
    CacheConfig cfg = smallCache();
    cfg.numMshrs = 2;  // history cap = 16 recorded intervals
    Cache c("t", cfg, 16, mem);

    // A long miss in flight over [1, 10001).
    EXPECT_EQ(c.access(0x0000, AccessType::Read, 0), 10'001u);

    // Dozens of instantly-completing misses: each records an interval,
    // and each purge retires the previous one (its fill precedes the
    // next access), so the history never grows — but a size-capped
    // prune would have pushed the long miss out after the 16th.
    mem.latency = 0;
    for (std::uint32_t i = 0; i < 24; ++i)
        c.access(0x100000 + Addr{i} * 64, AccessType::Read, 2 + 2 * i);
    EXPECT_EQ(c.stats().get("mshr_stall"), 0u);

    // A second long miss joins the first in flight.
    mem.latency = 10'000;
    c.access(0x200000, AccessType::Read, 100);  // in flight [101, 10101)

    // Both MSHRs are busy at cycle 5000: the probe must stall until
    // the first long miss fills at 10001, which only happens if that
    // interval survived all 24 prunes above.
    mem.latency = 0;
    const Cycle t = c.access(0x300000, AccessType::Read, 5'000);
    EXPECT_GE(t, 10'001u);
    EXPECT_GE(c.stats().get("mshr_stall"), 1u);
}

TEST(Cache, PrefetchNextLineOnMiss)
{
    FakeMem mem(50);
    CacheConfig cfg = smallCache();
    cfg.prefetchNextLine = true;
    Cache c("t", cfg, 4, mem);

    c.access(0x000, AccessType::Read, 0);
    // The demand miss also fetched line 0x040.
    EXPECT_EQ(mem.count, 2u);
    EXPECT_TRUE(c.contains(0x040));
    EXPECT_EQ(c.stats().get("prefetch_issued"), 1u);

    // The prefetched line hits (possibly under fill).
    const Cycle t = c.access(0x040, AccessType::Read, 200);
    EXPECT_EQ(t, 201u);
    EXPECT_EQ(mem.count, 2u);
}

TEST(Cache, PrefetchSkipsResidentLines)
{
    FakeMem mem(50);
    CacheConfig cfg = smallCache();
    cfg.prefetchNextLine = true;
    Cache c("t", cfg, 4, mem);
    c.access(0x040, AccessType::Read, 0);   // fetches 0x040 + 0x080
    mem.count = 0;
    c.access(0x000, AccessType::Read, 500); // next line 0x040 resident
    EXPECT_EQ(mem.count, 1u);  // only the demand fetch
}

TEST(Cache, PrefetchDisabledByDefault)
{
    FakeMem mem(50);
    Cache c("t", smallCache(), 4, mem);
    c.access(0x000, AccessType::Read, 0);
    EXPECT_EQ(mem.count, 1u);
    EXPECT_FALSE(c.contains(0x040));
}

TEST(Cache, FlushAllDropsContents)
{
    FakeMem mem(10);
    Cache c("t", smallCache(), 4, mem);
    c.access(0x000, AccessType::Read, 0);
    EXPECT_TRUE(c.contains(0x000));
    c.flushAll();
    EXPECT_FALSE(c.contains(0x000));
    // Stats survive the flush.
    EXPECT_EQ(c.reads(), 1u);
}

TEST(Cache, ResetTimingKeepsContents)
{
    FakeMem mem(100);
    Cache c("t", smallCache(), 1, mem);
    c.access(0x000, AccessType::Read, 1'000'000);
    c.resetTiming();
    EXPECT_TRUE(c.contains(0x000));
    // After a timing reset, an access at cycle 0 is not pushed behind
    // the old port cycle.
    const Cycle t = c.access(0x000, AccessType::Read, 0);
    EXPECT_EQ(t, 1u);
}

TEST(Cache, MissRateAccounting)
{
    FakeMem mem(10);
    Cache c("t", smallCache(), 4, mem);
    c.access(0x000, AccessType::Read, 0);
    c.access(0x000, AccessType::Read, 100);
    c.access(0x000, AccessType::Read, 200);
    c.access(0x040, AccessType::Read, 300);
    EXPECT_EQ(c.accesses(), 4u);
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.5);
}

TEST(Cache, LaterAccessWithEarlierTimestampSeesRetiredFill)
{
    // Pending fills retire lazily: the first access starting at or
    // past the fill retires it for every access simulated afterwards,
    // including one whose timestamp precedes the fill.
    FakeMem mem(100);
    Cache c("t", smallCache(), 4, mem);
    c.access(0x1000, AccessType::Read, 0);  // fill completes at 101
    EXPECT_EQ(c.access(0x1000, AccessType::Read, 500), 501u);
    EXPECT_EQ(c.access(0x1000, AccessType::Read, 10), 11u);
    EXPECT_EQ(c.stats().get("hit_under_fill"), 0u);
    EXPECT_EQ(c.stats().get("read_hit"), 2u);

    // Without the retiring access in between, the early access still
    // waits for the line.
    FakeMem mem2(100);
    Cache c2("t", smallCache(), 4, mem2);
    c2.access(0x1000, AccessType::Read, 0);
    EXPECT_EQ(c2.access(0x1000, AccessType::Read, 50), 101u);
    EXPECT_EQ(c2.access(0x1000, AccessType::Read, 10), 101u);
    EXPECT_EQ(c2.stats().get("hit_under_fill"), 2u);
}

TEST(Cache, PrefetchSkipsLineWithFillInFlight)
{
    FakeMem mem(100);
    CacheConfig cfg = smallCache();
    cfg.prefetchNextLine = true;
    Cache c("t", cfg, 4, mem);
    // Demand miss on 0x1040 (fill at 101) prefetches 0x1080.
    EXPECT_EQ(c.access(0x1040, AccessType::Read, 0), 101u);
    EXPECT_EQ(mem.count, 2u);
    // A miss on 0x1000 finds its next line 0x1040 still in flight:
    // resident, so no second fetch and no prefetch.
    c.access(0x1000, AccessType::Read, 5);
    EXPECT_EQ(mem.count, 3u);
    EXPECT_EQ(c.stats().get("prefetch_issued"), 1u);
    // The in-flight line keeps its own fill cycle.
    EXPECT_EQ(c.access(0x1040, AccessType::Read, 10), 101u);
    EXPECT_EQ(c.stats().get("hit_under_fill"), 1u);
}

/**
 * Brute-force model of Cache over a fixed-latency backing store: a
 * line-address -> fill-cycle map for pending fills (retired lazily,
 * exactly as the cache does), and MSHR occupancy found by rescanning
 * every retained interval at each candidate start cycle. Ports use the
 * real RateWindow, which has its own tests.
 */
class CacheModel
{
  public:
    CacheModel(const CacheConfig &cfg, std::uint32_t ports, Cycle latency)
        : cfg(cfg), latency(latency), port(ports * 8, 8),
          lines(std::size_t{cfg.numSets()} * cfg.ways)
    {}

    Cycle
    access(Addr addr, AccessType type, Cycle now)
    {
        const Addr la = addr & ~Addr{cfg.lineBytes - 1};
        bool stalled = false;
        const Cycle start = port.reserve(now, stalled);
        auto pending = pendingFills.find(la);
        if (pending != pendingFills.end() && pending->second <= start) {
            pendingFills.erase(pending);
            pending = pendingFills.end();
        }
        if (Line *l = find(la)) {
            l->lru = ++clock;
            l->dirty |= type == AccessType::Write;
            Cycle done = start + cfg.hitLatency;
            if (pending != pendingFills.end()) {
                ++hitUnderFill;
                done = std::max(done, pending->second);
            } else {
                ++hits;
            }
            return done;
        }
        ++misses;
        const Cycle issue = acquireMshr(start) + cfg.hitLatency;
        const Cycle fill = allocate(la, type == AccessType::Write, issue);
        if (cfg.prefetchNextLine) {
            const Addr nla = la + cfg.lineBytes;
            if (!find(nla) && pendingFills.count(nla) == 0) {
                ++prefetches;
                allocate(nla, false, acquireMshr(issue));
            }
        }
        return fill;
    }

    std::uint64_t hits = 0, misses = 0, hitUnderFill = 0;
    std::uint64_t mshrStall = 0, writebacks = 0, prefetches = 0;
    std::uint64_t downstreamReads = 0;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false, dirty = false;
        std::uint64_t lru = 0;
    };
    struct Interval
    {
        Cycle start, fill;
    };

    Line *
    find(Addr la)
    {
        const std::size_t set = (la / cfg.lineBytes) % cfg.numSets();
        for (std::uint32_t w = 0; w < cfg.ways; ++w) {
            Line &l = lines[set * cfg.ways + w];
            if (l.valid && l.tag == la)
                return &l;
        }
        return nullptr;
    }

    Cycle
    allocate(Addr la, bool dirty, Cycle issue)
    {
        const std::size_t set = (la / cfg.lineBytes) % cfg.numSets();
        Line *victim = nullptr;
        for (std::uint32_t w = 0; w < cfg.ways; ++w) {
            Line &l = lines[set * cfg.ways + w];
            if (!l.valid) {
                victim = &l;
                break;
            }
            if (!victim || l.lru < victim->lru)
                victim = &l;
        }
        if (victim->valid) {
            writebacks += victim->dirty ? 1 : 0;
            pendingFills.erase(victim->tag);
        }
        ++downstreamReads;
        const Cycle fill = issue + latency;
        *victim = Line{la, true, dirty, ++clock};
        pendingFills[la] = fill;
        intervals.push_back({issue, fill});
        return fill;
    }

    Cycle
    acquireMshr(Cycle ready)
    {
        std::vector<Interval> keep;
        for (const Interval &iv : intervals)
            if (iv.fill > ready)
                keep.push_back(iv);
        const std::size_t cap = std::size_t{cfg.numMshrs} * 8;
        if (keep.size() > cap)
            keep.erase(keep.begin(), keep.end() - cap);
        intervals = keep;
        Cycle start = ready;
        for (;;) {
            std::uint32_t occupied = 0;
            Cycle next_free = kCycleNever;
            for (const Interval &iv : intervals) {
                if (iv.start <= start && start < iv.fill) {
                    ++occupied;
                    next_free = std::min(next_free, iv.fill);
                }
            }
            if (occupied < cfg.numMshrs)
                return start;
            ++mshrStall;
            start = next_free;
        }
    }

    CacheConfig cfg;
    Cycle latency;
    RateWindow port;
    std::vector<Line> lines;
    std::uint64_t clock = 0;
    std::map<Addr, Cycle> pendingFills;
    std::vector<Interval> intervals;
};

class CacheModelTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>>
{};

TEST_P(CacheModelTest, MatchesRescanModelOnOutOfOrderStreams)
{
    const std::uint64_t seed = std::get<0>(GetParam());
    CacheConfig cfg = smallCache();
    cfg.numMshrs = 2 + static_cast<std::uint32_t>(seed % 4);
    cfg.prefetchNextLine = std::get<1>(GetParam());
    const Cycle latency = 150 + seed % 200;
    FakeMem mem(latency);
    Cache c("t", cfg, 2, mem);
    CacheModel model(cfg, 2, latency);

    // 24 lines over 4 sets x 2 ways: hits, conflicts and refetches
    // while fills are in flight. Timestamps drift forward with
    // jitter both ways, so accesses arrive out of order, land inside
    // each other's fills and pile up behind full MSHRs.
    Rng rng(seed);
    Cycle base = 1000;
    for (int i = 0; i < 5000; ++i) {
        base += rng.nextBounded(8);
        const Cycle now = base - 1000 + rng.nextBounded(1200);
        const Addr addr = rng.nextBounded(24) * 64 + rng.nextBounded(64);
        const AccessType type = rng.nextBounded(4) == 0
                                    ? AccessType::Write
                                    : AccessType::Read;
        ASSERT_EQ(c.access(addr, type, now), model.access(addr, type, now))
            << "access " << i << " to " << addr << " at " << now;
    }
    EXPECT_EQ(c.stats().get("read_hit") + c.stats().get("write_hit"),
              model.hits);
    EXPECT_EQ(c.misses(), model.misses);
    EXPECT_EQ(c.stats().get("hit_under_fill"), model.hitUnderFill);
    EXPECT_EQ(c.stats().get("mshr_stall"), model.mshrStall);
    EXPECT_EQ(c.stats().get("writeback"), model.writebacks);
    EXPECT_EQ(c.stats().get("prefetch_issued"), model.prefetches);
    EXPECT_EQ(mem.count - mem.writes, model.downstreamReads);
    // The stream must exercise what it claims to check.
    EXPECT_GT(model.mshrStall, 0u);
    EXPECT_GT(model.hitUnderFill, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CacheModelTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                       ::testing::Bool()));

/**
 * One random footprint stream through readLines() and through n
 * access(Read) calls on a twin; see ReadLinesMatchesSequentialAccesses.
 */
void
expectReadLinesMatchSequential(std::uint64_t seed, bool prefetch)
{
    CacheConfig cfg = smallCache();
    cfg.numMshrs = 2;
    cfg.prefetchNextLine = prefetch;
    FakeMem mem_batch(170), mem_seq(170);
    Cache batch("t", cfg, 2, mem_batch);
    Cache seq("t", cfg, 2, mem_seq);

    // Lines kHitFilterSlots apart share one hit-filter entry and (4
    // sets) one set, so their evictions overwrite lines the filter
    // still points at.
    const Addr alias_stride = Cache::kHitFilterSlots * cfg.lineBytes;
    Rng rng(seed);
    Cycle now = 0;
    std::array<Addr, 16> lines;
    for (int call = 0; call < 3000; ++call) {
        // Nondecreasing issue cycles; most calls share a cycle with
        // the previous one, so bursts exceed the port rate.
        if (rng.nextBounded(4) == 0)
            now += rng.nextBounded(60);
        const std::uint32_t n = 1 + rng.nextBounded(16);
        for (std::uint32_t l = 0; l < n; ++l) {
            const std::uint32_t kind = rng.nextBounded(4);
            if (kind == 0 && l > 0)
                lines[l] = lines[rng.nextBounded(l)];  // within the call
            else if (kind == 1)
                lines[l] = rng.nextBounded(4) * alias_stride +
                           rng.nextBounded(4) * cfg.lineBytes;
            else
                lines[l] = rng.nextBounded(40) * cfg.lineBytes +
                           rng.nextBounded(cfg.lineBytes);
        }
        Cycle expect = now;
        for (std::uint32_t l = 0; l < n; ++l)
            expect = std::max(expect,
                              seq.access(lines[l], AccessType::Read, now));
        ASSERT_EQ(batch.readLines(lines.data(), n, now), expect)
            << "call " << call << " at " << now;
        // Occasional stores dirty lines, so victims write back.
        if (rng.nextBounded(8) == 0) {
            const Addr w = rng.nextBounded(40) * cfg.lineBytes;
            ASSERT_EQ(batch.access(w, AccessType::Write, now),
                      seq.access(w, AccessType::Write, now));
        }
    }
    EXPECT_EQ(batch.stats().counters(), seq.stats().counters());
    EXPECT_EQ(mem_batch.count, mem_seq.count);
    EXPECT_EQ(mem_batch.writes, mem_seq.writes);
    ByteWriter wb, ws;
    batch.saveWarmState(wb);
    seq.saveWarmState(ws);
    EXPECT_EQ(wb.data(), ws.data());
    // The streams must exercise what they claim to check.
    EXPECT_GT(seq.stats().get("mshr_stall"), 0u);
    EXPECT_GT(seq.stats().get("port_stall"), 0u);
    EXPECT_GT(seq.stats().get("hit_under_fill"), 0u);
    EXPECT_GT(seq.stats().get("writeback"), 0u);
    EXPECT_EQ(seq.stats().get("prefetch_issued") > 0, cfg.prefetchNextLine);
}

TEST(Cache, ReadLinesMatchesSequentialAccesses)
{
    // readLines() over a footprint must be exactly n access(Read)
    // calls at the same cycle: same result, same stats, same tags and
    // LRU state. Two MSHRs, a 2-wide port and optional prefetch keep
    // the miss path under pressure.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        for (const bool prefetch : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << " prefetch " << prefetch);
            expectReadLinesMatchSequential(seed, prefetch);
        }
    }
}

/** Associativity sweep: with W ways, W conflicting lines fit. */
class CacheWaysTest : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(CacheWaysTest, WaysLinesCoResident)
{
    const std::uint32_t ways = GetParam();
    FakeMem mem(10);
    CacheConfig cfg;
    cfg.sizeBytes = 64 * 4 * ways;  // 4 sets
    cfg.lineBytes = 64;
    cfg.ways = ways;
    cfg.numMshrs = 16;
    Cache c("t", cfg, 4, mem);

    const Addr stride = 4 * 64;  // same set
    for (std::uint32_t i = 0; i < ways; ++i)
        c.access(i * stride, AccessType::Read, i * 100);
    for (std::uint32_t i = 0; i < ways; ++i)
        EXPECT_TRUE(c.contains(i * stride)) << "way " << i;
    // One more conflicts out exactly the LRU line (line 0).
    c.access(ways * stride, AccessType::Read, ways * 100);
    EXPECT_FALSE(c.contains(0));
    EXPECT_TRUE(c.contains(stride));
}

INSTANTIATE_TEST_SUITE_P(Associativity, CacheWaysTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

} // namespace
} // namespace dtexl
