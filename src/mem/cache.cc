#include "mem/cache.hh"

#include <algorithm>
#include <bit>
#include <functional>

#include "common/fault_inject.hh"
#include "common/log.hh"
#include "common/serial.hh"
#include "common/sim_error.hh"

namespace dtexl {

Cache::Cache(std::string name, const CacheConfig &cfg,
             std::uint32_t accesses_per_cycle, MemLevel &next)
    : name(std::move(name)), cfg(cfg), portsPerCycle(accesses_per_cycle),
      nextLevel(next), lines(std::size_t{cfg.numSets()} * cfg.ways),
      port(accesses_per_cycle * kPortWindow, kPortWindow),
      stats_(this->name)
{
    dtexl_assert(portsPerCycle > 0);
    dtexl_assert(std::has_single_bit(cfg.lineBytes),
                 "line size must be a power of two");
    dtexl_assert(std::has_single_bit(cfg.numSets()),
                 "set count must be a power of two");
    lineShift = static_cast<std::uint32_t>(std::countr_zero(cfg.lineBytes));
    setMask = cfg.numSets() - 1;
    clearHitFilter();
    hot.read = &stats_.handle("read");
    hot.write = &stats_.handle("write");
    hot.readHit = &stats_.handle("read_hit");
    hot.writeHit = &stats_.handle("write_hit");
    hot.readMiss = &stats_.handle("read_miss");
    hot.writeMiss = &stats_.handle("write_miss");
    hot.hitUnderFill = &stats_.handle("hit_under_fill");
    hot.mshrStall = &stats_.handle("mshr_stall");
    hot.portStall = &stats_.handle("port_stall");
    hot.writeback = &stats_.handle("writeback");
    hot.writeValidate = &stats_.handle("write_validate");
    hot.prefetchIssued = &stats_.handle("prefetch_issued");
}

void
Cache::clearHitFilter()
{
    hitFilter.fill(&lines.front());
}

void
Cache::install(Line &victim, Addr line_addr, bool dirty,
               Cycle pending_fill)
{
    victim.valid = true;
    victim.tag = line_addr;
    victim.dirty = dirty;
    victim.lruStamp = ++lruCounter;
    victim.pendingFill = pending_fill;
    hitFilter[filterSlot(line_addr)] = &victim;
}

Cache::Line &
Cache::findVictim(std::size_t set)
{
    Line *victim = nullptr;
    for (std::uint32_t w = 0; w < cfg.ways; ++w) {
        Line &l = lines[set * cfg.ways + w];
        if (!l.valid)
            return l;
        if (!victim || l.lruStamp < victim->lruStamp)
            victim = &l;
    }
    return *victim;
}

void
Cache::purgeMshrs(Cycle now)
{
    // Retire intervals whose fill completed at or before `now`: the
    // occupancy scan only counts intervals with start <= t < fill at
    // query times t that never go below `now` (the retry loop only
    // advances), so a completed interval can never contribute again.
    // The previous oldest-first size-capped eviction could drop
    // still-in-flight intervals under MSHR pressure and under-count
    // occupancy across the prune boundary (see
    // Cache.PrunedIntervalsKeepBlocking).
    std::size_t keep = 0;
    for (std::size_t i = 0; i < mshrIntervals.size(); ++i) {
        if (mshrIntervals[i].fill > now)
            mshrIntervals[keep++] = mshrIntervals[i];
    }
    mshrIntervals.resize(keep);

    // Backstop for pathologically out-of-order access streams: only
    // in-flight intervals remain, so exceeding the cap means more
    // concurrent fills than the bounded history can distinguish.
    const std::size_t cap = std::size_t{cfg.numMshrs} * 8;
    if (mshrIntervals.size() > cap) {
        mshrIntervals.erase(mshrIntervals.begin(),
                            mshrIntervals.begin() +
                                static_cast<std::ptrdiff_t>(
                                    mshrIntervals.size() - cap));
    }
}

Cycle
Cache::acquireMshr(Cycle ready)
{
    // Purging is part of the model's semantics, not just a memory
    // bound: access times are out-of-order, so an interval dropped at
    // one access's (later) timestamp may have overlapped a subsequent
    // access's (earlier) timestamp. So every acquire purges first.
    purgeMshrs(ready);
    if (mshrIntervals.size() < cfg.numMshrs)
        return ready;  // no cycle can be at capacity

    // Start at the first cycle t >= ready with fewer than numMshrs
    // intervals start <= t < fill. The min-heap holds the fills of the
    // intervals started by `start` (all retained fills are > ready);
    // later ones join in start order. Heap size is the occupancy, its
    // top the next cycle an MSHR frees.
    const auto later_fill = std::greater<Cycle>();
    mshrFillHeap.clear();
    mshrLater.clear();
    for (const MshrInterval &iv : mshrIntervals) {
        if (iv.start <= ready)
            mshrFillHeap.push_back(iv.fill);
        else
            mshrLater.push_back(iv);
    }
    if (mshrFillHeap.size() < cfg.numMshrs)
        return ready;
    std::make_heap(mshrFillHeap.begin(), mshrFillHeap.end(), later_fill);
    std::sort(mshrLater.begin(), mshrLater.end(),
              [](const MshrInterval &a, const MshrInterval &b) {
                  return a.start < b.start;
              });
    Cycle start = ready;
    std::size_t next_later = 0;
    while (mshrFillHeap.size() >= cfg.numMshrs) {
        ++*hot.mshrStall;
        start = mshrFillHeap.front();
        while (!mshrFillHeap.empty() && mshrFillHeap.front() <= start) {
            std::pop_heap(mshrFillHeap.begin(), mshrFillHeap.end(),
                          later_fill);
            mshrFillHeap.pop_back();
        }
        for (; next_later < mshrLater.size() &&
               mshrLater[next_later].start <= start;
             ++next_later) {
            if (mshrLater[next_later].fill > start) {
                mshrFillHeap.push_back(mshrLater[next_later].fill);
                std::push_heap(mshrFillHeap.begin(), mshrFillHeap.end(),
                               later_fill);
            }
        }
    }
    if (telemetry && start > ready)
        telemetry->span(ready, start, StallReason::MshrFull);
    return start;
}

inline Cycle
Cache::arbitratePort(Cycle now)
{
    bool stalled = false;
    const Cycle start = port.reserve(now, stalled);
    if (stalled)
        ++*hot.portStall;
    if (telemetry) {
        if (start > now)
            telemetry->span(now, start, StallReason::BankConflict);
        telemetry->busy(start, start + 1);
    }
    return start;
}

inline Cache::Line *
Cache::lookup(Addr line_addr, AccessType type)
{
    // Hit filter first: a valid tag match is the line the way loop
    // below would find (see hitFilter).
    Line *&entry = hitFilter[filterSlot(line_addr)];
    Line *line = entry;
    if (!line->valid || line->tag != line_addr) {
        line = nullptr;
        Line *set = &lines[setIndex(line_addr) * cfg.ways];
        for (std::uint32_t w = 0; w < cfg.ways; ++w) {
            if (set[w].valid && set[w].tag == line_addr) {
                line = &set[w];
                break;
            }
        }
        if (!line)
            return nullptr;
        entry = line;
    }
    line->lruStamp = ++lruCounter;
    if (type == AccessType::Write)
        line->dirty = true;
    return line;
}

inline Cycle
Cache::accessLine(Addr la, AccessType type, Cycle now)
{
    ++*(type == AccessType::Read ? hot.read : hot.write);

    const Cycle start = arbitratePort(now);

    if (Line *line = lookup(la, type)) {
        // Lazy retire: a fill done by this start stays retired for
        // every later-simulated access, even an earlier-timestamped one.
        if (line->pendingFill <= start)
            line->pendingFill = 0;
        Cycle done = start + cfg.hitLatency;
        if (line->pendingFill != 0) {
            ++*hot.hitUnderFill;
            done = std::max(done, line->pendingFill);
        } else {
            ++*(type == AccessType::Read ? hot.readHit : hot.writeHit);
        }
        return done;
    }
    return miss(la, type, start);
}

Cycle
Cache::access(Addr addr, AccessType type, Cycle now)
{
    return accessLine(lineAddr(addr), type, now);
}

Cycle
Cache::readLines(const Addr *line_addrs, std::uint32_t n, Cycle now)
{
    Cycle data = now;
    for (std::uint32_t i = 0; i < n; ++i) {
        // Fault harness: a dropped completion parks the requester on a
        // fill that never arrives; the forward-progress watchdog must
        // catch it (disarmed cost: one relaxed load).
        const Cycle done =
            FaultInject::global().fire(FaultSite::DropMemCompletion)
                ? kFaultStallCycle
                : accessLine(lineAddr(line_addrs[i]), AccessType::Read,
                             now);
        data = std::max(data, done);
    }
    return data;
}

Cycle
Cache::miss(Addr la, AccessType type, Cycle start)
{
    // Allocate an MSHR and fetch the line from below.
    ++*(type == AccessType::Read ? hot.readMiss : hot.writeMiss);
    Cycle issue = acquireMshr(start) + cfg.hitLatency;

    const std::size_t set = setIndex(la);
    Line &victim = findVictim(set);
    if (victim.valid && victim.dirty) {
        ++*hot.writeback;
        nextLevel.access(victim.tag, AccessType::Write, issue);
    }

    const Cycle fill = nextLevel.access(la, AccessType::Read, issue);
    install(victim, la, type == AccessType::Write, fill);
    mshrIntervals.push_back({issue, fill});

    // Optional next-line prefetch: ride the demand miss with a fetch
    // of the following line (the next Morton block of the texture),
    // if it is not already resident (a line in flight is resident).
    if (cfg.prefetchNextLine) {
        const Addr nla = la + cfg.lineBytes;
        if (!contains(nla)) {
            ++*hot.prefetchIssued;
            const Cycle pf_issue = acquireMshr(issue);
            Line &pf_victim = findVictim(setIndex(nla));
            if (pf_victim.valid && pf_victim.dirty) {
                ++*hot.writeback;
                nextLevel.access(pf_victim.tag, AccessType::Write,
                                 pf_issue);
            }
            const Cycle pf_fill =
                nextLevel.access(nla, AccessType::Read, pf_issue);
            install(pf_victim, nla, false, pf_fill);
            mshrIntervals.push_back({pf_issue, pf_fill});
        }
    }
    return fill;
}

Cycle
Cache::writeLine(Addr addr, Cycle now)
{
    const Addr la = lineAddr(addr);
    ++*hot.write;

    const Cycle start = arbitratePort(now);
    if (lookup(la, AccessType::Write)) {
        ++*hot.writeHit;
        return start + cfg.hitLatency;
    }

    // Write-validate: the whole line is produced here, so no fill is
    // needed — allocate the tag and dirty it.
    ++*hot.writeValidate;
    const std::size_t set = setIndex(la);
    Line &victim = findVictim(set);
    if (victim.valid && victim.dirty) {
        ++*hot.writeback;
        nextLevel.access(victim.tag, AccessType::Write,
                         start + cfg.hitLatency);
    }
    install(victim, la, true, 0);
    return start + cfg.hitLatency;
}

bool
Cache::contains(Addr addr) const
{
    const Addr la = lineAddr(addr);
    const std::size_t set = setIndex(la);
    for (std::uint32_t w = 0; w < cfg.ways; ++w) {
        const Line &l = lines[set * cfg.ways + w];
        if (l.valid && l.tag == la)
            return true;
    }
    return false;
}

void
Cache::resetTiming()
{
    for (Line &l : lines)
        l.pendingFill = 0;
    mshrIntervals.clear();
    port.clear();
    // The hit filter stays warm like the tags: it only short-circuits
    // the way loop, never changes its result.
}

void
Cache::saveWarmState(ByteWriter &w) const
{
    w.u64(lines.size());
    for (const Line &l : lines) {
        w.u64(l.tag);
        w.u8(static_cast<std::uint8_t>((l.valid ? 1 : 0) |
                                       (l.dirty ? 2 : 0)));
        w.u64(l.lruStamp);
    }
    w.u64(lruCounter);
}

void
Cache::restoreWarmState(ByteReader &r)
{
    const std::uint64_t count = r.u64();
    if (count != lines.size())
        throwIoError("cache '%s': checkpoint has %llu line(s), "
                     "geometry wants %zu",
                     name.c_str(),
                     static_cast<unsigned long long>(count),
                     lines.size());
    for (Line &l : lines) {
        l.tag = r.u64();
        const std::uint8_t flags = r.u8();
        l.valid = (flags & 1) != 0;
        l.dirty = (flags & 2) != 0;
        l.lruStamp = r.u64();
    }
    lruCounter = r.u64();
    clearHitFilter();
    resetTiming();
}

void
Cache::flushAll()
{
    for (Line &l : lines)
        l = Line{};
    mshrIntervals.clear();
    clearHitFilter();
    lruCounter = 0;
    port.clear();
}

std::string
Cache::dumpInFlight() const
{
    std::size_t pending = 0;
    for (const Line &l : lines)
        pending += l.pendingFill != 0 ? 1 : 0;
    std::string s = name + ": " + std::to_string(pending) +
                    " pending fill(s), " +
                    std::to_string(mshrIntervals.size()) +
                    " MSHR interval(s)";
    Cycle last_fill = 0;
    for (const MshrInterval &iv : mshrIntervals)
        last_fill = std::max(last_fill, iv.fill);
    if (last_fill > 0)
        s += ", last fill at " + std::to_string(last_fill);
    return s;
}

} // namespace dtexl
