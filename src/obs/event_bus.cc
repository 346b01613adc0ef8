#include "obs/event_bus.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sys/sysinfo.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/log.hh"
#include "common/sim_error.hh"

namespace dtexl {

namespace {

/** Minimum interval between live progress prints. */
constexpr std::chrono::milliseconds kProgressInterval{200};

std::uint64_t
wallMillisNow()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

/**
 * Live progress state, guarded by the bus lock and fed from the event
 * stream itself: job_submit announces totals, job_frame drives the
 * rate/ETA, job_complete/job_error close jobs out.
 */
struct ProgressMeter
{
    std::uint64_t jobsTotal = 0;
    std::uint64_t jobsDone = 0;
    std::uint64_t jobsFailed = 0;
    std::uint64_t framesTotal = 0;
    std::uint64_t framesDone = 0;
    std::uint64_t cacheHits = 0;
    std::chrono::steady_clock::time_point lastPrint{};
    bool printed = false;

    void
    observe(const RunEvent &ev)
    {
        switch (ev.kind) {
        case EventKind::JobSubmit:
            ++jobsTotal;
            framesTotal += ev.frames;
            break;
        case EventKind::JobFrame:
            ++framesDone;
            break;
        case EventKind::JobCacheHit:
            ++cacheHits;
            break;
        case EventKind::JobComplete:
            ++jobsDone;
            // Cache-served jobs render no frames, so their frame
            // count arrives in one step here.
            if (ev.cached)
                framesDone += ev.frames;
            break;
        case EventKind::JobError:
            ++jobsDone;
            ++jobsFailed;
            break;
        default:
            break;
        }
    }

    void
    maybePrint(std::chrono::steady_clock::time_point t0, bool force)
    {
        const auto now = std::chrono::steady_clock::now();
        if (!force && now - lastPrint < kProgressInterval)
            return;
        if (jobsTotal == 0 && framesDone == 0)
            return;
        lastPrint = now;
        printed = true;

        const double elapsed =
            std::chrono::duration<double>(now - t0).count();
        const double rate =
            elapsed > 0.0 ? static_cast<double>(framesDone) / elapsed
                          : 0.0;
        char eta[32];
        if (rate > 0.0 && framesTotal > framesDone) {
            std::snprintf(eta, sizeof(eta), "ETA %.1fs",
                          static_cast<double>(framesTotal - framesDone) /
                              rate);
        } else {
            std::snprintf(eta, sizeof(eta), "ETA --");
        }

        std::string extras;
        if (cacheHits > 0)
            extras += ", " + std::to_string(cacheHits) +
                      " cache hit(s)";
        if (jobsFailed > 0)
            extras += ", " + std::to_string(jobsFailed) + " failed";

        // Share the log stream lock so a progress line never
        // interleaves with a concurrent warn()/inform().
        std::lock_guard<std::mutex> lk(logStreamMutex());
        std::fprintf(stderr,
                     "progress: %llu/%llu job(s), %llu/%llu frame(s), "
                     "%.1f frames/s, %s%s\n",
                     static_cast<unsigned long long>(jobsDone),
                     static_cast<unsigned long long>(jobsTotal),
                     static_cast<unsigned long long>(framesDone),
                     static_cast<unsigned long long>(framesTotal),
                     rate, eta, extras.c_str());
        std::fflush(stderr);
    }
};

} // namespace

struct EventBus::Impl
{
    // Everything below is guarded by mu: emit() stamps, numbers,
    // renders, writes and taps one event per critical section, so
    // lines never interleave and seq order is file order.
    std::mutex mu;
    std::function<void(std::uint64_t, const std::string &)> tap;
    FILE *out = nullptr;
    std::string ledgerPath;
    bool progress = false;
    bool running = false;
    bool hooked = false;
    bool runStartDone = false;
    std::string invocation;
    std::chrono::steady_clock::time_point t0{};
    std::uint64_t seq = 0;
    ProgressMeter meter;

    /** Arm the bus; caller holds mu. */
    void
    startLocked()
    {
        if (running)
            return;
        t0 = std::chrono::steady_clock::now();
        seq = 0;
        meter = ProgressMeter{};
        running = true;
        armedFlag.store(true, std::memory_order_relaxed);
        if (!hooked) {
            hooked = true;
            std::atexit([] { EventBus::global().finish(); });
        }
    }

    /** Stamp, render, append and tap one line; caller holds mu. */
    void
    writeLocked(RunEvent &ev)
    {
        ev.tsMs = wallMillisNow();
        ev.tMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
        if (out || tap) {
            JsonWriter w;
            if (ev.kind == EventKind::RunStart)
                w.str("schema", "dtexl-events-v1");
            w.u64("seq", seq)
                .u64("ts_ms", ev.tsMs)
                .f64("t_ms", ev.tMs)
                .str("event", toString(ev.kind));
            if (!ev.job.empty())
                w.str("job", ev.job);
            for (const RunEvent::Field &f : ev.fields)
                w.raw(f.key.c_str(), f.json);
            if (ev.kind == EventKind::RunEnd) {
                w.u64("jobs", meter.jobsTotal)
                    .u64("ok", meter.jobsDone - meter.jobsFailed)
                    .u64("failed", meter.jobsFailed)
                    .u64("frames", meter.framesDone)
                    .u64("cache_hits", meter.cacheHits);
            }
            const std::string text = w.finish();
            if (out) {
                std::fwrite(text.data(), 1, text.size(), out);
                // Per-line flush: the ledger stays valid JSONL up to
                // the last event even when the process dies hard.
                std::fflush(out);
            }
            // After the file write: a tap sees only lines that are
            // already on disk, so file replay + live stream splice
            // seamlessly on seq.
            if (tap)
                tap(seq, text);
        }
        ++seq;

        meter.observe(ev);
        if (progress)
            meter.maybePrint(t0, ev.kind == EventKind::RunEnd);
    }
};

EventBus::Impl &
EventBus::impl()
{
    static Impl instance;
    return instance;
}

EventBus &
EventBus::global()
{
    static EventBus bus;
    return bus;
}

void
EventBus::enable(const std::string &path)
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lk(im.mu);
    if (!im.out) {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            throwIoError("cannot open events ledger '%s'",
                         path.c_str());
        im.out = f;
        im.ledgerPath = path;
    }
    im.startLocked();
}

void
EventBus::enableProgress()
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lk(im.mu);
    im.progress = true;
    im.startLocked();
}

void
EventBus::setInvocation(std::string args)
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lk(im.mu);
    im.invocation = std::move(args);
}

void
EventBus::emitRunStart(std::uint64_t configDigest,
                       std::uint64_t buildFingerprint)
{
    Impl &im = impl();
    std::string args;
    {
        std::lock_guard<std::mutex> lk(im.mu);
        if (!im.running || im.runStartDone)
            return;
        im.runStartDone = true;
        args = im.invocation;
    }
    char hex[2][17];
    std::snprintf(hex[0], sizeof(hex[0]), "%016llx",
                  static_cast<unsigned long long>(configDigest));
    std::snprintf(hex[1], sizeof(hex[1]), "%016llx",
                  static_cast<unsigned long long>(buildFingerprint));
    RunEvent ev(EventKind::RunStart);
    ev.str("args", args)
        .str("config", hex[0])
        .str("build", hex[1])
        .u64("pid", static_cast<std::uint64_t>(::getpid()))
        .u64("nproc", static_cast<std::uint64_t>(::get_nprocs()));
    const char *host = std::getenv("HOSTNAME");
    ev.str("host", host ? host : "");
    emit(std::move(ev));
}

void
EventBus::emit(RunEvent ev)
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lk(im.mu);
    if (im.running)
        im.writeLocked(ev);
}

void
EventBus::finish()
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lk(im.mu);
    if (!im.running)
        return;
    RunEvent end(EventKind::RunEnd);
    im.writeLocked(end);
    armedFlag.store(false, std::memory_order_relaxed);
    im.running = false;
    if (im.out) {
        std::fclose(im.out);
        im.out = nullptr;
    }
}

void
EventBus::setTap(
    std::function<void(std::uint64_t seq, const std::string &line)> tap)
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lk(im.mu);
    im.tap = std::move(tap);
}

void
EventBus::resetForTests()
{
    finish();
    Impl &im = impl();
    std::lock_guard<std::mutex> lk(im.mu);
    im.tap = nullptr;
    im.ledgerPath.clear();
    im.progress = false;
    im.runStartDone = false;
    im.invocation.clear();
}

std::string
EventBus::path() const
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lk(im.mu);
    return im.ledgerPath;
}

} // namespace dtexl
