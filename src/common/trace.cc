#include "common/trace.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "common/sim_error.hh"

namespace dtexl {

struct TraceWriter::Impl
{
    struct Event
    {
        std::string name;
        std::string cat;
        std::uint64_t ts;
        std::uint64_t dur;   ///< span duration; unused for counters
        std::uint32_t tid;
        char ph;             ///< 'X' = complete span, 'C' = counter
        std::uint64_t value; ///< counter value; unused for spans
    };

    std::mutex mu;
    std::vector<Event> events;
    std::string path;
    std::atomic<bool> on{false};
};

TraceWriter::Impl &
TraceWriter::impl()
{
    static Impl instance;
    return instance;
}

TraceWriter &
TraceWriter::global()
{
    static TraceWriter writer;
    return writer;
}

void
TraceWriter::enable(const std::string &path)
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    im.path = path;
    im.on.store(true, std::memory_order_release);
    // Write whatever was collected even if the binary never calls
    // flush() explicitly, and on every failure unwind (a failed batch
    // job, a guarded main catching a SimError): flush() keeps the
    // buffered events and rewrites the whole file, so repeated
    // failure-path flushes stay valid JSON.
    static bool hooked = false;
    if (!hooked) {
        hooked = true;
        std::atexit([] { TraceWriter::global().flush(); });
        registerFailureFlush([] { TraceWriter::global().flush(); });
    }
}

bool
TraceWriter::enabled() const
{
    return const_cast<TraceWriter *>(this)->impl().on.load(
        std::memory_order_acquire);
}

void
TraceWriter::complete(const std::string &name, const std::string &cat,
                      std::uint64_t ts_us, std::uint64_t dur_us,
                      std::int32_t tid)
{
    Impl &im = impl();
    if (!im.on.load(std::memory_order_acquire))
        return;
    const std::uint32_t track =
        tid < 0 ? threadId() : static_cast<std::uint32_t>(tid);
    std::lock_guard<std::mutex> lock(im.mu);
    im.events.push_back({name, cat, ts_us, dur_us, track, 'X', 0});
}

void
TraceWriter::counter(const std::string &name, std::uint64_t ts_us,
                     std::uint64_t value, std::int32_t tid)
{
    Impl &im = impl();
    if (!im.on.load(std::memory_order_acquire))
        return;
    const std::uint32_t track =
        tid < 0 ? threadId() : static_cast<std::uint32_t>(tid);
    std::lock_guard<std::mutex> lock(im.mu);
    im.events.push_back({name, "counter", ts_us, 0, track, 'C', value});
}

void
TraceWriter::flush()
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    if (!im.on.load(std::memory_order_acquire) || im.path.empty())
        return;
    FILE *f = std::fopen(im.path.c_str(), "w");
    if (!f) {
        warn("cannot open trace file '%s'", im.path.c_str());
        return;
    }
    // The JSON-array form is valid without a closing bracket, but we
    // write the complete object form: {"traceEvents": [...]}.
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < im.events.size(); ++i) {
        const Impl::Event &e = im.events[i];
        JsonWriter w;
        w.str("name", e.name)
            .str("cat", e.cat)
            .str("ph", std::string(1, e.ph))
            .u64("ts", e.ts);
        if (e.ph == 'X')
            w.u64("dur", e.dur);
        w.u64("pid", 1).u64("tid", e.tid);
        if (e.ph == 'C')
            w.raw("args", JsonWriter().u64("value", e.value).object());
        std::fprintf(f, "%s%s\n", w.object().c_str(),
                     i + 1 == im.events.size() ? "" : ",");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

std::uint64_t
TraceWriter::nowMicros()
{
    using namespace std::chrono;
    static const steady_clock::time_point t0 = steady_clock::now();
    return static_cast<std::uint64_t>(
        duration_cast<microseconds>(steady_clock::now() - t0).count());
}

std::uint32_t
TraceWriter::threadId()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local std::uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

} // namespace dtexl
