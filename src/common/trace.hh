/**
 * @file
 * Chrome-trace-event export (chrome://tracing, Perfetto): a process
 * global, thread-safe collector of complete ("ph":"X") span events and
 * counter ("ph":"C") samples. The batch driver and the phase-structured
 * engine record job and phase spans; level-2 telemetry records
 * per-tile counter tracks; `--trace=FILE` on the experiment binaries enables
 * collection and writes the JSON on exit.
 *
 * Timestamps are microseconds of std::chrono::steady_clock since the
 * first use in the process, so spans from all worker threads share one
 * time axis. Each OS thread is assigned a small dense "tid" on first
 * use, which the viewer shows as one track per worker.
 */

#ifndef DTEXL_COMMON_TRACE_HH
#define DTEXL_COMMON_TRACE_HH

#include <cstdint>
#include <string>

namespace dtexl {

/** Process-global trace-event collector; disabled until enable(). */
class TraceWriter
{
  public:
    /** The process-wide instance used by engine and batch driver. */
    static TraceWriter &global();

    /**
     * Start collecting and remember the output path. flush() (or
     * process exit via enable()'s atexit hook) writes the file.
     */
    void enable(const std::string &path);

    bool enabled() const;

    /**
     * Record a complete event.
     *
     * @param name  Event name shown on the span.
     * @param cat   Category ("phase", "job", ...).
     * @param ts_us Start, microseconds on the shared clock.
     * @param dur_us Duration in microseconds.
     * @param tid   Track id; defaults to the calling thread's id.
     */
    void complete(const std::string &name, const std::string &cat,
                  std::uint64_t ts_us, std::uint64_t dur_us,
                  std::int32_t tid = -1);

    /**
     * Record a counter-track sample ("ph":"C", category "counter").
     * Successive samples with the same name and tid form one counter
     * track in the viewer.
     */
    void counter(const std::string &name, std::uint64_t ts_us,
                 std::uint64_t value, std::int32_t tid = -1);

    /** Write the JSON file; safe to call multiple times / when off. */
    void flush();

    /** Microseconds on the shared steady clock. */
    static std::uint64_t nowMicros();

    /** Small dense id of the calling thread (0, 1, 2, ...). */
    static std::uint32_t threadId();

  private:
    struct Impl;
    Impl &impl();
};

/**
 * RAII span: records a complete event from construction to destruction
 * when the global writer is enabled; near-zero cost when disabled.
 */
class TraceScope
{
  public:
    TraceScope(std::string name, std::string cat)
        : name_(std::move(name)), cat_(std::move(cat)),
          start(TraceWriter::global().enabled() ? TraceWriter::nowMicros()
                                                : 0),
          armed(TraceWriter::global().enabled())
    {}

    ~TraceScope()
    {
        if (armed) {
            const std::uint64_t end = TraceWriter::nowMicros();
            TraceWriter::global().complete(name_, cat_, start,
                                           end - start);
        }
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    std::string name_;
    std::string cat_;
    std::uint64_t start;
    bool armed;
};

} // namespace dtexl

#endif // DTEXL_COMMON_TRACE_HH
