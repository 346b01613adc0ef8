/**
 * @file
 * In-memory span recorder for the benchmark's traced runs. A span
 * brackets one call the benchmark makes into a simulator layer: name,
 * start, end, the span open around it, and the job it belongs to.
 * Spans stay in memory and are written out once, when the run ends,
 * so recording costs one clock read and one vector append per edge.
 * A disabled recorder (untraced runs) records nothing.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on the steady clock since the recorder's epoch. */
using Nanos = std::int64_t;

class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        Nanos start = 0;
        Nanos end = 0;
        /** Index of the enclosing span, or -1 at the root. */
        std::int64_t parent = -1;
        std::string job;
    };

    using Clock = std::chrono::steady_clock;

    /** Recorders that share an @p epoch can be merged into one file. */
    explicit SpanRecorder(bool enabled,
                          Clock::time_point epoch = Clock::now())
        : enabled_(enabled), epoch_(epoch)
    {}

    bool enabled() const { return enabled_; }

    /** Nanoseconds since the epoch (valid when disabled too). */
    Nanos
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    /** Open a span under the innermost open one; returns its index. */
    std::int64_t open(std::string name, std::string job);
    void close(std::int64_t index);

    /** Append an already-measured span (e.g. aggregated child time). */
    void add(std::string name, std::string job, Nanos start, Nanos end,
             std::int64_t parent);

    const std::vector<Span> &spans() const { return spans_; }

    /** Write {"spans":[...]} to @p path; returns false on I/O error. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<std::int64_t> stack_;
};

/** RAII span; a no-op on a disabled recorder. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name, std::string job = "")
        : rec_(rec),
          index_(rec.enabled() ? rec.open(std::move(name), std::move(job))
                               : -1)
    {}
    ~ScopedSpan()
    {
        if (index_ >= 0)
            rec_.close(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    std::int64_t index_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
