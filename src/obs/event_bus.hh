/**
 * @file
 * The run-event plane: a process-global EventBus serializing typed
 * RunEvents (run_event.hh) to an append-only JSONL ledger, and deriving
 * a live stderr progress line from the same stream.
 *
 * Design (DESIGN.md "Run observability"):
 *  - Producers (batch workers, the cache layer, CLI drivers) stamp an
 *    event and push it into a bounded Channel<RunEvent>
 *    (common/channel.hh).
 *  - ONE writer thread pops events, assigns the monotonic `seq`,
 *    renders the JSONL line, appends it to the ledger file, and
 *    updates the progress meter. Single-writer means lines never
 *    interleave and `seq` needs no synchronization.
 *  - flush() is a drain barrier: it waits until every event emitted
 *    before the call is on disk, then fflush()es — registered as a
 *    failure-flush hook (common/sim_error.hh) so a crashing job still
 *    leaves a valid ledger ending in its job_error line.
 *  - finish() emits run_end (with totals accumulated by the writer),
 *    drains, joins the writer and closes the file; an atexit backstop
 *    arms it so every exit path terminates the ledger.
 *
 * Determinism: the ledger never feeds back into the simulation —
 * emission is observe-only — so FrameStats/imageHash/stats-JSON are
 * byte-identical with and without --events. Ledger *content* is
 * identical across --jobs values modulo seq order, timestamps and
 * worker ids (scripts/run_report.py --canon strips exactly those).
 */

#ifndef DTEXL_OBS_EVENT_BUS_HH
#define DTEXL_OBS_EVENT_BUS_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "obs/run_event.hh"

namespace dtexl {

class EventBus
{
  public:
    static EventBus &global();

    /**
     * Arm the ledger (--events=FILE): open @p path for append, start
     * the writer thread, register the atexit/failure-flush hooks.
     * Throws SimError{Io} when the file cannot be opened.
     */
    void enable(const std::string &path);

    /**
     * Arm the live progress line (--progress) — runs the same writer
     * thread with or without a ledger file.
     */
    void enableProgress();

    /**
     * Fast emission guard: true once enable()/enableProgress() armed
     * the bus. Call sites wrap construction in `if (EventBus::armed())`
     * so an unarmed run never materializes RunEvents.
     */
    static bool
    armed()
    {
        return armedFlag.load(std::memory_order_relaxed);
    }

    /**
     * Record the process argv (joined) for the run_start event. Safe
     * to call before the bus is armed; last call before run_start
     * wins.
     */
    void setInvocation(std::string args);

    /**
     * Emit run_start exactly once per process (first call wins; the
     * bench harness applies CLI knobs once per config variant). The
     * digests come from the caller so obs never depends on the cache
     * layer that computes them. @p simd is the resolved host SIMD
     * dispatch mode ("auto"/"scalar") — recorded explicitly because
     * the config digest excludes host-execution knobs, so it cannot
     * be recovered from the digest (run_report.py prints it).
     */
    void emitRunStart(std::uint64_t configDigest,
                      std::uint64_t buildFingerprint,
                      const std::string &simd);

    /** Enqueue one event; no-op when the bus is not armed. */
    void emit(RunEvent ev);

    /**
     * Drain barrier: block until every event emitted before this call
     * is written, then fflush() the ledger. Never throws; safe from
     * any thread (this is the failure-flush hook).
     */
    void flush();

    /**
     * Emit run_end with the accumulated totals, drain, join the writer
     * and close the ledger. Idempotent; armed() is false afterwards.
     */
    void finish();

    /**
     * Event-forwarding hook (dtexld's `subscribe`): @p tap receives
     * every rendered ledger line with its seq, on the writer thread,
     * after the line is on disk — so a tap observes exactly the file's
     * content and order, and seq lets a late subscriber splice a file
     * replay with the live stream without duplicates. The tap must not
     * emit events (it runs downstream of the queue) and should be
     * fast; it serializes the ledger. Null clears.
     */
    void setTap(
        std::function<void(std::uint64_t seq, const std::string &line)>
            tap);

    /** finish() plus full state reset so a test can re-arm the bus. */
    void resetForTests();

    /** Ledger path, or empty when only --progress is armed. */
    std::string path() const;

  private:
    struct Impl;
    static Impl &impl();
    inline static std::atomic<bool> armedFlag{false};
};

} // namespace dtexl

#endif // DTEXL_OBS_EVENT_BUS_HH
