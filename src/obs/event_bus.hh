/**
 * @file
 * The run-event plane: a process-global EventBus serializing typed
 * RunEvents (run_event.hh) to an append-only JSONL ledger, and deriving
 * a live stderr progress line from the same stream.
 *
 * Design (DESIGN.md "Run observability"):
 *  - emit() does all of its work on the calling thread under one
 *    lock: it stamps the event, assigns the monotonic `seq`, renders
 *    the JSONL line, appends and fflush()es it, hands it to the tap,
 *    and updates the progress meter. Lines never interleave, seq
 *    order is file order, and every line is on disk when emit()
 *    returns — so a failing job's job_error is in the ledger before
 *    the failure is reported.
 *  - finish() writes run_end (with the meter's totals) and closes the
 *    file; an atexit backstop arms it so every exit path terminates
 *    the ledger.
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
     * Arm the ledger (--events=FILE): open @p path for writing and
     * register the atexit hook.
     * Throws SimError{Io} when the file cannot be opened.
     */
    void enable(const std::string &path);

    /**
     * Arm the live progress line (--progress) — fed by the same
     * emit() path with or without a ledger file.
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
     * layer that computes them.
     */
    void emitRunStart(std::uint64_t configDigest,
                      std::uint64_t buildFingerprint);

    /**
     * Write one event (ledger line, tap, progress meter) before
     * returning; no-op when the bus is not armed. Safe from any
     * thread.
     */
    void emit(RunEvent ev);

    /**
     * Write run_end with the accumulated totals and close the ledger.
     * Idempotent; armed() is false afterwards.
     */
    void finish();

    /**
     * Event-forwarding hook (dtexld's `subscribe`): @p tap receives
     * every rendered ledger line with its seq, on the emitting thread
     * under the bus lock, after the line is on disk — so a tap
     * observes exactly the file's content and order, and seq lets a
     * late subscriber splice a file replay with the live stream
     * without duplicates. The tap must not emit events or call back
     * into the bus (it holds the bus lock) and should be fast; it
     * stalls every emitter. Null clears.
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
