/**
 * @file
 * Typed run-level events for the observability ledger (event_bus.hh).
 *
 * A RunEvent is one line of the JSONL ledger: an EventKind, the job it
 * belongs to (empty for run-scoped events), producer-side timestamps,
 * and an ordered list of key/value fields. Values are rendered to JSON
 * tokens by common/json.hh at the emission site so the bus never
 * interprets them; the two counts the live progress meter reads
 * (frames, cached) are also kept as integers.
 *
 * Event vocabulary (schema `dtexl-events-v1`, see DESIGN.md "Run
 * observability"):
 *
 *   run_start        args, config/build digests, host metadata
 *   job_submit       one per batch job, in submission order
 *   job_start        a worker picked the job up
 *   job_frame        one frame boundary (cycles, wall)
 *   job_checkpoint   a frame-boundary checkpoint was written
 *   job_cache_hit    result served from the content-addressed store
 *   job_cache_miss   lookup consulted the store and missed
 *   job_cache_store  result committed to the store
 *   job_resume       job resumed from a checkpoint
 *   job_complete     job finished OK (frames, cycles, wall, cached)
 *   job_error        job failed (kind, message, crash report)
 *   watchdog         the forward-progress watchdog fired for a job
 *   run_end          process-level totals; always the last line
 */

#ifndef DTEXL_OBS_RUN_EVENT_HH
#define DTEXL_OBS_RUN_EVENT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace dtexl {

/** What happened; rendered as the ledger line's "event" string. */
enum class EventKind : std::uint8_t
{
    RunStart,
    JobSubmit,
    JobStart,
    JobFrame,
    JobCheckpoint,
    JobCacheHit,
    JobCacheMiss,
    JobCacheStore,
    JobResume,
    JobComplete,
    JobError,
    Watchdog,
    RunEnd,
};

/** Ledger spelling ("run_start", "job_frame", ...). */
const char *toString(EventKind kind);

/** One ledger line under construction. */
struct RunEvent
{
    /** One key/value field; @c json is the value as a JSON token. */
    struct Field
    {
        std::string key;
        std::string json;
    };

    EventKind kind;
    /** Owning job label; empty for run_start/run_end. */
    std::string job;
    /** Wall-clock milliseconds since the Unix epoch (emission time). */
    std::uint64_t tsMs = 0;
    /** Milliseconds since the bus was armed (emission time). */
    double tMs = 0.0;
    std::vector<Field> fields;
    /** The "frames" and "cached" fields' values, kept for the
     *  progress meter; 0 when absent. */
    std::uint64_t frames = 0;
    std::uint64_t cached = 0;

    explicit RunEvent(EventKind k, std::string jobLabel = "")
        : kind(k), job(std::move(jobLabel))
    {}

    /** Append an unsigned integer field. Returns *this for chaining. */
    RunEvent &u64(const char *key, std::uint64_t value);
    /** Append a floating-point field (fixed 3 decimals). */
    RunEvent &f64(const char *key, double value);
    /** Append a string field (JSON-escaped). */
    RunEvent &str(const char *key, const std::string &value);
};

} // namespace dtexl

#endif // DTEXL_OBS_RUN_EVENT_HH
