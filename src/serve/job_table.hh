/**
 * @file
 * dtexld's in-memory job registry: the JobSpec a client submitted, the
 * retry/cancel state machine each job walks through, and the
 * mutex-guarded table the daemon threads share.
 *
 * State machine (see DESIGN.md "Service daemon (dtexld)"):
 *
 *           submit                    transient error,
 *             v                       attempts left
 *   Queued ----> Running ----------------> RetryWait
 *     |            |    \                      |
 *     |  cancel    |     \ ok                  | backoff elapsed
 *     v            v      v                    v
 *  Cancelled   (classify)  Done            Queued (again)
 *                  |
 *                  +-> Failed      non-transient, or retries spent
 *                  +-> Cancelled   client cancel mid-run
 *                  +-> Expired     per-job deadline at a frame boundary
 *                  +-> Interrupted drain/SIGTERM checkpoint-stop; the
 *                                  job stays pending in the journal
 *                                  and is re-queued on restart
 *
 * Records are never removed once admitted (the table IS the `status`
 * surface for the daemon's lifetime), except for the backpressure
 * path: a submit that finds the run queue full is rejected and erased
 * before any worker could have seen it.
 */

#ifndef DTEXL_SERVE_JOB_TABLE_HH
#define DTEXL_SERVE_JOB_TABLE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cancel.hh"
#include "common/config.hh"
#include "common/json.hh"

namespace dtexl {

/** Where a job is in its lifecycle. */
enum class JobState : std::uint8_t
{
    Queued,      ///< admitted, waiting for a worker
    Running,     ///< an attempt is executing
    RetryWait,   ///< transient failure; waiting out the backoff
    Done,        ///< completed OK
    Failed,      ///< permanent failure (retries spent or non-transient)
    Cancelled,   ///< client cancel honoured
    Expired,     ///< per-job deadline elapsed
    Interrupted, ///< drain stopped it at a checkpoint; resumes on restart
};

/** Wire/journal spelling ("queued", "retry_wait", ...). */
const char *toString(JobState state);

/** True for states a job never leaves (Interrupted is NOT terminal:
 *  a daemon restart re-queues it). */
bool jobStateTerminal(JobState state);

/**
 * What a client asked for: everything needed to rebuild the job's
 * GpuConfig and scenes, and nothing host-specific — the spec is the
 * unit the crash-recovery journal persists, so it must survive a
 * daemon restart verbatim.
 */
struct JobSpec
{
    /** Unique job name; auto-assigned ("job-N") when not given. */
    std::string label;
    /** Benchmark alias (workloads/benchmarks.hh); "" with scenePath. */
    std::string bench;
    /** Scene file to load instead of a generated benchmark. */
    std::string scenePath;
    std::uint32_t frames = 1;
    /** "" (daemon base config), "baseline" or "dtexl". */
    std::string preset;
    /** key=value GpuConfig overrides, applied in order. */
    std::vector<std::pair<std::string, std::string>> options;
    /** Wall-clock deadline, ms from pickup (0 = daemon default). */
    double deadlineMs = 0.0;
    /** Max attempts for transient failures (-1 = daemon default). */
    std::int32_t retryMax = -1;
};

/** Render @p spec as one JSON object (journal line / status echo). */
std::string renderJobSpec(const JobSpec &spec);

/**
 * Read a JobSpec from a parsed submit request or journal line.
 * Returns false with a client-facing message in @p err on a malformed
 * spec (wrong types, absurd frame counts, missing bench AND scene).
 * Config-level validation (unknown bench alias, bad option values) is
 * the admission path's job — it needs the daemon's base config.
 */
bool parseJobSpec(const JsonValue &v, JobSpec &out, std::string &err);

/**
 * One admitted job. The record outlives every queue it passes through
 * (workers receive stable pointers), and its CancelToken is the single
 * cancellation channel shared by the connection threads (writers) and
 * the running attempt (reader). All other fields are guarded by the
 * owning JobTable's mutex.
 */
struct JobRecord
{
    JobSpec spec;
    /** Resolved at admission: base config + preset + options. */
    GpuConfig cfg;
    JobState state = JobState::Queued;
    /** Attempts started (1 on the first pickup). */
    std::uint32_t attempts = 0;
    /** Last failure, SimError::describe() form ("" while clean). */
    std::string error;
    std::string errorKind;
    std::uint64_t framesDone = 0;
    std::uint64_t cycles = 0;
    double wallMs = 0.0;
    bool cacheHit = false;
    std::uint64_t imageHash = 0;
    /** steadyNowMs() timestamp the next retry becomes due
     *  (RetryWait only). */
    double nextRetryAtMs = 0.0;
    CancelToken token;
};

/**
 * The daemon's job registry: label-keyed, insertion-ordered, pointer-
 * stable. Locking is exposed rather than hidden because most daemon
 * operations are compound (find + inspect + transition); callers hold
 * mutex() across the whole step. TSan runs the full daemon test
 * (tests/test_serve.cc) to keep this honest.
 */
class JobTable
{
  public:
    /** Admit a record. Returns null when @p label is already taken. */
    JobRecord *insert(JobSpec spec, GpuConfig cfg);

    /** Erase @p label (backpressure-reject path only). */
    void erase(const std::string &label);

    /** Find by label; null when unknown. */
    JobRecord *find(const std::string &label);

    /** All records, admission order (pointers stay valid). */
    std::vector<JobRecord *> all();

    std::size_t size() const;

    /** The table lock; held by callers across compound operations. */
    std::mutex &mutex() { return mu; }

  private:
    mutable std::mutex mu;
    std::vector<std::unique_ptr<JobRecord>> order;
    std::unordered_map<std::string, JobRecord *> byLabel;
};

} // namespace dtexl

#endif // DTEXL_SERVE_JOB_TABLE_HH
