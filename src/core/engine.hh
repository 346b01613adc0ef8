/**
 * @file
 * The simulation engine layer above GpuSimulator: a SimulationSession
 * wraps one persistent simulator rendering successive frames of one
 * (scene, config) job, and runBatch() fans a vector of independent
 * jobs over a bounded std::thread worker pool.
 *
 * Threading model (see DESIGN.md "Simulation engine & batch driver"):
 *  - each worker owns its own GpuSimulator (no simulator state is
 *    shared between jobs);
 *  - job inputs are shared read-only — the Scene a job renders may be
 *    served to several workers concurrently and must not be mutated
 *    while the batch runs (the bench harness guards its scene cache
 *    with a mutex and hands out const references);
 *  - results are collected by job index, so the output vector is in
 *    submission order regardless of which worker finished when, and a
 *    batch is bit-identical for any worker count.
 */

#ifndef DTEXL_CORE_ENGINE_HH
#define DTEXL_CORE_ENGINE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cache/result_key.hh"
#include "common/cancel.hh"
#include "common/config.hh"
#include "common/sim_error.hh"
#include "common/stat_registry.hh"
#include "core/gpu.hh"

namespace dtexl {

/**
 * One simulation job: render @p frames successive frames of a scene
 * under a configuration, with warm caches across frames (the
 * steady-state methodology of the evaluation).
 */
class SimulationSession
{
  public:
    /**
     * @param cfg   Machine configuration (copied).
     * @param scene First frame's scene; must outlive the session.
     * @param label Name used for stats/trace ("GTr/dtexl").
     */
    SimulationSession(const GpuConfig &cfg, const Scene &scene,
                      std::string label = "session");

    /** Render the next frame (optionally swapping the scene first). */
    FrameStats renderFrame();
    FrameStats renderFrame(const Scene &next);

    /** Frames rendered so far, in order. */
    const std::vector<FrameStats> &history() const { return frames; }

    /** Route per-phase counters to @p registry under "<label>.". */
    void setStatRegistry(StatRegistry *registry);

    /**
     * Write a frame-boundary checkpoint to @p path: the FrameStats
     * history, the simulator's warm state, and this session's registry
     * subtree. Best effort — I/O failures are logged, never thrown.
     */
    void saveCheckpoint(const std::string &path,
                        const ResultKey &key) const;

    /**
     * Resume from the checkpoint at @p path, if one exists and
     * validates against @p key. Returns the number of frames already
     * rendered (0 = nothing to resume: absent, corrupt, or
     * mid-restore failure — in the last case the simulator is reset to
     * cold state, so the fresh run stays correct). On success the
     * subsequent frames continue bit-identically to an uninterrupted
     * run (tests/test_checkpoint.cc).
     */
    std::uint32_t tryResumeCheckpoint(const std::string &path,
                                      const ResultKey &key);

    const std::string &label() const { return label_; }
    GpuSimulator &gpu() { return sim; }

  private:
    std::string label_;
    GpuSimulator sim;
    std::vector<FrameStats> frames;
    StatRegistry *registry_ = nullptr;
};

/** One entry of a runBatch() request. */
struct BatchJob
{
    /** Display/trace name; also keys the job's StatRegistry subtree. */
    std::string label;
    GpuConfig cfg;
    /**
     * Scene provider, called on the worker thread once per frame with
     * the frame index. Must return a scene that stays valid and
     * unmutated until the batch completes; called concurrently from
     * several workers, so it must be thread-safe (the bench harness
     * serves a mutex-guarded cache).
     */
    std::function<const Scene &(std::uint32_t frame)> scene;
    /** Successive frames rendered with warm caches. */
    std::uint32_t frames = 1;
    /**
     * Optional cooperative cancellation token, polled at every frame
     * boundary (must outlive the batch). A Cancel/Interrupt request
     * stops the job with SimError{Cancelled}; Interrupt (and drain
     * signals) additionally refresh the job's checkpoint when
     * checkpointing is armed, so the job resumes instead of restarting.
     */
    const CancelToken *cancel = nullptr;
    /**
     * Per-job wall-clock deadline in milliseconds (0 = none), measured
     * from job pickup and enforced at frame boundaries — a hung frame
     * is the watchdog's jurisdiction, this catches too-many-slow-frames.
     * Expiry stops the job with SimError{Cancelled}.
     */
    double deadlineMs = 0.0;
    /**
     * Stop at the next frame boundary once a process-level drain
     * signal arrives (common/signals.hh). The CLI batch drivers keep
     * the default; dtexld sets false because it escalates drains
     * itself — its first signal lets in-flight jobs finish, and its
     * second interrupts them through their CancelTokens instead.
     */
    bool stopOnDrain = true;
};

/** Result of one BatchJob, in submission order. */
struct BatchResult
{
    std::string label;
    std::vector<FrameStats> frames;
    /** Wall time of this job alone, milliseconds. */
    double wallMs = 0.0;
    /** Worker that ran the job (0-based; determinism debugging). */
    std::uint32_t worker = 0;
    /**
     * True when the result was served from the content-addressed
     * result cache without running the simulator (src/cache/). The
     * frames and registry counters are byte-identical either way.
     */
    bool cacheHit = false;

    // --- Fault isolation (see DESIGN.md "Error handling & fault
    //     tolerance"): a job that throws fails alone. ---
    /** False when the job failed; `frames` then holds what completed. */
    bool ok = true;
    /** Failure classification (meaningful only when !ok). */
    ErrorKind errorKind = ErrorKind::Internal;
    /** Single-line diagnosis, "kind: message (context)". */
    std::string error;
    /** Crash-report file for dump-carrying failures, or empty. */
    std::string crashReportPath;
};

/**
 * Run a batch of independent jobs over @p numWorkers threads and
 * return their results in submission order. numWorkers is clamped to
 * [1, jobs.size()]; 1 runs everything inline on the calling thread.
 * Per-phase counters of job i land in @p registry (when non-null)
 * under "job.<label>"; each job has its own subtree, so the
 * single-writer-per-node contract of StatRegistry holds.
 *
 * Fault isolation: a job that throws SimError (bad config, scene
 * error, watchdog, internal panic) is caught on its worker thread and
 * reported through its BatchResult (ok=false, error, errorKind; plus a
 * crash report file for watchdog failures). The remaining jobs run to
 * completion and are bit-identical to the same batch without the
 * failing job (tests/test_engine.cc).
 */
std::vector<BatchResult> runBatch(const std::vector<BatchJob> &jobs,
                                  unsigned numWorkers,
                                  StatRegistry *registry = nullptr);

/**
 * Run ONE job on the calling thread with the full runBatch() per-job
 * machinery — cache lookup, checkpoint resume, frame-boundary
 * cancel/deadline/drain checks, fault isolation, EventBus lifecycle —
 * but without the batch framing (no job_submit emission, no drain
 * handler installation, no batch cache summary) and without the
 * terminal event. This is dtexld's execution primitive: the daemon
 * owns admission, retry and submission events itself, so it must be
 * able to run exactly one attempt, and it publishes the attempt's
 * outcome with emitJobOutcome() only after its job table records it.
 */
BatchResult runSingleJob(const BatchJob &job, StatRegistry *registry,
                         std::uint32_t worker);

/**
 * Emit @p res's terminal ledger event — job_complete, or job_error
 * (then flush the failure artifacts) — exactly as runBatch() does
 * after each job.
 */
void emitJobOutcome(const BatchResult &res);

/**
 * Exit code for a finished batch: kExitSuccess when every job
 * succeeded; kExitInterrupted (130) when any job was cancelled —
 * an interrupted run, whatever else happened — else the first
 * failure's own code when every job failed (a systematic error, e.g.
 * one bad config fanned over all jobs); kExitPartialBatch when
 * failures and successes mix.
 */
int batchExitCode(const std::vector<BatchResult> &results);

/**
 * Print a per-failure summary of @p results to stderr (nothing when
 * all jobs succeeded). Returns the number of failed jobs.
 */
std::size_t reportBatchFailures(const std::vector<BatchResult> &results);

} // namespace dtexl

#endif // DTEXL_CORE_ENGINE_HH
