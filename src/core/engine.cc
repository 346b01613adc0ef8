#include "core/engine.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>

#include "cache/checkpoint.hh"
#include "cache/result_store.hh"
#include "common/fault_inject.hh"
#include "common/log.hh"
#include "common/serial.hh"
#include "common/signals.hh"
#include "common/sim_error.hh"
#include "common/trace.hh"
#include "obs/event_bus.hh"

namespace dtexl {

SimulationSession::SimulationSession(const GpuConfig &cfg,
                                     const Scene &scene,
                                     std::string label)
    : label_(std::move(label)), sim(cfg, scene)
{}

FrameStats
SimulationSession::renderFrame()
{
    const auto t0 = std::chrono::steady_clock::now();
    frames.push_back(sim.renderFrame());
    if (EventBus::armed()) {
        // Frame-boundary event; the "job." stats prefix is an
        // engine-internal spelling, so ledger lines carry the bare
        // job label.
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        std::string job = label_;
        if (job.rfind("job.", 0) == 0)
            job = job.substr(4);
        RunEvent ev(EventKind::JobFrame, std::move(job));
        ev.u64("frame", frames.size() - 1)
            .u64("cycles", frames.back().totalCycles)
            .f64("wall_ms", wall_ms);
        EventBus::global().emit(std::move(ev));
    }
    return frames.back();
}

FrameStats
SimulationSession::renderFrame(const Scene &next)
{
    sim.setScene(next);
    return renderFrame();
}

void
SimulationSession::setStatRegistry(StatRegistry *registry)
{
    registry_ = registry;
    sim.setStatRegistry(registry, label_);
}

void
SimulationSession::saveCheckpoint(const std::string &path,
                                  const ResultKey &key) const
{
    ByteWriter payload;
    payload.u32(static_cast<std::uint32_t>(frames.size()));
    for (const FrameStats &fs : frames)
        writeFrameStats(payload, fs);
    sim.saveWarmState(payload);
    writeStatsFragment(payload, captureStatsFragment(registry_, label_));

    CheckpointBlob blob;
    blob.key = key;
    blob.framesDone = static_cast<std::uint32_t>(frames.size());
    blob.payload = payload.take();
    writeCheckpointFile(path, blob);
}

std::uint32_t
SimulationSession::tryResumeCheckpoint(const std::string &path,
                                       const ResultKey &key)
{
    std::optional<CheckpointBlob> blob = readCheckpointFile(path, key);
    if (!blob)
        return 0;
    try {
        ByteReader r(blob->payload);
        const std::uint32_t n = r.u32();
        if (n != blob->framesDone)
            throwIoError("frame count disagrees with header");
        std::vector<FrameStats> restored;
        restored.reserve(n);
        for (std::uint32_t f = 0; f < n; ++f)
            restored.push_back(readFrameStats(r));
        sim.restoreWarmState(r);
        const StatsFragment frag = readStatsFragment(r);
        if (!r.done())
            throwIoError("trailing bytes after payload");
        // Telemetry counters are skipped: the restored cumulative
        // tracks re-assign them on the next publish(); applying the
        // fragment too would double them.
        applyStatsFragment(registry_, label_, frag,
                           /*skipTelemetry=*/true);
        frames = std::move(restored);
        return n;
    } catch (const SimError &e) {
        // A restore that failed mid-way may have left partial warm
        // state behind; reset to cold so the from-scratch rerun is
        // still bit-exact.
        warn("checkpoint: cannot restore '%s' (%s); restarting from "
             "frame 0", path.c_str(), e.what());
        sim.resetWarmState();
        frames.clear();
        return 0;
    }
}

namespace {

/**
 * Process-cumulative cache traffic line, printed after each batch when
 * the cache is armed (also what CI's cache-smoke job greps for).
 */
void
reportCacheTraffic()
{
    const ResultCache &rc = ResultCache::global();
    if (!rc.enabled())
        return;
    inform("result cache: %llu hit(s), %llu miss(es), %llu store(s), "
           "%llu resume(s)",
           static_cast<unsigned long long>(rc.hits()),
           static_cast<unsigned long long>(rc.misses()),
           static_cast<unsigned long long>(rc.stores()),
           static_cast<unsigned long long>(rc.resumes()));
}

/** Ledger record of one result-cache transaction (hit, miss, store,
 *  resume) for @p job. */
void
emitCacheEvent(EventKind kind, const std::string &job,
               const ResultKey &key)
{
    if (!EventBus::armed())
        return;
    RunEvent ev(kind, job);
    ev.str("key", key.hex());
    EventBus::global().emit(std::move(ev));
}

/** Run one job start to finish on the calling thread. */
BatchResult
runJob(const BatchJob &job, StatRegistry *registry,
       std::uint32_t worker)
{
    dtexl_assert(job.scene, "BatchJob '%s' has no scene provider",
                 job.label.c_str());
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t trace0 = TraceWriter::nowMicros();

    BatchResult res;
    res.label = job.label;
    res.worker = worker;

    // Tag this worker's log lines and announce the pickup.
    ScopedLogJobLabel log_scope(job.label);
    if (EventBus::armed()) {
        RunEvent ev(EventKind::JobStart, job.label);
        ev.u64("worker", worker);
        EventBus::global().emit(std::move(ev));
    }

    // Fault isolation: a throw anywhere in this job — constructing
    // the simulator (bad config), providing a scene (parse error), or
    // rendering (watchdog, internal panic) — is converted into error
    // state on the job's own result. Frames completed before the
    // failure are kept; sibling jobs never see the exception.
    try {
        const std::uint32_t n = job.frames == 0 ? 1 : job.frames;
        ResultCache &rc = ResultCache::global();
        const bool keyed = rc.enabled();
        ResultKey key;
        if (keyed) {
            // Chain the per-frame scene digests (the provider is
            // called again per rendered frame below; providers serve
            // shared read-only scenes, so re-calling is free).
            Fnv1a64 chain;
            chain.u32(n);
            for (std::uint32_t f = 0; f < n; ++f)
                chain.u64(hashScene(job.scene(f)));
            key.scene = chain.value();
            key.config = hashConfig(job.cfg);
            key.build = buildFingerprint();
        }

        bool served = false;
        if (keyed && rc.readEnabled()) {
            if (std::optional<CachedResult> hit =
                    rc.store()->lookup(key)) {
                res.frames = std::move(hit->frames);
                applyStatsFragment(registry, "job." + job.label,
                                   hit->stats);
                res.cacheHit = true;
                served = true;
                rc.noteHit();
                emitCacheEvent(EventKind::JobCacheHit, job.label, key);
            } else {
                rc.noteMiss();
                emitCacheEvent(EventKind::JobCacheMiss, job.label, key);
            }
        }

        if (!served) {
            const Scene &first = job.scene(0);
            SimulationSession session(job.cfg, first,
                                      "job." + job.label);
            if (registry)
                session.setStatRegistry(registry);

            std::uint32_t start = 0;
            const bool ckpt_armed =
                keyed && (rc.checkpointEvery() > 0 ||
                          rc.resumeEnabled());
            const std::string ckpt_path =
                ckpt_armed ? rc.store()->checkpointPath(key)
                           : std::string();
            if (keyed && rc.resumeEnabled()) {
                start = session.tryResumeCheckpoint(ckpt_path, key);
                if (start > n)
                    start = n;  // stale over-long checkpoint
                if (start > 0) {
                    rc.noteResume();
                    emitCacheEvent(EventKind::JobResume, job.label,
                                   key);
                }
            }
            // Cooperative interruption, polled at frame boundaries
            // only: a hung frame is the watchdog's jurisdiction, so a
            // deadline/cancel can never tear a frame mid-render.
            auto interruptReason = [&]() -> const char * {
                if (job.cancel) {
                    const CancelToken::State st = job.cancel->state();
                    if (st == CancelToken::State::Cancel)
                        return "cancel requested";
                    if (st == CancelToken::State::Interrupt)
                        return "interrupt requested";
                }
                if (job.stopOnDrain && drainRequested())
                    return "drain signal received";
                if (job.deadlineMs > 0.0) {
                    const double elapsed =
                        std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
                    if (elapsed >= job.deadlineMs)
                        return "deadline exceeded";
                }
                return nullptr;
            };
            for (std::uint32_t f = start; f < n; ++f) {
                if (const char *why = interruptReason()) {
                    // A terminal cancel will never resume, so its
                    // checkpoint is not refreshed; every other stop
                    // keeps completed frames resumable.
                    const bool terminal =
                        job.cancel && job.cancel->state() ==
                                          CancelToken::State::Cancel;
                    if (ckpt_armed && !terminal && f > start) {
                        session.saveCheckpoint(ckpt_path, key);
                        if (EventBus::armed()) {
                            RunEvent ev(EventKind::JobCheckpoint,
                                        job.label);
                            ev.u64("frames_done", f);
                            EventBus::global().emit(std::move(ev));
                        }
                    }
                    char msg[128];
                    std::snprintf(msg, sizeof(msg),
                                  "%s at frame boundary %u of %u",
                                  why, f, n);
                    throw SimError(ErrorKind::Cancelled, msg,
                                   job.label);
                }
                if (f == 0)
                    session.renderFrame();
                else
                    session.renderFrame(job.scene(f));
                if (keyed && rc.checkpointEvery() > 0 &&
                    (f + 1) % rc.checkpointEvery() == 0 && f + 1 < n) {
                    session.saveCheckpoint(ckpt_path, key);
                    if (EventBus::armed()) {
                        RunEvent ev(EventKind::JobCheckpoint,
                                    job.label);
                        ev.u64("frames_done", f + 1);
                        EventBus::global().emit(std::move(ev));
                    }
                }
                // Transient-I/O fault site, evaluated after the
                // checkpoint write: CI arms it with a one-boundary
                // skip to prove retry resumes from the checkpoint.
                if (FaultInject::global().fire(FaultSite::FrameIoFail))
                    throwIoError("injected frame I/O failure after "
                                 "frame %u", f);
            }
            res.frames = session.history();

            if (keyed && rc.writeEnabled()) {
                CachedResult out;
                out.frames = res.frames;
                out.stats = captureStatsFragment(registry,
                                                 "job." + job.label);
                rc.store()->store(key, out);
                rc.noteStore();
                emitCacheEvent(EventKind::JobCacheStore, job.label,
                               key);
            }
            // The job completed; its checkpoint has served its purpose.
            if (ckpt_armed)
                std::remove(ckpt_path.c_str());
        }
    } catch (const SimError &e) {
        res.ok = false;
        res.errorKind = e.kind();
        res.error = e.describe();
        if (!e.dump().empty())
            res.crashReportPath = writeCrashReport(job.label, e);
        if (EventBus::armed() && e.kind() == ErrorKind::Watchdog) {
            RunEvent wd(EventKind::Watchdog, job.label);
            wd.str("error", e.what());
            EventBus::global().emit(std::move(wd));
        }
    } catch (const std::exception &e) {
        res.ok = false;
        res.errorKind = ErrorKind::Internal;
        res.error = std::string("internal: ") + e.what();
    }

    res.wallMs =
        std::chrono::duration_cast<std::chrono::duration<double,
                                                         std::milli>>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (TraceWriter::global().enabled()) {
        TraceWriter::global().complete(job.label, "job", trace0,
                                       TraceWriter::nowMicros() - trace0);
    }
    return res;
}

/**
 * Result for a job skipped because a drain was requested before it
 * started. Emitted as a job_error so the ledger's run_end totals stay
 * consistent: every submitted job terminates in exactly one of
 * job_complete or job_error.
 */
BatchResult
skippedResult(const BatchJob &job, std::uint32_t worker)
{
    BatchResult res;
    res.label = job.label;
    res.worker = worker;
    res.ok = false;
    res.errorKind = ErrorKind::Cancelled;
    res.error = "cancelled: drain requested before start";
    if (EventBus::armed()) {
        RunEvent ev(EventKind::JobError, job.label);
        ev.str("kind", toString(ErrorKind::Cancelled))
            .str("error", res.error);
        EventBus::global().emit(std::move(ev));
    }
    return res;
}

} // namespace

BatchResult
runSingleJob(const BatchJob &job, StatRegistry *registry,
             std::uint32_t worker)
{
    return runJob(job, registry, worker);
}

void
emitJobOutcome(const BatchResult &res)
{
    if (EventBus::armed()) {
        if (res.ok) {
            std::uint64_t cycles = 0;
            for (const FrameStats &fs : res.frames)
                cycles += fs.totalCycles;
            RunEvent ev(EventKind::JobComplete, res.label);
            ev.u64("frames", res.frames.size())
                .u64("cycles", cycles)
                .f64("wall_ms", res.wallMs)
                .u64("cached", res.cacheHit ? 1 : 0);
            EventBus::global().emit(std::move(ev));
        } else {
            RunEvent ev(EventKind::JobError, res.label);
            ev.str("kind", toString(res.errorKind))
                .str("error", res.error);
            if (!res.crashReportPath.empty())
                ev.str("crash_report", res.crashReportPath);
            EventBus::global().emit(std::move(ev));
        }
    }
    // Failure artifacts must not wait for a clean process exit; the
    // trace and telemetry flush hooks run here (the ledger's
    // job_error line is already on disk).
    if (!res.ok)
        flushFailureArtifacts();
}

std::vector<BatchResult>
runBatch(const std::vector<BatchJob> &jobs, unsigned numWorkers,
         StatRegistry *registry)
{
    std::vector<BatchResult> results(jobs.size());
    if (jobs.empty())
        return results;

    // First Ctrl-C/SIGTERM = cooperative drain (the frame-boundary
    // checks in runJob stop in-flight jobs, unstarted jobs are
    // skipped, the process exits 130); second = force exit. No-op if
    // a driver (dtexld) installed its own escalation first.
    installDrainHandlers(/*forceExitAt=*/2);

    // Announce the whole batch up front, in submission order, so the
    // progress meter knows its denominators before any job starts.
    if (EventBus::armed()) {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            RunEvent ev(EventKind::JobSubmit, jobs[i].label);
            ev.u64("index", i)
                .u64("frames", jobs[i].frames == 0 ? 1 : jobs[i].frames);
            EventBus::global().emit(std::move(ev));
        }
    }

    unsigned workers = numWorkers == 0 ? 1 : numWorkers;
    if (workers > jobs.size())
        workers = static_cast<unsigned>(jobs.size());

    auto runOne = [&](std::size_t i, std::uint32_t worker) {
        if (drainRequested()) {
            results[i] = skippedResult(jobs[i], worker);
            return;
        }
        results[i] = runJob(jobs[i], registry, worker);
        emitJobOutcome(results[i]);
    };

    if (workers == 1) {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            runOne(i, 0);
        reportCacheTraffic();
        return results;
    }

    // Bounded pool over a shared atomic cursor: each worker claims the
    // next unstarted job, runs it to completion, and writes its result
    // into the job's own slot — a single writer per slot, in
    // deterministic submission order by construction.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= jobs.size())
                    return;
                runOne(i, w);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    reportCacheTraffic();
    return results;
}


int
batchExitCode(const std::vector<BatchResult> &results)
{
    std::size_t failed = 0;
    int first_code = kExitSuccess;
    bool interrupted = false;
    for (const BatchResult &r : results) {
        if (r.ok)
            continue;
        if (r.errorKind == ErrorKind::Cancelled)
            interrupted = true;
        if (failed == 0)
            first_code = exitCodeFor(r.errorKind);
        ++failed;
    }
    if (failed == 0)
        return kExitSuccess;
    // A cancelled job means the run was interrupted (signal, deadline
    // or explicit cancel): 130 beats the partial-batch bookkeeping.
    if (interrupted)
        return kExitInterrupted;
    if (failed == results.size())
        return first_code;
    return kExitPartialBatch;
}

std::size_t
reportBatchFailures(const std::vector<BatchResult> &results)
{
    std::size_t failed = 0;
    for (const BatchResult &r : results) {
        if (r.ok)
            continue;
        ++failed;
        std::fprintf(stderr, "%s FAILED: %s\n", r.label.c_str(),
                     r.error.c_str());
        if (!r.crashReportPath.empty())
            std::fprintf(stderr, "%s crash report: %s\n",
                         r.label.c_str(), r.crashReportPath.c_str());
    }
    if (failed > 0)
        std::fprintf(stderr, "%zu of %zu job(s) failed\n", failed,
                     results.size());
    return failed;
}

} // namespace dtexl
