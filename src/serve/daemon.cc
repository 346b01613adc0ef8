#include "serve/daemon.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "cache/result_store.hh"
#include "common/log.hh"
#include "common/signals.hh"
#include "common/sim_error.hh"
#include "core/engine.hh"
#include "obs/event_bus.hh"
#include "obs/run_event.hh"
#include "workloads/scene_io.hh"
#include "workloads/scenegen.hh"

namespace dtexl {

namespace {

/** Monotonic milliseconds (retry due times, deadlines). */
double
steadyNowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Write all of @p data to @p fd. MSG_NOSIGNAL (plus the process-wide
 * SIGPIPE ignore) turns a dead peer into an error return, never a
 * signal. Returns false once the peer is gone.
 */
bool
writeAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** One error-response line. */
std::string
errorLine(const std::string &message)
{
    JsonWriter w;
    w.boolean("ok", false).str("error", message);
    return w.finish();
}

/**
 * Buffered '\n'-framed reads from a socket. Handles EINTR (the drain
 * handler installs without SA_RESTART on purpose) and treats EOF /
 * errors as end-of-stream.
 */
class LineReader
{
  public:
    explicit LineReader(int fd) : fd_(fd) {}

    bool
    next(std::string &line)
    {
        for (;;) {
            const std::size_t nl = buf.find('\n');
            if (nl != std::string::npos) {
                line = buf.substr(0, nl);
                buf.erase(0, nl + 1);
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                return true;
            }
            if (buf.size() > kMaxLine) {
                warn("dtexld: dropping connection with an over-long "
                     "request line (%zu bytes)", buf.size());
                return false;
            }
            char chunk[4096];
            const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
            if (n > 0) {
                buf.append(chunk, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
    }

  private:
    static constexpr std::size_t kMaxLine = 1u << 20;

    int fd_;
    std::string buf;
};

/**
 * Bind and listen on @p path. A stale socket file from a crashed
 * daemon is detected by probing it: connect() succeeding means a live
 * daemon owns it (refuse to double-serve), anything else means stale
 * (unlink and take over).
 */
int
listenUnix(const std::string &path)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path))
        throwUserError("socket path '%s' is longer than sun_path "
                       "(%zu bytes)", path.c_str(),
                       sizeof(addr.sun_path) - 1);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
        if (::connect(probe, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            ::close(probe);
            throwUserError("another daemon is already serving '%s'",
                           path.c_str());
        }
        ::close(probe);
    }
    ::unlink(path.c_str());

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throwIoError("socket(AF_UNIX): %s", std::strerror(errno));
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const int e = errno;
        ::close(fd);
        throwIoError("bind('%s'): %s", path.c_str(),
                     std::strerror(e));
    }
    if (::listen(fd, 64) != 0) {
        const int e = errno;
        ::close(fd);
        ::unlink(path.c_str());
        throwIoError("listen('%s'): %s", path.c_str(),
                     std::strerror(e));
    }
    return fd;
}

} // namespace

Daemon::Daemon(DaemonConfig cfg)
    : cfg_(std::move(cfg)),
      journal_(cfg_.stateDir + "/jobs.journal"),
      runq_(std::max<std::size_t>(cfg_.queueDepth, 1))
{
    if (cfg_.workers < 1)
        cfg_.workers = 1;
    if (cfg_.workers > 64)
        cfg_.workers = 64;
    if (cfg_.queueDepth < 1)
        cfg_.queueDepth = 1;
}

Daemon::~Daemon()
{
    if (listenFd_ >= 0)
        ::close(listenFd_);
    for (int i = 0; i < 2; ++i) {
        if (wakePipe_[i] >= 0)
            ::close(wakePipe_[i]);
    }
}

// ---- job execution ------------------------------------------------

GpuConfig
Daemon::buildJobConfig(const JobSpec &spec) const
{
    GpuConfig cfg = cfg_.baseCfg;
    if (spec.preset == "dtexl" || spec.preset == "baseline") {
        // Same semantics as sim_cli --preset=...: the preset replaces
        // the machine model but keeps the screen geometry, so a sweep
        // compares configurations at one resolution.
        const std::uint32_t w = cfg.screenWidth;
        const std::uint32_t h = cfg.screenHeight;
        cfg = spec.preset == "dtexl" ? makeDTexLConfig()
                                     : makeBaselineConfig();
        cfg.screenWidth = w;
        cfg.screenHeight = h;
    } else if (!spec.preset.empty()) {
        throwUserError("unknown preset '%s' (want baseline|dtexl)",
                       spec.preset.c_str());
    }
    for (const auto &kv : spec.options)
        applyConfigOption(cfg, kv.first, kv.second);
    cfg.validate();
    return cfg;
}

std::uint32_t
Daemon::retryMaxFor(const JobRecord *rec) const
{
    if (rec->spec.retryMax >= 0)
        return static_cast<std::uint32_t>(rec->spec.retryMax);
    return cfg_.retryMax;
}

void
Daemon::runAttempt(JobRecord *rec, unsigned worker)
{
    BatchResult res;
    try {
        // Scenes are regenerated per attempt: a retry after a
        // watchdog kill must not trust any state the failed attempt
        // touched, and generation is deterministic anyway.
        std::vector<Scene> scenes;
        if (!rec->spec.scenePath.empty()) {
            scenes.push_back(loadSceneFile(rec->spec.scenePath));
        } else {
            const BenchmarkParams &bench =
                benchmarkByAlias(rec->spec.bench);
            scenes.reserve(rec->spec.frames);
            for (std::uint32_t f = 0; f < rec->spec.frames; ++f)
                scenes.push_back(generateScene(bench, rec->cfg, f));
        }

        BatchJob job;
        job.label = rec->spec.label;
        job.cfg = rec->cfg;
        job.frames = rec->spec.frames;
        const std::vector<Scene> *sp = &scenes;
        job.scene = [sp](std::uint32_t f) -> const Scene & {
            return (*sp)[f];
        };
        job.cancel = &rec->token;
        job.deadlineMs = rec->spec.deadlineMs > 0.0
                             ? rec->spec.deadlineMs
                             : cfg_.defaultDeadlineMs;
        // The daemon escalates drains itself (level 2 interrupts the
        // tokens); level 1 lets in-flight jobs finish.
        job.stopOnDrain = false;

        // Fresh registry per attempt: counters from a failed attempt
        // must not leak into the retry's cached stats fragment — the
        // cache entry has to be byte-identical to a clean run's.
        StatRegistry attemptStats("dtexld");
        res = runSingleJob(job, &attemptStats, worker);
    } catch (const SimError &e) {
        // Scene building failed outside runSingleJob's own fault
        // isolation; report it through the same shape.
        res.label = rec->spec.label;
        res.ok = false;
        res.errorKind = e.kind();
        res.error = e.describe();
    }
    finishAttempt(rec, res);
    // The terminal event follows the table update, so a client that
    // sends `status` on the notice already reads the final state.
    emitJobOutcome(res);
}

void
Daemon::finishAttempt(JobRecord *rec, const BatchResult &res)
{
    const char *journalState = nullptr;
    {
        std::lock_guard<std::mutex> lk(table_.mutex());
        rec->framesDone = res.frames.size();
        rec->wallMs = res.wallMs;
        rec->cacheHit = res.cacheHit;
        std::uint64_t cycles = 0;
        for (const FrameStats &fs : res.frames)
            cycles += fs.totalCycles;
        rec->cycles = cycles;
        rec->imageHash =
            res.frames.empty() ? 0 : res.frames.back().imageHash;

        if (res.ok) {
            rec->state = JobState::Done;
            rec->error.clear();
            rec->errorKind.clear();
            journalState = "done";
        } else {
            rec->error = res.error;
            rec->errorKind = toString(res.errorKind);
            if (res.errorKind == ErrorKind::Cancelled) {
                const CancelToken::State ts = rec->token.state();
                if (ts == CancelToken::State::Cancel) {
                    rec->state = JobState::Cancelled;
                    journalState = "cancelled";
                } else if (ts == CancelToken::State::Interrupt ||
                           drainLevel_.load(
                               std::memory_order_relaxed) >= 1) {
                    // Drain checkpoint-stop: deliberately NOT
                    // journaled done — staying pending is what makes
                    // the job resume after a restart.
                    rec->state = JobState::Interrupted;
                } else {
                    rec->state = JobState::Expired;
                    journalState = "expired";
                }
            } else if (isTransientErrorKind(res.errorKind) &&
                       rec->attempts < retryMaxFor(rec) &&
                       drainLevel_.load(std::memory_order_relaxed) ==
                           0) {
                rec->state = JobState::RetryWait;
                const std::uint32_t delay = backoffDelayMs(
                    cfg_.backoff, rec->attempts - 1);
                rec->nextRetryAtMs = steadyNowMs() + delay;
                warn("dtexld: job '%s' attempt %u failed (%s); "
                     "retrying in %u ms",
                     rec->spec.label.c_str(), rec->attempts,
                     rec->error.c_str(), delay);
            } else {
                rec->state = JobState::Failed;
                journalState = "failed";
            }
        }
    }
    if (journalState)
        journal_.recordDone(rec->spec.label, journalState);
}

void
Daemon::workerLoop(unsigned worker)
{
    while (std::optional<JobRecord *> item = runq_.pop()) {
        JobRecord *rec = *item;
        queuedCount_.fetch_sub(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lk(table_.mutex());
            if (rec->state == JobState::Cancelled) {
                // Cancelled while queued; already journaled.
                continue;
            }
            if (drainLevel_.load(std::memory_order_relaxed) >= 1) {
                // Draining: leave the record Queued — pending in the
                // journal, re-queued by the next daemon.
                continue;
            }
            rec->state = JobState::Running;
            ++rec->attempts;
        }
        runAttempt(rec, worker);
    }
    liveWorkers_.fetch_sub(1, std::memory_order_relaxed);
    cv_.notify_all();
}

void
Daemon::retryLoop()
{
    std::unique_lock<std::mutex> lk(mu_);
    while (!stopThreads_) {
        cv_.wait_for(lk, std::chrono::milliseconds(20));
        if (stopThreads_)
            break;
        if (drainLevel_.load(std::memory_order_relaxed) >= 1)
            continue;
        lk.unlock();
        const double now = steadyNowMs();
        for (JobRecord *rec : table_.all()) {
            bool due = false;
            {
                std::lock_guard<std::mutex> tl(table_.mutex());
                if (rec->state == JobState::RetryWait &&
                    rec->nextRetryAtMs <= now) {
                    // Respect the admission bound: a retry is a
                    // re-admission, not a queue jump. Full queue →
                    // stay RetryWait, try again next tick.
                    const std::size_t q = queuedCount_.fetch_add(
                        1, std::memory_order_relaxed);
                    if (q + 1 > cfg_.queueDepth) {
                        queuedCount_.fetch_sub(
                            1, std::memory_order_relaxed);
                    } else {
                        rec->state = JobState::Queued;
                        due = true;
                    }
                }
            }
            if (due && !runq_.push(rec)) {
                // Queue closed (drain won the race): put the count
                // back; the record stays Queued, hence pending.
                queuedCount_.fetch_sub(1, std::memory_order_relaxed);
            }
        }
        lk.lock();
    }
}

// ---- admission ----------------------------------------------------

void
Daemon::emitSubmitEvent(const JobRecord *rec)
{
    if (!EventBus::armed())
        return;
    RunEvent ev(EventKind::JobSubmit, rec->spec.label);
    ev.u64("index", admitted_.fetch_add(1, std::memory_order_relaxed))
        .u64("frames", rec->spec.frames);
    EventBus::global().emit(std::move(ev));
}

std::string
Daemon::admit(JobSpec spec, bool recovered)
{
    std::lock_guard<std::mutex> alk(admitMu_);
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!admitting_)
            return errorLine("draining; not accepting jobs");
    }

    if (spec.label.empty()) {
        std::uint64_t n = table_.size() + 1;
        while (table_.find("job-" + std::to_string(n)))
            ++n;
        spec.label = "job-" + std::to_string(n);
    }

    // Validate everything a worker would trust, so a doomed job is
    // rejected here with a message instead of burning an attempt:
    // bench alias, scene readability, preset, options, config.
    GpuConfig cfg;
    try {
        if (!spec.bench.empty())
            (void)benchmarkByAlias(spec.bench);
        if (!spec.scenePath.empty()) {
            std::ifstream probe(spec.scenePath);
            if (!probe.is_open())
                throwUserError("scene file '%s' is not readable",
                               spec.scenePath.c_str());
        }
        cfg = buildJobConfig(spec);
    } catch (const SimError &e) {
        return errorLine(e.describe());
    }

    // Bounded admission: the queue never grows past queueDepth, and
    // an overflowing submit is REJECTED with a retry hint — pushback,
    // not an unbounded in-memory backlog.
    const std::size_t q =
        queuedCount_.fetch_add(1, std::memory_order_relaxed);
    if (!recovered && q + 1 > cfg_.queueDepth) {
        queuedCount_.fetch_sub(1, std::memory_order_relaxed);
        JsonWriter w;
        w.boolean("ok", false)
            .str("error", "queue full")
            .u64("retry_after_ms", cfg_.retryAfterMs);
        return w.finish();
    }

    JobRecord *rec = table_.insert(std::move(spec), std::move(cfg));
    if (!rec) {
        queuedCount_.fetch_sub(1, std::memory_order_relaxed);
        return errorLine("job label already in use");
    }

    // Journal before acking: a daemon that dies after this line owes
    // the job and will re-queue it on restart. Recovered jobs are
    // already in the freshly compacted journal.
    if (!recovered)
        journal_.recordSubmit(rec->spec);
    emitSubmitEvent(rec);

    if (!runq_.push(rec)) {
        // Queue closed under us: drain started mid-admission.
        queuedCount_.fetch_sub(1, std::memory_order_relaxed);
        return errorLine("draining; not accepting jobs");
    }

    JsonWriter w;
    w.boolean("ok", true)
        .str("job", rec->spec.label)
        .u64("queued", static_cast<std::uint64_t>(q + 1));
    return w.finish();
}

// ---- command handlers ---------------------------------------------

std::string
Daemon::handleSubmit(const JsonValue &req)
{
    JobSpec spec;
    std::string err;
    const JsonValue *specv = req.find("spec");
    if (!parseJobSpec(specv ? *specv : req, spec, err))
        return errorLine(err);
    return admit(std::move(spec), /*recovered=*/false);
}

std::string
Daemon::renderJobStatus(const JobRecord *rec)
{
    JsonWriter w;
    std::lock_guard<std::mutex> lk(table_.mutex());
    w.str("job", rec->spec.label)
        .str("state", toString(rec->state))
        .u64("frames", rec->spec.frames)
        .u64("attempts", rec->attempts)
        .u64("frames_done", rec->framesDone);
    if (!rec->spec.bench.empty())
        w.str("bench", rec->spec.bench);
    if (!rec->spec.scenePath.empty())
        w.str("scene", rec->spec.scenePath);
    if (rec->state == JobState::Done) {
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(rec->imageHash));
        w.u64("cycles", rec->cycles)
            .f64("wall_ms", rec->wallMs)
            .boolean("cached", rec->cacheHit)
            .str("image_hash", hex);
    }
    if (!rec->error.empty())
        w.str("error", rec->error).str("error_kind", rec->errorKind);
    if (rec->state == JobState::RetryWait) {
        const double wait = rec->nextRetryAtMs - steadyNowMs();
        w.f64("retry_in_ms", wait > 0.0 ? wait : 0.0);
    }
    return w.object();
}

std::string
Daemon::handleStatus(const JsonValue &req)
{
    const std::string label = req.str("job");
    if (!label.empty()) {
        JobRecord *rec = table_.find(label);
        if (!rec)
            return errorLine("unknown job '" + label + "'");
        JsonWriter w;
        w.boolean("ok", true).raw("status", renderJobStatus(rec));
        return w.finish();
    }
    std::vector<std::string> jobs;
    for (JobRecord *rec : table_.all())
        jobs.push_back(renderJobStatus(rec));
    JsonWriter w;
    w.boolean("ok", true)
        .u64("queued", queuedCount_.load(std::memory_order_relaxed))
        .objects("jobs", jobs);
    return w.finish();
}

std::string
Daemon::handleCancel(const JsonValue &req)
{
    const std::string label = req.str("job");
    if (label.empty())
        return errorLine("cancel needs a \"job\" label");
    JobRecord *rec = table_.find(label);
    if (!rec)
        return errorLine("unknown job '" + label + "'");

    const char *journalState = nullptr;
    std::string state;
    {
        std::lock_guard<std::mutex> lk(table_.mutex());
        switch (rec->state) {
        case JobState::Queued:
        case JobState::RetryWait:
            // Not running: retire it right here. A worker that later
            // pops the record sees Cancelled and skips it.
            rec->state = JobState::Cancelled;
            rec->token.requestCancel();
            journalState = "cancelled";
            break;
        case JobState::Running:
            // Cooperative: the attempt notices at its next frame
            // boundary and unwinds with SimError{Cancelled}.
            rec->token.requestCancel();
            break;
        default:
            state = toString(rec->state);
            break;
        }
    }
    if (!state.empty())
        return errorLine("job '" + label + "' is already " + state);
    if (journalState)
        journal_.recordDone(label, journalState);
    JsonWriter w;
    w.boolean("ok", true).str("job", label);
    return w.finish();
}

std::string
Daemon::handleGc(const JsonValue &req)
{
    const ResultStore *store = ResultCache::global().store();
    if (!store)
        return errorLine("no cache directory configured");
    const double age = req.num("age_s", 0.0);
    if (age < 0.0)
        return errorLine("\"age_s\" must be >= 0");
    const CheckpointGcReport rep = pruneStaleCheckpoints(
        store->dir(), static_cast<std::uint64_t>(age));
    JsonWriter w;
    w.boolean("ok", true)
        .u64("scanned", rep.scanned)
        .u64("removed", rep.removed)
        .u64("bytes", rep.bytes);
    return w.finish();
}

std::string
Daemon::handlePing()
{
    std::size_t running = 0;
    for (JobRecord *rec : table_.all()) {
        std::lock_guard<std::mutex> lk(table_.mutex());
        if (rec->state == JobState::Running)
            ++running;
    }
    JsonWriter w;
    w.boolean("ok", true)
        .str("state",
             drainLevel_.load(std::memory_order_relaxed) > 0
                 ? "draining"
                 : "serving")
        .u64("jobs", table_.size())
        .u64("queued", queuedCount_.load(std::memory_order_relaxed))
        .u64("running", static_cast<std::uint64_t>(running))
        .u64("workers", cfg_.workers)
        .u64("queue_depth",
             static_cast<std::uint64_t>(cfg_.queueDepth));
    return w.finish();
}

std::string
Daemon::handleDrain(int level)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        cmdDrain_ = true;
    }
    // Route through the signal counter so socket- and signal-
    // initiated drains exercise one path (the accept loop maps the
    // count onto a drain level).
    while (drainSignalCount() < level)
        requestDrain();
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return reportReady_; });
    return reportJson_;
}

void
Daemon::handleSubscribe(int fd)
{
    // Ask the bus before taking subMu_: the tap runs under the bus
    // lock and takes subMu_, so the lock order is bus -> subMu_.
    const std::string ledger = EventBus::global().path();
    if (ledger.empty()) {
        writeAll(fd, errorLine("no event ledger armed"));
        return;
    }
    {
        // Replay under the subscriber lock: the tap blocks on it, so
        // no line can land between the replay and the registration;
        // nextSeq dedups any line that hit disk mid-replay.
        std::lock_guard<std::mutex> lk(subMu_);
        std::ifstream in(ledger);
        std::string line;
        std::uint64_t n = 0;
        while (std::getline(in, line)) {
            line += '\n';
            if (!writeAll(fd, line))
                return;
            ++n;
        }
        subs_.push_back(Subscriber{fd, n});
    }
    // Park until the client hangs up (or the drain shuts the socket);
    // the tap delivers events from here on.
    char sink[256];
    for (;;) {
        const ssize_t n = ::read(fd, sink, sizeof(sink));
        if (n > 0)
            continue;
        if (n < 0 && errno == EINTR)
            continue;
        break;
    }
    std::lock_guard<std::mutex> lk(subMu_);
    subs_.erase(std::remove_if(subs_.begin(), subs_.end(),
                               [&](const Subscriber &s) {
                                   return s.fd == fd;
                               }),
                subs_.end());
}

std::string
Daemon::dispatch(const std::string &cmd, const JsonValue &req)
{
    if (cmd == "ping")
        return handlePing();
    if (cmd == "submit")
        return handleSubmit(req);
    if (cmd == "status")
        return handleStatus(req);
    if (cmd == "cancel")
        return handleCancel(req);
    if (cmd == "gc")
        return handleGc(req);
    if (cmd == "drain")
        return handleDrain(1);
    if (cmd == "shutdown")
        return handleDrain(2);
    return errorLine("unknown command '" + cmd + "'");
}

// ---- connection & accept loops ------------------------------------

void
Daemon::connLoop(int fd)
{
    LineReader reader(fd);
    std::string line;
    while (reader.next(line)) {
        if (line.empty())
            continue;
        JsonValue req;
        std::string err;
        if (!parseJson(line, req, err)) {
            if (!writeAll(fd, errorLine("bad request: " + err)))
                break;
            continue;
        }
        const std::string cmd = req.str("cmd");
        // subscribe switches the connection into streaming mode; it
        // returns only when the subscription ends.
        if (cmd == "subscribe") {
            handleSubscribe(fd);
            break;
        }
        // A drain reply is the connection's last: the daemon is
        // going away.
        if (!writeAll(fd, dispatch(cmd, req)) || cmd == "drain" ||
            cmd == "shutdown")
            break;
    }
    ::shutdown(fd, SHUT_RDWR);
    // Deregister before closing: a connection accepted after the
    // close may reuse the number and must stay on the drain's list.
    {
        std::lock_guard<std::mutex> lk(connMu_);
        connFds_.erase(std::remove(connFds_.begin(), connFds_.end(), fd),
                       connFds_.end());
        endedConns_.push_back(std::this_thread::get_id());
    }
    ::close(fd);
}

void
Daemon::joinEndedConnections()
{
    std::vector<std::thread::id> ended;
    {
        std::lock_guard<std::mutex> lk(connMu_);
        ended.swap(endedConns_);
    }
    // Every id belongs to a thread already in connThreads_: the accept
    // loop stores each thread before it next gets here.
    for (const std::thread::id id : ended) {
        auto it = std::find_if(
            connThreads_.begin(), connThreads_.end(),
            [id](const std::thread &t) { return t.get_id() == id; });
        it->join();
        connThreads_.erase(it);
    }
}

void
Daemon::noteDrainSignals()
{
    const int count = drainSignalCount();
    if (count > 0)
        beginDrain(count >= 2 ? 2 : 1);
}

void
Daemon::beginDrain(int level)
{
    int cur = drainLevel_.load();
    while (cur < level &&
           !drainLevel_.compare_exchange_weak(cur, level)) {
    }
    if (cur >= level)
        return; // someone else already escalated this far

    if (level >= 1 && !queueClosed_.exchange(true)) {
        {
            std::lock_guard<std::mutex> lk(mu_);
            admitting_ = false;
        }
        inform("dtexld: drain requested; no longer accepting jobs");
        // Workers finish their current job, then see the closed
        // channel and exit; still-queued records stay Queued.
        runq_.close();
    }
    if (level >= 2) {
        // Checkpoint-and-stop: interrupt every running attempt at its
        // next frame boundary. Interrupt never overrides a Cancel.
        inform("dtexld: interrupting in-flight jobs (checkpoint)");
        for (JobRecord *rec : table_.all())
            rec->token.requestInterrupt();
    }
}

std::string
Daemon::buildDrainReport()
{
    std::uint64_t done = 0, failed = 0, cancelled = 0, expired = 0;
    std::uint64_t interrupted = 0, pending = 0;
    for (JobRecord *rec : table_.all()) {
        std::lock_guard<std::mutex> lk(table_.mutex());
        switch (rec->state) {
        case JobState::Done: ++done; break;
        case JobState::Failed: ++failed; break;
        case JobState::Cancelled: ++cancelled; break;
        case JobState::Expired: ++expired; break;
        case JobState::Interrupted: ++interrupted; break;
        default: ++pending; break;
        }
    }
    JsonWriter w;
    w.boolean("ok", true)
        .boolean("drained", true)
        .u64("jobs", table_.size())
        .u64("done", done)
        .u64("failed", failed)
        .u64("cancelled", cancelled)
        .u64("expired", expired)
        .u64("interrupted", interrupted)
        .u64("pending", pending);
    return w.finish();
}

void
Daemon::acceptLoop()
{
    pollfd fds[2];
    fds[0].fd = listenFd_;
    fds[0].events = POLLIN;
    fds[1].fd = wakePipe_[0];
    fds[1].events = POLLIN;

    for (;;) {
        noteDrainSignals();
        if (drainLevel_.load(std::memory_order_relaxed) >= 1)
            return;
        // The 200 ms timeout is a backstop; signals poke the wake
        // pipe so a drain is noticed immediately.
        const int n = ::poll(fds, 2, 200);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            warn("dtexld: poll: %s", std::strerror(errno));
            return;
        }
        // Release ended connections' threads (and their stacks) now,
        // not at the drain: a client polling `status` opens a
        // connection per request.
        joinEndedConnections();
        if (fds[1].revents & POLLIN) {
            char sink[64];
            while (::read(wakePipe_[0], sink, sizeof(sink)) > 0) {
            }
        }
        if (fds[0].revents & POLLIN) {
            const int fd = ::accept(listenFd_, nullptr, nullptr);
            if (fd < 0)
                continue;
            {
                std::lock_guard<std::mutex> lk(connMu_);
                connFds_.push_back(fd);
            }
            connThreads_.emplace_back(
                [this, fd] { connLoop(fd); });
        }
    }
}

// ---- lifecycle ----------------------------------------------------

int
Daemon::run()
{
    // 1. Journal recovery happens before the socket exists, so no
    //    client can race the compaction.
    const std::vector<JobSpec> pending =
        JobJournal::loadPending(journal_.path());
    journal_.reset(pending);

    // 2. Socket + signal plumbing.
    listenFd_ = listenUnix(cfg_.socketPath);
    if (::pipe(wakePipe_) != 0)
        throwIoError("pipe: %s", std::strerror(errno));
    // Non-blocking read end: the accept loop drains wake bytes with a
    // read-until-empty loop that must not park.
    ::fcntl(wakePipe_[0], F_SETFL, O_NONBLOCK);
    ignoreSigpipe();
    setSignalWakeFd(wakePipe_[1]);
    if (cfg_.installSignals) {
        // Threshold 3: signal 1 = graceful drain, 2 = checkpoint-and-
        // stop, 3 = force exit.
        installDrainHandlers(/*forceExitAt=*/3);
    }

    // 3. Live event streaming for subscribers. The tap runs on the
    //    emitting thread under the bus lock, so a subscriber that
    //    stops reading stalls emitters once its socket buffer fills.
    EventBus::global().setTap([this](std::uint64_t seq,
                                     const std::string &line) {
        std::lock_guard<std::mutex> lk(subMu_);
        for (auto it = subs_.begin(); it != subs_.end();) {
            if (seq < it->nextSeq) {
                ++it; // already delivered by the replay
                continue;
            }
            if (!writeAll(it->fd, line)) {
                ::shutdown(it->fd, SHUT_RDWR);
                it = subs_.erase(it);
                continue;
            }
            it->nextSeq = seq + 1;
            ++it;
        }
    });

    // 4. Execution machinery, then the recovered backlog (workers
    //    are already popping, so a backlog deeper than the queue
    //    drains instead of deadlocking the blocking pushes).
    liveWorkers_.store(cfg_.workers, std::memory_order_relaxed);
    for (unsigned w = 0; w < cfg_.workers; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
    retryThread_ = std::thread([this] { retryLoop(); });
    if (!pending.empty()) {
        inform("dtexld: re-queueing %zu journaled job(s)",
               pending.size());
        for (const JobSpec &spec : pending) {
            const std::string resp = admit(spec, /*recovered=*/true);
            if (resp.find("\"ok\":true") == std::string::npos) {
                warn("dtexld: could not re-queue job '%s': %s",
                     spec.label.c_str(), resp.c_str());
                journal_.recordDone(spec.label, "failed");
            }
        }
    }

    inform("dtexld: serving on %s (%u worker(s), queue depth %zu)",
           cfg_.socketPath.c_str(), cfg_.workers, cfg_.queueDepth);
    acceptLoop();

    // ---- drain sequence (DESIGN.md "Service daemon") ----
    // Admission is already off and the queue closed (beginDrain).
    ::close(listenFd_);
    listenFd_ = -1;
    ::unlink(cfg_.socketPath.c_str());

    // Escalation watch: the accept loop is gone, but a second signal
    // (checkpoint-and-stop) or a `shutdown` command must still take
    // effect while in-flight jobs finish. (A third signal force-exits
    // from the handler itself.)
    {
        std::unique_lock<std::mutex> lk(mu_);
        while (liveWorkers_.load(std::memory_order_relaxed) > 0) {
            cv_.wait_for(lk, std::chrono::milliseconds(50));
            lk.unlock();
            noteDrainSignals();
            lk.lock();
        }
    }
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopThreads_ = true;
    }
    cv_.notify_all();
    if (retryThread_.joinable())
        retryThread_.join();

    // Close the ledger: run_end reaches disk AND the subscribers
    // (the tap runs inside emit) before any socket is torn down.
    if (EventBus::armed())
        EventBus::global().finish();

    const std::string report = buildDrainReport();
    {
        std::lock_guard<std::mutex> lk(mu_);
        reportJson_ = report;
        reportReady_ = true;
    }
    cv_.notify_all();

    // Unblock every connection reader; drain responders are awake and
    // writing their report (SHUT_RD leaves the write side alone).
    {
        std::lock_guard<std::mutex> lk(connMu_);
        for (int fd : connFds_)
            ::shutdown(fd, SHUT_RD);
    }
    for (std::thread &t : connThreads_)
        t.join();
    connThreads_.clear();
    EventBus::global().setTap(nullptr);
    setSignalWakeFd(-1);
    journal_.close();

    std::fputs(report.c_str(), stdout);
    std::fflush(stdout);

    bool byCommand;
    {
        std::lock_guard<std::mutex> lk(mu_);
        byCommand = cmdDrain_;
    }
    return byCommand ? kExitSuccess : kExitInterrupted;
}

} // namespace dtexl
