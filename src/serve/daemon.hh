/**
 * @file
 * dtexld — the persistent simulation-service daemon. One process
 * listens on a Unix-domain socket, admits simulation jobs into a
 * bounded queue with real backpressure, runs them on a worker pool
 * via runSingleJob(), retries transient failures with exponential
 * backoff (resuming from checkpoints), and drains gracefully on
 * SIGTERM/SIGINT or the `drain`/`shutdown` commands.
 *
 * Protocol: newline-framed JSON objects both directions
 * (common/json.hh). Commands: ping, submit, status, cancel, gc,
 * drain, shutdown, subscribe. See DESIGN.md "Service daemon (dtexld)"
 * for the full grammar and the drain sequence; scripts/dtexl_client.py
 * is the reference client.
 *
 * Crash tolerance: every admission is journaled (serve/journal.hh)
 * before the client is acked, every terminal outcome is journaled as
 * it lands, and jobs interrupted by a drain checkpoint first — so a
 * restarted daemon re-queues exactly the owed jobs and resumes them
 * from their checkpoints instead of recomputing.
 */

#ifndef DTEXL_SERVE_DAEMON_HH
#define DTEXL_SERVE_DAEMON_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/channel.hh"
#include "common/config.hh"
#include "common/retry.hh"
#include "serve/job_table.hh"
#include "serve/journal.hh"

namespace dtexl {

struct BatchResult;

/** Everything dtexld needs to serve; built by examples/dtexld.cpp. */
struct DaemonConfig
{
    /** Unix-domain socket path (length-checked against sun_path). */
    std::string socketPath;
    /** Journal + default socket/cache/ledger home; created. */
    std::string stateDir;
    /** Base GpuConfig jobs start from (already validated). */
    GpuConfig baseCfg;
    /** Worker threads executing jobs ([1, 64]). */
    unsigned workers = 1;
    /** Admission-queue depth; beyond it submits are rejected with
     *  retry_after_ms (bounded memory, real backpressure). */
    std::size_t queueDepth = 8;
    /** Default per-job deadline, ms (0 = none). */
    double defaultDeadlineMs = 0.0;
    /** Default max attempts per job for transient failures. */
    std::uint32_t retryMax = 3;
    /** Backoff between attempts (retry.hh); attempts field unused
     *  here — retryMax governs. */
    RetryPolicy backoff{3, 250, 10000, 25, 0x9e3779b9u};
    /** Hint returned with queue-full rejections. */
    std::uint32_t retryAfterMs = 500;
    /** Install SIGINT/SIGTERM drain handlers (tests disable this and
     *  drive requestDrain() directly). */
    bool installSignals = true;
};

/**
 * The daemon. Construct, then run() — which owns the calling thread
 * until the daemon drains. Internally: an accept loop (poll on the
 * listen socket + a signal wake pipe), one thread per connection
 * (joined by the accept loop once the connection ends), a worker pool
 * popping the admission queue, and a retry timer thread re-queueing
 * RetryWait jobs when their backoff elapses.
 */
class Daemon
{
  public:
    explicit Daemon(DaemonConfig cfg);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Bind, recover journaled jobs, serve until a drain completes.
     * Returns the process exit code: 0 after a command-initiated
     * drain/shutdown, kExitInterrupted (130) after a signal-initiated
     * one. Throws SimError{Io} when the socket or journal cannot be
     * set up.
     */
    int run();

  private:
    // -- threads --
    void acceptLoop();
    void connLoop(int fd);
    void joinEndedConnections();
    void workerLoop(unsigned worker);
    void retryLoop();

    // -- command handlers (return one '\n'-terminated response) --
    std::string dispatch(const std::string &cmd, const JsonValue &req);
    std::string handleSubmit(const JsonValue &req);
    std::string handleStatus(const JsonValue &req);
    std::string handleCancel(const JsonValue &req);
    std::string handleGc(const JsonValue &req);
    std::string handlePing();
    std::string handleDrain(int level);
    void handleSubscribe(int fd);

    // -- job execution --
    void runAttempt(JobRecord *rec, unsigned worker);
    void finishAttempt(JobRecord *rec, const BatchResult &res);
    GpuConfig buildJobConfig(const JobSpec &spec) const;
    std::uint32_t retryMaxFor(const JobRecord *rec) const;

    // -- drain orchestration --
    void noteDrainSignals();
    void beginDrain(int level);
    std::string buildDrainReport();

    // -- admission --
    std::string admit(JobSpec spec, bool recovered);
    void emitSubmitEvent(const JobRecord *rec);

    std::string renderJobStatus(const JobRecord *rec);

    DaemonConfig cfg_;
    JobTable table_;
    JobJournal journal_;
    Channel<JobRecord *> runq_;

    std::vector<std::thread> workers_;
    std::thread retryThread_;
    /** Connection threads; only the accept loop (then run()) touches
     *  this vector. */
    std::vector<std::thread> connThreads_;

    // Daemon-wide state under mu_ (cv_ signals drain progress).
    std::mutex mu_;
    std::condition_variable cv_;
    bool admitting_ = true;
    bool cmdDrain_ = false;
    bool reportReady_ = false;
    bool stopThreads_ = false;
    std::string reportJson_;

    /** Serializes admissions so queuedCount_ vs queueDepth is exact. */
    std::mutex admitMu_;
    std::atomic<std::size_t> queuedCount_{0};
    std::atomic<unsigned> liveWorkers_{0};
    std::atomic<std::uint64_t> admitted_{0};
    std::atomic<int> drainLevel_{0};
    std::atomic<bool> queueClosed_{false};

    int listenFd_ = -1;
    int wakePipe_[2] = {-1, -1};
    std::mutex connMu_;
    std::vector<int> connFds_;
    /** Connection threads that have finished, for the accept loop to
     *  join (joinEndedConnections()). */
    std::vector<std::thread::id> endedConns_;

    struct Subscriber
    {
        int fd;
        /** Next ledger seq this subscriber expects (replay dedup). */
        std::uint64_t nextSeq;
    };
    std::mutex subMu_;
    std::vector<Subscriber> subs_;
};

} // namespace dtexl

#endif // DTEXL_SERVE_DAEMON_HH
