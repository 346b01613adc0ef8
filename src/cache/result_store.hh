/**
 * @file
 * Content-addressed result store: maps a ResultKey to the serialized
 * FrameStats history (image hash included), plus the job's StatRegistry
 * subtree, so a repeated sweep point is served from disk with
 * byte-identical CSV/JSON output instead of re-simulated.
 *
 * On-disk layout under --cache-dir (see DESIGN.md "Result cache &
 * checkpointing"):
 *
 *   res-<48-hex-key>.bin   one entry per key; framed as
 *                          [magic "DTXLRES1"][format version][key]
 *                          [payload size][payload][FNV-1a checksum]
 *                          (file_frame.hh)
 *   ckpt-<48-hex-key>.bin  in-progress checkpoint (checkpoint.hh)
 *
 * Cache traffic (hit, miss, store, resume) is recorded once, as
 * run-event ledger lines emitted by the batch engine (--events).
 *
 * Every commit is atomic (temp file + rename, common/serial.hh), so a
 * reader never observes a half-written entry; a truncated or
 * bit-flipped entry is rejected by the frame checks and checksum,
 * logged, and treated as a miss (recompute — never wrong data, never
 * a crash). The build fingerprint inside the key means a new binary
 * simply addresses different file names: stale entries are unreachable
 * rather than dangerous.
 */

#ifndef DTEXL_CACHE_RESULT_STORE_HH
#define DTEXL_CACHE_RESULT_STORE_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/result_key.hh"
#include "common/serial.hh"
#include "core/frame_stats.hh"

namespace dtexl {

class StatRegistry;

/** --cache= mode: consult nothing, read-only, or read + populate. */
enum class CacheMode : std::uint8_t { Off, Read, ReadWrite };

const char *toString(CacheMode mode);

/** Parse "off|read|readwrite"; throws SimError{UserInput} on junk. */
CacheMode cacheModeFromString(const std::string &name);

// ---- FrameStats serialization ------------------------------------

/** Serialize one FrameStats (all fields, Distributions included). */
void writeFrameStats(ByteWriter &w, const FrameStats &fs);

/** Inverse of writeFrameStats(); throws SimError{Io} on truncation. */
FrameStats readFrameStats(ByteReader &r);

// ---- StatRegistry fragments --------------------------------------

/**
 * A job's registry subtree captured relative to its "job.<label>"
 * prefix, so a cached fragment can be re-applied under whatever label
 * a later sweep uses. Nodes and counters are stored sorted (StatSet
 * maps are ordered), keeping the serialization canonical.
 */
struct StatsFragment
{
    struct Node
    {
        std::string path;  ///< relative to the prefix ("raster")
        std::vector<std::pair<std::string, std::uint64_t>> counters;
    };
    std::vector<Node> nodes;
};

/**
 * Capture every "<prefix>.*" node of @p registry. Null registry (or no
 * matching nodes) yields an empty fragment.
 */
StatsFragment captureStatsFragment(const StatRegistry *registry,
                                   const std::string &prefix);

/**
 * Increment "<prefix>.<node.path>" counters from @p fragment into
 * @p registry (no-op when null). The batch driver's single-writer-per-
 * subtree contract makes this race-free. @p skipTelemetry drops
 * ".telemetry." nodes: on checkpoint resume those counters are
 * *assigned* by Telemetry::publish() from the restored cumulative
 * tracks, so applying the fragment too would double them.
 */
void applyStatsFragment(StatRegistry *registry,
                        const std::string &prefix,
                        const StatsFragment &fragment,
                        bool skipTelemetry = false);

void writeStatsFragment(ByteWriter &w, const StatsFragment &f);
StatsFragment readStatsFragment(ByteReader &r);

// ---- The store ----------------------------------------------------

/** One complete cached job result. */
struct CachedResult
{
    std::vector<FrameStats> frames;
    StatsFragment stats;
};

class ResultStore
{
  public:
    explicit ResultStore(std::string dir) : dir_(std::move(dir)) {}

    /**
     * Load the entry for @p key. Returns nullopt on absence OR on any
     * validation failure (bad magic/version/key echo, truncation,
     * checksum mismatch) — corrupt entries are warn()-logged and
     * treated as a miss, never served. Fault site
     * FaultSite::CacheTruncate truncates the raw bytes here to prove
     * that path (tests/test_result_cache.cc).
     */
    std::optional<CachedResult> lookup(const ResultKey &key) const;

    /**
     * Atomically commit @p result under @p key. Transient I/O failures
     * are retried with backoff (common/retry.hh — a single EINTR/blip
     * must not discard a result that took minutes to compute); a
     * persistently unwritable cache is then logged and swallowed: it
     * must never fail the simulation that produced the result.
     */
    void store(const ResultKey &key, const CachedResult &result) const;

    /** Re-root the store (ResultCache::configure()). */
    void setDir(std::string dir) { dir_ = std::move(dir); }

    std::string entryPath(const ResultKey &key) const;
    std::string checkpointPath(const ResultKey &key) const;
    const std::string &dir() const { return dir_; }

  private:
    std::string dir_;
};

// ---- Checkpoint garbage collection --------------------------------

/** What pruneStaleCheckpoints() scanned and removed. */
struct CheckpointGcReport
{
    std::uint64_t scanned = 0;  ///< ckpt-*.bin files seen
    std::uint64_t removed = 0;  ///< files unlinked
    std::uint64_t bytes = 0;    ///< bytes reclaimed
};

/**
 * Remove `ckpt-<hex>.bin` files under @p dir older than @p minAge
 * seconds (by mtime). Checkpoints are consumed (deleted) when their
 * job completes, so anything left is either in flight — protected by
 * the age guard, since a live job refreshes its checkpoint every
 * --checkpoint-every frames — or leaked by a crash path. minAge 0
 * prunes everything (an idle store). Exposed as `--cache-gc=AGE` on
 * the CLIs and the `gc` daemon command. Never throws; per-file errors
 * are warn()-logged and skipped.
 */
CheckpointGcReport pruneStaleCheckpoints(const std::string &dir,
                                         std::uint64_t minAgeSeconds);

// ---- Process-global cache configuration ---------------------------

/**
 * The process-wide result-cache state, armed by the shared CLI flags
 * (--cache-dir, --cache, --checkpoint-every, --resume; see
 * telemetry/cli_options.hh) and consulted per job by runBatch().
 * Follows the TraceWriter/TelemetryExport global-singleton idiom.
 * Hit/miss counters are atomics: workers note them concurrently.
 */
class ResultCache
{
  public:
    static ResultCache &global();

    /**
     * (Re)configure; idempotent. Any cache/checkpoint feature requires
     * a directory: throws SimError{UserInput} when @p mode is not Off
     * (or @p checkpointEvery/@p resume is set) with an empty @p dir.
     * Creates the directory.
     */
    void configure(const std::string &dir, CacheMode mode,
                   std::uint32_t checkpointEvery, bool resume);

    /** Back to defaults, counters cleared (test isolation). */
    void resetForTests();

    /** Any feature armed (lookup, store, checkpoint or resume)? */
    bool enabled() const;
    bool readEnabled() const { return mode_ != CacheMode::Off; }
    bool writeEnabled() const { return mode_ == CacheMode::ReadWrite; }
    CacheMode mode() const { return mode_; }
    std::uint32_t checkpointEvery() const { return checkpointEvery_; }
    bool resumeEnabled() const { return resume_; }

    /** The store; null until configure() armed a directory. */
    const ResultStore *store() const
    {
        return hasDir_ ? &store_ : nullptr;
    }

    /**
     * Publish the traffic counters into @p registry under a top-level
     * "cache" node (hits/misses/stores/resumes), so they reach
     * --stats-json. Counters are process-cumulative, so the CLI layer
     * calls this once per process right before the registry is dumped
     * — NOT runBatch(), whose per-batch registries must stay
     * byte-identical between cold and warm sweeps
     * (tests/test_result_cache.cc). No-op when null or disarmed.
     */
    void publishStats(StatRegistry *registry) const;

    void noteHit() { hits_.fetch_add(1, std::memory_order_relaxed); }
    void noteMiss() { misses_.fetch_add(1, std::memory_order_relaxed); }
    void noteStore() { stores_.fetch_add(1, std::memory_order_relaxed); }
    void noteResume() { resumes_.fetch_add(1, std::memory_order_relaxed); }
    std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
    std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
    std::uint64_t stores() const { return stores_.load(std::memory_order_relaxed); }
    std::uint64_t resumes() const { return resumes_.load(std::memory_order_relaxed); }

  private:
    ResultCache() : store_("") {}

    CacheMode mode_ = CacheMode::Off;
    std::uint32_t checkpointEvery_ = 0;
    bool resume_ = false;
    bool hasDir_ = false;
    ResultStore store_;

    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> stores_{0};
    std::atomic<std::uint64_t> resumes_{0};
};

} // namespace dtexl

#endif // DTEXL_CACHE_RESULT_STORE_HH
