#include "cache/result_store.hh"

#include <chrono>
#include <filesystem>

#include "cache/file_frame.hh"
#include "common/fault_inject.hh"
#include "common/log.hh"
#include "common/retry.hh"
#include "common/sim_error.hh"
#include "common/stat_registry.hh"

namespace dtexl {

namespace {

/**
 * Retry schedule for the store's own filesystem writes. Short and
 * local: three tries, tens of milliseconds — enough to ride out
 * EINTR-class blips without stalling a worker behind a genuinely dead
 * disk.
 */
const RetryPolicy &
fsRetryPolicy()
{
    static const RetryPolicy policy{/*attempts=*/3,
                                    /*baseDelayMs=*/10,
                                    /*maxDelayMs=*/200,
                                    /*jitterPct=*/25,
                                    /*seed=*/0x7ca9};
    return policy;
}

constexpr std::uint64_t kResultEntryMagic = packMagic("DTXLRES1");

void
writeDistribution(ByteWriter &w, const Distribution &d)
{
    const std::vector<double> &xs = d.samples();
    w.u64(xs.size());
    for (double x : xs)
        w.f64(x);
}

Distribution
readDistribution(ByteReader &r)
{
    Distribution d;
    const std::uint64_t n = r.u64();
    // Bound before allocating: a corrupt count must fail the read, not
    // bad_alloc the process (each sample costs at least 8 bytes).
    if (n > r.remaining() / 8)
        throwIoError("distribution sample count %llu exceeds payload",
                     static_cast<unsigned long long>(n));
    for (std::uint64_t i = 0; i < n; ++i)
        d.add(r.f64());
    return d;
}

} // namespace

const char *
toString(CacheMode mode)
{
    switch (mode) {
      case CacheMode::Off: return "off";
      case CacheMode::Read: return "read";
      case CacheMode::ReadWrite: return "readwrite";
    }
    return "unknown";
}

CacheMode
cacheModeFromString(const std::string &name)
{
    if (name == "off")
        return CacheMode::Off;
    if (name == "read")
        return CacheMode::Read;
    if (name == "readwrite")
        return CacheMode::ReadWrite;
    throwUserError("--cache must be one of off, read, readwrite; got "
                   "'%s'", name.c_str());
}

void
writeFrameStats(ByteWriter &w, const FrameStats &fs)
{
    w.u64(fs.geometryCycles);
    w.u64(fs.rasterCycles);
    w.u64(fs.totalCycles);
    w.f64(fs.fps);
    w.u64(fs.verticesProcessed);
    w.u64(fs.primitivesBinned);
    w.u64(fs.quadsRasterized);
    w.u64(fs.quadsCulledEarlyZ);
    w.u64(fs.quadsCulledHiZ);
    w.u64(fs.quadsShaded);
    w.u64(fs.fragmentsShaded);
    w.u64(fs.shaderInstructions);
    w.u64(fs.textureSamples);
    w.u64(fs.earlyZTests);
    w.u64(fs.blendOps);
    w.u64(fs.flushLineWrites);
    w.u64(fs.flushesEliminated);
    w.u64(fs.l1TexAccesses);
    w.u64(fs.l1TexMisses);
    w.u64(fs.l1VertexAccesses);
    w.u64(fs.l1TileAccesses);
    w.u64(fs.l2Accesses);
    w.u64(fs.l2Misses);
    w.u64(fs.dramAccesses);
    for (std::uint64_t q : fs.quadsPerSc)
        w.u64(q);
    writeDistribution(w, fs.tileTimeDeviation);
    writeDistribution(w, fs.tileQuadDeviation);
    for (std::uint64_t b : fs.barrierIdleCycles)
        w.u64(b);
    w.f64(fs.textureReplication);
    w.u64(fs.imageHash);
}

FrameStats
readFrameStats(ByteReader &r)
{
    FrameStats fs;
    fs.geometryCycles = r.u64();
    fs.rasterCycles = r.u64();
    fs.totalCycles = r.u64();
    fs.fps = r.f64();
    fs.verticesProcessed = r.u64();
    fs.primitivesBinned = r.u64();
    fs.quadsRasterized = r.u64();
    fs.quadsCulledEarlyZ = r.u64();
    fs.quadsCulledHiZ = r.u64();
    fs.quadsShaded = r.u64();
    fs.fragmentsShaded = r.u64();
    fs.shaderInstructions = r.u64();
    fs.textureSamples = r.u64();
    fs.earlyZTests = r.u64();
    fs.blendOps = r.u64();
    fs.flushLineWrites = r.u64();
    fs.flushesEliminated = r.u64();
    fs.l1TexAccesses = r.u64();
    fs.l1TexMisses = r.u64();
    fs.l1VertexAccesses = r.u64();
    fs.l1TileAccesses = r.u64();
    fs.l2Accesses = r.u64();
    fs.l2Misses = r.u64();
    fs.dramAccesses = r.u64();
    for (std::uint64_t &q : fs.quadsPerSc)
        q = r.u64();
    fs.tileTimeDeviation = readDistribution(r);
    fs.tileQuadDeviation = readDistribution(r);
    for (std::uint64_t &b : fs.barrierIdleCycles)
        b = r.u64();
    fs.textureReplication = r.f64();
    fs.imageHash = r.u64();
    return fs;
}

StatsFragment
captureStatsFragment(const StatRegistry *registry,
                     const std::string &prefix)
{
    StatsFragment f;
    if (!registry)
        return f;
    const std::string want = prefix + ".";
    for (const std::string &path : registry->paths()) {
        if (path.rfind(want, 0) != 0)
            continue;
        const StatSet *set = registry->find(path);
        if (!set)
            continue;
        StatsFragment::Node node;
        node.path = path.substr(want.size());
        for (const auto &[key, value] : set->counters())
            node.counters.emplace_back(key, value);
        f.nodes.push_back(std::move(node));
    }
    return f;
}

void
applyStatsFragment(StatRegistry *registry, const std::string &prefix,
                   const StatsFragment &fragment, bool skipTelemetry)
{
    if (!registry)
        return;
    for (const StatsFragment::Node &node : fragment.nodes) {
        if (skipTelemetry &&
            node.path.rfind("telemetry.", 0) == 0)
            continue;
        StatSet &set = registry->node(prefix + "." + node.path);
        for (const auto &[key, value] : node.counters)
            set.inc(key, value);
    }
}

void
writeStatsFragment(ByteWriter &w, const StatsFragment &f)
{
    w.u32(static_cast<std::uint32_t>(f.nodes.size()));
    for (const StatsFragment::Node &node : f.nodes) {
        w.str(node.path);
        w.u32(static_cast<std::uint32_t>(node.counters.size()));
        for (const auto &[key, value] : node.counters) {
            w.str(key);
            w.u64(value);
        }
    }
}

StatsFragment
readStatsFragment(ByteReader &r)
{
    StatsFragment f;
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
        StatsFragment::Node node;
        node.path = r.str();
        const std::uint32_t k = r.u32();
        for (std::uint32_t j = 0; j < k; ++j) {
            std::string key = r.str();
            const std::uint64_t value = r.u64();
            node.counters.emplace_back(std::move(key), value);
        }
        f.nodes.push_back(std::move(node));
    }
    return f;
}

std::string
ResultStore::entryPath(const ResultKey &key) const
{
    return dir_ + "/res-" + key.hex() + ".bin";
}

std::string
ResultStore::checkpointPath(const ResultKey &key) const
{
    return dir_ + "/ckpt-" + key.hex() + ".bin";
}

std::optional<CachedResult>
ResultStore::lookup(const ResultKey &key) const
{
    const std::string path = entryPath(key);
    std::vector<std::uint8_t> bytes;
    if (!readFileBytes(path, bytes))
        return std::nullopt;  // plain miss, not an error

    // Fault harness: a torn/truncated entry on disk. The frame checks
    // below must reject it and fall back to recompute.
    if (FaultInject::global().fire(FaultSite::CacheTruncate))
        bytes.resize(bytes.size() / 2);

    try {
        ByteReader r(bytes);
        readFileHead(r, kResultEntryMagic, key);
        const std::span<const std::uint8_t> body = readFileBody(r);
        ByteReader payload(body.data(), body.size());

        CachedResult res;
        const std::uint32_t frames = payload.u32();
        for (std::uint32_t f = 0; f < frames; ++f)
            res.frames.push_back(readFrameStats(payload));
        res.stats = readStatsFragment(payload);
        if (!payload.done())
            throwIoError("trailing bytes after payload");
        return res;
    } catch (const SimError &e) {
        warn("result cache: rejecting corrupt entry '%s' (%s); "
             "recomputing", path.c_str(), e.what());
        return std::nullopt;
    }
}

void
ResultStore::store(const ResultKey &key,
                   const CachedResult &result) const
{
    ByteWriter payload;
    payload.u32(static_cast<std::uint32_t>(result.frames.size()));
    for (const FrameStats &fs : result.frames)
        writeFrameStats(payload, fs);
    writeStatsFragment(payload, result.stats);

    ByteWriter file;
    writeFileHead(file, kResultEntryMagic, key);
    writeFileBody(file, payload.data());

    // Retry transient failures before giving up: losing a cached
    // result to one EINTR wastes the whole recompute. Still best
    // effort after that — an unwritable cache never fails the job
    // whose result it was trying to keep. (Non-transient SimErrors
    // can't escape atomicWriteFile, which only throws Io.)
    retryTransient(fsRetryPolicy(), "result cache store", [&] {
        atomicWriteFile(entryPath(key), file.data());
    });
}

CheckpointGcReport
pruneStaleCheckpoints(const std::string &dir,
                      std::uint64_t minAgeSeconds)
{
    namespace fs = std::filesystem;
    CheckpointGcReport report;
    std::error_code ec;
    const auto now = fs::file_time_type::clock::now();
    fs::directory_iterator it(dir, ec);
    if (ec) {
        warn("cache gc: cannot scan '%s' (%s)", dir.c_str(),
             ec.message().c_str());
        return report;
    }
    for (const fs::directory_entry &entry : it) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("ckpt-", 0) != 0 ||
            name.size() < 9 /* "ckpt-.bin" */ ||
            name.compare(name.size() - 4, 4, ".bin") != 0)
            continue;
        ++report.scanned;
        std::error_code fec;
        const auto mtime = fs::last_write_time(entry.path(), fec);
        if (fec)
            continue;  // raced with a concurrent delete
        const auto age =
            std::chrono::duration_cast<std::chrono::seconds>(now -
                                                             mtime)
                .count();
        if (age < 0 ||
            static_cast<std::uint64_t>(age) < minAgeSeconds)
            continue;
        std::uintmax_t size = fs::file_size(entry.path(), fec);
        if (fec)
            size = 0;
        if (!fs::remove(entry.path(), fec) || fec) {
            warn("cache gc: cannot remove '%s' (%s)",
                 entry.path().c_str(), fec.message().c_str());
            continue;
        }
        ++report.removed;
        report.bytes += size;
    }
    return report;
}

ResultCache &
ResultCache::global()
{
    static ResultCache instance;
    return instance;
}

void
ResultCache::configure(const std::string &dir, CacheMode mode,
                       std::uint32_t checkpointEvery, bool resume)
{
    if (dir.empty() &&
        (mode != CacheMode::Off || checkpointEvery > 0 || resume)) {
        // Name only the flags the user actually gave.
        std::string armed;
        auto join = [&armed](const char *flag) {
            if (!armed.empty())
                armed += "/";
            armed += flag;
        };
        if (mode != CacheMode::Off)
            join(mode == CacheMode::Read ? "--cache=read"
                                         : "--cache=readwrite");
        if (checkpointEvery > 0)
            join("--checkpoint-every");
        if (resume)
            join("--resume");
        throwUserError("%s requires --cache-dir=DIR", armed.c_str());
    }
    if (!dir.empty())
        ensureDirectory(dir);
    mode_ = mode;
    checkpointEvery_ = checkpointEvery;
    resume_ = resume;
    hasDir_ = !dir.empty();
    store_.setDir(dir);
}

void
ResultCache::publishStats(StatRegistry *registry) const
{
    if (!registry || !enabled())
        return;
    StatSet &node = registry->node("cache");
    node.handle("hits") = hits();
    node.handle("misses") = misses();
    node.handle("stores") = stores();
    node.handle("resumes") = resumes();
}

void
ResultCache::resetForTests()
{
    mode_ = CacheMode::Off;
    checkpointEvery_ = 0;
    resume_ = false;
    hasDir_ = false;
    store_.setDir("");
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    stores_.store(0, std::memory_order_relaxed);
    resumes_.store(0, std::memory_order_relaxed);
}

bool
ResultCache::enabled() const
{
    return hasDir_ && (mode_ != CacheMode::Off ||
                       checkpointEvery_ > 0 || resume_);
}

} // namespace dtexl
