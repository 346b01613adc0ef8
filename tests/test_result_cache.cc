/**
 * @file
 * The content-addressed result cache's correctness battery
 * (src/cache/): ResultKey canonicalization (option order, scene text
 * formatting and default-vs-explicit spellings hash equal; every
 * result-affecting knob hashes different; host-execution knobs are
 * excluded), entry round-trip bit-exactness on every preset, corrupt /
 * truncated / stale entries rejected as misses (never served, never a
 * crash), and the engine-level guarantee: a second identical batch is
 * served from the cache with byte-identical FrameStats, image hashes
 * and registry counters.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cache/checkpoint.hh"
#include "cache/result_key.hh"
#include "cache/result_store.hh"
#include "common/fault_inject.hh"
#include "common/log.hh"
#include "common/serial.hh"
#include "core/dtexl.hh"
#include "stats_equality.hh"
#include "workloads/scene_io.hh"
#include "workloads/scenegen.hh"

namespace dtexl {
namespace {

GpuConfig
small(GpuConfig cfg)
{
    cfg.screenWidth = 256;
    cfg.screenHeight = 128;
    return cfg;
}

std::string
tempDir(const std::string &name)
{
    // Pid-suffixed so a previous test invocation's store can never
    // satisfy this run's cold lookups.
    const std::string dir = ::testing::TempDir() + "dtexl_" + name +
                            "." + std::to_string(::getpid());
    ensureDirectory(dir);
    return dir;
}

// ---- Serialization primitives ------------------------------------

TEST(Serial, WriterReaderRoundTrip)
{
    ByteWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.f32(3.14f);
    w.f64(-2.718281828459045);
    w.str("hello");
    w.str("");

    ByteReader r(w.data());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.f32(), 3.14f);
    EXPECT_EQ(r.f64(), -2.718281828459045);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.done());
}

TEST(Serial, TruncationThrowsIoError)
{
    ByteWriter w;
    w.u32(7);
    ByteReader r(w.data());
    (void)r.u32();
    try {
        (void)r.u8();
        FAIL() << "read past the end must throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Io);
    }
}

TEST(Serial, FnvStringFramingPreventsConcatenationAliases)
{
    Fnv1a64 a, b;
    a.str("ab");
    a.str("c");
    b.str("a");
    b.str("bc");
    EXPECT_NE(a.value(), b.value());
}

// ---- Striped FNV checksum ----------------------------------------

/** Deterministic xorshift64 for the random checksum inputs. */
struct Rng
{
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    std::uint64_t
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
};

/**
 * Every tail length 0..3 and the chain crossover points against a
 * byte-at-a-time reference (h[i % 4] chains, folded with length):
 * the production unrolled loop must agree at every size.
 */
TEST(SimdHash, StripedFnvMatchesReferenceAtEverySize)
{
    Rng rng;
    std::vector<std::uint8_t> buf;
    auto reference = [](const std::vector<std::uint8_t> &b) {
        std::uint64_t h[4] = {
            Fnv1a64::kOffsetBasis, Fnv1a64::kOffsetBasis,
            Fnv1a64::kOffsetBasis, Fnv1a64::kOffsetBasis};
        for (std::size_t i = 0; i < b.size(); ++i)
            h[i % 4] = (h[i % 4] ^ b[i]) * Fnv1a64::kPrime;
        Fnv1a64 fold;
        for (std::uint64_t d : h)
            fold.u64(d);
        fold.u64(b.size());
        return fold.value();
    };
    for (std::size_t size = 0; size <= 130; ++size) {
        buf.resize(size);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng.next());
        EXPECT_EQ(fnv1a64Striped(buf), reference(buf))
            << "size=" << size;
    }
    buf.resize(65536);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(fnv1a64Striped(buf), reference(buf));
}

/**
 * Freeze the v2 artifact-checksum format with an implementation the
 * production code never touches: four byte-interleaved FNV-1a chains,
 * folded with plain FNV-1a over the four digests and the length. A
 * change to either side is a silent format break result_store and
 * checkpoint files would trip over.
 */
TEST(SimdHash, StripedFnvFormatIsFrozen)
{
    Rng rng;
    std::vector<std::uint8_t> buf(1037);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());

    std::uint64_t h[4] = {Fnv1a64::kOffsetBasis, Fnv1a64::kOffsetBasis,
                          Fnv1a64::kOffsetBasis, Fnv1a64::kOffsetBasis};
    for (std::size_t i = 0; i < buf.size(); ++i)
        h[i % 4] = (h[i % 4] ^ buf[i]) * Fnv1a64::kPrime;
    Fnv1a64 fold;
    fold.u64(h[0]);
    fold.u64(h[1]);
    fold.u64(h[2]);
    fold.u64(h[3]);
    fold.u64(buf.size());

    EXPECT_EQ(fnv1a64Striped(buf), fold.value());
    // Not interchangeable with the serial digest (a mixed-up call site
    // must fail checksum verification, not silently pass).
    EXPECT_NE(fnv1a64Striped(buf), fnv1a64(buf));
}

// ---- Key canonicalization ----------------------------------------

TEST(ResultKeyTest, DefaultAndExplicitSpellingsHashEqual)
{
    const GpuConfig implicit_cfg = makeBaselineConfig();
    GpuConfig explicit_cfg = makeBaselineConfig();
    // Re-state defaults explicitly, as a verbose command line would.
    applyConfigOption(explicit_cfg, "tile",
                      std::to_string(implicit_cfg.tileSize));
    applyConfigOption(explicit_cfg, "warps",
                      std::to_string(implicit_cfg.maxWarpsPerCore));
    applyConfigOption(explicit_cfg, "telemetry", "0");
    EXPECT_EQ(hashConfig(implicit_cfg), hashConfig(explicit_cfg));
}

TEST(ResultKeyTest, OptionOrderDoesNotChangeTheKey)
{
    GpuConfig ab = small(makeDTexLConfig());
    applyConfigOption(ab, "hiz", "1");
    applyConfigOption(ab, "fifo", "32");
    GpuConfig ba = small(makeDTexLConfig());
    applyConfigOption(ba, "fifo", "32");
    applyConfigOption(ba, "hiz", "1");
    EXPECT_EQ(hashConfig(ab), hashConfig(ba));
}

TEST(ResultKeyTest, SceneTextFormattingDoesNotChangeTheKey)
{
    const GpuConfig cfg = small(makeBaselineConfig());
    const Scene scene = generateScene(benchmarkByAlias("Mze"), cfg, 0);

    std::ostringstream os;
    saveScene(os, scene);
    const std::string canonical = os.str();

    // Same content, hostile formatting: a comment header, every line
    // indented, and a blank line after each.
    std::string noisy = "# injected comment\n\n";
    std::istringstream lines(canonical);
    std::string line;
    while (std::getline(lines, line))
        noisy += "  " + line + "\n\n# another comment\n";

    std::istringstream is1(canonical), is2(noisy);
    const Scene s1 = loadScene(is1, "canonical");
    const Scene s2 = loadScene(is2, "noisy");
    EXPECT_EQ(hashScene(s1), hashScene(s2));
    // And the digest is computed over parsed content, so a loaded
    // scene keys identically to the in-memory original.
    EXPECT_EQ(hashScene(scene), hashScene(s1));
}

TEST(ResultKeyTest, SceneContentChangesTheKey)
{
    const GpuConfig cfg = small(makeBaselineConfig());
    Scene a = generateScene(benchmarkByAlias("Mze"), cfg, 0);
    const std::uint64_t base = hashScene(a);
    a.draws[0].vertices[0].uv.x += 0.25f;
    EXPECT_NE(hashScene(a), base);
}

TEST(ResultKeyTest, EveryResultAffectingKnobChangesTheKey)
{
    const GpuConfig base = makeDTexLConfig();
    const std::uint64_t h0 = hashConfig(base);

    std::vector<std::pair<const char *, GpuConfig>> variants;
    auto add = [&](const char *name, auto &&mutate) {
        GpuConfig c = base;
        mutate(c);
        variants.emplace_back(name, c);
    };

    add("clockHz", [](GpuConfig &c) { c.clockHz += 1; });
    add("screenWidth", [](GpuConfig &c) { c.screenWidth += 32; });
    add("screenHeight", [](GpuConfig &c) { c.screenHeight += 32; });
    add("tileSize", [](GpuConfig &c) { c.tileSize = 16; });
    add("numPipelines", [](GpuConfig &c) { c.numPipelines = 2; });
    add("maxWarpsPerCore", [](GpuConfig &c) { c.maxWarpsPerCore += 1; });
    add("stageFifoDepth", [](GpuConfig &c) { c.stageFifoDepth += 1; });
    add("rasterQuadsPerCycle",
        [](GpuConfig &c) { c.rasterQuadsPerCycle += 1; });
    add("grouping",
        [](GpuConfig &c) { c.grouping = QuadGrouping::FGXShift2; });
    add("tileOrder",
        [](GpuConfig &c) { c.tileOrder = TileOrder::Scanline; });
    add("assignment",
        [](GpuConfig &c) { c.assignment = SubtileAssignment::Constant; });
    add("decoupledBarriers",
        [](GpuConfig &c) { c.decoupledBarriers = !c.decoupledBarriers; });
    add("hierarchicalZ",
        [](GpuConfig &c) { c.hierarchicalZ = !c.hierarchicalZ; });
    add("texturePrefetch",
        [](GpuConfig &c) { c.texturePrefetch = !c.texturePrefetch; });
    add("warpScheduler",
        [](GpuConfig &c) { c.warpScheduler = WarpSched::OldestFirst; });
    add("transactionElimination", [](GpuConfig &c) {
        c.transactionElimination = !c.transactionElimination;
    });
    add("telemetryLevel", [](GpuConfig &c) { c.telemetryLevel = 1; });

    // Each of the four cache blocks plus DRAM, one field of each.
    add("vertexCache.sizeBytes",
        [](GpuConfig &c) { c.vertexCache.sizeBytes *= 2; });
    add("vertexCache.lineBytes",
        [](GpuConfig &c) { c.vertexCache.lineBytes = 32; });
    add("vertexCache.ways", [](GpuConfig &c) { c.vertexCache.ways = 2; });
    add("vertexCache.hitLatency",
        [](GpuConfig &c) { c.vertexCache.hitLatency += 1; });
    add("vertexCache.numMshrs",
        [](GpuConfig &c) { c.vertexCache.numMshrs += 1; });
    add("vertexCache.prefetchNextLine", [](GpuConfig &c) {
        c.vertexCache.prefetchNextLine = !c.vertexCache.prefetchNextLine;
    });
    add("textureCache.sizeBytes",
        [](GpuConfig &c) { c.textureCache.sizeBytes *= 2; });
    add("tileCache.sizeBytes",
        [](GpuConfig &c) { c.tileCache.sizeBytes *= 2; });
    add("l2Cache.sizeBytes",
        [](GpuConfig &c) { c.l2Cache.sizeBytes *= 2; });
    add("dram.numBanks", [](GpuConfig &c) { c.dram.numBanks *= 2; });
    add("dram.rowBytes", [](GpuConfig &c) { c.dram.rowBytes *= 2; });
    add("dram.rowHitLatency",
        [](GpuConfig &c) { c.dram.rowHitLatency += 1; });
    add("dram.rowMissLatency",
        [](GpuConfig &c) { c.dram.rowMissLatency += 1; });
    add("dram.bytesPerCycle",
        [](GpuConfig &c) { c.dram.bytesPerCycle *= 2; });

    for (const auto &[name, cfg] : variants)
        EXPECT_NE(hashConfig(cfg), h0) << name;
}

TEST(ResultKeyTest, HostExecutionKnobsAreExcluded)
{
    // These knobs are inert (the thread members) or only bound a hang
    // (the watchdog), so cache entries and checkpoints must be shared
    // across them.
    const GpuConfig base = makeDTexLConfig();
    const std::uint64_t h0 = hashConfig(base);

    GpuConfig c = base;
    c.geomThreads = 8;
    EXPECT_EQ(hashConfig(c), h0) << "geomThreads";

    c = base;
    c.rasterThreads = 4;
    EXPECT_EQ(hashConfig(c), h0) << "rasterThreads";

    c = base;
    c.watchdogCycles = 123;
    EXPECT_EQ(hashConfig(c), h0) << "watchdogCycles";
}

TEST(ResultKeyTest, ConfigSizeCanary)
{
    // If this fails, a field was added to (or removed from) GpuConfig:
    // decide whether it affects simulated results, update
    // hashConfig()/the exclusion list in result_key.hh accordingly,
    // extend EveryResultAffectingKnobChangesTheKey, and only then pin
    // the new size here.
    EXPECT_EQ(sizeof(GpuConfig), 200u)
        << "GpuConfig layout changed - update hashConfig() first";
}

TEST(ResultKeyTest, PresetConfigDigestsAreFrozen)
{
    // Existing result-cache entries and checkpoints are keyed by these
    // digests: removing a host-execution knob from GpuConfig must not
    // move them, or every stored entry would silently stop hitting.
    EXPECT_EQ(hashConfig(makeBaselineConfig()), 0x3bafeeada111a7b6ull);
    EXPECT_EQ(hashConfig(makeDTexLConfig()), 0x36782e624c419b6full);
    EXPECT_EQ(hashConfig(makeUpperBoundConfig()), 0xed113dd76205200full);
}

TEST(ResultKeyTest, BuildFingerprintIsStableWithinAProcess)
{
    EXPECT_EQ(buildFingerprint(), buildFingerprint());
    const ResultKey k{1, 2, 3};
    EXPECT_EQ(k.hex(),
              "000000000000000100000000000000020000000000000003");
}

// ---- Entry round trip --------------------------------------------

CachedResult
renderResult(const GpuConfig &cfg, const char *alias,
             StatRegistry *reg, const std::string &label)
{
    const Scene f0 = generateScene(benchmarkByAlias(alias), cfg, 0);
    const Scene f1 = generateScene(benchmarkByAlias(alias), cfg, 1);
    SimulationSession session(cfg, f0, label);
    if (reg)
        session.setStatRegistry(reg);
    session.renderFrame();
    session.renderFrame(f1);
    CachedResult out;
    out.frames = session.history();
    out.stats = captureStatsFragment(reg, label);
    return out;
}

TEST(ResultStoreTest, RoundTripIsBitExactOnEveryPreset)
{
    setLogQuiet(true);
    const std::string dir = tempDir("store_roundtrip");
    const ResultStore store(dir);

    const std::pair<const char *, GpuConfig> presets[] = {
        {"baseline", small(makeBaselineConfig())},
        {"dtexl", small(makeDTexLConfig())},
        {"upper", small(makeUpperBoundConfig())},
    };
    std::uint64_t n = 0;
    for (const auto &[name, cfg] : presets) {
        SCOPED_TRACE(name);
        StatRegistry reg("test");
        const CachedResult want =
            renderResult(cfg, "GTr", &reg, std::string("job.") + name);

        ResultKey key;
        key.scene = 1000 + n++;
        key.config = hashConfig(cfg);
        key.build = buildFingerprint();
        store.store(key, want);

        const std::optional<CachedResult> got = store.lookup(key);
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ(got->frames.size(), want.frames.size());
        for (std::size_t f = 0; f < want.frames.size(); ++f)
            expectSameStats(want.frames[f], got->frames[f],
                            "frame " + std::to_string(f));
        ASSERT_EQ(got->stats.nodes.size(), want.stats.nodes.size());
        for (std::size_t i = 0; i < want.stats.nodes.size(); ++i) {
            EXPECT_EQ(got->stats.nodes[i].path, want.stats.nodes[i].path);
            EXPECT_EQ(got->stats.nodes[i].counters,
                      want.stats.nodes[i].counters);
        }
    }
    setLogQuiet(false);
}

TEST(ResultStoreTest, AbsentAndStaleKeysMiss)
{
    const std::string dir = tempDir("store_stale");
    const ResultStore store(dir);
    CachedResult r;
    r.frames.emplace_back();
    ResultKey key{42, 43, buildFingerprint()};
    store.store(key, r);
    EXPECT_TRUE(store.lookup(key).has_value());

    // A rebuilt simulator fingerprints differently, so its keys simply
    // address different entries: stale results are unreachable.
    ResultKey stale = key;
    stale.build ^= 1;
    EXPECT_FALSE(store.lookup(stale).has_value());
    ResultKey absent{7, 8, 9};
    EXPECT_FALSE(store.lookup(absent).has_value());
}

TEST(ResultStoreTest, CorruptEntryIsAMissNotACrash)
{
    setLogQuiet(true);
    const std::string dir = tempDir("store_corrupt");
    const ResultStore store(dir);
    CachedResult r;
    r.frames.emplace_back();
    r.frames.back().totalCycles = 777;
    const ResultKey key{1, 2, 3};
    store.store(key, r);

    // Flip one payload byte on disk: the checksum must reject it.
    const std::string path = store.entryPath(key);
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(readFileBytes(path, bytes));
    bytes[bytes.size() / 2] ^= 0x01;
    atomicWriteFile(path, bytes);
    EXPECT_FALSE(store.lookup(key).has_value());

    // Restore the original image: served again.
    bytes[bytes.size() / 2] ^= 0x01;
    atomicWriteFile(path, bytes);
    const std::optional<CachedResult> got = store.lookup(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->frames.at(0).totalCycles, 777u);
    setLogQuiet(false);
}

TEST(ResultStoreTest, TruncateFaultSiteForcesRecompute)
{
    setLogQuiet(true);
    const std::string dir = tempDir("store_truncate");
    const ResultStore store(dir);
    CachedResult r;
    r.frames.emplace_back();
    const ResultKey key{5, 6, 7};
    store.store(key, r);

    {
        ScopedFault fault(FaultSite::CacheTruncate);
        EXPECT_FALSE(store.lookup(key).has_value());
        EXPECT_EQ(FaultInject::global().fired(FaultSite::CacheTruncate),
                  1u);
    }
    // Disarmed: the intact on-disk entry is served again.
    EXPECT_TRUE(store.lookup(key).has_value());
    setLogQuiet(false);
}

TEST(ResultStoreTest, UnwritableStoreNeverThrows)
{
    setLogQuiet(true);
    const ResultStore store(::testing::TempDir() +
                            "dtexl_missing_dir/nested");
    CachedResult r;
    r.frames.emplace_back();
    const ResultKey key{1, 1, 1};
    EXPECT_NO_THROW(store.store(key, r));
    EXPECT_FALSE(store.lookup(key).has_value());
    setLogQuiet(false);
}

// ---- Global configuration ----------------------------------------

TEST(ResultCacheTest, ModeParsing)
{
    EXPECT_EQ(cacheModeFromString("off"), CacheMode::Off);
    EXPECT_EQ(cacheModeFromString("read"), CacheMode::Read);
    EXPECT_EQ(cacheModeFromString("readwrite"), CacheMode::ReadWrite);
    EXPECT_STREQ(toString(CacheMode::ReadWrite), "readwrite");
    try {
        (void)cacheModeFromString("sometimes");
        FAIL() << "junk mode must throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::UserInput);
    }
}

TEST(ResultCacheTest, FeaturesRequireADirectory)
{
    ResultCache &rc = ResultCache::global();
    rc.resetForTests();
    EXPECT_THROW(rc.configure("", CacheMode::Read, 0, false), SimError);
    EXPECT_THROW(rc.configure("", CacheMode::Off, 4, false), SimError);
    EXPECT_THROW(rc.configure("", CacheMode::Off, 0, true), SimError);
    // Off with no directory is the default and fine.
    EXPECT_NO_THROW(rc.configure("", CacheMode::Off, 0, false));
    EXPECT_FALSE(rc.enabled());
    EXPECT_EQ(rc.store(), nullptr);
    rc.resetForTests();
}

// ---- Engine-level: second identical batch served from cache -------

std::vector<BatchJob>
makeBatch(const std::vector<std::vector<Scene>> &scenes)
{
    std::vector<BatchJob> jobs;
    const char *labels[] = {"base/GTr", "dtexl/GTr"};
    const GpuConfig cfgs[] = {small(makeBaselineConfig()),
                              small(makeDTexLConfig())};
    for (std::size_t j = 0; j < scenes.size(); ++j) {
        BatchJob bj;
        bj.label = labels[j];
        bj.cfg = cfgs[j];
        const std::vector<Scene> *s = &scenes[j];
        bj.scene = [s](std::uint32_t f) -> const Scene & {
            return (*s)[f];
        };
        bj.frames = static_cast<std::uint32_t>(s->size());
        jobs.push_back(std::move(bj));
    }
    return jobs;
}

TEST(ResultCacheTest, SecondBatchIsAllHitsAndByteIdentical)
{
    setLogQuiet(true);
    const std::string dir = tempDir("batch_cache");
    ResultCache &rc = ResultCache::global();
    rc.resetForTests();
    rc.configure(dir, CacheMode::ReadWrite, 0, false);

    const GpuConfig cfgs[] = {small(makeBaselineConfig()),
                              small(makeDTexLConfig())};
    std::vector<std::vector<Scene>> scenes;
    for (const GpuConfig &cfg : cfgs) {
        scenes.emplace_back();
        for (std::uint32_t f = 0; f < 2; ++f)
            scenes.back().push_back(
                generateScene(benchmarkByAlias("GTr"), cfg, f));
    }

    StatRegistry reg1("run1");
    const std::vector<BatchResult> cold =
        runBatch(makeBatch(scenes), 2, &reg1);
    ASSERT_EQ(cold.size(), 2u);
    for (const BatchResult &r : cold) {
        EXPECT_TRUE(r.ok);
        EXPECT_FALSE(r.cacheHit);
    }
    EXPECT_EQ(rc.misses(), 2u);
    EXPECT_EQ(rc.stores(), 2u);

    StatRegistry reg2("run2");
    const std::vector<BatchResult> warm =
        runBatch(makeBatch(scenes), 2, &reg2);
    ASSERT_EQ(warm.size(), 2u);
    EXPECT_EQ(rc.hits(), 2u);
    for (std::size_t j = 0; j < 2; ++j) {
        EXPECT_TRUE(warm[j].ok);
        EXPECT_TRUE(warm[j].cacheHit) << warm[j].label;
        ASSERT_EQ(warm[j].frames.size(), cold[j].frames.size());
        for (std::size_t f = 0; f < cold[j].frames.size(); ++f)
            expectSameStats(cold[j].frames[f], warm[j].frames[f],
                            warm[j].label + " frame " +
                                std::to_string(f));
    }
    // The stats-JSON artifact is a dump of the registry: identical
    // counters (wall clocks aside) mean byte-identical artifacts.
    expectSameRegistry(reg1, reg2);

    // Read-only mode serves hits but never writes.
    rc.configure(dir, CacheMode::Read, 0, false);
    const std::uint64_t stores_before = rc.stores();
    StatRegistry reg3("run3");
    const std::vector<BatchResult> ro =
        runBatch(makeBatch(scenes), 1, &reg3);
    EXPECT_TRUE(ro[0].cacheHit);
    EXPECT_TRUE(ro[1].cacheHit);
    EXPECT_EQ(rc.stores(), stores_before);
    expectSameRegistry(reg1, reg3);

    rc.resetForTests();
    setLogQuiet(false);
}

TEST(ResultCacheTest, TruncatedEntryRecomputesThroughTheEngine)
{
    setLogQuiet(true);
    const std::string dir = tempDir("batch_truncate");
    ResultCache &rc = ResultCache::global();
    rc.resetForTests();
    rc.configure(dir, CacheMode::ReadWrite, 0, false);

    std::vector<std::vector<Scene>> scenes;
    scenes.emplace_back();
    scenes.back().push_back(generateScene(
        benchmarkByAlias("Mze"), small(makeBaselineConfig()), 0));

    std::vector<BatchJob> jobs;
    BatchJob bj;
    bj.label = "Mze";
    bj.cfg = small(makeBaselineConfig());
    const std::vector<Scene> *s = &scenes[0];
    bj.scene = [s](std::uint32_t f) -> const Scene & { return (*s)[f]; };
    bj.frames = 1;
    jobs.push_back(std::move(bj));

    const std::vector<BatchResult> cold = runBatch(jobs, 1, nullptr);
    ASSERT_TRUE(cold[0].ok);

    // A truncated entry must be detected and recomputed — the result
    // stays correct, the process stays alive.
    ScopedFault fault(FaultSite::CacheTruncate);
    const std::vector<BatchResult> warm = runBatch(jobs, 1, nullptr);
    ASSERT_TRUE(warm[0].ok);
    EXPECT_FALSE(warm[0].cacheHit);
    EXPECT_EQ(FaultInject::global().fired(FaultSite::CacheTruncate), 1u);
    expectSameStats(cold[0].frames[0], warm[0].frames[0],
                    "recomputed after truncation");

    rc.resetForTests();
    setLogQuiet(false);
}

} // namespace
} // namespace dtexl
