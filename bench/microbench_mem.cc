/**
 * @file
 * Throughput micro-benchmarks (google-benchmark) for the memory
 * hierarchy: the RateWindow port/bandwidth primitive, cache hit, miss
 * and MSHR-pressure streams, banked DRAM, the texture read path through
 * L1/L2/DRAM, and texture-sampler footprint resolution.
 * scripts/run_perf.py measures the end-to-end analogue on the figure
 * benches.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>

#include "common/config.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/hierarchy.hh"
#include "mem/rate_window.hh"
#include "texture/sampler.hh"

namespace {

using namespace dtexl;

/** Deterministic xorshift for out-of-order access jitter. */
class Rng
{
  public:
    std::uint64_t
    next()
    {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }

  private:
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
};

/** Fixed-latency backing store (cache benches need a next level). */
class PerfectMem : public MemLevel
{
  public:
    Cycle
    access(Addr, AccessType, Cycle now) override
    {
        return now + 80;
    }
};

/**
 * The RateWindow is the port/bandwidth primitive every cache and DRAM
 * channel arbitrates through — the hottest single object in profiles.
 * Mostly-ordered request stream with jitter, like real pipeline
 * traffic.
 */
void
BM_RateWindowReserve(benchmark::State &state)
{
    RateWindow win(4 * 8, 8);
    Rng rng;
    Cycle base = 0;
    bool stalled = false;
    for (auto _ : state) {
        base += rng.next() % 3;
        const Cycle jitter = rng.next() % 17;
        const Cycle now = base > jitter ? base - jitter : Cycle{0};
        benchmark::DoNotOptimize(win.reserve(now, stalled));
    }
}
BENCHMARK(BM_RateWindowReserve);

/**
 * L1-shaped access stream: high hit rate over a small working set with
 * runs of consecutive same-line hits (what the last-line-hit filter
 * targets), plus a steady trickle of conflict misses.
 */
void
BM_CacheHitStream(benchmark::State &state)
{
    PerfectMem backing;
    CacheConfig cfg;
    cfg.sizeBytes = 16 * 1024;
    cfg.lineBytes = 64;
    cfg.ways = 4;
    cfg.numMshrs = 16;
    Cache cache("bm", cfg, 4, backing);

    Rng rng;
    Cycle now = 0;
    for (auto _ : state) {
        // ~4 accesses per line before moving on: bilinear footprints.
        const Addr line = (rng.next() % 256) * 64;
        for (int k = 0; k < 4; ++k) {
            benchmark::DoNotOptimize(
                cache.access(line + k * 8, AccessType::Read, now));
        }
        now += 1;
    }
}
BENCHMARK(BM_CacheHitStream);

/**
 * MSHR pressure: a tiny MSHR pool and a miss-heavy out-of-order stream
 * keep acquireMshr()'s occupancy scan and purge on the critical path.
 */
void
BM_CacheMshrPressure(benchmark::State &state)
{
    PerfectMem backing;
    CacheConfig cfg;
    cfg.sizeBytes = 4 * 1024;
    cfg.lineBytes = 64;
    cfg.ways = 2;
    cfg.numMshrs = 4;
    Cache cache("bm", cfg, 4, backing);

    Rng rng;
    Cycle base = 0;
    Addr sweep = 0;
    for (auto _ : state) {
        base += 2;
        const Cycle jitter = rng.next() % 65;
        const Cycle now = base > jitter ? base - jitter : Cycle{0};
        // A wide sweep so most accesses miss.
        sweep += 64 * 7;
        benchmark::DoNotOptimize(
            cache.access(sweep & 0xFFFFFF, AccessType::Read, now));
    }
}
BENCHMARK(BM_CacheMshrPressure);

/** Banked DRAM with row-buffer locality and channel arbitration. */
void
BM_DramStream(benchmark::State &state)
{
    DramConfig cfg;
    Dram dram(cfg);
    Rng rng;
    Cycle now = 0;
    Addr row_base = 0;
    for (auto _ : state) {
        if (rng.next() % 8 == 0)
            row_base = (rng.next() % 4096) * 2048;
        benchmark::DoNotOptimize(dram.access(
            row_base + (rng.next() % 32) * 64, AccessType::Read, now));
        now += 3;
    }
}
BENCHMARK(BM_DramStream);

/**
 * End-to-end memory path as the shader cores drive it: one texture
 * instruction per iteration, four fragment samples of 1-4 lines each
 * around a shared base (neighbouring fragments repeat lines, as
 * bilinear footprints do), issued two fragments per cycle. Bases stay
 * in a warm neighbourhood with an occasional cold one, and the issue
 * rate stays under the L1 port rate, so most reads hit as in a frame
 * while some spill into the shared L2 and DRAM.
 */
void
BM_HierarchyTextureRead(benchmark::State &state)
{
    GpuConfig cfg;
    MemHierarchy mem(cfg);

    Rng rng;
    Cycle now = 0;
    std::array<Addr, 4> lines;
    for (auto _ : state) {
        const CoreId core = static_cast<CoreId>(rng.next() % 4);
        const Addr base =
            (rng.next() % 32 == 0 ? rng.next() % 8192 : rng.next() % 128) *
            64;
        for (unsigned k = 0; k < 4; ++k) {
            const std::uint32_t n = 1 + rng.next() % 4;
            for (std::uint32_t l = 0; l < n; ++l)
                lines[l] = base + (rng.next() % 3) * 64;
            benchmark::DoNotOptimize(
                mem.textureRead(core, lines.data(), n, now + k / 2));
        }
        now += 4;
    }
}
BENCHMARK(BM_HierarchyTextureRead);

/** Repeated L1 texture hit on one line through the hierarchy. */
void
BM_CacheHit(benchmark::State &state)
{
    GpuConfig cfg;
    MemHierarchy mem(cfg);
    const Addr line = 0x1000;
    mem.textureRead(0, &line, 1, 0);
    Cycle now = 1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem.textureRead(0, &line, 1, now));
        now += 2;
    }
}
BENCHMARK(BM_CacheHit);

/** Dependent cold misses through L1, L2 and DRAM. */
void
BM_CacheMissChain(benchmark::State &state)
{
    GpuConfig cfg;
    MemHierarchy mem(cfg);
    Addr a = 0;
    Cycle now = 0;
    for (auto _ : state) {
        now = mem.textureRead(0, &a, 1, now);
        a += 64;  // every access a cold miss
    }
}
BENCHMARK(BM_CacheMissChain);

/** Texel footprint and line resolution per filter mode. */
void
BM_SamplerFootprint(benchmark::State &state)
{
    const TextureDesc tex(0, 0x1000'0000, 1024);
    const auto mode = static_cast<FilterMode>(state.range(0));
    float u = 0.1f;
    std::array<Addr, SampleFootprint::kMaxTexels> lines;
    for (auto _ : state) {
        const SampleFootprint fp =
            sampleFootprint(tex, mode, u, 0.5f, 0.7f);
        benchmark::DoNotOptimize(footprintLines(fp, 64, lines));
        u += 0.001f;
        if (u >= 1.0f)
            u = 0.0f;
    }
}
BENCHMARK(BM_SamplerFootprint)
    ->Arg(static_cast<int>(FilterMode::Bilinear))
    ->Arg(static_cast<int>(FilterMode::Trilinear))
    ->Arg(static_cast<int>(FilterMode::Aniso2x));

} // namespace

BENCHMARK_MAIN();
