/**
 * @file
 * Micro-benchmarks (google-benchmark) for the SIMD lane kernels: each
 * vectorized hot path runs against its scalar twin so the speedup the
 * lane layer buys is measured directly (scripts/run_perf.py gates on
 * the geometric mean of the lanes/scalar pairs). The pairs compute
 * bit-identical results — tests/test_simd.cc enforces that; this file
 * only times them.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/serial.hh"
#include "raster/rasterizer.hh"
#include "sfc/tile_order.hh"

namespace {

using namespace dtexl;

// ---------------------------------------------------------------------
// Rasterizer: edge coverage + attribute interpolation
// ---------------------------------------------------------------------

Primitive
tileTriangle()
{
    Primitive p;
    p.v[0].screen = {1.0f, 1.0f};
    p.v[1].screen = {31.0f, 2.0f};
    p.v[2].screen = {4.0f, 30.0f};
    p.v[0].uv = {0.0f, 0.0f};
    p.v[1].uv = {0.1f, 0.0f};
    p.v[2].uv = {0.0f, 0.1f};
    p.v[0].depth = 0.2f;
    p.v[1].depth = 0.4f;
    p.v[2].depth = 0.9f;
    return p;
}

void
BM_Rasterize(benchmark::State &state, SimdMode mode)
{
    GpuConfig cfg;
    cfg.simdMode = mode;
    Rasterizer rast(cfg);
    const Primitive prim = tileTriangle();
    std::vector<Quad> quads;
    for (auto _ : state) {
        quads.clear();
        benchmark::DoNotOptimize(rast.rasterize(prim, {0, 0}, quads));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * quads.size()));
}
BENCHMARK_CAPTURE(BM_Rasterize, scalar, SimdMode::Scalar);
BENCHMARK_CAPTURE(BM_Rasterize, lanes, SimdMode::Auto);

// ---------------------------------------------------------------------
// Tile traversal (Morton decode, 4 cells per lane op)
// ---------------------------------------------------------------------

void
BM_TileOrder(benchmark::State &state, TileOrder order, SimdMode mode)
{
    // The full-screen grid of the paper's Table II machine (62x24).
    for (auto _ : state) {
        benchmark::DoNotOptimize(makeTileOrder(order, 62, 24, mode));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * 62 * 24));
}
BENCHMARK_CAPTURE(BM_TileOrder, zorder_scalar, TileOrder::ZOrder,
                  SimdMode::Scalar);
BENCHMARK_CAPTURE(BM_TileOrder, zorder_lanes, TileOrder::ZOrder,
                  SimdMode::Auto);

// ---------------------------------------------------------------------
// Artifact checksum: striped FNV (parallel chains) vs the serial digest
// ---------------------------------------------------------------------

std::vector<std::uint8_t>
checksumBuffer()
{
    std::vector<std::uint8_t> buf(1 << 20);
    std::uint64_t rng = 0xa4093822299f31d0ull;
    for (auto &b : buf) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        b = static_cast<std::uint8_t>(rng);
    }
    return buf;
}

/** The old serial checksum the striped digest replaced (baseline). */
void
BM_ChecksumSerial(benchmark::State &state)
{
    const std::vector<std::uint8_t> buf = checksumBuffer();
    for (auto _ : state)
        benchmark::DoNotOptimize(fnv1a64(buf));
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * buf.size()));
}
BENCHMARK(BM_ChecksumSerial);

/**
 * The striped 4-chain digest that replaced it. The chains break the
 * serial digest's multiply-latency dependency; they run as unrolled
 * scalar code on purpose — a U64x4 lane loop measured slower on every
 * backend, AVX2 included (the FNV recurrence is latency-bound and the
 * emulated 64-bit lane multiply has ~3x the chain latency of four
 * pipelined imuls).
 */
void
BM_ChecksumStriped(benchmark::State &state)
{
    const std::vector<std::uint8_t> buf = checksumBuffer();
    for (auto _ : state)
        benchmark::DoNotOptimize(fnv1a64Striped(buf));
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * buf.size()));
}
BENCHMARK(BM_ChecksumStriped);

} // namespace

BENCHMARK_MAIN();
