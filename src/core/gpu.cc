#include "core/gpu.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <utility>
#include <vector>

#include "common/fault_inject.hh"
#include "common/log.hh"
#include "common/serial.hh"
#include "common/sim_error.hh"
#include "common/trace.hh"
#include "telemetry/export.hh"

namespace dtexl {

namespace {

std::uint64_t
wallMicrosSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

/**
 * Level-2 row sources in emission order: busy and stall of each SC,
 * then the shared memory levels. tileSourceValues() lists a row's
 * values in the same order.
 */
constexpr std::size_t kNumTileSources = 2 * Telemetry::TileRow::kMaxScs + 2;
constexpr std::array<const char *, kNumTileSources> kTileSourceNames = {
    "sc0.busy", "sc0.stall", "sc1.busy", "sc1.stall", "sc2.busy",
    "sc2.stall", "sc3.busy", "sc3.stall", "l2.accesses",
    "dram.accesses"};

std::array<std::uint64_t, kNumTileSources>
tileSourceValues(const Telemetry::TileRow &r)
{
    return {r.scBusy[0], r.scStall[0], r.scBusy[1], r.scStall[1],
            r.scBusy[2], r.scStall[2], r.scBusy[3], r.scStall[3],
            r.l2Accesses, r.dramAccesses};
}

} // namespace

GpuSimulator::GpuSimulator(const GpuConfig &cfg_in, const Scene &scene_in)
    : cfg(cfg_in), scene(&scene_in)
{
    // Fault harness: corrupt this simulator's private config copy so
    // the real validator below must reject it (SimError{Config}).
    if (FaultInject::global().fire(FaultSite::ConfigMisSize))
        cfg.textureCache.sizeBytes += 13;
    cfg.validate();
    mem = std::make_unique<MemHierarchy>(cfg);
    fb = std::make_unique<FrameBuffer>(cfg);
    pb = std::make_unique<ParamBuffer>(cfg.numTiles());
    geom = std::make_unique<GeometryPhase>(cfg, *mem, *pb);
    pipeline = std::make_unique<RasterPipeline>(cfg, *mem, *scene, *fb,
                                                &flushSignatures);

    tel = std::make_unique<Telemetry>(cfg);
    if (tel->counters())
        pipeline->setTelemetry(tel.get());
}

void
GpuSimulator::setScene(const Scene &next)
{
    dtexl_assert(next.textures.size() == scene->textures.size(),
                 "scene swap must keep the texture table layout");
    for (std::size_t i = 0; i < next.textures.size(); ++i) {
        dtexl_assert(next.textures[i].baseAddr() ==
                             scene->textures[i].baseAddr() &&
                         next.textures[i].side() ==
                             scene->textures[i].side(),
                     "texture %zu changed across frames", i);
    }
    scene = &next;
    pipeline->setScene(next);
}

void
GpuSimulator::setStatRegistry(StatRegistry *reg, const std::string &prefix)
{
    registry = reg;
    statPrefix = prefix;
    geomStats = reg ? &reg->node(prefix + ".geometry") : nullptr;
    rasterStats = reg ? &reg->node(prefix + ".raster") : nullptr;
}

void
GpuSimulator::saveWarmState(ByteWriter &w) const
{
    mem->saveWarmState(w);
    // The flush-signature map is unordered; sort for a canonical
    // stream (the checkpoint checksum must be deterministic).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sig(
        flushSignatures.crc.begin(), flushSignatures.crc.end());
    std::sort(sig.begin(), sig.end());
    w.u64(sig.size());
    for (const auto &[addr, crc] : sig) {
        w.u64(addr);
        w.u64(crc);
    }
    tel->saveState(w);
}

void
GpuSimulator::restoreWarmState(ByteReader &r)
{
    mem->restoreWarmState(r);
    flushSignatures.crc.clear();
    const std::uint64_t n = r.u64();
    if (n > r.remaining() / 16)
        throwIoError("flush-signature count %llu exceeds payload",
                     static_cast<unsigned long long>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t addr = r.u64();
        const std::uint64_t crc = r.u64();
        flushSignatures.crc.emplace(addr, crc);
    }
    tel->restoreState(r);
}

void
GpuSimulator::resetWarmState()
{
    mem->flushAll();
    flushSignatures.crc.clear();
    tel->resetCumulative();
}

FrameStats
GpuSimulator::renderFrame()
{
    FrameStats fs;

    // Each frame restarts the cycle count at zero: reset in-flight
    // timing state (ports, MSHRs, DRAM banks) while keeping cache
    // contents warm, and reinitialize the pipeline's per-frame state
    // (barriers, banks, FIFOs, cores, assigner) in place.
    mem->resetTiming();
    pipeline->beginFrame();

    // Snapshot memory counters so per-frame deltas are exact even when
    // frames are rendered back to back.
    const std::uint64_t l2_before = mem->l2().accesses();
    const std::uint64_t l2_miss_before = mem->l2().misses();
    const std::uint64_t dram_before = mem->dram().accesses();
    const std::uint64_t vtx_before = mem->vertexCache().accesses();
    const std::uint64_t tile_before = mem->tileCache().accesses();
    std::uint64_t l1tex_before = 0, l1tex_miss_before = 0;
    for (std::size_t i = 0; i < mem->numTextureCaches(); ++i) {
        l1tex_before +=
            mem->textureCache(static_cast<CoreId>(i)).accesses();
        l1tex_miss_before +=
            mem->textureCache(static_cast<CoreId>(i)).misses();
    }

    // ---- Geometry phase: Vertex Stage -> Primitive Assembly ->
    //      Polygon List Builder (Tiling Engine) ----
    const auto geom_wall0 = std::chrono::steady_clock::now();
    GeometryPhase::Result gr;
    {
        TraceScope span("geometry", "phase");
        gr = geom->run(*scene);
    }
    const std::uint64_t geom_wall_us = wallMicrosSince(geom_wall0);
    fs.geometryCycles = gr.cycles;
    fs.verticesProcessed = gr.vertices;
    fs.primitivesBinned = gr.primitives;

    // ---- Raster phase ----
    // Geometry and raster are separate pipeline phases that overlap
    // across frames (the Parameter Buffer is double-buffered), so the
    // raster phase starts its own cycle-0 epoch: in-flight timing
    // state is reset while cache contents stay warm.
    mem->resetTiming();
    fb->clear();
    // Telemetry is armed for the raster phase only: geometry restarts
    // the cycle count at zero, so its traffic must not be attributed
    // against raster-phase epochs.
    const bool monitored = tel->counters();
    Telemetry::TileRow row_base;  // level 2: counters before tile 0
    if (monitored) {
        tel->beginEpoch();
        row_base = tel->liveRow(0, mem->l2().accesses(),
                                mem->dram().accesses());
        mem->attachTelemetry(tel.get());
    }
    // Explicit span (not TraceScope): the start timestamp doubles as
    // the origin for mapping tile-row cycles onto the trace time axis.
    const std::uint64_t raster_ts0 = TraceWriter::nowMicros();
    fs.rasterCycles = pipeline->run(*pb, fs);
    const std::uint64_t raster_ts1 = TraceWriter::nowMicros();
    if (TraceWriter::global().enabled()) {
        TraceWriter::global().complete("raster", "phase", raster_ts0,
                                       raster_ts1 - raster_ts0);
    }
    if (monitored) {
        mem->attachTelemetry(nullptr);
        tel->finalizeEpoch(fs.rasterCycles);
    }
    const std::uint64_t raster_wall_us = raster_ts1 - raster_ts0;

    // The two phases pipeline across frames (the Parameter Buffer is
    // double-buffered in real TBR parts), so steady-state frame time is
    // the slower phase.
    fs.totalCycles = std::max(fs.geometryCycles, fs.rasterCycles);
    fs.fps = fs.totalCycles == 0
                 ? 0.0
                 : static_cast<double>(cfg.clockHz) /
                       static_cast<double>(fs.totalCycles);

    // ---- Memory + work counters ----
    fs.l2Accesses = mem->l2().accesses() - l2_before;
    fs.l2Misses = mem->l2().misses() - l2_miss_before;
    fs.dramAccesses = mem->dram().accesses() - dram_before;
    for (std::size_t i = 0; i < mem->numTextureCaches(); ++i) {
        fs.l1TexAccesses +=
            mem->textureCache(static_cast<CoreId>(i)).accesses();
        fs.l1TexMisses +=
            mem->textureCache(static_cast<CoreId>(i)).misses();
    }
    fs.l1TexAccesses -= l1tex_before;
    fs.l1TexMisses -= l1tex_miss_before;
    fs.l1VertexAccesses = mem->vertexCache().accesses() - vtx_before;
    fs.l1TileAccesses = mem->tileCache().accesses() - tile_before;
    fs.earlyZTests = pipeline->stats().get("ez_tests");
    fs.blendOps = pipeline->stats().get("blend_ops");
    fs.flushLineWrites = pipeline->stats().get("flush_line_writes");

    for (std::uint32_t p = 0; p < cfg.numPipelines; ++p) {
        const StatSet &sc = pipeline->core(static_cast<CoreId>(p))
                                .stats();
        fs.fragmentsShaded += sc.get("fragments");
        fs.shaderInstructions += sc.get("alu_ops") +
                                 sc.get("tex_instructions");
        fs.textureSamples += sc.get("tex_samples");
    }

    fs.textureReplication = mem->textureReplicationFactor();
    fs.imageHash = fb->hash();

    // ---- Observability: per-phase counters ----
    if (registry) {
        geomStats->inc("frames");
        geomStats->inc("cycles", fs.geometryCycles);
        geomStats->inc("wall_us", geom_wall_us);
        rasterStats->inc("frames");
        rasterStats->inc("cycles", fs.rasterCycles);
        rasterStats->inc("wall_us", raster_wall_us);
        if (monitored)
            tel->publish(*registry, statPrefix);
    }

    // ---- Level 2: emit the epoch's per-tile counter rows ----
    if (tel->sampling()) {
        const std::vector<Telemetry::TileRow> &rows = tel->tileRows();
        const std::uint32_t frame = tel->frames() - 1;
        if (tel->epochTiles() > rows.size()) {
            warn("telemetry: frame %u has %zu tiles; its per-tile rows "
                 "keep the first %zu",
                 frame, tel->epochTiles(), rows.size());
        }
        const bool trace_on = TraceWriter::global().enabled();
        const bool csv_on =
            TelemetryExport::global().timelineEnabled();
        if (trace_on || csv_on) {
            // Map raster-phase sim cycles onto the span's wall window
            // so counter tracks line up under the "raster" span.
            const double us_per_cycle =
                fs.rasterCycles > 0
                    ? static_cast<double>(raster_ts1 - raster_ts0) /
                          static_cast<double>(fs.rasterCycles)
                    : 0.0;
            // SC sources past the configured pipes are not emitted.
            const std::size_t n_sc_sources = 2 * cfg.numPipelines;
            auto prev = tileSourceValues(row_base);
            for (const Telemetry::TileRow &row : rows) {
                const std::uint64_t ts =
                    raster_ts0 +
                    static_cast<std::uint64_t>(
                        static_cast<double>(row.cycle) * us_per_cycle);
                const auto values = tileSourceValues(row);
                for (std::size_t i = 0; i < kNumTileSources; ++i) {
                    if (i >= n_sc_sources &&
                        i < 2 * Telemetry::TileRow::kMaxScs)
                        continue;
                    // Per-tile delta: cumulative sources turn into
                    // rate tracks, which is what the viewer shows best.
                    const std::uint64_t delta =
                        values[i] >= prev[i] ? values[i] - prev[i] : 0;
                    if (trace_on) {
                        TraceWriter::global().counter(
                            statPrefix + "." + kTileSourceNames[i], ts,
                            delta);
                    }
                    if (csv_on) {
                        TelemetryExport::global().appendTimelineRow(
                            statPrefix, frame, row.cycle,
                            kTileSourceNames[i], delta);
                    }
                }
                prev = values;
            }
        }
    }
    return fs;
}

} // namespace dtexl
