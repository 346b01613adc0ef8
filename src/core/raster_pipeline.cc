#include "core/raster_pipeline.hh"

#include <algorithm>
#include <sstream>

#include "common/fault_inject.hh"
#include "common/log.hh"
#include "common/sim_error.hh"

namespace dtexl {

RasterPipeline::RasterPipeline(const GpuConfig &cfg, MemHierarchy &mem,
                               const Scene &scene, FrameBuffer &fb,
                               FlushSignatures *signatures)
    : cfg(cfg), mem(mem), scene(&scene), fb(fb), signatures(signatures),
      layout(cfg.grouping, cfg.quadsPerTileSide()),
      assigner(cfg.assignment, layout), rasterizer(cfg)
{
    const std::uint32_t n = cfg.quadsPerTileSide();
    const std::uint32_t slots =
        singlePipe() ? n * n : layout.quadsPerSubtile();
    for (std::uint32_t p = 0; p < numPipes(); ++p) {
        cores[p] = std::make_unique<ShaderCore>(
            static_cast<CoreId>(p), cfg, mem, *this->scene);
        pipes[p].depth.assign(std::size_t{slots} * 4, 1.0f);
        pipes[p].color.assign(std::size_t{slots} * 4, kClearColor);
    }

    if (singlePipe()) {
        slotToQuad[0].resize(std::size_t{n} * n);
        for (std::uint32_t y = 0; y < n; ++y)
            for (std::uint32_t x = 0; x < n; ++x)
                slotToQuad[0][std::size_t{y} * n + x] =
                    Coord2{static_cast<std::int32_t>(x),
                           static_cast<std::int32_t>(y)};
    } else {
        for (std::uint8_t s = 0; s < kNumSubtiles; ++s)
            slotToQuad[s].resize(layout.quadsPerSubtile());
        for (std::uint32_t y = 0; y < n; ++y) {
            for (std::uint32_t x = 0; x < n; ++x) {
                const Coord2 q{static_cast<std::int32_t>(x),
                               static_cast<std::int32_t>(y)};
                slotToQuad[layout.subtileOf(q)][layout.slotOf(q)] = q;
            }
        }
    }
    bindStats();
}

void
RasterPipeline::bindStats()
{
    hot.hizCulled = &stats_.handle("hiz_culled");
    hot.ezTests = &stats_.handle("ez_tests");
    hot.blendOps = &stats_.handle("blend_ops");
    hot.flushEliminated = &stats_.handle("flush_eliminated");
    hot.flushPartialLines = &stats_.handle("flush_partial_lines");
    hot.flushLineWrites = &stats_.handle("flush_line_writes");
}

void
RasterPipeline::beginFrame()
{
    for (std::uint32_t p = 0; p < numPipes(); ++p) {
        PipeState &ps = pipes[p];
        ps.ezFinish = 0;
        ps.ezBusyUntil = 0;
        ps.fsFinish = 0;
        ps.blendFinish = 0;
        ps.blendBusyUntil = 0;
        ps.flushDone = 0;
        ps.fifo.clear();
        std::fill(ps.depth.begin(), ps.depth.end(), 1.0f);
        std::fill(ps.color.begin(), ps.color.end(), kClearColor);
        ps.batch.clear();
        ps.arrivals.clear();
        cores[p]->beginFrame();
    }
    assigner.reset();
    quadArena.clear();
    flushAddrs.clear();
    stats_.clear();
    bindStats();
}

void
RasterPipeline::setScene(const Scene &next)
{
    scene = &next;
    for (std::uint32_t p = 0; p < numPipes(); ++p)
        cores[p]->setScene(next);
}

std::uint32_t
RasterPipeline::pipeOf(const QuadStream &qs, std::uint32_t qi,
                       const std::array<CoreId, kNumSubtiles> &perm) const
{
    return singlePipe() ? 0u : perm[qs.subtile(qi)];
}

std::uint32_t
RasterPipeline::slotOf(const QuadStream &qs, std::uint32_t qi) const
{
    if (singlePipe()) {
        const Coord2 qc = qs.quadInTile(qi);
        return static_cast<std::uint32_t>(qc.y) *
                   cfg.quadsPerTileSide() +
               static_cast<std::uint32_t>(qc.x);
    }
    return qs.slot(qi);
}

bool
RasterPipeline::earlyZTest(PipeState &ps, const QuadStream &qs,
                           std::uint32_t qi, std::uint8_t &coverage,
                           bool late_z) const
{
    if (late_z)
        return true;  // test deferred to the Late Z-Test at blending
    const std::uint32_t base = slotOf(qs, qi) * 4;
    const bool blends = qs.prim(qi)->shader.blends;
    std::uint8_t out = 0;
    for (unsigned k = 0; k < 4; ++k) {
        if (!(coverage & (1u << k)))
            continue;
        float &stored = ps.depth[base + k];
        const float d = qs.depth(qi, k);
        if (d < stored) {
            out |= static_cast<std::uint8_t>(1u << k);
            if (!blends)
                stored = d;
        }
    }
    coverage = out;
    return out != 0;
}

void
RasterPipeline::blendQuad(PipeState &ps, const QuadStream &qs,
                          std::uint32_t qi, std::uint8_t coverage,
                          bool late_z)
{
    const std::uint32_t base = slotOf(qs, qi) * 4;
    const Primitive *prim = qs.prim(qi);
    for (unsigned k = 0; k < 4; ++k) {
        if (!(coverage & (1u << k)))
            continue;
        if (late_z) {
            float &stored = ps.depth[base + k];
            const float d = qs.depth(qi, k);
            if (!(d < stored))
                continue;
            if (!prim->shader.blends)
                stored = d;
        }
        ps.color[base + k] =
            blendPixel(ps.color[base + k],
                       shadeColor(prim->id, static_cast<std::uint32_t>(k)),
                       prim->shader.blends);
    }
}

Cycle
RasterPipeline::flushBank(PipeState &ps, Coord2 tile_coord,
                          std::uint8_t subtile,
                          const std::vector<Coord2> &slot_to_quad,
                          Cycle start, FrameStats &fs)
{
    // Copy the bank's pixels into the frame image and collect one
    // framebuffer line address per pixel into a pooled scratch vector;
    // sorting it groups each line's pixels, in ascending address order.
    flushAddrs.clear();
    std::uint64_t crc = 0xcbf29ce484222325ull;
    const std::int32_t px0 = tile_coord.x *
                             static_cast<std::int32_t>(cfg.tileSize);
    const std::int32_t py0 = tile_coord.y *
                             static_cast<std::int32_t>(cfg.tileSize);
    for (std::size_t slot = 0; slot < slot_to_quad.size(); ++slot) {
        const Coord2 qc = slot_to_quad[slot];
        for (unsigned k = 0; k < 4; ++k) {
            const std::int32_t px = px0 + qc.x * 2 +
                                    static_cast<std::int32_t>(k % 2);
            const std::int32_t py = py0 + qc.y * 2 +
                                    static_cast<std::int32_t>(k / 2);
            if (px >= static_cast<std::int32_t>(cfg.screenWidth) ||
                py >= static_cast<std::int32_t>(cfg.screenHeight)) {
                continue;  // partial edge tile
            }
            fb.setPixel(static_cast<std::uint32_t>(px),
                        static_cast<std::uint32_t>(py),
                        ps.color[slot * 4 + k]);
            crc = (crc ^ ps.color[slot * 4 + k]) * 0x100000001b3ull;
            const Addr line =
                fb.pixelAddr(static_cast<std::uint32_t>(px),
                             static_cast<std::uint32_t>(py)) &
                ~Addr{cfg.tileCache.lineBytes - 1};
            flushAddrs.push_back(line);
        }
    }

    // Transaction elimination: skip the timed writes when the bank's
    // content is identical to what this (tile, subtile) flushed last
    // frame.
    if (cfg.transactionElimination && signatures) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(tile_coord.y) * cfg.tilesX() +
             static_cast<std::uint64_t>(tile_coord.x)) *
                kNumSubtiles +
            subtile;
        auto it = signatures->crc.find(key);
        if (it != signatures->crc.end() && it->second == crc) {
            ++fs.flushesEliminated;
            ++*hot.flushEliminated;
            std::fill(ps.color.begin(), ps.color.end(), kClearColor);
            return start;
        }
        signatures->crc[key] = crc;
    }

    // One line write per cycle through the Tile Cache, as posted
    // (write-combined) stores: flushes never hold cache MSHRs. Lines
    // fully covered by this bank's pixels are pure streaming stores;
    // partially covered lines (fine-grained groupings flushing per
    // bank) read-modify-write, occupying a second port slot.
    const std::uint32_t full = cfg.tileCache.lineBytes / 4;
    Cycle issue = start;
    Cycle done = start;
    std::sort(flushAddrs.begin(), flushAddrs.end());
    for (std::size_t i = 0; i < flushAddrs.size();) {
        std::size_t j = i + 1;
        while (j < flushAddrs.size() && flushAddrs[j] == flushAddrs[i])
            ++j;
        done = std::max(done,
                        mem.tileCache().writeLine(flushAddrs[i], issue));
        ++issue;
        if (j - i < full) {
            ++issue;  // RMW merge occupies an extra slot
            ++*hot.flushPartialLines;
        }
        ++*hot.flushLineWrites;
        i = j;
    }

    // Reset the bank for its next subtile.
    std::fill(ps.color.begin(), ps.color.end(), kClearColor);
    return done;
}

std::string
RasterPipeline::pipelineDump(std::uint32_t tile_sequence) const
{
    std::ostringstream os;
    os << "raster pipeline at tile " << tile_sequence << " ("
       << (cfg.decoupledBarriers ? "decoupled" : "coupled")
       << " barriers, FIFO depth " << cfg.stageFifoDepth << ")\n";
    for (std::uint32_t p = 0; p < numPipes(); ++p) {
        const PipeState &ps = pipes[p];
        os << "  pipe " << p << ": ez " << ps.ezFinish << " fs "
           << ps.fsFinish << " blend " << ps.blendFinish << " flush "
           << ps.flushDone << " | fifo " << ps.fifo.size() << "/"
           << cfg.stageFifoDepth;
        if (!ps.fifo.empty())
            os << " (front " << ps.fifo.front() << ", back "
               << ps.fifo.back() << ")";
        os << "\n";
    }
    os << "memory in flight\n" << mem.dumpInFlight();
    if (tel && tel->counters()) {
        os << "telemetry occupancy (busy/stall cycles)\n";
        for (std::size_t u = 0; u < kNumTelemetryUnits; ++u) {
            const auto unit = static_cast<TelemetryUnit>(u);
            const UnitTrack &t = tel->track(unit);
            if (t.liveBusyCycles() == 0 && t.liveStallCycles() == 0)
                continue;
            os << "  " << unitName(unit) << ": busy "
               << t.liveBusyCycles() << ", stall "
               << t.liveStallCycles() << "\n";
        }
    }
    return os.str();
}

Cycle
RasterPipeline::run(const ParamBuffer &pb, FrameStats &fs)
{
    TileFetcher fetcher(cfg, mem, pb);
    const std::uint32_t n_pipes = numPipes();
    const bool coupled = !cfg.decoupledBarriers;
    // Attribution monitor: null when telemetry is off, so every hook
    // below is a single pointer test on the hot path.
    Telemetry *const tmon = (tel && tel->counters()) ? tel : nullptr;

    // Current tile's quads, raster order — the pooled SoA arena, so
    // steady-state tiles rasterize into already-grown storage.
    QuadStream &quads = quadArena;
    quads.clear();
    // Per-tile temporaries hoisted out of the tile loop so their
    // capacity is reused; every element is rewritten per tile.
    std::vector<ShaderCore *> core_ptrs;
    std::vector<ShaderCore::BatchInput> batch_inputs;
    std::vector<float> hiz_quad_max;
    std::vector<float> hiz_block_max;
    std::vector<double> t_samples(4), q_samples(4);
    Cycle frame_end = 0;
    Cycle watchdog_progress = 0; // last tile's frame_end (watchdog)
    Cycle fetch_cursor = 0;      // when the fetcher may start a tile
    Cycle rast_free = 0;         // when the rasterizer may start a tile
    Cycle emit_cycle = 0;        // current emission cycle
    std::uint32_t emitted_this_cycle = 0;
    Cycle shared_flush_done = 0; // coupled: whole-tile flush completion
    std::deque<Cycle> rast_start_history;  // for 2-deep tile prefetch

    std::array<Cycle, kNumSubtiles> prev_fs_finish{};

    while (!fetcher.done()) {
        // --- Tile Fetcher (runs up to two tiles ahead) ---
        if (rast_start_history.size() >= 2) {
            fetch_cursor =
                std::max(fetch_cursor, rast_start_history.front());
            rast_start_history.pop_front();
        }
        FetchedTile tile = fetcher.fetchNext(fetch_cursor);
        fetch_cursor = tile.readyAt;

        // --- Rasterize the tile (functional) ---
        quads.clear();
        bool late_z = false;
        for (const Primitive *prim : tile.prims) {
            rasterizer.rasterize(*prim, tile.coord, quads);
            late_z |= prim->shader.modifiesDepth;
        }
        fs.quadsRasterized += quads.size();

        // --- Schedule: grouping + assignment ---
        const std::array<CoreId, kNumSubtiles> perm =
            assigner.next(tile.coord);
        const auto n_tile_quads = static_cast<std::uint32_t>(
            quads.size());
        if (!singlePipe()) {
            for (std::uint32_t qi = 0; qi < n_tile_quads; ++qi) {
                const Coord2 qc = quads.quadInTile(qi);
                quads.setSubtile(qi, layout.subtileOf(qc));
                quads.setSlot(qi, static_cast<std::uint16_t>(
                                      layout.slotOf(qc)));
            }
        }
        std::array<std::uint8_t, kNumSubtiles> inv_perm{};
        if (!singlePipe()) {
            for (std::uint8_t s = 0; s < kNumSubtiles; ++s)
                inv_perm[perm[s]] = s;
        }

        // --- Per-stage gates for this tile ---
        std::array<Cycle, kNumSubtiles> ez_gate{}, fs_gate{},
            blend_gate{};
        Cycle ez_gate_all = 0, fs_gate_all = 0, blend_gate_all = 0;
        for (std::uint32_t p = 0; p < n_pipes; ++p) {
            ez_gate_all = std::max(ez_gate_all, pipes[p].ezFinish);
            fs_gate_all = std::max(fs_gate_all, pipes[p].fsFinish);
            blend_gate_all =
                std::max(blend_gate_all, pipes[p].blendFinish);
        }
        // Cross-pipe blend barrier before the flush component folds in
        // (telemetry classifies BarrierWait vs DownstreamBackpressure
        // by which component binds).
        const Cycle blend_fin_all = blend_gate_all;
        blend_gate_all = std::max(blend_gate_all, shared_flush_done);
        for (std::uint32_t p = 0; p < n_pipes; ++p) {
            ez_gate[p] = coupled ? ez_gate_all : pipes[p].ezFinish;
            fs_gate[p] = coupled ? fs_gate_all : pipes[p].fsFinish;
            blend_gate[p] =
                coupled ? blend_gate_all
                        : std::max(pipes[p].blendFinish,
                                   pipes[p].flushDone);
        }

        // --- Reset per-tile state ---
        for (std::uint32_t p = 0; p < n_pipes; ++p) {
            PipeState &ps = pipes[p];
            std::fill(ps.depth.begin(), ps.depth.end(), 1.0f);
            ps.batch.clear();
            ps.arrivals.clear();
        }

        // --- Emission + Early-Z, in raster order ---
        const Cycle rast_start = std::max(rast_free, tile.readyAt);
        rast_start_history.push_back(rast_start);
        if (tmon && rast_start > rast_free) {
            // The rasterizer sat waiting for the Tile Fetcher.
            tmon->track(TelemetryUnit::Raster)
                .span(rast_free, rast_start, StallReason::UpstreamStarve);
        }
        if (rast_start > emit_cycle) {
            emit_cycle = rast_start;
            emitted_this_cycle = 0;
        }
        std::array<Cycle, kNumSubtiles> last_consume;
        for (std::uint32_t p = 0; p < n_pipes; ++p)
            last_consume[p] = ez_gate[p];

        // Hierarchical-Z (optional extension): conservative per-block
        // max depth over the tile; a quad entirely behind its block's
        // farthest written depth is culled in the rasterizer's coarse
        // stage, before emission.
        const std::uint32_t n_quads_side = cfg.quadsPerTileSide();
        const std::uint32_t hiz_blocks_side = divCeil(n_quads_side, 4);
        const bool use_hiz = cfg.hierarchicalZ && !late_z;
        if (use_hiz) {
            hiz_quad_max.assign(
                std::size_t{n_quads_side} * n_quads_side, 1.0f);
            hiz_block_max.assign(
                std::size_t{hiz_blocks_side} * hiz_blocks_side, 1.0f);
        }
        auto hiz_block_of = [&](const Coord2 &qc) {
            return static_cast<std::size_t>(qc.y / 4) *
                       hiz_blocks_side +
                   static_cast<std::size_t>(qc.x / 4);
        };

        for (std::uint32_t qi = 0; qi < n_tile_quads; ++qi) {
            const Coord2 q_coord = quads.quadInTile(qi);
            if (use_hiz) {
                float q_min = 1.0f;
                for (unsigned k = 0; k < 4; ++k)
                    if (quads.covered(qi, k))
                        q_min = std::min(q_min, quads.depth(qi, k));
                if (!(q_min < hiz_block_max[hiz_block_of(q_coord)])) {
                    ++fs.quadsCulledHiZ;
                    ++*hot.hizCulled;
                    continue;
                }
            }
            const std::uint32_t p = pipeOf(quads, qi, perm);
            PipeState &ps = pipes[p];

            // Fault harness: a leaked credit is a FIFO slot occupied
            // by an entry whose consume cycle never comes; once it
            // reaches the head, emission stalls forever and the
            // watchdog below must catch it (disarmed cost: one
            // relaxed load).
            if (FaultInject::global().fire(FaultSite::BarrierCreditLeak))
                ps.fifo.push_back(kFaultStallCycle);

            // Rasterizer emission slot (peak throughput + FIFO
            // back-pressure from the slowest pipeline).
            if (emitted_this_cycle >= cfg.rasterQuadsPerCycle) {
                ++emit_cycle;
                emitted_this_cycle = 0;
            }
            Cycle e = emit_cycle;
            if (ps.fifo.size() >= cfg.stageFifoDepth) {
                e = std::max(e, ps.fifo.front());
                ps.fifo.pop_front();
                if (e > emit_cycle) {
                    // Rasterizer head-of-line stall: the slowest
                    // pipeline's full FIFO blocks all emission.
                    if (tmon) {
                        tmon->track(TelemetryUnit::Raster)
                            .span(emit_cycle, e,
                                  StallReason::DownstreamBackpressure);
                    }
                    emit_cycle = e;
                    emitted_this_cycle = 0;
                }
            }
            ++emitted_this_cycle;
            if (tmon)
                tmon->track(TelemetryUnit::Raster).busy(e, e + 1);

            // Early-Z consumes 1 quad/cycle per pipeline.
            const Cycle c = std::max({e, ez_gate[p],
                                      ps.ezBusyUntil + 1});
            if (tmon) {
                // The gap up to this consume is either the tile
                // barrier (gate at least as late as the quad's
                // arrival) or waiting on the rasterizer. Decoupled
                // barriers make the gate the pipe's own finish, which
                // the watermark already covers — BarrierWait is then
                // exactly zero (tests/test_telemetry.cc).
                UnitTrack &t = tmon->track(ezUnit(p));
                t.stall(c, ez_gate[p] >= e ? StallReason::BarrierWait
                                           : StallReason::UpstreamStarve);
                t.busy(c, c + 1);
            }
            ps.ezBusyUntil = c;
            ps.fifo.push_back(c);
            last_consume[p] = std::max(last_consume[p], c);
            ++*hot.ezTests;

            std::uint8_t coverage = quads.coverage(qi);
            if (earlyZTest(ps, quads, qi, coverage, late_z)) {
                // Update the conservative HiZ pyramid: an opaque quad
                // covering all four fragments lowers its cell's
                // farthest depth.
                if (use_hiz && !quads.prim(qi)->shader.blends &&
                    coverage == 0xF) {
                    float q_max = 0.0f;
                    for (unsigned k = 0; k < 4; ++k)
                        q_max = std::max(q_max, quads.depth(qi, k));
                    const std::size_t cell =
                        static_cast<std::size_t>(q_coord.y) *
                            n_quads_side +
                        static_cast<std::size_t>(q_coord.x);
                    if (q_max < hiz_quad_max[cell]) {
                        hiz_quad_max[cell] = q_max;
                        // Recompute the block's max lazily.
                        const Coord2 base{(q_coord.x / 4) * 4,
                                          (q_coord.y / 4) * 4};
                        float bm = 0.0f;
                        for (std::int32_t dy = 0; dy < 4; ++dy) {
                            for (std::int32_t dx = 0; dx < 4; ++dx) {
                                const std::int32_t xx = base.x + dx;
                                const std::int32_t yy = base.y + dy;
                                if (xx >= static_cast<std::int32_t>(
                                              n_quads_side) ||
                                    yy >= static_cast<std::int32_t>(
                                              n_quads_side)) {
                                    continue;
                                }
                                bm = std::max(
                                    bm,
                                    hiz_quad_max[static_cast<
                                                     std::size_t>(yy) *
                                                     n_quads_side +
                                                 static_cast<
                                                     std::size_t>(xx)]);
                            }
                        }
                        hiz_block_max[hiz_block_of(q_coord)] = bm;
                    }
                }
                quads.setCoverage(qi, coverage);
                ps.batch.push_back(qi);
                ps.arrivals.push_back(c + 1);
            } else {
                ++fs.quadsCulledEarlyZ;
            }
        }
        rast_free = emit_cycle;
        for (std::uint32_t p = 0; p < n_pipes; ++p)
            pipes[p].ezFinish = last_consume[p];

        // --- Fragment Stage: one subtile per SC, all SCs executing
        //     concurrently in one interleaved event loop ---
        core_ptrs.clear();
        batch_inputs.clear();
        for (std::uint32_t p = 0; p < n_pipes; ++p) {
            core_ptrs.push_back(cores[p].get());
            batch_inputs.push_back({&quads, &pipes[p].batch,
                                    &pipes[p].arrivals, fs_gate[p]});
        }
        std::vector<ShaderCore::BatchResult> results;
        try {
            results = ShaderCore::runBatches(core_ptrs, batch_inputs);
        } catch (const SimError &e) {
            if (e.kind() != ErrorKind::Watchdog)
                throw;
            // Augment the shader-core dump with the pipeline's own
            // barrier/credit and memory state before unwinding.
            throw SimError(ErrorKind::Watchdog, e.what(), e.context(),
                           e.dump() + pipelineDump(tile.sequence));
        }

        std::array<Cycle, kNumSubtiles> busy{};
        for (std::uint32_t p = 0; p < n_pipes; ++p) {
            PipeState &ps = pipes[p];
            const ShaderCore::BatchResult &br = results[p];
            ps.fsFinish = std::max(fs_gate[p], br.finish);
            busy[p] = ps.batch.empty() ? 0 : br.finish - br.start;
            fs.quadsShaded += ps.batch.size();
            fs.quadsPerSc[p] += ps.batch.size();
            if (!ps.batch.empty()) {
                fs.barrierIdleCycles[p] +=
                    br.start > prev_fs_finish[p]
                        ? br.start - prev_fs_finish[p]
                        : 0;
            }
            if (tmon && !ps.batch.empty()) {
                // SC buckets per batch, telescoping to the final
                // fsFinish: [prev finish, gate) is the tile barrier,
                // [gate, start) waits on Early-Z output, issue cycles
                // are busy, and the rest of [start, finish) has no
                // ready warp (all blocked on texture).
                UnitTrack &t = tmon->track(scUnit(p));
                if (fs_gate[p] > prev_fs_finish[p])
                    t.add(StallReason::BarrierWait,
                          fs_gate[p] - prev_fs_finish[p]);
                if (br.start > fs_gate[p])
                    t.add(StallReason::UpstreamStarve,
                          br.start - fs_gate[p]);
                t.addBusy(br.issues);
                const Cycle active = br.finish - br.start;
                if (active > br.issues)
                    t.add(StallReason::NoReadyWarp,
                          active - br.issues);
            }
            prev_fs_finish[p] = ps.fsFinish;

            // --- Blending: in-order commit, 1 quad/cycle ---
            Cycle last_commit = blend_gate[p];
            for (std::size_t i = 0; i < ps.batch.size(); ++i) {
                const Cycle commit =
                    std::max({blend_gate[p], ps.blendBusyUntil + 1,
                              br.completion[i]});
                if (tmon) {
                    // Classify the gap up to this commit: the fragment
                    // result arriving last is upstream; otherwise the
                    // gate binds — split it into the flush component
                    // (DownstreamBackpressure) vs the coupled
                    // cross-pipe barrier, whichever is later. With
                    // decoupled barriers there is no cross-pipe
                    // component, so BarrierWait is exactly zero.
                    const Cycle barrier = coupled ? blend_fin_all : 0;
                    const Cycle flushc =
                        coupled ? shared_flush_done : ps.flushDone;
                    StallReason r;
                    if (br.completion[i] >= blend_gate[p])
                        r = StallReason::UpstreamStarve;
                    else if (flushc >= barrier)
                        r = StallReason::DownstreamBackpressure;
                    else
                        r = StallReason::BarrierWait;
                    UnitTrack &t = tmon->track(blendUnit(p));
                    t.stall(commit, r);
                    t.busy(commit, commit + 1);
                }
                ps.blendBusyUntil = commit;
                last_commit = std::max(last_commit, commit);
                blendQuad(ps, quads, ps.batch[i],
                          quads.coverage(ps.batch[i]), late_z);
                ++*hot.blendOps;
            }
            ps.blendFinish = last_commit;
        }

        // --- Balance samples (Figures 14/15) ---
        if (n_pipes == 4) {
            std::uint64_t total_quads = 0;
            for (std::uint32_t p = 0; p < 4; ++p) {
                t_samples[p] = static_cast<double>(busy[p]);
                q_samples[p] =
                    static_cast<double>(pipes[p].batch.size());
                total_quads += pipes[p].batch.size();
            }
            if (total_quads > 0) {
                fs.tileTimeDeviation.add(normMeanDeviation(t_samples));
                fs.tileQuadDeviation.add(normMeanDeviation(q_samples));
            }
        }

        // --- Color Buffer flush ---
        if (coupled) {
            Cycle flush_start = 0;
            for (std::uint32_t p = 0; p < n_pipes; ++p)
                flush_start = std::max(flush_start,
                                       pipes[p].blendFinish);
            Cycle done = flush_start;
            for (std::uint32_t p = 0; p < n_pipes; ++p) {
                done = std::max(
                    done, flushBank(pipes[p], tile.coord, inv_perm[p],
                                    slotToQuad[inv_perm[p]],
                                    flush_start, fs));
            }
            shared_flush_done = done;
            for (std::uint32_t p = 0; p < n_pipes; ++p)
                pipes[p].flushDone = done;
            frame_end = std::max(frame_end, done);
        } else {
            for (std::uint32_t p = 0; p < n_pipes; ++p) {
                PipeState &ps = pipes[p];
                ps.flushDone = flushBank(ps, tile.coord, inv_perm[p],
                                         slotToQuad[inv_perm[p]],
                                         ps.blendFinish, fs);
                frame_end = std::max(frame_end, ps.flushDone);
            }
        }

        // Forward-progress watchdog at tile granularity: a stuck
        // barrier credit (a FIFO entry that never drains) drags every
        // downstream stage of this tile to an unreachable cycle, so
        // the tile's completion jumping more than the budget past the
        // previous tile's means the pipeline is wedged, not slow.
        if (cfg.watchdogCycles != 0 && frame_end > watchdog_progress &&
            frame_end - watchdog_progress > cfg.watchdogCycles) {
            std::ostringstream msg;
            msg << "no forward progress: tile " << tile.sequence
                << " completes at cycle " << frame_end << ", "
                << (frame_end - watchdog_progress)
                << " cycles past the previous tile (budget "
                << cfg.watchdogCycles
                << "; watchdog_cycles=0 disables)";
            throw SimError(ErrorKind::Watchdog, msg.str(), "",
                           pipelineDump(tile.sequence));
        }
        watchdog_progress = std::max(watchdog_progress, frame_end);

        // Level 2: the tile's row of live counters.
        if (tmon && tmon->sampling())
            tmon->recordTile(frame_end, mem.l2().accesses(),
                             mem.dram().accesses());
    }

    for (std::uint32_t p = 0; p < n_pipes; ++p)
        frame_end = std::max(frame_end, pipes[p].fsFinish);
    return frame_end;
}

} // namespace dtexl
