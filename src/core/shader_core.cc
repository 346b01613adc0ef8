#include "core/shader_core.hh"

#include <algorithm>
#include <sstream>
#include <string>

#include "common/log.hh"
#include "common/sim_error.hh"
#include "texture/sampler.hh"

namespace dtexl {

ShaderCore::ShaderCore(CoreId id, const GpuConfig &cfg, MemHierarchy &mem,
                       const Scene &scene)
    : coreId(id), cfg(cfg), mem(mem), scene(&scene),
      stats_("sc" + std::to_string(id))
{
    bindStats();
}

void
ShaderCore::bindStats()
{
    hot.texSamples = &stats_.handle("tex_samples");
    hot.texLineReads = &stats_.handle("tex_line_reads");
    hot.texDataCycles = &stats_.handle("tex_data_cycles");
    hot.texWaitCycles = &stats_.handle("tex_wait_cycles");
    hot.aluOps = &stats_.handle("alu_ops");
    hot.texInstructions = &stats_.handle("tex_instructions");
    hot.warps = &stats_.handle("warps");
    hot.fragments = &stats_.handle("fragments");
}

void
ShaderCore::beginFrame()
{
    texUnitFreeHalf = 0;
    stats_.clear();
    bindStats();
}

Cycle
ShaderCore::sampleQuad(Warp &warp, Cycle cycle)
{
    const QuadStream &qs = *warp.stream;
    const std::uint32_t qi = warp.quadIndex;
    const Primitive *prim = qs.prim(qi);
    const ShaderDesc &shader = prim->shader;
    const TextureDesc &tex = scene->texture(prim->texture);
    // Texture unit throughput in half-cycles per fragment sample: two
    // bilinear (or nearest) samples per cycle, one trilinear or
    // anisotropic sample per cycle.
    const std::uint64_t half_cost =
        (shader.filter == FilterMode::Trilinear ||
         shader.filter == FilterMode::Aniso2x)
            ? 2
            : 1;
    texUnitFreeHalf = std::max(texUnitFreeHalf, cycle * 2);
    const std::uint8_t cov = qs.coverage(qi);

    if (!warp.fpValid) {
        // Footprints depend only on (uv, lod, filter), which are fixed
        // for the warp's lifetime, so resolve them once and replay the
        // cached line lists on subsequent tex instructions. The level
        // of detail was already resolved batch-wide (resolveLods).
        const float lod = warp.lod;
        if (cfg.simdMode == SimdMode::Auto) {
            // One fragment per lane; uncovered lanes compute too (their
            // interpolated uv is as finite as their neighbours') but
            // only covered results are kept, exactly as the scalar
            // loop's skip.
            Vec2f uv4[4];
            for (unsigned k = 0; k < 4; ++k)
                uv4[k] = qs.uv(qi, k);
            SampleFootprint fps[4];
            quadSampleFootprints(tex, shader.filter, uv4, lod, fps);
            for (unsigned k = 0; k < 4; ++k) {
                warp.fpCount[k] = 0;
                if (!(cov & (1u << k)))
                    continue;
                warp.fpCount[k] = static_cast<std::uint8_t>(
                    footprintLines(fps[k], cfg.textureCache.lineBytes,
                                   warp.fpLines[k]));
            }
        } else {
            for (unsigned k = 0; k < 4; ++k) {
                warp.fpCount[k] = 0;
                if (!(cov & (1u << k)))
                    continue;
                const Vec2f uv = qs.uv(qi, k);
                const SampleFootprint fp = sampleFootprint(
                    tex, shader.filter, uv.x, uv.y, lod);
                warp.fpCount[k] = static_cast<std::uint8_t>(
                    footprintLines(fp, cfg.textureCache.lineBytes,
                                   warp.fpLines[k]));
            }
        }
        warp.fpValid = true;
    }

    Cycle ready = cycle;
    for (unsigned k = 0; k < 4; ++k) {
        if (!(cov & (1u << k)))
            continue;
        const Cycle issue = texUnitFreeHalf / 2;
        texUnitFreeHalf += half_cost;
        const std::uint32_t n_lines = warp.fpCount[k];
        Cycle data = issue;
        for (std::uint32_t l = 0; l < n_lines; ++l)
            data = std::max(data, mem.textureRead(coreId,
                                                  warp.fpLines[k][l],
                                                  issue));
        ++*hot.texSamples;
        *hot.texLineReads += n_lines;
        *hot.texDataCycles += data - issue;
        ready = std::max(ready, data + kFilterLatency);
    }
    *hot.texWaitCycles += ready - cycle;
    return ready;
}

Cycle
ShaderCore::issueInstruction(Warp &warp, Cycle cycle)
{
    if (warp.aluLeft > 0) {
        --warp.aluLeft;
        ++*hot.aluOps;
        return cycle + kAluLatency;
    }
    dtexl_assert(warp.texLeft > 0, "issue on a finished warp");
    const Cycle ready = sampleQuad(warp, cycle);
    --warp.texLeft;
    warp.aluLeft = warp.texLeft > 0 ? warp.aluPerSegment : warp.aluTail;
    ++*hot.texInstructions;
    return ready;
}

/** Per-core execution state within runBatches(). */
struct ShaderCore::CoreRun
{
    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    /** Scheduling state of one warp slot, parallel to `warps`. */
    struct Slot
    {
        Cycle readyAt = kCycleNever;  ///< kCycleNever when free
        std::size_t batchIndex = 0;
    };

    ShaderCore *core = nullptr;
    const QuadStream *stream = nullptr;
    const std::vector<std::uint32_t> *quads = nullptr;
    const std::vector<Cycle> *arrivals = nullptr;
    Cycle gate = 0;
    std::vector<Warp> warps;
    /** The only copy of the ready cycles, so pick() never reads warps. */
    std::vector<Slot> slots;
    std::size_t activeCount = 0;
    std::size_t nextPending = 0;
    Cycle nextIssueAt = 0;
    /** Slot issued last cycle (for the Greedy policy). */
    std::size_t lastIssued = kNoSlot;
    /** Sampling LOD per batch position; see resolveLods(). */
    std::vector<float> lods;
    BatchResult res;

    /**
     * Resolve every quad's sampling level of detail up front, one
     * value per batch position. Texture-less quads keep 0.0f —
     * sampleQuad never reads them — so this never touches their
     * texture binding.
     */
    void
    resolveLods()
    {
        const std::size_t n = quads->size();
        lods.assign(n, 0.0f);
        const Scene &sc = *core->scene;
        for (std::size_t b = 0; b < n; ++b) {
            const std::uint32_t qi = (*quads)[b];
            const Primitive *prim = stream->prim(qi);
            if (prim->shader.texSamples > 0)
                lods[b] = stream->lod(qi, sc.texture(prim->texture).side());
        }
    }

    /**
     * Select the next warp under the core's scheduling policy. Issue
     * happens at the earliest active ready cycle (no earlier than
     * nextIssueAt); the policy chooses among the warps ready by then.
     * Free slots read kCycleNever, so they are never eligible.
     *
     * @param cycle Issue cycle of the selected warp (output);
     *              kCycleNever when no warp is active.
     * @return Selected slot, or kNoSlot when no warp is active.
     */
    std::size_t
    pick(Cycle &cycle) const
    {
        cycle = kCycleNever;
        if (activeCount == 0)
            return kNoSlot;
        const std::size_t n = slots.size();
        const WarpSched policy = core->cfg.warpScheduler;
        if (policy == WarpSched::EarliestReady) {
            // The argmin over (readyAt, batchIndex) is ready by `cycle`.
            std::size_t best = 0;
            for (std::size_t i = 1; i < n; ++i) {
                if (slots[i].readyAt < slots[best].readyAt ||
                    (slots[i].readyAt == slots[best].readyAt &&
                     slots[i].batchIndex < slots[best].batchIndex)) {
                    best = i;
                }
            }
            cycle = std::max(slots[best].readyAt, nextIssueAt);
            return best;
        }

        Cycle min_ready = kCycleNever;
        for (const Slot &s : slots)
            min_ready = std::min(min_ready, s.readyAt);
        cycle = std::max(min_ready, nextIssueAt);
        if (policy == WarpSched::Greedy && lastIssued != kNoSlot &&
            slots[lastIssued].readyAt <= cycle) {
            return lastIssued;
        }
        std::size_t best = kNoSlot;
        for (std::size_t i = 0; i < n; ++i) {
            if (slots[i].readyAt <= cycle &&
                (best == kNoSlot ||
                 slots[i].batchIndex < slots[best].batchIndex)) {
                best = i;
            }
        }
        dtexl_assert(best != kNoSlot,
                     "no eligible warp at its own ready time");
        return best;
    }
};

void
ShaderCore::admitWarps(CoreRun &run)
{
    const std::size_t n = run.quads->size();
    while (run.nextPending < n && run.activeCount < run.warps.size()) {
        const std::uint32_t qi = (*run.quads)[run.nextPending];
        const Cycle ready =
            std::max((*run.arrivals)[run.nextPending], run.gate);
        const ShaderDesc &sh = run.stream->prim(qi)->shader;
        std::size_t s = 0;
        while (s < run.slots.size() &&
               run.slots[s].readyAt != kCycleNever)
            ++s;
        dtexl_assert(s < run.slots.size());
        if (sh.aluOps == 0 && sh.texSamples == 0) {
            // Degenerate empty shader: completes on arrival.
            run.res.completion[run.nextPending] = ready;
            run.res.finish = std::max(run.res.finish, ready);
            ++run.nextPending;
            ++*hot.warps;
            continue;
        }
        run.slots[s].readyAt = ready;
        run.slots[s].batchIndex = run.nextPending;
        Warp *slot = &run.warps[s];
        slot->stream = run.stream;
        slot->quadIndex = qi;
        slot->texLeft = sh.texSamples;
        slot->aluPerSegment = static_cast<std::uint16_t>(
            sh.texSamples > 0 ? sh.aluOps / (sh.texSamples + 1)
                              : sh.aluOps);
        slot->aluTail = static_cast<std::uint16_t>(
            sh.texSamples > 0
                ? sh.aluOps -
                      static_cast<std::uint32_t>(slot->aluPerSegment) *
                          sh.texSamples
                : sh.aluOps);
        slot->aluLeft =
            sh.texSamples > 0 ? slot->aluPerSegment : slot->aluTail;
        slot->lod = run.lods[run.nextPending];
        slot->fpValid = false;  // slot reuse: footprint is per-quad
        ++run.activeCount;
        ++run.nextPending;
        ++*hot.warps;
        *hot.fragments += run.stream->coveredCount(qi);
    }
}

/**
 * Per-warp state dump for the watchdog's crash report: which warps are
 * in flight, what they wait for and how far their ready cycles sit
 * beyond the last productive event.
 */
std::string
ShaderCore::dumpRuns(const std::vector<CoreRun> &runs, Cycle progress)
{
    std::ostringstream os;
    os << "shader cores (last progress cycle " << progress << ")\n";
    for (std::size_t c = 0; c < runs.size(); ++c) {
        const CoreRun &run = runs[c];
        os << "  sc" << c << ": " << run.activeCount
           << " active warp(s), admitted " << run.nextPending << "/"
           << run.quads->size() << " quads, next issue at "
           << run.nextIssueAt << "\n";
        for (std::size_t w = 0; w < run.warps.size(); ++w) {
            const Warp &warp = run.warps[w];
            const Cycle ready = run.slots[w].readyAt;
            if (ready == kCycleNever)
                continue;
            os << "    warp " << w << ": quad " << warp.quadIndex
               << " (batch " << run.slots[w].batchIndex
               << "), ready at " << ready << " (+"
               << (ready > progress ? ready - progress : 0)
               << "), alu left " << warp.aluLeft << ", tex left "
               << static_cast<unsigned>(warp.texLeft) << "\n";
        }
    }
    return os.str();
}

/**
 * Forward-progress check for the event loops below: the event-driven
 * analog of "N wall cycles without a retirement" is the next event
 * sitting more than the budget beyond the last one. A lost memory
 * completion or leaked credit parks a warp at kFaultStallCycle (2^62),
 * which no legitimate latency chain can reach.
 */
void
ShaderCore::checkForwardProgress(const std::vector<CoreRun> &runs,
                                 Cycle budget, Cycle progress,
                                 Cycle next_event)
{
    if (budget == 0 || next_event <= progress ||
        next_event - progress <= budget)
        return;
    std::ostringstream msg;
    msg << "no forward progress: next shader-core event at cycle "
        << next_event << " is " << (next_event - progress)
        << " cycles past the last productive event (budget " << budget
        << "; watchdog_cycles=0 disables)";
    throw SimError(ErrorKind::Watchdog, msg.str(), "",
                   dumpRuns(runs, progress));
}

std::vector<ShaderCore::BatchResult>
ShaderCore::runBatches(const std::vector<ShaderCore *> &cores,
                       const std::vector<BatchInput> &inputs)
{
    dtexl_assert(cores.size() == inputs.size());
    std::vector<CoreRun> runs(cores.size());
    for (std::size_t c = 0; c < cores.size(); ++c) {
        CoreRun &run = runs[c];
        run.core = cores[c];
        run.stream = inputs[c].stream;
        run.quads = inputs[c].quads;
        run.arrivals = inputs[c].arrivals;
        run.gate = inputs[c].gate;
        dtexl_assert(run.quads->size() == run.arrivals->size());
        const std::size_t n = run.quads->size();
        run.res.completion.assign(n, run.gate);
        run.res.start = run.gate;
        run.res.finish = run.gate;
        if (n > 0)
            run.res.start = std::max(run.gate, run.arrivals->front());
        run.warps.resize(run.core->cfg.maxWarpsPerCore);
        run.slots.resize(run.warps.size());
        run.nextIssueAt = run.gate;
        run.resolveLods();
        run.core->admitWarps(run);
    }

    // Global event loop: always issue the globally-earliest ready
    // instruction, so the cores' memory accesses interleave in time
    // order at the shared levels. Within a core, the configured warp
    // scheduling policy selects among ready warps.
    //
    // Each run's pick() result is cached: pick() depends only on
    // run-local state (its slots' ready cycles, nextIssueAt — never on
    // memory-model state), so a cached candidate stays valid until its
    // own run issues, and runs stalled on texture data are not
    // rescanned every event — the event-driven analog of skipping idle
    // cycles. The earliest cycle wins, the lowest run index breaking
    // ties.
    //
    // Forward-progress watchdog baseline: the latest cycle at which
    // work legitimately becomes available (gates and EZ arrivals). Any
    // event budget cycles beyond the last productive one means a warp
    // is parked on a completion that will never come.
    const Cycle watchdog_budget =
        cores.empty() ? 0 : cores.front()->cfg.watchdogCycles;
    Cycle progress = 0;
    for (const CoreRun &run : runs) {
        progress = std::max(progress, run.gate);
        if (!run.arrivals->empty())
            progress = std::max(progress, run.arrivals->back());
    }

    struct Cand
    {
        std::size_t slot = CoreRun::kNoSlot;
        Cycle cycle = kCycleNever;
    };
    std::vector<Cand> cands(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
        cands[i].slot = runs[i].pick(cands[i].cycle);
    for (;;) {
        std::size_t best = runs.size();
        Cycle best_cycle = kCycleNever;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            if (cands[i].cycle < best_cycle) {
                best_cycle = cands[i].cycle;
                best = i;
            }
        }
        if (best == runs.size())
            break;
        checkForwardProgress(runs, watchdog_budget, progress,
                             best_cycle);
        progress = best_cycle;

        CoreRun &run = runs[best];
        const std::size_t slot = cands[best].slot;
        CoreRun::Slot &sched = run.slots[slot];
        Warp &warp = run.warps[slot];
        run.nextIssueAt = best_cycle + 1;
        run.lastIssued = slot;
        ++run.res.issues;
        const Cycle ready = run.core->issueInstruction(warp, best_cycle);
        if (warp.aluLeft == 0 && warp.texLeft == 0) {
            run.res.completion[sched.batchIndex] = ready;
            run.res.finish = std::max(run.res.finish, ready);
            sched.readyAt = kCycleNever;
            run.lastIssued = CoreRun::kNoSlot;
            --run.activeCount;
            run.core->admitWarps(run);
        } else {
            sched.readyAt = ready;
        }
        // Only this run's state changed; refresh its candidate.
        cands[best].slot = run.pick(cands[best].cycle);
    }

    std::vector<BatchResult> out;
    out.reserve(runs.size());
    for (CoreRun &run : runs) {
        dtexl_assert(run.nextPending == run.quads->size());
        out.push_back(std::move(run.res));
    }
    return out;
}

ShaderCore::BatchResult
ShaderCore::runBatch(const std::vector<const Quad *> &quads,
                     const std::vector<Cycle> &arrivals, Cycle gate)
{
    QuadStream stream;
    std::vector<std::uint32_t> indices;
    indices.reserve(quads.size());
    for (const Quad *q : quads)
        indices.push_back(stream.push(*q));
    BatchInput input{&stream, &indices, &arrivals, gate};
    return runBatches({this}, {input}).front();
}

} // namespace dtexl
