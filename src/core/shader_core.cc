#include "core/shader_core.hh"

#include <algorithm>
#include <iterator>
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
        // Uncovered fragments are resolved too (their interpolated uv
        // is as finite as their neighbours'), but only covered results
        // are kept.
        Vec2f uv4[4];
        for (unsigned k = 0; k < 4; ++k)
            uv4[k] = qs.uv(qi, k);
        SampleFootprint fps[4];
        quadSampleFootprints(tex, shader.filter, uv4, warp.lod, fps);
        for (unsigned k = 0; k < 4; ++k) {
            warp.fpCount[k] = 0;
            if (!(cov & (1u << k)))
                continue;
            warp.fpCount[k] = static_cast<std::uint8_t>(
                footprintLines(fps[k], cfg.textureCache.lineBytes,
                               warp.fpLines[k]));
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
        const Cycle data =
            mem.textureRead(coreId, warp.fpLines[k].data(), n_lines, issue);
        ++*hot.texSamples;
        *hot.texLineReads += n_lines;
        *hot.texDataCycles += data - issue;
        ready = std::max(ready, data + kFilterLatency);
    }
    *hot.texWaitCycles += ready - cycle;
    return ready;
}

Cycle
ShaderCore::issueInstruction(Warp &warp, Cycle cycle, bool &done)
{
    // `done` comes from the new counts in registers: re-reading the
    // just-stored 16-bit count as part of a wider load would stall on
    // store forwarding once per instruction.
    if (warp.aluLeft > 0) {
        const std::uint16_t alu_left = warp.aluLeft - 1;
        warp.aluLeft = alu_left;
        done = alu_left == 0 && warp.texLeft == 0;
        ++*hot.aluOps;
        return cycle + kAluLatency;
    }
    dtexl_assert(warp.texLeft > 0, "issue on a finished warp");
    const Cycle ready = sampleQuad(warp, cycle);
    const std::uint8_t tex_left = warp.texLeft - 1;
    const std::uint16_t alu_left =
        tex_left > 0 ? warp.aluPerSegment : warp.aluTail;
    warp.texLeft = tex_left;
    warp.aluLeft = alu_left;
    done = tex_left == 0 && alu_left == 0;
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
    /** Cycle of the last issued instruction; kCycleNever before any. */
    Cycle lastEvent = kCycleNever;
    /** Slot issued last cycle (for the Greedy policy). */
    std::size_t lastIssued = kNoSlot;
    /**
     * The next instruction that waits for the cross-core merge (see
     * advance()): its slot (kNoSlot once the batch is done) and cycle.
     */
    std::size_t candSlot = kNoSlot;
    Cycle candCycle = kCycleNever;
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
            // One 128-bit key orders both fields, so each slot costs
            // one compare and two selects; its outcome is
            // data-dependent, which the selects keep off the branch
            // predictor.
            using Key = unsigned __int128;
            const auto key = [](const Slot &s) {
                return (Key{s.readyAt} << 64) | s.batchIndex;
            };
            std::size_t best = 0;
            Key best_key = key(slots[0]);
            for (std::size_t i = 1; i < n; ++i) {
                const Key k = key(slots[i]);
                const bool take = k < best_key;
                best_key = take ? k : best_key;
                best = take ? i : best;
            }
            const auto best_ready = static_cast<Cycle>(best_key >> 64);
            cycle = std::max(best_ready, nextIssueAt);
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

    /** Issue @p slot's next instruction at @p cycle; retire and refill. */
    void
    issue(std::size_t slot, Cycle cycle)
    {
        Slot &sched = slots[slot];
        Warp &warp = warps[slot];
        nextIssueAt = cycle + 1;
        lastEvent = cycle;
        lastIssued = slot;
        ++res.issues;
        bool done = false;
        const Cycle ready = core->issueInstruction(warp, cycle, done);
        if (done) {
            res.completion[sched.batchIndex] = ready;
            res.finish = std::max(res.finish, ready);
            sched.readyAt = kCycleNever;
            lastIssued = kNoSlot;
            --activeCount;
            core->admitWarps(*this);
        } else {
            sched.readyAt = ready;
        }
    }

    /**
     * Issue this core's instructions in pick() order up to the next
     * one that needs the cross-core merge, and leave that one in
     * candSlot/candCycle. An ALU instruction reads and writes only
     * this core's warps, slots and counters, so it issues here. A
     * texture instruction reaches the shared L2/DRAM and the global
     * fault hook, so it waits. So does any instruction the watchdog
     * cannot clear from this core alone: the core's first, and any
     * more than @p budget cycles past the core's previous one (see
     * checkForwardProgress()).
     */
    void
    advance(Cycle budget)
    {
        for (;;) {
            candSlot = pick(candCycle);
            if (candSlot == kNoSlot || warps[candSlot].aluLeft == 0 ||
                needsWatchdog(budget))
                return;
            issue(candSlot, candCycle);
        }
    }

    /**
     * Whether the watchdog must judge the candidate against the other
     * cores: it is this core's first instruction, or more than
     * @p budget cycles past this core's previous one.
     */
    bool
    needsWatchdog(Cycle budget) const
    {
        return budget != 0 && (lastEvent == kCycleNever ||
                               candCycle - lastEvent > budget);
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
 * Forward-progress check for the event loop below: the event-driven
 * analog of "N wall cycles without a retirement" is an event sitting
 * more than the budget beyond its predecessor, in (cycle, core) order,
 * among the cores' issued instructions and the cycles at which work
 * became available to them (gates and EZ arrivals). A lost memory
 * completion or leaked credit parks a warp at kFaultStallCycle (2^62),
 * which no legitimate latency chain can reach. A late EZ arrival is
 * an upstream stall, so the instruction it releases is judged against
 * the arrival and is never charged to the shader cores.
 *
 * The cores issue ALU instructions ahead of the merge, so the
 * candidate of run @p next is judged against the latest of the cores'
 * last events, gates and arrivals at or before its cycle. Gates and
 * arrivals are inputs of the batch, known whatever the issue order,
 * and each core's arrivals strictly increase (Early-Z consumes at most
 * one quad per cycle per pipe), so a binary search finds the latest
 * one. The caller has already cleared a candidate within the budget
 * of its own core's previous event (CoreRun::needsWatchdog): that
 * event precedes it, so its predecessor is at least as late.
 * - If the latest last event reaches the candidate cycle, another
 *   core issued past the candidate, starting from an event within the
 *   budget before it (advance() stops at any other): no trip, as the
 *   check passes.
 * - Otherwise every core has issued exactly the events that precede
 *   the candidate, the latest of them and of the arrivals is its
 *   predecessor, and a trip's dump shows the state of a loop that
 *   merges every event.
 */
void
ShaderCore::checkForwardProgress(const std::vector<CoreRun> &runs,
                                 std::size_t next, Cycle budget)
{
    const Cycle next_event = runs[next].candCycle;
    // The candidate's own gate precedes it, so `progress` is a real
    // event cycle once the loop is done.
    Cycle progress = 0;
    for (const CoreRun &run : runs) {
        if (run.lastEvent != kCycleNever)
            progress = std::max(progress, run.lastEvent);
        if (run.gate <= next_event)
            progress = std::max(progress, run.gate);
        const auto after = std::upper_bound(
            run.arrivals->begin(), run.arrivals->end(), next_event);
        if (after != run.arrivals->begin())
            progress = std::max(progress, *std::prev(after));
    }
    if (next_event <= progress || next_event - progress <= budget)
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

    // Event loop: the cores' instructions execute in global (cycle,
    // core index) order, so their memory accesses interleave in time
    // order at the shared levels. Within a core, the configured warp
    // scheduling policy selects among ready warps.
    //
    // Only texture instructions reach shared state, so each core
    // issues its ALU instructions on its own (CoreRun::advance) and
    // only the texture instructions between them are merged here,
    // earliest cycle first, the lowest core index breaking ties. That
    // is the order in which a loop merging every instruction meets
    // them, so the shared levels see the same call sequence. pick()
    // depends only on core-local state, so a core's candidate stays
    // valid until that core issues, and cores stalled on texture data
    // are not rescanned every event.
    //
    // Forward-progress watchdog: any event budget cycles beyond the
    // last productive one means a warp is parked on a completion that
    // will never come (checkForwardProgress()).
    const Cycle watchdog_budget =
        cores.empty() ? 0 : cores.front()->cfg.watchdogCycles;

    for (CoreRun &run : runs)
        run.advance(watchdog_budget);
    for (;;) {
        std::size_t best = runs.size();
        Cycle best_cycle = kCycleNever;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            if (runs[i].candCycle < best_cycle) {
                best_cycle = runs[i].candCycle;
                best = i;
            }
        }
        if (best == runs.size())
            break;
        CoreRun &run = runs[best];
        if (run.needsWatchdog(watchdog_budget))
            checkForwardProgress(runs, best, watchdog_budget);
        run.issue(run.candSlot, best_cycle);
        run.advance(watchdog_budget);
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
