/**
 * @file
 * The full memory hierarchy of the paper's Figure 5: per-SC L1 texture
 * caches, an L1 vertex cache, an L1 tile cache (parameter buffer and
 * framebuffer traffic), a shared L2, and DRAM.
 */

#ifndef DTEXL_MEM_HIERARCHY_HH
#define DTEXL_MEM_HIERARCHY_HH

#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/serial.hh"
#include "common/sim_error.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "telemetry/telemetry.hh"

namespace dtexl {

/**
 * Owns and wires all memory levels. The number of L1 texture caches
 * follows GpuConfig::numPipelines (1 for the Figure 16 upper bound).
 */
class MemHierarchy
{
  public:
    explicit MemHierarchy(const GpuConfig &cfg);

    /**
     * Texture read by shader core @p core: the @p n lines of one
     * fragment sample's footprint, all issued at @p now (see
     * Cache::readLines). Returns the latest of @p now and the lines'
     * completion cycles.
     */
    Cycle
    textureRead(CoreId core, const Addr *lines, std::uint32_t n,
                Cycle now)
    {
        return texL1s[core]->readLines(lines, n, now);
    }

    /** Vertex attribute fetch by the Geometry Pipeline. */
    Cycle
    vertexRead(Addr addr, Cycle now)
    {
        return vertexL1->access(addr, AccessType::Read, now);
    }

    /** Parameter-buffer / framebuffer traffic through the Tile Cache. */
    Cycle
    tileAccess(Addr addr, AccessType type, Cycle now)
    {
        return tileL1->access(addr, type, now);
    }

    Cache &textureCache(CoreId core) { return *texL1s[core]; }
    const Cache &textureCache(CoreId core) const { return *texL1s[core]; }
    Cache &vertexCache() { return *vertexL1; }
    Cache &tileCache() { return *tileL1; }
    Cache &l2() { return *l2Cache; }
    const Cache &l2() const { return *l2Cache; }
    Dram &dram() { return *dramModel; }
    const Dram &dram() const { return *dramModel; }
    std::size_t numTextureCaches() const { return texL1s.size(); }

    /** Total accesses reaching the shared L2 (the paper's key metric). */
    std::uint64_t l2Accesses() const { return l2Cache->accesses(); }

    /** In-flight miss state of every level (watchdog crash report). */
    std::string
    dumpInFlight() const
    {
        std::string s;
        for (const auto &l1 : texL1s)
            s += "  " + l1->dumpInFlight() + "\n";
        s += "  " + vertexL1->dumpInFlight() + "\n";
        s += "  " + tileL1->dumpInFlight() + "\n";
        s += "  " + l2Cache->dumpInFlight() + "\n";
        return s;
    }

    /**
     * Texture-block replication snapshot (the paper's Section II-B
     * mechanism): of the lines currently resident in the private L1
     * texture caches, the average number of L1s holding each distinct
     * line. 1.0 = no replication; up to numPipelines.
     */
    double textureReplicationFactor() const;

    /** Invalidate all cache contents and timing state (not stats). */
    void flushAll();

    /** Reset timing only, keeping contents warm (frame boundary). */
    void resetTiming();

    /**
     * Serialize every level's frame-boundary warm state in fixed order
     * (texture L1s, vertex L1, tile L1, L2). DRAM is excluded: it is
     * reset at every frame boundary and holds no warm state.
     */
    void
    saveWarmState(ByteWriter &w) const
    {
        w.u32(static_cast<std::uint32_t>(texL1s.size()));
        for (const auto &l1 : texL1s)
            l1->saveWarmState(w);
        vertexL1->saveWarmState(w);
        tileL1->saveWarmState(w);
        l2Cache->saveWarmState(w);
    }

    /** Inverse of saveWarmState(); throws SimError{Io} on mismatch. */
    void
    restoreWarmState(ByteReader &r)
    {
        const std::uint32_t count = r.u32();
        if (count != texL1s.size())
            throwIoError("checkpoint has %u texture L1(s), config "
                         "wants %zu",
                         count, texL1s.size());
        for (auto &l1 : texL1s)
            l1->restoreWarmState(r);
        vertexL1->restoreWarmState(r);
        tileL1->restoreWarmState(r);
        l2Cache->restoreWarmState(r);
        dramModel->reset();
    }

    /**
     * Wire every level's stall-attribution track (nullptr detaches).
     * The simulator arms this only around the raster phase, so
     * geometry-phase traffic is not attributed.
     */
    void
    attachTelemetry(Telemetry *t)
    {
        dramModel->setTelemetry(
            t ? &t->track(TelemetryUnit::Dram) : nullptr);
        l2Cache->setTelemetry(
            t ? &t->track(TelemetryUnit::L2) : nullptr);
        vertexL1->setTelemetry(
            t ? &t->track(TelemetryUnit::L1Vtx) : nullptr);
        tileL1->setTelemetry(
            t ? &t->track(TelemetryUnit::L1Tile) : nullptr);
        for (std::size_t i = 0; i < texL1s.size(); ++i)
            texL1s[i]->setTelemetry(
                t ? &t->track(texUnit(static_cast<std::uint32_t>(i)))
                  : nullptr);
    }

  private:
    std::unique_ptr<Dram> dramModel;
    std::unique_ptr<Cache> l2Cache;
    std::unique_ptr<Cache> vertexL1;
    std::unique_ptr<Cache> tileL1;
    std::vector<std::unique_ptr<Cache>> texL1s;
};

} // namespace dtexl

#endif // DTEXL_MEM_HIERARCHY_HH
