#include "mem/hierarchy.hh"

#include <map>
#include <string>

namespace dtexl {

namespace {

/** Port widths: L1s are banked 4-wide; the shared L2 is dual-ported. */
constexpr std::uint32_t kL1Ports = 4;
constexpr std::uint32_t kL2Ports = 2;

} // namespace

MemHierarchy::MemHierarchy(const GpuConfig &cfg)
{
    dramModel = std::make_unique<Dram>(cfg.dram);
    l2Cache = std::make_unique<Cache>("l2", cfg.l2Cache, kL2Ports,
                                      *dramModel);
    vertexL1 = std::make_unique<Cache>("l1vertex", cfg.vertexCache,
                                       kL1Ports, *l2Cache);
    tileL1 = std::make_unique<Cache>("l1tile", cfg.tileCache, kL1Ports,
                                     *l2Cache);
    texL1s.reserve(cfg.numPipelines);
    CacheConfig tex_cfg = cfg.textureCache;
    tex_cfg.prefetchNextLine |= cfg.texturePrefetch;
    for (std::uint32_t i = 0; i < cfg.numPipelines; ++i) {
        texL1s.push_back(std::make_unique<Cache>(
            "l1tex" + std::to_string(i), tex_cfg, kL1Ports,
            *l2Cache));
    }
}

double
MemHierarchy::textureReplicationFactor() const
{
    std::map<Addr, std::uint32_t> copies;
    for (const auto &c : texL1s)
        c->forEachResident([&](Addr line) { ++copies[line]; });
    if (copies.empty())
        return 1.0;
    std::uint64_t total = 0;
    for (const auto &[line, n] : copies)
        total += n;
    return static_cast<double>(total) /
           static_cast<double>(copies.size());
}

void
MemHierarchy::resetTiming()
{
    for (auto &c : texL1s)
        c->resetTiming();
    vertexL1->resetTiming();
    tileL1->resetTiming();
    l2Cache->resetTiming();
    dramModel->reset();
}

void
MemHierarchy::flushAll()
{
    for (auto &c : texL1s)
        c->flushAll();
    vertexL1->flushAll();
    tileL1->flushAll();
    l2Cache->flushAll();
    dramModel->reset();
}

} // namespace dtexl
