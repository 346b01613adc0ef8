#include "cache/result_key.hh"

#include <cstdio>

#include "common/config.hh"
#include "common/serial.hh"
#include "geom/scene.hh"

namespace dtexl {

std::string
ResultKey::hex() const
{
    char buf[49];
    std::snprintf(buf, sizeof buf, "%016llx%016llx%016llx",
                  static_cast<unsigned long long>(scene),
                  static_cast<unsigned long long>(config),
                  static_cast<unsigned long long>(build));
    return buf;
}

namespace {

/**
 * Every field is folded as (tag, value): tags keep adjacent fields
 * from aliasing (e.g. {a=1, b=2} vs {a=2, b=1}) and give each field a
 * stable identity independent of struct layout or padding.
 */
void
hashCacheConfig(Fnv1a64 &h, std::uint32_t tag_base,
                const CacheConfig &c)
{
    h.u32(tag_base + 0); h.u32(c.sizeBytes);
    h.u32(tag_base + 1); h.u32(c.lineBytes);
    h.u32(tag_base + 2); h.u32(c.ways);
    h.u32(tag_base + 3); h.u32(c.hitLatency);
    h.u32(tag_base + 4); h.u32(c.numMshrs);
    h.u32(tag_base + 5); h.u32(c.prefetchNextLine ? 1 : 0);
}

} // namespace

std::uint64_t
hashConfig(const GpuConfig &cfg)
{
    Fnv1a64 h;
    // --- Machine (Table II) ---
    h.u32(1);  h.u64(cfg.clockHz);
    h.u32(2);  h.u32(cfg.screenWidth);
    h.u32(3);  h.u32(cfg.screenHeight);
    h.u32(4);  h.u32(cfg.tileSize);
    h.u32(5);  h.u32(cfg.numPipelines);
    h.u32(6);  h.u32(cfg.maxWarpsPerCore);
    h.u32(7);  h.u32(cfg.stageFifoDepth);
    h.u32(8);  h.u32(cfg.rasterQuadsPerCycle);
    // --- Scheduling policy ---
    h.u32(9);  h.u32(static_cast<std::uint32_t>(cfg.grouping));
    h.u32(10); h.u32(static_cast<std::uint32_t>(cfg.tileOrder));
    h.u32(11); h.u32(static_cast<std::uint32_t>(cfg.assignment));
    h.u32(12); h.u32(cfg.decoupledBarriers ? 1 : 0);
    h.u32(13); h.u32(cfg.hierarchicalZ ? 1 : 0);
    h.u32(14); h.u32(cfg.texturePrefetch ? 1 : 0);
    h.u32(15); h.u32(static_cast<std::uint32_t>(cfg.warpScheduler));
    h.u32(16); h.u32(cfg.transactionElimination ? 1 : 0);
    // --- Observability (shapes the stats-JSON artifact) ---
    h.u32(17); h.u32(cfg.telemetryLevel);
    h.u32(18); h.u32(8192);  // retired sample period; keeps stored keys
    // --- Memory hierarchy ---
    hashCacheConfig(h, 100, cfg.vertexCache);
    hashCacheConfig(h, 110, cfg.textureCache);
    hashCacheConfig(h, 120, cfg.tileCache);
    hashCacheConfig(h, 130, cfg.l2Cache);
    h.u32(140); h.u32(cfg.dram.numBanks);
    h.u32(141); h.u32(cfg.dram.rowBytes);
    h.u32(142); h.u32(cfg.dram.rowHitLatency);
    h.u32(143); h.u32(cfg.dram.rowMissLatency);
    h.u32(144); h.u32(cfg.dram.bytesPerCycle);
    // Excluded host-execution knobs (see result_key.hh): geomThreads,
    // rasterThreads, watchdogCycles.
    return h.value();
}

std::uint64_t
hashScene(const Scene &scene)
{
    Fnv1a64 h;
    h.str("draws");
    h.u64(scene.draws.size());
    for (const DrawCommand &d : scene.draws) {
        h.u64(d.vertices.size());
        for (const Vertex &v : d.vertices) {
            h.f32(v.pos.x); h.f32(v.pos.y);
            h.f32(v.pos.z); h.f32(v.pos.w);
            h.f32(v.uv.x);  h.f32(v.uv.y);
        }
        h.u64(d.indices.size());
        for (std::uint32_t i : d.indices)
            h.u32(i);
        for (float m : d.transform.m)
            h.f32(m);
        h.u32(d.texture);
        h.u32(d.shader.aluOps);
        h.u32(d.shader.texSamples);
        h.u32(static_cast<std::uint32_t>(d.shader.filter));
        h.u32(d.shader.blends ? 1 : 0);
        h.u32(d.shader.modifiesDepth ? 1 : 0);
        h.u64(d.vertexBufferAddr);
    }
    h.str("textures");
    h.u64(scene.textures.size());
    for (const TextureDesc &t : scene.textures) {
        h.u32(t.id());
        h.u64(t.baseAddr());
        h.u32(t.side());
        h.u32(static_cast<std::uint32_t>(t.format()));
    }
    return h.value();
}

std::uint64_t
buildFingerprint()
{
    Fnv1a64 h;
    h.u32(kResultFormatVersion);
    // Compiler identity + this TU's build timestamp: a rebuild of the
    // cache layer invalidates conservatively. (A source-tree content
    // hash would be exact, but the build system has no access to one;
    // an incremental rebuild that skips this TU keeps the old stamp —
    // documented in DESIGN.md "Result cache & checkpointing".)
#ifdef __VERSION__
    h.str(__VERSION__);
#endif
    h.str(__DATE__ " " __TIME__);
    return h.value();
}

std::string
buildVersionString()
{
    char line[256];
    std::snprintf(line, sizeof(line),
                  "dtexl result-format v%u, compiler %s, built %s, "
                  "fingerprint %016llx",
                  kResultFormatVersion,
#ifdef __VERSION__
                  __VERSION__,
#else
                  "unknown",
#endif
                  __DATE__ " " __TIME__,
                  static_cast<unsigned long long>(buildFingerprint()));
    return line;
}

} // namespace dtexl
