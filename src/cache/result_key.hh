/**
 * @file
 * Content-addressed identity of one simulation result: a (scene,
 * config, build) digest triple. Two runs with equal keys are
 * guaranteed to produce bit-identical FrameStats/imageHash/stats
 * output, which is the contract the result store and checkpoint layer
 * (result_store.hh, checkpoint.hh) are built on.
 *
 * Hashing is canonical by construction: digests are computed over the
 * *parsed* scene and the *fully defaulted* GpuConfig — never over
 * input text — so key ordering of key=value options, scene-file
 * comments and whitespace, and default-vs-explicit spellings of the
 * same value all hash equal. Scalars are folded in little-endian
 * byte order (common/serial.hh), so keys are host-endianness
 * invariant too.
 */

#ifndef DTEXL_CACHE_RESULT_KEY_HH
#define DTEXL_CACHE_RESULT_KEY_HH

#include <cstdint>
#include <string>

namespace dtexl {

struct GpuConfig;
struct Scene;

/** Identity of one cached/checkpointed result. */
struct ResultKey
{
    std::uint64_t scene = 0;   ///< chained per-frame scene digests
    std::uint64_t config = 0;  ///< result-affecting GpuConfig fields
    std::uint64_t build = 0;   ///< code-version fingerprint

    bool operator==(const ResultKey &) const = default;

    /** 48 lowercase hex chars (scene, config, build concatenated). */
    std::string hex() const;
};

/**
 * Digest of every *result-affecting* GpuConfig field (46 fields: the
 * modelled machine, the scheduling policy and the telemetry level,
 * which shapes the stats-JSON artifact; tag 18 hashes the retired
 * sample period's last default, so stored digests stay valid).
 * Host-execution knobs that are proven bit-identical by the test suite
 * are deliberately EXCLUDED so cache entries and checkpoints are
 * shared across them:
 *
 *   geomThreads, rasterThreads (inert; validate() pins both to 1),
 *   watchdogCycles (a hang guard; never changes a completed result).
 *
 * Adding a field to GpuConfig must update this function;
 * tests/test_result_cache.cc carries a sizeof(GpuConfig) canary plus a
 * per-field sweep that fails loudly when the two drift.
 */
std::uint64_t hashConfig(const GpuConfig &cfg);

/** Digest of one parsed scene (draws, transforms, shaders, textures). */
std::uint64_t hashScene(const Scene &scene);

/**
 * Code-version fingerprint: bumped by kResultFormatVersion on any
 * serialization or simulator-semantics change, and salted with the
 * compiler identity and this translation unit's build timestamp, so a
 * rebuilt simulator conservatively invalidates old entries rather
 * than risk serving results another binary produced.
 */
std::uint64_t buildFingerprint();

/**
 * On-disk serialization format version; part of buildFingerprint().
 * Bump when the entry/checkpoint payload layout changes.
 * v2: artifact payload checksums switched from serial FNV-1a to the
 * 4-stream striped digest (common/serial.hh fnv1a64Striped).
 */
inline constexpr std::uint32_t kResultFormatVersion = 2;

/**
 * Human-readable build identity for --version and bug reports: the
 * result-format version, compiler, build stamp and the resulting
 * buildFingerprint() digest — everything needed to match a ledger or
 * cache entry back to the binary that produced it.
 */
std::string buildVersionString();

} // namespace dtexl

#endif // DTEXL_CACHE_RESULT_KEY_HH
