/**
 * @file
 * Fault-injection harness (tests and CI only; see DESIGN.md).
 *
 * The injection sites cover the failure classes the hardened engine
 * must survive: corrupt/truncated scene input, a mis-sized config, a
 * leaked barrier credit, a dropped memory completion, and corrupted
 * result-cache/checkpoint artifacts on disk. The harness
 * is always compiled in so the shipping binary is the tested binary,
 * but it is *disarmed* by default: every hook reduces to one relaxed
 * atomic load of a zero flag, so golden results are byte-identical
 * with the harness present (test_fault_inject.cc proves this).
 *
 * Hooks fire a bounded number of times (arm(site, n)) and then
 * self-disarm, so an injected fault is deterministic and cannot
 * cascade across jobs that share the process.
 */

#ifndef DTEXL_COMMON_FAULT_INJECT_HH
#define DTEXL_COMMON_FAULT_INJECT_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace dtexl {

/** Injection sites (one per failure class the engine must survive). */
enum class FaultSite : std::uint32_t
{
    SceneTruncate,      ///< scene parser sees EOF mid-file
    SceneCorruptToken,  ///< scene parser sees a garbage token
    ConfigMisSize,      ///< GpuSimulator receives an invalid cache size
    BarrierCreditLeak,  ///< raster pipe loses a stage-FIFO credit
    DropMemCompletion,  ///< a texture read's fill never completes
    CacheTruncate,      ///< result-cache entry truncated on disk
    CkptFlipByte,       ///< checkpoint file suffers a bit flip
    FrameIoFail,        ///< transient I/O error at a frame boundary
    kNumSites,
};

const char *toString(FaultSite site);

/** Parse a site name ("scene-truncate", ...); throws SimError on junk. */
FaultSite faultSiteFromString(const std::string &name);

/**
 * Stall cycle injected for "never completes" faults. Deliberately NOT
 * kCycleNever: downstream stages add latencies to completion cycles
 * and ~0 would wrap around; 2^62 leaves headroom while still being
 * astronomically far beyond any real simulation.
 */
inline constexpr Cycle kFaultStallCycle = Cycle{1} << 62;

class FaultInject
{
  public:
    /**
     * The process-wide instance. It is constant-initialized, so this
     * accessor is a plain address with no guard, and fire() inlines to
     * one relaxed load when disarmed.
     */
    static FaultInject &global() { return instance; }

    /**
     * Arm @p site to fire on @p count hook evaluations after first
     * letting @p skipFirst evaluations pass unharmed. The skip window
     * makes multi-phase scenarios expressible: "fail the SECOND frame
     * boundary" arms (FrameIoFail, 1, 1), which is how CI proves
     * retry-resumes-from-checkpoint (the first boundary must survive
     * long enough to write the checkpoint the retry resumes from).
     */
    void arm(FaultSite site, std::uint32_t count = 1,
             std::uint32_t skipFirst = 0);

    /** Disarm every site (tests call this in teardown). */
    void disarmAll();

    /**
     * Hot-path hook: true when @p site is armed with shots remaining
     * (consumes one shot). The disarmed cost is a single relaxed load.
     */
    bool fire(FaultSite site)
    {
        if (armed_.load(std::memory_order_relaxed) == 0)
            return false;
        return fireSlow(site);
    }

    /** Times @p site actually fired since the last disarmAll(). */
    std::uint64_t fired(FaultSite site) const;

  private:
    constexpr FaultInject() = default;
    bool fireSlow(FaultSite site);

    static FaultInject instance;

    static constexpr std::size_t kSites =
        static_cast<std::size_t>(FaultSite::kNumSites);

    /** Number of sites with shots remaining (0 == fully disarmed). */
    std::atomic<std::uint32_t> armed_{0};
    std::atomic<std::uint32_t> shots_[kSites] = {};
    std::atomic<std::uint32_t> skips_[kSites] = {};
    std::atomic<std::uint64_t> fired_[kSites] = {};
};

/** RAII arm/disarm for tests: arms in ctor, disarms ALL sites in dtor. */
class ScopedFault
{
  public:
    explicit ScopedFault(FaultSite site, std::uint32_t count = 1,
                         std::uint32_t skipFirst = 0)
    {
        FaultInject::global().arm(site, count, skipFirst);
    }
    ~ScopedFault() { FaultInject::global().disarmAll(); }
    ScopedFault(const ScopedFault &) = delete;
    ScopedFault &operator=(const ScopedFault &) = delete;
};

} // namespace dtexl

#endif // DTEXL_COMMON_FAULT_INJECT_HH
