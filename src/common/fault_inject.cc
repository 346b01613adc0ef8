#include "common/fault_inject.hh"

#include "common/sim_error.hh"

namespace dtexl {

const char *
toString(FaultSite site)
{
    switch (site) {
      case FaultSite::SceneTruncate: return "scene-truncate";
      case FaultSite::SceneCorruptToken: return "scene-corrupt-token";
      case FaultSite::ConfigMisSize: return "config-mis-size";
      case FaultSite::BarrierCreditLeak: return "barrier-credit-leak";
      case FaultSite::DropMemCompletion: return "drop-mem-completion";
      case FaultSite::CacheTruncate: return "cache-truncate";
      case FaultSite::CkptFlipByte: return "ckpt-flip-byte";
      case FaultSite::FrameIoFail: return "frame-io-fail";
      case FaultSite::kNumSites: break;
    }
    return "unknown";
}

FaultSite
faultSiteFromString(const std::string &name)
{
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(FaultSite::kNumSites); ++i) {
        const auto site = static_cast<FaultSite>(i);
        if (name == toString(site))
            return site;
    }
    throwUserError(
        "unknown fault site '%s' (one of scene-truncate, "
        "scene-corrupt-token, config-mis-size, barrier-credit-leak, "
        "drop-mem-completion, cache-truncate, ckpt-flip-byte, "
        "frame-io-fail)",
        name.c_str());
}

constinit FaultInject FaultInject::instance;

void
FaultInject::arm(FaultSite site, std::uint32_t count,
                 std::uint32_t skipFirst)
{
    const auto i = static_cast<std::size_t>(site);
    skips_[i].store(skipFirst, std::memory_order_relaxed);
    const std::uint32_t prev =
        shots_[i].exchange(count, std::memory_order_relaxed);
    if (prev == 0 && count > 0)
        armed_.fetch_add(1, std::memory_order_relaxed);
    else if (prev > 0 && count == 0)
        armed_.fetch_sub(1, std::memory_order_relaxed);
}

void
FaultInject::disarmAll()
{
    for (std::size_t i = 0; i < kSites; ++i) {
        shots_[i].store(0, std::memory_order_relaxed);
        skips_[i].store(0, std::memory_order_relaxed);
        fired_[i].store(0, std::memory_order_relaxed);
    }
    armed_.store(0, std::memory_order_relaxed);
}

bool
FaultInject::fireSlow(FaultSite site)
{
    const auto i = static_cast<std::size_t>(site);
    // Consume a skip first: the site stays armed (shots untouched) but
    // this evaluation passes unharmed.
    std::uint32_t s = skips_[i].load(std::memory_order_relaxed);
    while (s > 0) {
        if (skips_[i].compare_exchange_weak(s, s - 1,
                                            std::memory_order_relaxed)) {
            if (shots_[i].load(std::memory_order_relaxed) > 0)
                return false;
            break;  // skips without shots are inert; fall through
        }
    }
    // Claim one shot; CAS so concurrent hooks can't over-fire.
    std::uint32_t n = shots_[i].load(std::memory_order_relaxed);
    while (n > 0) {
        if (shots_[i].compare_exchange_weak(n, n - 1,
                                            std::memory_order_relaxed)) {
            if (n == 1)
                armed_.fetch_sub(1, std::memory_order_relaxed);
            fired_[i].fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
    return false;
}

std::uint64_t
FaultInject::fired(FaultSite site) const
{
    const auto i = static_cast<std::size_t>(site);
    return fired_[i].load(std::memory_order_relaxed);
}

} // namespace dtexl
