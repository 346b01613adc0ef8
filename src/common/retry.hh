/**
 * @file
 * Shared retry policy: exponential backoff with deterministic jitter.
 *
 * Two consumers (see DESIGN.md "Service daemon"):
 *  - the result cache wraps its entry writes in retryTransient() so
 *    one transient filesystem hiccup (EINTR, momentary ENOSPC, an NFS
 *    blip) no longer silently discards a result that took minutes to
 *    compute;
 *  - dtexld's job scheduler re-enqueues jobs that died of a transient
 *    ErrorKind (Io, Watchdog — never UserInput/Config, which retry
 *    identically forever) after backoffDelayMs().
 *
 * backoffDelayMs() is a pure function of (policy, attempt): the jitter
 * comes from a splitmix64 of policy.seed and the attempt index, so
 * retry schedules are reproducible in tests and across daemon
 * restarts. Jitter exists to de-correlate many jobs retrying after one
 * shared-disk incident; determinism keeps it testable.
 */

#ifndef DTEXL_COMMON_RETRY_HH
#define DTEXL_COMMON_RETRY_HH

#include <cstdint>
#include <functional>

#include "common/sim_error.hh"

namespace dtexl {

/** Exponential-backoff schedule for transient-failure retries. */
struct RetryPolicy
{
    /** Total tries (first attempt included); 1 = no retry. */
    std::uint32_t attempts = 3;
    /** Delay before the first retry; doubles per further retry. */
    std::uint32_t baseDelayMs = 10;
    /** Ceiling the exponential curve saturates at. */
    std::uint32_t maxDelayMs = 2000;
    /** Jitter amplitude: the delay is scaled by 1 +/- pct/100. */
    std::uint32_t jitterPct = 25;
    /** Jitter stream seed; same seed = same schedule (testability). */
    std::uint64_t seed = 0;
};

/**
 * Delay in milliseconds before retry number @p retryIndex (0-based:
 * the wait after the first failed attempt). Pure and deterministic:
 * base * 2^retryIndex, saturated at maxDelayMs, then jittered by a
 * splitmix64 hash of (seed, retryIndex). Never returns 0 unless
 * baseDelayMs is 0.
 */
std::uint32_t backoffDelayMs(const RetryPolicy &policy,
                             std::uint32_t retryIndex);

/** True for error kinds a retry can plausibly fix (Io, Watchdog). */
bool isTransientErrorKind(ErrorKind kind);

/**
 * Run @p op under @p policy: on a SimError of transient kind, sleep
 * backoffDelayMs() and retry, up to policy.attempts total tries.
 * Returns true on success, false when every attempt failed of a
 * transient kind (the last error is warn()-logged, not rethrown —
 * callers of best-effort paths keep their swallow semantics).
 * Non-transient SimErrors propagate immediately: retrying a config
 * error burns time to fail identically.
 */
bool retryTransient(const RetryPolicy &policy, const char *what,
                    const std::function<void()> &op);

} // namespace dtexl

#endif // DTEXL_COMMON_RETRY_HH
