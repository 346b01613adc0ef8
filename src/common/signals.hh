/**
 * @file
 * Cooperative SIGINT/SIGTERM drain for the batch driver and dtexld.
 *
 * The handler is async-signal-safe by construction: it bumps one
 * atomic counter, optionally write()s a wake byte into a registered
 * pipe fd (so a poll()-based accept loop notices immediately), and
 * _exit(130)s once the escalation threshold is reached. Everything
 * else — checkpointing in-flight jobs, closing the EventBus ledger, the
 * drain report — happens cooperatively on normal threads that poll
 * drainRequested() at frame boundaries (core/engine.cc).
 *
 * Escalation (DESIGN.md "Service daemon" / satellite: CLI drain):
 *  - sim_cli & friends install with forceExitAt=2: the first signal
 *    requests a drain (finish/checkpoint the current frame, skip
 *    unstarted jobs, exit 130); the second force-exits immediately.
 *  - dtexld installs with forceExitAt=3: first = graceful drain
 *    (finish in-flight jobs), second = checkpoint-and-stop, third =
 *    force exit.
 */

#ifndef DTEXL_COMMON_SIGNALS_HH
#define DTEXL_COMMON_SIGNALS_HH

namespace dtexl {

/**
 * Install the SIGINT/SIGTERM drain handler (idempotent; first call
 * wins). @p forceExitAt is the signal count at which the handler stops
 * cooperating and _exit(130)s — always >= 2, so one signal is always
 * a cooperative request.
 */
void installDrainHandlers(int forceExitAt = 2);

/** True once at least one SIGINT/SIGTERM arrived. */
bool drainRequested();

/** How many SIGINT/SIGTERMs arrived since install/reset. */
int drainSignalCount();

/**
 * Register a pipe write-end the handler pokes on each signal (-1 to
 * clear). The byte written is opaque; readers drain and re-poll.
 */
void setSignalWakeFd(int fd);

/** Ignore SIGPIPE process-wide (socket writers check errors instead). */
void ignoreSigpipe();

/**
 * Simulate a received drain signal (tests; also used by the daemon's
 * `drain` command so socket- and signal-initiated drains share one
 * path). Does not force-exit regardless of count.
 */
void requestDrain();

/** Reset the counter so a test can run multiple drain scenarios. */
void resetDrainForTests();

} // namespace dtexl

#endif // DTEXL_COMMON_SIGNALS_HH
