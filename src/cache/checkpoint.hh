/**
 * @file
 * Frame-boundary checkpoint files: "DTXLCKPT"-framed snapshots of a
 * SimulationSession's warm state (FrameStats history, cache/telemetry
 * warm state, the job's registry fragment), written every
 * --checkpoint-every frames and consumed by --resume.
 *
 * The framing is the result store's (file_frame.hh): magic, format
 * version, full ResultKey echo, then framesDone, then payload size,
 * payload, FNV-1a payload checksum. A
 * checkpoint that fails any check — including the FaultSite::CkptFlipByte
 * bit-flip injection — is rejected with a warn() and the run restarts
 * from frame 0; restored state is *validated before use*, so a corrupt
 * file can cost time but never correctness.
 */

#ifndef DTEXL_CACHE_CHECKPOINT_HH
#define DTEXL_CACHE_CHECKPOINT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/result_key.hh"

namespace dtexl {

/** One parsed-but-not-yet-applied checkpoint. */
struct CheckpointBlob
{
    ResultKey key;
    std::uint32_t framesDone = 0;
    /** Opaque session payload; SimulationSession interprets it. */
    std::vector<std::uint8_t> payload;
};

/**
 * Atomically write @p blob to @p path. Best effort: I/O failures are
 * warn()-logged and swallowed — a checkpoint that cannot be written
 * must never fail the simulation it was trying to protect.
 */
void writeCheckpointFile(const std::string &path,
                         const CheckpointBlob &blob);

/**
 * Read and validate the checkpoint at @p path. Returns nullopt when
 * the file is absent, or when any frame check fails (magic, version,
 * key echo against @p expectedKey, size, checksum) — the latter with a
 * warn(). FaultSite::CkptFlipByte flips one byte of the raw file image
 * here to prove the checksum path (tests/test_checkpoint.cc).
 */
std::optional<CheckpointBlob>
readCheckpointFile(const std::string &path, const ResultKey &expectedKey);

} // namespace dtexl

#endif // DTEXL_CACHE_CHECKPOINT_HH
