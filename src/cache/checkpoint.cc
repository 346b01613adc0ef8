#include "cache/checkpoint.hh"

#include "cache/file_frame.hh"
#include "common/fault_inject.hh"
#include "common/log.hh"
#include "common/sim_error.hh"

namespace dtexl {

namespace {

constexpr std::uint64_t kCheckpointMagic = packMagic("DTXLCKPT");

} // namespace

void
writeCheckpointFile(const std::string &path, const CheckpointBlob &blob)
{
    ByteWriter file;
    writeFileHead(file, kCheckpointMagic, blob.key);
    file.u32(blob.framesDone);
    writeFileBody(file, blob.payload);

    try {
        atomicWriteFile(path, file.data());
    } catch (const SimError &e) {
        warn("checkpoint: cannot write '%s' (%s); continuing without",
             path.c_str(), e.what());
    }
}

std::optional<CheckpointBlob>
readCheckpointFile(const std::string &path, const ResultKey &expectedKey)
{
    std::vector<std::uint8_t> bytes;
    if (!readFileBytes(path, bytes))
        return std::nullopt;  // nothing to resume from

    // Fault harness: a bit flip in the middle of the on-disk image.
    // The payload checksum (or a frame check) below must catch it.
    if (!bytes.empty() &&
        FaultInject::global().fire(FaultSite::CkptFlipByte))
        bytes[bytes.size() / 2] ^= 0x40;

    try {
        ByteReader r(bytes);
        readFileHead(r, kCheckpointMagic, expectedKey);
        CheckpointBlob blob;
        blob.key = expectedKey;
        blob.framesDone = r.u32();
        const std::span<const std::uint8_t> payload = readFileBody(r);
        blob.payload.assign(payload.begin(), payload.end());
        return blob;
    } catch (const SimError &e) {
        warn("checkpoint: rejecting corrupt file '%s' (%s); restarting "
             "from frame 0", path.c_str(), e.what());
        return std::nullopt;
    }
}

} // namespace dtexl
