#include "cache/file_frame.hh"

#include "common/sim_error.hh"

namespace dtexl {

void
writeFileHead(ByteWriter &w, std::uint64_t magic, const ResultKey &key)
{
    w.u64(magic);
    w.u32(kResultFormatVersion);
    w.u64(key.scene);
    w.u64(key.config);
    w.u64(key.build);
}

void
readFileHead(ByteReader &r, std::uint64_t magic, const ResultKey &key)
{
    if (r.u64() != magic)
        throwIoError("bad magic");
    if (r.u32() != kResultFormatVersion)
        throwIoError("format version mismatch");
    ResultKey echoed;
    echoed.scene = r.u64();
    echoed.config = r.u64();
    echoed.build = r.u64();
    if (!(echoed == key))
        throwIoError("key echo does not match the requested key");
}

void
writeFileBody(ByteWriter &w, const std::vector<std::uint8_t> &payload)
{
    w.u64(payload.size());
    w.bytes(payload);
    w.u64(fnv1a64Striped(payload));
}

std::span<const std::uint8_t>
readFileBody(ByteReader &r)
{
    const std::uint64_t size = r.u64();
    if (size + 8 != r.remaining())
        throwIoError("payload size disagrees with file size");
    const std::size_t n = static_cast<std::size_t>(size);
    const std::uint8_t *payload = r.bytes(n);
    if (r.u64() != fnv1a64Striped(payload, n))
        throwIoError("payload checksum mismatch");
    return {payload, n};
}

} // namespace dtexl
