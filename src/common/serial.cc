#include "common/serial.hh"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "common/sim_error.hh"

#ifdef _WIN32
#include <process.h>
#define dtexl_getpid _getpid
#else
#include <unistd.h>
#define dtexl_getpid getpid
#endif

namespace dtexl {

void
ByteReader::need(std::size_t bytes)
{
    if (n - pos < bytes)
        throwIoError("serialized artifact truncated: need %zu byte(s) "
                     "at offset %zu of %zu",
                     bytes, pos, n);
}

std::uint8_t
ByteReader::u8()
{
    need(1);
    return p[pos++];
}

std::uint32_t
ByteReader::u32()
{
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[pos + i]) << (8 * i);
    pos += 4;
    return v;
}

std::uint64_t
ByteReader::u64()
{
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[pos + i]) << (8 * i);
    pos += 8;
    return v;
}

std::string
ByteReader::str()
{
    const std::uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char *>(p + pos), len);
    pos += len;
    return s;
}

const std::uint8_t *
ByteReader::bytes(std::size_t size)
{
    need(size);
    const std::uint8_t *at = p + pos;
    pos += size;
    return at;
}

std::uint64_t
fnv1a64(const std::uint8_t *data, std::size_t size)
{
    Fnv1a64 h;
    h.bytes(data, size);
    return h.value();
}

std::uint64_t
fnv1a64Striped(const std::uint8_t *data, std::size_t size)
{
    constexpr std::uint64_t kP = Fnv1a64::kPrime;
    std::uint64_t h[4] = {Fnv1a64::kOffsetBasis, Fnv1a64::kOffsetBasis,
                          Fnv1a64::kOffsetBasis, Fnv1a64::kOffsetBasis};
    std::size_t i = 0;
    // Four unrolled scalar chains, not a U64x4 lane loop: the FNV
    // recurrence is latency-bound, and a 64-bit lane multiply (AVX2's
    // exact mul_epu32 emulation included — there is no native lane op
    // below AVX-512) has roughly 3x the chain latency of four
    // independent pipelined imuls. Measured slower on every backend;
    // the striping itself is what buys the parallelism.
    for (; i + 4 <= size; i += 4) {
        h[0] = (h[0] ^ data[i]) * kP;
        h[1] = (h[1] ^ data[i + 1]) * kP;
        h[2] = (h[2] ^ data[i + 2]) * kP;
        h[3] = (h[3] ^ data[i + 3]) * kP;
    }
    for (unsigned j = 0; i < size; ++i, ++j)
        h[j] = (h[j] ^ data[i]) * kP;
    // Fold the stream digests and the length; the length keeps buffers
    // that differ only by trailing offset-basis-preserving tails apart.
    Fnv1a64 out;
    out.u64(h[0]);
    out.u64(h[1]);
    out.u64(h[2]);
    out.u64(h[3]);
    out.u64(size);
    return out.value();
}

void
atomicWriteFile(const std::string &path,
                const std::vector<std::uint8_t> &bytes)
{
    // Unique temp name per (process, call): parallel workers committing
    // different keys never collide, and two writers of the SAME path
    // each rename a complete file (last one wins, both are valid).
    static std::atomic<std::uint64_t> seq{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(dtexl_getpid()) + "." +
        std::to_string(seq.fetch_add(1, std::memory_order_relaxed));

    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        throwIoError("cannot create temp file '%s'", tmp.c_str());
    const std::size_t wrote =
        bytes.empty() ? 0
                      : std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool flushed = std::fflush(f) == 0;
    std::fclose(f);
    if (wrote != bytes.size() || !flushed) {
        std::remove(tmp.c_str());
        throwIoError("short write to temp file '%s'", tmp.c_str());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throwIoError("cannot commit '%s' (rename from temp failed)",
                     path.c_str());
    }
}

bool
readFileBytes(const std::string &path, std::vector<std::uint8_t> &out)
{
    out.clear();
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::uint8_t chunk[1 << 16];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        out.insert(out.end(), chunk, chunk + got);
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!ok)
        out.clear();
    return ok;
}

void
ensureDirectory(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        throwIoError("cannot create directory '%s': %s", dir.c_str(),
                     ec.message().c_str());
}

} // namespace dtexl
