/**
 * @file
 * Canonical binary serialization and hashing primitives for the result
 * cache and checkpoint layer (src/cache/):
 *
 *  - ByteWriter / ByteReader: explicit little-endian encoding of the
 *    fixed-width scalar types, so serialized artifacts and content
 *    hashes are identical on any host regardless of endianness.
 *    ByteReader is bounds-checked: reading past the end throws
 *    SimError{Io}, so a truncated artifact can never be silently
 *    misparsed (it is detected, logged and recomputed).
 *  - Fnv1a64: streaming 64-bit FNV-1a over the same little-endian
 *    byte encoding; the digest behind ResultKey and the scene/config
 *    hashes.
 *  - fnv1a64Striped(): 4-stream FNV-1a for whole-buffer artifact
 *    checksums (result entries, checkpoints). The serial xor-multiply
 *    chain of plain FNV-1a cannot be lane-parallelized; four
 *    independent byte-interleaved streams can, and also break the
 *    chain's data dependency for scalar hosts. Changing the artifact
 *    checksum is a format change: kResultFormatVersion v2.
 *  - atomicWriteFile(): single-writer commit — write a temp file in
 *    the destination directory, then rename() into place (atomic on
 *    POSIX), mirroring the DroidNet single-writer-commit pattern.
 *    Concurrent writers of the same path race benignly: both temps
 *    are complete files and the last rename wins.
 */

#ifndef DTEXL_COMMON_SERIAL_HH
#define DTEXL_COMMON_SERIAL_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace dtexl {

/** Append-only little-endian byte buffer. */
class ByteWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        buf.insert(buf.end(), s.begin(), s.end());
    }

    /** Raw bytes, no length prefix. */
    void
    bytes(const std::vector<std::uint8_t> &v)
    {
        buf.insert(buf.end(), v.begin(), v.end());
    }

    const std::vector<std::uint8_t> &data() const { return buf; }
    std::vector<std::uint8_t> take() { return std::move(buf); }
    std::size_t size() const { return buf.size(); }

  private:
    std::vector<std::uint8_t> buf;
};

/**
 * Bounds-checked little-endian reader over a borrowed buffer (the
 * buffer must outlive the reader). Overruns throw SimError{Io}.
 */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : p(data), n(size)
    {}
    explicit ByteReader(const std::vector<std::uint8_t> &bytes)
        : p(bytes.data()), n(bytes.size())
    {}

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    float f32() { return std::bit_cast<float>(u32()); }
    double f64() { return std::bit_cast<double>(u64()); }
    std::string str();
    /** Borrow the next @p size raw bytes and step past them. */
    const std::uint8_t *bytes(std::size_t size);

    std::size_t remaining() const { return n - pos; }
    bool done() const { return pos == n; }

  private:
    void need(std::size_t bytes);

    const std::uint8_t *p;
    std::size_t n;
    std::size_t pos = 0;
};

/**
 * Streaming 64-bit FNV-1a. Scalars are folded in via the same
 * little-endian encoding ByteWriter uses, so a hash of fields equals
 * the hash of their serialization.
 */
class Fnv1a64
{
  public:
    static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
    static constexpr std::uint64_t kPrime = 0x00000100000001b3ull;

    void
    byte(std::uint8_t b)
    {
        h = (h ^ b) * kPrime;
    }

    void
    bytes(const std::uint8_t *data, std::size_t size)
    {
        for (std::size_t i = 0; i < size; ++i)
            byte(data[i]);
    }

    void bytes(const std::vector<std::uint8_t> &v)
    {
        bytes(v.data(), v.size());
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(const char *s)
    {
        for (; *s; ++s)
            byte(static_cast<std::uint8_t>(*s));
        byte(0);  // terminator so "ab","c" != "a","bc"
    }

    void str(const std::string &s) { str(s.c_str()); }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = kOffsetBasis;
};

/** FNV-1a of a whole buffer. */
std::uint64_t fnv1a64(const std::uint8_t *data, std::size_t size);
inline std::uint64_t
fnv1a64(const std::vector<std::uint8_t> &v)
{
    return fnv1a64(v.data(), v.size());
}

/**
 * Striped 4-stream FNV-1a of a whole buffer (artifact checksums).
 * Byte i feeds stream (i mod 4); each stream is an independent FNV-1a
 * chain, and the four stream digests plus the length are folded into
 * one value with plain FNV-1a. Striping exists to break the serial
 * digest's one multiply-latency-bound dependency chain into four that
 * the host pipelines in parallel (~3.7x on an x86-64 SSE2 host); the
 * digest itself is a frozen pure function of the bytes. NOT
 * interchangeable with fnv1a64(): switching a format's checksum
 * requires a kResultFormatVersion bump.
 */
std::uint64_t fnv1a64Striped(const std::uint8_t *data, std::size_t size);
inline std::uint64_t
fnv1a64Striped(const std::vector<std::uint8_t> &v)
{
    return fnv1a64Striped(v.data(), v.size());
}

/**
 * Atomically commit @p bytes to @p path: write "<path>.tmp.<pid>.<seq>"
 * in the same directory, flush, then rename() over the destination.
 * Throws SimError{Io} when the directory is unwritable.
 */
void atomicWriteFile(const std::string &path,
                     const std::vector<std::uint8_t> &bytes);

/**
 * Read a whole file into @p out. Returns false (out cleared) when the
 * file cannot be opened; throws nothing.
 */
bool readFileBytes(const std::string &path,
                   std::vector<std::uint8_t> &out);

/** mkdir -p; throws SimError{Io} on failure. */
void ensureDirectory(const std::string &dir);

} // namespace dtexl

#endif // DTEXL_COMMON_SERIAL_HH
