/**
 * @file
 * The one framing of every on-disk cache file (result entries,
 * checkpoints). A file is a head, optional caller fields, then a body:
 *
 *   head  [magic u64][kResultFormatVersion u32][key echo: scene,
 *         config, build u64]
 *   body  [payload size u64][payload][fnv1a64Striped(payload) u64]
 *
 * The readers validate as they go and throw SimError{Io} naming the
 * first failed check; the callers turn that into a warn() and a miss,
 * so a damaged file costs a recompute, never wrong data.
 */

#ifndef DTEXL_CACHE_FILE_FRAME_HH
#define DTEXL_CACHE_FILE_FRAME_HH

#include <cstdint>
#include <span>
#include <vector>

#include "cache/result_key.hh"
#include "common/serial.hh"

namespace dtexl {

/** An 8-character file magic as a little-endian u64. */
constexpr std::uint64_t
packMagic(const char (&s)[9])
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(s[i]))
             << (8 * i);
    return v;
}

/** Write the head: @p magic, the format version, @p key. */
void writeFileHead(ByteWriter &w, std::uint64_t magic,
                   const ResultKey &key);

/** Read the head; throws unless magic, version and key all match. */
void readFileHead(ByteReader &r, std::uint64_t magic,
                  const ResultKey &key);

/** Write the body: size, @p payload, checksum. */
void writeFileBody(ByteWriter &w,
                   const std::vector<std::uint8_t> &payload);

/**
 * Read the body, which must end the file; throws on a size or
 * checksum mismatch. The returned payload borrows @p r's buffer.
 */
std::span<const std::uint8_t> readFileBody(ByteReader &r);

} // namespace dtexl

#endif // DTEXL_CACHE_FILE_FRAME_HH
