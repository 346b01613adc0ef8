/**
 * @file
 * Texture map descriptors and their memory layout.
 *
 * Textures are stored mip-chained with each level laid out in Morton
 * (tiled) order, the standard layout in mobile GPUs: with RGBA8 texels
 * a 64 B cache line holds a 4x4 texel block, so the footprints of
 * adjacent screen quads land in the same line — the physical mechanism
 * behind the paper's replication/locality trade-off. Compressed
 * formats (see format.hh) pack a wider screen region per line.
 */

#ifndef DTEXL_TEXTURE_TEXTURE_HH
#define DTEXL_TEXTURE_TEXTURE_HH

#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "sfc/morton.hh"
#include "texture/format.hh"

namespace dtexl {

/** Identifier of a texture within a scene. */
using TextureId = std::uint32_t;

/**
 * An immutable texture map: square, power-of-two side, full mip chain,
 * Morton-tiled per level (block-Morton for compressed formats).
 */
class TextureDesc
{
  public:
    /**
     * @param id        Scene-unique texture id.
     * @param base_addr Byte address of mip level 0.
     * @param side      Texels per side; must be a power of two.
     * @param fmt       Texel storage format.
     */
    TextureDesc(TextureId id, Addr base_addr, std::uint32_t side,
                TexFormat fmt = TexFormat::RGBA8);

    TextureId id() const { return id_; }
    Addr baseAddr() const { return base; }
    std::uint32_t side() const { return side_; }
    TexFormat format() const { return fmt; }
    std::uint32_t numMipLevels() const
    {
        return static_cast<std::uint32_t>(mipBases.size());
    }

    /** Side length of mip level @p level (>= 1). */
    std::uint32_t
    levelSide(std::uint32_t level) const
    {
        return side_ >> level ? side_ >> level : 1u;
    }

    /**
     * Byte address of texel (x, y) at the given mip level. For
     * compressed formats this is the address of the texel's block (the
     * unit actually fetched). Defined inline: this is the innermost
     * call of the texture-sampling hot path (four calls per bilinear
     * tap).
     */
    Addr
    texelAddr(std::uint32_t level, std::uint32_t x,
              std::uint32_t y) const
    {
        dtexl_assert(level < mipBases.size(), "mip level out of range");
        dtexl_assert(x < levelSide(level) && y < levelSide(level),
                     "texel out of range");
        const std::uint32_t bs = blockSide(fmt);
        if (bs > 1) {
            // Compressed: address the 4x4 block in block-Morton order;
            // each ETC2 block is 8 bytes.
            return mipBases[level] + mortonEncode(x / bs, y / bs) * 8;
        }
        const TexelRate r = texelRate(fmt);
        return mipBases[level] + mortonEncode(x, y) * r.bytesNum;
    }

    /**
     * Byte address of mip level @p level; the footprint generator
     * (texture/sampler.cc) adds its own Morton offsets to this base.
     */
    Addr
    mipBase(std::uint32_t level) const
    {
        dtexl_assert(level < mipBases.size(), "mip level out of range");
        return mipBases[level];
    }

    /** Total bytes of the whole mip chain. */
    std::uint64_t totalBytes() const { return total; }

    /** Bytes per RGBA8 texel (compatibility constant). */
    static constexpr std::uint32_t kTexelBytes = 4;

  private:
    TextureId id_;
    Addr base;
    std::uint32_t side_;
    TexFormat fmt;
    std::vector<Addr> mipBases;  ///< absolute base address per level
    std::uint64_t total = 0;
};

} // namespace dtexl

#endif // DTEXL_TEXTURE_TEXTURE_HH
