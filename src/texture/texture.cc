#include "texture/texture.hh"

#include "common/log.hh"
#include "common/sim_error.hh"

namespace dtexl {

std::string
toString(TexFormat fmt)
{
    switch (fmt) {
      case TexFormat::RGBA8:  return "RGBA8";
      case TexFormat::RGB565: return "RGB565";
      case TexFormat::ETC2:   return "ETC2";
    }
    panic("unknown TexFormat %d", static_cast<int>(fmt));
}

TextureDesc::TextureDesc(TextureId id, Addr base_addr, std::uint32_t side,
                         TexFormat fmt)
    : id_(id), base(base_addr), side_(side), fmt(fmt)
{
    // Structured error, not an assert: the sampler's repeat addressing
    // wraps coordinates with a pow2 mask and a dilated-integer step
    // (texture/sampler.cc), so a non-pow2 side would silently alias
    // texels.
    // Sides come from scene files, making this user input, not an
    // internal invariant.
    if (side == 0 || (side & (side - 1)) != 0)
        throwUserError("texture %u: side %u is not a power of two "
                       "(repeat addressing wraps texel coordinates "
                       "with a pow2 mask, so texture sides must be "
                       "powers of two)",
                       id, side);
    Addr a = base_addr;
    for (std::uint32_t s = side; ; s /= 2) {
        mipBases.push_back(a);
        a += levelBytes(fmt, s);
        if (s == 1)
            break;
    }
    total = a - base_addr;
}

} // namespace dtexl
