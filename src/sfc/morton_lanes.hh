/**
 * @file
 * Integer-lane twins of the Morton codec (sfc/morton.hh): four codes
 * encode or decode per call over the portable lane layer
 * (common/simd.hh). Every operation is a shift/mask/or on u64 lanes —
 * exact on all backends — so lane and scalar results are bit-identical
 * by construction (tests/test_simd.cc sweeps the codec over random and
 * boundary coordinates). Consumer: the Z-order tile traversal
 * (sfc/tile_order.cc), which decodes; the encoder has had no caller
 * since texel addressing became scalar code (texture/sampler.cc).
 */

#ifndef DTEXL_SFC_MORTON_LANES_HH
#define DTEXL_SFC_MORTON_LANES_HH

#include <cstdint>

#include "common/simd.hh"
#include "sfc/morton.hh"

namespace dtexl {

/** Zero-extend four u32 lanes into u64 lanes. */
inline U64x4
widenU4(U32x4 x)
{
    std::uint32_t t[4];
    storeU4(t, x);
    return makeU64x4(t[0], t[1], t[2], t[3]);
}

/** Truncate four u64 lanes to u32 lanes. */
inline U32x4
narrowU64x4(U64x4 x)
{
    std::uint64_t t[4];
    storeU64x4(t, x);
    return makeU4(static_cast<std::uint32_t>(t[0]),
                  static_cast<std::uint32_t>(t[1]),
                  static_cast<std::uint32_t>(t[2]),
                  static_cast<std::uint32_t>(t[3]));
}

/** Lane twin of mortonSpread: bit i of each lane lands at bit 2i. */
inline U64x4
mortonSpread4(U64x4 x)
{
    x = x & splatU64x4(0xffffffffull);
    x = (x | shlU64x4(x, 16)) & splatU64x4(0x0000ffff0000ffffull);
    x = (x | shlU64x4(x, 8)) & splatU64x4(0x00ff00ff00ff00ffull);
    x = (x | shlU64x4(x, 4)) & splatU64x4(0x0f0f0f0f0f0f0f0full);
    x = (x | shlU64x4(x, 2)) & splatU64x4(0x3333333333333333ull);
    x = (x | shlU64x4(x, 1)) & splatU64x4(0x5555555555555555ull);
    return x;
}

/** Lane twin of mortonCompact (inverse of mortonSpread4). */
inline U64x4
mortonCompact4(U64x4 x)
{
    x = x & splatU64x4(0x5555555555555555ull);
    x = (x | shrU64x4(x, 1)) & splatU64x4(0x3333333333333333ull);
    x = (x | shrU64x4(x, 2)) & splatU64x4(0x0f0f0f0f0f0f0f0full);
    x = (x | shrU64x4(x, 4)) & splatU64x4(0x00ff00ff00ff00ffull);
    x = (x | shrU64x4(x, 8)) & splatU64x4(0x0000ffff0000ffffull);
    x = (x | shrU64x4(x, 16)) & splatU64x4(0x00000000ffffffffull);
    return x;
}

/** Interleave four (x, y) pairs into Morton codes; x in the even bits. */
inline U64x4
mortonEncode4(U32x4 x, U32x4 y)
{
    return mortonSpread4(widenU4(x)) |
           shlU64x4(mortonSpread4(widenU4(y)), 1);
}

/** Extract x (even bits) from four Morton codes. */
inline U32x4
mortonDecodeX4(U64x4 code)
{
    return narrowU64x4(mortonCompact4(code));
}

/** Extract y (odd bits) from four Morton codes. */
inline U32x4
mortonDecodeY4(U64x4 code)
{
    return narrowU64x4(mortonCompact4(shrU64x4(code, 1)));
}

} // namespace dtexl

#endif // DTEXL_SFC_MORTON_LANES_HH
