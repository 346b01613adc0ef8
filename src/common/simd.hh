/**
 * @file
 * Portable SIMD lane types for the raster/texture hot paths.
 *
 * Four backends, selected at build time from the compiler's target
 * flags: AVX2 (native 8-wide), SSE2 (native 4-wide, 8-wide as a pair),
 * NEON (4-wide, 8-wide as a pair) and a plain-array scalar fallback.
 * Every operation is defined so that each lane computes the *exact*
 * scalar expression the serial code computes — the whole point of the
 * layer is that vectorized kernels are bit-identical to their scalar
 * twins (tests/test_simd.cc), so:
 *
 *  - Comparisons are IEEE *ordered* compares (NaN lanes produce a
 *    false mask), matching `a < b` on scalars.
 *  - Int->float conversion uses the hardware cvt (round-to-nearest-
 *    even), the same rounding `static_cast<float>(int)` performs.
 *  - No fused multiply-add is ever emitted: lane mul/add are distinct
 *    operations, and the build pins -ffp-contract=off so the compiler
 *    cannot contract the scalar twins either.
 *
 * Masks are full-width lane masks (all-ones / all-zero) as produced by
 * the compare instructions. moveMask() packs lane k's mask into bit k.
 *
 * Runtime dispatch is deliberately not hidden here: kernels keep their
 * scalar implementation and branch on GpuConfig::simdMode (`--simd=`),
 * so `--simd=scalar` exercises the original serial code, not a scalar
 * emulation of the lane code.
 */

#ifndef DTEXL_COMMON_SIMD_HH
#define DTEXL_COMMON_SIMD_HH

#include <cstdint>

#if defined(__AVX2__)
  #define DTEXL_SIMD_AVX2 1
  #define DTEXL_SIMD_BACKEND_NAME "avx2"
  #include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
  #define DTEXL_SIMD_SSE2 1
  #define DTEXL_SIMD_BACKEND_NAME "sse2"
  #include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
  #define DTEXL_SIMD_NEON 1
  #define DTEXL_SIMD_BACKEND_NAME "neon"
  #include <arm_neon.h>
#else
  #define DTEXL_SIMD_SCALAR 1
  #define DTEXL_SIMD_BACKEND_NAME "scalar"
#endif

namespace dtexl {

/** Name of the lane backend compiled into this build. */
inline const char *
simdBackendName()
{
    return DTEXL_SIMD_BACKEND_NAME;
}

// ---------------------------------------------------------------------
// 4-wide types
// ---------------------------------------------------------------------

#if defined(DTEXL_SIMD_AVX2) || defined(DTEXL_SIMD_SSE2)

struct F32x4 { __m128 v; };
struct M32x4 { __m128 v; };   ///< per-lane all-ones/all-zero mask
struct I32x4 { __m128i v; };
struct U32x4 { __m128i v; };

inline F32x4 splatF4(float x) { return {_mm_set1_ps(x)}; }
inline F32x4 loadF4(const float *p) { return {_mm_loadu_ps(p)}; }
inline void storeF4(float *p, F32x4 a) { _mm_storeu_ps(p, a.v); }

inline F32x4 operator+(F32x4 a, F32x4 b) { return {_mm_add_ps(a.v, b.v)}; }
inline F32x4 operator-(F32x4 a, F32x4 b) { return {_mm_sub_ps(a.v, b.v)}; }
inline F32x4 operator*(F32x4 a, F32x4 b) { return {_mm_mul_ps(a.v, b.v)}; }

inline M32x4 cmpGtF4(F32x4 a, F32x4 b) { return {_mm_cmpgt_ps(a.v, b.v)}; }
inline M32x4 cmpEqF4(F32x4 a, F32x4 b) { return {_mm_cmpeq_ps(a.v, b.v)}; }

inline M32x4 andM4(M32x4 a, M32x4 b) { return {_mm_and_ps(a.v, b.v)}; }
inline M32x4 orM4(M32x4 a, M32x4 b) { return {_mm_or_ps(a.v, b.v)}; }
inline M32x4
maskSplat4(bool b)
{
    return {_mm_castsi128_ps(_mm_set1_epi32(b ? -1 : 0))};
}
inline int moveMask4(M32x4 m) { return _mm_movemask_ps(m.v); }

inline I32x4 splatI4(std::int32_t x) { return {_mm_set1_epi32(x)}; }
inline I32x4
makeI4(std::int32_t a, std::int32_t b, std::int32_t c, std::int32_t d)
{
    return {_mm_setr_epi32(a, b, c, d)};
}
inline I32x4 operator+(I32x4 a, I32x4 b)
{
    return {_mm_add_epi32(a.v, b.v)};
}
inline M32x4
cmpLtI4(I32x4 a, I32x4 b)
{
    return {_mm_castsi128_ps(_mm_cmplt_epi32(a.v, b.v))};
}
/** Round-to-nearest-even int->float, same as static_cast<float>. */
inline F32x4 toF4(I32x4 a) { return {_mm_cvtepi32_ps(a.v)}; }

inline U32x4 splatU4(std::uint32_t x)
{
    return {_mm_set1_epi32(static_cast<std::int32_t>(x))};
}
inline U32x4
makeU4(std::uint32_t a, std::uint32_t b, std::uint32_t c, std::uint32_t d)
{
    return {_mm_setr_epi32(
        static_cast<std::int32_t>(a), static_cast<std::int32_t>(b),
        static_cast<std::int32_t>(c), static_cast<std::int32_t>(d))};
}
inline U32x4 operator+(U32x4 a, U32x4 b)
{
    return {_mm_add_epi32(a.v, b.v)};
}
inline U32x4 operator-(U32x4 a, U32x4 b)
{
    return {_mm_sub_epi32(a.v, b.v)};
}
inline U32x4 operator&(U32x4 a, U32x4 b)
{
    return {_mm_and_si128(a.v, b.v)};
}
inline U32x4 operator|(U32x4 a, U32x4 b)
{
    return {_mm_or_si128(a.v, b.v)};
}
inline U32x4 operator^(U32x4 a, U32x4 b)
{
    return {_mm_xor_si128(a.v, b.v)};
}
inline void
storeU4(std::uint32_t *p, U32x4 a)
{
    _mm_storeu_si128(reinterpret_cast<__m128i *>(p), a.v);
}

#elif defined(DTEXL_SIMD_NEON)

struct F32x4 { float32x4_t v; };
struct M32x4 { uint32x4_t v; };
struct I32x4 { int32x4_t v; };
struct U32x4 { uint32x4_t v; };

inline F32x4 splatF4(float x) { return {vdupq_n_f32(x)}; }
inline F32x4 loadF4(const float *p) { return {vld1q_f32(p)}; }
inline void storeF4(float *p, F32x4 a) { vst1q_f32(p, a.v); }

inline F32x4 operator+(F32x4 a, F32x4 b) { return {vaddq_f32(a.v, b.v)}; }
inline F32x4 operator-(F32x4 a, F32x4 b) { return {vsubq_f32(a.v, b.v)}; }
inline F32x4 operator*(F32x4 a, F32x4 b) { return {vmulq_f32(a.v, b.v)}; }

inline M32x4 cmpGtF4(F32x4 a, F32x4 b) { return {vcgtq_f32(a.v, b.v)}; }
inline M32x4 cmpEqF4(F32x4 a, F32x4 b) { return {vceqq_f32(a.v, b.v)}; }

inline M32x4 andM4(M32x4 a, M32x4 b) { return {vandq_u32(a.v, b.v)}; }
inline M32x4 orM4(M32x4 a, M32x4 b) { return {vorrq_u32(a.v, b.v)}; }
inline M32x4 maskSplat4(bool b) { return {vdupq_n_u32(b ? ~0u : 0u)}; }
inline int
moveMask4(M32x4 m)
{
    return static_cast<int>((vgetq_lane_u32(m.v, 0) >> 31) |
                            ((vgetq_lane_u32(m.v, 1) >> 31) << 1) |
                            ((vgetq_lane_u32(m.v, 2) >> 31) << 2) |
                            ((vgetq_lane_u32(m.v, 3) >> 31) << 3));
}

inline I32x4 splatI4(std::int32_t x) { return {vdupq_n_s32(x)}; }
inline I32x4
makeI4(std::int32_t a, std::int32_t b, std::int32_t c, std::int32_t d)
{
    const std::int32_t t[4] = {a, b, c, d};
    return {vld1q_s32(t)};
}
inline I32x4 operator+(I32x4 a, I32x4 b) { return {vaddq_s32(a.v, b.v)}; }
inline M32x4 cmpLtI4(I32x4 a, I32x4 b) { return {vcltq_s32(a.v, b.v)}; }
inline F32x4 toF4(I32x4 a) { return {vcvtq_f32_s32(a.v)}; }

inline U32x4 splatU4(std::uint32_t x) { return {vdupq_n_u32(x)}; }
inline U32x4
makeU4(std::uint32_t a, std::uint32_t b, std::uint32_t c, std::uint32_t d)
{
    const std::uint32_t t[4] = {a, b, c, d};
    return {vld1q_u32(t)};
}
inline U32x4 operator+(U32x4 a, U32x4 b) { return {vaddq_u32(a.v, b.v)}; }
inline U32x4 operator-(U32x4 a, U32x4 b) { return {vsubq_u32(a.v, b.v)}; }
inline U32x4 operator&(U32x4 a, U32x4 b) { return {vandq_u32(a.v, b.v)}; }
inline U32x4 operator|(U32x4 a, U32x4 b) { return {vorrq_u32(a.v, b.v)}; }
inline U32x4 operator^(U32x4 a, U32x4 b) { return {veorq_u32(a.v, b.v)}; }
inline void storeU4(std::uint32_t *p, U32x4 a) { vst1q_u32(p, a.v); }

#else // DTEXL_SIMD_SCALAR

struct F32x4 { float v[4]; };
struct M32x4 { std::uint32_t v[4]; };
struct I32x4 { std::int32_t v[4]; };
struct U32x4 { std::uint32_t v[4]; };

inline F32x4 splatF4(float x) { return {{x, x, x, x}}; }
inline F32x4 loadF4(const float *p) { return {{p[0], p[1], p[2], p[3]}}; }
inline void
storeF4(float *p, F32x4 a)
{
    for (int i = 0; i < 4; ++i)
        p[i] = a.v[i];
}

#define DTEXL_SCALAR_LANEOP4(name, T, expr)                             \
    inline T name(T a, T b)                                             \
    {                                                                   \
        T r;                                                            \
        for (int i = 0; i < 4; ++i)                                     \
            r.v[i] = (expr);                                            \
        return r;                                                       \
    }

DTEXL_SCALAR_LANEOP4(operator+, F32x4, a.v[i] + b.v[i])
DTEXL_SCALAR_LANEOP4(operator-, F32x4, a.v[i] - b.v[i])
DTEXL_SCALAR_LANEOP4(operator*, F32x4, a.v[i] * b.v[i])

inline M32x4
cmpGtF4(F32x4 a, F32x4 b)
{
    M32x4 r;
    for (int i = 0; i < 4; ++i)
        r.v[i] = a.v[i] > b.v[i] ? ~0u : 0u;
    return r;
}
inline M32x4
cmpEqF4(F32x4 a, F32x4 b)
{
    M32x4 r;
    for (int i = 0; i < 4; ++i)
        r.v[i] = a.v[i] == b.v[i] ? ~0u : 0u;
    return r;
}

DTEXL_SCALAR_LANEOP4(andM4, M32x4, a.v[i] & b.v[i])
DTEXL_SCALAR_LANEOP4(orM4, M32x4, a.v[i] | b.v[i])

inline M32x4
maskSplat4(bool b)
{
    const std::uint32_t m = b ? ~0u : 0u;
    return {{m, m, m, m}};
}
inline int
moveMask4(M32x4 m)
{
    int r = 0;
    for (int i = 0; i < 4; ++i)
        r |= static_cast<int>(m.v[i] >> 31) << i;
    return r;
}

inline I32x4 splatI4(std::int32_t x) { return {{x, x, x, x}}; }
inline I32x4
makeI4(std::int32_t a, std::int32_t b, std::int32_t c, std::int32_t d)
{
    return {{a, b, c, d}};
}
DTEXL_SCALAR_LANEOP4(operator+, I32x4, a.v[i] + b.v[i])
inline M32x4
cmpLtI4(I32x4 a, I32x4 b)
{
    M32x4 r;
    for (int i = 0; i < 4; ++i)
        r.v[i] = a.v[i] < b.v[i] ? ~0u : 0u;
    return r;
}
inline F32x4
toF4(I32x4 a)
{
    F32x4 r;
    for (int i = 0; i < 4; ++i)
        r.v[i] = static_cast<float>(a.v[i]);
    return r;
}

inline U32x4 splatU4(std::uint32_t x) { return {{x, x, x, x}}; }
inline U32x4
makeU4(std::uint32_t a, std::uint32_t b, std::uint32_t c, std::uint32_t d)
{
    return {{a, b, c, d}};
}
DTEXL_SCALAR_LANEOP4(operator+, U32x4, a.v[i] + b.v[i])
DTEXL_SCALAR_LANEOP4(operator-, U32x4, a.v[i] - b.v[i])
DTEXL_SCALAR_LANEOP4(operator&, U32x4, a.v[i] & b.v[i])
DTEXL_SCALAR_LANEOP4(operator|, U32x4, a.v[i] | b.v[i])
DTEXL_SCALAR_LANEOP4(operator^, U32x4, a.v[i] ^ b.v[i])
inline void
storeU4(std::uint32_t *p, U32x4 a)
{
    for (int i = 0; i < 4; ++i)
        p[i] = a.v[i];
}

#undef DTEXL_SCALAR_LANEOP4

#endif

// ---------------------------------------------------------------------
// 64-bit integer lanes (Morton codes, striped FNV)
// ---------------------------------------------------------------------

#if defined(DTEXL_SIMD_AVX2)

struct U64x4 { __m256i v; };

inline U64x4
splatU64x4(std::uint64_t x)
{
    return {_mm256_set1_epi64x(static_cast<long long>(x))};
}
inline U64x4
makeU64x4(std::uint64_t a, std::uint64_t b, std::uint64_t c,
          std::uint64_t d)
{
    return {_mm256_setr_epi64x(
        static_cast<long long>(a), static_cast<long long>(b),
        static_cast<long long>(c), static_cast<long long>(d))};
}
inline U64x4 operator+(U64x4 a, U64x4 b)
{
    return {_mm256_add_epi64(a.v, b.v)};
}
inline U64x4 operator&(U64x4 a, U64x4 b)
{
    return {_mm256_and_si256(a.v, b.v)};
}
inline U64x4 operator|(U64x4 a, U64x4 b)
{
    return {_mm256_or_si256(a.v, b.v)};
}
inline U64x4 operator^(U64x4 a, U64x4 b)
{
    return {_mm256_xor_si256(a.v, b.v)};
}
inline U64x4 shlU64x4(U64x4 a, int n)
{
    return {_mm256_slli_epi64(a.v, n)};
}
inline U64x4 shrU64x4(U64x4 a, int n)
{
    return {_mm256_srli_epi64(a.v, n)};
}
inline void
storeU64x4(std::uint64_t *p, U64x4 a)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), a.v);
}
inline U64x4
loadU64x4(const std::uint64_t *p)
{
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i *>(p))};
}

#elif defined(DTEXL_SIMD_SSE2)

struct U64x4 { __m128i lo, hi; };

inline U64x4
splatU64x4(std::uint64_t x)
{
    const __m128i v = _mm_set1_epi64x(static_cast<long long>(x));
    return {v, v};
}
inline U64x4
makeU64x4(std::uint64_t a, std::uint64_t b, std::uint64_t c,
          std::uint64_t d)
{
    return {_mm_set_epi64x(static_cast<long long>(b),
                           static_cast<long long>(a)),
            _mm_set_epi64x(static_cast<long long>(d),
                           static_cast<long long>(c))};
}
inline U64x4 operator+(U64x4 a, U64x4 b)
{
    return {_mm_add_epi64(a.lo, b.lo), _mm_add_epi64(a.hi, b.hi)};
}
inline U64x4 operator&(U64x4 a, U64x4 b)
{
    return {_mm_and_si128(a.lo, b.lo), _mm_and_si128(a.hi, b.hi)};
}
inline U64x4 operator|(U64x4 a, U64x4 b)
{
    return {_mm_or_si128(a.lo, b.lo), _mm_or_si128(a.hi, b.hi)};
}
inline U64x4 operator^(U64x4 a, U64x4 b)
{
    return {_mm_xor_si128(a.lo, b.lo), _mm_xor_si128(a.hi, b.hi)};
}
inline U64x4 shlU64x4(U64x4 a, int n)
{
    return {_mm_slli_epi64(a.lo, n), _mm_slli_epi64(a.hi, n)};
}
inline U64x4 shrU64x4(U64x4 a, int n)
{
    return {_mm_srli_epi64(a.lo, n), _mm_srli_epi64(a.hi, n)};
}
inline void
storeU64x4(std::uint64_t *p, U64x4 a)
{
    _mm_storeu_si128(reinterpret_cast<__m128i *>(p), a.lo);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(p + 2), a.hi);
}
inline U64x4
loadU64x4(const std::uint64_t *p)
{
    return {_mm_loadu_si128(reinterpret_cast<const __m128i *>(p)),
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p + 2))};
}

#elif defined(DTEXL_SIMD_NEON)

struct U64x4 { uint64x2_t lo, hi; };

inline U64x4
splatU64x4(std::uint64_t x)
{
    const uint64x2_t v = vdupq_n_u64(x);
    return {v, v};
}
inline U64x4
makeU64x4(std::uint64_t a, std::uint64_t b, std::uint64_t c,
          std::uint64_t d)
{
    const std::uint64_t t0[2] = {a, b};
    const std::uint64_t t1[2] = {c, d};
    return {vld1q_u64(t0), vld1q_u64(t1)};
}
inline U64x4 operator+(U64x4 a, U64x4 b)
{
    return {vaddq_u64(a.lo, b.lo), vaddq_u64(a.hi, b.hi)};
}
inline U64x4 operator&(U64x4 a, U64x4 b)
{
    return {vandq_u64(a.lo, b.lo), vandq_u64(a.hi, b.hi)};
}
inline U64x4 operator|(U64x4 a, U64x4 b)
{
    return {vorrq_u64(a.lo, b.lo), vorrq_u64(a.hi, b.hi)};
}
inline U64x4 operator^(U64x4 a, U64x4 b)
{
    return {veorq_u64(a.lo, b.lo), veorq_u64(a.hi, b.hi)};
}
inline U64x4 shlU64x4(U64x4 a, int n)
{
    const int64x2_t s = vdupq_n_s64(n);
    return {vshlq_u64(a.lo, s), vshlq_u64(a.hi, s)};
}
inline U64x4 shrU64x4(U64x4 a, int n)
{
    const int64x2_t s = vdupq_n_s64(-n);
    return {vshlq_u64(a.lo, s), vshlq_u64(a.hi, s)};
}
inline void
storeU64x4(std::uint64_t *p, U64x4 a)
{
    vst1q_u64(p, a.lo);
    vst1q_u64(p + 2, a.hi);
}
inline U64x4
loadU64x4(const std::uint64_t *p)
{
    return {vld1q_u64(p), vld1q_u64(p + 2)};
}

#else // DTEXL_SIMD_SCALAR

struct U64x4 { std::uint64_t v[4]; };

inline U64x4 splatU64x4(std::uint64_t x) { return {{x, x, x, x}}; }
inline U64x4
makeU64x4(std::uint64_t a, std::uint64_t b, std::uint64_t c,
          std::uint64_t d)
{
    return {{a, b, c, d}};
}
#define DTEXL_SCALAR_LANEOP64(name, expr)                               \
    inline U64x4 name(U64x4 a, U64x4 b)                                 \
    {                                                                   \
        U64x4 r;                                                        \
        for (int i = 0; i < 4; ++i)                                     \
            r.v[i] = (expr);                                            \
        return r;                                                       \
    }
DTEXL_SCALAR_LANEOP64(operator+, a.v[i] + b.v[i])
DTEXL_SCALAR_LANEOP64(operator&, a.v[i] & b.v[i])
DTEXL_SCALAR_LANEOP64(operator|, a.v[i] | b.v[i])
DTEXL_SCALAR_LANEOP64(operator^, a.v[i] ^ b.v[i])
#undef DTEXL_SCALAR_LANEOP64
inline U64x4
shlU64x4(U64x4 a, int n)
{
    U64x4 r;
    for (int i = 0; i < 4; ++i)
        r.v[i] = a.v[i] << n;
    return r;
}
inline U64x4
shrU64x4(U64x4 a, int n)
{
    U64x4 r;
    for (int i = 0; i < 4; ++i)
        r.v[i] = a.v[i] >> n;
    return r;
}
inline void
storeU64x4(std::uint64_t *p, U64x4 a)
{
    for (int i = 0; i < 4; ++i)
        p[i] = a.v[i];
}
inline U64x4
loadU64x4(const std::uint64_t *p)
{
    return {{p[0], p[1], p[2], p[3]}};
}

#endif

/**
 * Per-lane 64-bit multiply. Integer multiplication is exact mod 2^64,
 * so every formulation below is bit-identical to four scalar
 * multiplies. AVX2 builds it from 32x32->64 partial products (no
 * pre-AVX-512 instruction multiplies 64-bit lanes directly); the other
 * backends round-trip through memory and multiply per lane. Either
 * way this is an expensive op — a power-of-two multiplier is a shift
 * (shlU64x4), and latency-bound recurrences are faster as unrolled
 * scalar chains (see fnv1a64Striped).
 */
#if defined(DTEXL_SIMD_AVX2)
inline U64x4
mulU64x4(U64x4 a, U64x4 b)
{
    // a*b mod 2^64 = lo(a)*lo(b) + ((lo(a)*hi(b) + hi(a)*lo(b)) << 32)
    const __m256i a_hi = _mm256_srli_epi64(a.v, 32);
    const __m256i b_hi = _mm256_srli_epi64(b.v, 32);
    const __m256i ll = _mm256_mul_epu32(a.v, b.v);
    const __m256i lh = _mm256_mul_epu32(a.v, b_hi);
    const __m256i hl = _mm256_mul_epu32(a_hi, b.v);
    const __m256i cross =
        _mm256_slli_epi64(_mm256_add_epi64(lh, hl), 32);
    return {_mm256_add_epi64(ll, cross)};
}
#else
inline U64x4
mulU64x4(U64x4 a, U64x4 b)
{
    std::uint64_t ta[4], tb[4];
    storeU64x4(ta, a);
    storeU64x4(tb, b);
    for (int i = 0; i < 4; ++i)
        ta[i] *= tb[i];
    return loadU64x4(ta);
}
#endif

// ---------------------------------------------------------------------
// 8-wide types: native on AVX2, a 4-wide pair elsewhere. Lane k of the
// pair form is lane k%4 of half k/4; moveMask8 packs lane k into bit k
// either way.
// ---------------------------------------------------------------------

#if defined(DTEXL_SIMD_AVX2)

struct F32x8 { __m256 v; };
struct M32x8 { __m256 v; };
struct I32x8 { __m256i v; };

inline F32x8 splatF8(float x) { return {_mm256_set1_ps(x)}; }
inline void storeF8(float *p, F32x8 a) { _mm256_storeu_ps(p, a.v); }

inline F32x8 operator+(F32x8 a, F32x8 b)
{
    return {_mm256_add_ps(a.v, b.v)};
}
inline F32x8 operator-(F32x8 a, F32x8 b)
{
    return {_mm256_sub_ps(a.v, b.v)};
}
inline F32x8 operator*(F32x8 a, F32x8 b)
{
    return {_mm256_mul_ps(a.v, b.v)};
}

inline M32x8 cmpGtF8(F32x8 a, F32x8 b)
{
    return {_mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ)};
}
inline M32x8 cmpEqF8(F32x8 a, F32x8 b)
{
    return {_mm256_cmp_ps(a.v, b.v, _CMP_EQ_OQ)};
}
inline M32x8 andM8(M32x8 a, M32x8 b) { return {_mm256_and_ps(a.v, b.v)}; }
inline M32x8 orM8(M32x8 a, M32x8 b) { return {_mm256_or_ps(a.v, b.v)}; }
inline M32x8
maskSplat8(bool b)
{
    return {_mm256_castsi256_ps(_mm256_set1_epi32(b ? -1 : 0))};
}
inline int moveMask8(M32x8 m) { return _mm256_movemask_ps(m.v); }

inline I32x8 splatI8(std::int32_t x) { return {_mm256_set1_epi32(x)}; }
inline I32x8
makeI8(std::int32_t a, std::int32_t b, std::int32_t c, std::int32_t d,
       std::int32_t e, std::int32_t f, std::int32_t g, std::int32_t h)
{
    return {_mm256_setr_epi32(a, b, c, d, e, f, g, h)};
}
inline I32x8 operator+(I32x8 a, I32x8 b)
{
    return {_mm256_add_epi32(a.v, b.v)};
}
inline M32x8
cmpLtI8(I32x8 a, I32x8 b)
{
    return {_mm256_castsi256_ps(_mm256_cmpgt_epi32(b.v, a.v))};
}
inline F32x8 toF8(I32x8 a) { return {_mm256_cvtepi32_ps(a.v)}; }

#else

struct F32x8 { F32x4 lo, hi; };
struct M32x8 { M32x4 lo, hi; };
struct I32x8 { I32x4 lo, hi; };

inline F32x8 splatF8(float x) { return {splatF4(x), splatF4(x)}; }
inline void
storeF8(float *p, F32x8 a)
{
    storeF4(p, a.lo);
    storeF4(p + 4, a.hi);
}

inline F32x8 operator+(F32x8 a, F32x8 b)
{
    return {a.lo + b.lo, a.hi + b.hi};
}
inline F32x8 operator-(F32x8 a, F32x8 b)
{
    return {a.lo - b.lo, a.hi - b.hi};
}
inline F32x8 operator*(F32x8 a, F32x8 b)
{
    return {a.lo * b.lo, a.hi * b.hi};
}

inline M32x8 cmpGtF8(F32x8 a, F32x8 b)
{
    return {cmpGtF4(a.lo, b.lo), cmpGtF4(a.hi, b.hi)};
}
inline M32x8 cmpEqF8(F32x8 a, F32x8 b)
{
    return {cmpEqF4(a.lo, b.lo), cmpEqF4(a.hi, b.hi)};
}
inline M32x8 andM8(M32x8 a, M32x8 b)
{
    return {andM4(a.lo, b.lo), andM4(a.hi, b.hi)};
}
inline M32x8 orM8(M32x8 a, M32x8 b)
{
    return {orM4(a.lo, b.lo), orM4(a.hi, b.hi)};
}
inline M32x8 maskSplat8(bool b) { return {maskSplat4(b), maskSplat4(b)}; }
inline int
moveMask8(M32x8 m)
{
    return moveMask4(m.lo) | (moveMask4(m.hi) << 4);
}

inline I32x8 splatI8(std::int32_t x) { return {splatI4(x), splatI4(x)}; }
inline I32x8
makeI8(std::int32_t a, std::int32_t b, std::int32_t c, std::int32_t d,
       std::int32_t e, std::int32_t f, std::int32_t g, std::int32_t h)
{
    return {makeI4(a, b, c, d), makeI4(e, f, g, h)};
}
inline I32x8 operator+(I32x8 a, I32x8 b)
{
    return {a.lo + b.lo, a.hi + b.hi};
}
inline M32x8
cmpLtI8(I32x8 a, I32x8 b)
{
    return {cmpLtI4(a.lo, b.lo), cmpLtI4(a.hi, b.hi)};
}
inline F32x8 toF8(I32x8 a) { return {toF4(a.lo), toF4(a.hi)}; }

#endif

} // namespace dtexl

#endif // DTEXL_COMMON_SIMD_HH
