// Portable fixed-width SIMD wrappers — the project's single vector seam.
//
// Design rules (see README "Performance layers"):
//   * Fixed widths, not native widths: f64x4 / i32x4 / i32x8.  On AVX2
//     each maps to one register; on SSE2 and NEON f64x4 and i32x8 map to
//     two; with STAGG_SIMD=OFF (or on unknown ISAs) to plain scalar loops.
//     A kernel written against these types has exactly one shape
//     everywhere.  A type exists only while a kernel uses it: the DP fold
//     (f64x4, i32x4), the cube and measure-cache column sums (f64x4) and
//     the codec's dictionary indices (i32x8).
//   * The scalar fallback (namespace simd::sc) is ALWAYS compiled and IS
//     the oracle: every intrinsic-backed operation is elementwise and must
//     produce bit-identical results to its sc twin — tests/test_simd.cpp
//     pins this with randomized inputs at every width and alignment.
//     Consequently kernels may only vectorize ACROSS independent lanes /
//     columns / states; nothing here reorders a floating-point reduction
//     chain, and no fused-multiply-add is ever emitted (the build also
//     sets -ffp-contract=off so scalar twins cannot be contracted either).
//   * Selection is compile-time only (STAGG_SIMD CMake option + `#if`
//     dispatch) — no runtime CPUID, no function multiversioning.
//   * Raw _mm_* / vld1q_* intrinsics may appear ONLY in this header
//     (enforced by tools/stagg_lint.py rule `raw-intrinsic`); everything
//     else goes through the wrappers.
//
// All loads and stores are unaligned-safe.  The 64-byte AlignedVec below
// is what the hot-path owners (DP arena, cube, measure cache) allocate
// with, so vector accesses in practice never split a cache line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

#if defined(STAGG_SIMD_FORCE_SCALAR)
#define STAGG_SIMD_LEVEL 0
#elif defined(__AVX2__)
#define STAGG_SIMD_LEVEL 3
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define STAGG_SIMD_LEVEL 2
#include <emmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define STAGG_SIMD_LEVEL 1
#include <arm_neon.h>
#else
#define STAGG_SIMD_LEVEL 0
#endif

namespace stagg::simd {

/// True when the active family is intrinsic-backed; false when the scalar
/// fallback is the active family (STAGG_SIMD=OFF or an unknown ISA).
inline constexpr bool kEnabled = STAGG_SIMD_LEVEL != 0;

/// Compile-time ISA name for bench/JSON metadata ("avx2", "sse2", "neon",
/// "scalar").
[[nodiscard]] constexpr const char* level_name() noexcept {
#if STAGG_SIMD_LEVEL == 3
  return "avx2";
#elif STAGG_SIMD_LEVEL == 2
  return "sse2";
#elif STAGG_SIMD_LEVEL == 1
  return "neon";
#else
  return "scalar";
#endif
}

// ---------------------------------------------------------------------------
// 64-byte aligned storage for hot-path buffers.
// ---------------------------------------------------------------------------

/// Minimal C++17 allocator returning 64-byte-aligned blocks: one full
/// cache line / AVX-512 lane, so no f64x4 access into a pooled DP,
/// cube or cache buffer ever splits a line.
template <class T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  AlignedAllocator() noexcept = default;
  template <class U>
  explicit constexpr AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, kAlign);
  }

  template <class U>
  [[nodiscard]] bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// std::vector with 64-byte-aligned storage — drop-in for the pooled DP
/// arena, the DataCube planes and the MeasureCache triangle.
template <class T>
using AlignedVec = std::vector<T, AlignedAllocator<T>>;

// ---------------------------------------------------------------------------
// Scalar family (always compiled; the equivalence oracle).
// ---------------------------------------------------------------------------

namespace sc {

struct f64x4 {
  double v[4];

  [[nodiscard]] static f64x4 load(const double* p) noexcept {
    f64x4 r;
    std::memcpy(r.v, p, sizeof r.v);
    return r;
  }
  [[nodiscard]] static f64x4 broadcast(double x) noexcept {
    return {{x, x, x, x}};
  }
  void store(double* p) const noexcept { std::memcpy(p, v, sizeof v); }

  [[nodiscard]] friend f64x4 operator+(f64x4 a, f64x4 b) noexcept {
    for (int i = 0; i < 4; ++i) a.v[i] += b.v[i];
    return a;
  }
  [[nodiscard]] friend f64x4 operator-(f64x4 a, f64x4 b) noexcept {
    for (int i = 0; i < 4; ++i) a.v[i] -= b.v[i];
    return a;
  }
  [[nodiscard]] friend f64x4 operator*(f64x4 a, f64x4 b) noexcept {
    for (int i = 0; i < 4; ++i) a.v[i] *= b.v[i];
    return a;
  }
  [[nodiscard]] friend f64x4 operator/(f64x4 a, f64x4 b) noexcept {
    for (int i = 0; i < 4; ++i) a.v[i] /= b.v[i];
    return a;
  }
  /// Bit w set when lane w satisfies a >= b (false for NaN, like `>=`).
  [[nodiscard]] int ge_mask(f64x4 b) const noexcept {
    int m = 0;
    for (int i = 0; i < 4; ++i) m |= static_cast<int>(v[i] >= b.v[i]) << i;
    return m;
  }
};

struct i32x4 {
  std::int32_t v[4];

  [[nodiscard]] static i32x4 load(const std::int32_t* p) noexcept {
    i32x4 r;
    std::memcpy(r.v, p, sizeof r.v);
    return r;
  }
  [[nodiscard]] static i32x4 broadcast(std::int32_t x) noexcept {
    return {{x, x, x, x}};
  }
  void store(std::int32_t* p) const noexcept { std::memcpy(p, v, sizeof v); }

  // Wrapping two's-complement arithmetic via uint32_t, like the hardware
  // paddd lanes — plain int math would be UB on overflow.
  [[nodiscard]] friend i32x4 operator+(i32x4 a, i32x4 b) noexcept {
    for (int i = 0; i < 4; ++i) {
      a.v[i] = static_cast<std::int32_t>(static_cast<std::uint32_t>(a.v[i]) +
                                         static_cast<std::uint32_t>(b.v[i]));
    }
    return a;
  }
};

struct i32x8 {
  std::int32_t v[8];

  [[nodiscard]] static i32x8 load(const std::int32_t* p) noexcept {
    i32x8 r;
    std::memcpy(r.v, p, sizeof r.v);
    return r;
  }
  [[nodiscard]] static i32x8 broadcast(std::int32_t x) noexcept {
    i32x8 r;
    for (auto& e : r.v) e = x;
    return r;
  }
  void store(std::int32_t* p) const noexcept { std::memcpy(p, v, sizeof v); }

  // Wrapping two's-complement arithmetic via uint32_t, like the hardware
  // paddd/psubd lanes — plain int math would be UB on overflow.
  [[nodiscard]] friend i32x8 operator+(i32x8 a, i32x8 b) noexcept {
    for (int i = 0; i < 8; ++i) {
      a.v[i] = static_cast<std::int32_t>(static_cast<std::uint32_t>(a.v[i]) +
                                         static_cast<std::uint32_t>(b.v[i]));
    }
    return a;
  }
  [[nodiscard]] friend i32x8 operator-(i32x8 a, i32x8 b) noexcept {
    for (int i = 0; i < 8; ++i) {
      a.v[i] = static_cast<std::int32_t>(static_cast<std::uint32_t>(a.v[i]) -
                                         static_cast<std::uint32_t>(b.v[i]));
    }
    return a;
  }
  /// Per-lane all-ones (-1) when a > b signed — the counting-compare mask
  /// (subtracting it increments a counter lane).
  [[nodiscard]] i32x8 gt_mask(i32x8 b) const noexcept {
    i32x8 r;
    for (int i = 0; i < 8; ++i) r.v[i] = v[i] > b.v[i] ? -1 : 0;
    return r;
  }
  /// Bit w set when lane w of a equals lane w of b.
  [[nodiscard]] int eq_mask(i32x8 b) const noexcept {
    int m = 0;
    for (int i = 0; i < 8; ++i) m |= static_cast<int>(v[i] == b.v[i]) << i;
    return m;
  }
};

}  // namespace sc

// ---------------------------------------------------------------------------
// AVX2 family: one ymm register per type.
// ---------------------------------------------------------------------------

#if STAGG_SIMD_LEVEL == 3

struct f64x4 {
  __m256d v;

  [[nodiscard]] static f64x4 load(const double* p) noexcept {
    return {_mm256_loadu_pd(p)};
  }
  [[nodiscard]] static f64x4 broadcast(double x) noexcept {
    return {_mm256_set1_pd(x)};
  }
  void store(double* p) const noexcept { _mm256_storeu_pd(p, v); }

  [[nodiscard]] friend f64x4 operator+(f64x4 a, f64x4 b) noexcept {
    return {_mm256_add_pd(a.v, b.v)};
  }
  [[nodiscard]] friend f64x4 operator-(f64x4 a, f64x4 b) noexcept {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  [[nodiscard]] friend f64x4 operator*(f64x4 a, f64x4 b) noexcept {
    return {_mm256_mul_pd(a.v, b.v)};
  }
  [[nodiscard]] friend f64x4 operator/(f64x4 a, f64x4 b) noexcept {
    return {_mm256_div_pd(a.v, b.v)};
  }
  [[nodiscard]] int ge_mask(f64x4 b) const noexcept {
    // _CMP_GE_OQ: ordered, quiet — false on NaN, exactly like scalar >=.
    return _mm256_movemask_pd(_mm256_cmp_pd(v, b.v, _CMP_GE_OQ));
  }
};

struct i32x4 {
  __m128i v;

  [[nodiscard]] static i32x4 load(const std::int32_t* p) noexcept {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  [[nodiscard]] static i32x4 broadcast(std::int32_t x) noexcept {
    return {_mm_set1_epi32(x)};
  }
  void store(std::int32_t* p) const noexcept {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }

  [[nodiscard]] friend i32x4 operator+(i32x4 a, i32x4 b) noexcept {
    return {_mm_add_epi32(a.v, b.v)};
  }
};

struct i32x8 {
  __m256i v;

  [[nodiscard]] static i32x8 load(const std::int32_t* p) noexcept {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  [[nodiscard]] static i32x8 broadcast(std::int32_t x) noexcept {
    return {_mm256_set1_epi32(x)};
  }
  void store(std::int32_t* p) const noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }

  [[nodiscard]] friend i32x8 operator+(i32x8 a, i32x8 b) noexcept {
    return {_mm256_add_epi32(a.v, b.v)};
  }
  [[nodiscard]] friend i32x8 operator-(i32x8 a, i32x8 b) noexcept {
    return {_mm256_sub_epi32(a.v, b.v)};
  }
  [[nodiscard]] i32x8 gt_mask(i32x8 b) const noexcept {
    return {_mm256_cmpgt_epi32(v, b.v)};
  }
  [[nodiscard]] int eq_mask(i32x8 b) const noexcept {
    return _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, b.v)));
  }
};

// ---------------------------------------------------------------------------
// SSE2 family: every fixed-width type is a pair of xmm halves with the
// same API; the per-lane operations are identical, only the register
// partitioning differs.
// ---------------------------------------------------------------------------

#elif STAGG_SIMD_LEVEL == 2

struct f64x4 {
  __m128d lo, hi;

  [[nodiscard]] static f64x4 load(const double* p) noexcept {
    return {_mm_loadu_pd(p), _mm_loadu_pd(p + 2)};
  }
  [[nodiscard]] static f64x4 broadcast(double x) noexcept {
    const __m128d b = _mm_set1_pd(x);
    return {b, b};
  }
  void store(double* p) const noexcept {
    _mm_storeu_pd(p, lo);
    _mm_storeu_pd(p + 2, hi);
  }

  [[nodiscard]] friend f64x4 operator+(f64x4 a, f64x4 b) noexcept {
    return {_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)};
  }
  [[nodiscard]] friend f64x4 operator-(f64x4 a, f64x4 b) noexcept {
    return {_mm_sub_pd(a.lo, b.lo), _mm_sub_pd(a.hi, b.hi)};
  }
  [[nodiscard]] friend f64x4 operator*(f64x4 a, f64x4 b) noexcept {
    return {_mm_mul_pd(a.lo, b.lo), _mm_mul_pd(a.hi, b.hi)};
  }
  [[nodiscard]] friend f64x4 operator/(f64x4 a, f64x4 b) noexcept {
    return {_mm_div_pd(a.lo, b.lo), _mm_div_pd(a.hi, b.hi)};
  }
  [[nodiscard]] int ge_mask(f64x4 b) const noexcept {
    return _mm_movemask_pd(_mm_cmpge_pd(lo, b.lo)) |
           (_mm_movemask_pd(_mm_cmpge_pd(hi, b.hi)) << 2);
  }
};

struct i32x4 {
  __m128i v;

  [[nodiscard]] static i32x4 load(const std::int32_t* p) noexcept {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  [[nodiscard]] static i32x4 broadcast(std::int32_t x) noexcept {
    return {_mm_set1_epi32(x)};
  }
  void store(std::int32_t* p) const noexcept {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }

  [[nodiscard]] friend i32x4 operator+(i32x4 a, i32x4 b) noexcept {
    return {_mm_add_epi32(a.v, b.v)};
  }
};

struct i32x8 {
  __m128i lo, hi;

  [[nodiscard]] static i32x8 load(const std::int32_t* p) noexcept {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 4))};
  }
  [[nodiscard]] static i32x8 broadcast(std::int32_t x) noexcept {
    const __m128i b = _mm_set1_epi32(x);
    return {b, b};
  }
  void store(std::int32_t* p) const noexcept {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), lo);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p + 4), hi);
  }

  [[nodiscard]] friend i32x8 operator+(i32x8 a, i32x8 b) noexcept {
    return {_mm_add_epi32(a.lo, b.lo), _mm_add_epi32(a.hi, b.hi)};
  }
  [[nodiscard]] friend i32x8 operator-(i32x8 a, i32x8 b) noexcept {
    return {_mm_sub_epi32(a.lo, b.lo), _mm_sub_epi32(a.hi, b.hi)};
  }
  [[nodiscard]] i32x8 gt_mask(i32x8 b) const noexcept {
    return {_mm_cmpgt_epi32(lo, b.lo), _mm_cmpgt_epi32(hi, b.hi)};
  }
  [[nodiscard]] int eq_mask(i32x8 b) const noexcept {
    return _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(lo, b.lo))) |
           (_mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(hi, b.hi)))
            << 4);
  }
};

// ---------------------------------------------------------------------------
// NEON family (AArch64): pairs of 128-bit q registers.
// ---------------------------------------------------------------------------

#elif STAGG_SIMD_LEVEL == 1

struct f64x4 {
  float64x2_t lo, hi;

  [[nodiscard]] static f64x4 load(const double* p) noexcept {
    return {vld1q_f64(p), vld1q_f64(p + 2)};
  }
  [[nodiscard]] static f64x4 broadcast(double x) noexcept {
    const float64x2_t b = vdupq_n_f64(x);
    return {b, b};
  }
  void store(double* p) const noexcept {
    vst1q_f64(p, lo);
    vst1q_f64(p + 2, hi);
  }

  [[nodiscard]] friend f64x4 operator+(f64x4 a, f64x4 b) noexcept {
    return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
  }
  [[nodiscard]] friend f64x4 operator-(f64x4 a, f64x4 b) noexcept {
    return {vsubq_f64(a.lo, b.lo), vsubq_f64(a.hi, b.hi)};
  }
  [[nodiscard]] friend f64x4 operator*(f64x4 a, f64x4 b) noexcept {
    return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
  }
  [[nodiscard]] friend f64x4 operator/(f64x4 a, f64x4 b) noexcept {
    return {vdivq_f64(a.lo, b.lo), vdivq_f64(a.hi, b.hi)};
  }
  [[nodiscard]] int ge_mask(f64x4 b) const noexcept {
    const uint64x2_t gl = vcgeq_f64(lo, b.lo);
    const uint64x2_t gh = vcgeq_f64(hi, b.hi);
    return static_cast<int>((vgetq_lane_u64(gl, 0) & 1) |
                            ((vgetq_lane_u64(gl, 1) & 1) << 1) |
                            ((vgetq_lane_u64(gh, 0) & 1) << 2) |
                            ((vgetq_lane_u64(gh, 1) & 1) << 3));
  }
};

struct i32x4 {
  int32x4_t v;

  [[nodiscard]] static i32x4 load(const std::int32_t* p) noexcept {
    return {vld1q_s32(p)};
  }
  [[nodiscard]] static i32x4 broadcast(std::int32_t x) noexcept {
    return {vdupq_n_s32(x)};
  }
  void store(std::int32_t* p) const noexcept { vst1q_s32(p, v); }

  [[nodiscard]] friend i32x4 operator+(i32x4 a, i32x4 b) noexcept {
    return {vaddq_s32(a.v, b.v)};
  }
};

struct i32x8 {
  int32x4_t lo, hi;

  [[nodiscard]] static i32x8 load(const std::int32_t* p) noexcept {
    return {vld1q_s32(p), vld1q_s32(p + 4)};
  }
  [[nodiscard]] static i32x8 broadcast(std::int32_t x) noexcept {
    const int32x4_t b = vdupq_n_s32(x);
    return {b, b};
  }
  void store(std::int32_t* p) const noexcept {
    vst1q_s32(p, lo);
    vst1q_s32(p + 4, hi);
  }

  [[nodiscard]] friend i32x8 operator+(i32x8 a, i32x8 b) noexcept {
    return {vaddq_s32(a.lo, b.lo), vaddq_s32(a.hi, b.hi)};
  }
  [[nodiscard]] friend i32x8 operator-(i32x8 a, i32x8 b) noexcept {
    return {vsubq_s32(a.lo, b.lo), vsubq_s32(a.hi, b.hi)};
  }
  [[nodiscard]] i32x8 gt_mask(i32x8 b) const noexcept {
    return {vreinterpretq_s32_u32(vcgtq_s32(lo, b.lo)),
            vreinterpretq_s32_u32(vcgtq_s32(hi, b.hi))};
  }
  [[nodiscard]] int eq_mask(i32x8 b) const noexcept {
    alignas(16) std::int32_t a8[8], b8[8];
    store(a8);
    b.store(b8);
    int m = 0;
    for (int i = 0; i < 8; ++i) m |= static_cast<int>(a8[i] == b8[i]) << i;
    return m;
  }
};

#else  // STAGG_SIMD_LEVEL == 0: the scalar family IS the active family.

using f64x4 = sc::f64x4;
using i32x4 = sc::i32x4;
using i32x8 = sc::i32x8;

#endif

}  // namespace stagg::simd
