// Pre-pass kernels of the columnar codec (compression.cpp).
//
// The encoder's hot loops are pure integer streams: first-order
// differences of sorted time columns, the zigzag sign fold, dictionary
// index resolution, fence min/max scans.  Only dictionary index
// resolution goes through the fixed-width wrappers of common/simd.hpp: it
// ran 1.6-2.8x faster than its scalar twin (codec::ref below) in
// bench_simd on an AVX2 host (gcc 12, Release).  The other loops stay
// scalar because 4 x int64 vector versions of them ran at only 0.36-1.05x
// of these loops on the same host.  Integer arithmetic has no
// rounding, so the vector kernel is bit-identical to its twin;
// tests/test_simd.cpp pins that at odd sizes and misaligned tails, and
// tests/test_compression.cpp pins the encoded bytes.
//
// What is deliberately NOT here: the FNV-1a block checksum
// (binary_io.cpp).  Its byte-serial multiply-xor chain is the on-disk
// contract — every byte's hash depends on the previous byte's — so it
// cannot be reordered across lanes without changing stored checksums.
// It stays scalar by design.
//
// Raw intrinsics are confined to common/simd.hpp (stagg_lint enforces
// this); dict_indices is written against the portable wrappers and
// compiles — and runs the tests — in scalar-forced builds too.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/simd.hpp"

namespace stagg::codec {

/// out[i] = a[i] - b[i] in wrap-around uint64 (duration and gap streams).
inline void sub_columns(const std::int64_t* a, const std::int64_t* b,
                        std::size_t n, std::uint64_t* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint64_t>(a[i]) - static_cast<std::uint64_t>(b[i]);
  }
}

/// First-order difference of a (possibly unsorted) int64 column:
/// out[0] = v[0]; out[i] = v[i] - v[i-1].
inline void delta_column(const std::int64_t* v, std::size_t n,
                         std::uint64_t* out) noexcept {
  if (n == 0) return;
  out[0] = static_cast<std::uint64_t>(v[0]);
  for (std::size_t i = 1; i < n; ++i) {
    out[i] =
        static_cast<std::uint64_t>(v[i]) - static_cast<std::uint64_t>(v[i - 1]);
  }
}

/// delta_column over an already-materialized uint64 stream (the
/// second-order pass of delta-of-delta).
inline void delta_u64(const std::uint64_t* v, std::size_t n,
                      std::uint64_t* out) noexcept {
  if (n == 0) return;
  out[0] = v[0];
  for (std::size_t i = 1; i < n; ++i) out[i] = v[i] - v[i - 1];
}

/// In-place zigzag sign fold: v <- (v << 1) ^ (v >>arith 63).
inline void zigzag_u64(std::uint64_t* v, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = (v[i] << 1) ^
           static_cast<std::uint64_t>(static_cast<std::int64_t>(v[i]) >> 63);
  }
}

/// True when every element equals the first (kConst candidate screen).
inline bool all_equal_u64(const std::uint64_t* v, std::size_t n) noexcept {
  for (std::size_t i = 1; i < n; ++i) {
    if (v[i] != v[0]) return false;
  }
  return true;
}

/// Signed min and max of an int64 column (chunk fences).
inline void minmax_i64(const std::int64_t* v, std::size_t n,
                       std::int64_t& lo, std::int64_t& hi) noexcept {
  if (n == 0) return;
  lo = hi = v[0];
  for (std::size_t i = 1; i < n; ++i) {
    lo = std::min(lo, v[i]);
    hi = std::max(hi, v[i]);
  }
}

// --- Scalar reference twin of the vector kernel ----------------------------
// Structurally independent (lower_bound per value); the equivalence tests
// compare dict_indices below against it.

namespace ref {

inline void dict_indices(const std::int32_t* vals, std::size_t n,
                         const std::int32_t* dict, std::size_t dict_size,
                         std::int32_t* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::int32_t>(
        std::lower_bound(dict, dict + dict_size, vals[i]) - dict);
  }
}

}  // namespace ref

// --- Vectorized kernel -----------------------------------------------------

/// Largest dictionary the counting-compare index kernel handles; beyond
/// it a per-value binary search is cheaper than m compares per value.
inline constexpr std::size_t kCountingDictMax = 64;

/// Resolves the dictionary index of every value: dict is sorted,
/// duplicate-free, and contains every value, so the index is the count
/// of dictionary entries strictly below the value.  Small dictionaries
/// (the common case — state palettes) use the branch-free counting
/// compare: 8 values at a time accumulate -gt_mask over the dictionary.
inline void dict_indices(const std::int32_t* vals, std::size_t n,
                         const std::int32_t* dict, std::size_t dict_size,
                         std::int32_t* out) noexcept {
  if (dict_size <= kCountingDictMax) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const simd::i32x8 x = simd::i32x8::load(vals + i);
      simd::i32x8 idx = simd::i32x8::broadcast(0);
      for (std::size_t d = 0; d < dict_size; ++d) {
        idx = idx - x.gt_mask(simd::i32x8::broadcast(dict[d]));
      }
      idx.store(out + i);
    }
    for (; i < n; ++i) {
      std::int32_t idx = 0;
      for (std::size_t d = 0; d < dict_size; ++d) {
        idx += static_cast<std::int32_t>(vals[i] > dict[d]);
      }
      out[i] = idx;
    }
    return;
  }
  ref::dict_indices(vals, n, dict, dict_size, out);
}

}  // namespace stagg::codec
