// Randomized scalar-vs-SIMD equivalence of the kernel layer.
//
// Contract under test (common/simd.hpp): the scalar family simd::sc is
// the oracle, and every active wrapper op must be bit-identical to it on
// arbitrary bit patterns — including NaN/inf/denormal doubles and the
// int32 range limits — at misaligned loads.  On a scalar-forced
// build the active types alias simd::sc and the wrapper suites pass by
// construction, which is exactly the point: the same binary contract
// holds at every dispatch level.
//
// On top of the wrappers, the three vectorized consumers are pinned to
// their scalar twins at odd sizes/tails:
//   * DataCube::measures_column_into vs measures_column_reference_into,
//   * the DP fold with AggregationOptions::use_simd on vs off vs the
//     kReference kernel at every lane width 1..8,
//   * codec::dict_indices vs codec::ref::dict_indices, plus full
//     encode_columns round-trips at sizes straddling the vector width.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/aggregator.hpp"
#include "core/cube.hpp"
#include "trace/codec_kernels.hpp"
#include "trace/compression.hpp"
#include "workload/fixtures.hpp"

namespace stagg {
namespace {

/// Deterministic raw-bit stream; biased toward special values so NaN,
/// infinities, zeros and range limits show up in every run.
class BitFuzzer {
 public:
  explicit BitFuzzer(std::uint64_t seed) : mix_(seed) {}

  std::uint64_t u64() {
    const std::uint64_t r = mix_.next();
    switch (r & 15u) {
      case 0: return 0;
      case 1: return ~std::uint64_t{0};
      case 2: return std::uint64_t{1} << 63;  // int64 min / -0.0
      case 3: return 0x7FF8000000000000ull;   // quiet NaN
      case 4: return 0x7FF0000000000000ull;   // +inf
      case 5: return 1;                       // denormal / tiny int
      default: return mix_.next();
    }
  }
  double f64() {
    std::uint64_t bits = u64();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    return d;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u64()); }

 private:
  SplitMix64 mix_;
};

template <typename T>
bool bytes_equal(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Per-lane bitwise equality, except that any NaN matches any NaN: when
/// both operands of a multiply are NaNs, IEEE-754 leaves *which* payload
/// propagates unspecified, and the optimizer is free to commute the
/// scalar expression — so payload identity is not part of the contract.
/// Everything else (±0, infinities, denormals) still compares bitwise.
bool f64_lanes_equal(const double (&a)[4], const double (&b)[4]) {
  for (int i = 0; i < 4; ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) == 0) continue;
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    return false;
  }
  return true;
}

constexpr int kTrials = 500;

TEST(SimdWrappers, F64x4MatchesScalarTwin) {
  BitFuzzer fz(0xF64);
  for (int trial = 0; trial < kTrials; ++trial) {
    // Misaligned source: loads start anywhere inside an 11-double pad.
    double buf[11];
    for (double& d : buf) d = fz.f64();
    const std::size_t off_a = trial % 4;
    const std::size_t off_b = (trial / 4) % 4;
    const simd::f64x4 a = simd::f64x4::load(buf + off_a);
    const simd::f64x4 b = simd::f64x4::load(buf + off_b + 4);
    const simd::sc::f64x4 sa = simd::sc::f64x4::load(buf + off_a);
    const simd::sc::f64x4 sb = simd::sc::f64x4::load(buf + off_b + 4);

    double got[4];
    double want[4];
    (a + b).store(got);
    (sa + sb).store(want);
    EXPECT_TRUE(f64_lanes_equal(got, want)) << "+ trial " << trial;
    (a - b).store(got);
    (sa - sb).store(want);
    EXPECT_TRUE(f64_lanes_equal(got, want)) << "- trial " << trial;
    (a * b).store(got);
    (sa * sb).store(want);
    EXPECT_TRUE(f64_lanes_equal(got, want)) << "* trial " << trial;
    (a / b).store(got);
    (sa / sb).store(want);
    EXPECT_TRUE(f64_lanes_equal(got, want)) << "/ trial " << trial;
    EXPECT_EQ(a.ge_mask(b), sa.ge_mask(sb)) << "ge trial " << trial;

    const simd::f64x4 c = simd::f64x4::broadcast(buf[0]);
    const simd::sc::f64x4 sc_c = simd::sc::f64x4::broadcast(buf[0]);
    c.store(got);
    sc_c.store(want);
    EXPECT_TRUE(f64_lanes_equal(got, want)) << "broadcast trial " << trial;
  }
}

TEST(SimdWrappers, I32x4AndI32x8MatchScalarTwins) {
  BitFuzzer fz(0x132);
  for (int trial = 0; trial < kTrials; ++trial) {
    std::int32_t buf[19];
    for (std::int32_t& v : buf) v = fz.i32();
    const std::size_t off = trial % 3;

    std::int32_t got4[4];
    std::int32_t want4[4];
    (simd::i32x4::load(buf + off) + simd::i32x4::load(buf + off + 4))
        .store(got4);
    (simd::sc::i32x4::load(buf + off) + simd::sc::i32x4::load(buf + off + 4))
        .store(want4);
    EXPECT_TRUE(bytes_equal(got4, want4)) << "i32x4 + trial " << trial;

    const simd::i32x8 a = simd::i32x8::load(buf + off);
    const simd::i32x8 b = simd::i32x8::load(buf + off + 8);
    const simd::sc::i32x8 sa = simd::sc::i32x8::load(buf + off);
    const simd::sc::i32x8 sb = simd::sc::i32x8::load(buf + off + 8);
    std::int32_t got8[8];
    std::int32_t want8[8];
    (a + b).store(got8);
    (sa + sb).store(want8);
    EXPECT_TRUE(bytes_equal(got8, want8)) << "i32x8 + trial " << trial;
    (a - b).store(got8);
    (sa - sb).store(want8);
    EXPECT_TRUE(bytes_equal(got8, want8)) << "i32x8 - trial " << trial;
    a.gt_mask(b).store(got8);
    sa.gt_mask(sb).store(want8);
    EXPECT_TRUE(bytes_equal(got8, want8)) << "i32x8 gt trial " << trial;
    EXPECT_EQ(a.eq_mask(b), sa.eq_mask(sb)) << "i32x8 eq trial " << trial;
  }
}

TEST(SimdWrappers, AlignedVecIs64ByteAligned) {
  simd::AlignedVec<double> d(3);
  simd::AlignedVec<std::int32_t> i(5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(i.data()) % 64, 0u);
}

// --- Cube column kernel ----------------------------------------------------

TEST(SimdKernels, CubeColumnKernelMatchesReferenceTwin) {
  // |X| values straddling the f64x4 width: tails of 0..3 states.
  for (const std::int32_t states : {1, 3, 4, 5, 8, 17}) {
    const OwnedModel om = make_random_model({.levels = 2,
                                             .fanout = 3,
                                             .slices = 9,
                                             .states = states,
                                             .idle_fraction = 0.2,
                                             .seed = 1234u + states});
    const DataCube cube(om.model);
    const auto nodes = static_cast<NodeId>(om.hierarchy->node_count());
    std::vector<AreaMeasures> fast;
    std::vector<AreaMeasures> ref;
    for (NodeId node = 0; node < nodes; ++node) {
      for (SliceId j = 0; j < 9; ++j) {
        fast.assign(static_cast<std::size_t>(j) + 1, AreaMeasures{});
        ref.assign(static_cast<std::size_t>(j) + 1, AreaMeasures{});
        cube.measures_column_into(node, j, fast);
        cube.measures_column_reference_into(node, j, ref);
        for (SliceId i = 0; i <= j; ++i) {
          const auto k = static_cast<std::size_t>(i);
          EXPECT_EQ(fast[k].gain, ref[k].gain)
              << "|X|=" << states << " node " << node << " cell (" << i
              << ", " << j << ")";
          EXPECT_EQ(fast[k].loss, ref[k].loss)
              << "|X|=" << states << " node " << node << " cell (" << i
              << ", " << j << ")";
        }
      }
    }
  }
}

// --- DP fold ---------------------------------------------------------------

TEST(SimdKernels, DpFoldSimdOnOffAndReferenceAgreeAtEveryLaneWidth) {
  const OwnedModel om = make_random_model({.levels = 2,
                                           .fanout = 3,
                                           .slices = 11,
                                           .states = 5,
                                           .idle_fraction = 0.15,
                                           .seed = 4242});
  const std::vector<double> all_ps = {0.0, 0.1, 0.3, 0.45, 0.5,
                                      0.6, 0.75, 0.9};
  AggregationOptions ref_opt;
  ref_opt.kernel = DpKernel::kReference;
  SpatiotemporalAggregator ref_agg(om.model, ref_opt);
  const std::vector<AggregationResult> want = ref_agg.run_many(all_ps);

  for (std::size_t width = 1; width <= 8; ++width) {
    for (const bool use_simd : {true, false}) {
      AggregationOptions opt;
      opt.max_lanes = width;
      opt.use_simd = use_simd;
      SpatiotemporalAggregator agg(om.model, opt);
      const std::vector<AggregationResult> got = agg.run_many(all_ps);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].optimal_pic, want[k].optimal_pic)
            << "W=" << width << " simd=" << use_simd << " p=" << all_ps[k];
        EXPECT_EQ(got[k].partition.signature(), want[k].partition.signature())
            << "W=" << width << " simd=" << use_simd << " p=" << all_ps[k];
        EXPECT_EQ(got[k].measures.gain, want[k].measures.gain);
        EXPECT_EQ(got[k].measures.loss, want[k].measures.loss);
      }
    }
  }
}

// --- Codec kernels ---------------------------------------------------------

TEST(SimdKernels, DictIndicesMatchLowerBoundAcrossDictSizes) {
  BitFuzzer fz(0xD1C7);
  // Both sides of the counting-compare cutoff, including exactly at it.
  for (const std::size_t dict_size :
       {1u, 2u, 7u, 63u, 64u, 65u, 200u}) {
    std::vector<std::int32_t> dict(dict_size);
    std::int32_t v = -500;
    for (std::size_t d = 0; d < dict_size; ++d) {
      v += 1 + static_cast<std::int32_t>(fz.u64() % 17u);
      dict[d] = v;
    }
    const std::size_t n = 203;  // odd: 8-wide blocks + a 3-element tail
    std::vector<std::int32_t> vals(n);
    for (std::size_t i = 0; i < n; ++i) {
      vals[i] = dict[fz.u64() % dict_size];
    }
    std::vector<std::int32_t> got(n);
    std::vector<std::int32_t> want(n);
    codec::dict_indices(vals.data(), n, dict.data(), dict_size, got.data());
    codec::ref::dict_indices(vals.data(), n, dict.data(), dict_size,
                             want.data());
    EXPECT_EQ(got, want) << "dict_size=" << dict_size;
  }
}

TEST(SimdKernels, EncodeColumnsRoundTripsAtVectorBoundarySizes) {
  // Sizes straddling the 8-wide dictionary-index kernel — tails, exact
  // blocks, and n = 1.
  Rng rng(99);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u,
                              17u, 33u, 100u}) {
    std::vector<TimeNs> begins(n);
    std::vector<TimeNs> ends(n);
    std::vector<StateId> states(n);
    TimeNs t = 1000;
    for (std::size_t i = 0; i < n; ++i) {
      t += rng.uniform_int(0, 500);
      begins[i] = t;
      ends[i] = t + rng.uniform_int(1, 900);
      states[i] = static_cast<StateId>(rng.uniform_int(0, 40));
    }
    const EncodedColumns enc = encode_columns(begins, ends, states);
    ColumnsDecoder dec(enc.coding());
    StateInterval s{};
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(dec.next(s)) << "n=" << n << " i=" << i;
      EXPECT_EQ(s.begin, begins[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(s.end, ends[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(s.state, states[i]) << "n=" << n << " i=" << i;
    }
    EXPECT_FALSE(dec.next(s)) << "n=" << n;
  }
}

}  // namespace
}  // namespace stagg
