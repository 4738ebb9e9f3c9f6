// Chunk-compression suite: per-codec property tests over the columnar
// codecs (delta family, gap-from-prev-end, dictionary RLE/bitpack), the
// cheapest-codec selection, and the streaming ColumnsDecoder.
//
// The load-bearing properties:
//   * Round trip — encode_columns followed by a streaming decode yields
//     the exact input interval sequence, for random sorted columns and
//     for every adversarial shape the issue names (constant columns,
//     max-delta jumps at the int64 range limits, hundreds of states,
//     single-interval chunks).
//   * Golden bytes — encode_columns output (codec tags, section sizes, an
//     FNV-1a hash of the bytes) is pinned for seeded columns, so a
//     changed codec choice or stream shows even when it still decodes.
//   * Never larger — the raw fallback bounds encoded_bytes() by the raw
//     column bytes, whatever the input.
//   * Loud rejection — malformed encoded streams (truncation, trailing
//     bytes, dictionary/run inconsistencies, an end column claiming the
//     begin-only gap codec) throw TraceFormatError instead of decoding
//     garbage.
#include "trace/compression.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "trace/trace_store.hpp"

namespace stagg {
namespace {

constexpr std::size_t kRawBytesPerInterval = 8 + 8 + 4;

std::vector<StateInterval> decode_all(const ColumnsCoding& coding) {
  ColumnsDecoder decoder(coding);
  std::vector<StateInterval> out;
  StateInterval s{};
  while (decoder.next(s)) out.push_back(s);
  return out;
}

/// Encodes the (sorted) intervals, asserts the never-larger bound and
/// that a streaming decode reproduces them bit-exactly, and returns the
/// encoding for codec-choice assertions.
EncodedColumns round_trip(const std::vector<StateInterval>& intervals,
                          const std::string& context) {
  std::vector<TimeNs> begins;
  std::vector<TimeNs> ends;
  std::vector<StateId> states;
  for (const StateInterval& s : intervals) {
    begins.push_back(s.begin);
    ends.push_back(s.end);
    states.push_back(s.state);
  }
  EncodedColumns enc = encode_columns(begins, ends, states);
  EXPECT_EQ(enc.count, intervals.size()) << context;
  EXPECT_LE(enc.encoded_bytes(), intervals.size() * kRawBytesPerInterval)
      << context << ": raw fallback must bound the encoded size";
  EXPECT_EQ(enc.first, intervals.front()) << context;
  EXPECT_EQ(enc.last, intervals.back()) << context;
  TimeNs min_end = ends[0];
  TimeNs max_end = ends[0];
  for (const TimeNs e : ends) {
    min_end = std::min(min_end, e);
    max_end = std::max(max_end, e);
  }
  EXPECT_EQ(enc.min_end, min_end) << context;
  EXPECT_EQ(enc.max_end, max_end) << context;

  const std::vector<StateInterval> got = decode_all(enc.coding());
  EXPECT_EQ(got.size(), intervals.size()) << context;
  if (got.size() != intervals.size()) return enc;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], intervals[i])
        << context << " interval " << i << " (begin "
        << time_codec_name(enc.begin_codec) << ", end "
        << time_codec_name(enc.end_codec) << ", state "
        << state_codec_name(enc.state_codec) << ")";
  }
  return enc;
}

std::vector<StateInterval> make_sorted_intervals(std::uint64_t seed,
                                                 std::size_t n,
                                                 std::int32_t state_count,
                                                 TimeNs span) {
  SplitMix64 mix(seed);
  std::vector<StateInterval> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto b = static_cast<TimeNs>(mix.next() % static_cast<std::uint64_t>(span));
    TimeNs d = static_cast<TimeNs>(mix.next() % 50000);
    if (mix.next() % 8 == 0) d = 0;
    out.push_back({b, b + d,
                   static_cast<StateId>(mix.next() %
                                        static_cast<std::uint64_t>(state_count))});
  }
  std::sort(out.begin(), out.end(), interval_key_less);
  return out;
}

// ---------------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------------

TEST(Compression, ZigzagRoundTripsIncludingRangeLimits) {
  const std::int64_t values[] = {0,
                                 1,
                                 -1,
                                 63,
                                 -64,
                                 1234567891011,
                                 -1234567891011,
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : values) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v) << v;
  }
  // Small magnitudes must map to small codes (the point of zigzag).
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
}

TEST(Compression, VarintSizeMatchesEmittedBytes) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 35) - 1,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    put_varint(buf, v);
    EXPECT_EQ(buf.size(), varint_size(v)) << v;
    EXPECT_LE(buf.size(), 10u) << v;
  }
}

// ---------------------------------------------------------------------------
// Round-trip properties.
// ---------------------------------------------------------------------------

TEST(Compression, RandomSortedColumnsRoundTrip) {
  for (const std::uint64_t seed : {0x01ull, 0xBEEFull, 0x5EEDull}) {
    for (const std::size_t n : {1, 2, 7, 100, 1000}) {
      round_trip(make_sorted_intervals(seed, n, 3, 1000000),
                 "seed " + std::to_string(seed) + " n " + std::to_string(n));
    }
  }
}

TEST(Compression, ConstantColumnsCollapseToConstCodecs) {
  // 500 identical intervals: both time columns are constant streams and
  // the dictionary is singular — the whole chunk must encode to a
  // handful of bytes.
  const std::vector<StateInterval> intervals(500,
                                             StateInterval{1000, 2500, 7});
  const EncodedColumns enc = round_trip(intervals, "constant columns");
  EXPECT_EQ(enc.begin_codec, TimeCodec::kConst);
  EXPECT_EQ(enc.end_codec, TimeCodec::kConst);
  EXPECT_NE(enc.state_codec, StateCodec::kRaw);
  EXPECT_LT(enc.encoded_bytes(), 32u)
      << "500 identical intervals must collapse to a few varints";
}

TEST(Compression, MaxDeltaJumpsAtInt64RangeLimitsRoundTrip) {
  // Sorted begins touching both int64 range limits: consecutive deltas
  // overflow int64 but the wrap-around uint64 arithmetic must round-trip
  // them bit-exactly through every delta-family codec candidate.
  constexpr TimeNs kMin = std::numeric_limits<TimeNs>::min();
  constexpr TimeNs kMax = std::numeric_limits<TimeNs>::max();
  const std::vector<StateInterval> intervals = {
      {kMin, kMin, 0},         {kMin, kMax, 1},          {kMin + 1, kMin + 1, 0},
      {-1, kMax - 1, 2},       {0, 0, 0},                {0, kMax, 1},
      {kMax - 5, kMax, 2},     {kMax, kMax, 0},
  };
  round_trip(intervals, "int64 range limits");

  // And a two-interval chunk whose single delta is the full uint64 span.
  round_trip({{kMin, kMin, 0}, {kMax, kMax, 0}}, "full-span jump");
}

TEST(Compression, HundredsOfStatesRoundTrip) {
  // |X| in the hundreds: the dictionary codecs must stay correct when
  // the dictionary is large (bit width 9) and still never beat the raw
  // bound; timing stays compressible.
  const std::vector<StateInterval> random =
      make_sorted_intervals(0xD1C7, 2000, 400, 500000);
  round_trip(random, "400 states, random");

  // Dictionary == one entry per interval (worst dictionary density).
  std::vector<StateInterval> distinct;
  for (std::int32_t i = 0; i < 300; ++i) {
    distinct.push_back({i * 10, i * 10 + 5, i});
  }
  round_trip(distinct, "300 distinct states");
}

TEST(Compression, SingleIntervalChunkRoundTrips) {
  const EncodedColumns enc =
      round_trip({{123456789, 987654321, 5}}, "single interval");
  EXPECT_LE(enc.encoded_bytes(), 20u);
}

TEST(Compression, GaplessTracePicksGapCodecAndCompressesHard) {
  // Contiguous per-resource intervals (begin[i] == end[i-1]) with a
  // constant duration and two alternating states: the shape the gap
  // codec exists for — about one byte per begin, a constant end column,
  // a bit-packed state column.
  std::vector<StateInterval> intervals;
  TimeNs t = 1000000;
  for (int i = 0; i < 512; ++i) {
    intervals.push_back({t, t + 250, i % 2});
    t += 250;
  }
  const EncodedColumns enc = round_trip(intervals, "gapless trace");
  EXPECT_EQ(enc.begin_codec, TimeCodec::kGapFromPrevEnd);
  EXPECT_EQ(enc.end_codec, TimeCodec::kConst);
  // ~1 byte per begin after the varint first value.
  EXPECT_LE(enc.begin_bytes, intervals.size() + 10);
  EXPECT_GE(intervals.size() * kRawBytesPerInterval,
            5 * enc.encoded_bytes())
      << "gapless traces must compress at least 5x";
}

// ---------------------------------------------------------------------------
// Golden encoding.
// ---------------------------------------------------------------------------

/// FNV-1a 64 over a byte stream.
std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

enum class GoldenShape { kRandom, kWideDict, kConstant, kGapless, kLimits };

const char* golden_shape_name(GoldenShape shape) {
  switch (shape) {
    case GoldenShape::kRandom: return "random";
    case GoldenShape::kWideDict: return "wide-dict";
    case GoldenShape::kConstant: return "constant";
    case GoldenShape::kGapless: return "gapless";
    case GoldenShape::kLimits: return "limits";
  }
  return "?";
}

/// Seeded sorted columns of one golden shape.  Only SplitMix64 and the
/// total interval key order are used, so the input is the same on every
/// platform and standard library.
std::vector<StateInterval> golden_intervals(GoldenShape shape, std::size_t n) {
  constexpr TimeNs kMin = std::numeric_limits<TimeNs>::min();
  constexpr TimeNs kMax = std::numeric_limits<TimeNs>::max();
  const std::uint64_t seed = 0x601DE7ull * 31 + n;
  switch (shape) {
    case GoldenShape::kRandom:
      return make_sorted_intervals(seed, n, 5, 1000000);
    case GoldenShape::kWideDict:
      // More states than the counting-compare dictionary limit.
      return make_sorted_intervals(seed, n, 200, 1000000);
    case GoldenShape::kConstant:
      return std::vector<StateInterval>(n, StateInterval{4096, 4352, 9});
    case GoldenShape::kGapless: {
      SplitMix64 mix(seed);
      std::vector<StateInterval> out;
      TimeNs t = 7000000;
      for (std::size_t i = 0; i < n; ++i) {
        const auto d = static_cast<TimeNs>(1 + mix.next() % 900);
        out.push_back({t, t + d, static_cast<StateId>(i % 3)});
        t += d;
      }
      return out;
    }
    case GoldenShape::kLimits: {
      SplitMix64 mix(seed);
      constexpr StateId kTop = std::numeric_limits<StateId>::max();
      constexpr StateId kStates[] = {0, 1, kTop - 1, kTop};
      std::vector<StateInterval> out;
      for (std::size_t i = 0; i < n; ++i) {
        const auto b = static_cast<TimeNs>(mix.next());
        const std::uint64_t span =
            static_cast<std::uint64_t>(kMax) - static_cast<std::uint64_t>(b);
        const std::uint64_t off = span == ~std::uint64_t{0}
                                      ? mix.next()
                                      : mix.next() % (span + 1);
        out.push_back({b,
                       static_cast<TimeNs>(static_cast<std::uint64_t>(b) + off),
                       kStates[mix.next() % 4]});
      }
      out.front() = {kMin, kMin, kStates[0]};
      if (n > 1) out.back() = {kMax, kMax, kStates[3]};
      std::sort(out.begin(), out.end(), interval_key_less);
      return out;
    }
  }
  return {};
}

struct GoldenEncoding {
  GoldenShape shape;
  std::size_t n;
  TimeCodec begin_codec;
  TimeCodec end_codec;
  StateCodec state_codec;
  std::uint64_t begin_bytes;
  std::uint64_t end_bytes;
  std::uint64_t state_bytes;
  std::uint64_t fnv;
};

TEST(Compression, EncodeColumnsMatchesGoldenBytes) {
  // Round trips cannot see a changed codec choice or a re-ordered stream
  // that still decodes; these pin encode_columns output byte for byte.
  using enum GoldenShape;
  using TC = TimeCodec;
  using SC = StateCodec;
  const GoldenEncoding golden[] = {
      {kRandom, 1, TC::kConst, TC::kConst, SC::kDictBitpack,
       3, 3, 2, 0x93eecbd3f81028d6ull},
      {kRandom, 3, TC::kDelta, TC::kDelta, SC::kDictBitpack,
       9, 9, 4, 0x1affd2569de5eb8cull},
      {kRandom, 4, TC::kDelta, TC::kDeltaOfDelta, SC::kDictBitpack,
       12, 10, 5, 0x6420dae10ce58405ull},
      {kRandom, 5, TC::kDelta, TC::kDelta, SC::kDictBitpack,
       15, 15, 6, 0x270df31bb8f36b1eull},
      {kRandom, 127, TC::kDeltaOfDelta, TC::kDelta, SC::kDictBitpack,
       295, 342, 54, 0xe8aa24173482aa77ull},
      {kRandom, 1000, TC::kDelta, TC::kDelta, SC::kDictBitpack,
       1931, 2682, 381, 0x5cb132adc1642ee5ull},
      {kWideDict, 1, TC::kConst, TC::kConst, SC::kDictBitpack,
       3, 3, 3, 0x6da0252e825a7156ull},
      {kWideDict, 3, TC::kDelta, TC::kDelta, SC::kDictBitpack,
       9, 9, 7, 0xff086cfdefbd7a15ull},
      {kWideDict, 4, TC::kDelta, TC::kDeltaOfDelta, SC::kDictBitpack,
       12, 10, 8, 0x1a693fea4945754dull},
      {kWideDict, 5, TC::kDelta, TC::kDelta, SC::kDictBitpack,
       15, 15, 11, 0x73fcab121ee6dc83ull},
      {kWideDict, 127, TC::kDeltaOfDelta, TC::kDelta, SC::kDictBitpack,
       295, 342, 283, 0x39c4571ffcce98e7ull},
      {kWideDict, 1000, TC::kDelta, TC::kDelta, SC::kDictBitpack,
       1931, 2682, 1336, 0x31ff4c390e11f8b0ull},
      {kConstant, 1, TC::kConst, TC::kConst, SC::kDictBitpack,
       2, 2, 2, 0xd75ee7a6a024b6deull},
      {kConstant, 3, TC::kConst, TC::kConst, SC::kDictBitpack,
       2, 2, 2, 0xd75ee7a6a024b6deull},
      {kConstant, 4, TC::kConst, TC::kConst, SC::kDictBitpack,
       2, 2, 2, 0xd75ee7a6a024b6deull},
      {kConstant, 5, TC::kConst, TC::kConst, SC::kDictBitpack,
       2, 2, 2, 0xd75ee7a6a024b6deull},
      {kConstant, 127, TC::kConst, TC::kConst, SC::kDictBitpack,
       2, 2, 2, 0xd75ee7a6a024b6deull},
      {kConstant, 1000, TC::kConst, TC::kConst, SC::kDictBitpack,
       2, 2, 2, 0xd75ee7a6a024b6deull},
      {kGapless, 1, TC::kConst, TC::kConst, SC::kDictBitpack,
       4, 2, 2, 0x2fd46dde81d7b043ull},
      {kGapless, 3, TC::kGapFromPrevEnd, TC::kDelta, SC::kDictBitpack,
       6, 5, 5, 0x290eff7cc01fc68eull},
      {kGapless, 4, TC::kGapFromPrevEnd, TC::kDelta, SC::kDictBitpack,
       7, 8, 5, 0xd096d3b94de44dfcull},
      {kGapless, 5, TC::kGapFromPrevEnd, TC::kDelta, SC::kDictBitpack,
       8, 10, 6, 0xc41af1f0f074682dull},
      {kGapless, 127, TC::kGapFromPrevEnd, TC::kDelta, SC::kDictBitpack,
       130, 241, 36, 0xd4e4d716e2c9ab30ull},
      {kGapless, 1000, TC::kGapFromPrevEnd, TC::kDelta, SC::kDictBitpack,
       1003, 1862, 254, 0x61b69ac807c28d85ull},
      {kLimits, 1, TC::kRaw, TC::kConst, SC::kDictBitpack,
       8, 1, 2, 0xcb2c62b0e8b7e0eeull},
      {kLimits, 3, TC::kRaw, TC::kDelta, SC::kRaw,
       24, 19, 12, 0xf47c55c1199cbe97ull},
      {kLimits, 4, TC::kRaw, TC::kDelta, SC::kDictBitpack,
       32, 29, 13, 0x6b7117d164969c21ull},
      {kLimits, 5, TC::kRaw, TC::kDeltaOfDelta, SC::kDictBitpack,
       40, 38, 10, 0xb53f379364153f5dull},
      {kLimits, 127, TC::kRaw, TC::kRaw, SC::kDictBitpack,
       1016, 1016, 45, 0x2ebda9ead651e30cull},
      {kLimits, 1000, TC::kRaw, TC::kRaw, SC::kDictBitpack,
       8000, 8000, 263, 0x412f7ae25110abbaull},
  };
  for (const GoldenEncoding& g : golden) {
    const std::string context = std::string(golden_shape_name(g.shape)) +
                                " n " + std::to_string(g.n);
    const EncodedColumns enc =
        round_trip(golden_intervals(g.shape, g.n), context);
    EXPECT_EQ(enc.begin_codec, g.begin_codec) << context;
    EXPECT_EQ(enc.end_codec, g.end_codec) << context;
    EXPECT_EQ(enc.state_codec, g.state_codec) << context;
    EXPECT_EQ(enc.begin_bytes, g.begin_bytes) << context;
    EXPECT_EQ(enc.end_bytes, g.end_bytes) << context;
    EXPECT_EQ(enc.state_bytes, g.state_bytes) << context;
    EXPECT_EQ(fnv1a64(enc.bytes), g.fnv) << context;
  }
}

TEST(Compression, EncodeRejectsEmptyOrMismatchedColumns) {
  const std::vector<TimeNs> times = {1, 2};
  const std::vector<StateId> states = {0, 0};
  const std::vector<StateId> one_state = {0};
  EXPECT_THROW((void)encode_columns({}, {}, {}), InvalidArgument);
  EXPECT_THROW((void)encode_columns(times, times, one_state), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Malformed-stream rejection.
// ---------------------------------------------------------------------------

TEST(Compression, DecoderRejectsGapCodecOnEndColumn) {
  // The gap codec needs the previous *end* to decode a begin; an end
  // column claiming it is self-referential and must be rejected up
  // front (the v2 record reader relies on this).
  ColumnsCoding coding;
  coding.count = 1;
  coding.end_codec = TimeCodec::kGapFromPrevEnd;
  EXPECT_THROW((void)ColumnsDecoder(coding), TraceFormatError);
}

TEST(Compression, DecoderRejectsTruncatedAndTrailingSections) {
  const std::vector<StateInterval> intervals =
      make_sorted_intervals(0x7A, 200, 3, 100000);
  const EncodedColumns enc = round_trip(intervals, "baseline");
  ASSERT_NE(enc.begin_codec, TimeCodec::kRaw);

  // Truncated begin section: the decode loop must throw, not read past.
  {
    ColumnsCoding coding = enc.coding();
    coding.begin_section =
        coding.begin_section.first(coding.begin_section.size() - 1);
    EXPECT_THROW((void)decode_all(coding), TraceFormatError);
  }
  // Trailing garbage after the last state run: the post-decode drain
  // check must trip even though every interval decoded fine.
  {
    std::vector<std::uint8_t> padded(enc.coding().state_section.begin(),
                                     enc.coding().state_section.end());
    padded.push_back(0x00);
    ColumnsCoding coding = enc.coding();
    coding.state_section = padded;
    EXPECT_THROW((void)decode_all(coding), TraceFormatError);
  }
}

TEST(Compression, DecoderRejectsDictionaryAndRunInconsistencies) {
  // Handcrafted two-interval chunk: constant time columns (one varint
  // zero each) and a tampered dict-RLE state section.
  const std::vector<std::uint8_t> zero = {0x00};
  const auto make_coding = [&](const std::vector<std::uint8_t>& states) {
    ColumnsCoding c;
    c.count = 2;
    c.begin_codec = TimeCodec::kConst;
    c.end_codec = TimeCodec::kConst;
    c.state_codec = StateCodec::kDictRle;
    c.begin_section = zero;
    c.end_section = zero;
    c.state_section = states;
    return c;
  };
  // dict {7}; run references entry 5 of 1.
  EXPECT_THROW((void)decode_all(make_coding({0x01, 0x0E, 0x05, 0x02})),
               TraceFormatError);
  // dict {7}; run of length 3 in a 2-interval chunk.
  EXPECT_THROW((void)decode_all(make_coding({0x01, 0x0E, 0x00, 0x03})),
               TraceFormatError);
  // Empty dictionary.
  EXPECT_THROW((void)decode_all(make_coding({0x00, 0x00, 0x02})),
               TraceFormatError);
  // Overlong varint dictionary size (11 continuation bytes).
  EXPECT_THROW((void)decode_all(make_coding({0x80, 0x80, 0x80, 0x80, 0x80,
                                             0x80, 0x80, 0x80, 0x80, 0x7F})),
               TraceFormatError);
  // The untampered section decodes: dict {7}, one run of length 2.
  const std::vector<StateInterval> ok =
      decode_all(make_coding({0x01, 0x0E, 0x00, 0x02}));
  ASSERT_EQ(ok.size(), 2u);
  EXPECT_EQ(ok[0], (StateInterval{0, 0, 7}));
  EXPECT_EQ(ok[1], (StateInterval{0, 0, 7}));
}

TEST(Compression, DecoderScratchIsSmallAndCountsTheDictionary) {
  const std::vector<StateInterval> intervals =
      make_sorted_intervals(0x9C, 400, 200, 100000);
  const EncodedColumns enc = round_trip(intervals, "scratch baseline");
  ColumnsDecoder decoder(enc.coding());
  // The per-run cursor buffer: fixed object state plus the dictionary —
  // far below the decoded column bytes.
  EXPECT_GE(decoder.scratch_bytes(), sizeof(ColumnsDecoder));
  EXPECT_LT(decoder.scratch_bytes(),
            intervals.size() * kRawBytesPerInterval / 4);
}

}  // namespace
}  // namespace stagg
