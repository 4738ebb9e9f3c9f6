// Stream-decode suite: the resumable record decoders behind the readers
// and the pipeline's parse workers.  Feeding a stream in chunks of ANY
// size — including one byte at a time, splitting lines and binary records
// mid-way — must produce exactly the records, stats and errors of a
// whole-buffer decode, and shard splitting must cover the text exactly
// once on line boundaries.
#include "trace/stream_decode.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace stagg {
namespace {

struct Collected {
  std::vector<std::string> resources;
  std::vector<std::string> states;
  std::vector<TimeNs> begins;
  std::vector<TimeNs> ends;

  bool operator==(const Collected&) const = default;
};

Collected decode_chunked(TextTraceFormat format, const std::string& text,
                         std::size_t chunk,
                         TextDecodeStats* stats = nullptr) {
  Collected got;
  TextTraceDecoder decoder(format, "<t>");
  const DecodedTextSink sink = [&got](const DecodedTextRecord& rec) {
    got.resources.emplace_back(rec.resource);
    got.states.emplace_back(rec.state);
    got.begins.push_back(rec.begin);
    got.ends.push_back(rec.end);
  };
  for (std::size_t i = 0; i < text.size(); i += chunk) {
    decoder.feed(std::string_view(text).substr(i, chunk), sink);
  }
  decoder.finish(sink);
  if (stats != nullptr) *stats = decoder.stats();
  return got;
}

const std::string kCsvText =
    "# stagg CSV state trace\n"
    "# window,0,9000\n"
    "STATE,node0,compute,0,1500\n"
    "STATE,node1,send,100,400\n"
    "\n"
    "STATE,node0,wait,1500,9000\n";  // no trailing newline handled below

TEST(TextTraceDecoder, EveryChunkSizeMatchesWholeBufferCsv) {
  TextDecodeStats whole_stats;
  const Collected whole =
      decode_chunked(TextTraceFormat::kCsv, kCsvText, kCsvText.size(),
                     &whole_stats);
  ASSERT_EQ(whole.resources.size(), 3u);
  EXPECT_EQ(whole_stats.records, 3u);
  EXPECT_EQ(whole_stats.comment_lines, 2u);
  for (std::size_t chunk = 1; chunk <= kCsvText.size(); ++chunk) {
    TextDecodeStats stats;
    const Collected got =
        decode_chunked(TextTraceFormat::kCsv, kCsvText, chunk, &stats);
    EXPECT_EQ(got, whole) << "chunk size " << chunk;
    EXPECT_EQ(stats.records, whole_stats.records) << "chunk size " << chunk;
    EXPECT_EQ(stats.comment_lines, whole_stats.comment_lines);
  }
}

TEST(TextTraceDecoder, UnterminatedLastLineNeedsFinish) {
  const std::string text = "STATE,n,s,0,5";  // no trailing newline
  Collected got;
  TextTraceDecoder decoder(TextTraceFormat::kCsv, "<t>");
  const DecodedTextSink sink = [&got](const DecodedTextRecord& rec) {
    got.resources.emplace_back(rec.resource);
  };
  decoder.feed(text, sink);
  EXPECT_TRUE(got.resources.empty()) << "partial line must wait for finish";
  decoder.finish(sink);
  ASSERT_EQ(got.resources.size(), 1u);
  EXPECT_EQ(got.resources[0], "n");
}

TEST(TextTraceDecoder, WindowCommentSurvivesChunkSplit) {
  for (std::size_t chunk = 1; chunk <= 8; ++chunk) {
    TextTraceDecoder decoder(TextTraceFormat::kCsv, "<t>");
    const DecodedTextSink sink = [](const DecodedTextRecord&) {};
    const std::string text = "# window,-250,7750\n";
    for (std::size_t i = 0; i < text.size(); i += chunk) {
      decoder.feed(std::string_view(text).substr(i, chunk), sink);
    }
    decoder.finish(sink);
    ASSERT_TRUE(decoder.has_window()) << "chunk size " << chunk;
    EXPECT_EQ(decoder.window_begin(), -250);
    EXPECT_EQ(decoder.window_end(), 7750);
  }
}

TEST(TextTraceDecoder, ErrorLineNumbersCountAcrossChunkBoundaries) {
  // The bad record sits on line 3; split the text so the line itself
  // straddles a feed boundary — the error must still name line 3.
  const std::string text =
      "STATE,n,s,0,5\n"
      "STATE,n,s,5,9\n"
      "STATE,n,s,9\n";  // 4 fields: malformed
  for (std::size_t chunk = 1; chunk <= text.size(); ++chunk) {
    TextTraceDecoder decoder(TextTraceFormat::kCsv, "<t>");
    const DecodedTextSink sink = [](const DecodedTextRecord&) {};
    try {
      for (std::size_t i = 0; i < text.size(); i += chunk) {
        decoder.feed(std::string_view(text).substr(i, chunk), sink);
      }
      decoder.finish(sink);
      FAIL() << "malformed record must throw (chunk " << chunk << ")";
    } catch (const TraceFormatError& e) {
      EXPECT_NE(std::string(e.what()).find("<t>:3"), std::string::npos)
          << "chunk size " << chunk << ": " << e.what();
    }
  }
}

TEST(TextTraceDecoder, PajeChunkedMatchesWholeBuffer) {
  const std::string text =
      "%EventDef PajeSetState\n"
      "# a comment\n"
      "\n"
      "Link, root, a, 0.1, 0.2, 0.1, x, y\n"
      "State, node0, STATE, 0.000000001, 1.5, 1.499999999, 0, compute\n"
      "State, node1, STATE, 0.25, 0.5, 0.25, 0, send\n";
  TextDecodeStats whole_stats;
  const Collected whole = decode_chunked(TextTraceFormat::kPaje, text,
                                         text.size(), &whole_stats);
  ASSERT_EQ(whole.resources.size(), 2u);
  EXPECT_EQ(whole_stats.records, 2u);
  EXPECT_EQ(whole_stats.skipped_records, 1u);   // the Link line
  EXPECT_EQ(whole_stats.comment_lines, 3u);     // %, #, blank
  EXPECT_EQ(whole.begins[0], 1);                // 1e-9 s rounds to 1 ns
  EXPECT_EQ(whole.ends[0], 1500000000);
  for (std::size_t chunk = 1; chunk < text.size(); chunk += 3) {
    TextDecodeStats stats;
    const Collected got =
        decode_chunked(TextTraceFormat::kPaje, text, chunk, &stats);
    EXPECT_EQ(got, whole) << "chunk size " << chunk;
    EXPECT_EQ(stats.records, whole_stats.records);
    EXPECT_EQ(stats.skipped_records, whole_stats.skipped_records);
    EXPECT_EQ(stats.comment_lines, whole_stats.comment_lines);
  }
}

TEST(SplitTextShards, CoversTextExactlyOnceOnLineBoundaries) {
  std::string text;
  for (int i = 0; i < 37; ++i) {
    text += "STATE,n" + std::to_string(i % 5) + ",s," + std::to_string(i) +
            "," + std::to_string(i + 1) + "\n";
  }
  for (std::size_t shards = 1; shards <= 8; ++shards) {
    const auto pieces = split_text_shards(text, shards);
    ASSERT_LE(pieces.size(), shards);
    ASSERT_GE(pieces.size(), 1u);
    std::string rejoined;
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      if (i + 1 < pieces.size()) {
        ASSERT_FALSE(pieces[i].empty());
        EXPECT_EQ(pieces[i].back(), '\n')
            << "interior shards must end on a line boundary";
      }
      rejoined.append(pieces[i]);
    }
    EXPECT_EQ(rejoined, text) << shards << " shards must cover exactly once";
  }
  EXPECT_TRUE(split_text_shards("", 4).empty());
  const auto one = split_text_shards("no newline at all", 4);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], "no newline at all");
}

// --- STGT binary records -------------------------------------------------

std::vector<std::uint8_t> encode_records(
    const std::vector<StgtRecord>& records) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(records.size() * StgtRecordDecoder::kRecordBytes);
  for (const StgtRecord& rec : records) {
    const auto r = static_cast<std::uint32_t>(rec.resource);
    const auto x = static_cast<std::uint32_t>(rec.interval.state);
    std::uint8_t buf[StgtRecordDecoder::kRecordBytes];
    std::memcpy(buf, &r, 4);
    std::memcpy(buf + 4, &x, 4);
    std::memcpy(buf + 8, &rec.interval.begin, 8);
    std::memcpy(buf + 16, &rec.interval.end, 8);
    bytes.insert(bytes.end(), buf, buf + sizeof buf);
  }
  return bytes;
}

std::vector<StgtRecord> sample_records() {
  std::vector<StgtRecord> records;
  for (int i = 0; i < 9; ++i) {
    records.push_back(StgtRecord{static_cast<ResourceId>(i % 3),
                                 StateInterval{i * 10, i * 10 + 7,
                                               static_cast<StateId>(i % 2)}});
  }
  return records;
}

TEST(StgtRecordDecoder, AnySliceSizeMatchesWholeBuffer) {
  const auto want = sample_records();
  const auto bytes = encode_records(want);
  for (std::size_t chunk = 1; chunk <= bytes.size(); ++chunk) {
    std::vector<StgtRecord> got;
    StgtRecordDecoder decoder(3, 2, "<t>");
    const auto sink = [&got](const StgtRecord& r) {
      got.push_back(r);
    };
    for (std::size_t i = 0; i < bytes.size(); i += chunk) {
      const std::size_t n = std::min(chunk, bytes.size() - i);
      decoder.feed({bytes.data() + i, n}, sink);
    }
    decoder.finish();
    ASSERT_EQ(got.size(), want.size()) << "chunk size " << chunk;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].resource, want[i].resource);
      EXPECT_EQ(got[i].interval.begin, want[i].interval.begin);
      EXPECT_EQ(got[i].interval.end, want[i].interval.end);
      EXPECT_EQ(got[i].interval.state, want[i].interval.state);
    }
    EXPECT_EQ(decoder.records_decoded(), want.size());
  }
}

TEST(StgtRecordDecoder, TruncatedStreamFailsAtFinish) {
  const auto bytes = encode_records(sample_records());
  StgtRecordDecoder decoder(3, 2, "<t>");
  const auto sink = [](const StgtRecord&) {};
  decoder.feed({bytes.data(), bytes.size() - 5}, sink);
  EXPECT_THROW(decoder.finish(), TraceFormatError);
}

TEST(StgtRecordDecoder, UnknownIdsNameTheExactOffset) {
  auto records = sample_records();
  records[4].resource = 99;  // out of range (3 resources)
  const auto bytes = encode_records(records);
  StgtRecordDecoder decoder(3, 2, "<t>", /*base_offset=*/1000);
  const auto sink = [](const StgtRecord&) {};
  try {
    decoder.feed({bytes.data(), bytes.size()}, sink);
    FAIL() << "unknown resource id must throw";
  } catch (const TraceFormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown resource"), std::string::npos) << what;
    // Record 4 starts at base 1000 + 4 * 24 = 1096.
    EXPECT_NE(what.find("offset 1096"), std::string::npos) << what;
  }
}

TEST(StgtRecordDecoder, EndBeforeBeginRejected) {
  std::vector<StgtRecord> records = {
      StgtRecord{0, StateInterval{50, 10, 0}}};
  const auto bytes = encode_records(records);
  StgtRecordDecoder decoder(1, 1, "<t>");
  const auto sink = [](const StgtRecord&) {};
  EXPECT_THROW(decoder.feed({bytes.data(), bytes.size()}, sink),
               TraceFormatError);
}

}  // namespace
}  // namespace stagg
