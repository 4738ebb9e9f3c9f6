#include "trace/binary_io.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/mapped_file.hpp"
#include "common/thread_pool.hpp"
#include "trace/stream_decode.hpp"

namespace stagg {
namespace {

constexpr char kMagic[8] = {'S', 'T', 'G', 'T', 'R', 'C', '0', '1'};
constexpr char kChunkMagic[8] = {'S', 'T', 'G', 'C', 'H', 'K', '0', '2'};
constexpr char kSpillMagic[8] = {'S', 'T', 'G', 'S', 'P', 'L', '0', '2'};
constexpr std::size_t kRecordBytes = 4 + 4 + 8 + 8;
static_assert(kRecordBytes == StgtRecordDecoder::kRecordBytes,
              "STGT record framing is shared with the resumable decoder");
/// v2 chunk record header: u32 resource | u8 begin_codec | u8 end_codec |
/// u8 state_codec | u8 flags | u64 count | i64 min_begin | i64 min_end |
/// i64 max_end | u64 begin_bytes | u64 end_bytes | u64 state_bytes |
/// u64 checksum.  72 bytes, 8-aligned.
constexpr std::size_t kChunkHeaderBytes = 72;

constexpr std::uint64_t pad8(std::uint64_t n) {
  return (n + 7) & ~std::uint64_t{7};
}

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr open_file(const std::string& path, const char* mode) {
  FilePtr f(std::fopen(path.c_str(), mode));
  if (!f) throw IoError("cannot open '" + path + "'");
  return f;
}

void write_bytes(std::FILE* f, const void* data, std::size_t n,
                 const std::string& path) {
  if (std::fwrite(data, 1, n, f) != n) {
    throw IoError("short write to '" + path + "'");
  }
}

void read_bytes(std::FILE* f, void* data, std::size_t n,
                const std::string& path) {
  const long at = std::ftell(f);
  if (std::fread(data, 1, n, f) != n) {
    throw TraceFormatError("truncated file '" + path + "' at offset " +
                           std::to_string(at));
  }
}

template <typename T>
void write_pod(std::FILE* f, T v, const std::string& path) {
  write_bytes(f, &v, sizeof v, path);
}

template <typename T>
T read_pod(std::FILE* f, const std::string& path) {
  T v{};
  read_bytes(f, &v, sizeof v, path);
  return v;
}

void write_string(std::FILE* f, const std::string& s, const std::string& path) {
  write_pod<std::uint32_t>(f, narrow<std::uint32_t>(s.size()), path);
  write_bytes(f, s.data(), s.size(), path);
}

std::string read_string(std::FILE* f, const std::string& path) {
  const auto len = read_pod<std::uint32_t>(f, path);
  if (len > (1u << 20)) {
    throw TraceFormatError("string too long in '" + path + "'");
  }
  std::string s(len, '\0');
  read_bytes(f, s.data(), len, path);
  return s;
}

void encode_record(std::uint8_t* out, ResourceId r, const StateInterval& s) {
  const auto ur = narrow<std::uint32_t>(r);
  const auto ux = narrow<std::uint32_t>(s.state);
  std::memcpy(out, &ur, 4);
  std::memcpy(out + 4, &ux, 4);
  std::memcpy(out + 8, &s.begin, 8);
  std::memcpy(out + 16, &s.end, 8);
}

TraceFileInfo read_header(std::FILE* f, const std::string& path) {
  char magic[8];
  read_bytes(f, magic, sizeof magic, path);
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw TraceFormatError("bad magic in '" + path + "'");
  }
  TraceFileInfo info;
  const auto resource_count = read_pod<std::uint64_t>(f, path);
  const auto state_count = read_pod<std::uint64_t>(f, path);
  info.window_begin = read_pod<TimeNs>(f, path);
  info.window_end = read_pod<TimeNs>(f, path);
  info.record_count = read_pod<std::uint64_t>(f, path);
  if (resource_count > (1ull << 32) || state_count > (1ull << 20)) {
    throw TraceFormatError("implausible table sizes in '" + path + "'");
  }
  // The count is untrusted until the table entries actually parse: a
  // 48-byte file declaring 2^32 resources must die with a loud truncation
  // error at the first missing entry, not take down the process with
  // bad_alloc from a speculative 100+ GB reserve (found by fuzzing).
  info.resource_paths.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(resource_count, 4096)));
  for (std::uint64_t i = 0; i < resource_count; ++i) {
    info.resource_paths.push_back(read_string(f, path));
  }
  for (std::uint64_t i = 0; i < state_count; ++i) {
    info.states.intern(read_string(f, path));
  }
  return info;
}

/// Records per fread of read_binary_trace.  Fixed (not the store's
/// chunk_records): the store reader stops at the same block boundary when
/// the record section is truncated (record_section), so both report the
/// same offset.
constexpr std::size_t kReadRecords = 1 << 16;

/// Reads the record section of an STGT stream positioned just past its
/// tables, `read_records` records per fread, and hands each block to
/// `on_block(decoder, bytes)` along with the one StgtRecordDecoder that
/// validates every record (id ranges, end >= begin, absolute error
/// offsets) — the grammar the store reader's range decoder runs too.
template <class OnBlock>
void read_record_blocks(std::FILE* f, const std::string& path,
                        const TraceFileInfo& info, std::size_t read_records,
                        OnBlock&& on_block) {
  if (read_records == 0) {
    throw InvalidArgument("STGT record reads need at least one record");
  }
  const long records_base = std::ftell(f);
  if (records_base < 0) throw IoError("ftell failed on '" + path + "'");
  StgtRecordDecoder decoder(info.resource_paths.size(), info.states.size(),
                            path, static_cast<std::uint64_t>(records_base));
  // The declared count is untrusted: size the buffer by what it can hold.
  std::vector<std::uint8_t> buf(
      static_cast<std::size_t>(std::min<std::uint64_t>(info.record_count,
                                                       read_records)) *
      kRecordBytes);
  std::uint64_t remaining = info.record_count;
  while (remaining > 0) {
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, read_records));
    read_bytes(f, buf.data(), take * kRecordBytes, path);
    on_block(decoder,
             std::span<const std::uint8_t>(buf.data(), take * kRecordBytes));
    remaining -= take;
  }
  decoder.finish();
}

/// The record section of an STGT file positioned just past its tables.
struct RecordSection {
  std::uint64_t base = 0;      ///< Absolute offset of the first record.
  std::uint64_t count = 0;     ///< Declared record count.
  std::uint64_t readable = 0;  ///< Records decoded before a truncation.
};

/// Locates the record section and checks the file size once: when the
/// file holds fewer records than declared, `readable` stops at the last
/// whole kReadRecords block, which is where read_record_blocks' short
/// fread fails — so the store reader decodes the blocks read_binary_trace
/// decodes and reports its truncation offset.
RecordSection record_section(std::FILE* f, const std::string& path,
                             const TraceFileInfo& info) {
  const long base = std::ftell(f);
  if (base < 0) throw IoError("ftell failed on '" + path + "'");
  if (std::fseek(f, 0, SEEK_END) != 0) {
    throw IoError("seek failed on '" + path + "'");
  }
  const long size = std::ftell(f);
  if (size < 0 || std::fseek(f, base, SEEK_SET) != 0) {
    throw IoError("seek failed on '" + path + "'");
  }
  RecordSection section;
  section.base = static_cast<std::uint64_t>(base);
  section.count = info.record_count;
  const std::uint64_t present =
      size > base ? static_cast<std::uint64_t>(size - base) / kRecordBytes
                  : 0;
  section.readable = present >= section.count
                         ? section.count
                         : present / kReadRecords * kReadRecords;
  return section;
}

/// Minimum records per range of the store reader (rounded up to whole
/// windows): enough that a range amortizes its decoder and task, small
/// enough that a wave's buffers stay a few MiB.
constexpr std::size_t kRangeRecords = 1 << 12;

/// One decoded window: each touched lane's sealed-ready chunk.
using WindowChunks = std::vector<std::pair<ResourceId, TraceChunkPtr>>;

/// Freezes one lane's columns into a chunk without copying them.  One
/// pass finds the end fences and checks the total-key order; only a
/// failed check pays for a sort, through an index permutation (equal keys
/// are indistinguishable, so the chunk is the same either way).
TraceChunkPtr freeze_lane(StgtLaneColumns& lane) {
  const auto less = [&lane](std::size_t a, std::size_t b) {
    return interval_key_less(
        {lane.begins[a], lane.ends[a], lane.states[a]},
        {lane.begins[b], lane.ends[b], lane.states[b]});
  };
  const std::size_t n = lane.begins.size();
  TimeNs min_end = lane.ends[0];
  TimeNs max_end = lane.ends[0];
  bool sorted = true;
  for (std::size_t i = 1; i < n; ++i) {
    min_end = std::min(min_end, lane.ends[i]);
    max_end = std::max(max_end, lane.ends[i]);
    sorted = sorted && !less(i, i - 1);
  }
  if (!sorted) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), less);
    StgtLaneColumns by_key{lane.resource, {}, {}, {}};
    by_key.begins.reserve(n);
    by_key.ends.reserve(n);
    by_key.states.reserve(n);
    for (const std::size_t k : order) {
      by_key.begins.push_back(lane.begins[k]);
      by_key.ends.push_back(lane.ends[k]);
      by_key.states.push_back(lane.states[k]);
    }
    lane = std::move(by_key);
  }
  return std::make_shared<const TraceChunk>(
      std::make_shared<const ResidentChunkPayload>(
          std::move(lane.begins), std::move(lane.ends),
          std::move(lane.states)),
      min_end, max_end);
}

/// Decodes one range of whole records (starting at absolute offset
/// `base`) into per-window chunks built straight from the exact-size
/// columns: no row copy, no second validation.
std::vector<WindowChunks> decode_range(std::span<const std::uint8_t> bytes,
                                       const TraceFileInfo& info,
                                       const std::string& path,
                                       std::uint64_t base,
                                       std::size_t chunk_records) {
  std::vector<StgtWindowColumns> windows =
      decode_stgt_columns(bytes, info.resource_paths.size(),
                          info.states.size(), path, base, chunk_records);
  std::vector<WindowChunks> out(windows.size());
  for (std::size_t w = 0; w < windows.size(); ++w) {
    out[w].reserve(windows[w].size());
    for (StgtLaneColumns& lane : windows[w]) {
      out[w].emplace_back(lane.resource, freeze_lane(lane));
    }
  }
  return out;
}

// --- Chunk records (shared by chunk files and spill files) -----------------

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;

/// The codec tags and raw section bytes a v2 record stores for one chunk:
/// the raw columns of an addressable chunk, the encoded blocks of a
/// compressed one — records preserve the chunk's in-memory encoding,
/// never re-encode.
struct ChunkSections {
  TimeCodec begin_codec = TimeCodec::kRaw;
  TimeCodec end_codec = TimeCodec::kRaw;
  StateCodec state_codec = StateCodec::kRaw;
  std::span<const std::uint8_t> begin;
  std::span<const std::uint8_t> end;
  std::span<const std::uint8_t> state;
};

ChunkSections chunk_sections(const TraceChunk& chunk) {
  ChunkSections s;
  if (chunk.addressable()) {
    s.begin = {reinterpret_cast<const std::uint8_t*>(chunk.begins().data()),
               chunk.begins().size_bytes()};
    s.end = {reinterpret_cast<const std::uint8_t*>(chunk.ends().data()),
             chunk.ends().size_bytes()};
    s.state = {reinterpret_cast<const std::uint8_t*>(chunk.states().data()),
               chunk.states().size_bytes()};
    return s;
  }
  const auto* compressed =
      dynamic_cast<const CompressedChunkPayload*>(chunk.payload().get());
  if (compressed == nullptr) {
    throw InvalidArgument("chunk record: unknown non-addressable payload");
  }
  const ColumnsCoding& coding = compressed->coding();
  s.begin_codec = coding.begin_codec;
  s.end_codec = coding.end_codec;
  s.state_codec = coding.state_codec;
  s.begin = coding.begin_section;
  s.end = coding.end_section;
  s.state = coding.state_section;
  return s;
}

/// Total on-disk bytes of one v2 chunk record.
std::uint64_t chunk_record_bytes(std::uint64_t begin_bytes,
                                    std::uint64_t end_bytes,
                                    std::uint64_t state_bytes) {
  return kChunkHeaderBytes + pad8(begin_bytes) + pad8(end_bytes) +
         pad8(state_bytes);
}

/// Writes one v2 chunk record; returns its on-disk bytes.
std::uint64_t write_chunk_record(std::FILE* f, const std::string& path,
                                 ResourceId resource,
                                 const TraceChunk& chunk) {
  ChunkSections sec = chunk_sections(chunk);
  std::uint64_t checksum = kFnvOffsetBasis;
  checksum = fnv1a(sec.begin.data(), sec.begin.size(), checksum);
  checksum = fnv1a(sec.end.data(), sec.end.size(), checksum);
  checksum = fnv1a(sec.state.data(), sec.state.size(), checksum);

  std::uint8_t header[kChunkHeaderBytes] = {};
  const auto ur = narrow<std::uint32_t>(resource);
  const auto count = static_cast<std::uint64_t>(chunk.size());
  const TimeNs min_begin = chunk.min_begin();
  const TimeNs min_end = chunk.min_end();
  const TimeNs max_end = chunk.max_end();
  const std::uint64_t begin_bytes = sec.begin.size();
  const std::uint64_t end_bytes = sec.end.size();
  const std::uint64_t state_bytes = sec.state.size();
  std::memcpy(header, &ur, 4);
  header[4] = time_codec_tag(sec.begin_codec);
  header[5] = time_codec_tag(sec.end_codec);
  header[6] = state_codec_tag(sec.state_codec);
  header[7] = 0;  // flags
  std::memcpy(header + 8, &count, 8);
  std::memcpy(header + 16, &min_begin, 8);
  std::memcpy(header + 24, &min_end, 8);
  std::memcpy(header + 32, &max_end, 8);
  std::memcpy(header + 40, &begin_bytes, 8);
  std::memcpy(header + 48, &end_bytes, 8);
  std::memcpy(header + 56, &state_bytes, 8);
  std::memcpy(header + 64, &checksum, 8);
  write_bytes(f, header, sizeof header, path);
  const std::uint8_t zeros[8] = {};
  for (const std::span<const std::uint8_t> section :
       {sec.begin, sec.end, sec.state}) {
    write_bytes(f, section.data(), section.size(), path);
    const std::uint64_t pad = pad8(section.size()) - section.size();
    if (pad != 0) write_bytes(f, zeros, static_cast<std::size_t>(pad), path);
  }
  return chunk_record_bytes(begin_bytes, end_bytes, state_bytes);
}

struct MappedChunkRecord {
  ResourceId resource = kInvalidResource;
  TraceChunkPtr chunk;
  std::size_t record_bytes = 0;
};

/// Validates and maps one chunk record: bounds and codec tags first,
/// then the section checksum, then a full streaming decode re-deriving
/// sort order, state range and all three fences (a compressed section is
/// only trusted after every varint/dictionary/run in it decoded cleanly).
/// All-raw records come back as zero-copy mapped columns; anything else
/// as a compressed chunk streaming from the mapping.
MappedChunkRecord map_chunk_record(
    const std::shared_ptr<const MappedRegion>& region, std::size_t pos,
    std::uint64_t region_file_offset, const std::string& path,
    std::uint64_t state_count) {
  const std::uint64_t file_offset = region_file_offset + pos;
  const auto offset_str = " in '" + path + "' at offset " +
                          std::to_string(file_offset);
  const std::uint8_t* base = region->data();
  const std::size_t avail = region->size();
  if (pos + kChunkHeaderBytes > avail) {
    throw TraceFormatError("truncated chunk header" + offset_str);
  }
  std::uint32_t ur = 0;
  std::uint64_t count = 0;
  TimeNs min_begin = 0;
  TimeNs min_end = 0;
  TimeNs max_end = 0;
  std::uint64_t begin_bytes = 0;
  std::uint64_t end_bytes = 0;
  std::uint64_t state_bytes = 0;
  std::uint64_t checksum = 0;
  std::memcpy(&ur, base + pos, 4);
  const std::uint8_t begin_tag = base[pos + 4];
  const std::uint8_t end_tag = base[pos + 5];
  const std::uint8_t state_tag = base[pos + 6];
  const std::uint8_t flags = base[pos + 7];
  std::memcpy(&count, base + pos + 8, 8);
  std::memcpy(&min_begin, base + pos + 16, 8);
  std::memcpy(&min_end, base + pos + 24, 8);
  std::memcpy(&max_end, base + pos + 32, 8);
  std::memcpy(&begin_bytes, base + pos + 40, 8);
  std::memcpy(&end_bytes, base + pos + 48, 8);
  std::memcpy(&state_bytes, base + pos + 56, 8);
  std::memcpy(&checksum, base + pos + 64, 8);
  if (count == 0) {
    throw TraceFormatError("empty chunk record" + offset_str);
  }
  if (flags != 0) {
    throw TraceFormatError("unknown chunk record flags " +
                           std::to_string(flags) + offset_str);
  }
  if (!time_codec_valid(begin_tag) || !time_codec_valid(end_tag) ||
      !state_codec_valid(state_tag) ||
      static_cast<TimeCodec>(end_tag) == TimeCodec::kGapFromPrevEnd) {
    throw TraceFormatError("invalid chunk codec tags" + offset_str);
  }
  // Guard the size arithmetic: each section must fit the remaining bytes
  // on its own before the padded sum is formed (a huge size must read as
  // truncation, not wrap into a small record).
  const std::uint64_t remaining = avail - pos;
  if (begin_bytes > remaining || end_bytes > remaining ||
      state_bytes > remaining) {
    throw TraceFormatError("truncated chunk payload" + offset_str +
                           " (section sizes exceed the file)");
  }
  const std::uint64_t record_bytes =
      chunk_record_bytes(begin_bytes, end_bytes, state_bytes);
  if (record_bytes > remaining) {
    throw TraceFormatError("truncated chunk payload" + offset_str);
  }
  const std::size_t sec0 = pos + kChunkHeaderBytes;
  const std::size_t sec1 = sec0 + static_cast<std::size_t>(pad8(begin_bytes));
  const std::size_t sec2 = sec1 + static_cast<std::size_t>(pad8(end_bytes));
  ColumnsCoding coding;
  coding.count = count;
  coding.begin_codec = static_cast<TimeCodec>(begin_tag);
  coding.end_codec = static_cast<TimeCodec>(end_tag);
  coding.state_codec = static_cast<StateCodec>(state_tag);
  coding.begin_section = {base + sec0,
                          static_cast<std::size_t>(begin_bytes)};
  coding.end_section = {base + sec1, static_cast<std::size_t>(end_bytes)};
  coding.state_section = {base + sec2,
                          static_cast<std::size_t>(state_bytes)};
  std::uint64_t computed = kFnvOffsetBasis;
  computed = fnv1a(coding.begin_section.data(), coding.begin_section.size(),
                   computed);
  computed =
      fnv1a(coding.end_section.data(), coding.end_section.size(), computed);
  computed = fnv1a(coding.state_section.data(), coding.state_section.size(),
                   computed);
  if (computed != checksum) {
    throw TraceFormatError(
        "chunk checksum mismatch" + offset_str + " (stored " +
        std::to_string(checksum) + ", computed " + std::to_string(computed) +
        ")");
  }
  // Full streaming decode: every interval of the record is re-derived and
  // checked against the header's fences before the record is trusted.
  // The decoder's own malformed-stream errors carry no file context, so
  // its calls are wrapped to append the record offset.
  std::optional<ColumnsDecoder> decoder;
  try {
    decoder.emplace(coding);
  } catch (const Error& e) {
    throw TraceFormatError(std::string(e.what()) + offset_str);
  }
  const auto decode_next = [&](StateInterval& s) {
    try {
      return decoder->next(s);
    } catch (const Error& e) {
      throw TraceFormatError(std::string(e.what()) + offset_str);
    }
  };
  StateInterval first{};
  StateInterval last{};
  TimeNs seen_min_end = 0;
  TimeNs seen_max_end = 0;
  StateInterval s{};
  StateInterval prev{};
  std::uint64_t decoded = 0;
  while (decode_next(s)) {
    if (s.end < s.begin) {
      throw TraceFormatError("chunk interval with end < begin" + offset_str);
    }
    if (s.state < 0 || static_cast<std::uint64_t>(s.state) >= state_count) {
      throw TraceFormatError("chunk interval references unknown state " +
                             std::to_string(s.state) + offset_str);
    }
    if (decoded == 0) {
      first = s;
      seen_min_end = s.end;
      seen_max_end = s.end;
    } else {
      if (interval_key_less(s, prev)) {
        throw TraceFormatError(
            "chunk columns not sorted by (begin, end, state)" + offset_str);
      }
      seen_min_end = std::min(seen_min_end, s.end);
      seen_max_end = std::max(seen_max_end, s.end);
    }
    prev = s;
    ++decoded;
  }
  last = prev;
  if (first.begin != min_begin || seen_min_end != min_end ||
      seen_max_end != max_end) {
    throw TraceFormatError("chunk fences disagree with columns" + offset_str);
  }

  const std::span<const std::uint8_t> record(
      base + pos, static_cast<std::size_t>(record_bytes));
  TraceChunkPtr chunk;
  if (coding.begin_codec == TimeCodec::kRaw &&
      coding.end_codec == TimeCodec::kRaw &&
      coding.state_codec == StateCodec::kRaw) {
    // All-raw: the sections are the columns — serve them in place.
    const auto n = static_cast<std::size_t>(count);
    const std::span<const TimeNs> begin_col(
        reinterpret_cast<const TimeNs*>(base + sec0), n);
    const std::span<const TimeNs> end_col(
        reinterpret_cast<const TimeNs*>(base + sec1), n);
    const std::span<const StateId> state_col(
        reinterpret_cast<const StateId*>(base + sec2), n);
    auto payload = std::make_shared<const MappedChunkPayload>(
        region, record, begin_col, end_col, state_col);
    chunk = std::make_shared<const TraceChunk>(std::move(payload), min_end,
                                               max_end);
  } else {
    auto payload =
        std::make_shared<const CompressedChunkPayload>(region, record,
                                                       coding);
    chunk = std::make_shared<const TraceChunk>(std::move(payload), first,
                                               last, min_end, max_end);
  }
  return {static_cast<ResourceId>(ur), std::move(chunk),
          static_cast<std::size_t>(record_bytes)};
}

/// Bounds-checked little reader over a mapped chunk file.
struct MapCursor {
  const std::uint8_t* base;
  std::size_t size;
  std::size_t pos = 0;
  const std::string& path;

  void need(std::size_t n, const char* what) const {
    if (pos + n > size) {
      throw TraceFormatError("truncated " + std::string(what) + " in '" +
                             path + "' at offset " + std::to_string(pos));
    }
  }
  template <typename T>
  T pod(const char* what) {
    T v{};
    need(sizeof v, what);
    std::memcpy(&v, base + pos, sizeof v);
    pos += sizeof v;
    return v;
  }
  std::string string(const char* what) {
    const auto len = pod<std::uint32_t>(what);
    if (len > (1u << 20)) {
      throw TraceFormatError("string too long in '" + path + "' at offset " +
                             std::to_string(pos));
    }
    need(len, what);
    std::string s(reinterpret_cast<const char*>(base + pos), len);
    pos += len;
    return s;
  }
  void align8() { pos = (pos + 7) & ~std::size_t{7}; }
};

}  // namespace

std::uint64_t write_binary_trace(Trace& trace, const std::string& path) {
  trace.seal();
  FilePtr f = open_file(path, "wb");

  write_bytes(f.get(), kMagic, sizeof kMagic, path);
  write_pod<std::uint64_t>(f.get(), trace.resource_count(), path);
  write_pod<std::uint64_t>(f.get(), trace.states().size(), path);
  write_pod<TimeNs>(f.get(), trace.begin(), path);
  write_pod<TimeNs>(f.get(), trace.end(), path);
  write_pod<std::uint64_t>(f.get(), trace.state_count(), path);
  for (const auto& p : trace.resource_paths()) write_string(f.get(), p, path);
  for (const auto& s : trace.states().names()) write_string(f.get(), s, path);

  // Buffered record emission, resource-major (file order is deterministic).
  constexpr std::size_t kBufRecords = 1 << 15;
  std::vector<std::uint8_t> buf(kBufRecords * kRecordBytes);
  std::size_t in_buf = 0;
  for (ResourceId r = 0; r < static_cast<ResourceId>(trace.resource_count());
       ++r) {
    for (const auto& s : trace.intervals(r)) {
      encode_record(buf.data() + in_buf * kRecordBytes, r, s);
      if (++in_buf == kBufRecords) {
        write_bytes(f.get(), buf.data(), in_buf * kRecordBytes, path);
        in_buf = 0;
      }
    }
  }
  if (in_buf != 0) {
    write_bytes(f.get(), buf.data(), in_buf * kRecordBytes, path);
  }
  const long pos = std::ftell(f.get());
  if (pos < 0) throw IoError("ftell failed on '" + path + "'");
  return static_cast<std::uint64_t>(pos);
}

TraceFileInfo read_binary_trace_info(const std::string& path) {
  FilePtr f = open_file(path, "rb");
  return read_header(f.get(), path);
}

TraceFileInfo stream_binary_trace(
    const std::string& path,
    const std::function<void(std::span<const TraceRecord>)>& sink,
    std::size_t chunk_records) {
  FilePtr f = open_file(path, "rb");
  TraceFileInfo info = read_header(f.get(), path);
  std::vector<TraceRecord> records;
  records.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(info.record_count, chunk_records)));
  read_record_blocks(
      f.get(), path, info, chunk_records,
      [&](StgtRecordDecoder& decoder, std::span<const std::uint8_t> block) {
        records.clear();
        decoder.feed(block,
                     [&records](const StgtRecord& rec) {
                       records.push_back(rec);
                     });
        sink({records.data(), records.size()});
      });
  return info;
}

std::uint64_t write_chunk_file(TraceStore& store, const std::string& path) {
  store.seal_chunk();
  // Write to a sibling temp file and rename over the target: the store's
  // own chunks may be mmapped views of `path` (a reopened chunk file, or
  // a spill file the caller reuses), and fopen("wb") would truncate the
  // pages they read mid-write — SIGBUS plus data loss.  The rename also
  // makes the write atomic for concurrent openers.
  const std::string tmp = path + ".tmp";
  FilePtr f = open_file(tmp, "wb");
  std::uint64_t chunk_count = 0;
  for (ResourceId r = 0; r < static_cast<ResourceId>(store.resource_count());
       ++r) {
    chunk_count += store.chunks(r).size();
  }
  write_bytes(f.get(), kChunkMagic, sizeof kChunkMagic, tmp);
  write_pod<std::uint64_t>(f.get(), store.resource_count(), tmp);
  write_pod<std::uint64_t>(f.get(), store.states().size(), tmp);
  write_pod<TimeNs>(f.get(), store.begin(), tmp);
  write_pod<TimeNs>(f.get(), store.end(), tmp);
  write_pod<std::uint64_t>(f.get(), chunk_count, tmp);
  for (const auto& p : store.resource_paths()) write_string(f.get(), p, tmp);
  for (const auto& s : store.states().names()) write_string(f.get(), s, tmp);
  const long table_end = std::ftell(f.get());
  if (table_end < 0) throw IoError("ftell failed on '" + tmp + "'");
  const std::uint8_t zeros[8] = {};
  const auto pad = static_cast<std::size_t>((8 - table_end % 8) % 8);
  if (pad != 0) write_bytes(f.get(), zeros, pad, tmp);
  for (ResourceId r = 0; r < static_cast<ResourceId>(store.resource_count());
       ++r) {
    for (const TraceChunkPtr& chunk : store.chunks(r)) {
      write_chunk_record(f.get(), tmp, r, *chunk);
    }
  }
  if (std::fflush(f.get()) != 0) {
    throw IoError("flush failed on '" + tmp + "'");
  }
  const long pos = std::ftell(f.get());
  if (pos < 0) throw IoError("ftell failed on '" + tmp + "'");
  f.reset();  // close before the rename
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw IoError("cannot rename '" + tmp + "' to '" + path + "'");
  }
  return static_cast<std::uint64_t>(pos);
}

std::shared_ptr<TraceStore> open_chunk_file_store(const std::string& path) {
  const auto region = MappedRegion::map_file(path);
  MapCursor cur{region->data(), region->size(), 0, path};
  cur.need(sizeof kChunkMagic, "chunk file magic");
  if (std::memcmp(cur.base, kChunkMagic, sizeof kChunkMagic) != 0) {
    throw TraceFormatError("bad chunk file magic in '" + path + "'");
  }
  cur.pos += sizeof kChunkMagic;
  const auto resource_count = cur.pod<std::uint64_t>("header");
  const auto state_count = cur.pod<std::uint64_t>("header");
  const auto window_begin = cur.pod<TimeNs>("header");
  const auto window_end = cur.pod<TimeNs>("header");
  const auto chunk_count = cur.pod<std::uint64_t>("header");
  if (resource_count > (1ull << 32) || state_count > (1ull << 20)) {
    throw TraceFormatError("implausible table sizes in '" + path + "'");
  }
  if (window_end < window_begin) {
    throw TraceFormatError("chunk file window end < begin in '" + path + "'");
  }
  auto store = std::make_shared<TraceStore>();
  // add_resource/intern deduplicate by name; a duplicate table entry in a
  // corrupt file would silently shift every later id, so reject it.
  for (std::uint64_t i = 0; i < resource_count; ++i) {
    const std::size_t at = cur.pos;
    if (static_cast<std::uint64_t>(
            store->add_resource(cur.string("resource table"))) != i) {
      throw TraceFormatError("duplicate resource path in '" + path +
                             "' at offset " + std::to_string(at));
    }
  }
  for (std::uint64_t i = 0; i < state_count; ++i) {
    const std::size_t at = cur.pos;
    if (static_cast<std::uint64_t>(
            store->states().intern(cur.string("state table"))) != i) {
      throw TraceFormatError("duplicate state name in '" + path +
                             "' at offset " + std::to_string(at));
    }
  }
  cur.align8();
  for (std::uint64_t i = 0; i < chunk_count; ++i) {
    MappedChunkRecord rec =
        map_chunk_record(region, cur.pos, 0, path, state_count);
    if (rec.resource < 0 ||
        static_cast<std::uint64_t>(rec.resource) >= resource_count) {
      throw TraceFormatError("chunk record references unknown resource in '" +
                             path + "' at offset " + std::to_string(cur.pos));
    }
    store->adopt_chunk(rec.resource, std::move(rec.chunk));
    cur.pos += rec.record_bytes;
  }
  store->set_window(window_begin, window_end);
  store->seal_chunk();
  return store;
}

bool is_chunk_file(const std::string& path) {
  FilePtr f = open_file(path, "rb");
  char magic[8];
  if (std::fread(magic, 1, sizeof magic, f.get()) != sizeof magic) {
    return false;
  }
  return std::memcmp(magic, kChunkMagic, sizeof kChunkMagic) == 0;
}

std::vector<SpilledChunkRecord> spill_chunks_to_file(
    const std::string& path, std::span<const SpillItem> items,
    std::uint64_t state_count) {
  if (items.empty()) return {};
  // "a+" so a pre-existing file's magic can be read back: appending to a
  // file that is not a spill file would corrupt it, and appending at a
  // non-8-aligned offset would break the in-place column alignment every
  // mapped read relies on.
  FilePtr f = open_file(path, "a+b");
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    throw IoError("seek failed on spill file '" + path + "'");
  }
  const long end = std::ftell(f.get());
  if (end < 0) throw IoError("ftell failed on spill file '" + path + "'");
  if (end != 0) {
    char magic[8];
    if (std::fseek(f.get(), 0, SEEK_SET) != 0 ||
        std::fread(magic, 1, sizeof magic, f.get()) != sizeof magic ||
        std::memcmp(magic, kSpillMagic, sizeof kSpillMagic) != 0 ||
        end % 8 != 0) {
      throw IoError("'" + path +
                    "' exists but is not a spill file (refusing to append)");
    }
    // A write after a read needs a positioning call in between.
    if (std::fseek(f.get(), 0, SEEK_END) != 0) {
      throw IoError("seek failed on spill file '" + path + "'");
    }
  }
  const auto old_size = static_cast<std::uint64_t>(end);
  try {
    const std::uint64_t offset = old_size == 0 ? sizeof kSpillMagic : old_size;
    if (old_size == 0) {
      write_bytes(f.get(), kSpillMagic, sizeof kSpillMagic, path);
    }
    std::vector<std::uint64_t> record_bytes;
    record_bytes.reserve(items.size());
    std::uint64_t batch_bytes = 0;
    for (const SpillItem& item : items) {
      record_bytes.push_back(
          write_chunk_record(f.get(), path, item.resource, *item.chunk));
      batch_bytes += record_bytes.back();
    }
    if (std::fflush(f.get()) != 0) {
      throw IoError("flush failed on spill file '" + path + "'");
    }
    f.reset();
    // Map the appended range back once and re-validate every record
    // through the same path an open uses: a torn or short write surfaces
    // here, loudly, not as a corrupt stream later.
    const auto region = MappedRegion::map(
        path, offset, static_cast<std::size_t>(batch_bytes));
    std::vector<SpilledChunkRecord> out;
    out.reserve(items.size());
    std::size_t pos = 0;
    for (std::size_t k = 0; k < items.size(); ++k) {
      MappedChunkRecord rec =
          map_chunk_record(region, pos, offset, path, state_count);
      if (rec.resource != items[k].resource ||
          rec.record_bytes != record_bytes[k]) {
        throw IoError("spill record in '" + path + "' at offset " +
                      std::to_string(offset + pos) +
                      " does not match what was written");
      }
      pos += rec.record_bytes;
      out.push_back({std::move(rec.chunk), record_bytes[k]});
    }
    // The batch is cold by definition (the caller just chose it as the
    // least-needed data): hint the kernel to reclaim its pages first.
    region->advise(MapAdvice::kDontNeed, {region->data(), region->size()});
    return out;
  } catch (...) {
    // Cut the file back to where this batch started, so a torn append
    // never sits in front of the next one.  The batch's mapping and
    // chunks died with the try block; nothing else maps these bytes.
    f.reset();
    std::error_code ignored;
    std::filesystem::resize_file(path, old_size, ignored);
    throw;
  }
}

std::shared_ptr<TraceStore> read_binary_trace_store(const std::string& path,
                                                    std::size_t chunk_records) {
  // Chunk files open zero-copy: mapped columns are served in place instead
  // of being copied into resident ones.
  if (is_chunk_file(path)) return open_chunk_file_store(path);
  if (chunk_records == 0) {
    throw InvalidArgument("read_binary_trace_store: chunk_records must be > 0");
  }
  FilePtr f = open_file(path, "rb");
  const TraceFileInfo info = read_header(f.get(), path);
  auto store = std::make_shared<TraceStore>();
  for (const auto& p : info.resource_paths) store->add_resource(p);
  for (const auto& s : info.states.names()) store->states().intern(s);
  const RecordSection section = record_section(f.get(), path, info);

  // Ranges are whole windows, so seal points depend only on the file and
  // chunk_records, never on the range split or the pool size.
  const std::size_t range_records =
      chunk_records >= kRangeRecords
          ? chunk_records
          : (kRangeRecords + chunk_records - 1) / chunk_records *
                chunk_records;
  ThreadPool& pool = ThreadPool::shared();
  const std::size_t wave = std::max<std::size_t>(1, pool.size());
  std::vector<std::vector<std::uint8_t>> bytes(wave);
  std::vector<std::vector<WindowChunks>> decoded(wave);
  std::vector<std::exception_ptr> errors(wave);
  std::vector<std::uint64_t> starts(wave);
  for (std::uint64_t next = 0; next < section.readable;) {
    // A bounded wave: one range per worker read serially into its own
    // buffer, then decoded in parallel, each by its own decoder based at
    // the range's absolute offset.
    std::size_t ranges = 0;
    for (; ranges < wave && next < section.readable; ++ranges) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(range_records, section.readable - next));
      bytes[ranges].resize(n * kRecordBytes);
      read_bytes(f.get(), bytes[ranges].data(), bytes[ranges].size(), path);
      starts[ranges] = next;
      next += n;
    }
    parallel_for(
        ranges,
        [&](std::size_t i) {
          try {
            decoded[i] = decode_range(bytes[i], info, path,
                                      section.base + starts[i] * kRecordBytes,
                                      chunk_records);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        },
        /*grain=*/1);
    // Adopt and seal in file order; the first error in file order wins.
    for (std::size_t i = 0; i < ranges; ++i) {
      if (errors[i]) std::rethrow_exception(errors[i]);
      for (WindowChunks& window : decoded[i]) {
        for (auto& [resource, chunk] : window) {
          store->adopt_chunk(resource, std::move(chunk));
        }
        store->seal_chunk();
      }
      decoded[i].clear();
    }
  }
  if (section.readable < section.count) {
    throw TraceFormatError("truncated file '" + path + "' at offset " +
                           std::to_string(section.base +
                                          section.readable * kRecordBytes));
  }
  store->set_window(info.window_begin, info.window_end);
  store->seal_chunk();
  return store;
}

Trace read_binary_trace(const std::string& path) {
  // Chunk files come back as a facade over the zero-copy mapped store.
  if (is_chunk_file(path)) return Trace(open_chunk_file_store(path));
  // Register tables before records (ids in the file are dense and
  // file-ordered, so they coincide with the registration order).
  FilePtr f = open_file(path, "rb");
  const TraceFileInfo info = read_header(f.get(), path);
  Trace out;
  for (const auto& p : info.resource_paths) out.add_resource(p);
  for (const auto& s : info.states.names()) out.states().intern(s);
  read_record_blocks(
      f.get(), path, info, kReadRecords,
      [&out](StgtRecordDecoder& decoder, std::span<const std::uint8_t> block) {
        decoder.feed(block, [&out](const StgtRecord& rec) {
          out.add_state(rec.resource, rec.interval.state, rec.interval.begin,
                        rec.interval.end);
        });
      });
  out.set_window(info.window_begin, info.window_end);
  out.seal();
  return out;
}

}  // namespace stagg
