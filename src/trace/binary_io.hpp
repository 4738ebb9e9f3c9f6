// Binary trace formats: the row-record format ("STGT") and the columnar
// chunk-file format ("STGC"), plus the spill-file primitives behind
// TraceStore::spill_cold.
//
// STGT — compact row records, the library's OTF2 stand-in (little-endian):
//   header:   magic "STGTRC01" | u64 resource_count | u64 state_count
//             | i64 window_begin | i64 window_end | u64 record_count
//   tables:   resource paths then state names, each u32-length-prefixed UTF-8
//   records:  record_count x { u32 resource | u32 state | i64 begin | i64 end }
//
// Records are 24 bytes; Table II's "trace size" column is reproduced from
// this format.  The reader offers both a materializing API and a streaming
// API (fixed-size chunks through a callback) so the microscopic model can be
// built from traces larger than memory.
//
// STGC — versioned columnar chunk files, the dariadb-style sealed-page
// format an mmapped TraceStore reads in place (little-endian).
//
// Version 2 (magic "STGCHK02") — written by this library; each column
// section carries its own codec tag (trace/compression.hpp):
//   header:   magic "STGCHK02" | u64 resource_count | u64 state_count
//             | i64 window_begin | i64 window_end | u64 chunk_count
//   tables:   as STGT, then zero padding to the next 8-byte boundary
//   chunks:   chunk_count x chunk record
// One v2 chunk record (72-byte header; every section start 8-byte aligned
// so raw sections are usable in place):
//   header:   u32 resource | u8 begin_codec | u8 end_codec | u8 state_codec
//             | u8 flags (0) | u64 count | i64 min_begin | i64 min_end
//             | i64 max_end | u64 begin_bytes | u64 end_bytes
//             | u64 state_bytes | u64 checksum
//   sections: begin section | pad to 8 | end section | pad to 8
//             | state section | pad to 8
// The checksum is FNV-1a 64 over the three *unpadded* encoded sections in
// order.  An all-raw record opens zero-copy as mapped columns; any other codec
// combination opens as a compressed (cursor-streamed) chunk pointing into
// the mapping.  Readers fully streaming-decode every record at open —
// section bounds, checksum, codec tags, varint/dictionary well-formedness,
// the (begin, end, state) sort order and all three fences — and reject
// truncation and corruption loudly with the offending file offset.
//
// Version 1 files (magic "STGCHK01") are no longer read: their magic fails
// like any other with a bad-magic TraceFormatError.
//
// The same record layout, behind magic "STGSPL02", makes up a store's
// append-only spill file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/event.hpp"
#include "trace/state_registry.hpp"
#include "trace/stream_decode.hpp"
#include "trace/trace.hpp"
#include "trace/trace_store.hpp"

namespace stagg {

/// One on-disk record paired with its resource (streaming API).  Every
/// STGT reader here — read_binary_trace, read_binary_trace_store,
/// stream_binary_trace and build_model_streaming on top of it — decodes
/// the record section through the resumable StgtRecordDecoder
/// (stream_decode.hpp), so all share one record grammar and validation.
using TraceRecord = StgtRecord;

/// Static description decoded from a trace file header + tables.
struct TraceFileInfo {
  std::vector<std::string> resource_paths;
  StateRegistry states;
  TimeNs window_begin = 0;
  TimeNs window_end = 0;
  std::uint64_t record_count = 0;
};

/// Writes `trace` to `path`.  Returns the number of bytes written.
/// The trace is sealed first if needed.
std::uint64_t write_binary_trace(Trace& trace, const std::string& path);

/// Reads a full trace file into memory.  Throws TraceFormatError/IoError.
[[nodiscard]] Trace read_binary_trace(const std::string& path);

/// Reads a trace file into an immutable chunked store, decoding the record
/// section column-direct: each window of `chunk_records` records is
/// validated by the StgtRecordDecoder grammar (pass 1, which only notes
/// each record's lane), then scattered straight into exact-size per-lane
/// begin/end/state columns (pass 2) that become that window's chunks — no
/// row tail, no second validation, no row-to-column copy.  A lane's
/// columns are sorted only when they are not already in key order, so a
/// sorted resource-major file (what write_binary_trace emits) costs two
/// passes over its bytes.  The store adopts each window's chunks and seals
/// after every window (compaction, compression policy and audit stay the
/// store's), so chunk boundaries depend only on the file and
/// `chunk_records`.
///
/// Ranges of whole windows decode in parallel on ThreadPool::shared(), a
/// bounded wave at a time through one fread buffer per range; they are
/// adopted in file order, so the store is the same at any pool size.  The
/// interval multiset — and therefore every model fold — is bit-identical
/// to read_binary_trace, and malformed records fail with the same
/// TraceFormatError message and absolute offset: the first error in file
/// order wins, and a truncated record section reports read_binary_trace's
/// offset.
///
/// Chunk files (STGC) take a zero-copy path instead: the file is mmapped
/// once and the store's chunks read the validated records in place
/// (resident_chunk_bytes() == 0 — no rehydration), exactly as
/// open_chunk_file_store does.  `chunk_records` only applies to STGT.
[[nodiscard]] std::shared_ptr<TraceStore> read_binary_trace_store(
    const std::string& path, std::size_t chunk_records = 1 << 16);

// --- Chunk files (STGC) and spill records --------------------------------

/// Writes the store's sealed chunks to a columnar chunk file at `path`
/// (per-resource chunk lists in order; tails are sealed first).  Returns
/// the number of bytes written.  The result reopens zero-copy via
/// open_chunk_file_store / read_binary_trace_store.
std::uint64_t write_chunk_file(TraceStore& store, const std::string& path);

/// Opens a chunk file zero-copy: maps the whole file, validates every
/// record (bounds, checksum, sort order, fences — throws TraceFormatError
/// naming the file offset on truncation or corruption) and builds a store
/// whose chunks read the mapped columns in place.  The store starts fully
/// spilled: resident_chunk_bytes() == 0; pin_all() rehydrates on demand.
[[nodiscard]] std::shared_ptr<TraceStore> open_chunk_file_store(
    const std::string& path);

/// True when the file at `path` starts with the chunk-file magic.
/// Throws IoError when the file cannot be opened.
[[nodiscard]] bool is_chunk_file(const std::string& path);

/// One chunk to append to a spill file, with the resource its record
/// names.
struct SpillItem {
  ResourceId resource = kInvalidResource;
  const TraceChunk* chunk = nullptr;
};

/// One appended spill record: the file-backed chunk plus the exact on-disk
/// record size (the store's spill-occupancy accounting needs it to decide
/// when to compact the file).
struct SpilledChunkRecord {
  TraceChunkPtr chunk;
  std::uint64_t record_bytes = 0;
};

/// Appends a batch of chunks (raw or compressed — each record keeps its
/// chunk's encoding) to the append-only spill file at `path` and returns
/// their file-backed replacements in `items` order — the backend swap
/// behind TraceStore::spill_cold and spill-file compaction.  The file is
/// created with the spill magic on first use; a pre-existing file must
/// carry that magic and an 8-aligned size, or the append is refused.
///
/// One call opens the file once, appends every record, flushes and closes
/// once, then maps the appended range once: every chunk of the batch
/// shares that one mapping, and each chunk's paging advice covers only
/// its own record's pages.  Every record is re-validated through the same
/// checks an open runs (header, checksum, full decode against
/// `state_count` registry entries), so a torn write fails loudly here,
/// not at stream time.  The batch's pages are then advised kDontNeed once
/// (spilled data is cold by definition).
///
/// All or nothing: on any failure after the file was accepted, the file
/// is cut back to its size before the call and the error rethrown, so no
/// chunk of a failed batch is ever handed out and the next call appends
/// where this one would have.  An empty batch touches nothing.
[[nodiscard]] std::vector<SpilledChunkRecord> spill_chunks_to_file(
    const std::string& path, std::span<const SpillItem> items,
    std::uint64_t state_count);

/// Decodes only the header and tables.
[[nodiscard]] TraceFileInfo read_binary_trace_info(const std::string& path);

/// Streams the records of a trace file through `sink` in file order,
/// `chunk_records` at a time.  Returns the decoded file info.  The spans
/// passed to `sink` are only valid during the call.
TraceFileInfo stream_binary_trace(
    const std::string& path,
    const std::function<void(std::span<const TraceRecord>)>& sink,
    std::size_t chunk_records = 1 << 16);

}  // namespace stagg
