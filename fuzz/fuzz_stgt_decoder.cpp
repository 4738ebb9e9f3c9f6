// Fuzz harness: StgtRecordDecoder over the fixed 24-byte record grammar,
// and the column-direct range decoder (decode_stgt_columns) built on it.
//
// Contract under test: any byte stream fed in any chunking either decodes
// or throws TraceFormatError naming the absolute file offset — out-of-range
// resource/state ids and end < begin must be rejected, a partial trailing
// record must fail finish(), and a record straddling feeds must decode
// exactly like a contiguous one.  The same bytes, decoded as one in-memory
// range with windows of the feed-chunk size, must be accepted or rejected
// exactly alike (same message, same offset), and each window's per-lane
// columns must equal that lane's records of the window, in file order.
// The three leading bytes pick the id ranges and the feed-chunk size.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "trace/stream_decode.hpp"

namespace {

/// Traps unless `windows` holds exactly `records`, `window` records per
/// window, grouped by lane in first-touch order.
void check_columns(const std::vector<stagg::StgtRecord>& records,
                   const std::vector<stagg::StgtWindowColumns>& windows,
                   std::size_t window) {
  std::size_t first = 0;
  for (const stagg::StgtWindowColumns& lanes : windows) {
    const std::size_t last = std::min(records.size(), first + window);
    if (first >= last) __builtin_trap();
    std::vector<std::size_t> seen(lanes.size(), 0);
    for (std::size_t i = first; i < last; ++i) {
      const stagg::StgtRecord& rec = records[i];
      std::size_t slot = 0;
      while (slot < lanes.size() && lanes[slot].resource != rec.resource) {
        ++slot;
      }
      if (slot == lanes.size()) __builtin_trap();
      const stagg::StgtLaneColumns& lane = lanes[slot];
      const std::size_t k = seen[slot]++;
      if (k >= lane.begins.size() || lane.begins[k] != rec.interval.begin ||
          lane.ends[k] != rec.interval.end ||
          lane.states[k] != rec.interval.state) {
        __builtin_trap();
      }
    }
    for (std::size_t slot = 0; slot < lanes.size(); ++slot) {
      if (seen[slot] == 0 || seen[slot] != lanes[slot].begins.size() ||
          seen[slot] != lanes[slot].ends.size() ||
          seen[slot] != lanes[slot].states.size()) {
        __builtin_trap();
      }
    }
    first = last;
  }
  if (first != records.size()) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 3) return 0;
  const std::uint64_t resources = 1 + (data[0] & 0x0fU);
  const std::uint64_t states = 1 + (data[1] & 0x0fU);
  const std::size_t chunk = 1 + data[2] % 64;
  const std::span<const std::uint8_t> bytes(data + 3, size - 3);
  stagg::StgtRecordDecoder decoder(resources, states, "fuzz");
  std::vector<stagg::StgtRecord> records;
  const auto sink = [&records](const stagg::StgtRecord& rec) {
    records.push_back(rec);
  };
  std::string error;
  try {
    for (std::size_t pos = 0; pos < bytes.size(); pos += chunk) {
      decoder.feed(bytes.subspan(pos, std::min(chunk, bytes.size() - pos)),
                   sink);
    }
    decoder.finish();
  } catch (const stagg::TraceFormatError& e) {
    // Malformed input rejected loudly — the documented contract.
    error = e.what();
  }

  std::vector<stagg::StgtWindowColumns> windows;
  std::string range_error;
  try {
    windows =
        stagg::decode_stgt_columns(bytes, resources, states, "fuzz", 0, chunk);
  } catch (const stagg::TraceFormatError& e) {
    range_error = e.what();
  }
  if (range_error != error) __builtin_trap();
  if (error.empty()) check_columns(records, windows, chunk);
  return 0;
}
