// Seed-corpus generator: produces one small valid-ish input set per fuzz
// harness from the library's OWN writers, so the fuzzers start from inputs
// that reach deep into the decoders (mutating a valid STGC v2 record finds
// checksum/fence/codec bugs that random bytes never would).
//
//   gen_corpus <corpus-root>
//
// writes <corpus-root>/{text_decoder,stgt_decoder,columns_decoder,
// chunk_file}/seed_*.bin.  Deterministic: re-running overwrites the same
// files byte-identically, so the committed corpus never churns.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "trace/binary_io.hpp"
#include "trace/compression.hpp"
#include "trace/trace.hpp"
#include "trace/trace_store.hpp"

namespace {

namespace fs = std::filesystem;

void write_bytes(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "gen_corpus: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

void write_text(const fs::path& path, std::uint8_t selector,
                const std::string& text) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(text.size() + 1);
  bytes.push_back(selector);  // harness: bit 0 = format, rest = chunking
  bytes.insert(bytes.end(), text.begin(), text.end());
  write_bytes(path, bytes);
}

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void append_u16(std::vector<std::uint8_t>& out, std::size_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xffU));
  out.push_back(static_cast<std::uint8_t>((v >> 8U) & 0xffU));
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xffU));
  }
}

void append_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((u >> (8 * i)) & 0xffU));
  }
}

/// A small two-resource trace with enough interval variety (gaps, equal
/// keys, long/short durations) to light up every codec family.
stagg::Trace sample_trace(stagg::ChunkCompression compression) {
  stagg::Trace trace;
  trace.store()->set_compression(compression);
  const auto r0 = trace.add_resource("node/cpu0");
  const auto r1 = trace.add_resource("node/cpu1");
  const auto run = trace.states().intern("Running");
  const auto idle = trace.states().intern("Idle");
  stagg::TimeNs t = 0;
  for (int i = 0; i < 40; ++i) {
    const stagg::TimeNs dur = 100 + 37 * (i % 5);
    trace.add_state(r0, (i % 3) != 0 ? run : idle, t, t + dur);
    trace.add_state(r1, (i % 2) != 0 ? idle : run, t + 13, t + 13 + dur);
    t += dur + (i % 7 == 0 ? 50 : 0);  // occasional gap
  }
  trace.seal();
  return trace;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const fs::path root(argv[1]);
  for (const char* sub :
       {"text_decoder", "stgt_decoder", "columns_decoder", "chunk_file"}) {
    fs::create_directories(root / sub);
  }

  // --- text_decoder: CSV (selector even) and pj_dump (selector odd) -------
  const std::string csv =
      "# stagg-trace-csv\n"
      "# window,0,6000\n"
      "STATE,node/cpu0,Running,0,100\n"
      "STATE,node/cpu0,Idle,100,250\n"
      "STATE,node/cpu1,Running,40,400\n";
  const std::string paje =
      "State, node/cpu0, STATE, 0.000000, 0.000100, 0.000100, 0, Running\n"
      "Variable, node/cpu0, POWER, 0.0, 1.0, 42\n"
      "State, node/cpu1, STATE, 0.000040, 0.000400, 0.000360, 0, Idle\n";
  write_text(root / "text_decoder/seed_csv.bin", 0x10, csv);
  write_text(root / "text_decoder/seed_csv_tiny_chunks.bin", 0x02, csv);
  write_text(root / "text_decoder/seed_paje.bin", 0x11, paje);

  // --- stgt_decoder: header byte triple + valid 24-byte records -----------
  {
    std::vector<std::uint8_t> bytes;
    bytes.push_back(0x03);  // resources = 4
    bytes.push_back(0x03);  // states = 4
    bytes.push_back(0x08);  // feed chunk = 9 (straddles records)
    for (std::uint32_t i = 0; i < 8; ++i) {
      append_u32(bytes, i % 4);                       // resource
      append_u32(bytes, (i + 1) % 4);                 // state
      append_i64(bytes, 100 * i);                     // begin
      append_i64(bytes, 100 * i + 60 + 7 * (i % 3));  // end
    }
    write_bytes(root / "stgt_decoder/seed_records.bin", bytes);
  }
  // Windows of 3 records over runs of 3 interleaved lanes, so the range
  // decoder's lanes and runs cross window seams; the second seed adds a
  // record with end < begin in the third window and a partial record.
  for (const bool malformed : {false, true}) {
    std::vector<std::uint8_t> bytes;
    bytes.push_back(0x02);  // resources = 3
    bytes.push_back(0x01);  // states = 2
    bytes.push_back(0x02);  // feed chunk = window = 3 records
    for (std::uint32_t i = 0; i < 11; ++i) {
      const bool bad = malformed && i == 7;
      append_u32(bytes, (i / 2) % 3);                  // resource
      append_u32(bytes, i % 2);                        // state
      append_i64(bytes, 1000 - 50 * i);                // begin (unsorted)
      append_i64(bytes, bad ? 0 : 1000 - 50 * i + 30);  // end
    }
    if (malformed) bytes.insert(bytes.end(), {0x01, 0x02, 0x03});
    write_bytes(root / (malformed ? "stgt_decoder/seed_windows_bad.bin"
                                  : "stgt_decoder/seed_windows.bin"),
                bytes);
  }

  // --- columns_decoder: harness header + real encoded sections ------------
  {
    std::vector<stagg::TimeNs> begins;
    std::vector<stagg::TimeNs> ends;
    std::vector<stagg::StateId> states;
    for (int i = 0; i < 96; ++i) {
      begins.push_back(100 * i);
      ends.push_back(100 * i + 90);
      states.push_back(static_cast<stagg::StateId>(i % 3));
    }
    const stagg::EncodedColumns enc =
        stagg::encode_columns(begins, ends, states);
    std::vector<std::uint8_t> bytes;
    bytes.push_back(stagg::time_codec_tag(enc.begin_codec));
    bytes.push_back(stagg::time_codec_tag(enc.end_codec));
    bytes.push_back(stagg::state_codec_tag(enc.state_codec));
    append_u16(bytes, static_cast<std::size_t>(enc.count));
    append_u16(bytes, static_cast<std::size_t>(enc.begin_bytes));
    append_u16(bytes, static_cast<std::size_t>(enc.end_bytes));
    bytes.insert(bytes.end(), enc.bytes.begin(), enc.bytes.end());
    write_bytes(root / "columns_decoder/seed_encoded.bin", bytes);
  }

  // --- chunk_file: real STGT + STGC v2 files (raw and compressed) ---------
  {
    stagg::Trace trace = sample_trace(stagg::ChunkCompression::kNone);
    const fs::path tmp = fs::temp_directory_path() / "stagg_gen_corpus.bin";
    stagg::write_binary_trace(trace, tmp.string());
    write_bytes(root / "chunk_file/seed_stgt.bin", read_file(tmp));

    stagg::write_chunk_file(*trace.store(), tmp.string());
    write_bytes(root / "chunk_file/seed_stgc_raw.bin", read_file(tmp));

    stagg::Trace compressed = sample_trace(stagg::ChunkCompression::kAuto);
    stagg::write_chunk_file(*compressed.store(), tmp.string());
    write_bytes(root / "chunk_file/seed_stgc_compressed.bin",
                read_file(tmp));
    fs::remove(tmp);
  }

  std::printf("gen_corpus: seeds written under %s\n", root.c_str());
  return 0;
}
