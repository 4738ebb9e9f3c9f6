// Ablation: trace I/O throughput — the substrate behind Table II's "trace
// reading" row (the paper's dominant cost: 44 s - 2911 s).
//
// Measures binary write, binary read (materializing), binary read into a
// chunked store (the batch file-to-partition path), binary streaming (the
// larger-than-memory path) and CSV read on scaled case A, reporting
// events/second so the full-size cost can be extrapolated.  The store
// read and its floor row — a bare fread of the same record section —
// also report bytes/second of that section in wall time, so the ratio of
// the two is the cost of decoding over the cost of reading.  Both run on
// case A at 1/64 (argument 0, a cache-resident file) and on the batch
// Table II file, case C at scale 0.18 (argument 1, ~447 MiB, generated
// on first use).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "model/builder.hpp"
#include "trace/binary_io.hpp"
#include "trace/csv_io.hpp"
#include "workload/scenarios.hpp"

namespace stagg {
namespace {

namespace fs = std::filesystem;

struct Fixture {
  GeneratedScenario scenario;
  std::string bin_path;
  std::string csv_path;

  Fixture() : scenario(generate_scenario(scenario_a(), 1.0 / 64.0)) {
    const auto dir = fs::temp_directory_path() / "stagg_bench_io";
    fs::create_directories(dir);
    bin_path = (dir / "a.stgt").string();
    csv_path = (dir / "a.csv").string();
    write_binary_trace(scenario.trace, bin_path);
    write_csv_trace(scenario.trace, csv_path);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

/// An STGT file and the size of its record section (24 bytes per record,
/// one record per state interval).
struct ReadFixture {
  std::string path;
  std::int64_t section_bytes = 0;
  std::int64_t records = 0;
};

/// Argument 0: the case A fixture's file.  Argument 1: case C at the
/// batch workload's scale, written once; its trace is dropped after the
/// write, so only the file stays.
const ReadFixture& read_fixture(std::int64_t which) {
  static const ReadFixture small = [] {
    const Fixture& f = fixture();
    const auto records = static_cast<std::int64_t>(
        f.scenario.trace.state_count());
    return ReadFixture{f.bin_path, records * 24, records};
  }();
  if (which == 0) return small;
  static const ReadFixture large = [] {
    const auto dir = fs::temp_directory_path() / "stagg_bench_io";
    fs::create_directories(dir);
    const std::string path = (dir / "c.stgt").string();
    GeneratedScenario g = generate_scenario(scenario_c(), 0.18);
    write_binary_trace(g.trace, path);
    const auto records = static_cast<std::int64_t>(g.trace.state_count());
    return ReadFixture{path, records * 24, records};
  }();
  return large;
}

void BM_BinaryWrite(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(write_binary_trace(f.scenario.trace, f.bin_path));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              f.scenario.trace.event_count()));
}
BENCHMARK(BM_BinaryWrite);

void BM_BinaryRead(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    Trace t = read_binary_trace(f.bin_path);
    benchmark::DoNotOptimize(t.state_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              f.scenario.trace.event_count()));
}
BENCHMARK(BM_BinaryRead);

void BM_BinaryReadStore(benchmark::State& state) {
  const ReadFixture& f = read_fixture(state.range(0));
  for (auto _ : state) {
    const auto store = read_binary_trace_store(f.path);
    benchmark::DoNotOptimize(store->state_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          f.records);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          f.section_bytes);
}
BENCHMARK(BM_BinaryReadStore)->Arg(0)->Arg(1)->UseRealTime();

/// Floor of BM_BinaryReadStore: fread of the same record section alone,
/// in 64 Ki-record blocks, with no decode and no store.
void BM_BinaryReadRaw(benchmark::State& state) {
  const ReadFixture& f = read_fixture(state.range(0));
  std::vector<std::uint8_t> block((std::size_t{1} << 16) * 24);
  for (auto _ : state) {
    std::FILE* in = std::fopen(f.path.c_str(), "rb");
    if (in == nullptr ||
        std::fseek(in, -static_cast<long>(f.section_bytes), SEEK_END) != 0) {
      state.SkipWithError("cannot open the record section");
      if (in != nullptr) std::fclose(in);
      return;
    }
    std::int64_t left = f.section_bytes;
    while (left > 0) {
      const auto take = static_cast<std::size_t>(std::min<std::int64_t>(
          left, static_cast<std::int64_t>(block.size())));
      if (std::fread(block.data(), 1, take, in) != take) break;
      left -= static_cast<std::int64_t>(take);
    }
    std::fclose(in);
    benchmark::DoNotOptimize(block.data());
    benchmark::DoNotOptimize(left);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          f.records);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          f.section_bytes);
}
BENCHMARK(BM_BinaryReadRaw)->Arg(0)->Arg(1)->UseRealTime();

void BM_BinaryStream(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    std::uint64_t n = 0;
    stream_binary_trace(f.bin_path,
                        [&](std::span<const TraceRecord> chunk) {
                          n += chunk.size();
                        });
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              f.scenario.trace.event_count()));
}
BENCHMARK(BM_BinaryStream);

void BM_StreamingModelBuild(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    const MicroscopicModel m = build_model_streaming(
        f.bin_path, *f.scenario.hierarchy, {.slice_count = 30});
    benchmark::DoNotOptimize(m.total_mass());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              f.scenario.trace.event_count()));
}
BENCHMARK(BM_StreamingModelBuild);

void BM_CsvRead(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    Trace t = read_csv_trace(f.csv_path);
    benchmark::DoNotOptimize(t.state_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              f.scenario.trace.event_count()));
}
BENCHMARK(BM_CsvRead);

}  // namespace
}  // namespace stagg
