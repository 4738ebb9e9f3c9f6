// Ablation: the preprocess substrate of Table II — microscopic-model
// construction and cube build — timed end to end.  Every model build runs
// parallel over resources on the shared pool (hardware concurrency).
//
// BM_ModelBuildView is the batch and explore path: a resident TraceStore of
// LU case C (1/256 scale, ~0.85 M intervals) folded through a full-window
// TraceView.  It reports ns_per_interval (wall time per folded interval)
// and the FNV-1a checksum of the tensor bytes (low 32 bits), and fails the
// row unless the tensor matches the Trace-shim build bit for bit.
#include <benchmark/benchmark.h>

#include <bit>
#include <chrono>
#include <cstdint>

#include "common/thread_pool.hpp"
#include "core/cube.hpp"
#include "model/builder.hpp"
#include "trace/trace_view.hpp"
#include "workload/scenarios.hpp"

namespace stagg {
namespace {

/// One shared scaled case-A trace for all registrations.
GeneratedScenario& shared_scenario() {
  static GeneratedScenario g = generate_scenario(scenario_a(), 1.0 / 64.0);
  return g;
}

void BM_ModelBuild(benchmark::State& state) {
  auto& g = shared_scenario();
  for (auto _ : state) {
    const MicroscopicModel model =
        build_model(g.trace, *g.hierarchy, {.slice_count = 30});
    benchmark::DoNotOptimize(model.total_mass());
  }
  state.counters["events"] =
      static_cast<double>(g.trace.event_count());
}
BENCHMARK(BM_ModelBuild);

void BM_ModelBuildSliceCount(benchmark::State& state) {
  auto& g = shared_scenario();
  const auto slices = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    const MicroscopicModel model =
        build_model(g.trace, *g.hierarchy, {.slice_count = slices});
    benchmark::DoNotOptimize(model.total_mass());
  }
}
BENCHMARK(BM_ModelBuildSliceCount)->Arg(30)->Arg(120)->Arg(480);

std::uint64_t tensor_fnv1a64(const MicroscopicModel& model) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double v : model.raw()) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 64; b += 8) {
      h ^= (bits >> b) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// Scaled case-C (NAS-LU, 700 processes) trace for the view row.
GeneratedScenario& lu_scenario() {
  static GeneratedScenario g = generate_scenario(scenario_c(), 1.0 / 256.0);
  return g;
}

void BM_ModelBuildView(benchmark::State& state) {
  auto& g = lu_scenario();
  const ModelBuildOptions opt{.slice_count =
                                  static_cast<std::int32_t>(state.range(0))};
  const std::uint64_t want =
      tensor_fnv1a64(build_model(g.trace, *g.hierarchy, opt));
  const TraceView view(g.trace.store());
  MicroscopicModel model;
  std::chrono::nanoseconds wall{0};
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    model = build_model(view, *g.hierarchy, opt);
    benchmark::DoNotOptimize(model.raw().data());
    wall += std::chrono::steady_clock::now() - t0;
  }
  const std::uint64_t got = tensor_fnv1a64(model);
  if (got != want) {
    state.SkipWithError("view build differs from the Trace-shim build");
    return;
  }
  const auto intervals = static_cast<double>(g.trace.event_count());
  state.counters["intervals"] = intervals;
  state.counters["ns_per_interval"] =
      static_cast<double>(wall.count()) /
      (intervals * static_cast<double>(state.iterations()));
  state.counters["checksum"] = static_cast<double>(got & 0xffffffffu);
}
BENCHMARK(BM_ModelBuildView)->Arg(30)->Arg(1000)->UseRealTime();

void BM_CubeBuildCaseA(benchmark::State& state) {
  auto& g = shared_scenario();
  const MicroscopicModel model =
      build_model(g.trace, *g.hierarchy, {.slice_count = 30});
  for (auto _ : state) {
    DataCube cube(model);
    benchmark::DoNotOptimize(cube.memory_bytes());
  }
}
BENCHMARK(BM_CubeBuildCaseA);

void BM_ParallelForOverhead(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> out(n, 0.0);
  for (auto _ : state) {
    parallel_for(n, [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5;
    });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelForOverhead)->Arg(64)->Arg(4096)->Arg(65536);

void BM_TraceSeal(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    GeneratedScenario g = generate_scenario(scenario_a(), 1.0 / 256.0);
    state.ResumeTiming();
    g.trace.seal();
    benchmark::DoNotOptimize(g.trace.state_count());
  }
}
BENCHMARK(BM_TraceSeal);

}  // namespace
}  // namespace stagg
