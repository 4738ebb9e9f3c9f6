// batch-lu: the paper's Table II path on case C (LU class C, 700
// processes), file to partition.
//
// Set-up generates the scenario at kScale and writes it as an STGT file.
// Each operation then reads the file into a chunked store, takes a
// full-window view, builds the microscopic model (|T| = 30), builds the
// aggregator (data cube) and runs the DP at p = 0.5.  The file is several
// times the last-level cache, so decoding streams from memory; the DP is a
// small share.  The oracle is a DpKernel::kReference run over the same
// file, computed once in set-up (it doubles as the warm-up operation).
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "bench.hpp"
#include "core/aggregator.hpp"
#include "model/builder.hpp"
#include "trace/binary_io.hpp"
#include "trace/trace_view.hpp"
#include "workload/scenarios.hpp"

namespace perfbench {
namespace {

/// Case C event-rate scale: ~5.8 M state intervals, a ~430 MiB STGT file
/// (4x a 105 MiB last-level cache).
constexpr double kScale = 0.18;
constexpr std::int32_t kSlices = 30;
constexpr double kP = 0.5;
constexpr int kSetups = 3;
/// Operations every run completes, however long they take.
constexpr std::uint64_t kMinOps = 3;

struct OpOutcome {
  Timed time;
  std::uint64_t intervals = 0;
  std::size_t store_bytes = 0;
  std::uint64_t signature = 0;
  double pic = 0.0;
  std::size_t areas = 0;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

Report run_batch_lu(const Args& args, SpanRecorder& spans) {
  using namespace stagg;
  Report rep;
  Samples samples;
  const std::string path = args.work_dir + "/batch-lu.stgt";

  // ---- Set-up, repeated: generate + write the trace file. ----------------
  std::unique_ptr<Hierarchy> hierarchy;
  std::uint64_t file_bytes = 0;
  for (int k = 0; k < kSetups; ++k) {
    const CpuWallTimer timer;
    GeneratedScenario g = generate_scenario(scenario_c(), kScale, args.seed);
    file_bytes = write_binary_trace(g.trace, path);
    const Timed t = timer.elapsed();
    samples.setup_cpu_s.push_back(t.cpu_s);
    samples.setup_wall_s.push_back(t.wall_s);
    hierarchy = std::move(g.hierarchy);
  }

  // ---- Oracle (and warm-up): the reference kernel over the same file. ----
  AggregationResult oracle;
  std::uint64_t oracle_intervals = 0;
  {
    const std::shared_ptr<TraceStore> store = read_binary_trace_store(path);
    oracle_intervals = store->state_count();
    const MicroscopicModel model =
        build_model(TraceView(store), *hierarchy, {.slice_count = kSlices});
    AggregationOptions ref_options;
    ref_options.kernel = DpKernel::kReference;
    SpatiotemporalAggregator ref(model, ref_options);
    oracle = ref.run(kP);
  }
  release_free_memory();
  const bool rss_reset = reset_peak_rss();

  // ---- One operation: file -> store -> view -> model -> cube -> DP. -----
  const auto run_op = [&](std::uint64_t op) {
    OpOutcome out;
    std::shared_ptr<TraceStore> store;
    std::optional<TraceView> view;
    std::optional<MicroscopicModel> model;
    std::optional<SpatiotemporalAggregator> agg;
    AggregationResult result;
    const CpuWallTimer timer;
    {
      ScopedSpan root(spans, "op", op);
      {
        ScopedSpan s(spans, "trace.decode", op);
        store = read_binary_trace_store(path);
      }
      {
        ScopedSpan s(spans, "trace.view", op);
        view.emplace(store);
      }
      {
        ScopedSpan s(spans, "model.build", op);
        model.emplace(build_model(*view, *hierarchy, {.slice_count = kSlices}));
      }
      {
        ScopedSpan s(spans, "core.cube", op);
        agg.emplace(*model);
      }
      {
        ScopedSpan s(spans, "core.dp", op);
        result = agg->run(kP);
        spans.add_child("core.cache", agg->cache_build_seconds());
      }
    }
    out.time = timer.elapsed();
    out.intervals = store->state_count();
    out.store_bytes = store->store_bytes();
    out.signature = result.partition.signature();
    out.pic = result.optimal_pic;
    out.areas = result.partition.size();
    return out;
  };

  // ---- Measured loop. ------------------------------------------------------
  double all_events = 0.0;
  std::vector<double> op_peaks_mb;
  std::optional<OpOutcome> first;
  double traced_cpu_s = 0.0;  // traced run: the pair's traced operation
  const CpuTicks ticks0 = cpu_ticks();
  const auto start = Clock::now();
  for (std::uint64_t op = 0;; ++op) {
    if (op >= kMinOps && seconds_between(start, Clock::now()) >= args.seconds) {
      break;
    }
    const bool traced = args.trace && op % 2 == 0;
    spans.set_enabled(traced);
    ++rep.attempted;
    reset_peak_rss();
    try {
      const OpOutcome o = run_op(op);
      spans.set_enabled(false);
      op_peaks_mb.push_back(peak_rss_mb());
      if (o.signature != oracle.partition.signature() ||
          !same_bits(o.pic, oracle.optimal_pic) ||
          o.intervals != oracle_intervals) {
        rep.fail("batch-lu op " + std::to_string(op) +
                 ": partition differs from the kReference oracle");
        continue;
      }
      if (!first) first = o;
      if (o.store_bytes != first->store_bytes || o.areas != first->areas) {
        rep.fail("batch-lu op " + std::to_string(op) +
                 ": work counts differ from the first operation");
        continue;
      }
      const auto events = static_cast<double>(2 * o.intervals);
      samples.add_op(o.time, events);
      all_events += events;
      // Every operation is the same work, so a traced operation and the
      // untraced one after it form a pair.
      if (traced) {
        traced_cpu_s = o.time.cpu_s;
      } else if (args.trace && traced_cpu_s > 0.0) {
        samples.overhead_ratios.push_back(traced_cpu_s / o.time.cpu_s);
        traced_cpu_s = 0.0;
      }
    } catch (const std::exception& e) {
      spans.set_enabled(false);
      rep.fail(std::string("batch-lu op ") + std::to_string(op) + ": " +
               e.what());
    }
  }
  samples.steal_pct = steal_pct(ticks0, cpu_ticks());
  samples.peak_rss_mb = median(op_peaks_mb);
  samples.set_rates(all_events);
  std::remove(path.c_str());

  rep.counts["trace.events"] = 2 * oracle_intervals;
  rep.counts["trace.file_bytes"] = file_bytes;
  rep.counts["core.dp.probes"] = 1;
  rep.counts["core.dp.levels"] = 1;
  rep.info["areas"] = first ? static_cast<double>(first->areas) : 0.0;
  rep.info["file_mib"] = static_cast<double>(file_bytes) / (1 << 20);
  rep.info["input_bytes"] = static_cast<double>(file_bytes);
  rep.info["rss_window_is_measure_phase"] = rss_reset ? 1.0 : 0.0;
  finish_report(rep, samples, args.trace);
  if (!args.trace) return rep;

  add_layer_metrics(rep, spans.spans(), "op");
  rep.metric("trace.decode_mb_per_s",
             static_cast<double>(file_bytes) / 1e6 /
                 rep.metrics.at("trace.decode_s").value,
             "MB/s");
  rep.metric("core.dp.levels_per_probe", 1.0, "ratio");
  const double store_bytes =
      first ? static_cast<double>(first->store_bytes) : 0.0;
  rep.metric("trace.resident_mb", store_bytes / (1 << 20), "MiB");
  rep.metric("trace.bytes_per_interval",
             store_bytes / static_cast<double>(oracle_intervals), "B");
  return rep;
}

}  // namespace perfbench
