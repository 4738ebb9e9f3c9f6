// Bench: sharded engine (ShardedTraceStore + partitioned DataCube fold +
// per-shard MeasureCache schedule) at S > 1 vs the default S = 1 manager
// over the same workloads.
//
// Each configuration attaches one sliding-window session to a
// SessionManager — the default one over a plain TraceStore (S = 1), or one
// spanning S ∈ {2, 4, 8} resource shards — and pays the same two costs that
// sharding targets: the initial cache build (model + cube fold +
// measure cache + first DP sweep, timed by add_session) and a series of
// live advance rounds (ingest + seal + refold + incremental DP, timed by
// slide_all).  Workloads: a >= 256-leaf balanced synthetic platform and the
// paper's NAS-LU behavioural model (heterogeneous clusters, scripted
// rupture).
//
// Results are gated bit-identical across every shard count (the oracle of
// tests/test_shard.cpp re-checked at bench scale), and the S = 1 final
// round against a from-scratch kReference run over a view of a plain
// TraceStore, so the sharded facade is never its own oracle.  Acceptance bar:
// sharded cache build + advance >= 1.5x the S = 1 manager at S = 4 — active
// on >= 6 hardware threads (per-shard work must actually parallelize),
// reported-but-waived below that, like BENCH_ingest's pipeline bar.
//
// The SIMD-rider measurement times the DP sweep of the same sharded model
// at lane widths 4 and 8 (the transposed, lane-interleaved count layout
// makes the tie-break scan width-scalable), alternating the two widths
// sample by sample so host drift lands on both, and reports the medians.
// --smoke emits BENCH_shard.json for CI.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bench_info.hpp"
#include "common/cli.hpp"
#include "common/stopwatch.hpp"
#include "core/session_manager.hpp"
#include "hierarchy/hierarchy.hpp"
#include "hierarchy/platform.hpp"
#include "hierarchy/shard_plan.hpp"
#include "model/builder.hpp"
#include "trace/sharded_store.hpp"
#include "trace/stream_decode.hpp"
#include "trace/trace_view.hpp"
#include "workload/nas_lu.hpp"
#include "workload/stream_split.hpp"
#include "workload/synthetic.hpp"

namespace stagg {
namespace {

bool results_equal(const std::vector<AggregationResult>& a,
                   const std::vector<AggregationResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].optimal_pic != b[k].optimal_pic ||
        a[k].partition.signature() != b[k].partition.signature() ||
        a[k].measures.gain != b[k].measures.gain ||
        a[k].measures.loss != b[k].measures.loss) {
      return false;
    }
  }
  return true;
}

struct Workload {
  std::string name;
  Hierarchy hierarchy;
  Trace whole;
};

/// One manager configuration measured end to end.
struct ConfigTiming {
  std::size_t shards = 1;
  double build_s = 0.0;    ///< add_session: model + cube + cache + first DP
  double advance_s = 0.0;  ///< all ingest + slide rounds
  double cache_build_s = 0.0;  ///< the measure-cache share of build_s
  /// Per-round results retained for the cross-config identity gate.
  std::vector<std::vector<AggregationResult>> rounds;
  TimeGrid final_window;  ///< the session's window after the last round
  [[nodiscard]] double total_s() const { return build_s + advance_s; }
};

ConfigTiming run_config(const Workload& w, std::size_t shards, TimeNs horizon,
                        const TimeGrid& window, const std::vector<double>& ps,
                        int rounds, TimeNs round_dt) {
  ConfigTiming t;
  t.shards = shards;

  TraceSplit split = split_trace_at(w.whole, horizon);
  split.initial.seal();
  // S = 1 is the constructor users get: the plain store as the only shard.
  std::unique_ptr<SessionManager> manager;
  if (shards == 1) {
    manager = std::make_unique<SessionManager>(w.hierarchy,
                                               split.initial.store());
  } else {
    manager = std::make_unique<SessionManager>(
        w.hierarchy,
        std::make_shared<ShardedTraceStore>(
            w.hierarchy, std::make_shared<ShardPlan>(w.hierarchy, shards),
            *split.initial.store()));
  }

  SessionSpec spec;
  spec.window = window;
  spec.ps = ps;
  {
    Stopwatch sw;
    manager->add_session(spec);
    t.build_s = sw.seconds();
  }
  t.cache_build_s = manager->session(0).aggregator().cache_build_seconds();
  t.rounds.push_back(manager->session(0).results());

  TraceSplit stream = split_trace_at(w.whole, horizon);
  std::size_t next = 0;
  Stopwatch sw;
  for (int round = 0; round < rounds; ++round) {
    const TimeNs frontier = horizon + round_dt * (round + 1);
    std::vector<EventRecord> batch;
    for (; next < stream.future.size() &&
           stream.future[next].second.begin < frontier;
         ++next) {
      const auto& [r, s] = stream.future[next];
      batch.push_back({r, s.state, s.begin, s.end});
    }
    manager->ingest(batch);
    manager->slide_all(1);
    t.rounds.push_back(manager->session(0).results());
  }
  t.advance_s = sw.seconds();
  t.final_window = manager->session(0).window();
  return t;
}

/// The final round recomputed from scratch by the kReference kernel over a
/// view of a plain TraceStore holding the same events the managers ingested
/// (everything beginning before `frontier`), never through the facade.
std::vector<AggregationResult> plain_store_reference(
    const Workload& w, TimeNs horizon, TimeNs frontier,
    const TimeGrid& window, const std::vector<double>& ps) {
  TraceSplit split = split_trace_at(w.whole, horizon);
  const std::shared_ptr<TraceStore> store = split.initial.store();
  for (const auto& [r, s] : split.future) {
    if (s.begin >= frontier) break;
    store->add_state(r, s.state, s.begin, s.end);
  }
  store->seal_chunk();
  ModelBuildOptions build;
  build.slice_count = window.slice_count();
  build.window_begin = window.begin();
  build.window_end = window.end();
  const MicroscopicModel model = build_model(
      TraceView(store, window.begin(), window.end()), w.hierarchy, build);
  AggregationOptions opt;
  opt.kernel = DpKernel::kReference;
  SpatiotemporalAggregator agg(model, opt);
  return agg.run_many(ps);
}

int run(int argc, const char* const* argv) {
  Cli cli("bench_shard",
          "sharded engine (per-shard stores + partitioned DP fold) vs the "
          "default S = 1 manager: cache build + advance wall time over a "
          "256-leaf synthetic platform and the NAS-LU workload, gated "
          "bit-identical at every shard count");
  cli.option("slices", "", "window slice count |T| (default 32, smoke 24)");
  cli.option("rounds", "", "live advance rounds (default 8, smoke 4)");
  cli.option("mean-ms", "", "synthetic mean state duration in ms "
                            "(default 1.0, smoke 4.0)");
  cli.option("lu-cores", "", "NAS-LU platform cores (default 120, smoke 48)");
  cli.option("lu-event-div", "", "NAS-LU event divisor vs the paper's full "
                                 "scale (default 64, smoke 256)");
  cli.option("json", "", "write a JSON summary to this path");
  cli.flag("smoke", "reduced model + BENCH_shard.json (CI mode)");
  if (!cli.parse(argc, argv)) return 1;

  const bool smoke = cli.get_flag("smoke");
  const auto slices = static_cast<std::int32_t>(
      cli.get("slices").empty() ? (smoke ? 24 : 32)
                                : std::max<std::int64_t>(
                                      8, cli.get_int("slices")));
  const int rounds = cli.get("rounds").empty()
                         ? (smoke ? 4 : 8)
                         : static_cast<int>(std::max<std::int64_t>(
                               2, cli.get_int("rounds")));
  const double mean_ms =
      cli.get("mean-ms").empty()
          ? (smoke ? 4.0 : 1.0)
          : std::max(0.05, cli.get_double("mean-ms"));
  const auto lu_cores = static_cast<std::int32_t>(
      cli.get("lu-cores").empty() ? (smoke ? 48 : 120)
                                  : std::max<std::int64_t>(
                                        8, cli.get_int("lu-cores")));
  const double lu_event_div =
      cli.get("lu-event-div").empty()
          ? (smoke ? 256.0 : 64.0)
          : static_cast<double>(
                std::max<std::int64_t>(1, cli.get_int("lu-event-div")));
  std::string json_path = cli.get("json");
  if (smoke && json_path.empty()) json_path = "BENCH_shard.json";

  const std::vector<std::size_t> shard_counts = {2, 4, 8};
  const std::vector<double> ps = {0.25, 0.5, 0.75};
  const TimeNs dt = seconds(0.5);
  const TimeGrid window(0, dt * slices, slices);
  const TimeNs horizon = window.end() + dt;

  std::vector<Workload> workloads;
  {
    // >= 256-leaf synthetic platform: 4 levels x fanout 4.
    Workload w;
    w.name = "synthetic256";
    w.hierarchy = make_balanced_hierarchy(4, 4);
    const double span_s = to_seconds(horizon + dt * (rounds + 2));
    const auto programmer = [&](LeafId leaf) {
      ResourceProgram p;
      StatePattern pattern;
      for (std::int32_t x = 0; x < 4; ++x) {
        const double mean =
            mean_ms * 1e-3 *
            (1.0 + 0.5 * static_cast<double>((leaf + x) % 3));
        pattern.elements.push_back({"state" + std::to_string(x), mean, 0.35});
      }
      p.phases.push_back({0.0, span_s, std::move(pattern)});
      return p;
    };
    w.whole = generate_trace(w.hierarchy, programmer, 0x5A4D);
    w.whole.seal();
    workloads.push_back(std::move(w));
  }
  {
    // NAS-LU over the paper's Nancy platform (case C), scaled down.
    Workload w;
    w.name = "nas_lu";
    const PlatformSpec platform = grid5000_nancy().scaled_to(lu_cores);
    w.hierarchy = platform.build_hierarchy();
    LuWorkloadOptions opt;
    opt.event_scale = 1.0 / lu_event_div;
    w.whole = generate_lu_trace(w.hierarchy, platform, opt);
    w.whole.seal();
    workloads.push_back(std::move(w));
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // The 1.5x bar needs the per-shard seal/fold/cache tasks of S = 4 plus
  // the session's own DP parallelism to actually overlap.
  const bool bar_active = hw >= 6;
  const double speedup_bar = 1.5;

  std::printf("=== Sharded engine: per-shard stores + partitioned DP fold "
              "===\n\n");
  std::printf("|T| = %d, %d advance rounds, %u hardware threads\n\n", slices,
              rounds, hw);

  bool all_identical = true;
  double min_s4_speedup = 1e300;
  struct WorkloadReport {
    std::string name;
    std::size_t leaves = 0;
    std::uint64_t events = 0;
    ConfigTiming base;
    std::vector<ConfigTiming> sharded;
  };
  std::vector<WorkloadReport> reports;

  for (const Workload& w : workloads) {
    WorkloadReport rep;
    rep.name = w.name;
    rep.leaves = w.hierarchy.leaf_count();
    rep.events = w.whole.store()->state_count();
    std::printf("--- %s: %zu leaves, %.2f M events ---\n", w.name.c_str(),
                rep.leaves, static_cast<double>(rep.events) / 1e6);

    rep.base = run_config(w, 1, horizon, window, ps, rounds, dt);
    std::printf("  S = 1 shard : build %7.1f ms + advance %7.1f ms = "
                "%7.1f ms\n",
                rep.base.build_s * 1e3, rep.base.advance_s * 1e3,
                rep.base.total_s() * 1e3);
    const bool base_matches_reference = results_equal(
        rep.base.rounds.back(),
        plain_store_reference(w, horizon, horizon + dt * rounds,
                              rep.base.final_window, ps));
    all_identical = all_identical && base_matches_reference;
    std::printf("  S = 1 final round vs kReference over a plain store: "
                "[%s]\n",
                base_matches_reference ? "bit-identical" : "MISMATCH (BUG)");
    for (const std::size_t s : shard_counts) {
      ConfigTiming t = run_config(w, s, horizon, window, ps, rounds, dt);
      const double speedup = rep.base.total_s() / std::max(t.total_s(), 1e-12);
      bool identical = t.rounds.size() == rep.base.rounds.size();
      for (std::size_t k = 0; identical && k < t.rounds.size(); ++k) {
        identical = results_equal(t.rounds[k], rep.base.rounds[k]);
      }
      all_identical = all_identical && identical;
      if (s == 4) min_s4_speedup = std::min(min_s4_speedup, speedup);
      std::printf("  S = %zu shards: build %7.1f ms + advance %7.1f ms = "
                  "%7.1f ms  (%.2fx)  [%s]\n",
                  s, t.build_s * 1e3, t.advance_s * 1e3, t.total_s() * 1e3,
                  speedup, identical ? "bit-identical" : "MISMATCH (BUG)");
      rep.sharded.push_back(std::move(t));
    }
    std::printf("\n");
    reports.push_back(std::move(rep));
  }

  // ---- SIMD rider: DP sweep at lane widths 4 vs 8 over the sharded model.
  // The lane-interleaved count mirror makes the tie-break scan a
  // contiguous W-wide pass; this measures whether W = 8 pays off here.
  // Samples alternate widths (and which width goes first in each pair),
  // so drift between samples cannot favour one width.
  double lanes4_s = 0.0;
  double lanes8_s = 0.0;
  {
    const Workload& w = workloads.front();
    const ShardPlan plan(w.hierarchy, 4);
    auto store = std::make_shared<TraceStore>(*w.whole.store());
    store->seal_chunk();
    ModelBuildOptions build;
    build.slice_count = slices;
    build.window_begin = window.begin();
    build.window_end = window.end();
    const MicroscopicModel model = build_model(
        TraceView(store, window.begin(), window.end()), w.hierarchy, build);
    const std::vector<double> wide_ps = {0.0,  0.15, 0.3,  0.45,
                                         0.55, 0.7,  0.85, 1.0};
    const auto make_agg = [&](std::size_t lanes) {
      AggregationOptions opt;
      opt.shard_plan = &plan;
      opt.max_lanes = lanes;
      return SpatiotemporalAggregator(model, opt);
    };
    SpatiotemporalAggregator agg4 = make_agg(4);
    SpatiotemporalAggregator agg8 = make_agg(8);
    // Pay both cache builds outside the timer.
    const auto r4 = agg4.run_many(wide_ps);
    const auto r8 = agg8.run_many(wide_ps);
    all_identical = all_identical && results_equal(r4, r8);
    const auto time_sweep = [&](SpatiotemporalAggregator& agg) {
      Stopwatch sw;
      const auto results = agg.run_many(wide_ps);
      const double elapsed = sw.seconds();
      all_identical = all_identical && results_equal(results, r4);
      return elapsed;
    };
    constexpr int kLaneSamples = 7;
    std::vector<double> t4;
    std::vector<double> t8;
    for (int k = 0; k < kLaneSamples; ++k) {
      if (k % 2 == 0) {
        t4.push_back(time_sweep(agg4));
        t8.push_back(time_sweep(agg8));
      } else {
        t8.push_back(time_sweep(agg8));
        t4.push_back(time_sweep(agg4));
      }
    }
    const auto median = [](std::vector<double> v) {
      std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
      return v[v.size() / 2];
    };
    lanes4_s = median(t4);
    lanes8_s = median(t8);
    std::printf("lane width (8 probes, S = 4 plan, median of %d alternating "
                "samples): W = 4 %.1f ms, W = 8 %.1f ms -> %s\n",
                kLaneSamples, lanes4_s * 1e3, lanes8_s * 1e3,
                lanes8_s < lanes4_s ? "wider lanes win here"
                                    : "W = 4 stays the default");
  }

  const bool meets_bar = !bar_active || min_s4_speedup >= speedup_bar;
  if (bar_active) {
    std::printf("\nS = 4 speedup: %.2fx  (bar >= %.1fx)  [%s]\n",
                min_s4_speedup, speedup_bar, meets_bar ? "ok" : "MISS");
  } else {
    std::printf("\nS = 4 speedup: %.2fx  (bar >= %.1fx waived: %u hardware "
                "threads < 6 cannot parallelize the per-shard work)\n",
                min_s4_speedup, speedup_bar, hw);
  }
  std::printf("equivalence  : %s\n",
              all_identical ? "bit-identical at every shard count"
                            : "MISMATCH (BUG)");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    char buf[64];
    out << "{\n  \"bench\": \"shard\",\n";
    out << bench_info_json();
    out << "  \"slices\": " << slices << ",\n";
    out << "  \"rounds\": " << rounds << ",\n";
    out << "  \"workloads\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const WorkloadReport& rep = reports[i];
      out << "    {\n      \"name\": \"" << rep.name << "\",\n";
      out << "      \"leaves\": " << rep.leaves << ",\n";
      out << "      \"events\": " << rep.events << ",\n";
      std::snprintf(buf, sizeof buf, "%.6g", rep.base.total_s());
      out << "      \"s1_total_s\": " << buf << ",\n";
      std::snprintf(buf, sizeof buf, "%.6g", rep.base.cache_build_s);
      out << "      \"s1_cache_build_s\": " << buf << ",\n";
      out << "      \"sharded\": [\n";
      for (std::size_t k = 0; k < rep.sharded.size(); ++k) {
        const ConfigTiming& t = rep.sharded[k];
        out << "        {\"shards\": " << t.shards << ", \"total_s\": ";
        std::snprintf(buf, sizeof buf, "%.6g", t.total_s());
        out << buf << ", \"cache_build_s\": ";
        std::snprintf(buf, sizeof buf, "%.6g", t.cache_build_s);
        out << buf << ", \"speedup\": ";
        std::snprintf(buf, sizeof buf, "%.6g",
                      rep.base.total_s() / std::max(t.total_s(), 1e-12));
        out << buf << "}";
        out << (k + 1 < rep.sharded.size() ? ",\n" : "\n");
      }
      out << "      ]\n    }" << (i + 1 < reports.size() ? ",\n" : "\n");
    }
    out << "  ],\n";
    std::snprintf(buf, sizeof buf, "%.6g", min_s4_speedup);
    out << "  \"s4_speedup\": " << buf << ",\n";
    std::snprintf(buf, sizeof buf, "%.6g", speedup_bar);
    out << "  \"s4_speedup_bar\": " << buf << ",\n";
    out << "  \"s4_speedup_bar_active\": " << (bar_active ? "true" : "false")
        << ",\n";
    out << "  \"meets_s4_speedup_bar\": " << (meets_bar ? "true" : "false")
        << ",\n";
    std::snprintf(buf, sizeof buf, "%.6g", lanes4_s);
    out << "  \"dp_lanes4_s\": " << buf << ",\n";
    std::snprintf(buf, sizeof buf, "%.6g", lanes8_s);
    out << "  \"dp_lanes8_s\": " << buf << ",\n";
    out << "  \"wider_lanes_win\": "
        << (lanes8_s < lanes4_s ? "true" : "false") << ",\n";
    out << "  \"bit_identical\": " << (all_identical ? "true" : "false")
        << "\n}\n";
    std::printf("summary written to %s\n", json_path.c_str());
  }

  return all_identical && meets_bar ? 0 : 2;
}

}  // namespace
}  // namespace stagg

int main(int argc, char** argv) { return stagg::run(argc, argv); }
