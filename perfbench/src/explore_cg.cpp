// explore-cg: the interactive Ocelotl path on case A (CG class C, 64
// processes, event-rate scale 1/64).
//
// Set-up loads the scenario into a resident store.  One client then runs
// a closed loop of a fixed number of seeded zoom queries.  Each query
// selects a time window of the store, builds the microscopic model
// (|T| = 30), builds the aggregator and searches the significant
// aggregation levels.  A seeded quarter of the queries revisits an
// earlier window exactly, which must reproduce that query's result bit for
// bit.  For a seeded eighth of the queries every level's result at p_min
// is checked against a DpKernel::kReference run on the same model.
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/aggregator.hpp"
#include "core/dichotomy.hpp"
#include "model/builder.hpp"
#include "trace/trace_view.hpp"
#include "workload/scenarios.hpp"

namespace perfbench {
namespace {

constexpr double kScale = 1.0 / 64.0;
constexpr std::int32_t kSlices = 30;
constexpr int kSetups = 25;
/// Queries per run: kQueriesPerSecond x seconds, at least kCountPrefix.
/// A fixed count (not a time budget) keeps the query set of a seed the
/// same from run to run.
constexpr double kQueriesPerSecond = 8.0;
/// The exact counts cover this prefix of the queries.
constexpr std::uint64_t kCountPrefix = 32;
constexpr double kRevisitShare = 0.25;
constexpr std::uint64_t kOracleEvery = 8;

struct Window {
  stagg::TimeNs t0 = 0;
  stagg::TimeNs t1 = 0;
};

double unit_draw(stagg::SplitMix64& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Digest of a level search: probe count and every level's range, pIC and
/// partition signature.
std::uint64_t digest(const stagg::DichotomyResult& d) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(d.runs);
  for (const stagg::AggregationLevel& level : d.levels) {
    mix(bits(level.p_min));
    mix(bits(level.p_max));
    mix(bits(level.result.optimal_pic));
    mix(level.result.partition.signature());
  }
  return h;
}

}  // namespace

Report run_explore_cg(const Args& args, SpanRecorder& spans) {
  using namespace stagg;
  Report rep;
  Samples samples;

  // ---- Set-up, repeated: generate case A into a resident store. ----------
  std::unique_ptr<Hierarchy> hierarchy;
  std::shared_ptr<TraceStore> store;
  for (int k = 0; k < kSetups; ++k) {
    const CpuWallTimer timer;
    GeneratedScenario g = generate_scenario(scenario_a(), kScale, args.seed);
    g.trace.seal();
    std::shared_ptr<TraceStore> loaded = g.trace.store();
    const Timed t = timer.elapsed();
    samples.setup_cpu_s.push_back(t.cpu_s);
    samples.setup_wall_s.push_back(t.wall_s);
    hierarchy = std::move(g.hierarchy);
    store = std::move(loaded);
  }
  release_free_memory();
  const bool rss_reset = reset_peak_rss();

  // ---- Query stream. -------------------------------------------------------
  SplitMix64 rng(derive_seed(args.seed, 0xE5C0));
  std::vector<Window> history;
  std::map<std::pair<TimeNs, TimeNs>, std::uint64_t> digests;
  const TimeNs begin = store->begin();
  const double span = static_cast<double>(store->span());
  // New windows walk two low-discrepancy sequences from a seeded phase:
  // lengths over [0.3, 1.0] of the trace, start positions over the room
  // left.  Every seed so gets the same even spread of sizes and positions,
  // which keeps the run's cost mix steady from seed to seed.
  const double phase = unit_draw(rng);
  const auto next_query = [&](bool& revisit) {
    revisit = !history.empty() && unit_draw(rng) < kRevisitShare;
    if (revisit) {
      return history[static_cast<std::size_t>(rng.next() % history.size())];
    }
    const auto i = static_cast<double>(history.size());
    const double len = 0.3 + 0.7 * std::fmod(0.5 + 0.6180339887498949 * i, 1.0);
    const double start =
        (1.0 - len) * std::fmod(phase + 0.4142135623730950 * i, 1.0);
    Window w;
    w.t0 = begin + static_cast<TimeNs>(start * span);
    w.t1 = w.t0 + static_cast<TimeNs>(len * span);
    history.push_back(w);
    return w;
  };

  // One query: view -> model -> aggregator -> level search.
  struct Query {
    Timed time;
    std::uint64_t selected = 0;  ///< intervals the view selected
    MicroscopicModel model;
    DichotomyResult found;
  };
  const auto run_query = [&](const Window& w, std::uint64_t q) {
    Query out;
    std::optional<TraceView> view;
    std::optional<SpatiotemporalAggregator> agg;
    const CpuWallTimer timer;
    {
      ScopedSpan root(spans, "query", q);
      {
        ScopedSpan s(spans, "trace.view", q);
        view.emplace(store, w.t0, w.t1);
      }
      {
        ScopedSpan s(spans, "model.build", q);
        out.model = build_model(*view, *hierarchy,
                                {.slice_count = kSlices,
                                 .window_begin = w.t0,
                                 .window_end = w.t1});
      }
      {
        ScopedSpan s(spans, "core.cube", q);
        agg.emplace(out.model);
      }
      {
        ScopedSpan s(spans, "core.dp", q);
        out.found = find_significant_levels(*agg);
        spans.add_child("core.cache", agg->cache_build_seconds());
      }
    }
    out.time = timer.elapsed();
    out.selected = view->selected_count();
    return out;
  };

  double all_events = 0.0;
  std::vector<double> op_peaks_mb;
  std::uint64_t events = 0;
  std::uint64_t probes = 0;
  std::uint64_t levels = 0;
  std::uint64_t revisits = 0;
  std::uint64_t oracle_checks = 0;
  const auto n_queries = std::max<std::uint64_t>(
      kCountPrefix, static_cast<std::uint64_t>(
                        std::llround(kQueriesPerSecond * args.seconds)));
  const CpuTicks ticks0 = cpu_ticks();
  for (std::uint64_t q = 0; q < n_queries; ++q) {
    bool revisit = false;
    const Window w = next_query(revisit);
    const bool check = rng.next() % kOracleEvery == 0;
    ++rep.attempted;
    try {
      // The traced run traces every query.  Every other query also runs
      // untraced on the same window, before or after the traced run by
      // turns, to measure the tracing overhead on the same work.
      const bool twin = args.trace && q % 2 == 0;
      std::optional<Query> untraced;
      if (twin && q % 4 == 0) untraced = run_query(w, q);
      spans.set_enabled(args.trace);
      reset_peak_rss();
      const Query query = run_query(w, q);
      spans.set_enabled(false);
      op_peaks_mb.push_back(peak_rss_mb());
      if (twin && q % 4 != 0) untraced = run_query(w, q);

      // Checks, outside the timed region.
      const std::uint64_t d = digest(query.found);
      const auto [it, inserted] = digests.emplace(std::pair{w.t0, w.t1}, d);
      if ((!inserted && it->second != d) ||
          (untraced && digest(untraced->found) != d)) {
        rep.fail("explore-cg query " + std::to_string(q) +
                 ": the same window gave a different result");
        continue;
      }
      revisits += revisit ? 1 : 0;
      if (check) {
        ++oracle_checks;
        AggregationOptions ref_options;
        ref_options.kernel = DpKernel::kReference;
        SpatiotemporalAggregator ref(query.model, ref_options);
        bool same = !query.found.levels.empty();
        for (const AggregationLevel& level : query.found.levels) {
          const AggregationResult r = ref.run(level.p_min);
          same = same && bits(r.optimal_pic) ==
                             bits(level.result.optimal_pic) &&
                 r.partition.signature() ==
                     level.result.partition.signature();
        }
        if (!same) {
          rep.fail("explore-cg query " + std::to_string(q) +
                   ": a level differs from the kReference oracle");
          continue;
        }
      }
      const std::uint64_t selected = 2 * query.selected;
      if (q < kCountPrefix) {
        events += selected;
        probes += query.found.runs;
        levels += query.found.levels.size();
      }
      samples.add_op(query.time, static_cast<double>(selected));
      all_events += static_cast<double>(selected);
      if (untraced) {
        samples.overhead_ratios.push_back(query.time.cpu_s /
                                          untraced->time.cpu_s);
      }
    } catch (const std::exception& e) {
      spans.set_enabled(false);
      rep.fail("explore-cg query " + std::to_string(q) + ": " + e.what());
    }
  }
  samples.steal_pct = steal_pct(ticks0, cpu_ticks());
  samples.peak_rss_mb = median(op_peaks_mb);
  samples.set_rates(all_events);

  rep.counts["trace.events"] = events;
  rep.counts["core.dp.probes"] = probes;
  rep.counts["core.dp.levels"] = levels;
  rep.info["revisits"] = static_cast<double>(revisits);
  rep.info["oracle_checks"] = static_cast<double>(oracle_checks);
  rep.info["store_intervals"] = static_cast<double>(store->state_count());
  rep.info["input_bytes"] = static_cast<double>(store->store_bytes());
  rep.info["rss_window_is_measure_phase"] = rss_reset ? 1.0 : 0.0;

  finish_report(rep, samples, args.trace);
  if (!args.trace) return rep;

  add_layer_metrics(rep, spans.spans(), "query");
  rep.metric("core.dp.levels_per_probe",
             static_cast<double>(levels) /
                 static_cast<double>(std::max<std::uint64_t>(probes, 1)),
             "ratio");
  const auto store_bytes = static_cast<double>(store->store_bytes());
  rep.metric("trace.resident_mb", store_bytes / (1 << 20), "MiB");
  rep.metric("trace.bytes_per_interval",
             store_bytes / static_cast<double>(store->state_count()), "B");
  return rep;
}

}  // namespace perfbench
