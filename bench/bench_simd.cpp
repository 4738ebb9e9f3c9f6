// Bench: the SIMD kernel layer (common/simd.hpp) against its scalar twins
// on the three vectorized hot paths.
//
//   dp_fold      — run_many at lane width W = 4 with AggregationOptions::
//                  use_simd on vs off: the vectorized per-cell multiply-add
//                  + tie-break screen against the always-compiled scalar
//                  instantiation, over a wide-|X| churn model.
//   cache_build  — DataCube::measures_column_into (the f64x4 across-|X|
//                  column kernel feeding MeasureCache::build) vs
//                  measures_column_reference_into over every (node, column)
//                  of the same cube.
//   codec row    — the trace/codec_kernels.hpp dictionary-index kernel
//                  against its codec::ref twin on a synthetic column.
//
// Every comparison is gated bit-identical: the wrappers batch independent
// lanes/columns and never reorder an accumulation chain, so SIMD-on and
// SIMD-off must produce byte-equal results (the tests/test_simd.cpp
// contract, re-checked here at bench scale).  Acceptance bar: dp_fold and
// cache_build >= 1.5x — active only when the build actually compiled a
// vector level (simd::kEnabled); a scalar-forced build (STAGG_SIMD=OFF)
// reports the ratios (~1.0x) with the bar waived, like BENCH_shard's
// thread-count waiver.  --smoke emits BENCH_simd.json for CI.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/bench_info.hpp"
#include "common/cli.hpp"
#include "common/simd.hpp"
#include "common/stopwatch.hpp"
#include "core/aggregator.hpp"
#include "hierarchy/hierarchy.hpp"
#include "model/builder.hpp"
#include "trace/codec_kernels.hpp"
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

/// Best-of-rounds wall time of `fn` (the usual bench idiom: the minimum
/// filters scheduler noise on short kernels).
template <class Fn>
double best_of(int rounds, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < rounds; ++r) {
    Stopwatch sw;
    fn();
    best = std::min(best, sw.seconds());
  }
  return best;
}

struct CodecRow {
  const char* kernel;
  double simd_s = 0.0;
  double scalar_s = 0.0;
  [[nodiscard]] double speedup() const {
    return scalar_s / std::max(simd_s, 1e-12);
  }
};

int run(int argc, const char* const* argv) {
  Cli cli("bench_simd",
          "vectorized DP fold, measure-cache column kernel and codec "
          "pre-pass vs their scalar twins, gated bit-identical");
  cli.option("slices", "", "window slice count |T| (default 48, smoke 28)");
  cli.option("states", "", "churn state count |X| (default 64, min 16)");
  cli.option("rounds", "", "timing rounds, best-of (default 9, smoke 7)");
  cli.option("json", "", "write a JSON summary to this path");
  cli.flag("smoke", "reduced model + BENCH_simd.json (CI mode)");
  if (!cli.parse(argc, argv)) return 1;

  const bool smoke = cli.get_flag("smoke");
  const auto slices = static_cast<std::int32_t>(
      cli.get("slices").empty()
          ? (smoke ? 28 : 48)
          : std::max<std::int64_t>(8, cli.get_int("slices")));
  const auto states = static_cast<std::int32_t>(
      cli.get("states").empty()
          ? 64
          : std::max<std::int64_t>(16, cli.get_int("states")));
  // The kernels are sub-millisecond, so extra rounds are nearly free —
  // smoke keeps the same best-of depth as the full run to stay stable on
  // noisy shared CI hosts (a cold best-of-3 can dip under the bar).
  const int rounds = cli.get("rounds").empty()
                         ? (smoke ? 7 : 9)
                         : static_cast<int>(std::max<std::int64_t>(
                               1, cli.get_int("rounds")));
  std::string json_path = cli.get("json");
  if (smoke && json_path.empty()) json_path = "BENCH_simd.json";

  // The bar only binds when the build compiled a vector level: in a
  // scalar-forced build both settings of use_simd run the same scalar
  // code and the ratio is noise around 1.0x.
  const bool bar_active = simd::kEnabled;
  const double speedup_bar = 1.5;

  std::printf("=== SIMD kernel layer: vectorized kernels vs scalar twins "
              "===\n\n");
  std::printf("dispatch level: %s%s, |T| = %d, |X| = %d, best of %d\n\n",
              simd::level_name(), bar_active ? "" : " (bar waived)", slices,
              states, rounds);

  // Wide-|X| churn workload: 16 leaves x `states` states keeps the
  // across-|X| loops wide with a non-multiple-of-4 tail when |X| % 4 != 0.
  const Hierarchy h = make_balanced_hierarchy(2, 4);
  const double span_s = smoke ? 1.5 : 4.0;
  Trace trace = generate_trace(h, make_churn_programmer(states, span_s),
                               0x51D0);
  ModelBuildOptions build;
  build.slice_count = slices;
  const MicroscopicModel model = build_model(trace, h, build);

  bool identical = true;

  // ---- dp_fold: W = 4 lane wave, use_simd on vs off --------------------
  const std::vector<double> ps = {0.1, 0.35, 0.6, 0.85};
  double dp_simd_s = 0.0;
  double dp_scalar_s = 0.0;
  {
    const auto time_dp = [&](bool use_simd,
                             std::vector<AggregationResult>& out) {
      AggregationOptions opt;
      opt.max_lanes = 4;
      opt.use_simd = use_simd;
      SpatiotemporalAggregator agg(model, opt);
      out = agg.run_many(ps);  // pays the measure-cache build once
      return best_of(rounds, [&] { out = agg.run_many(ps); });
    };
    std::vector<AggregationResult> r_simd;
    std::vector<AggregationResult> r_scalar;
    dp_simd_s = time_dp(true, r_simd);
    dp_scalar_s = time_dp(false, r_scalar);
    identical = identical && results_equal(r_simd, r_scalar);

    // The scalar twin is itself pinned to the reference kernel by the
    // equivalence suite; re-check the whole chain here at bench scale.
    AggregationOptions ref_opt;
    ref_opt.kernel = DpKernel::kReference;
    SpatiotemporalAggregator ref_agg(model, ref_opt);
    identical = identical && results_equal(ref_agg.run_many(ps), r_simd);
  }
  const double dp_speedup = dp_scalar_s / std::max(dp_simd_s, 1e-12);
  std::printf("dp_fold      (W = 4): simd %8.2f ms, scalar %8.2f ms -> "
              "%.2fx\n",
              dp_simd_s * 1e3, dp_scalar_s * 1e3, dp_speedup);

  // ---- cache_build: the f64x4 column kernel vs the reference twin ------
  double cache_simd_s = 0.0;
  double cache_scalar_s = 0.0;
  {
    const DataCube cube(model);
    const std::size_t node_count = h.node_count();
    std::vector<AreaMeasures> col(static_cast<std::size_t>(slices));
    std::vector<AreaMeasures> ref_col(static_cast<std::size_t>(slices));
    const auto sweep = [&](auto&& kernel, std::vector<AreaMeasures>& buf) {
      for (std::size_t node = 0; node < node_count; ++node) {
        for (SliceId j = 0; j < slices; ++j) {
          kernel(static_cast<NodeId>(node), j,
                 std::span<AreaMeasures>(buf.data(),
                                         static_cast<std::size_t>(j) + 1));
        }
      }
    };
    cache_simd_s = best_of(rounds, [&] {
      sweep([&](NodeId n, SliceId j,
                std::span<AreaMeasures> out) {
        cube.measures_column_into(n, j, out);
      }, col);
    });
    cache_scalar_s = best_of(rounds, [&] {
      sweep([&](NodeId n, SliceId j,
                std::span<AreaMeasures> out) {
        cube.measures_column_reference_into(n, j, out);
      }, ref_col);
    });
    // Bit-identity of the full last column per node (the sweeps above end
    // on column |T|-1, so both buffers hold it).
    for (std::size_t k = 0; k < col.size(); ++k) {
      identical = identical && col[k].gain == ref_col[k].gain &&
                  col[k].loss == ref_col[k].loss;
    }
  }
  const double cache_speedup = cache_scalar_s / std::max(cache_simd_s, 1e-12);
  std::printf("cache_build  (|X| = %d): simd %8.2f ms, scalar %8.2f ms -> "
              "%.2fx\n",
              states, cache_simd_s * 1e3, cache_scalar_s * 1e3,
              cache_speedup);

  // ---- codec row: the dictionary-index kernel vs its codec::ref twin.
  // No bar; it is reported so a regression of the one vector codec
  // kernel shows. ----------------------------------------------------------
  std::vector<CodecRow> codec_rows;
  {
    const std::size_t n = smoke ? (std::size_t{1} << 15) : (std::size_t{1} << 17);
    std::vector<std::int32_t> col_state(n);
    for (std::size_t i = 0; i < n; ++i) {
      col_state[i] = static_cast<std::int32_t>((i * 7) % 64) * 3 + 1;
    }
    std::vector<std::int32_t> dict(64);
    for (std::size_t d = 0; d < dict.size(); ++d) {
      dict[d] = static_cast<std::int32_t>(d) * 3 + 1;
    }
    simd::AlignedVec<std::int32_t> idx_a(n);
    simd::AlignedVec<std::int32_t> idx_b(n);
    const int codec_rounds = rounds * 3;

    CodecRow dict_row{"dict_indices"};
    dict_row.simd_s = best_of(codec_rounds, [&] {
      codec::dict_indices(col_state.data(), n, dict.data(), dict.size(),
                          idx_a.data());
    });
    dict_row.scalar_s = best_of(codec_rounds, [&] {
      codec::ref::dict_indices(col_state.data(), n, dict.data(), dict.size(),
                               idx_b.data());
    });
    identical = identical &&
                std::equal(idx_a.begin(), idx_a.end(), idx_b.begin());
    codec_rows.push_back(dict_row);

    for (const CodecRow& row : codec_rows) {
      std::printf("codec %-14s: simd %8.3f ms, scalar %8.3f ms -> %.2fx\n",
                  row.kernel, row.simd_s * 1e3, row.scalar_s * 1e3,
                  row.speedup());
    }
  }

  const bool meets_dp_bar = !bar_active || dp_speedup >= speedup_bar;
  const bool meets_cache_bar = !bar_active || cache_speedup >= speedup_bar;
  if (bar_active) {
    std::printf("\ndp_fold %.2fx, cache_build %.2fx  (bar >= %.1fx)  [%s]\n",
                dp_speedup, cache_speedup,
                speedup_bar,
                meets_dp_bar && meets_cache_bar ? "ok" : "MISS");
  } else {
    std::printf("\ndp_fold %.2fx, cache_build %.2fx  (bar >= %.1fx waived: "
                "scalar-forced build)\n",
                dp_speedup, cache_speedup, speedup_bar);
  }
  std::printf("equivalence  : %s\n",
              identical ? "bit-identical across every kernel pair"
                        : "MISMATCH (BUG)");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    char buf[64];
    const auto put = [&](const char* key, double v, const char* tail) {
      std::snprintf(buf, sizeof buf, "%.6g", v);
      out << "  \"" << key << "\": " << buf << tail;
    };
    out << "{\n  \"bench\": \"simd\",\n";
    out << bench_info_json();
    out << "  \"slices\": " << slices << ",\n";
    out << "  \"states\": " << states << ",\n";
    out << "  \"lanes\": 4,\n";
    put("dp_fold_simd_s", dp_simd_s, ",\n");
    put("dp_fold_scalar_s", dp_scalar_s, ",\n");
    put("dp_fold_speedup", dp_speedup, ",\n");
    put("cache_build_simd_s", cache_simd_s, ",\n");
    put("cache_build_scalar_s", cache_scalar_s, ",\n");
    put("cache_build_speedup", cache_speedup, ",\n");
    out << "  \"codec\": [\n";
    for (std::size_t k = 0; k < codec_rows.size(); ++k) {
      const CodecRow& row = codec_rows[k];
      out << "    {\"kernel\": \"" << row.kernel << "\", \"simd_s\": ";
      std::snprintf(buf, sizeof buf, "%.6g", row.simd_s);
      out << buf << ", \"scalar_s\": ";
      std::snprintf(buf, sizeof buf, "%.6g", row.scalar_s);
      out << buf << ", \"speedup\": ";
      std::snprintf(buf, sizeof buf, "%.6g", row.speedup());
      out << buf << "}" << (k + 1 < codec_rows.size() ? ",\n" : "\n");
    }
    out << "  ],\n";
    put("speedup_bar", speedup_bar, ",\n");
    out << "  \"speedup_bar_active\": " << (bar_active ? "true" : "false")
        << ",\n";
    out << "  \"meets_dp_fold_bar\": " << (meets_dp_bar ? "true" : "false")
        << ",\n";
    out << "  \"meets_cache_build_bar\": "
        << (meets_cache_bar ? "true" : "false") << ",\n";
    out << "  \"bit_identical\": " << (identical ? "true" : "false")
        << "\n}\n";
    std::printf("summary written to %s\n", json_path.c_str());
  }

  return identical && meets_dp_bar && meets_cache_bar ? 0 : 2;
}

}  // namespace
}  // namespace stagg

int main(int argc, char** argv) { return stagg::run(argc, argv); }
