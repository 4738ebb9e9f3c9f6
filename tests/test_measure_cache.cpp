// Equivalence suite for the measure cache and the cached wavefront kernel.
//
// The contract of the perf work is *exactness*: the MeasureCache holds
// bit-identical copies of DataCube::measures, and the cached wavefront DP
// (MeasureCache + column-major mirror + flat scans + arena reuse) produces
// bit-identical optimal pIC values and identical partition signatures to
// the reference per-cell-recomputation kernel, across a p-grid and
// randomized synthetic scenarios.  EXPECT_EQ on doubles is deliberate.
#include "core/measure_cache.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/aggregator.hpp"
#include "core/baselines.hpp"
#include "core/dichotomy.hpp"
#include "workload/fixtures.hpp"

namespace stagg {
namespace {

std::vector<double> p_grid(std::size_t n) {
  std::vector<double> ps;
  ps.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    ps.push_back(static_cast<double>(k) / static_cast<double>(n - 1));
  }
  return ps;
}

TEST(MeasureCache, MatchesCubeMeasuresBitExactly) {
  const OwnedModel om = make_random_model(
      {.levels = 2, .fanout = 3, .slices = 14, .states = 3, .seed = 61});
  const DataCube cube(om.model);
  MeasureCache cache;
  cache.build(cube);
  ASSERT_TRUE(cache.built());
  const auto n_t = cube.slice_count();
  for (NodeId node = 0; node < static_cast<NodeId>(cube.hierarchy().node_count());
       ++node) {
    for (SliceId i = 0; i < n_t; ++i) {
      for (SliceId j = i; j < n_t; ++j) {
        const AreaMeasures direct = cube.measures(node, i, j);
        const AreaMeasures& cached = cache.at(node, i, j);
        EXPECT_EQ(direct.gain, cached.gain)
            << "node=" << node << " i=" << i << " j=" << j;
        EXPECT_EQ(direct.loss, cached.loss)
            << "node=" << node << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(MeasureCache, SerialAndParallelBuildsAreIdentical) {
  const OwnedModel om = make_random_model(
      {.levels = 3, .fanout = 2, .slices = 11, .states = 2, .seed = 9});
  const DataCube cube(om.model);
  MeasureCache serial, parallel;
  serial.build(cube, /*parallel=*/false);
  parallel.build(cube, /*parallel=*/true);
  for (NodeId node = 0;
       node < static_cast<NodeId>(cube.hierarchy().node_count()); ++node) {
    const auto a = serial.node_measures(node);
    const auto b = parallel.node_measures(node);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < a.size(); ++c) {
      EXPECT_EQ(a[c].gain, b[c].gain);
      EXPECT_EQ(a[c].loss, b[c].loss);
    }
  }
}

TEST(MeasureCache, MemoryAccounting) {
  const OwnedModel om = make_random_model(
      {.levels = 2, .fanout = 2, .slices = 8, .states = 2, .seed = 3});
  const DataCube cube(om.model);
  const std::size_t nodes = cube.hierarchy().node_count();
  MeasureCache cache;
  EXPECT_EQ(cache.memory_bytes(), 0u);
  cache.build(cube);
  EXPECT_EQ(cache.memory_bytes(), MeasureCache::estimate_bytes(nodes, 8));
  EXPECT_EQ(cache.memory_bytes(), nodes * 36u * sizeof(AreaMeasures));
  cache.clear();
  EXPECT_FALSE(cache.built());
  EXPECT_EQ(cache.memory_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Kernel equivalence: cached wavefront vs reference per-cell recomputation.
// ---------------------------------------------------------------------------

void expect_kernels_equivalent(const OwnedModel& om,
                               std::span<const double> ps, bool normalize) {
  AggregationOptions cached_opt;
  cached_opt.normalize = normalize;
  AggregationOptions ref_opt = cached_opt;
  ref_opt.kernel = DpKernel::kReference;

  SpatiotemporalAggregator cached(om.model, cached_opt);
  SpatiotemporalAggregator reference(om.model, ref_opt);

  const std::vector<AggregationResult> fast = cached.run_many(ps);
  for (std::size_t k = 0; k < ps.size(); ++k) {
    const AggregationResult slow = reference.run(ps[k]);
    // Bit-identical criterion value and identical partition.
    EXPECT_EQ(fast[k].optimal_pic, slow.optimal_pic) << "p=" << ps[k];
    EXPECT_EQ(fast[k].partition.signature(), slow.partition.signature())
        << "p=" << ps[k];
    EXPECT_TRUE(fast[k].partition == slow.partition) << "p=" << ps[k];
    EXPECT_EQ(fast[k].measures.gain, slow.measures.gain) << "p=" << ps[k];
    EXPECT_EQ(fast[k].measures.loss, slow.measures.loss) << "p=" << ps[k];
  }
}

TEST(KernelEquivalence, Figure3TraceAcrossPGrid) {
  const OwnedModel om = make_figure3_model();
  expect_kernels_equivalent(om, p_grid(17), /*normalize=*/false);
}

TEST(KernelEquivalence, Figure3TraceNormalized) {
  const OwnedModel om = make_figure3_model();
  expect_kernels_equivalent(om, p_grid(9), /*normalize=*/true);
}

TEST(KernelEquivalence, RandomizedScenarios) {
  // Randomized shapes seeded via common/rng.hpp: structure (blocks), idle
  // cells, varying depth/fanout/state count.
  SplitMix64 mix(20260729ULL);
  for (int scenario = 0; scenario < 6; ++scenario) {
    const std::uint64_t seed = mix.next();
    const RandomModelOptions shape{
        .levels = 2 + scenario % 2,
        .fanout = 2 + scenario % 3,
        .slices = 7 + scenario * 2,
        .states = 2 + scenario % 3,
        .block_slices = 1 + scenario % 3,
        .block_leaves = 1 + scenario % 2,
        .idle_fraction = (scenario % 2) ? 0.15 : 0.0,
        .seed = seed,
    };
    const OwnedModel om = make_random_model(shape);
    expect_kernels_equivalent(om, p_grid(9), /*normalize=*/false);
  }
}

TEST(KernelEquivalence, WavefrontMatchesSerialCachedKernel) {
  // parallel=false disables both sibling parallelism and the wavefront;
  // the values must not depend on the sweep schedule.
  const OwnedModel om = make_random_model(
      {.levels = 2, .fanout = 4, .slices = 24, .states = 3, .seed = 123});
  AggregationOptions par_opt;
  AggregationOptions ser_opt;
  ser_opt.parallel = false;
  SpatiotemporalAggregator par(om.model, par_opt);
  SpatiotemporalAggregator ser(om.model, ser_opt);
  for (const double p : p_grid(7)) {
    const AggregationResult a = par.run(p);
    const AggregationResult b = ser.run(p);
    EXPECT_EQ(a.optimal_pic, b.optimal_pic) << "p=" << p;
    EXPECT_EQ(a.partition.signature(), b.partition.signature()) << "p=" << p;
  }
}

TEST(KernelEquivalence, ArenaReuseIsDeterministic) {
  // Repeated runs at the same p reuse pooled buffers holding stale values;
  // results must be bit-identical to the first (cold) run.
  const OwnedModel om = make_random_model(
      {.levels = 3, .fanout = 2, .slices = 13, .states = 2, .seed = 55});
  SpatiotemporalAggregator agg(om.model);
  const AggregationResult cold = agg.run(0.37);
  (void)agg.run(0.9);  // pollute the arena with another parameter's values
  const AggregationResult warm = agg.run(0.37);
  EXPECT_EQ(cold.optimal_pic, warm.optimal_pic);
  EXPECT_EQ(cold.partition.signature(), warm.partition.signature());
}

TEST(KernelEquivalence, EvaluateIdenticalBeforeAndAfterCacheBuild) {
  const OwnedModel om = make_random_model(
      {.levels = 2, .fanout = 3, .slices = 9, .states = 2, .seed = 31});
  SpatiotemporalAggregator agg(om.model);
  const Partition full = make_full_partition(*om.hierarchy, 9);
  const AggregationResult before = agg.evaluate(full, 0.4);  // cube path
  (void)agg.run(0.4);  // builds the measure cache
  ASSERT_TRUE(agg.measure_cache().built());
  const AggregationResult after = agg.evaluate(full, 0.4);  // cache path
  EXPECT_EQ(before.optimal_pic, after.optimal_pic);
  EXPECT_EQ(before.measures.gain, after.measures.gain);
  EXPECT_EQ(before.measures.loss, after.measures.loss);
}

// ---------------------------------------------------------------------------
// Lane batching: run_many evaluates probes in waves of max_lanes parameters
// sharing one DP sweep.  Any lane width, odd probe counts (remainder waves
// of width 1..7), duplicate parameters, and wave regrouping must all be
// bit-identical per probe to the reference kernel.
// ---------------------------------------------------------------------------

TEST(KernelEquivalence, LaneWidthSweepBitIdenticalToReference) {
  const OwnedModel om = make_random_model(
      {.levels = 3, .fanout = 2, .slices = 15, .states = 3, .seed = 402});
  AggregationOptions ref_opt;
  ref_opt.kernel = DpKernel::kReference;
  SpatiotemporalAggregator reference(om.model, ref_opt);

  // 9 probes with duplicates: an 8-lane wave plus a width-1 remainder, a
  // 4-lane config with a width-1 remainder, and one probe per sweep.
  const std::vector<double> ps = {0.0, 0.3, 0.3, 0.55, 0.55,
                                  0.7, 0.85, 1.0, 0.3};
  std::vector<AggregationResult> oracle;
  oracle.reserve(ps.size());
  for (const double p : ps) oracle.push_back(reference.run(p));

  for (const std::size_t width : {std::size_t{1}, std::size_t{4},
                                  std::size_t{8}}) {
    AggregationOptions opt;
    opt.max_lanes = width;
    SpatiotemporalAggregator laned(om.model, opt);
    const std::vector<AggregationResult> fast = laned.run_many(ps);
    ASSERT_EQ(fast.size(), ps.size()) << "W=" << width;
    for (std::size_t k = 0; k < ps.size(); ++k) {
      EXPECT_EQ(fast[k].p, ps[k]) << "W=" << width;
      EXPECT_EQ(fast[k].optimal_pic, oracle[k].optimal_pic)
          << "W=" << width << " k=" << k << " p=" << ps[k];
      EXPECT_EQ(fast[k].partition.signature(),
                oracle[k].partition.signature())
          << "W=" << width << " k=" << k << " p=" << ps[k];
      EXPECT_EQ(fast[k].measures.gain, oracle[k].measures.gain)
          << "W=" << width << " k=" << k;
      EXPECT_EQ(fast[k].measures.loss, oracle[k].measures.loss)
          << "W=" << width << " k=" << k;
    }
  }
}

TEST(KernelEquivalence, WaveRegroupingDoesNotChangeResults) {
  // The same probes pushed through different wave shapes (8+3, 4+4+3,
  // 11 x 1) must agree bit-for-bit: lanes never interact.
  const OwnedModel om = make_random_model(
      {.levels = 2, .fanout = 3, .slices = 18, .states = 4,
       .idle_fraction = 0.1, .seed = 77});
  const std::vector<double> ps = p_grid(11);  // odd count
  std::vector<std::vector<AggregationResult>> runs;
  for (const std::size_t width : {std::size_t{8}, std::size_t{4},
                                  std::size_t{1}}) {
    AggregationOptions opt;
    opt.max_lanes = width;
    SpatiotemporalAggregator agg(om.model, opt);
    runs.push_back(agg.run_many(ps));
  }
  for (std::size_t k = 0; k < ps.size(); ++k) {
    EXPECT_EQ(runs[0][k].optimal_pic, runs[1][k].optimal_pic) << "k=" << k;
    EXPECT_EQ(runs[0][k].optimal_pic, runs[2][k].optimal_pic) << "k=" << k;
    EXPECT_EQ(runs[0][k].partition.signature(),
              runs[1][k].partition.signature()) << "k=" << k;
    EXPECT_EQ(runs[0][k].partition.signature(),
              runs[2][k].partition.signature()) << "k=" << k;
  }
}

TEST(KernelEquivalence, LanedNormalizedRunsMatchReference) {
  const OwnedModel om = make_random_model(
      {.levels = 2, .fanout = 4, .slices = 12, .states = 3, .seed = 19});
  AggregationOptions opt;
  opt.normalize = true;
  opt.max_lanes = 8;
  AggregationOptions ref_opt = opt;
  ref_opt.kernel = DpKernel::kReference;
  SpatiotemporalAggregator laned(om.model, opt);
  SpatiotemporalAggregator reference(om.model, ref_opt);
  const std::vector<double> ps = p_grid(7);  // one wave of 7 (odd width)
  const std::vector<AggregationResult> fast = laned.run_many(ps);
  for (std::size_t k = 0; k < ps.size(); ++k) {
    const AggregationResult slow = reference.run(ps[k]);
    EXPECT_EQ(fast[k].optimal_pic, slow.optimal_pic) << "p=" << ps[k];
    EXPECT_EQ(fast[k].partition.signature(), slow.partition.signature())
        << "p=" << ps[k];
  }
}

TEST(KernelEquivalence, RunAfterWideWaveReusesArenaBitIdentically) {
  // A wide wave leaves 8-lane-sized pooled buffers; a following solo run
  // (and a narrower wave) must resize and reuse them without value drift.
  const OwnedModel om = make_random_model(
      {.levels = 2, .fanout = 3, .slices = 13, .states = 2, .seed = 88});
  SpatiotemporalAggregator agg(om.model);
  SpatiotemporalAggregator fresh(om.model);
  const std::vector<double> wide = p_grid(8);
  (void)agg.run_many(wide);  // 8-lane wave pollutes the arena
  const AggregationResult warm = agg.run(0.42);
  const AggregationResult cold = fresh.run(0.42);
  EXPECT_EQ(warm.optimal_pic, cold.optimal_pic);
  EXPECT_EQ(warm.partition.signature(), cold.partition.signature());
}

TEST(KernelEquivalence, DichotomyFindsSameLevelsOnBothKernels) {
  const OwnedModel om = make_figure3_model();
  AggregationOptions ref_opt;
  ref_opt.kernel = DpKernel::kReference;
  SpatiotemporalAggregator cached(om.model);
  SpatiotemporalAggregator reference(om.model, ref_opt);
  const DichotomyResult a = find_significant_levels(cached);
  const DichotomyResult b = find_significant_levels(reference);
  ASSERT_EQ(a.levels.size(), b.levels.size());
  EXPECT_EQ(a.runs, b.runs);
  for (std::size_t k = 0; k < a.levels.size(); ++k) {
    EXPECT_EQ(a.levels[k].p_min, b.levels[k].p_min);
    EXPECT_EQ(a.levels[k].p_max, b.levels[k].p_max);
    EXPECT_EQ(a.levels[k].result.partition.signature(),
              b.levels[k].result.partition.signature());
  }
}

}  // namespace
}  // namespace stagg
