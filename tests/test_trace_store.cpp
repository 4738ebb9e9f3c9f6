// TraceStore / TraceView suite: the immutable chunked substrate and its
// zero-copy window/scope selection.
//
// The load-bearing properties:
//   * Layout independence — however the same interval multiset is
//     partitioned into sealed chunks (streaming seals, compaction,
//     eviction, copies), the merged per-resource sequence and every model
//     fold built from it are bit-identical to a freshly sorted
//     single-owner trace.
//   * Fence pruning is an optimization, never a semantic — a view over
//     [t0, t1) folds exactly what a whole-trace build with that window
//     folds.
//   * IO equivalence — write -> read, write -> stream-fold, and
//     chunked-store ingest of the same events produce bit-identical
//     models (including the empty trace, zero-duration events, window
//     overrides, and evict_before mid-stream).
#include "trace/trace_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/aggregator.hpp"
#include "hierarchy/hierarchy.hpp"
#include "model/builder.hpp"
#include "trace/binary_io.hpp"
#include "trace/trace.hpp"
#include "trace/trace_view.hpp"

namespace stagg {
namespace {

/// Temp-file path helper (tests run in the build directory).
std::string temp_path(const std::string& name) {
  return "test_trace_store_" + name + ".stgt";
}

void expect_models_equal(const MicroscopicModel& a, const MicroscopicModel& b,
                         const std::string& context) {
  ASSERT_EQ(a.resource_count(), b.resource_count()) << context;
  ASSERT_EQ(a.slice_count(), b.slice_count()) << context;
  ASSERT_EQ(a.state_count(), b.state_count()) << context;
  const auto ra = a.raw();
  const auto rb = b.raw();
  ASSERT_EQ(ra.size(), rb.size()) << context;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i], rb[i]) << context << " cell " << i;
  }
}

/// Random trace with edge-heavy timing: events on slice edges, zero
/// durations, duplicates.
Trace make_random_trace(const Hierarchy& h, std::uint64_t seed,
                        TimeNs span, int events_per_resource) {
  SplitMix64 mix(seed);
  Trace t;
  const StateId states[] = {t.states().intern("a"), t.states().intern("b"),
                            t.states().intern("c")};
  for (LeafId leaf = 0; leaf < static_cast<LeafId>(h.leaf_count()); ++leaf) {
    const ResourceId r = t.add_resource(h.path(h.leaf_node(leaf)));
    for (int k = 0; k < events_per_resource; ++k) {
      const TimeNs b = static_cast<TimeNs>(mix.next() % span);
      TimeNs d = static_cast<TimeNs>(mix.next() % (span / 16));
      if (mix.next() % 8 == 0) d = 0;  // zero-duration (instantaneous call)
      t.add_state(r, states[mix.next() % 3], b, b + d);
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Chunk mechanics.
// ---------------------------------------------------------------------------

TEST(TraceStore, SealAcrossRoundsBuildsChunksWithFences) {
  TraceStore store;
  const ResourceId r = store.add_resource("r");
  const StateId x = store.states().intern("s");
  store.add_state(r, x, 100, 200);
  store.add_state(r, x, 0, 50);
  store.seal_chunk();
  ASSERT_EQ(store.chunks(r).size(), 1u);
  EXPECT_EQ(store.chunks(r)[0]->min_begin(), 0);
  EXPECT_EQ(store.chunks(r)[0]->min_end(), 50);
  EXPECT_EQ(store.chunks(r)[0]->max_end(), 200);
  EXPECT_TRUE(store.sealed());

  store.add_state(r, x, 300, 400);
  EXPECT_FALSE(store.sealed());
  store.seal_chunk();
  ASSERT_EQ(store.chunks(r).size(), 2u);
  EXPECT_EQ(store.begin(), 0);
  EXPECT_EQ(store.end(), 400);
  EXPECT_EQ(store.state_count(), 3u);

  // Idempotent: a clean re-seal creates no chunk.
  store.seal_chunk();
  EXPECT_EQ(store.chunks(r).size(), 2u);
}

TEST(TraceStore, MergedRowsAreLayoutIndependent) {
  // The same multiset sealed in one round vs many rounds materializes to
  // the same sequence.
  SplitMix64 mix(7);
  Trace incremental;
  Trace batch;
  const ResourceId ri = incremental.add_resource("r");
  const ResourceId rb = batch.add_resource("r");
  (void)incremental.states().intern("s");
  (void)batch.states().intern("s");
  for (int round = 0; round < 12; ++round) {
    for (int k = 0; k < 17; ++k) {
      const auto b = static_cast<TimeNs>(mix.next() % 500);
      const auto d = static_cast<TimeNs>(mix.next() % 40);
      incremental.add_state(ri, StateId{0}, b, b + d);
      batch.add_state(rb, StateId{0}, b, b + d);
    }
    incremental.seal();
  }
  incremental.seal();
  batch.seal();
  EXPECT_GT(incremental.store()->chunks(ri).size(), 1u);
  const auto a = incremental.intervals(ri);
  const auto e = batch.intervals(rb);
  ASSERT_EQ(a.size(), e.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], e[i]) << i;
}

TEST(TraceStore, CompactionBoundsChunkCountAndPreservesRows) {
  Trace many;
  Trace once;
  const ResourceId rm = many.add_resource("r");
  const ResourceId ro = once.add_resource("r");
  (void)many.states().intern("s");
  (void)once.states().intern("s");
  SplitMix64 mix(11);
  const int rounds = 3 * static_cast<int>(TraceStore::kCompactionThreshold);
  for (int round = 0; round < rounds; ++round) {
    const auto b = static_cast<TimeNs>(mix.next() % 10000);
    many.add_state(rm, StateId{0}, b, b + 5);
    once.add_state(ro, StateId{0}, b, b + 5);
    many.seal();  // one chunk per round, compacted past the threshold
  }
  once.seal();
  EXPECT_LE(many.store()->chunks(rm).size(),
            TraceStore::kCompactionThreshold + 1);
  const auto a = many.intervals(rm);
  const auto e = once.intervals(ro);
  ASSERT_EQ(a.size(), e.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], e[i]) << i;
}

TEST(TraceStore, CopySharesChunksButMutatesIndependently) {
  Trace t;
  const ResourceId r = t.add_resource("r");
  const StateId x = t.states().intern("s");
  t.add_state(r, x, 0, 10);
  t.add_state(r, x, 20, 30);
  t.seal();

  Trace copy = t;
  // The sealed chunk is shared by pointer, not duplicated.
  ASSERT_EQ(copy.store()->chunks(r).size(), 1u);
  EXPECT_EQ(copy.store()->chunks(r)[0].get(), t.store()->chunks(r)[0].get());

  copy.add_state(r, x, 40, 50);
  copy.seal();
  copy.erase_before(15);
  copy.seal();
  EXPECT_EQ(copy.state_count(), 2u);  // [20,30) and [40,50)
  EXPECT_EQ(t.state_count(), 2u);     // original untouched: [0,10), [20,30)
  EXPECT_EQ(t.intervals(r)[0].begin, 0);
}

TEST(TraceStore, EvictBeforeDropsOnlyWholeDeadChunks) {
  TraceStore store;
  const ResourceId r = store.add_resource("r");
  const StateId x = store.states().intern("s");
  store.add_state(r, x, 0, 10);
  store.add_state(r, x, 10, 20);
  store.seal_chunk();  // chunk A: max_end 20
  store.add_state(r, x, 15, 40);
  store.add_state(r, x, 50, 60);
  store.seal_chunk();  // chunk B: straddles any cutoff in (15, 40]
  ASSERT_EQ(store.chunks(r).size(), 2u);

  store.evict_before(20);
  // A is provably dead (max_end <= 20) and unlinked; B straddles and is
  // kept whole — including its [15, 40) interval.
  ASSERT_EQ(store.chunks(r).size(), 1u);
  EXPECT_EQ(store.state_count(), 2u);
  EXPECT_EQ(store.chunks(r)[0]->min_begin(), 15);

  // Exact erase (the Trace facade contract) rewrites straddlers.
  store.erase_before_exact(55);
  ASSERT_EQ(store.chunks(r).size(), 1u);
  EXPECT_EQ(store.state_count(), 1u);
  EXPECT_EQ(store.chunks(r)[0]->min_begin(), 50);
}

TEST(TraceStore, CompactionRespectsEvictionHorizonUnderSlidingIngest) {
  // A long-running sliding ingest whose chunks carry long straddling
  // intervals, so dozens stay fence-alive at once and compaction runs
  // regularly.  Merged chunks must let go of intervals below the
  // eviction horizon — retained memory tracks the live window plus the
  // straddle span, never everything ever ingested.
  TraceStore store;
  const ResourceId r = store.add_resource("r");
  const StateId x = store.states().intern("s");
  const TimeNs dt = 10;
  const TimeNs straddle = 40 * dt;  // keeps ~44 chunks fence-alive
  const TimeNs window = 4 * dt;
  const int rounds = 16 * static_cast<int>(TraceStore::kCompactionThreshold);
  for (int round = 0; round < rounds; ++round) {
    const TimeNs t = dt * round;
    store.add_state(r, x, t, t + dt / 2);    // dead a few rounds later
    store.add_state(r, x, t, t + straddle);  // pins the chunk's fence
    store.seal_chunk();
    store.evict_before(t - window);
  }
  // Alive: ~(straddle + window)/dt straddlers + the short tail of the
  // window, with compaction slack — far below the 2 * rounds ingested.
  const auto alive_bound = static_cast<std::uint64_t>(
      2 * ((straddle + window) / dt) + 4 * TraceStore::kCompactionThreshold);
  EXPECT_LE(store.state_count(), alive_bound);
  EXPECT_LT(store.state_count(), static_cast<std::uint64_t>(rounds));
  EXPECT_LE(store.chunks(r).size(), TraceStore::kCompactionThreshold + 1);
}

TEST(TraceStore, EraseBeforeIsPointInTimeNotRetroactive) {
  // erase_before (the facade contract) must not install a sticky horizon:
  // an old interval appended *after* the erase survives any amount of
  // later sealing and compaction.
  Trace t;
  const ResourceId r = t.add_resource("r");
  const StateId x = t.states().intern("s");
  t.add_state(r, x, 0, 50);
  t.add_state(r, x, 200, 300);
  t.seal();
  t.erase_before(100);
  EXPECT_EQ(t.state_count(), 1u);

  t.add_state(r, x, 10, 50);  // late-arriving event below the old cutoff
  t.seal();
  // Force many seal rounds so compaction definitely runs.
  for (int round = 0;
       round < 3 * static_cast<int>(TraceStore::kCompactionThreshold);
       ++round) {
    t.add_state(r, x, 400 + round, 400 + round + 1);
    t.seal();
  }
  bool found = false;
  for (const auto& s : t.intervals(r)) {
    found = found || (s.begin == 10 && s.end == 50);
  }
  EXPECT_TRUE(found) << "late-appended [10,50) was retroactively erased";
}

TEST(TraceStore, OutstandingViewsSurviveEvictionAndCompaction) {
  auto store = std::make_shared<TraceStore>();
  const ResourceId r = store->add_resource("r");
  const StateId x = store->states().intern("s");
  store->add_state(r, x, 0, 10);
  store->seal_chunk();
  store->set_window(0, 100);
  const TraceView view(store, 0, 100);
  ASSERT_EQ(view.selected_count(), 1u);

  store->evict_before(50);  // unlinks the only chunk
  EXPECT_EQ(store->state_count(), 0u);
  // The view's snapshot still reads the unlinked chunk.
  std::size_t seen = 0;
  view.for_each(0, [&](const StateInterval& s) {
    EXPECT_EQ(s.begin, 0);
    EXPECT_EQ(s.end, 10);
    ++seen;
  });
  EXPECT_EQ(seen, 1u);
}

// ---------------------------------------------------------------------------
// View selection folds exactly like whole-trace builds.
// ---------------------------------------------------------------------------

TEST(TraceView, WindowSelectionFoldsBitIdenticalToWholeTraceBuild) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace trace = make_random_trace(h, 0xAB, seconds(30.0), 120);
  trace.seal();
  // Force a multi-chunk layout of the same multiset.
  Trace chunked;
  for (const auto& name : trace.states().names()) {
    (void)chunked.states().intern(name);
  }
  SplitMix64 mix(3);
  for (ResourceId r = 0; r < static_cast<ResourceId>(trace.resource_count());
       ++r) {
    chunked.add_resource(trace.resource_path(r));
    int n = 0;
    for (const auto& s : trace.intervals(r)) {
      chunked.add_state(r, s.state, s.begin, s.end);
      if (++n % 25 == 0) chunked.seal();  // several sealed runs per lane
    }
  }
  chunked.set_window(trace.begin(), trace.end());
  chunked.seal();

  for (const auto& [t0, t1] : std::vector<std::pair<TimeNs, TimeNs>>{
           {seconds(5.0), seconds(17.0)},
           {0, seconds(30.0)},
           {seconds(29.0), seconds(31.0)},
       }) {
    ModelBuildOptions opt;
    opt.slice_count = 24;
    opt.window_begin = t0;
    opt.window_end = t1;
    MicroscopicModel whole = build_model(trace, h, opt);
    const TraceView view(chunked.store(), t0, t1);
    EXPECT_LE(view.selected_count(), trace.state_count());
    MicroscopicModel pruned = build_model(view, h, opt);
    expect_models_equal(whole, pruned,
                        "window [" + std::to_string(t0) + ", " +
                            std::to_string(t1) + ")");
  }
}

TEST(TraceView, ScopedViewMatchesPrivateSubTrace) {
  const Hierarchy full = make_balanced_hierarchy(2, 3);  // 9 leaves
  // Scope: first cluster only (leaves 0..2).
  HierarchyBuilder b("root");
  const NodeId c = b.add(0, "n0_0");
  b.add_many(c, "n1_", 3);
  const Hierarchy sub = b.finish();

  Trace trace = make_random_trace(full, 0xCD, seconds(20.0), 80);
  trace.seal();

  // Private sub-trace holding only the scoped resources (all states
  // interned so |X| matches).
  Trace private_sub;
  for (const auto& name : trace.states().names()) {
    (void)private_sub.states().intern(name);
  }
  std::vector<ResourceId> scope;
  for (ResourceId r = 0; r < 3; ++r) {
    private_sub.add_resource(trace.resource_path(r));
    for (const auto& s : trace.intervals(r)) {
      private_sub.add_state(r, s.state, s.begin, s.end);
    }
    scope.push_back(r);
  }
  private_sub.set_window(trace.begin(), trace.end());
  private_sub.seal();

  ModelBuildOptions opt;
  opt.slice_count = 16;
  opt.window_begin = seconds(2.0);
  opt.window_end = seconds(18.0);
  MicroscopicModel expected = build_model(private_sub, sub, opt);
  const TraceView view(trace.store(), opt.window_begin, opt.window_end,
                       scope);
  ASSERT_EQ(view.resource_count(), 3u);
  MicroscopicModel got = build_model(view, sub, opt);
  expect_models_equal(expected, got, "scoped view");
}

TEST(TraceView, RequiresSealedTails) {
  auto store = std::make_shared<TraceStore>();
  const ResourceId r = store->add_resource("r");
  const StateId x = store->states().intern("s");
  store->add_state(r, x, 0, 10);
  EXPECT_THROW(TraceView(store, 0, 10), InvalidArgument);
  store->seal_chunk();
  EXPECT_NO_THROW(TraceView(store, 0, 10));
}

// ---------------------------------------------------------------------------
// IO equivalence property: write -> read, write -> stream, chunked-store
// ingest are bit-identical.
// ---------------------------------------------------------------------------

TEST(TraceStoreIo, ReadStreamAndChunkedIngestAreBitIdentical) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace trace = make_random_trace(h, 0xEF, seconds(25.0), 150);
  trace.seal();
  const std::string path = temp_path("property");
  write_binary_trace(trace, path);

  ModelBuildOptions opt;
  opt.slice_count = 30;

  Trace read = read_binary_trace(path);
  MicroscopicModel from_read = build_model(read, h, opt);
  MicroscopicModel from_stream = build_model_streaming(path, h, opt);
  expect_models_equal(from_read, from_stream, "read vs stream");

  // Tiny chunk budget: the ingest seals many chunks per resource and
  // exercises compaction — the fold must not notice.
  const auto store = read_binary_trace_store(path, /*chunk_records=*/64);
  EXPECT_EQ(store->state_count(), trace.state_count());
  MicroscopicModel from_store = build_model(TraceView(store), h, opt);
  expect_models_equal(from_read, from_store, "read vs chunked store");

  std::remove(path.c_str());
}

TEST(TraceStoreIo, EmptyTraceRoundTripsThroughStoreIngest) {
  Trace empty;
  (void)empty.states().intern("s");  // states table, zero records
  empty.add_resource("r");
  empty.set_window(0, seconds(1.0));
  empty.seal();
  const std::string path = temp_path("empty");
  write_binary_trace(empty, path);

  const auto store = read_binary_trace_store(path);
  EXPECT_EQ(store->state_count(), 0u);
  EXPECT_EQ(store->resource_count(), 1u);
  EXPECT_EQ(store->begin(), 0);
  EXPECT_EQ(store->end(), seconds(1.0));
  const TraceView view(store);
  EXPECT_EQ(view.selected_count(), 0u);

  Trace read = read_binary_trace(path);
  EXPECT_EQ(read.state_count(), 0u);
  EXPECT_EQ(read.end(), seconds(1.0));
  std::remove(path.c_str());
}

TEST(TraceStoreIo, WindowOverrideSurvivesStoreIngest) {
  const Hierarchy h = make_balanced_hierarchy(1, 2);
  Trace trace = make_random_trace(h, 0x11, seconds(10.0), 40);
  trace.set_window(-seconds(1.0), seconds(12.0));  // wider than the data
  trace.seal();
  const std::string path = temp_path("window");
  write_binary_trace(trace, path);

  const auto store = read_binary_trace_store(path, /*chunk_records=*/32);
  EXPECT_EQ(store->begin(), -seconds(1.0));
  EXPECT_EQ(store->end(), seconds(12.0));

  ModelBuildOptions opt;
  opt.slice_count = 26;
  Trace read = read_binary_trace(path);
  expect_models_equal(build_model(read, h, opt),
                      build_model(TraceView(store), h, opt),
                      "override window");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Backend polymorphism: spilled (file-backed) chunks are bit-identical to
// resident ones through every reader, mutation and layout change.
// ---------------------------------------------------------------------------

std::string spill_path(const std::string& name) {
  return "test_trace_store_" + name + ".spill";
}

/// Collects the streamed interval sequence of every view resource.
std::vector<std::vector<StateInterval>> stream_all(const TraceView& view) {
  std::vector<std::vector<StateInterval>> rows(view.resource_count());
  for (std::size_t r = 0; r < view.resource_count(); ++r) {
    view.for_each(r, [&rows, r](const StateInterval& s) {
      rows[r].push_back(s);
    });
  }
  return rows;
}

void expect_aggregations_equal(const MicroscopicModel& a,
                               const MicroscopicModel& b, std::size_t lanes,
                               const std::string& context) {
  AggregationOptions opt;
  opt.max_lanes = lanes;
  const std::vector<double> ps = {0.0, 0.25, 0.5, 0.75, 1.0};
  SpatiotemporalAggregator agg_a(a, opt);
  SpatiotemporalAggregator agg_b(b, opt);
  const auto ra = agg_a.run_many(ps);
  const auto rb = agg_b.run_many(ps);
  ASSERT_EQ(ra.size(), rb.size()) << context;
  for (std::size_t k = 0; k < ra.size(); ++k) {
    EXPECT_EQ(ra[k].optimal_pic, rb[k].optimal_pic)
        << context << " W=" << lanes << " p=" << ps[k];
    EXPECT_EQ(ra[k].partition.signature(), rb[k].partition.signature())
        << context << " W=" << lanes << " p=" << ps[k];
  }
}

/// Multi-chunk store of the given trace's events (several sealed runs per
/// lane so spill decisions have real choices).
Trace make_chunked_copy(const Trace& trace) {
  Trace chunked;
  for (const auto& name : trace.states().names()) {
    (void)chunked.states().intern(name);
  }
  for (ResourceId r = 0; r < static_cast<ResourceId>(trace.resource_count());
       ++r) {
    chunked.add_resource(trace.resource_path(r));
    int n = 0;
    for (const auto& s : trace.intervals(r)) {
      chunked.add_state(r, s.state, s.begin, s.end);
      if (++n % 25 == 0) chunked.seal();
    }
  }
  chunked.set_window(trace.begin(), trace.end());
  chunked.seal();
  return chunked;
}

TEST(TraceStoreSpill, SpillPinStreamBitIdenticalToResident) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace resident = make_random_trace(h, 0x51, seconds(25.0), 140);
  resident.seal();
  Trace chunked = make_chunked_copy(resident);
  const std::string spill = spill_path("property");
  std::remove(spill.c_str());
  chunked.store()->enable_spill(spill);

  ModelBuildOptions opt;
  opt.slice_count = 24;
  const MicroscopicModel want = build_model(resident, h, opt);

  // Budget 0: everything sealed leaves anonymous memory.
  const std::size_t total = chunked.store()->store_bytes();
  (void)chunked.store()->spill_cold(0);
  EXPECT_EQ(chunked.store()->resident_chunk_bytes(), 0u);
  EXPECT_GE(chunked.store()->spilled_chunk_bytes(), total / 2);
  EXPECT_EQ(chunked.state_count(), resident.state_count());

  const TraceView view(chunked.store());
  EXPECT_GT(view.spilled_run_count(), 0u);
  const MicroscopicModel spilled = build_model(view, h, opt);
  expect_models_equal(want, spilled, "fully spilled store");
  // The PR 4 layout-independence oracle, now across storage backends:
  // identical folds must aggregate identically at every lane width.
  expect_aggregations_equal(want, spilled, /*lanes=*/1, "spilled");
  expect_aggregations_equal(want, spilled, /*lanes=*/4, "spilled");

  // Pin everything back and fold again: backend swaps never touch data.
  const std::size_t pinned = chunked.store()->pin_all();
  EXPECT_GT(pinned, 0u);
  EXPECT_EQ(chunked.store()->spilled_chunk_bytes(), 0u);
  const MicroscopicModel repinned =
      build_model(TraceView(chunked.store()), h, opt);
  expect_models_equal(want, repinned, "spill -> pin round trip");
  expect_aggregations_equal(want, repinned, /*lanes=*/4, "repinned");

  std::remove(spill.c_str());
}

TEST(TraceStoreSpill, PartialBudgetRespectsColdFirstOrderAndBudget) {
  Trace t;
  const ResourceId r = t.add_resource("r");
  const StateId x = t.states().intern("s");
  for (int round = 0; round < 6; ++round) {
    for (int k = 0; k < 8; ++k) {
      const TimeNs b = 100 * round + k;
      t.add_state(r, x, b, b + 5);
    }
    t.seal();
  }
  const std::string spill = spill_path("budget");
  std::remove(spill.c_str());
  t.store()->enable_spill(spill);
  const std::size_t total = t.store()->resident_chunk_bytes();
  ASSERT_EQ(t.store()->chunks(r).size(), 6u);

  const std::size_t spilled_chunks = t.store()->spill_cold(total / 2);
  EXPECT_LE(t.store()->resident_chunk_bytes(), total / 2);
  EXPECT_EQ(spilled_chunks, 3u);
  // Coldest (smallest fence max-end) chunks went first: the oldest rounds
  // are file-backed, the newest stay resident.
  const auto chunks = t.store()->chunks(r);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i]->resident(), i >= 3) << "chunk " << i;
  }
  // Idempotent under the same budget.
  EXPECT_EQ(t.store()->spill_cold(total / 2), 0u);
  std::remove(spill.c_str());
}

TEST(TraceStoreSpill, MidStreamSpillUnderOpenViewIsInvisible) {
  const Hierarchy h = make_balanced_hierarchy(1, 3);
  Trace trace = make_random_trace(h, 0x52, seconds(10.0), 60);
  trace.seal();
  Trace chunked = make_chunked_copy(trace);
  const std::string spill = spill_path("midstream");
  std::remove(spill.c_str());
  chunked.store()->enable_spill(spill);

  const TraceView before(chunked.store());
  const auto want = stream_all(before);

  // Spill the whole store while `before` is mid-stream: the view pinned
  // its chunks by reference and must not notice.
  bool spilled_mid_stream = false;
  std::vector<std::vector<StateInterval>> got(before.resource_count());
  for (std::size_t r = 0; r < before.resource_count(); ++r) {
    before.for_each(r, [&](const StateInterval& s) {
      if (!spilled_mid_stream) {
        (void)chunked.store()->spill_cold(0);
        spilled_mid_stream = true;
      }
      got[r].push_back(s);
    });
  }
  ASSERT_TRUE(spilled_mid_stream);
  EXPECT_EQ(got, want);

  // A fresh view over the now-spilled store streams the same sequence —
  // even after the spill file is unlinked (mapped pages stay alive) and
  // after the store pins chunks back mid-lifetime.
  const TraceView after(chunked.store());
  EXPECT_GT(after.spilled_run_count(), 0u);
  std::remove(spill.c_str());
  EXPECT_EQ(stream_all(after), want);
  (void)chunked.store()->pin_all();
  EXPECT_EQ(stream_all(after), want);
}

TEST(TraceStoreSpill, SpillThenEvictBeforePreservesSuffixWindows) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace trace = make_random_trace(h, 0x53, seconds(20.0), 100);
  trace.seal();
  Trace chunked = make_chunked_copy(trace);
  const std::string spill = spill_path("evict");
  std::remove(spill.c_str());
  chunked.store()->enable_spill(spill);
  (void)chunked.store()->spill_cold(0);

  const TimeNs cutoff = seconds(9.0);
  const auto before = chunked.state_count();
  chunked.store()->evict_before(cutoff);
  EXPECT_LT(chunked.state_count(), before)
      << "fence eviction must unlink dead spilled chunks too";

  ModelBuildOptions opt;
  opt.slice_count = 22;
  opt.window_begin = cutoff;
  opt.window_end = seconds(20.0);
  expect_models_equal(
      build_model(trace, h, opt),
      build_model(TraceView(chunked.store(), cutoff, seconds(20.0)), h, opt),
      "post-evict suffix window over spilled store");
  std::remove(spill.c_str());
}

TEST(TraceStoreSpill, CompactionPinsSpilledChunksAndPreservesRows) {
  // Regression (satellite): size-tier compaction across a *mixed*
  // resident/spilled lane must pin file-backed members before merging —
  // and the merged rows must equal a never-spilled single-seal store.
  Trace mixed;
  Trace once;
  const ResourceId rm = mixed.add_resource("r");
  const ResourceId ro = once.add_resource("r");
  (void)mixed.states().intern("s");
  (void)once.states().intern("s");
  const std::string spill = spill_path("compaction");
  std::remove(spill.c_str());
  mixed.store()->enable_spill(spill);

  SplitMix64 mix(0x54);
  const int rounds = 3 * static_cast<int>(TraceStore::kCompactionThreshold);
  for (int round = 0; round < rounds; ++round) {
    for (int k = 0; k < 4; ++k) {
      const auto b = static_cast<TimeNs>(mix.next() % 10000);
      mixed.add_state(rm, StateId{0}, b, b + 7);
      once.add_state(ro, StateId{0}, b, b + 7);
    }
    mixed.seal();  // one chunk per round; compaction past the threshold
    // Keep roughly half of every lane file-backed so each compaction
    // merges across spilled chunks.
    (void)mixed.store()->spill_cold(mixed.store()->resident_chunk_bytes() /
                                    2);
  }
  once.seal();
  EXPECT_LE(mixed.store()->chunks(rm).size(),
            TraceStore::kCompactionThreshold + 1);
  EXPECT_GT(mixed.store()->spilled_chunk_bytes(), 0u);
  const auto a = mixed.intervals(rm);
  const auto e = once.intervals(ro);
  ASSERT_EQ(a.size(), e.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], e[i]) << i;
  std::remove(spill.c_str());
}

// ---------------------------------------------------------------------------
// Chunk files: zero-copy open, loud rejection of truncation/corruption.
// ---------------------------------------------------------------------------

TEST(TraceStoreIo, ChunkFileReopensZeroCopyAndFoldsBitIdentical) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace trace = make_random_trace(h, 0x61, seconds(25.0), 150);
  trace.seal();
  Trace chunked = make_chunked_copy(trace);
  const std::string path = temp_path("chunkfile");
  const std::uint64_t bytes = write_chunk_file(*chunked.store(), path);
  EXPECT_GT(bytes, 0u);
  ASSERT_TRUE(is_chunk_file(path));

  // read_binary_trace_store sniffs the magic and takes the mmap path:
  // nothing is rehydrated, the store starts fully file-backed.
  const auto store = read_binary_trace_store(path);
  EXPECT_EQ(store->state_count(), trace.state_count());
  EXPECT_EQ(store->resident_chunk_bytes(), 0u);
  EXPECT_GT(store->spilled_chunk_bytes(), 0u);
  EXPECT_EQ(store->begin(), trace.begin());
  EXPECT_EQ(store->end(), trace.end());

  ModelBuildOptions opt;
  opt.slice_count = 30;
  const MicroscopicModel want = build_model(trace, h, opt);
  const MicroscopicModel mapped = build_model(TraceView(store), h, opt);
  expect_models_equal(want, mapped, "mmapped chunk file");
  expect_aggregations_equal(want, mapped, /*lanes=*/1, "mmapped chunk file");
  expect_aggregations_equal(want, mapped, /*lanes=*/4, "mmapped chunk file");

  // The Trace facade reader sniffs too.
  Trace reread = read_binary_trace(path);
  EXPECT_EQ(reread.state_count(), trace.state_count());
  expect_models_equal(want, build_model(reread, h, opt),
                      "chunk file through the facade reader");
  std::remove(path.c_str());
}

TEST(TraceStoreIo, ChunkFileRejectsTruncationAndCorruptionWithOffsets) {
  // One resource, one state, one 3-interval chunk: a fixed layout whose
  // offsets the corruption below can target deterministically.
  Trace t;
  const ResourceId r = t.add_resource("r");
  const StateId x = t.states().intern("s");
  t.add_state(r, x, 0, 10);
  t.add_state(r, x, 5, 25);
  t.add_state(r, x, 20, 30);
  t.seal();
  const std::string path = temp_path("corrupt");
  write_chunk_file(*t.store(), path);

  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 60u);

  const auto write_bytes_to = [&](const std::string& p,
                                  const std::vector<char>& data) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };
  const auto expect_throws_with = [&](const std::string& p,
                                      const std::string& needle) {
    try {
      (void)read_binary_trace_store(p);
      FAIL() << "expected TraceFormatError mentioning '" << needle << "'";
    } catch (const TraceFormatError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(needle), std::string::npos) << what;
      EXPECT_NE(what.find("offset"), std::string::npos) << what;
    }
  };

  // Truncated payload: drop the trailing 12 bytes of the only chunk.
  std::vector<char> truncated(bytes.begin(), bytes.end() - 12);
  write_bytes_to(path, truncated);
  expect_throws_with(path, "truncated chunk");

  // Bit flip inside the state column (bytes.size()-4 is record padding for
  // a 3-entry chunk; -5 is the last state byte): checksum must trip.
  std::vector<char> corrupt = bytes;
  corrupt[corrupt.size() - 5] ^= 0x40;
  write_bytes_to(path, corrupt);
  expect_throws_with(path, "checksum mismatch");

  // And the pristine bytes must still open cleanly.
  write_bytes_to(path, bytes);
  EXPECT_NO_THROW((void)read_binary_trace_store(path));
  std::remove(path.c_str());
}

TEST(TraceStoreIo, ChunkFileRewriteOverItsOwnMappingIsSafe) {
  // Writing a chunk file over the very file the store's chunks are mapped
  // from must not truncate the pages mid-read (write-to-temp + rename).
  Trace t;
  const ResourceId r = t.add_resource("r");
  const StateId x = t.states().intern("s");
  for (int k = 0; k < 32; ++k) t.add_state(r, x, k * 10, k * 10 + 5);
  t.seal();
  const std::string path = temp_path("self_rewrite");
  write_chunk_file(*t.store(), path);

  const auto mapped = read_binary_trace_store(path);
  ASSERT_EQ(mapped->resident_chunk_bytes(), 0u);
  const std::uint64_t rewritten = write_chunk_file(*mapped, path);
  EXPECT_GT(rewritten, 0u);
  // The mapped store still reads its (pre-rename) pages, and the new file
  // reopens to the same content.
  EXPECT_EQ(mapped->state_count(), 32u);
  const auto reopened = read_binary_trace_store(path);
  EXPECT_EQ(reopened->state_count(), 32u);
  std::remove(path.c_str());
}

TEST(TraceStoreSpill, SpillRefusesForeignOrMisalignedFiles) {
  Trace t;
  const ResourceId r = t.add_resource("r");
  const StateId x = t.states().intern("s");
  t.add_state(r, x, 0, 10);
  t.seal();
  const std::string foreign = spill_path("foreign");
  {
    std::ofstream out(foreign, std::ios::binary | std::ios::trunc);
    out << "definitely not a spill file";
  }
  t.store()->enable_spill(foreign);
  EXPECT_THROW((void)t.store()->spill_cold(0), IoError);
  std::remove(foreign.c_str());
}

/// Store of `lanes` resources sealed `rounds` times, one chunk per lane per
/// seal (`rounds` stays under the compaction threshold, so every chunk
/// survives).
Trace make_laned_trace(int lanes, int rounds, std::uint64_t seed) {
  Trace t;
  const StateId states[] = {t.states().intern("a"), t.states().intern("b")};
  for (int lane = 0; lane < lanes; ++lane) {
    (void)t.add_resource("lane" + std::to_string(lane));
  }
  SplitMix64 mix(seed);
  for (int round = 0; round < rounds; ++round) {
    for (ResourceId r = 0; r < lanes; ++r) {
      for (int k = 0; k < 6; ++k) {
        const auto b = round * 1000 + static_cast<TimeNs>(mix.next() % 1000);
        t.add_state(r, states[mix.next() % 2], b,
                    b + static_cast<TimeNs>(mix.next() % 300));
      }
    }
    t.seal();
  }
  return t;
}

std::vector<std::vector<StateInterval>> all_intervals(const Trace& t) {
  std::vector<std::vector<StateInterval>> rows;
  for (ResourceId r = 0; r < static_cast<ResourceId>(t.resource_count());
       ++r) {
    const auto row = t.intervals(r);
    rows.emplace_back(row.begin(), row.end());
  }
  return rows;
}

/// Payload identity of every chunk slot, lane by lane.
std::vector<const ChunkPayload*> chunk_payloads(const TraceStore& store) {
  std::vector<const ChunkPayload*> out;
  for (ResourceId r = 0; r < static_cast<ResourceId>(store.resource_count());
       ++r) {
    for (const TraceChunkPtr& c : store.chunks(r)) {
      out.push_back(c->payload().get());
    }
  }
  return out;
}

TEST(TraceStoreSpill, FailedSpillLeavesStoreUnchanged) {
  // A spill that fails — a foreign file where the spill file should be,
  // or an obstacle where compaction writes its temp file — throws IoError
  // and leaves the store as it was: no slot swapped, the spill accounting
  // unchanged, audit() green, every row intact.  Removing the obstacle
  // lets the next call succeed.
  Trace t = make_laned_trace(/*lanes=*/4, /*rounds=*/15, 0x5F);
  TraceStore& store = *t.store();
  ASSERT_GE(chunk_payloads(store).size(), 50u);
  const auto rows = all_intervals(t);
  const std::string spill = spill_path("failed");
  const std::string moved = spill + ".moved";
  const std::string obstacle = spill + ".compact";
  const auto cleanup = [&] {
    std::remove(spill.c_str());
    std::remove(moved.c_str());
    std::error_code ignored;
    std::filesystem::remove_all(obstacle, ignored);
  };
  cleanup();
  store.enable_spill(spill);

  struct Snapshot {
    std::vector<const ChunkPayload*> payloads;
    std::size_t live;
    std::size_t dead;
  };
  const auto snapshot = [&] {
    return Snapshot{chunk_payloads(store), store.spill_live_bytes(),
                    store.spill_dead_bytes()};
  };
  const auto expect_unchanged = [&](const Snapshot& before,
                                    const char* what) {
    EXPECT_EQ(chunk_payloads(store), before.payloads) << what;
    EXPECT_EQ(store.spill_live_bytes(), before.live) << what;
    EXPECT_EQ(store.spill_dead_bytes(), before.dead) << what;
    EXPECT_NO_THROW(store.audit()) << what;
    EXPECT_EQ(all_intervals(t), rows) << what;
  };

  // Half the chunks spill normally; then the spill file is moved away (its
  // mapping keeps those records readable) and a foreign file takes its
  // place.
  ASSERT_GT(store.spill_cold(store.resident_chunk_bytes() / 2), 0u);
  ASSERT_GT(store.spill_live_bytes(), 0u);
  ASSERT_EQ(std::rename(spill.c_str(), moved.c_str()), 0);
  const std::string foreign = "definitely not a spill file";
  {
    std::ofstream out(spill, std::ios::binary | std::ios::trunc);
    out << foreign;
  }
  const Snapshot before_spill = snapshot();
  EXPECT_THROW((void)store.spill_cold(0), IoError);
  expect_unchanged(before_spill, "failed spill_cold");
  {
    std::ifstream in(spill, std::ios::binary);
    const std::string kept((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(kept, foreign) << "a refused spill must not touch the file";
  }
  std::remove(spill.c_str());
  EXPECT_GT(store.spill_cold(0), 0u);
  EXPECT_EQ(store.resident_chunk_bytes(), 0u);
  EXPECT_NO_THROW(store.audit());
  EXPECT_EQ(all_intervals(t), rows);

  // Compaction: a non-empty directory sits where the temp file goes.  Pin
  // lanes until dead bytes overtake live ones; that pin's compaction
  // fails after the pin itself completed.
  ASSERT_TRUE(std::filesystem::create_directory(obstacle));
  { std::ofstream(obstacle + "/keep") << "x"; }
  bool threw = false;
  for (ResourceId r = 0; r < 4 && !threw; ++r) {
    try {
      (void)store.pin(r);
    } catch (const IoError&) {
      threw = true;
    }
  }
  ASSERT_TRUE(threw);
  EXPECT_GT(store.spill_dead_bytes(), store.spill_live_bytes());
  EXPECT_NO_THROW(store.audit());
  EXPECT_EQ(all_intervals(t), rows);
  // An eviction that drops nothing only retries the compaction: it fails
  // the same way and changes nothing.
  const Snapshot before_compaction = snapshot();
  EXPECT_THROW(store.evict_before(std::numeric_limits<TimeNs>::min()),
               IoError);
  expect_unchanged(before_compaction, "failed compaction");

  std::filesystem::remove_all(obstacle);
  EXPECT_NO_THROW(store.evict_before(std::numeric_limits<TimeNs>::min()));
  EXPECT_EQ(store.spill_dead_bytes(), 0u);
  EXPECT_GT(store.spill_live_bytes(), 0u);
  EXPECT_NO_THROW(store.audit());
  EXPECT_EQ(all_intervals(t), rows);
  cleanup();
}

#if defined(__linux__)
/// Lines of /proc/self/maps naming `file`; with `linked_only`, only those
/// whose file is still linked.
std::size_t count_mappings(const std::string& file, bool linked_only) {
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) {
    if (line.find(file) == std::string::npos) continue;
    if (linked_only && line.find("(deleted)") != std::string::npos) continue;
    ++n;
  }
  return n;
}
#endif

TEST(TraceStoreSpill, OneMappingPerSpillCall) {
#if !defined(__linux__)
  GTEST_SKIP() << "counts mappings through /proc/self/maps";
#else
  // One spill_cold call maps its whole batch once, and a compaction maps
  // its rewrite once — not one mapping per chunk.
  Trace t = make_laned_trace(/*lanes=*/24, /*rounds=*/10, 0x6A);
  TraceStore& store = *t.store();
  const auto rows = all_intervals(t);
  const std::string spill = spill_path("maps");
  std::remove(spill.c_str());
  store.enable_spill(spill);

  const std::size_t before = count_mappings(spill, false);
  EXPECT_GE(store.spill_cold(0), 200u);
  EXPECT_LE(count_mappings(spill, false), before + 1);
  EXPECT_EQ(store.spill_counters().batches, 1u);

  // Pin lanes until dead bytes overtake live ones: that pin's compaction
  // rewrites every live record into the renamed-over file.
  const std::uint64_t records = store.spill_counters().records;
  for (ResourceId r = 0; store.spill_counters().batches == 1; ++r) {
    ASSERT_LT(r, 24);
    (void)store.pin(r);
  }
  EXPECT_EQ(store.spill_counters().batches, 2u);
  EXPECT_GE(store.spill_counters().records - records, 100u);
  EXPECT_LE(count_mappings(spill, /*linked_only=*/true), 1u);
  EXPECT_NO_THROW(store.audit());
  EXPECT_EQ(all_intervals(t), rows);
  std::remove(spill.c_str());
#endif
}

// ---------------------------------------------------------------------------
// Compressed backend: encoded chunks are bit-identical to raw ones through
// every reader, backend mix, mutation and file round trip.
// ---------------------------------------------------------------------------

/// Multi-chunk copy of the trace sealed under a compression policy set
/// *before* ingest (the seal-time encode path, as opposed to the
/// set_compression re-encode sweep).
Trace make_compressed_copy(const Trace& trace) {
  Trace out;
  for (const auto& name : trace.states().names()) {
    (void)out.states().intern(name);
  }
  out.store()->set_compression(ChunkCompression::kAuto);
  for (ResourceId r = 0; r < static_cast<ResourceId>(trace.resource_count());
       ++r) {
    out.add_resource(trace.resource_path(r));
    int n = 0;
    for (const auto& s : trace.intervals(r)) {
      out.add_state(r, s.state, s.begin, s.end);
      if (++n % 25 == 0) out.seal();
    }
  }
  out.set_window(trace.begin(), trace.end());
  out.seal();
  return out;
}

std::size_t count_chunks(const TraceStore& store, bool addressable,
                         bool resident) {
  std::size_t n = 0;
  for (ResourceId r = 0; r < static_cast<ResourceId>(store.resource_count());
       ++r) {
    for (const TraceChunkPtr& c : store.chunks(r)) {
      if (c->addressable() == addressable && c->resident() == resident) ++n;
    }
  }
  return n;
}

TEST(TraceStoreCompress, AutoPolicyShrinksStoreAndFoldsBitIdentical) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace resident = make_random_trace(h, 0x71, seconds(25.0), 140);
  resident.seal();
  ModelBuildOptions opt;
  opt.slice_count = 24;
  const MicroscopicModel want = build_model(resident, h, opt);

  // Raw multi-chunk twin for the byte comparison.
  Trace raw = make_chunked_copy(resident);
  const std::size_t raw_bytes = raw.store()->store_bytes();

  // Seal-time path: the policy encodes every chunk as it seals.
  Trace sealed = make_compressed_copy(resident);
  EXPECT_EQ(sealed.store()->compression(), ChunkCompression::kAuto);
  EXPECT_LT(sealed.store()->store_bytes(), raw_bytes);
  EXPECT_GT(count_chunks(*sealed.store(), /*addressable=*/false,
                         /*resident=*/true),
            0u);
  const TraceView view(sealed.store());
  EXPECT_GT(view.compressed_run_count(), 0u);
  EXPECT_GT(view.cursor_scratch_bytes(), 0u);
  // The cursor scratch is bounded: fixed decoder state per run, far from
  // a decompressed copy of the store.
  EXPECT_LT(view.cursor_scratch_bytes(), raw_bytes / 4);
  const MicroscopicModel compressed = build_model(view, h, opt);
  expect_models_equal(want, compressed, "seal-time compressed store");
  expect_aggregations_equal(want, compressed, /*lanes=*/1, "compressed");
  expect_aggregations_equal(want, compressed, /*lanes=*/4, "compressed");

  // Re-encode sweep: set_compression(kAuto) on already-sealed raw chunks
  // rewrites them in place, shrinking the store without touching results.
  raw.store()->set_compression(ChunkCompression::kAuto);
  EXPECT_LT(raw.store()->store_bytes(), raw_bytes);
  expect_models_equal(want, build_model(TraceView(raw.store()), h, opt),
                      "re-encoded store");
  // Dropping back to kNone stops future encoding but never rewrites what
  // is already sealed.
  const std::size_t encoded_bytes = raw.store()->store_bytes();
  raw.store()->set_compression(ChunkCompression::kNone);
  EXPECT_EQ(raw.store()->store_bytes(), encoded_bytes);
}

TEST(TraceStoreCompress, MixedBackendStoreFoldsBitIdenticalAtW1AndW4) {
  // All three payload backends in one store — resident raw, mapped raw,
  // compressed (resident and mapped) — folded through one view against
  // the PR 4/5 oracles at both lane widths.
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace resident = make_random_trace(h, 0x72, seconds(25.0), 140);
  resident.seal();
  Trace chunked = make_chunked_copy(resident);
  const std::string spill = spill_path("mixed");
  std::remove(spill.c_str());
  chunked.store()->enable_spill(spill);

  // Half the raw chunks to the file, then compress what stayed resident.
  (void)chunked.store()->spill_cold(chunked.store()->store_bytes() / 2);
  ASSERT_GT(count_chunks(*chunked.store(), /*addressable=*/true,
                         /*resident=*/false),
            0u);
  chunked.store()->set_compression(ChunkCompression::kAuto);
  ASSERT_GT(count_chunks(*chunked.store(), /*addressable=*/false,
                         /*resident=*/true),
            0u);
  // Spilling again writes compressed records: mapped compressed chunks.
  (void)chunked.store()->spill_cold(
      chunked.store()->resident_chunk_bytes() / 2);
  ASSERT_GT(count_chunks(*chunked.store(), /*addressable=*/false,
                         /*resident=*/false),
            0u);

  ModelBuildOptions opt;
  opt.slice_count = 24;
  const MicroscopicModel want = build_model(resident, h, opt);
  const TraceView view(chunked.store());
  EXPECT_GT(view.spilled_run_count(), 0u);
  EXPECT_GT(view.compressed_run_count(), 0u);
  const MicroscopicModel mixed = build_model(view, h, opt);
  expect_models_equal(want, mixed, "mixed-backend store");
  expect_aggregations_equal(want, mixed, /*lanes=*/1, "mixed backends");
  expect_aggregations_equal(want, mixed, /*lanes=*/4, "mixed backends");
  std::remove(spill.c_str());
}

TEST(TraceStoreCompress, MidStreamCompressAndSpillUnderOpenViewIsInvisible) {
  const Hierarchy h = make_balanced_hierarchy(1, 3);
  Trace trace = make_random_trace(h, 0x73, seconds(10.0), 60);
  trace.seal();
  Trace chunked = make_chunked_copy(trace);
  const std::string spill = spill_path("midcompress");
  std::remove(spill.c_str());
  chunked.store()->enable_spill(spill);

  const TraceView before(chunked.store());
  const auto want = stream_all(before);

  // Re-encode the whole store AND spill it while `before` is mid-stream:
  // the view pinned its chunks by shared pointer and must not notice.
  bool mutated_mid_stream = false;
  std::vector<std::vector<StateInterval>> got(before.resource_count());
  for (std::size_t r = 0; r < before.resource_count(); ++r) {
    before.for_each(r, [&](const StateInterval& s) {
      if (!mutated_mid_stream) {
        chunked.store()->set_compression(ChunkCompression::kAuto);
        (void)chunked.store()->spill_cold(0);
        mutated_mid_stream = true;
      }
      got[r].push_back(s);
    });
  }
  ASSERT_TRUE(mutated_mid_stream);
  EXPECT_EQ(got, want);

  // A fresh view streams the compressed records from the file; the
  // spilled accounting counts *encoded* bytes, so the file-backed side is
  // smaller than the raw columns it replaced.
  const TraceView after(chunked.store());
  EXPECT_GT(after.compressed_run_count(), 0u);
  EXPECT_EQ(stream_all(after), want);
  EXPECT_EQ(chunked.store()->resident_chunk_bytes(), 0u);
  EXPECT_LT(chunked.store()->spilled_chunk_bytes(),
            trace.store()->store_bytes());

  // Pinning back keeps chunks compressed (compressed-resident copies) and
  // bit-identical.
  (void)chunked.store()->pin_all();
  EXPECT_EQ(chunked.store()->spilled_chunk_bytes(), 0u);
  EXPECT_GT(count_chunks(*chunked.store(), /*addressable=*/false,
                         /*resident=*/true),
            0u);
  EXPECT_EQ(stream_all(TraceView(chunked.store())), want);
  std::remove(spill.c_str());
}

TEST(TraceStoreCompress, MixedBackendCompactionPreservesRows) {
  // Size-tier compaction over lanes mixing raw-mapped, compressed-resident
  // and compressed-mapped members: the cursor-based merge must reproduce a
  // never-spilled never-compressed single-seal store exactly.
  Trace mixed;
  Trace once;
  const ResourceId rm = mixed.add_resource("r");
  const ResourceId ro = once.add_resource("r");
  (void)mixed.states().intern("s");
  (void)once.states().intern("s");
  const std::string spill = spill_path("mixed_compaction");
  std::remove(spill.c_str());
  mixed.store()->enable_spill(spill);

  SplitMix64 mix(0x74);
  const int rounds = 3 * static_cast<int>(TraceStore::kCompactionThreshold);
  for (int round = 0; round < rounds; ++round) {
    // Raw chunks for the first tier, compressed ones from then on.
    if (round == static_cast<int>(TraceStore::kCompactionThreshold)) {
      mixed.store()->set_compression(ChunkCompression::kAuto);
    }
    for (int k = 0; k < 4; ++k) {
      const auto b = static_cast<TimeNs>(mix.next() % 10000);
      mixed.add_state(rm, StateId{0}, b, b + 7);
      once.add_state(ro, StateId{0}, b, b + 7);
    }
    mixed.seal();
    (void)mixed.store()->spill_cold(mixed.store()->resident_chunk_bytes() /
                                    2);
  }
  once.seal();
  EXPECT_LE(mixed.store()->chunks(rm).size(),
            TraceStore::kCompactionThreshold + 1);
  const auto a = mixed.intervals(rm);
  const auto e = once.intervals(ro);
  ASSERT_EQ(a.size(), e.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], e[i]) << i;
  std::remove(spill.c_str());
}

TEST(TraceStoreSpill, SpillFileCompactionBoundsChurnGrowth) {
  // Churn regression (satellite): seal/spill/evict cycles keep appending
  // records and killing old ones.  Without compaction the spill file
  // grows without bound; with it, dead bytes never exceed live bytes and
  // the file stays within a small multiple of the live payload.
  Trace t;
  const ResourceId r = t.add_resource("r");
  const StateId x = t.states().intern("s");
  const std::string spill = spill_path("churn");
  std::remove(spill.c_str());
  t.store()->enable_spill(spill);

  const auto file_size = [&]() -> std::size_t {
    std::ifstream in(spill, std::ios::binary | std::ios::ate);
    return in ? static_cast<std::size_t>(in.tellg()) : 0;
  };

  SplitMix64 mix(0x75);
  std::vector<StateInterval> added;
  std::size_t max_file = 0;
  for (int round = 0; round < 120; ++round) {
    const TimeNs base = round * 1000;
    for (int k = 0; k < 25; ++k) {
      const auto b = base + static_cast<TimeNs>(mix.next() % 1000);
      t.add_state(r, x, b, b + 40);
      added.push_back({b, b + 40, x});
    }
    t.seal();
    (void)t.store()->spill_cold(0);
    // A trailing 8-round window: everything older dies, so most of the
    // file's records are garbage within a few rounds.
    if (round >= 8) t.store()->evict_before((round - 8) * 1000);

    EXPECT_LE(t.store()->spill_dead_bytes(), t.store()->spill_live_bytes())
        << "round " << round
        << ": compaction must run before dead bytes overtake live bytes";
    // live + dead + magic/padding slack bounds the file.
    EXPECT_LE(file_size(), 2 * t.store()->spill_live_bytes() + 4096)
        << "round " << round;
    max_file = std::max(max_file, file_size());
  }
  ASSERT_GT(t.store()->spill_live_bytes(), 0u);
  // The whole churn wrote ~120 rounds of records; the file never held
  // more than a small multiple of one round's live set.
  EXPECT_LT(max_file, 8 * t.store()->spill_live_bytes() + 4096);

  // Eviction drops only whole dead chunks, so survivors may reach behind
  // the horizon — but everything at or past it must be present exactly.
  const TimeNs horizon = (119 - 8) * 1000;
  std::vector<StateInterval> expected;
  for (const auto& s : added) {
    if (s.begin >= horizon) expected.push_back(s);
  }
  std::sort(expected.begin(), expected.end(), interval_key_less);
  std::vector<StateInterval> got;
  for (const auto& s : t.intervals(r)) {
    if (s.begin >= horizon) got.push_back(s);
  }
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << i;
  }
  std::remove(spill.c_str());
}

TEST(TraceStoreIo, CompressedChunkFileRoundTripsAndRejectsCorruption) {
  // A compression-enabled store writes v2 records that keep the encoded
  // sections; reopening streams them zero-copy from the mapping, and any
  // tampering is rejected with the record's file offset.
  Trace t;
  const ResourceId r = t.add_resource("r");
  const StateId x = t.states().intern("s");
  t.store()->set_compression(ChunkCompression::kAuto);
  TimeNs at = 0;
  for (int k = 0; k < 40; ++k) {
    t.add_state(r, x, at, at + 250);
    at += 250;
  }
  t.seal();
  ASSERT_GT(count_chunks(*t.store(), /*addressable=*/false,
                         /*resident=*/true),
            0u);
  const std::string path = temp_path("compressed_chunkfile");
  write_chunk_file(*t.store(), path);
  ASSERT_TRUE(is_chunk_file(path));

  const auto reopened = read_binary_trace_store(path);
  EXPECT_EQ(reopened->state_count(), 40u);
  // The record stays encoded on disk and maps back as a compressed chunk:
  // nothing resident, and the file-backed bytes are the encoded ones.
  EXPECT_EQ(reopened->resident_chunk_bytes(), 0u);
  EXPECT_GT(reopened->spilled_chunk_bytes(), 0u);
  EXPECT_LT(reopened->spilled_chunk_bytes(), 40u * 20u);
  EXPECT_EQ(stream_all(TraceView(reopened)), stream_all(TraceView(t.store())));

  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  // Fixed layout: 48-byte file header, "r" + "s" tables (10 bytes) padded
  // to 64, then the 72-byte record header — the encoded begin section
  // starts at 136.
  ASSERT_GT(bytes.size(), 140u);

  const auto write_bytes_to = [&](const std::string& p,
                                  const std::vector<char>& data) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };
  const auto expect_throws_with = [&](const std::string& p,
                                      const std::string& needle) {
    try {
      (void)read_binary_trace_store(p);
      FAIL() << "expected TraceFormatError mentioning '" << needle << "'";
    } catch (const TraceFormatError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(needle), std::string::npos) << what;
      EXPECT_NE(what.find("offset"), std::string::npos) << what;
    }
  };

  // Truncated encoded payload.
  std::vector<char> truncated(bytes.begin(), bytes.end() - 12);
  write_bytes_to(path, truncated);
  expect_throws_with(path, "truncated chunk");

  // Bit flip inside the encoded begin section: checksum must trip.
  std::vector<char> corrupt = bytes;
  corrupt[136] ^= 0x40;
  write_bytes_to(path, corrupt);
  expect_throws_with(path, "checksum mismatch");

  // Invalid codec tag (end column claiming the begin-only gap codec; byte
  // 69 is the record header's end-codec tag).
  std::vector<char> bad_codec = bytes;
  bad_codec[69] = 4;
  write_bytes_to(path, bad_codec);
  expect_throws_with(path, "invalid chunk codec tags");

  // Pristine bytes still open and fold identically.
  write_bytes_to(path, bytes);
  EXPECT_EQ(stream_all(TraceView(read_binary_trace_store(path))),
            stream_all(TraceView(t.store())));
  std::remove(path.c_str());
}

TEST(TraceStoreIo, ChunkFileV1FailsWithBadMagic) {
  // v1 chunk files (raw columns, 40-byte record headers) are no longer
  // read: a well-formed one synthesized byte-for-byte is not a chunk file
  // and fails every open path with a typed bad-magic error.
  std::vector<std::uint8_t> bytes;
  const auto append_pod = [&](const auto& v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof v);
  };
  const auto append_string = [&](const std::string& s) {
    append_pod(static_cast<std::uint32_t>(s.size()));
    bytes.insert(bytes.end(), s.begin(), s.end());
  };
  const char magic[8] = {'S', 'T', 'G', 'C', 'H', 'K', '0', '1'};
  bytes.insert(bytes.end(), magic, magic + 8);
  append_pod(std::uint64_t{1});  // resources
  append_pod(std::uint64_t{1});  // states
  append_pod(TimeNs{0});         // window begin
  append_pod(TimeNs{30});        // window end
  append_pod(std::uint64_t{1});  // chunk count
  append_string("r");
  append_string("s");
  while (bytes.size() % 8 != 0) bytes.push_back(0);

  const TimeNs begins[3] = {0, 5, 20};
  const TimeNs ends[3] = {10, 25, 30};
  const StateId states[3] = {0, 0, 0};
  std::uint64_t checksum = 1469598103934665603ull;
  const auto fnv = [&](const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      checksum ^= p[i];
      checksum *= 1099511628211ull;
    }
  };
  fnv(begins, sizeof begins);
  fnv(ends, sizeof ends);
  fnv(states, sizeof states);

  // v1 record header: u32 resource | pad | u64 count | i64 min_end |
  // i64 max_end | u64 checksum = 40 bytes, then raw columns padded to 8.
  append_pod(std::uint32_t{0});
  append_pod(std::uint32_t{0});
  append_pod(std::uint64_t{3});
  append_pod(TimeNs{10});
  append_pod(TimeNs{30});
  append_pod(checksum);
  for (const TimeNs b : begins) append_pod(b);
  for (const TimeNs e : ends) append_pod(e);
  for (const StateId s : states) append_pod(s);
  append_pod(std::uint32_t{0});  // state-column pad to 8

  const std::string path = temp_path("v1_compat");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(is_chunk_file(path));
  const auto error_of = [](const auto& open) -> std::string {
    try {
      open();
    } catch (const TraceFormatError& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(error_of([&] { (void)open_chunk_file_store(path); }),
            "trace format error: bad chunk file magic in '" + path + "'");
  const std::string stgt_magic =
      "trace format error: bad magic in '" + path + "'";
  EXPECT_EQ(error_of([&] { (void)read_binary_trace_store(path); }),
            stgt_magic);
  EXPECT_EQ(error_of([&] { (void)read_binary_trace(path); }), stgt_magic);
  std::remove(path.c_str());
}

TEST(TraceStoreIo, EvictBeforeMidStreamPreservesSuffixWindows) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace trace = make_random_trace(h, 0x22, seconds(20.0), 120);
  trace.seal();
  const std::string path = temp_path("evict");
  write_binary_trace(trace, path);

  const auto store = read_binary_trace_store(path, /*chunk_records=*/64);
  const TimeNs cutoff = seconds(8.0);
  store->evict_before(cutoff);

  // Any window at or past the cutoff folds bit-identically to the
  // unevicted trace.
  ModelBuildOptions opt;
  opt.slice_count = 18;
  opt.window_begin = cutoff;
  opt.window_end = seconds(20.0);
  Trace read = read_binary_trace(path);
  expect_models_equal(
      build_model(read, h, opt),
      build_model(TraceView(store, opt.window_begin, opt.window_end), h, opt),
      "post-evict suffix window");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Dirty-lane sealing: a seal visits only the lanes touched since the last
// one, yet leaves exactly the layout a seal over every lane would.
// ---------------------------------------------------------------------------

/// Chunk identities of every lane (pointer equality = untouched chunk).
std::vector<std::vector<const TraceChunk*>> chunk_ids(const TraceStore& s) {
  std::vector<std::vector<const TraceChunk*>> out(s.resource_count());
  for (std::size_t r = 0; r < out.size(); ++r) {
    for (const TraceChunkPtr& c : s.chunks(static_cast<ResourceId>(r))) {
      out[r].push_back(c.get());
    }
  }
  return out;
}

TEST(TraceStore, SealLeavesUntouchedLanesChunkPointersUnchanged) {
  TraceStore store;
  const StateId x = store.states().intern("s");
  for (int r = 0; r < 6; ++r) store.add_resource("r" + std::to_string(r));
  for (int round = 0; round < 3; ++round) {
    for (ResourceId r = 0; r < 6; ++r) {
      store.add_state(r, x, round * 100 + r, round * 100 + r + 50);
    }
    store.seal_chunk();
  }
  const auto before = chunk_ids(store);
  store.add_state(2, x, 1000, 1010);
  store.seal_chunk();
  const auto after = chunk_ids(store);
  for (std::size_t r = 0; r < before.size(); ++r) {
    if (r == 2) continue;
    EXPECT_EQ(after[r], before[r]) << "resource " << r;
  }
  ASSERT_EQ(after[2].size(), before[2].size() + 1);
  EXPECT_TRUE(
      std::equal(before[2].begin(), before[2].end(), after[2].begin()));
  EXPECT_NO_THROW(store.audit());
}

TEST(TraceStore, DirtyLaneSealStillCompactsReencodedAndAdoptedLanes) {
  constexpr std::size_t kThreshold = TraceStore::kCompactionThreshold;
  // Lane 0: three sealed raw chunks of 8 compressible blocks each, so
  // set_compression(kAuto) splits it past the threshold without a seal.
  // Lane 1: untouched bystander.  Lane 2: fed later by adopt_chunk.
  TraceStore store;
  const StateId x = store.states().intern("s");
  for (int r = 0; r < 3; ++r) store.add_resource("r" + std::to_string(r));
  const std::size_t per_chunk = 8 * TraceStore::kCompressedBlockIntervals;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t k = 0; k < per_chunk; ++k) {
      const auto b = static_cast<TimeNs>((round * per_chunk + k) * 10);
      store.add_state(0, x, b, b + 5);
    }
    store.add_state(1, x, round, round + 1);
    store.seal_chunk();
  }
  std::vector<StateInterval> rows0;
  store.materialize(0, rows0);
  store.set_compression(ChunkCompression::kAuto);
  const std::vector<TraceChunkPtr> reencoded(store.chunks(0).begin(),
                                             store.chunks(0).end());
  ASSERT_GT(reencoded.size(), kThreshold);
  EXPECT_NO_THROW(store.audit());

  // Lane 2 gets more adopted chunks than the threshold in one go.
  const std::size_t adopted = kThreshold + 4;
  for (std::size_t k = 0; k < adopted; ++k) {
    const auto b = static_cast<TimeNs>(k * 7);
    store.adopt_chunk(2, TraceChunk::from_sorted(std::vector<StateInterval>{
                             StateInterval{b, b + 3, x}}));
  }
  const auto bystander = chunk_ids(store)[1];
  store.seal_chunk();  // touches only lane 2 through the public API

  // Reference: the re-encoded chunk list arriving through adopt_chunk, the
  // path every earlier seal visited.  Same chunks in, same compaction out.
  TraceStore ref;
  (void)ref.states().intern("s");
  ref.add_resource("r0");
  ref.set_compression(ChunkCompression::kAuto);
  for (const TraceChunkPtr& c : reencoded) ref.adopt_chunk(0, c);
  ref.seal_chunk();
  ASSERT_EQ(store.chunks(0).size(), ref.chunks(0).size());
  EXPECT_LE(store.chunks(0).size(), kThreshold);
  for (std::size_t i = 0; i < ref.chunks(0).size(); ++i) {
    EXPECT_EQ(store.chunks(0)[i]->size(), ref.chunks(0)[i]->size()) << i;
  }
  std::vector<StateInterval> after0;
  store.materialize(0, after0);
  EXPECT_EQ(after0, rows0);

  // Size-tiered compaction of an all-singleton lane merges down to half
  // the threshold.
  EXPECT_EQ(store.chunks(2).size(), kThreshold / 2);
  EXPECT_EQ(chunk_ids(store)[1], bystander);
  EXPECT_NO_THROW(store.audit());
}

TEST(TraceStore, EraseRewriteSplitIsCompactedAtTheNextSeal) {
  // A spilled raw chunk is not re-encoded by set_compression(kAuto); an
  // exact erase that rewrites it splits the survivors into compressed
  // blocks, past the threshold, without sealing.  The next seal — here
  // triggered through another lane — must compact it.
  TraceStore store;
  const StateId x = store.states().intern("s");
  store.add_resource("r0");
  store.add_resource("r1");
  const std::size_t n = 4 * TraceStore::kCompactionThreshold *
                        TraceStore::kCompressedBlockIntervals;
  for (std::size_t k = 0; k < n; ++k) {
    const auto b = static_cast<TimeNs>(k * 10);
    store.add_state(0, x, b, b + 5);
  }
  store.seal_chunk();
  const std::string spill = spill_path("erase_split");
  std::remove(spill.c_str());
  store.enable_spill(spill);
  ASSERT_EQ(store.spill_cold(0), 1u);
  store.set_compression(ChunkCompression::kAuto);
  ASSERT_EQ(store.chunks(0).size(), 1u);
  store.erase_before_exact(20);
  ASSERT_GT(store.chunks(0).size(), TraceStore::kCompactionThreshold);
  EXPECT_NO_THROW(store.audit());
  std::vector<StateInterval> rows;
  store.materialize(0, rows);

  store.add_state(1, x, 0, 1);
  store.seal_chunk();
  EXPECT_LE(store.chunks(0).size(), TraceStore::kCompactionThreshold);
  std::vector<StateInterval> after;
  store.materialize(0, after);
  EXPECT_EQ(after, rows);
  EXPECT_NO_THROW(store.audit());
  std::remove(spill.c_str());
}

/// Hand-encodes an STGT file (the library writer always emits sorted,
/// resource-major records; these keep exactly the given order).  A
/// `declared` count above records.size() leaves the section truncated.
void write_raw_stgt(const std::string& path,
                    const std::vector<std::string>& resources,
                    const std::vector<std::string>& states, TimeNs begin,
                    TimeNs end, const std::vector<StgtRecord>& records,
                    std::uint64_t declared) {
  std::vector<std::uint8_t> bytes;
  const auto put = [&bytes](const auto& v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof v);
  };
  const auto put_string = [&](const std::string& str) {
    put(static_cast<std::uint32_t>(str.size()));
    bytes.insert(bytes.end(), str.begin(), str.end());
  };
  bytes.insert(bytes.end(), {'S', 'T', 'G', 'T', 'R', 'C', '0', '1'});
  put(static_cast<std::uint64_t>(resources.size()));
  put(static_cast<std::uint64_t>(states.size()));
  put(begin);
  put(end);
  put(declared);
  for (const auto& r : resources) put_string(r);
  for (const auto& x : states) put_string(x);
  for (const StgtRecord& rec : records) {
    put(static_cast<std::uint32_t>(rec.resource));
    put(static_cast<std::uint32_t>(rec.interval.state));
    put(rec.interval.begin);
    put(rec.interval.end);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Shuffled records interleaving every leaf of `h`, with duplicates and
/// zero-duration intervals.
std::vector<StgtRecord> shuffled_records(const Hierarchy& h,
                                         std::uint64_t seed, int count) {
  SplitMix64 mix(seed);
  std::vector<StgtRecord> records;
  for (int k = 0; k < count; ++k) {
    const auto r = static_cast<ResourceId>(mix.next() % h.leaf_count());
    const auto b = static_cast<TimeNs>(mix.next() % seconds(10.0));
    const TimeNs d = mix.next() % 5 == 0
                         ? 0
                         : static_cast<TimeNs>(mix.next() % seconds(1.0));
    records.push_back(
        {r, StateInterval{b, b + d, static_cast<StateId>(mix.next() % 3)}});
    if (mix.next() % 16 == 0) records.push_back(records.back());
  }
  return records;
}

std::vector<std::string> leaf_paths(const Hierarchy& h) {
  std::vector<std::string> paths;
  for (LeafId leaf = 0; leaf < static_cast<LeafId>(h.leaf_count()); ++leaf) {
    paths.push_back(h.path(h.leaf_node(leaf)));
  }
  return paths;
}

TEST(TraceStoreIo, UnsortedInterleavedRecordsMatchTraceReader) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  const std::vector<std::string> paths = leaf_paths(h);
  const auto records = shuffled_records(h, 0x5EED, 2000);
  const std::string path = temp_path("shuffled");
  write_raw_stgt(path, paths, {"a", "b", "c"}, 0, seconds(11.0), records,
                 records.size());

  Trace read = read_binary_trace(path);
  ModelBuildOptions opt;
  opt.slice_count = 20;
  const MicroscopicModel want = build_model(read, h, opt);
  for (const std::size_t chunk_records : {64, 1 << 16}) {
    const std::string ctx = "chunk_records " + std::to_string(chunk_records);
    const auto store = read_binary_trace_store(path, chunk_records);
    EXPECT_NO_THROW(store->audit()) << ctx;
    ASSERT_EQ(store->state_count(), records.size()) << ctx;
    std::vector<StateInterval> rows;
    for (ResourceId r = 0; r < static_cast<ResourceId>(paths.size()); ++r) {
      store->materialize(r, rows);
      const auto want_rows = read.intervals(r);
      ASSERT_EQ(rows.size(), want_rows.size()) << ctx << " resource " << r;
      EXPECT_TRUE(std::equal(rows.begin(), rows.end(), want_rows.begin()))
          << ctx << " resource " << r;
    }
    expect_models_equal(want, build_model(TraceView(store), h, opt), ctx);
  }
  std::remove(path.c_str());
}

TEST(TraceStoreIo, StoreReaderChunkLayoutIsPinned) {
  // Per-lane chunk counts and store_bytes() of read_binary_trace_store on
  // fixed files, recorded from the reader that sealed every lane at every
  // seal: sealing only touched lanes and skipping sorts of sorted tails
  // must leave the same layout, with and without compaction.
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace trace = make_random_trace(h, 0xC0DE, seconds(20.0), 300);
  const std::string sorted = temp_path("pin_sorted");
  write_binary_trace(trace, sorted);
  const auto records = shuffled_records(h, 0x5EED, 2000);
  const std::string shuffled = temp_path("pin_shuffled");
  write_raw_stgt(shuffled, leaf_paths(h), {"a", "b", "c"}, 0, seconds(11.0),
                 records, records.size());
  struct Pin {
    const std::string* path;
    std::size_t chunk_records;
    std::size_t store_bytes;
    std::vector<std::size_t> chunks;
  };
  const Pin pins[] = {
      {&sorted, 16, 54000, {10, 11, 11, 10, 10, 11, 11, 10, 10}},
      {&sorted, 64, 54000, {5, 6, 6, 5, 6, 6, 5, 6, 6}},
      {&sorted, 1 << 16, 54000, {1, 1, 1, 1, 1, 1, 1, 1, 1}},
      {&shuffled, 16, 42680, {10, 11, 11, 11, 11, 16, 13, 11, 16}},
      {&shuffled, 64, 42680, {16, 16, 16, 16, 16, 16, 16, 16, 16}},
      {&shuffled, 1 << 16, 42680, {1, 1, 1, 1, 1, 1, 1, 1, 1}},
  };
  for (const Pin& pin : pins) {
    const auto store = read_binary_trace_store(*pin.path, pin.chunk_records);
    std::vector<std::size_t> chunks;
    for (ResourceId r = 0; r < static_cast<ResourceId>(store->resource_count());
         ++r) {
      chunks.push_back(store->chunks(r).size());
    }
    EXPECT_EQ(chunks, pin.chunks) << *pin.path << " / " << pin.chunk_records;
    EXPECT_EQ(store->store_bytes(), pin.store_bytes)
        << *pin.path << " / " << pin.chunk_records;
  }
  std::remove(sorted.c_str());
  std::remove(shuffled.c_str());
}

/// what() of the TraceFormatError `read` throws ("" when it does not).
template <class Read>
std::string format_error(Read&& read) {
  try {
    read();
  } catch (const TraceFormatError& e) {
    return e.what();
  }
  return "";
}

TEST(TraceStoreIo, MalformedRecordsFailAlikeThroughStoreAndTraceReaders) {
  const std::vector<std::string> resources = {"r0", "r1"};
  const std::vector<std::string> states = {"s"};
  // 48-byte header, then u32-length-prefixed tables.
  const std::uint64_t base = 48 + (4 + 2) * 2 + (4 + 1);
  std::vector<StgtRecord> good;
  for (int k = 0; k < 10; ++k) {
    good.push_back({k % 2, StateInterval{k * 10, k * 10 + 5, 0}});
  }
  struct Case {
    const char* name;
    std::size_t bad_index;
    StgtRecord bad;
    const char* message;
  };
  const Case cases[] = {
      {"unknown_resource", 7, {2, StateInterval{0, 1, 0}},
       "record references unknown resource"},
      {"unknown_state", 3, {1, StateInterval{0, 1, 1}},
       "record references unknown state"},
      {"end_before_begin", 5, {0, StateInterval{9, 4, 0}},
       "record with end < begin"},
  };
  for (const Case& c : cases) {
    auto records = good;
    records[c.bad_index] = c.bad;
    const std::string path = temp_path(c.name);
    write_raw_stgt(path, resources, states, 0, 100, records, records.size());
    const std::string want = "trace format error: " + std::string(c.message) +
                             " in '" + path + "' at offset " +
                             std::to_string(base + c.bad_index * 24);
    EXPECT_EQ(format_error([&] { (void)read_binary_trace(path); }), want);
    for (const std::size_t chunk_records : {4, 1 << 16}) {
      EXPECT_EQ(format_error([&] {
                  (void)read_binary_trace_store(path, chunk_records);
                }),
                want)
          << c.name << " chunk_records " << chunk_records;
    }
    std::remove(path.c_str());
  }

  // Truncated record section: 10 records present, 13 declared.
  const std::string path = temp_path("truncated_records");
  write_raw_stgt(path, resources, states, 0, 100, good, good.size() + 3);
  const std::string want =
      format_error([&] { (void)read_binary_trace(path); });
  EXPECT_NE(want.find("truncated"), std::string::npos) << want;
  EXPECT_NE(want.find("offset " + std::to_string(base)), std::string::npos)
      << want;
  for (const std::size_t chunk_records : {4, 1 << 16}) {
    EXPECT_EQ(format_error([&] {
                (void)read_binary_trace_store(path, chunk_records);
              }),
              want)
        << "chunk_records " << chunk_records;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Range seams of the store reader.  It decodes ranges of whole windows in
// parallel — at least 4096 records each, rounded up to whole windows of
// chunk_records — so at these chunk_records a 20000-record file spans
// many ranges (7 and 64), two ranges (10000) and one range (1 << 16).
// ---------------------------------------------------------------------------

constexpr std::size_t kSeamChunkRecords[] = {7, 64, 10000, 1 << 16};

/// Two lanes of sorted, non-overlapping records, interleaved in runs.
std::vector<StgtRecord> seam_records(std::size_t count) {
  std::vector<StgtRecord> records;
  records.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const auto b = static_cast<TimeNs>(k * 10);
    records.push_back({static_cast<ResourceId>((k / 5) % 2),
                       StateInterval{b, b + 5, static_cast<StateId>(k % 2)}});
  }
  return records;
}

TEST(TraceStoreIo, EarliestMalformedRecordAcrossRangesWins) {
  const std::vector<std::string> resources = {"r0", "r1"};
  const std::vector<std::string> states = {"s0", "s1"};
  const std::uint64_t base = 48 + (4 + 2) * 2 + (4 + 2) * 2;
  auto records = seam_records(20000);
  // An unknown state late in the file, then end < begin early in it: the
  // early record is the one every reader must report.
  records[15000].interval.state = 2;
  records[3000].interval.end = records[3000].interval.begin - 1;
  const std::string path = temp_path("seam_two_bad");
  write_raw_stgt(path, resources, states, 0, 200000, records,
                 records.size());
  const std::string want =
      "trace format error: record with end < begin in '" + path +
      "' at offset " + std::to_string(base + 3000 * 24);
  EXPECT_EQ(format_error([&] { (void)read_binary_trace(path); }), want);
  for (const std::size_t chunk_records : kSeamChunkRecords) {
    EXPECT_EQ(format_error([&] {
                (void)read_binary_trace_store(path, chunk_records);
              }),
              want)
        << "chunk_records " << chunk_records;
  }
  std::remove(path.c_str());
}

TEST(TraceStoreIo, MalformedRecordBeforeTruncatedTailWins) {
  const std::vector<std::string> resources = {"r0", "r1"};
  const std::vector<std::string> states = {"s0", "s1"};
  const std::uint64_t base = 48 + (4 + 2) * 2 + (4 + 2) * 2;
  // 70000 records present, 70010 declared: the first 65536-record read
  // block is whole, the second is cut short.
  for (const std::size_t bad : {std::size_t{100}, std::size_t{66000}}) {
    auto records = seam_records(70000);
    records[bad].resource = 2;
    const std::string path = temp_path("seam_bad_truncated");
    write_raw_stgt(path, resources, states, 0, 800000, records,
                   records.size() + 10);
    // A malformed record in a whole block wins; one inside the cut block
    // is never decoded, so the truncation at that block's start wins.
    const std::string want =
        bad < 65536 ? "trace format error: record references unknown "
                      "resource in '" + path + "' at offset " +
                          std::to_string(base + bad * 24)
                    : "trace format error: truncated file '" + path +
                          "' at offset " + std::to_string(base + 65536 * 24);
    EXPECT_EQ(format_error([&] { (void)read_binary_trace(path); }), want);
    for (const std::size_t chunk_records : kSeamChunkRecords) {
      EXPECT_EQ(format_error([&] {
                  (void)read_binary_trace_store(path, chunk_records);
                }),
                want)
          << "bad " << bad << " chunk_records " << chunk_records;
    }
    std::remove(path.c_str());
  }
}

TEST(TraceStoreIo, RangeSplitKeepsTheWindowSealLayout) {
  // 20000 records is a multiple of no range size here, so every split
  // ends in a short range (and, but for 10000, a short window).  The
  // layout must be the one of sealing every chunk_records appended
  // records, whatever the split.
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  const std::vector<std::string> paths = leaf_paths(h);
  const std::vector<std::string> states = {"a", "b", "c"};
  for (const bool shuffled : {false, true}) {
    std::vector<StgtRecord> records = seam_records(20000);
    if (shuffled) records = shuffled_records(h, 0xFACE, 18800);
    const std::string path = temp_path("seam_layout");
    write_raw_stgt(path, paths, states, 0, seconds(11.0), records,
                   records.size());
    for (const std::size_t chunk_records : kSeamChunkRecords) {
      const std::string ctx = std::string(shuffled ? "shuffled" : "runs") +
                              " chunk_records " +
                              std::to_string(chunk_records);
      TraceStore want;
      for (const auto& p : paths) want.add_resource(p);
      for (const auto& x : states) (void)want.states().intern(x);
      std::size_t staged = 0;
      for (const StgtRecord& rec : records) {
        want.add_state(rec.resource, rec.interval.state, rec.interval.begin,
                       rec.interval.end);
        if (++staged == chunk_records) {
          want.seal_chunk();
          staged = 0;
        }
      }
      want.set_window(0, seconds(11.0));
      want.seal_chunk();

      const auto got = read_binary_trace_store(path, chunk_records);
      EXPECT_NO_THROW(got->audit()) << ctx;
      EXPECT_EQ(got->store_bytes(), want.store_bytes()) << ctx;
      std::vector<StateInterval> got_rows;
      std::vector<StateInterval> want_rows;
      for (ResourceId r = 0; r < static_cast<ResourceId>(paths.size());
           ++r) {
        ASSERT_EQ(got->chunks(r).size(), want.chunks(r).size())
            << ctx << " resource " << r;
        for (std::size_t c = 0; c < want.chunks(r).size(); ++c) {
          EXPECT_EQ(got->chunks(r)[c]->size(), want.chunks(r)[c]->size())
              << ctx << " resource " << r << " chunk " << c;
        }
        got->materialize(r, got_rows);
        want.materialize(r, want_rows);
        EXPECT_EQ(got_rows, want_rows) << ctx << " resource " << r;
      }
    }
    std::remove(path.c_str());
  }
}

TEST(TraceStoreIo, ShuffledLanesAcrossRangesMatchTraceReader) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  const std::vector<std::string> paths = leaf_paths(h);
  const auto records = shuffled_records(h, 0xBEEF, 20000);
  const std::string path = temp_path("seam_shuffled");
  write_raw_stgt(path, paths, {"a", "b", "c"}, 0, seconds(11.0), records,
                 records.size());
  Trace read = read_binary_trace(path);
  ModelBuildOptions opt;
  opt.slice_count = 20;
  const MicroscopicModel want = build_model(read, h, opt);
  for (const std::size_t chunk_records : kSeamChunkRecords) {
    const std::string ctx = "chunk_records " + std::to_string(chunk_records);
    const auto store = read_binary_trace_store(path, chunk_records);
    EXPECT_NO_THROW(store->audit()) << ctx;
    ASSERT_EQ(store->state_count(), records.size()) << ctx;
    std::vector<StateInterval> rows;
    for (ResourceId r = 0; r < static_cast<ResourceId>(paths.size()); ++r) {
      store->materialize(r, rows);
      const auto want_rows = read.intervals(r);
      ASSERT_EQ(rows.size(), want_rows.size()) << ctx << " resource " << r;
      EXPECT_TRUE(std::equal(rows.begin(), rows.end(), want_rows.begin()))
          << ctx << " resource " << r;
    }
    expect_models_equal(want, build_model(TraceView(store), h, opt), ctx);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stagg
