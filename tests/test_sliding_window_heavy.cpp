// Heavy splice-equivalence suite (ctest label `heavy`): the bench-scale
// configuration — 64 leaves, |T| = 96 — driven through long random
// append/slide/extend/contract sequences with from-scratch oracle checks
// at every step.  The fast variant of this property test lives in
// test_sliding_window.cpp; this one exists to hammer the relocation and
// dirty-sweep paths at a size where off-by-one-row bugs cannot hide in
// tiny triangles.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/sliding_window.hpp"
#include "hierarchy/hierarchy.hpp"
#include "trace/trace.hpp"
#include "workload/synthetic.hpp"

namespace stagg {
namespace {

void expect_results_equal(const std::vector<AggregationResult>& got,
                          const std::vector<AggregationResult>& want,
                          const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].optimal_pic, want[k].optimal_pic)
        << context << " k=" << k << " p=" << got[k].p;
    EXPECT_EQ(got[k].partition.signature(), want[k].partition.signature())
        << context << " k=" << k << " p=" << got[k].p;
    EXPECT_EQ(got[k].measures.gain, want[k].measures.gain)
        << context << " k=" << k;
    EXPECT_EQ(got[k].measures.loss, want[k].measures.loss)
        << context << " k=" << k;
  }
}

TEST(SlidingWindowHeavy, BenchScaleRandomOpsStayBitIdentical) {
  const Hierarchy h = make_balanced_hierarchy(3, 4);  // 64 leaves, 85 nodes
  const auto programmer = [](LeafId leaf) {
    ResourceProgram p;
    p.phases.push_back(
        {0.0, 400.0,
         StatePattern{{{"compute", 0.2, 0.3},
                       {"wait", leaf % 4 == 0 ? 0.3 : 0.05, 0.5},
                       {"send", 0.1, 0.4}}}});
    return p;
  };
  Trace full = generate_trace(h, programmer, 0xD051);
  full.seal();

  // Split into the initial window and a future stream ordered by begin.
  const TimeNs horizon0 = seconds(96.0);
  Trace initial;
  for (const auto& name : full.states().names()) {
    (void)initial.states().intern(name);
  }
  std::vector<std::pair<ResourceId, StateInterval>> future;
  for (ResourceId r = 0; r < static_cast<ResourceId>(full.resource_count());
       ++r) {
    initial.add_resource(full.resource_path(r));
    for (const auto& s : full.intervals(r)) {
      if (s.begin < horizon0) {
        initial.add_state(r, s.state, s.begin, s.end);
      } else {
        future.emplace_back(r, s);
      }
    }
  }
  std::sort(future.begin(), future.end(), [](const auto& a, const auto& b) {
    if (a.second.begin != b.second.begin) {
      return a.second.begin < b.second.begin;
    }
    if (a.first != b.first) return a.first < b.first;
    return a.second.end < b.second.end;
  });

  SlidingWindowOptions opt;
  opt.aggregation.max_lanes = 4;
  SlidingWindowSession session(h, std::move(initial),
                               TimeGrid(0, horizon0, 96),
                               {0.05, 0.3, 0.6, 0.95}, opt);
  expect_results_equal(session.results(),
                       session.run_from_scratch(DpKernel::kReference),
                       "initial");

  Rng rng(0xBEEF);
  std::size_t next = 0;
  for (int op = 0; op < 80; ++op) {
    const auto t = session.window().slice_count();
    TimeGrid grid = session.window();
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    if (kind <= 5) {
      grid = grid.advanced(static_cast<std::int32_t>(rng.uniform_int(1, 8)));
    } else if (kind <= 7 && t < 128) {
      grid = grid.extended(static_cast<std::int32_t>(rng.uniform_int(1, 12)));
    } else if (kind == 8 && t > 56) {
      grid =
          grid.contracted(static_cast<std::int32_t>(rng.uniform_int(1, 12)));
    }
    while (next < future.size() && future[next].second.begin < grid.end()) {
      const auto& [r, s] = future[next];
      session.append(r, s.state, s.begin, s.end);
      ++next;
    }
    const TimeNs dt = session.window().uniform_dt_ns();
    const auto shift =
        static_cast<std::int32_t>((grid.begin() - session.window().begin()) / dt);
    if (shift > 0) {
      session.slide(shift);
    } else if (grid.slice_count() > t) {
      session.extend(grid.slice_count() - t);
    } else if (grid.slice_count() < t) {
      session.contract(t - grid.slice_count());
    } else {
      session.refresh();
    }
    const std::string ctx = "op=" + std::to_string(op);
    expect_results_equal(session.results(),
                         session.run_from_scratch(),
                         ctx + "/scratch");
    if (op % 16 == 7) {
      expect_results_equal(session.results(),
                           session.run_from_scratch(DpKernel::kReference),
                           ctx + "/reference");
    }
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << ctx;
  }
}

}  // namespace
}  // namespace stagg
