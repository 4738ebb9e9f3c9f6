#include "model/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "trace/binary_io.hpp"
#include "workload/scenarios.hpp"

namespace stagg {
namespace {

namespace fs = std::filesystem;

Hierarchy two_machine_hierarchy() {
  HierarchyBuilder b("site");
  const NodeId m0 = b.add(0, "m0");
  const NodeId m1 = b.add(0, "m1");
  b.add(m0, "c0");
  b.add(m0, "c1");
  b.add(m1, "c0");
  b.add(m1, "c1");
  return b.finish();
}

Trace matching_trace(const Hierarchy& h) {
  Trace t;
  for (std::size_t s = 0; s < h.leaf_count(); ++s) {
    t.add_resource(h.path(h.leaf_node(static_cast<LeafId>(s))));
  }
  return t;
}

TEST(ModelBuilder, SingleStateFillsSlices) {
  const Hierarchy h = two_machine_hierarchy();
  Trace t = matching_trace(h);
  // Resource 0 in "busy" for the full 10 s window.
  t.add_state(0, "busy", 0, seconds(10.0));
  t.set_window(0, seconds(10.0));
  const MicroscopicModel m = build_model(t, h, {.slice_count = 10});
  for (SliceId tt = 0; tt < 10; ++tt) {
    EXPECT_NEAR(m.duration(0, tt, 0), 1.0, 1e-9);
    EXPECT_NEAR(m.proportion(0, tt, 0), 1.0, 1e-9);
    EXPECT_NEAR(m.duration(1, tt, 0), 0.0, 1e-12);
  }
  m.validate();
}

TEST(ModelBuilder, IntervalSplitAcrossSliceBoundary) {
  const Hierarchy h = two_machine_hierarchy();
  Trace t = matching_trace(h);
  // [1.5 s, 3.25 s) over 10 slices of 1 s.
  t.add_state(2, "busy", seconds(1.5), seconds(3.25));
  t.set_window(0, seconds(10.0));
  const MicroscopicModel m = build_model(t, h, {.slice_count = 10});
  EXPECT_NEAR(m.duration(2, 1, 0), 0.5, 1e-9);
  EXPECT_NEAR(m.duration(2, 2, 0), 1.0, 1e-9);
  EXPECT_NEAR(m.duration(2, 3, 0), 0.25, 1e-9);
  EXPECT_NEAR(m.duration(2, 0, 0), 0.0, 1e-12);
  EXPECT_NEAR(m.duration(2, 4, 0), 0.0, 1e-12);

  // [2.5 s, 4.5 s): half of slice 2, all of slice 3, half of slice 4.
  t.add_state(3, "busy", seconds(2.5), seconds(4.5));
  const MicroscopicModel m2 = build_model(t, h, {.slice_count = 10});
  EXPECT_DOUBLE_EQ(m2.duration(3, 2, 0), 0.5);
  EXPECT_DOUBLE_EQ(m2.duration(3, 3, 0), 1.0);
  EXPECT_DOUBLE_EQ(m2.duration(3, 4, 0), 0.5);
  EXPECT_DOUBLE_EQ(m2.duration(3, 5, 0), 0.0);
  EXPECT_DOUBLE_EQ(m2.duration(3, 0, 0), 0.0);
}

TEST(ModelBuilder, MassConservationUnderClipping) {
  const Hierarchy h = two_machine_hierarchy();
  Trace t = matching_trace(h);
  // Overlaps the window at both ends: only [0, 10] s should be counted.
  t.add_state(1, "busy", seconds(-2.0), seconds(4.0));
  t.add_state(1, "busy", seconds(6.5), seconds(12.0));
  t.set_window(0, seconds(10.0));
  const MicroscopicModel m = build_model(t, h, {.slice_count = 30});
  EXPECT_NEAR(m.total_mass(), 4.0 + 3.5, 1e-9);
}

TEST(ModelBuilder, MatchByPathHandlesPermutedResources) {
  const Hierarchy h = two_machine_hierarchy();
  Trace t;
  // Register resources in reverse order.
  for (std::size_t s = h.leaf_count(); s-- > 0;) {
    t.add_resource(h.path(h.leaf_node(static_cast<LeafId>(s))));
  }
  t.add_state(0, "busy", 0, seconds(1.0));  // trace resource 0 = last leaf
  t.set_window(0, seconds(1.0));
  const MicroscopicModel m = build_model(t, h, {.slice_count = 1});
  const LeafId last = static_cast<LeafId>(h.leaf_count() - 1);
  EXPECT_NEAR(m.duration(last, 0, 0), 1.0, 1e-9);
  EXPECT_NEAR(m.duration(0, 0, 0), 0.0, 1e-12);
}

TEST(ModelBuilder, MatchByIndexIgnoresPaths) {
  const Hierarchy h = two_machine_hierarchy();
  Trace t;
  t.add_resource("whatever0");
  t.add_resource("whatever1");
  t.add_resource("whatever2");
  t.add_resource("whatever3");
  t.add_state(3, "busy", 0, seconds(1.0));
  t.set_window(0, seconds(1.0));
  const MicroscopicModel m =
      build_model(t, h, {.slice_count = 2, .match_by_path = false});
  EXPECT_NEAR(m.duration(3, 0, 0), 0.5, 1e-9);
}

TEST(ModelBuilder, ResourceCountMismatchThrows) {
  const Hierarchy h = two_machine_hierarchy();
  Trace t;
  t.add_resource("just/one");
  t.add_state(0, "busy", 0, 10);
  EXPECT_THROW((void)build_model(t, h, {}), DimensionError);
}

TEST(ModelBuilder, UnknownPathThrows) {
  const Hierarchy h = two_machine_hierarchy();
  Trace t;
  t.add_resource("site/m0/c0");
  t.add_resource("site/m0/c1");
  t.add_resource("site/m1/c0");
  t.add_resource("site/WRONG/c1");
  t.add_state(0, "busy", 0, 10);
  EXPECT_THROW((void)build_model(t, h, {}), DimensionError);
}

TEST(ModelBuilder, DuplicateLeafMappingThrows) {
  const Hierarchy h = two_machine_hierarchy();
  // Four resources but two map to the same leaf via distinct registration
  // is impossible through add_resource (paths are unique); check the
  // non-bijection detection through map_resources directly.
  const std::vector<std::string> paths = {"site/m0/c0", "site/m0/c0",
                                          "site/m1/c0", "site/m1/c1"};
  EXPECT_THROW((void)detail::map_resources(paths, h, true), DimensionError);
}

TEST(ModelBuilder, ExplicitWindowRestrictsModel) {
  const Hierarchy h = two_machine_hierarchy();
  Trace t = matching_trace(h);
  t.add_state(0, "busy", 0, seconds(10.0));
  ModelBuildOptions opt;
  opt.slice_count = 5;
  opt.window_begin = seconds(2.0);
  opt.window_end = seconds(4.0);
  const MicroscopicModel m = build_model(t, h, opt);
  EXPECT_EQ(m.grid().begin(), seconds(2.0));
  EXPECT_NEAR(m.total_mass(), 2.0, 1e-9);
}

TEST(ModelBuilder, EmptyTraceThrows) {
  const Hierarchy h = two_machine_hierarchy();
  Trace t = matching_trace(h);
  EXPECT_THROW((void)build_model(t, h, {}), InvalidArgument);
}

TEST(ModelBuilder, StreamingEqualsInMemory) {
  const Hierarchy h = two_machine_hierarchy();
  Trace t = matching_trace(h);
  for (int k = 0; k < 50; ++k) {
    t.add_state(k % 4, k % 2 ? "send" : "wait", seconds(0.13 * k),
                seconds(0.13 * k + 0.2));
  }
  t.set_window(0, seconds(8.0));

  const auto dir = fs::temp_directory_path() / "stagg_model_test";
  fs::create_directories(dir);
  const std::string path = (dir / "t.stgt").string();
  write_binary_trace(t, path);

  const MicroscopicModel a = build_model(t, h, {.slice_count = 16});
  const MicroscopicModel b = build_model_streaming(path, h, {.slice_count = 16});
  ASSERT_EQ(a.raw().size(), b.raw().size());
  for (std::size_t i = 0; i < a.raw().size(); ++i) {
    EXPECT_NEAR(a.raw()[i], b.raw()[i], 1e-12) << "tensor index " << i;
  }
  fs::remove_all(dir);
}

/// FNV-1a 64 over the tensor's bytes.
std::uint64_t tensor_fnv1a64(std::span<const double> raw) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double v : raw) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 64; b += 8) {
      h ^= (bits >> b) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

struct GoldenModel {
  std::string name;
  std::uint64_t fnv;
  std::uint64_t mass_bits;
};

/// Every fold path over one seeded multi-resource trace: build_model at
/// |T| in {1, 7, 30, 1000} over five windows, refold_suffix into zeroed
/// copies, and build_model_streaming over the written file.
std::vector<GoldenModel> golden_models() {
  GeneratedScenario g = generate_scenario(scenario_a(), 1.0 / 512.0, 7);
  const Hierarchy& h = *g.hierarchy;
  Trace& trace = g.trace;
  trace.seal();
  const TimeNs b = trace.begin();
  const TimeNs e = trace.end();
  const TimeNs span = e - b;

  const auto dir = fs::temp_directory_path() / "stagg_model_golden";
  fs::create_directories(dir);
  const std::string path = (dir / "golden.stgt").string();
  write_binary_trace(trace, path);

  std::vector<GoldenModel> out;
  const auto record = [&](std::string name, const MicroscopicModel& m) {
    out.push_back({std::move(name), tensor_fnv1a64(m.raw()),
                   std::bit_cast<std::uint64_t>(m.total_mass())});
  };
  for (const std::int32_t n : {1, 7, 30, 1000}) {
    struct Window {
      const char* name;
      TimeNs begin;
      TimeNs end;
    };
    std::vector<Window> windows = {
        {"full", 0, 0},
        {"clipped", b + span / 5, e - span / 7},
        {"wide", b - span / 3, e + span / 4},
    };
    if (n > 1) {
      // Span not divisible by |T|, and span < |T| (zero-width slices).
      TimeNs ragged = span * 3 / 4;
      if (ragged % n == 0) --ragged;
      windows.push_back({"ragged", b + 3, b + 3 + ragged});
      const TimeNs mid = b + span / 2;
      windows.push_back({"tiny", mid, mid + n / 2 + 1});
    }
    for (const Window& w : windows) {
      const ModelBuildOptions opt{.slice_count = n,
                                  .window_begin = w.begin,
                                  .window_end = w.end};
      const std::string tag = std::to_string(n) + "/" + w.name;
      const MicroscopicModel m = build_model(trace, h, opt);
      record("build " + tag, m);
      for (const SliceId fd : {0, 1, n - 1}) {
        MicroscopicModel z = m;
        z.zero_slices(0);
        refold_suffix(z, trace, h, fd);
        record("refold@" + std::to_string(fd) + " " + tag, z);
      }
      record("stream " + tag, build_model_streaming(path, h, opt));
    }
  }
  fs::remove_all(dir);
  return out;
}

TEST(ModelBuilder, FoldMatchesGoldenTensorBytes) {
  // Pins the exact bytes every fold path writes, so a change to how the
  // builder locates slices or sums overlaps cannot drift by an ulp.
  const GoldenModel golden[] = {
      {"build 1/full", 0x4ebe999171893a50ull, 0x4083000000000000ull},
      {"refold@0 1/full", 0x4ebe999171893a50ull, 0x4083000000000000ull},
      {"refold@1 1/full", 0xddad5def7d11eb25ull, 0x0000000000000000ull},
      {"refold@0 1/full", 0x4ebe999171893a50ull, 0x4083000000000000ull},
      {"stream 1/full", 0x4ebe999171893a50ull, 0x4083000000000000ull},
      {"build 1/clipped", 0x9b09f0d5152c8d85ull, 0x4078f8af8afb23d6ull},
      {"refold@0 1/clipped", 0x9b09f0d5152c8d85ull, 0x4078f8af8afb23d6ull},
      {"refold@1 1/clipped", 0xddad5def7d11eb25ull, 0x0000000000000000ull},
      {"refold@0 1/clipped", 0x9b09f0d5152c8d85ull, 0x4078f8af8afb23d6ull},
      {"stream 1/clipped", 0x9b09f0d5152c8d85ull, 0x4078f8af8afb23d6ull},
      {"build 1/wide", 0x4ebe999171893a50ull, 0x4083000000000000ull},
      {"refold@0 1/wide", 0x4ebe999171893a50ull, 0x4083000000000000ull},
      {"refold@1 1/wide", 0xddad5def7d11eb25ull, 0x0000000000000000ull},
      {"refold@0 1/wide", 0x4ebe999171893a50ull, 0x4083000000000000ull},
      {"stream 1/wide", 0x4ebe999171893a50ull, 0x4083000000000000ull},
      {"build 7/full", 0x01e79a525020ff22ull, 0x4083000000000000ull},
      {"refold@0 7/full", 0x01e79a525020ff22ull, 0x4083000000000000ull},
      {"refold@1 7/full", 0x3c8a92ab012116deull, 0x40804924924a5eb8ull},
      {"refold@6 7/full", 0xdc3e1bb0513f5c51ull, 0x4055b6db6df1c272ull},
      {"stream 7/full", 0x01e79a525020ff22ull, 0x4083000000000000ull},
      {"build 7/clipped", 0xb237c23666fee5efull, 0x4078f8af8afb23d6ull},
      {"refold@0 7/clipped", 0xb237c23666fee5efull, 0x4078f8af8afb23d6ull},
      {"refold@1 7/clipped", 0xc370100fb48c2652ull, 0x40756771e4e388c0ull},
      {"refold@6 7/clipped", 0xf23b8d62ba599e4full, 0x404c89ed31464910ull},
      {"stream 7/clipped", 0xb237c23666fee5efull, 0x4078f8af8afb23d6ull},
      {"build 7/wide", 0xa044d7bfd399ea4bull, 0x4083000000000000ull},
      {"refold@0 7/wide", 0xa044d7bfd399ea4bull, 0x4083000000000000ull},
      {"refold@1 7/wide", 0xa044d7bfd399ea4bull, 0x4083000000000000ull},
      {"refold@6 7/wide", 0xcaaa87fc2af09b25ull, 0x0000000000000000ull},
      {"stream 7/wide", 0xa044d7bfd399ea4bull, 0x4083000000000000ull},
      {"build 7/ragged", 0x74980b317a3ad3d6ull, 0x407c800000000000ull},
      {"refold@0 7/ragged", 0x74980b317a3ad3d6ull, 0x407c800000000000ull},
      {"refold@1 7/ragged", 0x22d87b08d09159d2ull, 0x40786db6db7c709dull},
      {"refold@6 7/ragged", 0xb3341d93b440d16aull, 0x405049249252f5beull},
      {"stream 7/ragged", 0x74980b317a3ad3d6ull, 0x407c800000000000ull},
      {"build 7/tiny", 0xb0899fe03af879a5ull, 0x3e912e0be826d695ull},
      {"refold@0 7/tiny", 0xb0899fe03af879a5ull, 0x3e912e0be826d695ull},
      {"refold@1 7/tiny", 0xb0899fe03af879a5ull, 0x3e912e0be826d695ull},
      {"refold@6 7/tiny", 0x60e10d631aa31905ull, 0x3e712e0be826d695ull},
      {"stream 7/tiny", 0xb0899fe03af879a5ull, 0x3e912e0be826d695ull},
      {"build 30/full", 0xf9661176fe89d730ull, 0x4083000000000000ull},
      {"refold@0 30/full", 0xf9661176fe89d730ull, 0x4083000000000000ull},
      {"refold@1 30/full", 0x24f8bcd4f8aac3a0ull, 0x40825ddddde397e2ull},
      {"refold@29 30/full", 0x8eae89509c0723daull, 0x40344444449fe484ull},
      {"stream 30/full", 0xf9661176fe89d730ull, 0x4083000000000000ull},
      {"build 30/clipped", 0x9f309d8cfe3b5e17ull, 0x4078f8af8afb23d6ull},
      {"refold@0 30/clipped", 0x9f309d8cfe3b5e17ull, 0x4078f8af8afb23d6ull},
      {"refold@1 30/clipped", 0x52933c5ee338b6abull, 0x407823989ff47c95ull},
      {"refold@29 30/clipped", 0xb3746be7f738e729ull, 0x402aa2dd62faa9b3ull},
      {"stream 30/clipped", 0x9f309d8cfe3b5e17ull, 0x4078f8af8afb23d6ull},
      {"build 30/wide", 0xd9f70129342f6828ull, 0x4083000000000000ull},
      {"refold@0 30/wide", 0xd9f70129342f6828ull, 0x4083000000000000ull},
      {"refold@1 30/wide", 0xd9f70129342f6828ull, 0x4083000000000000ull},
      {"refold@29 30/wide", 0x80a69197c1fb9325ull, 0x0000000000000000ull},
      {"stream 30/wide", 0xd9f70129342f6828ull, 0x4083000000000000ull},
      {"build 30/ragged", 0x4bd67c93ac79549full, 0x407c7fffffeed1f5ull},
      {"refold@0 30/ragged", 0x4bd67c93ac79549full, 0x407c7fffffeed1f5ull},
      {"refold@1 30/ragged", 0x9cc8eaf69e65ce17ull, 0x407b8ccccccccccdull},
      {"refold@29 30/ragged", 0xf44bce2d9d107c1aull, 0x402e666666666667ull},
      {"stream 30/ragged", 0x4bd67c93ac79549full, 0x407c7fffffeed1f5ull},
      {"build 30/tiny", 0x6e7ca957449c1f25ull, 0x3eb12e0be826d695ull},
      {"refold@0 30/tiny", 0x6e7ca957449c1f25ull, 0x3eb12e0be826d695ull},
      {"refold@1 30/tiny", 0x6e7ca957449c1f25ull, 0x3eb12e0be826d695ull},
      {"refold@29 30/tiny", 0x27e74769bfa4c305ull, 0x3e712e0be826d695ull},
      {"stream 30/tiny", 0x6e7ca957449c1f25ull, 0x3eb12e0be826d695ull},
      {"build 1000/full", 0x1578381bfaac693aull, 0x4083000000000000ull},
      {"refold@0 1000/full", 0x1578381bfaac693aull, 0x4083000000000000ull},
      {"refold@1 1000/full", 0x39cdd66af3681f1eull, 0x4082fb22d0e56041ull},
      {"refold@999 1000/full", 0x60376a8909af1282ull, 0x3fe374bc6a7ef9dbull},
      {"stream 1000/full", 0x1578381bfaac693aull, 0x4083000000000000ull},
      {"build 1000/clipped", 0x41f2adc78b463e55ull, 0x4078f8af8afb23d6ull},
      {"refold@0 1000/clipped", 0x41f2adc78b463e55ull, 0x4078f8af8afb23d6ull},
      {"refold@1 1000/clipped", 0x2d5ce34af7cba335ull, 0x4078f24b03f08baaull},
      {"refold@999 1000/clipped", 0x2d64c8deaa44ed4eull, 0x3fd9921c6f18deecull},
      {"stream 1000/clipped", 0x41f2adc78b463e55ull, 0x4078f8af8afb23d6ull},
      {"build 1000/wide", 0x73cda78367a3a88full, 0x4083000000000000ull},
      {"refold@0 1000/wide", 0x73cda78367a3a88full, 0x4083000000000000ull},
      {"refold@1 1000/wide", 0x73cda78367a3a88full, 0x4083000000000000ull},
      {"refold@999 1000/wide", 0x00c79d81ebc76325ull, 0x0000000000000000ull},
      {"stream 1000/wide", 0x73cda78367a3a88full, 0x4083000000000000ull},
      {"build 1000/ragged", 0x0fb7c1cfb6ff9c21ull, 0x407c7fffffeed1f4ull},
      {"refold@0 1000/ragged", 0x0fb7c1cfb6ff9c21ull, 0x407c7fffffeed1f4ull},
      {"refold@1 1000/ragged", 0xa3de7e5e67bdc7c9ull, 0x407c78b439581063ull},
      {"refold@999 1000/ragged", 0x8fbb744dd8a754deull, 0x3fdd2f1a9fbe76c9ull},
      {"stream 1000/ragged", 0x0fb7c1cfb6ff9c21ull, 0x407c7fffffeed1f4ull},
      {"build 1000/tiny", 0x0320a7d4c3932405ull, 0x3f00cf8ea6aa00f9ull},
      {"refold@0 1000/tiny", 0x0320a7d4c3932405ull, 0x3f00cf8ea6aa00f9ull},
      {"refold@1 1000/tiny", 0x0320a7d4c3932405ull, 0x3f00cf8ea6aa00f9ull},
      {"refold@999 1000/tiny", 0x2b87d37da1e88105ull, 0x3e712e0be826d695ull},
      {"stream 1000/tiny", 0x0320a7d4c3932405ull, 0x3f00cf8ea6aa00f9ull},
  };
  const std::vector<GoldenModel> got = golden_models();
  EXPECT_EQ(got.size(), std::size(golden));
  for (std::size_t i = 0; i < std::min(got.size(), std::size(golden)); ++i) {
    EXPECT_EQ(got[i].name, golden[i].name);
    EXPECT_EQ(got[i].fnv, golden[i].fnv) << got[i].name;
    EXPECT_EQ(got[i].mass_bits, golden[i].mass_bits) << got[i].name;
  }
  if (::testing::Test::HasFailure()) {
    for (const GoldenModel& m : got) {
      std::printf("      {\"%s\", 0x%016llxull, 0x%016llxull},\n",
                  m.name.c_str(), static_cast<unsigned long long>(m.fnv),
                  static_cast<unsigned long long>(m.mass_bits));
    }
  }
}

/// The divide-based fold the builder used before its slice-edge table:
/// TimeGrid::slice_of at both ends of the clipped interval, then the
/// overlap with each slice between them.
void divide_fold(MicroscopicModel& m, LeafId leaf, const StateInterval& s) {
  const TimeGrid& g = m.grid();
  const TimeNs lo = std::max(s.begin, g.begin());
  const TimeNs hi = std::min(s.end, g.end());
  if (hi <= lo) return;
  const SliceId last = g.slice_of(hi - 1);
  for (SliceId t = g.slice_of(lo); t <= last; ++t) {
    const TimeNs a = std::max(lo, g.slice_begin(t));
    const TimeNs b = std::min(hi, g.slice_end(t));
    if (b > a) m.add_duration(leaf, t, s.state, to_seconds(b - a));
  }
}

template <typename T>
void put(std::vector<char>& out, T v) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

void put_string(std::vector<char>& out, const std::string& s) {
  put(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// Writes an STGT file whose records keep the given order (the library's
/// writer always emits them sorted and resource-major).
void write_stgt_in_order(const std::string& path,
                         const std::vector<std::string>& resources,
                         const std::vector<std::string>& states,
                         TimeNs window_begin, TimeNs window_end,
                         const std::vector<TraceRecord>& records) {
  std::vector<char> out;
  out.insert(out.end(), {'S', 'T', 'G', 'T', 'R', 'C', '0', '1'});
  put(out, static_cast<std::uint64_t>(resources.size()));
  put(out, static_cast<std::uint64_t>(states.size()));
  put(out, window_begin);
  put(out, window_end);
  put(out, static_cast<std::uint64_t>(records.size()));
  for (const auto& r : resources) put_string(out, r);
  for (const auto& x : states) put_string(out, x);
  for (const auto& rec : records) {
    put(out, static_cast<std::uint32_t>(rec.resource));
    put(out, static_cast<std::uint32_t>(rec.interval.state));
    put(out, rec.interval.begin);
    put(out, rec.interval.end);
  }
  std::ofstream f(path, std::ios::binary);
  f.write(out.data(), static_cast<std::streamsize>(out.size()));
  ASSERT_TRUE(f.good()) << path;
}

/// Intervals around every slice edge of `g` (on it, one ns either side,
/// zero-length, exactly one slice), the whole window and beyond it, plus
/// seeded random ones of short, slice-sized and multi-slice length.
std::vector<TraceRecord> edge_records(const TimeGrid& g, std::uint64_t seed) {
  std::vector<StateInterval> iv;
  for (SliceId t = 0; t <= g.slice_count(); ++t) {
    const TimeNs edge =
        t < g.slice_count() ? g.slice_begin(t) : g.end();
    const TimeNs next = t < g.slice_count() ? g.slice_end(t) : g.end() + 7;
    for (const auto& [b, e] : {std::pair{edge, edge + 1},
                               {edge - 1, edge + 1},
                               {edge - 1, edge},
                               {edge, edge},
                               {edge + 1, edge + 1},
                               {edge, next},
                               {edge + 1, next + 1}}) {
      iv.push_back({b, e, 0});
    }
  }
  const TimeNs span = g.end() - g.begin();
  iv.push_back({g.begin(), g.end(), 0});
  iv.push_back({g.begin() - 5, g.end() + 5, 0});
  SplitMix64 rng(seed);
  const auto below = [&](TimeNs n) {
    return static_cast<TimeNs>(rng.next() % static_cast<std::uint64_t>(n));
  };
  for (int k = 0; k < 600; ++k) {
    const TimeNs b = g.begin() - span / 10 + below(span + span / 5 + 1);
    const TimeNs lengths[] = {below(4), below(span / g.slice_count() + 2),
                              below(span / 2 + 2)};
    iv.push_back({b, b + lengths[k % 3], 0});
  }
  std::vector<TraceRecord> out;
  for (std::size_t i = 0; i < iv.size(); ++i) {
    iv[i].state = static_cast<StateId>(i % 3);
    out.push_back({static_cast<ResourceId>(i % 4), iv[i]});
  }
  return out;
}

TEST(ModelBuilder, StreamingFoldMatchesDivideFoldInAnyRecordOrder) {
  // build_model_streaming folds records in file order, one slice hint per
  // resource.  Reverse-time, resource-interleaved and shuffled files make
  // the hint miss on nearly every record; the tensor must still match the
  // divide-based fold over the same order bit for bit.
  const Hierarchy h = two_machine_hierarchy();
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < h.leaf_count(); ++s) {
    paths.push_back(h.path(h.leaf_node(static_cast<LeafId>(s))));
  }
  const std::vector<std::string> states = {"a", "b", "c"};
  const auto dir = fs::temp_directory_path() / "stagg_model_hint";
  fs::create_directories(dir);
  const std::string path = (dir / "t.stgt").string();

  const TimeGrid grids[] = {
      TimeGrid(1000, 1000 + 10'007, 7),     // span % |T| != 0
      TimeGrid(-500, -500 + 997, 30),       // span % |T| != 0
      TimeGrid(5, 5 + 13, 30),              // span < |T|: zero-width slices
      TimeGrid(0, 3'000, 30),               // uniform slices
      TimeGrid(0, 1'000'000'007, 97),
      TimeGrid(42, 42 + 999, 1000),
      TimeGrid(0, 10, 1),
  };
  std::uint64_t seed = 11;
  for (const TimeGrid& g : grids) {
    std::vector<TraceRecord> records = edge_records(g, seed++);
    std::sort(records.begin(), records.end(),
              [](const TraceRecord& a, const TraceRecord& b) {
                if (a.interval.begin != b.interval.begin) {
                  return a.interval.begin > b.interval.begin;
                }
                return a.interval.end > b.interval.end;
              });
    std::vector<TraceRecord> shuffled = records;
    SplitMix64 rng(seed++);
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1],
                shuffled[static_cast<std::size_t>(rng.next() % i)]);
    }
    for (const auto* order : {&records, &shuffled}) {
      write_stgt_in_order(path, paths, states, g.begin(), g.end(), *order);
      const ModelBuildOptions opt{.slice_count = g.slice_count(),
                                  .window_begin = g.begin(),
                                  .window_end = g.end()};
      const MicroscopicModel got = build_model_streaming(path, h, opt);
      MicroscopicModel want(&h, g, read_binary_trace_info(path).states);
      for (const TraceRecord& rec : *order) {
        divide_fold(want, static_cast<LeafId>(rec.resource), rec.interval);
      }
      ASSERT_EQ(got.grid(), g);
      ASSERT_EQ(got.raw().size(), want.raw().size());
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < got.raw().size(); ++i) {
        if (std::bit_cast<std::uint64_t>(got.raw()[i]) !=
            std::bit_cast<std::uint64_t>(want.raw()[i])) {
          ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0u)
          << "grid [" << g.begin() << ", " << g.end() << ") x "
          << g.slice_count() << (order == &records ? " reverse" : " shuffled");
      EXPECT_GT(got.total_mass(), 0.0);
    }
  }
  fs::remove_all(dir);
}

TEST(MicroscopicModelTest, ValidateRejectsOverlappingStates) {
  const Hierarchy h = two_machine_hierarchy();
  StateRegistry states;
  states.intern("a");
  MicroscopicModel m(&h, TimeGrid(0, seconds(2.0), 2), states);
  m.set_duration(0, 0, 0, 5.0);  // 5 s of state inside a 1 s slice
  EXPECT_THROW(m.validate(), DimensionError);
}

TEST(MicroscopicModelTest, ValidateRejectsNegativeDurations) {
  const Hierarchy h = two_machine_hierarchy();
  StateRegistry states;
  states.intern("a");
  MicroscopicModel m(&h, TimeGrid(0, seconds(2.0), 2), states);
  m.set_duration(0, 0, 0, -0.1);
  EXPECT_THROW(m.validate(), DimensionError);
}

TEST(MicroscopicModelTest, RequiresStates) {
  const Hierarchy h = two_machine_hierarchy();
  StateRegistry empty;
  EXPECT_THROW(MicroscopicModel(&h, TimeGrid(0, 10, 2), empty),
               InvalidArgument);
}

}  // namespace
}  // namespace stagg
