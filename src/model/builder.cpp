#include "model/builder.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace stagg {

namespace detail {

std::vector<LeafId> map_resources(const std::vector<std::string>& paths,
                                  const Hierarchy& hierarchy,
                                  bool match_by_path) {
  if (paths.size() != hierarchy.leaf_count()) {
    throw DimensionError("trace has " + std::to_string(paths.size()) +
                         " resources but hierarchy has " +
                         std::to_string(hierarchy.leaf_count()) + " leaves");
  }
  std::vector<LeafId> map(paths.size());
  if (!match_by_path) {
    for (std::size_t i = 0; i < paths.size(); ++i) {
      map[i] = static_cast<LeafId>(i);
    }
    return map;
  }
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const NodeId node = hierarchy.find(paths[i]);
    if (node == kNoNode || !hierarchy.is_leaf(node)) {
      throw DimensionError("trace resource '" + paths[i] +
                           "' is not a hierarchy leaf");
    }
    map[i] = hierarchy.node(node).first_leaf;
  }
  // The mapping must be a bijection.
  std::vector<LeafId> sorted = map;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] != static_cast<LeafId>(i)) {
      throw DimensionError("trace resources do not cover hierarchy leaves");
    }
  }
  return map;
}

namespace {

/// One grid's slice-edge table, built once per fold call: edge_[t] =
/// slice_begin(t) for t < |T| and edge_[|T|] = slice_end(|T| - 1) = end(),
/// the same integers TimeGrid computes with a divide each time.  fold()
/// distributes an interval over the slices it overlaps with no divide:
/// each resource carries a slice hint, and an interval that lies inside
/// the hinted slice (nearly all of them in a sorted stream) adds its
/// clipped length once.  Any other interval looks its first and last
/// slice up in the table and adds its overlap with each slice between
/// them.  Every cell receives the same doubles in the same order as a
/// fold through TimeGrid::slice_of, so the tensor is bit-identical.
class SliceFolder {
 public:
  explicit SliceFolder(const TimeGrid& grid)
      : begin_(grid.begin()),
        end_(grid.end()),
        last_(grid.slice_count() - 1),
        scale_(static_cast<double>(grid.slice_count()) /
               static_cast<double>(grid.end() - grid.begin())),
        edge_(static_cast<std::size_t>(grid.slice_count()) + 1) {
    for (SliceId t = 0; t <= last_; ++t) edge_[t] = grid.slice_begin(t);
    edge_.back() = grid.slice_end(last_);
  }

  /// Folds [s.begin, s.end) of `leaf` into the slices >= min_slice it
  /// overlaps.  The half-open convention keeps edge events unambiguous: an
  /// interval ending exactly on a slice edge contributes nothing past the
  /// edge, one starting exactly on it contributes nothing before, and a
  /// zero-duration interval contributes nowhere.  `hint` (in [min_slice,
  /// |T|)) is the resource's last slice; it is updated here.
  void fold(MicroscopicModel& model, LeafId leaf, const StateInterval& s,
            SliceId& hint, SliceId min_slice = 0) const noexcept {
    const TimeNs lo = std::max(s.begin, begin_);
    const TimeNs hi = std::min(s.end, end_);
    if (hi <= lo) return;
    if (edge_[hint] <= lo && hi <= edge_[hint + 1]) {
      model.add_duration(leaf, hint, s.state, to_seconds(hi - lo));
      return;
    }
    const SliceId first = std::max(slice_of(lo), min_slice);
    const SliceId last = slice_of(hi - 1);
    for (SliceId t = first; t <= last; ++t) {
      const TimeNs a = std::max(lo, edge_[t]);
      const TimeNs b = std::min(hi, edge_[t + 1]);
      if (b > a) model.add_duration(leaf, t, s.state, to_seconds(b - a));
    }
    hint = std::max(last, min_slice);
  }

 private:
  /// TimeGrid::slice_of for `time` in [begin, end): the largest t with
  /// edge_[t] <= time.  The double estimate lands within a slice or two;
  /// the nudges settle it on the table, including on zero-width slices
  /// (span < |T|) and non-uniform ones (span % |T| != 0).
  [[nodiscard]] SliceId slice_of(TimeNs time) const noexcept {
    auto t = static_cast<SliceId>(
        std::min(static_cast<double>(time - begin_) * scale_,
                 static_cast<double>(last_)));
    while (t < last_ && edge_[t + 1] <= time) ++t;
    while (t > 0 && time < edge_[t]) --t;
    return t;
  }

  TimeNs begin_;
  TimeNs end_;
  SliceId last_;
  double scale_;
  std::vector<TimeNs> edge_;
};

TimeGrid make_grid(TimeNs trace_begin, TimeNs trace_end,
                   const ModelBuildOptions& options) {
  TimeNs begin = options.window_begin;
  TimeNs end = options.window_end;
  if (begin == 0 && end == 0) {
    begin = trace_begin;
    end = trace_end;
  }
  if (end <= begin) {
    throw InvalidArgument("model window is empty; trace has no events?");
  }
  return TimeGrid(begin, end, options.slice_count);
}

/// Effective model window of a Trace compatibility shim (explicit options
/// window, else the sealed trace window).
std::pair<TimeNs, TimeNs> effective_window(const Trace& trace,
                                           const ModelBuildOptions& options) {
  if (options.window_begin == 0 && options.window_end == 0) {
    return {trace.begin(), trace.end()};
  }
  return {options.window_begin, options.window_end};
}

}  // namespace
}  // namespace detail

MicroscopicModel build_model(const TraceView& view, const Hierarchy& hierarchy,
                             const ModelBuildOptions& options) {
  const auto map = detail::map_resources(view.resource_paths(), hierarchy,
                                         options.match_by_path);
  const TimeGrid grid = detail::make_grid(view.begin(), view.end(), options);
  MicroscopicModel model(&hierarchy, grid, view.states(),
                         MicroscopicModel::Unzeroed{});
  const detail::SliceFolder folder(grid);

  // Parallel over view resources: leaf stripes are disjoint by bijection.
  // The bijection also gives every leaf exactly one resource, so each
  // leaf is zeroed here, by the task that folds into it.
  parallel_for(
      view.resource_count(),
      [&](std::size_t r) {
        const LeafId leaf = map[r];
        model.zero_leaf(leaf);
        SliceId hint = 0;
        view.for_each(r, [&](const StateInterval& s) {
          folder.fold(model, leaf, s, hint);
        });
      },
      /*grain=*/1);
  return model;
}

MicroscopicModel build_model(Trace& trace, const Hierarchy& hierarchy,
                             const ModelBuildOptions& options) {
  trace.seal();
  // A degenerate window still builds the (empty) view first so the error
  // order of the original code is preserved: resource-mapping problems
  // throw DimensionError before make_grid rejects the window.
  const auto [begin, end] = detail::effective_window(trace, options);
  return build_model(trace.view(begin, std::max(begin, end)), hierarchy,
                     options);
}

void refold_suffix(MicroscopicModel& model, const TraceView& view,
                   const Hierarchy& hierarchy, SliceId first_dirty,
                   bool match_by_path) {
  first_dirty = std::clamp<SliceId>(first_dirty, 0, model.slice_count());
  if (first_dirty >= model.slice_count()) return;  // nothing dirty: no-op
  const auto map =
      detail::map_resources(view.resource_paths(), hierarchy, match_by_path);
  const TimeGrid& grid = model.grid();
  model.zero_slices(first_dirty);
  const detail::SliceFolder folder(grid);
  // Skipping intervals that end at or before the dirty region is pure
  // pruning: the fold would contribute nothing there anyway.
  const TimeNs dirty_begin = grid.slice_begin(first_dirty);
  parallel_for(
      view.resource_count(),
      [&](std::size_t r) {
        const LeafId leaf = map[r];
        SliceId hint = first_dirty;
        view.for_each(r, [&](const StateInterval& s) {
          if (s.end <= dirty_begin) return;
          folder.fold(model, leaf, s, hint, first_dirty);
        });
      },
      /*grain=*/1);
}

void refold_suffix(MicroscopicModel& model, Trace& trace,
                   const Hierarchy& hierarchy, SliceId first_dirty,
                   bool match_by_path) {
  trace.seal();
  refold_suffix(model,
                trace.view(model.grid().begin(), model.grid().end()),
                hierarchy, first_dirty, match_by_path);
}

MicroscopicModel build_model_streaming(const std::string& trace_path,
                                       const Hierarchy& hierarchy,
                                       const ModelBuildOptions& options) {
  const TraceFileInfo info = read_binary_trace_info(trace_path);
  const auto map = detail::map_resources(info.resource_paths, hierarchy,
                                         options.match_by_path);
  const TimeGrid grid =
      detail::make_grid(info.window_begin, info.window_end, options);
  MicroscopicModel model(&hierarchy, grid, info.states);
  const detail::SliceFolder folder(grid);

  // Records arrive in file order, so each resource keeps its own hint.
  std::vector<SliceId> hints(map.size(), 0);
  stream_binary_trace(trace_path, [&](std::span<const TraceRecord> chunk) {
    for (const auto& rec : chunk) {
      const auto r = static_cast<std::size_t>(rec.resource);
      folder.fold(model, map[r], rec.interval, hints[r]);
    }
  });
  return model;
}

}  // namespace stagg
