#include "model/time_grid.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

namespace stagg {

TimeGrid::TimeGrid(TimeNs begin, TimeNs end, std::int32_t count)
    : begin_(begin), end_(end), span_(end - begin), count_(count) {
  if (count < 1) throw InvalidArgument("TimeGrid: slice count must be >= 1");
  if (end <= begin) throw InvalidArgument("TimeGrid: empty window");
}

SliceId TimeGrid::slice_of(TimeNs time) const noexcept {
  if (time < begin_) return 0;
  if (time >= end_) return count_ - 1;
  // Integer computation mirroring slice_begin (128-bit safe via long double
  // avoided: span_ * count fits i64 for realistic traces, but guard anyway).
  auto idx = std::clamp<SliceId>(
      static_cast<SliceId>(static_cast<__int128>(time - begin_) * count_ /
                           span_),
      0, count_ - 1);
  // When span % count != 0 the floor above can land one slice off for
  // timestamps exactly on (or within the rounding slack of) a slice edge —
  // e.g. span 10, count 3: slice_begin(1) = 3 but 3*3/10 floors to 0.
  // Nudge onto the unique slice with slice_begin <= time < slice_end.
  while (idx + 1 < count_ && time >= slice_end(idx)) ++idx;
  while (idx > 0 && time < slice_begin(idx)) --idx;
  return idx;
}

namespace {

TimeNs require_uniform_dt(const TimeGrid& g, const char* op) {
  const TimeNs dt = g.uniform_dt_ns();
  if (dt == 0) {
    throw InvalidArgument(std::string("TimeGrid::") + op +
                          ": window span must be divisible by the slice "
                          "count (uniform dt) so derived slice edges stay "
                          "exact");
  }
  return dt;
}

}  // namespace

TimeGrid TimeGrid::advanced(std::int32_t slices) const {
  const TimeNs dt = require_uniform_dt(*this, "advanced");
  const TimeNs shift = dt * slices;
  return TimeGrid(begin_ + shift, end_ + shift, count_);
}

TimeGrid TimeGrid::extended(std::int32_t slices) const {
  if (slices < 0) {
    throw InvalidArgument("TimeGrid::extended: negative slice delta");
  }
  const TimeNs dt = require_uniform_dt(*this, "extended");
  return TimeGrid(begin_, end_ + dt * slices, count_ + slices);
}

TimeGrid TimeGrid::contracted(std::int32_t slices) const {
  const TimeNs dt = require_uniform_dt(*this, "contracted");
  if (slices < 0 || slices >= count_) {
    throw InvalidArgument(
        "TimeGrid::contracted: must leave at least one slice");
  }
  return TimeGrid(begin_, end_ - dt * slices, count_ - slices);
}

}  // namespace stagg
