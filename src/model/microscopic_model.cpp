#include "model/microscopic_model.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/math.hpp"

namespace stagg {

MicroscopicModel::MicroscopicModel(const Hierarchy* hierarchy, TimeGrid grid,
                                   StateRegistry states)
    : MicroscopicModel(hierarchy, grid, std::move(states), Unzeroed{}) {
  std::fill(data_.begin(), data_.end(), 0.0);
}

MicroscopicModel::MicroscopicModel(const Hierarchy* hierarchy, TimeGrid grid,
                                   StateRegistry states, Unzeroed)
    : hier_(hierarchy),
      grid_(grid),
      states_(std::move(states)),
      n_s_(static_cast<std::int32_t>(hierarchy->leaf_count())),
      n_t_(grid.slice_count()),
      n_x_(static_cast<std::int32_t>(states_.size())) {
  if (hier_ == nullptr || hier_->empty()) {
    throw InvalidArgument("MicroscopicModel: empty hierarchy");
  }
  if (n_x_ < 1) {
    throw InvalidArgument("MicroscopicModel: at least one state required");
  }
  data_.resize(static_cast<std::size_t>(n_s_) * n_t_ * n_x_);
}

void MicroscopicModel::zero_leaf(LeafId s) noexcept {
  const std::size_t row = static_cast<std::size_t>(n_t_) * n_x_;
  std::fill_n(data_.data() + static_cast<std::size_t>(s) * row, row, 0.0);
}

void MicroscopicModel::reshape_window(const TimeGrid& new_grid,
                                      std::int32_t src_shift) {
  if (src_shift < 0) {
    throw InvalidArgument("reshape_window: negative source shift");
  }
  if (src_shift == 0 && new_grid == grid_) return;  // identity (refresh)
  const std::int32_t new_t = new_grid.slice_count();
  const std::size_t col = static_cast<std::size_t>(n_x_);
  decltype(data_) next(
      static_cast<std::size_t>(n_s_) * static_cast<std::size_t>(new_t) * col,
      0.0);
  const SliceId copy_end = std::min<SliceId>(new_t, n_t_ - src_shift);
  if (copy_end > 0) {
    for (LeafId s = 0; s < n_s_; ++s) {
      const double* src =
          data_.data() + (static_cast<std::size_t>(s) * n_t_ + src_shift) * col;
      double* dst = next.data() + static_cast<std::size_t>(s) * new_t * col;
      std::memcpy(dst, src,
                  static_cast<std::size_t>(copy_end) * col * sizeof(double));
    }
  }
  data_ = std::move(next);
  grid_ = new_grid;
  n_t_ = new_t;
}

void MicroscopicModel::zero_slices(SliceId first_dirty) noexcept {
  if (first_dirty < 0) first_dirty = 0;
  const std::size_t col = static_cast<std::size_t>(n_x_);
  for (LeafId s = 0; s < n_s_; ++s) {
    if (first_dirty >= n_t_) break;
    double* base =
        data_.data() + (static_cast<std::size_t>(s) * n_t_ + first_dirty) * col;
    std::fill(base, base + static_cast<std::size_t>(n_t_ - first_dirty) * col,
              0.0);
  }
}

double MicroscopicModel::total_mass() const noexcept {
  KahanSum sum;
  for (double v : data_) sum.add(v);
  return sum.value();
}

void MicroscopicModel::validate() const {
  if (hier_ == nullptr) throw DimensionError("model has no hierarchy");
  if (static_cast<std::size_t>(n_s_) != hier_->leaf_count()) {
    throw DimensionError("leaf count mismatch");
  }
  if (data_.size() != static_cast<std::size_t>(n_s_) * n_t_ * n_x_) {
    throw DimensionError("tensor size mismatch");
  }
  for (LeafId s = 0; s < n_s_; ++s) {
    for (SliceId t = 0; t < n_t_; ++t) {
      double in_slice = 0.0;
      for (StateId x = 0; x < n_x_; ++x) {
        const double d = duration(s, t, x);
        if (d < 0.0) {
          throw DimensionError("negative duration at s=" + std::to_string(s) +
                               " t=" + std::to_string(t));
        }
        in_slice += d;
      }
      const double cap = grid_.slice_duration_s(t) * (1.0 + 1e-6) + 1e-9;
      if (in_slice > cap) {
        throw DimensionError(
            "states of resource " + std::to_string(s) + " overlap in slice " +
            std::to_string(t) + ": " + std::to_string(in_slice) + "s > " +
            std::to_string(grid_.slice_duration_s(t)) + "s");
      }
    }
  }
}

}  // namespace stagg
