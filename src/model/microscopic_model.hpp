// The trace microscopic model (paper §III-A): the tridimensional dataset
// d_x(s, t) — time spent (seconds) in state x by resource (leaf) s during
// time slice t — attached to a platform Hierarchy and a TimeGrid.
//
// Storage is a flat leaf-major tensor: index(s, t, x) = (s*|T| + t)*|X| + x,
// so the per-subtree contiguous leaf ranges of the hierarchy give every
// aggregation algorithm zero-copy views.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "hierarchy/hierarchy.hpp"
#include "model/time_grid.hpp"
#include "trace/state_registry.hpp"

namespace stagg {

/// std::allocator whose value-less construct() default-initializes, so a
/// sized tensor of doubles is allocated without writing (or faulting in)
/// a single page.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;
  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Microscopic description of a trace.  Immutable after build for batch
/// analyses; sliding-window sessions additionally use reshape_window /
/// zero_slices to maintain the tensor in place as the window moves.
class MicroscopicModel {
 public:
  MicroscopicModel() = default;

  /// Creates a zeroed model over the given dimensions.  The hierarchy is
  /// referenced, not owned; it must outlive the model.
  MicroscopicModel(const Hierarchy* hierarchy, TimeGrid grid,
                   StateRegistry states);

  /// Tag of the constructor that leaves the tensor unwritten.
  struct Unzeroed {};
  /// Same dimensions, but no cell is written, so no page of the tensor is
  /// touched: the caller must write every cell — zero_leaf() each leaf —
  /// before anything reads it.  build_model has each fold task zero the
  /// rows it folds, so the pages are first touched by the threads that use
  /// them instead of by one zeroing pass on the calling thread.
  MicroscopicModel(const Hierarchy* hierarchy, TimeGrid grid,
                   StateRegistry states, Unzeroed);

  [[nodiscard]] const Hierarchy& hierarchy() const noexcept { return *hier_; }
  [[nodiscard]] const TimeGrid& grid() const noexcept { return grid_; }
  [[nodiscard]] const StateRegistry& states() const noexcept { return states_; }

  [[nodiscard]] std::int32_t resource_count() const noexcept { return n_s_; }
  [[nodiscard]] std::int32_t slice_count() const noexcept { return n_t_; }
  [[nodiscard]] std::int32_t state_count() const noexcept { return n_x_; }

  /// d_x(s,t): seconds spent in state x by leaf s during slice t.
  [[nodiscard]] double duration(LeafId s, SliceId t, StateId x) const noexcept {
    return data_[index(s, t, x)];
  }

  /// rho_x(s,t) = d_x(s,t) / d(t): proportion of slice t spent in state x.
  [[nodiscard]] double proportion(LeafId s, SliceId t, StateId x) const noexcept {
    return duration(s, t, x) / grid_.slice_duration_s(t);
  }

  /// Mutable accumulation (builder API).
  void add_duration(LeafId s, SliceId t, StateId x, double seconds) noexcept {
    data_[index(s, t, x)] += seconds;
  }

  /// Direct assignment; used by hand-crafted fixtures (Fig. 3 trace).
  void set_duration(LeafId s, SliceId t, StateId x, double seconds) noexcept {
    data_[index(s, t, x)] = seconds;
  }

  /// Row of |X| durations for (s, t).
  [[nodiscard]] std::span<const double> durations_at(LeafId s,
                                                     SliceId t) const noexcept {
    return {data_.data() + index(s, t, 0), static_cast<std::size_t>(n_x_)};
  }

  /// Full flat tensor (leaf-major); tests use it for mass checks.
  [[nodiscard]] std::span<const double> raw() const noexcept {
    return {data_.data(), data_.size()};
  }
  [[nodiscard]] std::span<double> raw_mutable() noexcept {
    return {data_.data(), data_.size()};
  }

  /// Window maintenance for sliding sessions: re-layouts the tensor for a
  /// changed grid.  New slice column t takes the *bit-exact* contents of
  /// old column t + src_shift; columns with no old counterpart are zeroed
  /// (the caller re-folds the affected suffix from the trace).  The new
  /// grid must cover the same hierarchy and states.
  void reshape_window(const TimeGrid& new_grid, std::int32_t src_shift);

  /// Zeroes the |T| x |X| duration cells of leaf s.
  void zero_leaf(LeafId s) noexcept;

  /// Zeroes every duration cell of slices >= first_dirty — the first step
  /// of a suffix re-fold.
  void zero_slices(SliceId first_dirty) noexcept;

  /// Total traced seconds in the model (sum of the tensor).
  [[nodiscard]] double total_mass() const noexcept;

  /// Throws DimensionError if the dimensions are inconsistent with the
  /// hierarchy, or if any d_x(s,t) exceeds the slice duration beyond
  /// tolerance (states of one resource may not overlap).
  void validate() const;

 private:
  [[nodiscard]] std::size_t index(LeafId s, SliceId t, StateId x) const noexcept {
    return (static_cast<std::size_t>(s) * static_cast<std::size_t>(n_t_) +
            static_cast<std::size_t>(t)) *
               static_cast<std::size_t>(n_x_) +
           static_cast<std::size_t>(x);
  }

  const Hierarchy* hier_ = nullptr;
  TimeGrid grid_;
  StateRegistry states_;
  std::int32_t n_s_ = 0;
  std::int32_t n_t_ = 0;
  std::int32_t n_x_ = 0;
  std::vector<double, DefaultInitAllocator<double>> data_;
};

}  // namespace stagg
