#include "core/aggregator.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/triangular_relocate.hpp"

namespace stagg {
namespace {

/// Smallest double greater than finite x (inline bit increment;
/// std::nextafter is a libm call, too slow for per-cell use).
inline double next_up(double x) noexcept {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  if (x >= 0.0) {
    if (bits == 0x8000000000000000ull) bits = 0;  // -0.0 -> +0.0
    ++bits;
  } else {
    --bits;
  }
  std::memcpy(&x, &bits, sizeof bits);
  return x;
}

/// Conservative per-lane challenge threshold: every temporal-cut candidate
/// v that can change lane state (best, cut, count) satisfies
/// v >= challenge_threshold(best, best_count); candidates below it are
/// skipped without evaluating the reference predicate at all, which is
/// what makes the hot scan a bare add-and-compare.
///
/// Soundness: the reference kernel accepts iff
///   v > best + eps  ||  (v >= best - eps && count < best_count),
///   eps = 1e-12 + 1e-12 * max(|best|, |v|).
/// - While best_count <= 2 the count tie-break can never fire (any cut's
///   area count is >= 2), so a state change needs v > best + eps > best,
///   i.e. v >= next_up(best) — exact, no epsilon analysis needed.
/// - Otherwise any accepting v is within relative ~1e-12 of best (the
///   |v|-dependent eps term matters only when |v| ~ |best|; solving
///   v >= best - 1e-12*(1 + max(|best|,|v|)) for v in every sign case
///   bounds v >= best - 2.1e-12 - 1.1e-12*|best|).  The 4e-12
///   coefficients leave a ~2x margin that swallows every rounding error
///   of both this expression and the reference predicate's.
/// The threshold only rises when (best, best_count) tighten, so a value
/// screened out once can never become a challenger later in the scan.
inline double challenge_threshold(double best,
                                  std::int32_t best_count) noexcept {
  if (best_count <= 2) return next_up(best);
  return best - (4e-12 + 4e-12 * std::abs(best));
}

}  // namespace

SpatiotemporalAggregator::SpatiotemporalAggregator(
    const MicroscopicModel& model, AggregationOptions options)
    : model_(&model),
      options_(options),
      cube_(model, options.shard_plan),
      tri_(model.slice_count()) {
  options_.max_lanes = std::clamp<std::size_t>(options_.max_lanes, 1,
                                               kMaxDpLanes);
  const Hierarchy& h = model.hierarchy();
  levels_.resize(static_cast<std::size_t>(h.max_depth()) + 1);
  for (NodeId id = 0; id < static_cast<NodeId>(h.node_count()); ++id) {
    levels_[static_cast<std::size_t>(h.node(id).depth)].push_back(id);
  }
  pic_.resize(h.node_count());
  mirror_.resize(h.node_count());
  cmirror_.resize(h.node_count());
  cut_.resize(h.node_count());
  cnt_.resize(h.node_count());
}

std::size_t SpatiotemporalAggregator::estimate_bytes(std::size_t node_count,
                                                     std::int32_t slices,
                                                     std::size_t lanes) {
  const TriangularIndex tri(slices);
  // Per cell: per lane pIC (double) + column-major pIC mirror (double) +
  // column-major count mirror + cut + count (int32), plus the lane-shared
  // cached (gain, loss) pair.
  return node_count * tri.size() *
         (lanes * (2 * sizeof(double) + 3 * sizeof(std::int32_t)) +
          sizeof(AreaMeasures));
}

std::size_t SpatiotemporalAggregator::working_set_bytes(
    std::size_t lanes) const noexcept {
  const std::size_t cells = tri_.size();
  const std::size_t node_count = model_->hierarchy().node_count();
  if (options_.kernel == DpKernel::kReference) {
    // The original formulation: pIC + cut + count for every node (the
    // reference kernel never lanes).
    return node_count * cells * (sizeof(double) + 2 * sizeof(std::int32_t));
  }
  // pIC + count matrices live for two adjacent levels at a time (the arena
  // recycles grandchildren buffers); the column-major pIC and count
  // mirrors only for the level being computed; cut matrices for all
  // nodes.  All of these carry one value per lane; the shared measure
  // cache does not.
  std::size_t peak_per_cell = 0;
  for (std::size_t d = 0; d < levels_.size(); ++d) {
    const std::size_t two =
        levels_[d].size() + (d + 1 < levels_.size() ? levels_[d + 1].size() : 0);
    peak_per_cell = std::max(
        peak_per_cell,
        two * (sizeof(double) + sizeof(std::int32_t)) +
            levels_[d].size() * (sizeof(double) + sizeof(std::int32_t)));
  }
  return cells * lanes * (node_count * sizeof(std::int32_t) + peak_per_cell) +
         MeasureCache::estimate_bytes(node_count, tri_.slices());
}

void SpatiotemporalAggregator::check_p(double p) const {
  // Negated-range form so NaN (every comparison false) is rejected too.
  if (!(p >= 0.0 && p <= 1.0)) {
    throw InvalidArgument("aggregation parameter p must be in [0,1], got " +
                          std::to_string(p));
  }
}

void SpatiotemporalAggregator::check_budget(std::size_t lanes) const {
  const std::size_t need = working_set_bytes(lanes);
  if (need > options_.memory_budget_bytes) {
    throw BudgetError("DP working set needs " + std::to_string(need) +
                      " bytes > budget " +
                      std::to_string(options_.memory_budget_bytes) +
                      "; reduce |T|, the lane width, or raise the budget");
  }
}

std::size_t SpatiotemporalAggregator::lane_width(
    std::size_t probe_count) const noexcept {
  return std::min({options_.max_lanes, kMaxDpLanes,
                   std::max<std::size_t>(probe_count, 1)});
}

void SpatiotemporalAggregator::ensure_measure_cache() {
  if (cache_.built()) return;
  Stopwatch watch;
  cache_.build(cube_, options_.parallel, options_.shard_plan);
  cache_build_seconds_ = watch.seconds();
}

AreaMeasures SpatiotemporalAggregator::area_measures(
    NodeId node, SliceId i, SliceId j) const noexcept {
  return cache_.built() ? cache_.at(node, i, j) : cube_.measures(node, i, j);
}

void SpatiotemporalAggregator::fill_quality(AggregationResult& result) const {
  const Hierarchy& h = model_->hierarchy();
  const AreaMeasures root = area_measures(h.root(), 0, tri_.slices() - 1);
  result.quality.area_count = result.partition.size();
  result.quality.microscopic_count =
      h.leaf_count() * static_cast<std::size_t>(tri_.slices());
  result.quality.gain = result.measures.gain;
  result.quality.loss = result.measures.loss;
  result.quality.max_gain = root.gain;
  result.quality.max_loss = root.loss;
}

// ---------------------------------------------------------------------------
// Buffer arena.
// ---------------------------------------------------------------------------

simd::AlignedVec<double> SpatiotemporalAggregator::acquire_dbl(
    std::size_t n) {
  if (!dbl_pool_.empty()) {
    simd::AlignedVec<double> buf = std::move(dbl_pool_.back());
    dbl_pool_.pop_back();
    buf.resize(n);
    return buf;
  }
  return simd::AlignedVec<double>(n);
}

simd::AlignedVec<std::int32_t> SpatiotemporalAggregator::acquire_i32(
    std::size_t n) {
  if (!i32_pool_.empty()) {
    simd::AlignedVec<std::int32_t> buf = std::move(i32_pool_.back());
    i32_pool_.pop_back();
    buf.resize(n);
    return buf;
  }
  return simd::AlignedVec<std::int32_t>(n);
}

void SpatiotemporalAggregator::release(simd::AlignedVec<double>&& buf) {
  // Moved-from (already released) vectors are empty; only pool live ones.
  if (!buf.empty()) dbl_pool_.push_back(std::move(buf));
}

void SpatiotemporalAggregator::release(simd::AlignedVec<std::int32_t>&& buf) {
  if (!buf.empty()) i32_pool_.push_back(std::move(buf));
}

// ---------------------------------------------------------------------------
// Cached lane kernel.
// ---------------------------------------------------------------------------

SpatiotemporalAggregator::LaneScan SpatiotemporalAggregator::make_scan(
    NodeId node, std::span<const double> ps, double gain_scale,
    double loss_scale, std::vector<const double*>& child_pic,
    std::vector<const std::int32_t*>& child_cnt) {
  const auto& children = model_->hierarchy().node(node).children;
  child_pic.clear();
  child_cnt.clear();
  child_pic.reserve(children.size());
  child_cnt.reserve(children.size());
  for (NodeId c : children) {
    child_pic.push_back(pic_[static_cast<std::size_t>(c)].data());
    child_cnt.push_back(cnt_[static_cast<std::size_t>(c)].data());
  }
  LaneScan scan;
  scan.meas = cache_.node_data(node);
  scan.pic = pic_[static_cast<std::size_t>(node)].data();
  scan.mirror = mirror_[static_cast<std::size_t>(node)].data();
  scan.cnt = cnt_[static_cast<std::size_t>(node)].data();
  scan.cnt_mirror = cmirror_[static_cast<std::size_t>(node)].data();
  scan.cut = cut_[static_cast<std::size_t>(node)].data();
  scan.child_pic = child_pic.data();
  scan.child_cnt = child_cnt.data();
  scan.n_children = children.size();
  scan.p = ps.data();
  scan.lanes = ps.size();
  scan.gain_scale = gain_scale;
  scan.loss_scale = loss_scale;
  return scan;
}

template <int W, bool Vec>
void SpatiotemporalAggregator::compute_cell_lanes(const LaneScan& scan,
                                                  SliceId i,
                                                  SliceId j) const noexcept {
  // Vec only instantiates meaningfully at widths divisible by 4; the
  // dispatcher never selects it otherwise.  Every Vec block below batches
  // the SAME elementwise operations in the same per-lane order as its
  // scalar twin — lanes are independent, no accumulation chain is
  // reordered, and the build forbids FP contraction — so the two
  // instantiations are bit-identical (pinned by tests/test_simd.cpp).
  constexpr bool kVec = Vec && W % 4 == 0;
  const std::size_t row = tri_.row_offset(i);
  const std::size_t cell = row + static_cast<std::size_t>(j - i);

  // "No cut": the area itself is one aggregate (Eq. 4) — a multiply-add of
  // every lane's p over the one cached p-independent (gain, loss) pair.
  // The expression (operand order included) is the reference kernel's, so
  // each lane stays bit-identical to a reference run at its p.
  const AreaMeasures& m = scan.meas[cell];
  double best[W];
  std::int32_t best_cut[W];
  std::int32_t best_count[W];
  if constexpr (kVec) {
    const simd::f64x4 one = simd::f64x4::broadcast(1.0);
    const simd::f64x4 g = simd::f64x4::broadcast(m.gain);
    const simd::f64x4 gs = simd::f64x4::broadcast(scan.gain_scale);
    const simd::f64x4 l = simd::f64x4::broadcast(m.loss);
    const simd::f64x4 ls = simd::f64x4::broadcast(scan.loss_scale);
    for (int w = 0; w < W; w += 4) {
      const simd::f64x4 pv = simd::f64x4::load(scan.p + w);
      (pv * g * gs - (one - pv) * l * ls).store(best + w);
    }
  } else {
    for (int w = 0; w < W; ++w) {
      best[w] = scan.p[w] * m.gain * scan.gain_scale -
                (1.0 - scan.p[w]) * m.loss * scan.loss_scale;
    }
  }
  for (int w = 0; w < W; ++w) {
    best_cut[w] = j;
    best_count[w] = 1;
  }

  // Ties (within accumulated rounding noise) are broken toward the
  // *smallest area count*, so among equally-optimal partitions the
  // coarsest representation is returned — a homogeneous phase stays one
  // aggregate instead of fragmenting into equal-pIC slices.  The
  // acceptance logic is the reference kernel's challenge, restructured so
  // the common path is a lane-parallel compare.

  // Spatial cut: partition into the children over the same interval.  The
  // children's per-lane optima sit adjacent in memory, so the sum is a
  // contiguous W-wide accumulation per child.
  if (scan.n_children != 0) {
    double sum[W];
    std::int32_t count[W];
    for (int w = 0; w < W; ++w) {
      sum[w] = 0.0;
      count[w] = 0;
    }
    for (std::size_t k = 0; k < scan.n_children; ++k) {
      const double* cp = scan.child_pic[k] + cell * W;
      const std::int32_t* cc = scan.child_cnt[k] + cell * W;
      if constexpr (kVec) {
        // Child-order accumulation per lane is unchanged — the vector add
        // batches the W independent per-lane chains, it does not reorder
        // any one of them.
        for (int w = 0; w < W; w += 4) {
          (simd::f64x4::load(sum + w) + simd::f64x4::load(cp + w))
              .store(sum + w);
          (simd::i32x4::load(count + w) + simd::i32x4::load(cc + w))
              .store(count + w);
        }
      } else {
        for (int w = 0; w < W; ++w) {
          sum[w] += cp[w];
          count[w] += cc[w];
        }
      }
    }
    for (int w = 0; w < W; ++w) {
      const double eps =
          1e-12 + 1e-12 * std::max(std::abs(best[w]), std::abs(sum[w]));
      if (sum[w] > best[w] + eps ||
          (sum[w] >= best[w] - eps && count[w] < best_count[w])) {
        best[w] = std::max(best[w], sum[w]);
        best_cut[w] = -1;
        best_count[w] = count[w];
      }
    }
  }

  // Temporal cuts: split [i,j] into [i,c] + [c+1,j].  The left operand
  // pIC(i, c) is row-contiguous, the right operand pIC(c+1, j) is read from
  // the column-major mirror where column j is contiguous — with the lane
  // interleave both are flat W-wide streams.
  //
  // Threshold scan: each lane keeps the conservative challenge_threshold
  // of its current (best, count) state, so the hot loop over cut positions
  // is a bare add-and-compare per lane with no epsilon arithmetic at all;
  // only cuts at or above a lane's threshold evaluate the reference
  // kernel's exact accept-and-tie-break logic (same cut order, same
  // operations — bit-identical), and the threshold is conservative, so no
  // state-changing candidate is ever screened out.  The W lanes'
  // independent compare chains are what the batching buys: one pass over
  // the streams feeds W superscalar-parallel per-lane pipelines.
  double thr[W];
  for (int w = 0; w < W; ++w) {
    thr[w] = challenge_threshold(best[w], best_count[w]);
  }
  const double* left = scan.pic + row * W;
  const double* right =
      scan.mirror + (col_offset(j) + static_cast<std::size_t>(i) + 1) * W;
  const std::int32_t* left_cnt = scan.cnt + row * W;
  const std::int32_t* right_cnt =
      scan.cnt_mirror + (col_offset(j) + static_cast<std::size_t>(i) + 1) * W;
  const std::int32_t len = j - i;

  // Exact reference challenge of cut i+k against lane w's state.
  const auto challenge = [&](std::int32_t k, int w, double v) {
    const double eps =
        1e-12 + 1e-12 * std::max(std::abs(best[w]), std::abs(v));
    const bool strict = v > best[w] + eps;
    if (!strict && !(v >= best[w] - eps)) return;
    const std::int32_t count = left_cnt[static_cast<std::size_t>(k) * W + w] +
                               right_cnt[static_cast<std::size_t>(k) * W + w];
    if (strict || count < best_count[w]) {
      best[w] = std::max(best[w], v);
      best_cut[w] = i + k;
      best_count[w] = count;
      thr[w] = challenge_threshold(best[w], best_count[w]);
    }
  };

  for (std::int32_t k = 0; k < len; ++k) {
    // Branch-free W-wide screen: candidate values and threshold
    // comparisons for the whole wave are computed before any lane's
    // challenge runs (the adds and compares vectorize over the
    // lane-interleaved pIC and transposed count streams); only a wave
    // with at least one passing lane enters the scalar challenge path.
    // A lane's challenge can only move its own threshold, and the
    // original scalar loop also compared lane w against thr[w] as it
    // stood *before* cut k's challenges — so hoisting the compares
    // never changes which cuts are evaluated, and results stay
    // bit-identical.
    double v[W];
    int any_pass = 0;
    if constexpr (kVec) {
      // The screen adds are per-lane (independent chains) and the >=
      // mask matches the scalar compare exactly (ordered, quiet-NaN
      // false), so pass/fail decisions are identical; passing lanes
      // still run the scalar challenge below in lane order.
      for (int w = 0; w < W; w += 4) {
        const simd::f64x4 vv =
            simd::f64x4::load(left + static_cast<std::size_t>(k) * W + w) +
            simd::f64x4::load(right + static_cast<std::size_t>(k) * W + w);
        vv.store(v + w);
        any_pass |= vv.ge_mask(simd::f64x4::load(thr + w));
      }
    } else {
      for (int w = 0; w < W; ++w) {
        v[w] = left[static_cast<std::size_t>(k) * W + w] +
               right[static_cast<std::size_t>(k) * W + w];
        any_pass |= static_cast<int>(v[w] >= thr[w]);
      }
    }
    if (any_pass != 0) {
      for (int w = 0; w < W; ++w) {
        if (v[w] >= thr[w]) challenge(k, w, v[w]);
      }
    }
  }

  double* out_pic = scan.pic + cell * W;
  double* out_mirror =
      scan.mirror + (col_offset(j) + static_cast<std::size_t>(i)) * W;
  std::int32_t* out_cut = scan.cut + cell * W;
  std::int32_t* out_cnt = scan.cnt + cell * W;
  std::int32_t* out_cmirror =
      scan.cnt_mirror + (col_offset(j) + static_cast<std::size_t>(i)) * W;
  if constexpr (kVec) {
    for (int w = 0; w < W; w += 4) {
      const simd::f64x4 b = simd::f64x4::load(best + w);
      b.store(out_pic + w);
      b.store(out_mirror + w);
      simd::i32x4::load(best_cut + w).store(out_cut + w);
      const simd::i32x4 c = simd::i32x4::load(best_count + w);
      c.store(out_cnt + w);
      c.store(out_cmirror + w);
    }
  } else {
    for (int w = 0; w < W; ++w) {
      out_pic[w] = best[w];
      out_mirror[w] = best[w];
      out_cut[w] = best_cut[w];
      out_cnt[w] = best_count[w];
      out_cmirror[w] = best_count[w];
    }
  }
}

template <int W, bool Vec>
void SpatiotemporalAggregator::compute_node_lanes_w(const LaneScan& scan,
                                                    bool wavefront,
                                                    SliceId first_dirty) {
  const SliceId n_t = tri_.slices();
  if (!wavefront) {
    // i descending / j ascending: a cell (i, j) reads (i, c) with c < j
    // (this row, already swept — or a retained clean column) and (c+1, j)
    // with c+1 > i (deeper rows, already swept).  Restricting j to the
    // dirty columns therefore preserves every dependency: clean cells are
    // read, never written.
    for (SliceId i = n_t - 1; i >= 0; --i) {
      for (SliceId j = std::max(i, first_dirty); j < n_t; ++j) {
        compute_cell_lanes<W, Vec>(scan, i, j);
      }
    }
    return;
  }
  // Wavefront sweep: all cells of equal interval length j - i are mutually
  // independent (a cell only reads strictly shorter intervals), so each
  // anti-diagonal is one parallel_for.  Used for single-node levels —
  // notably the root — whose DP otherwise runs entirely serially.  Lane
  // values of one cell are always computed by one task, so the schedule
  // cannot affect results.  Dirty sweeps clip each anti-diagonal to the
  // cells with j = i + len >= first_dirty.
  for (SliceId i = std::max<SliceId>(0, first_dirty); i < n_t; ++i) {
    compute_cell_lanes<W, Vec>(scan, i, i);
  }
  const std::size_t threads =
      std::max<std::size_t>(1, ThreadPool::shared().size());
  for (SliceId len = 1; len < n_t; ++len) {
    const SliceId i_lo = std::max<SliceId>(0, first_dirty - len);
    if (i_lo >= n_t - len) continue;
    const std::size_t n = static_cast<std::size_t>(n_t - len - i_lo);
    const std::size_t grain = std::max<std::size_t>(16, n / (4 * threads));
    parallel_for(
        n,
        [&](std::size_t k) {
          const auto i = static_cast<SliceId>(i_lo + static_cast<SliceId>(k));
          compute_cell_lanes<W, Vec>(scan, i, i + len);
        },
        grain);
  }
}

void SpatiotemporalAggregator::compute_node_lanes(const LaneScan& scan,
                                                  bool wavefront,
                                                  SliceId first_dirty) {
  // One instantiation per width keeps the per-cell lane loops at a
  // compile-time trip count the optimizer can unroll.
  // Vector instantiations exist only at the widths divisible by the f64x4
  // lane count; use_simd = false (or a scalar-forced build, where the
  // wrappers alias their scalar twins) routes those widths to the scalar
  // twin — the baseline bench_simd measures against.
  const bool vec = options_.use_simd;
  switch (scan.lanes) {
    case 1: compute_node_lanes_w<1, false>(scan, wavefront, first_dirty); break;
    case 2: compute_node_lanes_w<2, false>(scan, wavefront, first_dirty); break;
    case 3: compute_node_lanes_w<3, false>(scan, wavefront, first_dirty); break;
    case 4:
      if (vec) compute_node_lanes_w<4, true>(scan, wavefront, first_dirty);
      else compute_node_lanes_w<4, false>(scan, wavefront, first_dirty);
      break;
    case 5: compute_node_lanes_w<5, false>(scan, wavefront, first_dirty); break;
    case 6: compute_node_lanes_w<6, false>(scan, wavefront, first_dirty); break;
    case 7: compute_node_lanes_w<7, false>(scan, wavefront, first_dirty); break;
    case 8:
      if (vec) compute_node_lanes_w<8, true>(scan, wavefront, first_dirty);
      else compute_node_lanes_w<8, false>(scan, wavefront, first_dirty);
      break;
    default: break;  // unreachable: lane_width clamps to kMaxDpLanes
  }
}

void SpatiotemporalAggregator::run_wave(std::span<const double> ps,
                                        std::vector<AggregationResult>& out) {
  const Hierarchy& h = model_->hierarchy();
  const std::size_t lanes = ps.size();
  const std::size_t lane_cells = tri_.size() * lanes;

  double gain_scale = 1.0;
  double loss_scale = 1.0;
  if (options_.normalize) {
    const AreaMeasures root = area_measures(h.root(), 0, tri_.slices() - 1);
    if (root.gain > 0.0) gain_scale = 1.0 / root.gain;
    if (root.loss > 0.0) loss_scale = 1.0 / root.loss;
  }

  // Level-synchronous bottom-up sweep: all nodes of one depth are mutually
  // independent, and their children (depth+1) are complete.
  for (std::size_t d = levels_.size(); d-- > 0;) {
    const auto& nodes = levels_[d];
    // Grandchildren pIC/count matrices are no longer read (level d+1 is
    // complete); recycle them *before* acquiring this level's buffers so at
    // no point more than two adjacent levels hold live DP matrices — the
    // invariant working_set_bytes() charges for.
    if (d + 2 < levels_.size()) {
      for (NodeId n : levels_[d + 2]) {
        release(std::move(pic_[static_cast<std::size_t>(n)]));
        release(std::move(cnt_[static_cast<std::size_t>(n)]));
      }
    }
    for (NodeId n : nodes) {
      const auto idx = static_cast<std::size_t>(n);
      pic_[idx] = acquire_dbl(lane_cells);
      mirror_[idx] = acquire_dbl(lane_cells);
      cnt_[idx] = acquire_i32(lane_cells);
      cmirror_[idx] = acquire_i32(lane_cells);
      if (cut_[idx].size() != lane_cells) cut_[idx].resize(lane_cells);
    }
    sweep_level(nodes, ps, gain_scale, loss_scale, /*first_dirty=*/0);
    // The mirrors are only read by the node's own temporal scans.
    for (NodeId n : nodes) {
      release(std::move(mirror_[static_cast<std::size_t>(n)]));
      release(std::move(cmirror_[static_cast<std::size_t>(n)]));
    }
  }

  extract_wave_results(ps, out);

  // Return the last two levels' buffers to the arena; nothing is freed, so
  // the next wave (same |T| and width) allocates nothing.
  for (auto& buf : pic_) release(std::move(buf));
  for (auto& buf : cnt_) release(std::move(buf));
}

void SpatiotemporalAggregator::sweep_level(std::span<const NodeId> nodes,
                                           std::span<const double> ps,
                                           double gain_scale,
                                           double loss_scale,
                                           SliceId first_dirty) {
  if (options_.parallel && nodes.size() > 1) {
    parallel_for(
        nodes.size(),
        [&](std::size_t k) {
          std::vector<const double*> child_pic;
          std::vector<const std::int32_t*> child_cnt;
          const LaneScan scan = make_scan(nodes[k], ps, gain_scale,
                                          loss_scale, child_pic, child_cnt);
          compute_node_lanes(scan, /*wavefront=*/false, first_dirty);
        },
        /*grain=*/1);
  } else {
    // A thin level (typically the single root node) cannot use sibling
    // parallelism; sweep its anti-diagonals in parallel instead.  The
    // wavefront runs on the caller thread, so it never nests pool waits.
    std::vector<const double*> child_pic;
    std::vector<const std::int32_t*> child_cnt;
    for (NodeId n : nodes) {
      const LaneScan scan =
          make_scan(n, ps, gain_scale, loss_scale, child_pic, child_cnt);
      compute_node_lanes(scan, /*wavefront=*/options_.parallel, first_dirty);
    }
  }
}

void SpatiotemporalAggregator::extract_wave_results(
    std::span<const double> ps, std::vector<AggregationResult>& out) {
  const Hierarchy& h = model_->hierarchy();
  const std::size_t lanes = ps.size();
  const std::size_t root_cell = tri_(0, tri_.slices() - 1);
  const auto root_idx = static_cast<std::size_t>(h.root());
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    AggregationResult result;
    result.p = ps[lane];
    result.optimal_pic = pic_[root_idx][root_cell * lanes + lane];
    extract_partition(result.partition, lane, lanes);
    result.partition.canonicalize(h);
    for (const auto& a : result.partition.areas()) {
      result.measures += area_measures(a.node, a.time.i, a.time.j);
    }
    fill_quality(result);
    out.push_back(std::move(result));
  }
}

AggregationResult SpatiotemporalAggregator::run_cached(double p) {
  std::vector<AggregationResult> out;
  out.reserve(1);
  run_wave({&p, 1}, out);
  return std::move(out.front());
}

// ---------------------------------------------------------------------------
// Incremental re-aggregation: window splicing + dirty-column DP sweeps.
// ---------------------------------------------------------------------------

void SpatiotemporalAggregator::apply_window_update(std::int32_t dropped_front,
                                                   SliceId first_dirty) {
  const std::int32_t old_t = tri_.slices();
  const std::int32_t new_t = model_->slice_count();
  if (dropped_front < 0 || dropped_front > old_t) {
    throw InvalidArgument("apply_window_update: invalid dropped_front");
  }
  // Cells whose column has no old counterpart (appended slices) are dirty
  // regardless of what the caller reports; so are all columns at or past
  // the first changed model column.
  const SliceId fresh_from =
      std::max<SliceId>(0, old_t - dropped_front);
  const SliceId dirty =
      std::clamp<SliceId>(std::min(first_dirty, fresh_from), 0, new_t);

  cube_.reshape_slices(new_t, dropped_front);
  cube_.recompute_slices(dirty, options_.parallel);

  const TriangularIndex new_tri(new_t);
  if (cache_.built()) {
    cache_.reshape(new_t, dropped_front);
    cache_.update(cube_, dirty, options_.parallel, options_.shard_plan);
  }

  if (inc_ && inc_->valid) {
    // Relocate every wave's retained row-major matrices; the column-major
    // mirrors are not retained (see WaveDpState).
    for (WaveDpState& wave : inc_->waves) {
      for (auto& buf : wave.pic) {
        reshape_packed_triangles(buf, tri_, new_tri, dropped_front,
                                 wave.lanes, 1);
      }
      for (auto& buf : wave.cnt) {
        reshape_packed_triangles(buf, tri_, new_tri, dropped_front,
                                 wave.lanes, 1);
      }
      for (auto& buf : wave.cut) {
        reshape_packed_triangles(buf, tri_, new_tri, dropped_front,
                                 wave.lanes, 1);
        // pIC and count are coordinate-free, but cut values are *absolute
        // slice indices* (cut == j marks an aggregate, cut in [i, j) a
        // temporal split position): a dropped prefix shifts them all.
        // Dirty cells are about to be recomputed anyway; -1 (spatial cut)
        // is preserved.
        if (dropped_front > 0) {
          for (auto& c : buf) {
            if (c >= 0) c -= dropped_front;
          }
        }
      }
    }
    // Prior staleness shifts with the window; combine with this update.
    const SliceId prior = std::clamp<SliceId>(
        inc_dirty_ - dropped_front, 0, new_t);
    inc_dirty_ = std::min(prior, dirty);
  } else {
    inc_dirty_ = 0;
  }
  tri_ = new_tri;
}

std::size_t SpatiotemporalAggregator::incremental_state_bytes()
    const noexcept {
  if (!inc_) return 0;
  std::size_t bytes = 0;
  for (const WaveDpState& wave : inc_->waves) {
    for (const auto& buf : wave.pic) bytes += buf.size() * sizeof(double);
    for (const auto& buf : wave.cnt) bytes += buf.size() * sizeof(std::int32_t);
    for (const auto& buf : wave.cut) bytes += buf.size() * sizeof(std::int32_t);
  }
  return bytes;
}

void SpatiotemporalAggregator::run_wave_incremental(
    std::span<const double> ps, WaveDpState& state, SliceId first_dirty,
    std::vector<AggregationResult>& out) {
  const Hierarchy& h = model_->hierarchy();
  const std::size_t lanes = ps.size();
  const std::size_t lane_cells = tri_.size() * lanes;
  const std::size_t node_count = h.node_count();

  state.lanes = lanes;
  state.pic.resize(node_count);
  state.cnt.resize(node_count);
  state.cut.resize(node_count);
  // Adopt the retained buffers into the member slots the scan builders
  // read; vectors move by pointer swap.  Fresh (empty) buffers are sized
  // here — their cells are all covered by a first_dirty == 0 sweep.
  for (std::size_t n = 0; n < node_count; ++n) {
    pic_[n] = std::move(state.pic[n]);
    cnt_[n] = std::move(state.cnt[n]);
    cut_[n] = std::move(state.cut[n]);
    if (pic_[n].size() != lane_cells) pic_[n].resize(lane_cells);
    if (cnt_[n].size() != lane_cells) cnt_[n].resize(lane_cells);
    if (cut_[n].size() != lane_cells) cut_[n].resize(lane_cells);
  }

  if (first_dirty < tri_.slices()) {
    for (std::size_t d = levels_.size(); d-- > 0;) {
      const auto& nodes = levels_[d];
      for (NodeId n : nodes) {
        const auto idx = static_cast<std::size_t>(n);
        mirror_[idx] = acquire_dbl(lane_cells);
        cmirror_[idx] = acquire_i32(lane_cells);
      }
      sweep_level(nodes, ps, /*gain_scale=*/1.0, /*loss_scale=*/1.0,
                  first_dirty);
      for (NodeId n : nodes) {
        release(std::move(mirror_[static_cast<std::size_t>(n)]));
        release(std::move(cmirror_[static_cast<std::size_t>(n)]));
      }
    }
  }

  extract_wave_results(ps, out);

  // Return the matrices to the retained checkpoint for the next advance.
  for (std::size_t n = 0; n < node_count; ++n) {
    state.pic[n] = std::move(pic_[n]);
    state.cnt[n] = std::move(cnt_[n]);
    state.cut[n] = std::move(cut_[n]);
  }
}

std::vector<AggregationResult> SpatiotemporalAggregator::run_incremental(
    std::span<const double> ps) {
  for (const double p : ps) check_p(p);
  if (options_.kernel == DpKernel::kReference) {
    throw InvalidArgument(
        "run_incremental: the reference kernel has no retained form; use a "
        "cached kernel");
  }
  if (options_.normalize) {
    throw InvalidArgument(
        "run_incremental: normalization rescales every cell on each window "
        "update; incremental sessions require normalize = false");
  }
  std::vector<AggregationResult> results;
  if (ps.empty()) return results;
  const std::size_t width = lane_width(ps.size());
  const std::size_t waves = (ps.size() + width - 1) / width;
  // Budget: the sweep working set plus the retained checkpoint (pIC +
  // count + cut per cell per lane, every node, every wave).
  const std::size_t retained =
      waves * model_->hierarchy().node_count() * tri_.size() * width *
      (sizeof(double) + 2 * sizeof(std::int32_t));
  const std::size_t need = working_set_bytes(width) + retained;
  if (need > options_.memory_budget_bytes) {
    throw BudgetError("incremental DP working set + retained state need " +
                      std::to_string(need) + " bytes > budget " +
                      std::to_string(options_.memory_budget_bytes) +
                      "; reduce |T|, the lane width, or raise the budget");
  }
  ensure_measure_cache();

  const bool fresh =
      !inc_ || !inc_->valid || inc_->width != width ||
      inc_->ps.size() != ps.size() ||
      !std::equal(inc_->ps.begin(), inc_->ps.end(), ps.begin());
  if (fresh) {
    inc_ = std::make_unique<IncrementalDp>();
    inc_->ps.assign(ps.begin(), ps.end());
    inc_->width = width;
    inc_->waves.resize(waves);
    inc_dirty_ = 0;
  }
  const SliceId first_dirty = fresh ? 0 : inc_dirty_;
  // Invalidate while waves are in flight: if a sweep throws (allocation
  // failure past the budget check, cancellation), the retained buffers are
  // partially moved out and must not be spliced from on a retry.
  inc_->valid = false;

  results.reserve(ps.size());
  for (std::size_t w = 0; w < waves; ++w) {
    const std::size_t offset = w * width;
    run_wave_incremental(
        ps.subspan(offset, std::min(width, ps.size() - offset)),
        inc_->waves[w], first_dirty, results);
  }
  inc_->valid = true;
  inc_dirty_ = tri_.slices();
  return results;
}

// ---------------------------------------------------------------------------
// Reference kernel: the original per-cell formulation (measures recomputed
// from the cube inside the innermost loop, buffers freed after the run).
// Kept as the equivalence-test oracle and the bench baseline.
// ---------------------------------------------------------------------------

void SpatiotemporalAggregator::compute_node_reference(NodeId node, double p,
                                                      double gain_scale,
                                                      double loss_scale) {
  const Hierarchy& h = model_->hierarchy();
  const auto& children = h.node(node).children;
  const SliceId n_t = tri_.slices();

  auto& pic_cells = pic_[static_cast<std::size_t>(node)];
  auto& cut_cells = cut_[static_cast<std::size_t>(node)];
  auto& cnt_cells = cnt_[static_cast<std::size_t>(node)];
  pic_cells.resize(tri_.size());
  cut_cells.resize(tri_.size());
  cnt_cells.resize(tri_.size());

  // Cache children cell arrays (computed at the deeper level already).
  std::vector<const double*> child_pic;
  std::vector<const std::int32_t*> child_cnt;
  child_pic.reserve(children.size());
  child_cnt.reserve(children.size());
  for (NodeId c : children) {
    child_pic.push_back(pic_[static_cast<std::size_t>(c)].data());
    child_cnt.push_back(cnt_[static_cast<std::size_t>(c)].data());
  }

  // Column-major sweep (j ascending, i descending): column j's measures
  // are produced by one descending per-state accumulation over the cube's
  // per-slice data — bit-identical to per-cell cube_.measures() calls (the
  // MeasureCache equivalence suite pins this), but O(|X|) amortized per
  // cell instead of O(|X| (j-i)), preserving the original formulation's
  // O(|S| |T|^2 |X|) measure cost.  The order is DP-valid: cell (i, j)
  // reads (i, c) with c < j (earlier columns) and (c+1, j) deeper in the
  // current column (already computed, i descends).
  std::vector<AreaMeasures> col(static_cast<std::size_t>(n_t));
  for (SliceId j = 0; j < n_t; ++j) {
    cube_.measures_column_into(
        node, j, std::span(col.data(), static_cast<std::size_t>(j) + 1));
    for (SliceId i = j; i >= 0; --i) {
      const std::size_t row = tri_.row_offset(i);
      const std::size_t cell = row + static_cast<std::size_t>(j - i);

      // "No cut": the area itself is one aggregate (Eq. 4).
      const AreaMeasures m = col[static_cast<std::size_t>(i)];
      double best = p * m.gain * gain_scale - (1.0 - p) * m.loss * loss_scale;
      std::int32_t best_cut = j;
      std::int32_t best_count = 1;

      const auto challenge = [&](double v, std::int32_t count,
                                 std::int32_t cut) {
        const double eps =
            1e-12 + 1e-12 * std::max(std::abs(best), std::abs(v));
        if (v > best + eps || (v >= best - eps && count < best_count)) {
          best = std::max(best, v);
          best_cut = cut;
          best_count = count;
        }
      };

      // Spatial cut: partition into the children over the same interval.
      if (!child_pic.empty()) {
        double sum = 0.0;
        std::int32_t count = 0;
        for (std::size_t k = 0; k < child_pic.size(); ++k) {
          sum += child_pic[k][cell];
          count += child_cnt[k][cell];
        }
        challenge(sum, count, -1);
      }

      // Temporal cuts: split [i,j] into [i,c] + [c+1,j]; both sub-cells are
      // already optimal (j ascending covers [i,c], i descending [c+1,j]).
      const double* my = pic_cells.data();
      const std::int32_t* my_cnt = cnt_cells.data();
      for (SliceId c = i; c < j; ++c) {
        const std::size_t left = row + static_cast<std::size_t>(c - i);
        const std::size_t right = tri_(c + 1, j);
        challenge(my[left] + my[right], my_cnt[left] + my_cnt[right], c);
      }

      pic_cells[cell] = best;
      cut_cells[cell] = best_cut;
      cnt_cells[cell] = best_count;
    }
  }
}

AggregationResult SpatiotemporalAggregator::run_reference(double p) {
  const Hierarchy& h = model_->hierarchy();

  double gain_scale = 1.0;
  double loss_scale = 1.0;
  if (options_.normalize) {
    const AreaMeasures root = cube_.root_measures();
    if (root.gain > 0.0) gain_scale = 1.0 / root.gain;
    if (root.loss > 0.0) loss_scale = 1.0 / root.loss;
  }

  for (auto level = levels_.rbegin(); level != levels_.rend(); ++level) {
    const auto& nodes = *level;
    if (options_.parallel && nodes.size() > 1) {
      parallel_for(
          nodes.size(),
          [&](std::size_t k) {
            compute_node_reference(nodes[k], p, gain_scale, loss_scale);
          },
          /*grain=*/1);
    } else {
      for (NodeId n : nodes) {
        compute_node_reference(n, p, gain_scale, loss_scale);
      }
    }
    const std::size_t depth =
        static_cast<std::size_t>(levels_.rend() - level - 1);
    if (depth + 2 <= levels_.size() - 1) {
      for (NodeId n : levels_[depth + 2]) {
        pic_[static_cast<std::size_t>(n)] = {};
        cnt_[static_cast<std::size_t>(n)] = {};
      }
    }
  }

  AggregationResult result;
  result.p = p;
  result.optimal_pic = pic_[static_cast<std::size_t>(h.root())]
                           [tri_(0, tri_.slices() - 1)];
  extract_partition(result.partition, /*lane=*/0, /*lanes=*/1);
  result.partition.canonicalize(h);
  for (const auto& a : result.partition.areas()) {
    result.measures += cube_.measures(a.node, a.time.i, a.time.j);
  }
  fill_quality(result);

  // Release the DP buffers (the original behaviour); the cube stays.
  for (auto& v : pic_) v = {};
  for (auto& v : cnt_) v = {};
  return result;
}

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

void SpatiotemporalAggregator::extract_partition(Partition& out,
                                                 std::size_t lane,
                                                 std::size_t lanes) const {
  const Hierarchy& h = model_->hierarchy();
  struct Item {
    NodeId node;
    SliceId i, j;
  };
  std::vector<Item> stack;
  stack.push_back({h.root(), 0, tri_.slices() - 1});
  while (!stack.empty()) {
    const Item it = stack.back();
    stack.pop_back();
    const std::int32_t cut =
        cut_[static_cast<std::size_t>(it.node)][tri_(it.i, it.j) * lanes +
                                                lane];
    if (cut == it.j) {
      out.add(it.node, it.i, it.j);
    } else if (cut == -1) {
      for (NodeId c : h.node(it.node).children) {
        stack.push_back({c, it.i, it.j});
      }
    } else {
      stack.push_back({it.node, it.i, static_cast<SliceId>(cut)});
      stack.push_back({it.node, static_cast<SliceId>(cut + 1), it.j});
    }
  }
}

AggregationResult SpatiotemporalAggregator::run(double p) {
  check_p(p);
  check_budget(/*lanes=*/1);
  if (options_.kernel == DpKernel::kReference) return run_reference(p);
  ensure_measure_cache();
  return run_cached(p);
}

std::vector<AggregationResult> SpatiotemporalAggregator::run_many(
    std::span<const double> ps) {
  for (const double p : ps) check_p(p);
  std::vector<AggregationResult> results;
  results.reserve(ps.size());
  if (options_.kernel == DpKernel::kReference) {
    check_budget(/*lanes=*/1);
    for (const double p : ps) results.push_back(run_reference(p));
    return results;
  }
  const std::size_t width = lane_width(ps.size());
  check_budget(width);
  ensure_measure_cache();
  // Waves of `width` lanes; the remainder wave uses its exact (possibly
  // odd) width — every width in [1, kMaxDpLanes] has an instantiation.
  for (std::size_t offset = 0; offset < ps.size(); offset += width) {
    run_wave(ps.subspan(offset, std::min(width, ps.size() - offset)),
             results);
  }
  return results;
}

AggregationResult SpatiotemporalAggregator::evaluate(
    const Partition& partition, double p) const {
  const Hierarchy& h = model_->hierarchy();
  AggregationResult result;
  result.p = p;
  result.partition = partition;
  result.partition.canonicalize(h);

  double gain_scale = 1.0;
  double loss_scale = 1.0;
  const AreaMeasures root = area_measures(h.root(), 0, tri_.slices() - 1);
  if (options_.normalize) {
    if (root.gain > 0.0) gain_scale = 1.0 / root.gain;
    if (root.loss > 0.0) loss_scale = 1.0 / root.loss;
  }

  for (const auto& a : partition.areas()) {
    result.measures += area_measures(a.node, a.time.i, a.time.j);
  }
  result.optimal_pic = p * result.measures.gain * gain_scale -
                       (1.0 - p) * result.measures.loss * loss_scale;
  fill_quality(result);
  return result;
}

}  // namespace stagg
