#include "trace/trace_store.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "trace/binary_io.hpp"

namespace stagg {

namespace {

/// Merges whole chunks into row-major `out` (appending) via the shared
/// canonical merge.  Cursor-based, so members of any backend — resident,
/// mapped, compressed — merge without being rehydrated first.
void merge_chunks(std::span<const TraceChunkPtr> chunks,
                  std::vector<StateInterval>& out) {
  std::vector<ChunkRun> runs;
  runs.reserve(chunks.size());
  for (const TraceChunkPtr& c : chunks) runs.push_back({c.get(), c->size()});
  merge_chunk_runs(std::span<const ChunkRun>(runs),
                   [&out](const StateInterval& s) { out.push_back(s); });
}

/// Resident copy of a (typically spilled) chunk.  An addressable chunk
/// comes back as raw heap columns; a compressed chunk stays compressed —
/// its encoded sections are copied to an owned heap buffer, so pinning
/// preserves the compression policy's footprint win.
TraceChunkPtr make_resident(const TraceChunk& chunk) {
  if (chunk.addressable()) {
    auto payload = std::make_shared<const ResidentChunkPayload>(
        std::vector<TimeNs>(chunk.begins().begin(), chunk.begins().end()),
        std::vector<TimeNs>(chunk.ends().begin(), chunk.ends().end()),
        std::vector<StateId>(chunk.states().begin(), chunk.states().end()));
    return std::make_shared<const TraceChunk>(
        std::move(payload), chunk.min_end(), chunk.max_end());
  }
  const auto* compressed =
      dynamic_cast<const CompressedChunkPayload*>(chunk.payload().get());
  if (compressed == nullptr) {
    throw InvalidArgument("make_resident: unknown non-addressable payload");
  }
  const ColumnsCoding& coding = compressed->coding();
  EncodedColumns enc;
  enc.count = coding.count;
  enc.begin_codec = coding.begin_codec;
  enc.end_codec = coding.end_codec;
  enc.state_codec = coding.state_codec;
  enc.begin_bytes = coding.begin_section.size();
  enc.end_bytes = coding.end_section.size();
  enc.state_bytes = coding.state_section.size();
  enc.bytes.reserve(coding.encoded_bytes());
  enc.bytes.insert(enc.bytes.end(), coding.begin_section.begin(),
                   coding.begin_section.end());
  enc.bytes.insert(enc.bytes.end(), coding.end_section.begin(),
                   coding.end_section.end());
  enc.bytes.insert(enc.bytes.end(), coding.state_section.begin(),
                   coding.state_section.end());
  auto payload =
      std::make_shared<const CompressedChunkPayload>(std::move(enc));
  return std::make_shared<const TraceChunk>(std::move(payload), chunk.first(),
                                            chunk.last(), chunk.min_end(),
                                            chunk.max_end());
}

}  // namespace

TraceChunk::TraceChunk(std::vector<TimeNs> begins, std::vector<TimeNs> ends,
                       std::vector<StateId> states) {
  if (begins.empty() || begins.size() != ends.size() ||
      begins.size() != states.size()) {
    throw InvalidArgument("TraceChunk: empty or mismatched columns");
  }
  min_end_ = std::numeric_limits<TimeNs>::max();
  max_end_ = std::numeric_limits<TimeNs>::min();
  for (const TimeNs e : ends) {
    min_end_ = std::min(min_end_, e);
    max_end_ = std::max(max_end_, e);
  }
  auto payload = std::make_shared<const ResidentChunkPayload>(
      std::move(begins), std::move(ends), std::move(states));
  begins_ = payload->begins();
  ends_ = payload->ends();
  states_ = payload->states();
  size_ = begins_.size();
  payload_ = std::move(payload);
  first_ = at(0);
  last_ = at(size_ - 1);
}

TraceChunk::TraceChunk(std::shared_ptr<const ChunkPayload> payload,
                       TimeNs min_end, TimeNs max_end)
    : payload_(std::move(payload)), min_end_(min_end), max_end_(max_end) {
  if (!payload_ || !payload_->addressable() || payload_->begins().empty() ||
      payload_->begins().size() != payload_->ends().size() ||
      payload_->begins().size() != payload_->states().size()) {
    throw InvalidArgument(
        "TraceChunk: empty, mismatched or non-addressable payload columns");
  }
  begins_ = payload_->begins();
  ends_ = payload_->ends();
  states_ = payload_->states();
  size_ = begins_.size();
  first_ = at(0);
  last_ = at(size_ - 1);
}

TraceChunk::TraceChunk(std::shared_ptr<const ChunkPayload> payload,
                       StateInterval first, StateInterval last, TimeNs min_end,
                       TimeNs max_end)
    : payload_(std::move(payload)),
      first_(first),
      last_(last),
      min_end_(min_end),
      max_end_(max_end) {
  if (!payload_ || payload_->size() == 0) {
    throw InvalidArgument("TraceChunk: null or empty payload");
  }
  size_ = payload_->size();
  if (payload_->addressable()) {
    begins_ = payload_->begins();
    ends_ = payload_->ends();
    states_ = payload_->states();
  }
}

std::shared_ptr<const TraceChunk> TraceChunk::from_sorted(
    std::span<const StateInterval> sorted) {
  std::vector<TimeNs> begins;
  std::vector<TimeNs> ends;
  std::vector<StateId> states;
  begins.reserve(sorted.size());
  ends.reserve(sorted.size());
  states.reserve(sorted.size());
  for (const StateInterval& s : sorted) {
    begins.push_back(s.begin);
    ends.push_back(s.end);
    states.push_back(s.state);
  }
  return std::make_shared<const TraceChunk>(
      std::move(begins), std::move(ends), std::move(states));
}

std::size_t TraceChunk::prefix_below(TimeNs t1, StateInterval* last) const {
  if (payload_->addressable()) {
    const std::size_t n = static_cast<std::size_t>(
        std::lower_bound(begins_.begin(), begins_.end(), t1) -
        begins_.begin());
    if (n > 0 && last != nullptr) *last = at(n - 1);
    return n;
  }
  // Whole-chunk fast path: the last (highest) begin is already below t1.
  if (last_.begin < t1) {
    if (last != nullptr) *last = last_;
    return size_;
  }
  // Streaming scan: begins are sorted, so stop at the first begin >= t1.
  std::size_t n = 0;
  StateInterval prev{};
  for (ChunkCursor cur(*this); cur.valid(); cur.next()) {
    if (cur.current().begin >= t1) break;
    prev = cur.current();
    ++n;
  }
  if (n > 0 && last != nullptr) *last = prev;
  return n;
}

ChunkCursor::ChunkCursor(const TraceChunk& chunk, std::size_t limit)
    : chunk_(&chunk), limit_(limit) {
  if (limit_ == 0) return;
  if (chunk.addressable()) {
    cur_ = chunk.at(0);
    return;
  }
  const auto* compressed =
      dynamic_cast<const CompressedChunkPayload*>(chunk.payload().get());
  if (compressed == nullptr) {
    throw InvalidArgument("ChunkCursor: unknown non-addressable payload");
  }
  decoder_.emplace(compressed->coding());
  decode_next();
}

void ChunkCursor::decode_next() {
  StateInterval out;
  if (!decoder_->next(out)) {
    pos_ = limit_;  // defensive: the payload count bounds limit_
    return;
  }
  cur_ = out;
}

ResourceId TraceStore::add_resource(std::string_view path) {
  if (const auto it = resource_ids_.find(std::string(path));
      it != resource_ids_.end()) {
    return it->second;
  }
  if (resource_paths_.use_count() > 1) {  // pinned by a view or a copy
    resource_paths_ =
        std::make_shared<std::vector<std::string>>(*resource_paths_);
  }
  const ResourceId id = static_cast<ResourceId>(resource_paths_->size());
  resource_paths_->emplace_back(path);
  resource_ids_.emplace(resource_paths_->back(), id);
  lanes_.emplace_back();
  sealed_ = false;
  ++generation_;
  return id;
}

ResourceId TraceStore::find_resource(std::string_view path) const {
  const auto it = resource_ids_.find(std::string(path));
  return it == resource_ids_.end() ? kInvalidResource : it->second;
}

void TraceStore::add_state(ResourceId resource, StateId state, TimeNs begin,
                           TimeNs end) {
  if (resource < 0 ||
      static_cast<std::size_t>(resource) >= resource_paths_->size()) {
    throw InvalidArgument("add_state: unknown resource id " +
                          std::to_string(resource));
  }
  if (state < 0 || static_cast<std::size_t>(state) >= states_.size()) {
    throw InvalidArgument("add_state: unknown state id " +
                          std::to_string(state));
  }
  if (end < begin) {
    throw InvalidArgument("add_state: end < begin");
  }
  const auto r = static_cast<std::size_t>(resource);
  lanes_[r].tail.push_back(StateInterval{begin, end, state});
  mark_dirty(r);
  sealed_ = false;
  ++generation_;
}

void TraceStore::maybe_compress_into(TraceChunkPtr chunk,
                                     std::vector<TraceChunkPtr>& out,
                                     std::size_t block_intervals) const {
  if (compression_ != ChunkCompression::kAuto || !chunk->resident() ||
      !chunk->addressable()) {
    out.push_back(std::move(chunk));
    return;
  }
  const std::span<const TimeNs> begins = chunk->begins();
  const std::span<const TimeNs> ends = chunk->ends();
  const std::span<const StateId> states = chunk->states();
  const std::size_t n = begins.size();
  const std::size_t blocks = (n + block_intervals - 1) / block_intervals;
  std::vector<TraceChunkPtr> pieces;
  pieces.reserve(blocks);
  bool any_encoded = false;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * block_intervals;
    const std::size_t len = std::min(block_intervals, n - lo);
    EncodedColumns enc = encode_columns(begins.subspan(lo, len),
                                        ends.subspan(lo, len),
                                        states.subspan(lo, len));
    // Per-block fallback: keep raw columns when encoding does not shrink
    // them (the per-column raw candidates already bound each column, but
    // raw-resident avoids the cursor decode entirely).
    if (enc.encoded_bytes() >=
        len * (sizeof(TimeNs) * 2 + sizeof(StateId))) {
      pieces.push_back(std::make_shared<const TraceChunk>(
          std::vector<TimeNs>(begins.begin() + static_cast<std::ptrdiff_t>(lo),
                              begins.begin() +
                                  static_cast<std::ptrdiff_t>(lo + len)),
          std::vector<TimeNs>(ends.begin() + static_cast<std::ptrdiff_t>(lo),
                              ends.begin() +
                                  static_cast<std::ptrdiff_t>(lo + len)),
          std::vector<StateId>(states.begin() +
                                   static_cast<std::ptrdiff_t>(lo),
                               states.begin() +
                                   static_cast<std::ptrdiff_t>(lo + len))));
      continue;
    }
    any_encoded = true;
    const StateInterval first = enc.first;
    const StateInterval last = enc.last;
    const TimeNs min_end = enc.min_end;
    const TimeNs max_end = enc.max_end;
    auto payload =
        std::make_shared<const CompressedChunkPayload>(std::move(enc));
    pieces.push_back(std::make_shared<const TraceChunk>(
        std::move(payload), first, last, min_end, max_end));
  }
  // Nothing shrank: keep the original chunk whole (no gratuitous copies
  // or block splits of an incompressible run).
  if (!any_encoded) {
    out.push_back(std::move(chunk));
    return;
  }
  for (TraceChunkPtr& piece : pieces) out.push_back(std::move(piece));
}

void TraceStore::set_compression(ChunkCompression policy) {
  compression_ = policy;
  if (policy != ChunkCompression::kAuto) return;
  // Re-encode what is already sealed and resident, so a store that turns
  // compression on after ingest sees the footprint win immediately.
  bool changed = false;
  for (std::size_t r = 0; r < lanes_.size(); ++r) {
    Lane& lane = lanes_[r];
    std::vector<TraceChunkPtr> next;
    next.reserve(lane.chunks.size());
    bool lane_changed = false;
    for (TraceChunkPtr& chunk : lane.chunks) {
      const TraceChunk* original = chunk.get();
      const std::size_t before = next.size();
      maybe_compress_into(std::move(chunk), next);
      lane_changed = lane_changed || next.size() != before + 1 ||
                     next[before].get() != original;
    }
    lane.chunks = std::move(next);
    // Block splits can push the lane past the compaction threshold, so
    // the next seal must visit it.
    if (lane_changed) mark_dirty(r);
    changed = changed || lane_changed;
  }
  if (changed) ++generation_;
  STAGG_AUDIT(audit());
}

void TraceStore::seal_chunk() {
  if (sealed_) return;
  // Only dirty lanes can hold a tail or a chunk list past the compaction
  // threshold; every other lane — and every dirty lane with neither, such
  // as one that only adopted chunks — is left untouched.  Per-lane unlink
  // lists: compaction runs inside the parallel region, so spill-record
  // accounting is collected per lane and folded in serially.
  std::vector<std::size_t> busy;
  for (const std::size_t r : dirty_lanes_) {
    if (!lanes_[r].tail.empty() ||
        lanes_[r].chunks.size() > kCompactionThreshold) {
      busy.push_back(r);
    }
  }
  std::vector<std::vector<std::shared_ptr<const ChunkPayload>>> unlinked(
      busy.size());
  parallel_for(
      busy.size(),
      [this, &busy, &unlinked](std::size_t i) {
        Lane& lane = lanes_[busy[i]];
        if (!lane.tail.empty()) {
          // Horizon stickiness: an interval ending at or below the
          // eviction horizon can never be read by a legal window (views
          // reaching below the horizon are rejected), so sealing one —
          // e.g. staged after an eviction already passed it — would only
          // freeze dead weight.  Dropping it here is what keeps the
          // "every linked chunk's fence clears the horizon" invariant
          // exact (audit() checks it).
          if (evict_horizon_ != std::numeric_limits<TimeNs>::min()) {
            std::erase_if(lane.tail, [this](const StateInterval& s) {
              return s.end <= evict_horizon_;
            });
          }
        }
        if (!lane.tail.empty()) {
          // Tails arriving in key order (sorted, resource-major files)
          // skip the sort; equal keys are indistinguishable, so either
          // way the chunk is the same.
          if (!std::is_sorted(lane.tail.begin(), lane.tail.end(),
                              interval_key_less)) {
            std::sort(lane.tail.begin(), lane.tail.end(), interval_key_less);
          }
          maybe_compress_into(TraceChunk::from_sorted(lane.tail),
                              lane.chunks);
          lane.tail.clear();
          lane.tail.shrink_to_fit();
        }
        if (lane.chunks.size() > kCompactionThreshold) {
          compact_lane(lane, unlinked[i]);
        }
      },
      /*grain=*/1);
  for (const auto& lane_unlinked : unlinked) {
    for (const auto& payload : lane_unlinked) note_unlinked(payload.get());
  }
  // Every visited lane is clean now: its tail is sealed and compaction
  // leaves at most kCompactionThreshold - 1 chunks.
  for (const std::size_t r : dirty_lanes_) lanes_[r].dirty = false;
  dirty_lanes_.clear();
  derive_window();
  sealed_ = true;
  ++generation_;
  maybe_compact_spill();
  STAGG_AUDIT(audit());
}

void TraceStore::compact_lane(
    Lane& lane,
    std::vector<std::shared_ptr<const ChunkPayload>>& unlinked) {
  // Size-tiered compaction: merge only as many of the *smallest* chunks
  // as it takes to halve the list.  Large merged chunks are re-merged
  // only once enough small ones accumulate past them, so streaming
  // ingest costs O(n log n) element copies overall — never the
  // re-merge-everything-every-16-seals quadratic blowup — and the
  // transient merge buffer holds a fraction of the lane, not all of it.
  const std::size_t target = kCompactionThreshold / 2;
  const std::size_t merge_count = lane.chunks.size() - target + 1;
  std::vector<std::size_t> order(lane.chunks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&lane](std::size_t a, std::size_t b) {
                     return lane.chunks[a]->size() < lane.chunks[b]->size();
                   });
  std::vector<std::uint8_t> picked(lane.chunks.size(), 0);
  for (std::size_t k = 0; k < merge_count; ++k) picked[order[k]] = 1;

  // The merge streams members through cursors, so spilled or compressed
  // members are read in place — no rehydration.  A merged-away member's
  // spill record (if any) becomes dead; the caller accounts it.
  std::vector<TraceChunkPtr> merge_set;
  merge_set.reserve(merge_count);
  std::size_t first_picked = lane.chunks.size();
  for (std::size_t i = 0; i < lane.chunks.size(); ++i) {
    if (picked[i] != 0) {
      if (first_picked == lane.chunks.size()) first_picked = i;
      merge_set.push_back(lane.chunks[i]);
      unlinked.push_back(lane.chunks[i]->payload());
    }
  }
  std::size_t total = 0;
  for (const TraceChunkPtr& c : merge_set) total += c->size();
  std::vector<StateInterval> merged;
  merged.reserve(total);
  merge_chunks(merge_set, merged);
  // Compaction is also the one place individually dead intervals of
  // straddling chunks are let go: anything ending at or before the
  // eviction horizon can never be read by a legal window again.
  std::erase_if(merged, [this](const StateInterval& s) {
    return s.end <= evict_horizon_;
  });

  // Rebuild: survivors keep their order; the merged chunk takes the slot
  // of its oldest member, preserving rough time order for the view
  // cursors' concatenation fast path.
  std::vector<TraceChunkPtr> next;
  next.reserve(lane.chunks.size() - merge_count + 1);
  for (std::size_t i = 0; i < lane.chunks.size(); ++i) {
    if (i == first_picked && !merged.empty()) {
      // Blocks capped at 8 per merge: fence granularity for the view,
      // but few enough that replacing merge_count (> 8) chunks still
      // shrinks the lane below the threshold — compaction keeps making
      // progress instead of re-triggering on its own output every seal.
      const std::size_t block = std::max(kCompressedBlockIntervals,
                                         (merged.size() + 7) / 8);
      maybe_compress_into(TraceChunk::from_sorted(merged), next, block);
    }
    if (picked[i] == 0) next.push_back(lane.chunks[i]);
  }
  lane.chunks = std::move(next);
}

bool TraceStore::tails_sealed() const noexcept {
  for (const Lane& lane : lanes_) {
    if (!lane.tail.empty()) return false;
  }
  return true;
}

void TraceStore::derive_window() {
  if (window_overridden_) return;
  TimeNs lo = std::numeric_limits<TimeNs>::max();
  TimeNs hi = std::numeric_limits<TimeNs>::min();
  bool any = false;
  for (const Lane& lane : lanes_) {
    for (const TraceChunkPtr& c : lane.chunks) {
      lo = std::min(lo, c->min_begin());
      hi = std::max(hi, c->max_end());
      any = true;
    }
    for (const StateInterval& s : lane.tail) {
      lo = std::min(lo, s.begin);
      hi = std::max(hi, s.end);
      any = true;
    }
  }
  begin_ = any ? lo : 0;
  end_ = any ? hi : 0;
}

void TraceStore::evict_before(TimeNs cutoff) {
  evict_horizon_ = std::max(evict_horizon_, cutoff);
  for (Lane& lane : lanes_) {
    for (const TraceChunkPtr& c : lane.chunks) {
      if (c->max_end() <= cutoff) note_unlinked(c->payload().get());
    }
    std::erase_if(lane.chunks, [cutoff](const TraceChunkPtr& c) {
      return c->max_end() <= cutoff;
    });
    std::erase_if(lane.tail, [cutoff](const StateInterval& s) {
      return s.end <= cutoff;
    });
  }
  // The auto-derived window may have spanned the evicted chunks; the next
  // seal re-derives it from the survivors.  An overridden window is the
  // caller's contract and stays put.
  if (!window_overridden_) sealed_ = false;
  ++generation_;
  maybe_compact_spill();
  STAGG_AUDIT(audit());
}

void TraceStore::erase_before_exact(TimeNs cutoff) {
  // Deliberately does NOT raise the eviction horizon: erase_before is a
  // point-in-time operation (the Trace facade contract) and must not
  // retroactively delete intervals appended after the call.  Only
  // evict_before — the forward-moving-window API — is sticky.
  for (std::size_t r = 0; r < lanes_.size(); ++r) {
    Lane& lane = lanes_[r];
    std::vector<TraceChunkPtr> kept;
    kept.reserve(lane.chunks.size());
    for (TraceChunkPtr& c : lane.chunks) {
      if (c->max_end() <= cutoff) {  // entirely dead
        note_unlinked(c->payload().get());
        continue;
      }
      if (c->min_end() > cutoff) {  // fence proves no dead entry
        kept.push_back(std::move(c));
        continue;
      }
      // Straddling: rewrite the surviving subsequence (still sorted).
      std::vector<StateInterval> survivors;
      survivors.reserve(c->size());
      for (ChunkCursor cur(*c); cur.valid(); cur.next()) {
        if (cur.current().end > cutoff) survivors.push_back(cur.current());
      }
      note_unlinked(c->payload().get());
      if (!survivors.empty()) {
        maybe_compress_into(TraceChunk::from_sorted(survivors), kept);
      }
    }
    lane.chunks = std::move(kept);
    // Rewritten straddlers may split into compressed blocks.
    if (lane.chunks.size() > kCompactionThreshold) mark_dirty(r);
    std::erase_if(lane.tail, [cutoff](const StateInterval& s) {
      return s.end <= cutoff;
    });
  }
  if (!window_overridden_) sealed_ = false;
  ++generation_;
  maybe_compact_spill();
  STAGG_AUDIT(audit());
}

void TraceStore::set_window(TimeNs begin, TimeNs end) {
  if (end < begin) throw InvalidArgument("set_window: end < begin");
  begin_ = begin;
  end_ = end;
  window_overridden_ = true;
}

std::uint64_t TraceStore::state_count() const noexcept {
  std::uint64_t n = 0;
  for (const Lane& lane : lanes_) {
    for (const TraceChunkPtr& c : lane.chunks) n += c->size();
    n += lane.tail.size();
  }
  return n;
}

void TraceStore::materialize(ResourceId r,
                             std::vector<StateInterval>& out) const {
  const Lane& lane = lanes_[static_cast<std::size_t>(r)];
  out.clear();
  std::size_t total = lane.tail.size();
  for (const TraceChunkPtr& c : lane.chunks) total += c->size();
  out.reserve(total);
  merge_chunks(lane.chunks, out);
  out.insert(out.end(), lane.tail.begin(), lane.tail.end());
}

std::size_t TraceStore::store_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const Lane& lane : lanes_) {
    for (const TraceChunkPtr& c : lane.chunks) bytes += c->stored_bytes();
    bytes += lane.tail.capacity() * sizeof(StateInterval);
  }
  return bytes;
}

void TraceStore::adopt_chunk(ResourceId r, TraceChunkPtr chunk) {
  if (r < 0 || static_cast<std::size_t>(r) >= lanes_.size()) {
    throw InvalidArgument("adopt_chunk: unknown resource id " +
                          std::to_string(r));
  }
  if (!chunk || chunk->size() == 0) {
    throw InvalidArgument("adopt_chunk: null or empty chunk");
  }
  lanes_[static_cast<std::size_t>(r)].chunks.push_back(std::move(chunk));
  mark_dirty(static_cast<std::size_t>(r));
  sealed_ = false;
  ++generation_;
}

void TraceStore::enable_spill(std::string path) {
  if (path.empty()) {
    throw InvalidArgument("enable_spill: empty spill file path");
  }
  spill_path_ = std::move(path);
}

namespace {

/// Appends `items` to `path` as one batch and counts it in `counters`.
std::vector<SpilledChunkRecord> write_spill_batch(
    const std::string& path, std::span<const SpillItem> items,
    std::uint64_t state_count, TraceStore::SpillCounters& counters) {
  const std::int64_t cpu0 = thread_cpu_ns();
  std::vector<SpilledChunkRecord> records =
      spill_chunks_to_file(path, items, state_count);
  ++counters.batches;
  counters.records += records.size();
  counters.cpu_ns += thread_cpu_ns() - cpu0;
  return records;
}

}  // namespace

std::size_t TraceStore::spill_cold(std::size_t budget_bytes) {
  if (spill_path_.empty()) {
    throw InvalidArgument(
        "spill_cold: no spill file configured (call enable_spill first)");
  }
  struct Candidate {
    std::size_t lane;
    std::size_t index;
    TimeNs max_end;
  };
  std::vector<Candidate> candidates;
  std::size_t resident = 0;
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    const auto& chunks = lanes_[lane].chunks;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      if (!chunks[i]->resident()) continue;
      resident += chunks[i]->stored_bytes();
      candidates.push_back({lane, i, chunks[i]->max_end()});
    }
  }
  if (resident <= budget_bytes) return 0;
  // Coldest first: the fence max-end is the last instant a window can
  // still need the chunk, so ascending order is an LRU over trace time.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.max_end < b.max_end;
                   });
  std::vector<SpillItem> items;
  std::vector<TraceChunkPtr*> slots;
  for (const Candidate& cand : candidates) {
    if (resident <= budget_bytes) break;
    TraceChunkPtr& slot = lanes_[cand.lane].chunks[cand.index];
    items.push_back({static_cast<ResourceId>(cand.lane), slot.get()});
    slots.push_back(&slot);
    resident -= slot->stored_bytes();
  }
  // All or nothing: the store changes only once the whole batch is
  // written, mapped and validated.
  std::vector<SpilledChunkRecord> records =
      write_spill_batch(spill_path_, items, states_.size(), spill_counters_);
  for (std::size_t k = 0; k < records.size(); ++k) {
    spill_records_.emplace(records[k].chunk->payload().get(),
                           records[k].record_bytes);
    spill_live_bytes_ += records[k].record_bytes;
    *slots[k] = std::move(records[k].chunk);
  }
  ++generation_;
  STAGG_AUDIT(audit());
  return records.size();
}

std::size_t TraceStore::pin(ResourceId r) {
  if (r < 0 || static_cast<std::size_t>(r) >= lanes_.size()) {
    throw InvalidArgument("pin: unknown resource id " + std::to_string(r));
  }
  std::size_t pinned = 0;
  for (TraceChunkPtr& chunk : lanes_[static_cast<std::size_t>(r)].chunks) {
    if (chunk->resident()) continue;
    note_unlinked(chunk->payload().get());
    chunk = make_resident(*chunk);
    ++pinned;
  }
  if (pinned != 0) {
    ++generation_;
    maybe_compact_spill();
    STAGG_AUDIT(audit());
  }
  return pinned;
}

std::size_t TraceStore::pin_all() {
  std::size_t pinned = 0;
  for (std::size_t r = 0; r < lanes_.size(); ++r) {
    pinned += pin(static_cast<ResourceId>(r));
  }
  return pinned;
}

std::size_t TraceStore::resident_chunk_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const Lane& lane : lanes_) {
    for (const TraceChunkPtr& c : lane.chunks) {
      if (c->resident()) bytes += c->stored_bytes();
    }
  }
  return bytes;
}

std::size_t TraceStore::spilled_chunk_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const Lane& lane : lanes_) {
    for (const TraceChunkPtr& c : lane.chunks) {
      if (!c->resident()) bytes += c->stored_bytes();
    }
  }
  return bytes;
}

void TraceStore::note_unlinked(const ChunkPayload* payload) {
  const auto it = spill_records_.find(payload);
  if (it == spill_records_.end()) return;
  spill_live_bytes_ -= it->second;
  spill_dead_bytes_ += it->second;
  spill_records_.erase(it);
}

void TraceStore::maybe_compact_spill() {
  if (spill_path_.empty() || spill_dead_bytes_ == 0) return;
  if (spill_dead_bytes_ <= spill_live_bytes_) return;
  compact_spill();
}

void TraceStore::compact_spill() {
  // Rewrite the live records to a sibling temp file and rename it over
  // the spill path — the same crash-safety as chunk-file writes.  Old
  // mappings (this store's still-linked records and any outstanding
  // views) survive the rename: POSIX keeps the renamed-over inode's
  // pages alive as long as something maps them.
  const std::string tmp = spill_path_ + ".compact";
  std::remove(tmp.c_str());
  std::vector<SpillItem> items;
  std::vector<TraceChunkPtr*> slots;
  for (std::size_t r = 0; r < lanes_.size(); ++r) {
    for (TraceChunkPtr& slot : lanes_[r].chunks) {
      if (spill_records_.contains(slot->payload().get())) {
        items.push_back({static_cast<ResourceId>(r), slot.get()});
        slots.push_back(&slot);
      }
    }
  }
  std::vector<SpilledChunkRecord> records;
  if (!items.empty()) {
    records = write_spill_batch(tmp, items, states_.size(), spill_counters_);
    if (std::rename(tmp.c_str(), spill_path_.c_str()) != 0) {
      records.clear();  // unmaps the batch before its file goes
      std::remove(tmp.c_str());
      throw IoError("cannot rename '" + tmp + "' to '" + spill_path_ + "'");
    }
  } else {
    // Nothing live: the whole file was churn.  Drop it; the next spill
    // recreates it from the magic up.
    std::remove(spill_path_.c_str());
  }
  // All or nothing: slots and accounting change only after the rename.
  std::unordered_map<const ChunkPayload*, std::size_t> rewritten;
  std::size_t live = 0;
  for (std::size_t k = 0; k < records.size(); ++k) {
    rewritten.emplace(records[k].chunk->payload().get(),
                      records[k].record_bytes);
    live += records[k].record_bytes;
    *slots[k] = std::move(records[k].chunk);
  }
  spill_records_ = std::move(rewritten);
  spill_live_bytes_ = live;
  spill_dead_bytes_ = 0;
  ++generation_;
}

void TraceStore::audit() const {
  const auto fail = [](const std::string& what) {
    throw ContractError("TraceStore::audit: " + what);
  };
  const auto same = [](const StateInterval& a, const StateInterval& b) {
    return a.begin == b.begin && a.end == b.end && a.state == b.state;
  };

  // Table consistency: one lane per path, the id map a bijection.
  if (lanes_.size() != resource_paths_->size()) {
    fail("lane count " + std::to_string(lanes_.size()) +
         " != resource count " + std::to_string(resource_paths_->size()));
  }
  if (resource_ids_.size() != resource_paths_->size()) {
    fail("resource id map has " + std::to_string(resource_ids_.size()) +
         " entries for " + std::to_string(resource_paths_->size()) +
         " paths");
  }
  for (const auto& [path, id] : resource_ids_) {
    if (id < 0 || static_cast<std::size_t>(id) >= resource_paths_->size() ||
        (*resource_paths_)[static_cast<std::size_t>(id)] != path) {
      fail("resource id map entry '" + path + "' -> " + std::to_string(id) +
           " does not match the path table");
    }
  }

  const TimeNs horizon_floor = std::numeric_limits<TimeNs>::min();
  std::unordered_set<const ChunkPayload*> linked;
  for (std::size_t r = 0; r < lanes_.size(); ++r) {
    const Lane& lane = lanes_[r];
    const std::string where = "resource " + std::to_string(r);
    for (std::size_t ci = 0; ci < lane.chunks.size(); ++ci) {
      const TraceChunkPtr& c = lane.chunks[ci];
      const std::string chunk_where =
          where + " chunk " + std::to_string(ci);
      if (!c || c->size() == 0) fail(chunk_where + " is null or empty");
      linked.insert(c->payload().get());
      // Stream through ChunkCursor so every backend — resident, mapped,
      // compressed — is audited through the exact path readers use.
      std::size_t n = 0;
      TimeNs min_end = std::numeric_limits<TimeNs>::max();
      TimeNs max_end = std::numeric_limits<TimeNs>::min();
      StateInterval prev{};
      StateInterval last{};
      for (ChunkCursor cur(*c); cur.valid(); cur.next()) {
        const StateInterval& s = cur.current();
        if (s.end < s.begin) {
          fail(chunk_where + " interval " + std::to_string(n) +
               " has end < begin");
        }
        if (s.state < 0 ||
            static_cast<std::size_t>(s.state) >= states_.size()) {
          fail(chunk_where + " interval " + std::to_string(n) +
               " names unregistered state " + std::to_string(s.state));
        }
        if (n > 0 && interval_key_less(s, prev)) {
          fail(chunk_where + " is not sorted by the total key at index " +
               std::to_string(n));
        }
        if (n == 0 && !same(s, c->first())) {
          fail(chunk_where + " cached first() differs from the streamed "
               "first interval");
        }
        min_end = std::min(min_end, s.end);
        max_end = std::max(max_end, s.end);
        prev = s;
        last = s;
        ++n;
      }
      if (n != c->size()) {
        fail(chunk_where + " streams " + std::to_string(n) +
             " intervals but reports size " + std::to_string(c->size()));
      }
      if (!same(last, c->last())) {
        fail(chunk_where + " cached last() differs from the streamed last "
             "interval");
      }
      if (c->min_end() != min_end || c->max_end() != max_end) {
        fail(chunk_where + " end fences [" + std::to_string(c->min_end()) +
             ", " + std::to_string(c->max_end()) +
             "] differ from the streamed [" + std::to_string(min_end) +
             ", " + std::to_string(max_end) + "]");
      }
      // Horizon stickiness: seal, evict and compaction all drop what no
      // legal window can read, so a linked chunk's fence clears the
      // horizon (skipped at the floor sentinel, where `<=` would reject
      // legitimate TimeNs-min data on a never-evicted store).
      if (evict_horizon_ != horizon_floor && c->max_end() <= evict_horizon_) {
        fail(chunk_where + " max end " + std::to_string(c->max_end()) +
             " is at or below the eviction horizon " +
             std::to_string(evict_horizon_));
      }
    }
    for (std::size_t ti = 0; ti < lane.tail.size(); ++ti) {
      const StateInterval& s = lane.tail[ti];
      if (s.end < s.begin) {
        fail(where + " tail interval " + std::to_string(ti) +
             " has end < begin");
      }
      if (s.state < 0 ||
          static_cast<std::size_t>(s.state) >= states_.size()) {
        fail(where + " tail interval " + std::to_string(ti) +
             " names unregistered state " + std::to_string(s.state));
      }
    }
  }

  if (sealed_ && !tails_sealed()) {
    fail("store reports sealed() with a non-empty tail");
  }

  // Dirty list: the lanes seal_chunk() visits.  Each listed lane is
  // flagged and listed once; every lane a seal must touch is listed.
  std::vector<std::uint8_t> listed(lanes_.size(), 0);
  for (const std::size_t r : dirty_lanes_) {
    if (r >= lanes_.size() || !lanes_[r].dirty || listed[r] != 0) {
      fail("dirty list entry " + std::to_string(r) +
           " is out of range, unflagged or repeated");
    }
    listed[r] = 1;
  }
  for (std::size_t r = 0; r < lanes_.size(); ++r) {
    const Lane& lane = lanes_[r];
    if (lane.dirty && listed[r] == 0) {
      fail("resource " + std::to_string(r) + " is flagged dirty but not "
           "listed");
    }
    if (listed[r] == 0 && (!lane.tail.empty() ||
                           lane.chunks.size() > kCompactionThreshold)) {
      fail("resource " + std::to_string(r) + " needs a seal (tail or "
           "chunk list past the compaction threshold) but is not dirty");
    }
  }

  // Spill accounting: live record bytes sum exactly, and every live
  // record's payload is still linked in some lane (a record surviving its
  // chunk would leak file bytes forever).
  std::size_t live = 0;
  for (const auto& [payload, bytes] : spill_records_) {
    live += bytes;
    if (linked.find(payload) == linked.end()) {
      fail("spill record of an unlinked chunk still counted live");
    }
  }
  if (live != spill_live_bytes_) {
    fail("spill records sum to " + std::to_string(live) +
         " live bytes but spill_live_bytes() reports " +
         std::to_string(spill_live_bytes_));
  }

  // Window: well-formed always; fence-exact when auto-derived and sealed.
  if (end_ < begin_) fail("window end precedes window begin");
  if (sealed_ && !window_overridden_) {
    TimeNs lo = std::numeric_limits<TimeNs>::max();
    TimeNs hi = std::numeric_limits<TimeNs>::min();
    bool any = false;
    for (const Lane& lane : lanes_) {
      for (const TraceChunkPtr& c : lane.chunks) {
        lo = std::min(lo, c->min_begin());
        hi = std::max(hi, c->max_end());
        any = true;
      }
    }
    const TimeNs want_begin = any ? lo : 0;
    const TimeNs want_end = any ? hi : 0;
    if (begin_ != want_begin || end_ != want_end) {
      fail("sealed auto-derived window [" + std::to_string(begin_) + ", " +
           std::to_string(end_) + ") differs from the fence-derived [" +
           std::to_string(want_begin) + ", " + std::to_string(want_end) +
           ")");
    }
  }
}

}  // namespace stagg
