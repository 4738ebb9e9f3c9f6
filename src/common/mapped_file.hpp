// Read-only memory-mapped file regions (the storage-backend primitive of
// the trace layer's on-disk chunk spill).
//
// A MappedRegion exposes the bytes [offset, offset + size) of a file as a
// stable read-only pointer.  On POSIX it is backed by mmap: the kernel
// pages the bytes in on first touch and may reclaim them under memory
// pressure, so a mapped region costs file-cache pages, not anonymous heap
// — the property the TraceStore spill budget counts on.  The mapping
// survives later truncation-free appends to the file and even unlinking
// (POSIX keeps mapped pages alive), which is what lets an outstanding
// TraceView stream a spilled chunk after the store has moved on.
//
// On platforms without mmap the region degrades to a heap copy of the
// bytes (same API and lifetime semantics, no paging benefit);
// heap_fallback() reports which backend is active so accounting can stay
// honest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace stagg {

/// Paging advice a reader can hand to the kernel for a mapped region.
/// Purely a performance hint — honoring it (or supporting it at all) is
/// optional, so callers never depend on it for correctness.
enum class MapAdvice : std::uint8_t {
  kSequential,  ///< Pages will be read front-to-back (aggressive readahead).
  kWillNeed,    ///< Pages are about to be read (prefetch now).
  kDontNeed,    ///< Pages are cold (reclaim them first).
};

class MappedRegion {
 public:
  /// Maps [offset, offset + size) of `path` read-only.  Throws IoError on
  /// open/map failure or when the range reaches past the end of the file
  /// (the error names the offending offset).  `size` must be non-zero.
  [[nodiscard]] static std::shared_ptr<const MappedRegion> map(
      const std::string& path, std::uint64_t offset, std::size_t size);

  /// Maps the whole file read-only.  Throws IoError on failure or on an
  /// empty file.
  [[nodiscard]] static std::shared_ptr<const MappedRegion> map_file(
      const std::string& path);

  MappedRegion(const MappedRegion&) = delete;
  MappedRegion& operator=(const MappedRegion&) = delete;
  ~MappedRegion();

  /// First byte of the requested range (valid for size() bytes).
  [[nodiscard]] const std::uint8_t* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// True when mmap was unavailable and the bytes live in an owned heap
  /// buffer instead of file-backed pages.
  [[nodiscard]] bool heap_fallback() const noexcept {
    return map_base_ == nullptr;
  }

  /// Forwards `advice` to madvise over the pages holding `bytes`, a
  /// sub-range of [data(), data() + size()) — one record of a mapping
  /// shared by many, or the whole of it.  Best-effort: a no-op on the heap
  /// fallback and on platforms without madvise, and errors are ignored
  /// (advice never affects correctness).
  void advise(MapAdvice advice,
              std::span<const std::uint8_t> bytes) const noexcept;

 private:
  MappedRegion() = default;

  /// Requested range inside the mapping (or the heap buffer).
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  /// mmap bookkeeping: the page-aligned base actually mapped, nullptr when
  /// the heap fallback is active.
  void* map_base_ = nullptr;
  std::size_t map_size_ = 0;
  /// Heap fallback storage.
  std::unique_ptr<std::uint8_t[]> heap_;
};

}  // namespace stagg
