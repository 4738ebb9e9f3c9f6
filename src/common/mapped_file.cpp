#include "common/mapped_file.hpp"

#include <cstdio>

#include "common/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define STAGG_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define STAGG_HAVE_MMAP 0
#endif

namespace stagg {

namespace {

[[noreturn]] void throw_range_error(const std::string& path,
                                    std::uint64_t offset, std::size_t size,
                                    std::uint64_t file_size) {
  throw IoError("mapped range [" + std::to_string(offset) + ", " +
                std::to_string(offset + size) + ") reaches past the end of '" +
                path + "' (" + std::to_string(file_size) + " bytes)");
}

}  // namespace

std::shared_ptr<const MappedRegion> MappedRegion::map(const std::string& path,
                                                      std::uint64_t offset,
                                                      std::size_t size) {
  if (size == 0) throw IoError("cannot map an empty range of '" + path + "'");
  // make_shared needs a public constructor; the region is immutable after
  // this function, so a bare new behind shared_ptr is fine.
  std::shared_ptr<MappedRegion> region(new MappedRegion());
#if STAGG_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw IoError("cannot open '" + path + "' for mapping");
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw IoError("fstat failed on '" + path + "'");
  }
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  if (offset + size > file_size) {
    ::close(fd);
    throw_range_error(path, offset, size, file_size);
  }
  // mmap offsets must be page-aligned: map from the page floor and point
  // data() at the requested byte (the slack is at most one page).
  const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const std::uint64_t base = offset - offset % page;
  const std::size_t map_size = static_cast<std::size_t>(offset - base) + size;
  void* mapped = ::mmap(nullptr, map_size, PROT_READ, MAP_SHARED, fd,
                        static_cast<off_t>(base));
  ::close(fd);  // the mapping keeps the file alive on its own
  if (mapped == MAP_FAILED) {
    throw IoError("mmap failed on '" + path + "' at offset " +
                  std::to_string(offset));
  }
  region->map_base_ = mapped;
  region->map_size_ = map_size;
  region->data_ =
      static_cast<const std::uint8_t*>(mapped) + (offset - base);
  region->size_ = size;
#else
  // Heap fallback: read the range into an owned buffer.  Same lifetime
  // semantics, no paging benefit (heap_fallback() reports this).
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw IoError("cannot open '" + path + "' for mapping");
  std::fseek(f, 0, SEEK_END);
  const auto file_size = static_cast<std::uint64_t>(std::ftell(f));
  if (offset + size > file_size) {
    std::fclose(f);
    throw_range_error(path, offset, size, file_size);
  }
  auto buf = std::make_unique<std::uint8_t[]>(size);
  std::fseek(f, static_cast<long>(offset), SEEK_SET);
  const std::size_t got = std::fread(buf.get(), 1, size, f);
  std::fclose(f);
  if (got != size) {
    throw IoError("short read mapping '" + path + "' at offset " +
                  std::to_string(offset));
  }
  region->heap_ = std::move(buf);
  region->data_ = region->heap_.get();
  region->size_ = size;
#endif
  return region;
}

std::shared_ptr<const MappedRegion> MappedRegion::map_file(
    const std::string& path) {
  std::uint64_t file_size = 0;
#if STAGG_HAVE_MMAP
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    throw IoError("cannot stat '" + path + "'");
  }
  file_size = static_cast<std::uint64_t>(st.st_size);
#else
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw IoError("cannot open '" + path + "'");
  std::fseek(f, 0, SEEK_END);
  file_size = static_cast<std::uint64_t>(std::ftell(f));
  std::fclose(f);
#endif
  if (file_size == 0) throw IoError("cannot map empty file '" + path + "'");
  return map(path, 0, static_cast<std::size_t>(file_size));
}

void MappedRegion::advise(MapAdvice advice,
                          std::span<const std::uint8_t> bytes) const noexcept {
#if STAGG_HAVE_MMAP
  if (map_base_ == nullptr || bytes.empty()) return;
  int flag = MADV_NORMAL;
  switch (advice) {
    case MapAdvice::kSequential:
      flag = MADV_SEQUENTIAL;
      break;
    case MapAdvice::kWillNeed:
      flag = MADV_WILLNEED;
      break;
    case MapAdvice::kDontNeed:
      flag = MADV_DONTNEED;
      break;
  }
  // madvise takes a page-aligned start: round down to the page holding
  // the first byte (never below the page-aligned mapping base).
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto first = reinterpret_cast<std::uintptr_t>(bytes.data());
  const std::uintptr_t start = first - first % page;
  // Best-effort: advice may legitimately fail (e.g. locked pages) and the
  // mapping stays fully readable either way.
  (void)::madvise(reinterpret_cast<void*>(start),
                  static_cast<std::size_t>(first - start) + bytes.size(),
                  flag);
#else
  (void)advice;
  (void)bytes;
#endif
}

MappedRegion::~MappedRegion() {
#if STAGG_HAVE_MMAP
  if (map_base_ != nullptr) ::munmap(map_base_, map_size_);
#endif
}

}  // namespace stagg
