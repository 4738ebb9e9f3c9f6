// Wall-clock stopwatch used by the Table II timing harness, and a
// per-thread CPU clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>

namespace stagg {

/// Monotonic wall-clock stopwatch.  Started on construction.
class Stopwatch {
 public:
  using Clock = std::chrono::steady_clock;

  Stopwatch() noexcept : start_(Clock::now()) {}

  void restart() noexcept { start_ = Clock::now(); }

  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  [[nodiscard]] double milliseconds() const noexcept { return seconds() * 1e3; }

  [[nodiscard]] std::int64_t nanoseconds() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  Clock::time_point start_;
};

/// CPU time consumed so far by the calling thread, in nanoseconds (process
/// CPU time where no per-thread clock exists).  Differences time one
/// thread's work without counting what other threads do meanwhile.
[[nodiscard]] inline std::int64_t thread_cpu_ns() noexcept {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
#else
  return static_cast<std::int64_t>(std::clock()) * 1'000'000'000 /
         CLOCKS_PER_SEC;
#endif
}

/// Formats a duration in seconds as a short human string ("<1s", "2.4s",
/// "613s") mirroring how Table II of the paper reports times.
[[nodiscard]] inline std::string format_seconds(double s) {
  if (s < 0.0005) return "<1ms";
  char buf[64];
  if (s < 1.0) {
    std::snprintf(buf, sizeof buf, "%.0fms", s * 1e3);
  } else if (s < 10.0) {
    std::snprintf(buf, sizeof buf, "%.2fs", s);
  } else {
    std::snprintf(buf, sizeof buf, "%.0fs", s);
  }
  return buf;
}

}  // namespace stagg
