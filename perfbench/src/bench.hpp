// Shared pieces of the perfbench program: arguments, the report every
// workload fills, the in-memory span recorder of the traced run, and
// small statistics helpers.
//
// The program calls only the library's public API.  Every layer is timed
// from outside, by a span around the call into it; the library itself
// carries no instrumentation.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds consumed so far by every thread of this process (user +
/// system; time the hypervisor stole from the virtual CPUs is excluded).
[[nodiscard]] double cpu_seconds();

/// Wall and process-CPU time of one measured region.
struct Timed {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Starts a wall + CPU stopwatch; elapsed() reads both.
class CpuWallTimer {
 public:
  CpuWallTimer() : wall0_(Clock::now()), cpu0_(cpu_seconds()) {}
  [[nodiscard]] Timed elapsed() const {
    return {seconds_between(wall0_, Clock::now()), cpu_seconds() - cpu0_};
  }

 private:
  Clock::time_point wall0_;
  double cpu0_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch files (trace file, spill files, spans)
};

/// One reported number.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports.  `metrics` holds the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run); `counts` holds
/// exact work counts, which must repeat across runs of one seed; `info`
/// holds descriptive numbers (sizes, sample counts) for the human report.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::uint64_t> counts;
  std::map<std::string, double> info;

  void metric(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// Spans (traced run only).
// ---------------------------------------------------------------------------

/// One timed call, in wall and process-CPU nanoseconds.  `parent` indexes
/// the enclosing span (-1 for an operation root); spans of one operation
/// share `op`.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_start_ns = 0;
  std::int64_t cpu_end_ns = 0;
  int parent = -1;
  std::uint64_t op = 0;
};

/// Records spans of the calling thread into memory.  Disabled recorders
/// cost one branch per call.
class SpanRecorder {
 public:
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Opens a span under the innermost open one; returns its index or -1.
  int open(const char* name, std::uint64_t op);
  void close(int index);
  /// Records an already measured child of the innermost open span (a
  /// wall duration the library reports, e.g. the measure-cache build
  /// inside a DP run), placed at the start of its parent.  Its CPU time is
  /// the same share of the parent's CPU time as its wall share (the parent
  /// is still open, so its CPU time is read now).
  void add_child(const char* name, double seconds);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::uint64_t op)
      : rec_(rec), index_(rec.open(name, op)) {}
  ~ScopedSpan() { rec_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int index_;
};

/// Per-layer self time of every traced operation root named `root`, in
/// process-CPU (`cpu`) or wall seconds: layer name -> per-operation self
/// seconds (one entry per operation, 0 when the layer did not run in it),
/// plus "other" = the root's own self time, and "op" = the root's time.
/// The layers are the names of the spans under such roots.  Self time is
/// a span's time minus the time of its child spans.
[[nodiscard]] std::map<std::string, std::vector<double>> layer_self_times(
    const std::vector<Span>& spans, const char* root, bool cpu);

/// Adds the per-layer metrics of a traced run over the operation roots
/// named `root`, for every layer that ran under them: `<layer>_s` and
/// `other_s` (median self CPU seconds per operation), `share.<layer>` and
/// `share.other` (% of the summed operation CPU time), and
/// `wall_share.<layer>` / `wall_share.other` (the same over wall time).
void add_layer_metrics(Report& report, const std::vector<Span>& spans,
                       const char* root);

/// Raw samples of one run, summarised by finish_report.
struct Samples {
  std::vector<double> setup_cpu_s;  ///< one per set-up repetition
  std::vector<double> setup_wall_s;
  /// Process CPU seconds of each measured operation (live-lu: of each
  /// open-loop block of pipeline rounds).
  std::vector<double> op_cpu_s;
  /// Events per wall second of each measured operation (live-lu sets
  /// events_per_s directly).
  std::vector<double> wall_rates;
  /// Wall latency of each operation (live-lu: of each open-loop round,
  /// from when it was due to its on_advance callback).
  std::vector<double> latency_wall_ms;
  /// Traced run: traced over untraced CPU time of the same operation, one
  /// entry per pair.
  std::vector<double> overhead_ratios;
  double events_per_cpu_s = 0.0;
  double events_per_s = 0.0;  ///< events per wall second
  double peak_rss_mb = 0.0;
  double steal_pct = 0.0;

  /// Records one measured operation that handled `events` events.
  void add_op(const Timed& t, double events);
  /// Sets events_per_cpu_s to `events` over the summed operation CPU
  /// time, and events_per_s to the median operation's wall rate.
  void set_rates(double events);
};

/// Adds the run's summary: with `trace` false the end-to-end metrics
/// (setup_s, events_per_cpu_s, op_cpu_ms_p50/p90, peak_rss_mb), with
/// `trace` true the wall-clock, steal and tracing-overhead layer metrics;
/// the wall figures always go to `info` as well.
void finish_report(Report& report, const Samples& samples, bool trace);

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> xs, double q);
[[nodiscard]] inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

// ---------------------------------------------------------------------------
// Host.
// ---------------------------------------------------------------------------

/// Forgets the process's resident-memory high-water mark so the next
/// peak_rss_mb() covers only what runs after this call.  Returns false
/// when the kernel refuses (the peak then covers the whole process).
bool reset_peak_rss();
/// Peak resident memory (MiB) since the last reset_peak_rss().
[[nodiscard]] double peak_rss_mb();
/// Returns freed heap pages to the kernel (between set-up and measure).
void release_free_memory();
/// Single-thread read bandwidth in GB/s over a buffer of `bytes`.
[[nodiscard]] double measure_read_gb_per_s(std::size_t bytes);
/// Last-level cache bytes (0 when unknown).
[[nodiscard]] std::size_t llc_bytes();
/// CPUs this process may run on.
[[nodiscard]] unsigned available_cpus();
/// Host-wide CPU tick counters (steal, total) from the kernel, to report
/// how much CPU time the hypervisor took from this machine during a run.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();
/// Steal share (%) between two cpu_ticks() readings.
[[nodiscard]] double steal_pct(const CpuTicks& a, const CpuTicks& b);

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

Report run_batch_lu(const Args& args, SpanRecorder& spans);
Report run_explore_cg(const Args& args, SpanRecorder& spans);
Report run_live_lu(const Args& args, SpanRecorder& spans);

}  // namespace perfbench
