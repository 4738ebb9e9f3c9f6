#include "bench.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}

double span_seconds(const Span& s, bool cpu) {
  return static_cast<double>(cpu ? s.cpu_end_ns - s.cpu_start_ns
                                 : s.end_ns - s.start_ns) *
         1e-9;
}

}  // namespace

double cpu_seconds() { return static_cast<double>(cpu_ns()) * 1e-9; }

int SpanRecorder::open(const char* name, std::uint64_t op) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_ns = now_ns();
  s.cpu_start_ns = cpu_ns();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op;
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  if (index < 0) return;
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.cpu_end_ns = cpu_ns();
  s.end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void SpanRecorder::add_child(const char* name, double seconds) {
  if (!enabled_ || stack_.empty()) return;
  const Span& parent = spans_[static_cast<std::size_t>(stack_.back())];
  const double wall = static_cast<double>(now_ns() - parent.start_ns);
  const double cpu = static_cast<double>(cpu_ns() - parent.cpu_start_ns);
  const double share = wall > 0.0 ? std::min(1.0, seconds * 1e9 / wall) : 0.0;
  Span s;
  s.name = name;
  s.start_ns = parent.start_ns;
  s.end_ns = parent.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  s.cpu_start_ns = parent.cpu_start_ns;
  s.cpu_end_ns = parent.cpu_start_ns + static_cast<std::int64_t>(share * cpu);
  s.parent = stack_.back();
  s.op = parent.op;
  spans_.push_back(s);
}

void SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"op\": " << s.op << ", \"parent\": " << s.parent
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"cpu_start_ns\": " << s.cpu_start_ns
        << ", \"cpu_end_ns\": " << s.cpu_end_ns << "}\n";
  }
}

std::map<std::string, std::vector<double>> layer_self_times(
    const std::vector<Span>& spans, const char* root, bool cpu) {
  const std::size_t n = spans.size();
  std::vector<double> child_s(n, 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += span_seconds(s, cpu);
    }
  }
  // Root span index of every span.
  std::vector<int> root_of(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    int r = static_cast<int>(i);
    while (spans[static_cast<std::size_t>(r)].parent >= 0) {
      r = spans[static_cast<std::size_t>(r)].parent;
    }
    root_of[i] = r;
  }
  std::map<int, std::map<std::string, double>> per_root;
  std::set<std::string> layers;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    const Span& r = spans[static_cast<std::size_t>(root_of[i])];
    if (std::string(r.name) != root) continue;
    const double self = span_seconds(s, cpu) - child_s[i];
    auto& row = per_root[root_of[i]];
    if (static_cast<int>(i) == root_of[i]) {
      row["op"] += span_seconds(s, cpu);
      row["other"] += self;
    } else {
      row[s.name] += self;
      layers.insert(s.name);
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (const auto& [index, row] : per_root) {
    for (const std::string& layer : layers) {
      const auto it = row.find(layer);
      out[layer].push_back(it == row.end() ? 0.0 : it->second);
    }
    out["other"].push_back(row.at("other"));
    out["op"].push_back(row.at("op"));
  }
  return out;
}

void add_layer_metrics(Report& report, const std::vector<Span>& spans,
                       const char* root) {
  const auto sum = [](const std::vector<double>& xs) {
    return std::accumulate(xs.begin(), xs.end(), 0.0);
  };
  for (const bool cpu : {true, false}) {
    const auto self = layer_self_times(spans, root, cpu);
    const auto op_it = self.find("op");
    const double op_total = op_it == self.end() ? 0.0 : sum(op_it->second);
    for (const auto& [layer, times] : self) {
      if (layer == "op") continue;
      const double share = op_total > 0.0 ? 100.0 * sum(times) / op_total : 0.0;
      if (cpu) {
        report.metric(layer + "_s", median(times), "s");
        report.metric("share." + layer, share, "%");
      } else {
        report.metric("wall_share." + layer, share, "%");
      }
    }
  }
}

void Samples::add_op(const Timed& t, double events) {
  op_cpu_s.push_back(t.cpu_s);
  latency_wall_ms.push_back(1e3 * t.wall_s);
  wall_rates.push_back(t.wall_s > 0.0 ? events / t.wall_s : 0.0);
}

void Samples::set_rates(double events) {
  const double cpu = std::accumulate(op_cpu_s.begin(), op_cpu_s.end(), 0.0);
  events_per_cpu_s = cpu > 0.0 ? events / cpu : 0.0;
  events_per_s = median(wall_rates);
}

void finish_report(Report& report, const Samples& s, bool trace) {
  const double latency_p50 = quantile(s.latency_wall_ms, 0.5);
  const double latency_p90 = quantile(s.latency_wall_ms, 0.9);
  report.info["setup_wall_s"] = median(s.setup_wall_s);
  report.info["wall_latency_ms_p50"] = latency_p50;
  report.info["wall_latency_ms_p90"] = latency_p90;
  report.info["wall_latency_samples"] =
      static_cast<double>(s.latency_wall_ms.size());
  report.info["wall_events_per_s"] = s.events_per_s;
  report.info["steal_pct"] = s.steal_pct;
  report.info["op_samples"] = static_cast<double>(s.op_cpu_s.size());
  if (!trace) {
    std::vector<double> cpu_ms;
    for (const double c : s.op_cpu_s) cpu_ms.push_back(1e3 * c);
    report.metric("setup_s", median(s.setup_cpu_s), "s");
    report.metric("events_per_cpu_s", s.events_per_cpu_s, "events/s");
    report.metric("op_cpu_ms_p50", quantile(cpu_ms, 0.5), "ms");
    report.metric("op_cpu_ms_p90", quantile(cpu_ms, 0.9), "ms");
    report.metric("peak_rss_mb", s.peak_rss_mb, "MiB");
    return;
  }
  report.metric("wall.latency_ms_p50", latency_p50, "ms");
  report.metric("wall.latency_ms_p90", latency_p90, "ms");
  report.metric("wall.events_per_s", s.events_per_s, "events/s");
  report.metric("host.steal_pct", s.steal_pct, "%");
  report.metric("trace.overhead_pct", 100.0 * (median(s.overhead_ratios) - 1.0),
                "%");
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void release_free_memory() { malloc_trim(0); }

double measure_read_gb_per_s(std::size_t bytes) {
  std::vector<std::uint64_t> buf(std::max<std::size_t>(bytes / 8, 1));
  std::iota(buf.begin(), buf.end(), std::uint64_t{1});
  double best = 0.0;
  std::uint64_t sink = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const auto t0 = Clock::now();
    sink += std::accumulate(buf.begin(), buf.end(), std::uint64_t{0});
    const double s = seconds_between(t0, Clock::now());
    best = std::max(best, static_cast<double>(buf.size() * 8) / s / 1e9);
  }
  // Use the sums so the reads cannot be optimized away (never true).
  if (sink == 0) std::fprintf(stderr, "(bandwidth sink %llu)\n",
                              static_cast<unsigned long long>(sink));
  return best;
}

std::size_t llc_bytes() {
  for (const int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 0;
}

CpuTicks cpu_ticks() {
  // First line of /proc/stat: "cpu user nice system idle iowait irq
  // softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks t;
  for (int field = 0; field < 8 && in; ++field) {
    std::uint64_t v = 0;
    in >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_pct(const CpuTicks& a, const CpuTicks& b) {
  const std::uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

}  // namespace perfbench
