// perfbench: runs one seeded workload for a fixed time and prints a
// one-line JSON report (metrics, exact counts, host and build record) on
// stdout.  run.py builds this program, runs it and turns the report into
// the benchmark's result line.
//
//   perfbench --workload batch-lu|explore-cg|live-lu --seed N --seconds S
//             --trace 0|1 --work-dir DIR
//
// Exit code 0 when every operation succeeded and matched its oracle, 3
// when some failed (the report is still printed), 1 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "common/bench_info.hpp"

namespace perfbench {
namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.work_dir.empty() &&
         args.seconds > 0.0;
}

int run(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args(argc, argv, args)) throw std::invalid_argument("usage");
  } catch (const std::exception&) {
    std::fprintf(stderr,
                 "usage: perfbench --workload batch-lu|explore-cg|live-lu "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
    return 1;
  }
  std::filesystem::create_directories(args.work_dir);

  SpanRecorder spans;
  Report report;
  if (args.workload == "batch-lu") {
    report = run_batch_lu(args, spans);
  } else if (args.workload == "explore-cg") {
    report = run_explore_cg(args, spans);
  } else if (args.workload == "live-lu") {
    report = run_live_lu(args, spans);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 1;
  }

  // Host record.  The bandwidth buffer is 4x the last-level cache so the
  // read streams from memory, not cache.
  const std::size_t llc = llc_bytes();
  const std::size_t bw_bytes = std::max<std::size_t>(4 * llc, 256u << 20);
  const double mem_gb_per_s = measure_read_gb_per_s(bw_bytes);
  const stagg::BenchInfo info = stagg::bench_info();
  if (args.trace) {
    report.metric("host.mem_gb_per_s", mem_gb_per_s, "GB/s");
    const auto decode = report.metrics.find("trace.decode_mb_per_s");
    if (decode != report.metrics.end()) {
      report.metric("trace.decode_of_mem_bw",
                    decode->second.value / std::max(mem_gb_per_s * 1e3, 1e-12),
                    "ratio");
    }
    std::ostringstream name;
    name << args.work_dir << "/spans_" << args.workload << "_" << args.seed
         << ".jsonl";
    spans.write(name.str());
    report.info["spans_written"] = static_cast<double>(spans.spans().size());
  }

  std::ostringstream out;
  out << "{\"workload\": " << json_string(args.workload)
      << ", \"seed\": " << args.seed
      << ", \"seconds\": " << json_number(args.seconds)
      << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"failures\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    out << (i ? ", " : "") << json_string(report.failures[i]);
  }
  out << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    out << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
        << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
        << "}";
    first = false;
  }
  out << "}, \"counts\": {";
  first = true;
  for (const auto& [name, v] : report.counts) {
    out << (first ? "" : ", ") << json_string(name) << ": " << v;
    first = false;
  }
  out << "}, \"info\": {";
  first = true;
  for (const auto& [name, v] : report.info) {
    out << (first ? "" : ", ") << json_string(name) << ": " << json_number(v);
    first = false;
  }
  out << "}, \"host\": {\"nproc\": " << available_cpus()
      << ", \"hardware_threads\": " << info.hardware_threads
      << ", \"simd_level\": " << json_string(info.simd_level)
      << ", \"compiler\": " << json_string(info.compiler)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"llc_bytes\": " << llc
      << ", \"mem_gb_per_s\": " << json_number(mem_gb_per_s)
      << ", \"mem_buffer_bytes\": " << bw_bytes << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return report.failed == 0 ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
