// live-lu: the live path over a NAS-LU event stream.
//
// Set-up generates an LU trace on the Nancy platform scaled to 160
// cores, keeps the prefix before kHorizonS as the initial store and
// renders the rest as one CSV text per round (kRoundS of trace time
// each).  The rounds go through an IngestPipeline with kParseWorkers parse
// workers into a SessionManager holding three sessions (different windows,
// slice counts and p-sets; one scoped to the griffon cluster), with
// seal-time compression on and a memory budget below the store's bytes,
// so chunks are sealed, evicted, compressed and spilled while the sessions
// refold and re-run their incremental DP.
//
// Two phases, both measured on the pipeline.  Open loop: rounds are
// released on a fixed schedule at kOfferedRate rounds/s; each round's
// latency runs from when it was due to its on_advance callback, and the
// process CPU time and resident-memory peak are taken per block of
// kRoundsPerSample rounds.  The backlog must stay flat, or the offered
// rate is not sustained and the run fails.  Closed loop: the remaining
// rounds are submitted as fast as backpressure allows.
//
// Oracle: after both phases, a synchronous replay of the same rounds
// (parse, ingest, seal, advance on the calling thread) into a second
// manager.  Every session's results at every watermark must be
// bit-identical to the pipeline's (compared by digest: on_advance keeps
// one per session).  The traced run times the replay's layers, and
// replays once more untraced for the tracing overhead and the
// single-threaded baseline.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/ingest_pipeline.hpp"
#include "core/session_manager.hpp"
#include "hierarchy/platform.hpp"
#include "trace/stream_decode.hpp"
#include "workload/nas_lu.hpp"
#include "workload/stream_split.hpp"

namespace perfbench {
namespace {

constexpr std::int32_t kCores = 160;  // Nancy, scaled: 24 + 16 + 120 cores
constexpr double kEventScale = 1.0 / 32.0;
constexpr double kHorizonS = 24.0;
constexpr double kRoundS = 0.25;
/// Rounds per wall second.  The reference host's closed loop sustains 22
/// to 36 rounds/s, so the open loop runs the pipeline at 22-36 % load
/// (info.offered_load reports it on every run).
constexpr double kOfferedRate = 8.0;
/// Most the mean backlog (rounds released but not yet advanced) may grow
/// from the open loop's first half to its second half.
constexpr double kMaxBacklogGrowth = 1.0;
// Round counts: kOfferedRate x seconds x share.  The open loop fills
// kOpenShare of the run; the closed loop gets a fixed round count.
constexpr double kOpenShare = 0.8;
constexpr double kClosedShare = 0.8;
constexpr std::size_t kParseWorkers = 2;
constexpr int kSetups = 5;
/// Rounds per sample: 1 s of trace time, which holds one cycle of the
/// store's seal-time compaction (single rounds alternate between ~25 ms
/// and ~150 ms of CPU).
constexpr std::size_t kRoundsPerSample = 4;

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Digest of one session's results: every p's pIC, partition signature,
/// gain and loss bits.
std::uint64_t results_digest(
    const std::vector<stagg::AggregationResult>& results) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(results.size());
  for (const stagg::AggregationResult& r : results) {
    mix(bits(r.optimal_pic));
    mix(r.partition.signature());
    mix(bits(r.measures.gain));
    mix(bits(r.measures.loss));
  }
  return h;
}

/// Copy of the subtree of `full` rooted at `node`, under a root of the same
/// name, so its leaf paths equal the full platform's.
stagg::Hierarchy subtree_scope(const stagg::Hierarchy& full,
                               stagg::NodeId node) {
  stagg::HierarchyBuilder b(full.node(full.root()).name);
  const auto copy = [&](const auto& self, stagg::NodeId from,
                        stagg::NodeId to) -> void {
    for (const stagg::NodeId child : full.node(from).children) {
      self(self, child, b.add(to, full.node(child).name));
    }
  };
  copy(copy, node, b.add(0, full.node(node).name));
  return b.finish();
}

/// The rendered stream.  The CSV text of all rounds lives in one file and
/// is read back a round at a time, so the input does not count in the
/// measured phase's resident memory.
struct Stream {
  std::shared_ptr<const stagg::TraceStore> initial;
  std::vector<stagg::TimeNs> frontiers;
  std::vector<std::uint64_t> intervals;  ///< per round
  std::vector<std::uint64_t> offsets;    ///< per round, into the CSV file
  std::vector<std::uint64_t> sizes;      ///< per round
};

void read_round(std::ifstream& in, const Stream& s, std::size_t k,
                std::string& out) {
  out.resize(static_cast<std::size_t>(s.sizes[k]));
  in.seekg(static_cast<std::streamoff>(s.offsets[k]));
  in.read(out.data(), static_cast<std::streamsize>(out.size()));
  if (!in) throw std::runtime_error("live-lu: short read of the CSV stream");
}

}  // namespace


Report run_live_lu(const Args& args, SpanRecorder& spans) {
  using namespace stagg;
  Report rep;
  Samples samples;
  // Round counts are whole samples of kRoundsPerSample rounds.
  const auto rounds = [&](double share) {
    return kRoundsPerSample *
           static_cast<std::size_t>(std::max<long long>(
               3, std::llround(kOfferedRate * args.seconds * share /
                               static_cast<double>(kRoundsPerSample))));
  };
  const std::size_t n_open = rounds(kOpenShare);
  const std::size_t n_closed = rounds(kClosedShare);
  const std::size_t n_rounds = n_open + n_closed;
  const TimeNs horizon = seconds(kHorizonS);
  const TimeNs dt = seconds(kRoundS);

  const PlatformSpec platform = grid5000_nancy().scaled_to(kCores);
  const Hierarchy full = platform.build_hierarchy();
  const Hierarchy griffon = subtree_scope(full, full.find("nancy/griffon"));
  const std::string csv_path = args.work_dir + "/live-lu.csv";
  const std::string pipe_spill = args.work_dir + "/live-pipeline.spill";
  const std::string replay_spill = args.work_dir + "/live-replay.spill";

  // A manager over a copy of the initial store: compression, the memory
  // budget (half the store's bytes once the sessions attached and evicted
  // what no window reads), and three sessions.
  std::size_t budget = 0;
  const auto make_manager = [&](const TraceStore& initial,
                                const std::string& spill_path) {
    std::remove(spill_path.c_str());
    auto manager = std::make_unique<SessionManager>(
        full, std::make_shared<TraceStore>(initial));
    manager->set_compression(ChunkCompression::kAuto);
    SessionSpec a;
    a.window = TimeGrid(horizon - seconds(8.0), horizon, 32);
    a.ps = {0.25, 0.75};
    manager->add_session(a);
    SessionSpec b;
    b.window = TimeGrid(horizon - seconds(12.0), horizon, 24);
    b.ps = {0.5};
    manager->add_session(b);
    SessionSpec c;
    c.window = TimeGrid(horizon - seconds(6.0), horizon, 24);
    c.ps = {0.2, 0.4, 0.6, 0.8};
    c.hierarchy = &griffon;
    manager->add_session(c);
    manager->refresh_all();  // evicts below the oldest window
    if (budget == 0) {
      budget = std::max<std::size_t>(manager->store_bytes() / 2, 1);
    }
    manager->set_memory_budget(budget, spill_path);
    return manager;
  };

  // ---- Set-up, repeated: generate, split, render, build the manager. ----
  Stream stream;
  std::unique_ptr<SessionManager> manager;
  for (int k = 0; k < kSetups; ++k) {
    const CpuWallTimer timer;
    LuWorkloadOptions lu;
    lu.event_scale = kEventScale;
    lu.seed = args.seed;
    lu.span_s = kHorizonS + kRoundS * static_cast<double>(n_rounds) + 1.0;
    Trace whole = generate_lu_trace(full, platform, lu);
    whole.seal();
    TraceSplit split = split_trace_at(whole, horizon);
    split.initial.seal();
    Stream s;
    s.initial = split.initial.store();
    std::ofstream csv(csv_path, std::ios::binary | std::ios::trunc);
    std::uint64_t offset = 0;
    std::size_t next = 0;
    for (std::size_t r = 0; r < n_rounds; ++r) {
      const TimeNs frontier = horizon + dt * static_cast<TimeNs>(r + 1);
      std::string text;
      std::uint64_t count = 0;
      for (; next < split.future.size() &&
             split.future[next].second.begin < frontier;
           ++next, ++count) {
        const auto& [res, st] = split.future[next];
        text += "STATE," + whole.resource_path(res) + "," +
                whole.states().name(st.state) + "," +
                std::to_string(st.begin) + "," + std::to_string(st.end) +
                "\n";
      }
      csv << text;
      s.offsets.push_back(offset);
      s.sizes.push_back(text.size());
      offset += text.size();
      s.frontiers.push_back(frontier);
      s.intervals.push_back(count);
    }
    csv.close();
    if (!csv) throw std::runtime_error("live-lu: cannot write " + csv_path);
    manager.reset();
    manager = make_manager(*s.initial, pipe_spill);
    const Timed t = timer.elapsed();
    samples.setup_cpu_s.push_back(t.cpu_s);
    samples.setup_wall_s.push_back(t.wall_s);
    stream = std::move(s);
  }
  release_free_memory();
  const bool rss_reset = reset_peak_rss();

  // ---- Pipeline run: open loop, then closed loop. ------------------------
  const std::size_t n_sessions = manager->session_count();
  std::vector<Clock::time_point> due(n_open);
  std::vector<Clock::time_point> done(n_rounds);
  std::vector<double> release_cpu(n_open);
  std::vector<double> done_cpu(n_rounds);
  std::vector<std::uint64_t> digests(n_rounds * n_sessions, 0);
  std::vector<double> lag_ms;
  std::vector<double> backlog;
  std::vector<double> block_peaks_mb;
  std::atomic<std::size_t> advanced{0};
  bool order_ok = true;
  double submit_s = 0.0;
  Timed closed;
  const CpuTicks ticks0 = cpu_ticks();
  IngestPipelineStats stats;
  std::string pipeline_error;
  {
    IngestPipelineOptions options;
    options.parse_workers = kParseWorkers;
    options.on_advance = [&](TimeNs wm) {
      const auto now = Clock::now();
      const double cpu = cpu_seconds();
      const std::size_t k = advanced.load(std::memory_order_relaxed);
      if (k >= n_rounds || stream.frontiers[k] != wm) {
        order_ok = false;
        return;
      }
      done[k] = now;
      done_cpu[k] = cpu;
      // Only a digest per session here; the comparison runs after the
      // measured phases.
      for (std::size_t i = 0; i < n_sessions; ++i) {
        digests[k * n_sessions + i] =
            results_digest(manager->session(i).results());
      }
      advanced.store(k + 1, std::memory_order_release);
    };
    IngestPipeline pipeline(*manager, options);
    std::ifstream in(csv_path, std::ios::binary);
    std::string text;
    const auto submit = [&](std::size_t k) {
      const auto t = Clock::now();
      pipeline.submit_text(text);
      pipeline.advance_watermark(stream.frontiers[k]);
      submit_s += seconds_between(t, Clock::now());
    };
    try {
      const auto period = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / kOfferedRate));
      const Clock::time_point open_start =
          Clock::now() + std::chrono::milliseconds(10);
      for (std::size_t k = 0; k < n_open; ++k) {
        read_round(in, stream, k, text);
        due[k] = open_start + period * static_cast<long>(k);
        std::this_thread::sleep_until(due[k]);
        if (k % kRoundsPerSample == 0) {
          if (k > 0) block_peaks_mb.push_back(peak_rss_mb());
          reset_peak_rss();
        }
        const auto release = Clock::now();
        release_cpu[k] = cpu_seconds();
        lag_ms.push_back(1e3 * seconds_between(due[k], release));
        backlog.push_back(static_cast<double>(
            k - advanced.load(std::memory_order_acquire)));
        submit(k);
      }
      pipeline.wait_until_advanced(stream.frontiers[n_open - 1]);
      block_peaks_mb.push_back(peak_rss_mb());
      const CpuWallTimer closed_timer;
      for (std::size_t k = n_open; k < n_rounds; ++k) {
        read_round(in, stream, k, text);
        submit(k);
      }
      pipeline.wait_until_advanced(stream.frontiers.back());
      closed = closed_timer.elapsed();
      pipeline.close();
      pipeline.rethrow_if_failed();
    } catch (const std::exception& e) {
      pipeline_error = e.what();
      pipeline.close();
    }
    stats = pipeline.stats();
  }
  samples.steal_pct = steal_pct(ticks0, cpu_ticks());
  rep.info["pipeline_peak_rss_mb"] = peak_rss_mb();
  manager.reset();
  std::remove(pipe_spill.c_str());
  release_free_memory();  // the worker threads' heap arenas
  if (!pipeline_error.empty()) rep.fail("live-lu pipeline: " + pipeline_error);
  if (!order_ok) rep.fail("live-lu pipeline: watermarks advanced out of order");
  const bool complete = pipeline_error.empty() && order_ok &&
                        advanced.load() == n_rounds;

  // ---- Summary of the pipeline run. --------------------------------------
  if (complete) {
    // Open loop: process CPU per block of rounds.  A round's share runs
    // from its release, or from the previous round's advance when that
    // came later, to its own advance, so idle time between releases is
    // left out and work that overlaps two rounds is counted once.
    double block = 0.0;
    for (std::size_t k = 0; k < n_open; ++k) {
      const double from =
          k == 0 ? release_cpu[0] : std::max(release_cpu[k], done_cpu[k - 1]);
      block += done_cpu[k] - from;
      if ((k + 1) % kRoundsPerSample == 0) {
        samples.op_cpu_s.push_back(block);
        block = 0.0;
      }
      samples.latency_wall_ms.push_back(1e3 *
                                        seconds_between(due[k], done[k]));
    }
  }
  samples.peak_rss_mb = median(block_peaks_mb);
  std::uint64_t closed_events = 0;
  for (std::size_t k = n_open; k < n_rounds; ++k) {
    closed_events += 2 * stream.intervals[k];
  }
  samples.events_per_cpu_s =
      static_cast<double>(closed_events) / std::max(closed.cpu_s, 1e-9);
  samples.events_per_s =
      static_cast<double>(closed_events) / std::max(closed.wall_s, 1e-9);
  // The offered rate holds when the backlog stays flat.
  const auto mean = [](auto first, auto last) {
    return first == last ? 0.0
                         : std::accumulate(first, last, 0.0) /
                               static_cast<double>(last - first);
  };
  const auto mid = backlog.begin() + static_cast<long>(backlog.size() / 2);
  const double backlog_first = mean(backlog.begin(), mid);
  const double backlog_second = mean(mid, backlog.end());
  if (backlog_second - backlog_first > kMaxBacklogGrowth) {
    rep.fail("live-lu: the offered rate is not sustained: the mean backlog "
             "grew from " + std::to_string(backlog_first) + " to " +
             std::to_string(backlog_second) + " rounds");
  }
  const double capacity =
      static_cast<double>(n_closed) / std::max(closed.wall_s, 1e-9);

  // ---- Synchronous replay: the oracle, and the traced run's layers. ------
  struct Replay {
    std::vector<double> block_cpu_s;  ///< per kRoundsPerSample rounds
    double cpu_s = 0.0;
    std::uint64_t events = 0;
    std::uint64_t text_bytes = 0;
    std::uint64_t chunks_sealed = 0;
    std::size_t peak_resident = 0;
    std::size_t peak_spilled = 0;
    double bytes_per_interval = 0.0;
  };
  // `check` compares every round with the pipeline's digests and counts
  // the rounds as attempted.
  const auto replay_rounds = [&](bool traced, bool check) {
    Replay out;
    auto replay = make_manager(*stream.initial, replay_spill);
    const TraceStore& rstore = replay->store();
    std::ifstream in(csv_path, std::ios::binary);
    std::string text;
    std::vector<EventRecord> records;
    std::vector<char> touched;
    double block = 0.0;
    for (std::size_t k = 0; k < n_rounds; ++k) {
      if (check) ++rep.attempted;
      try {
        read_round(in, stream, k, text);
        records.clear();
        spans.set_enabled(traced);
        const CpuWallTimer timer;
        {
          ScopedSpan root(spans, "round", k);
          {
            ScopedSpan s(spans, "trace.parse", k);
            records.reserve(stream.intervals[k]);
            TextTraceDecoder decoder(TextTraceFormat::kCsv, "<live-lu>");
            const DecodedTextSink sink = [&](const DecodedTextRecord& rec) {
              EventRecord ev;
              ev.resource = rstore.find_resource(rec.resource);
              ev.state = *rstore.states().find(rec.state);
              ev.begin = rec.begin;
              ev.end = rec.end;
              records.push_back(ev);
            };
            decoder.feed(text, sink);
            decoder.finish(sink);
          }
          {
            ScopedSpan s(spans, "core.session.ingest", k);
            replay->ingest(records);
          }
          {
            ScopedSpan s(spans, "core.session.seal", k);
            replay->seal_staged(stream.frontiers[k]);
          }
          {
            ScopedSpan s(spans, "core.session.advance", k);
            replay->advance_to_watermark(stream.frontiers[k]);
          }
        }
        const Timed time = timer.elapsed();
        spans.set_enabled(false);
        block += time.cpu_s;
        out.cpu_s += time.cpu_s;
        if ((k + 1) % kRoundsPerSample == 0) {
          out.block_cpu_s.push_back(block);
          block = 0.0;
        }
        // seal_staged seals every staged tail, so each resource the round
        // wrote seals one chunk.
        touched.assign(rstore.resource_count(), 0);
        for (const EventRecord& ev : records) {
          touched[static_cast<std::size_t>(ev.resource)] = 1;
        }
        out.chunks_sealed += static_cast<std::uint64_t>(
            std::count(touched.begin(), touched.end(), 1));
        out.events += 2 * records.size();
        out.text_bytes += text.size();
        out.peak_resident =
            std::max(out.peak_resident, replay->resident_chunk_bytes());
        out.peak_spilled =
            std::max(out.peak_spilled, rstore.spilled_chunk_bytes());
        if (!check) continue;
        bool same = records.size() == stream.intervals[k];
        for (std::size_t i = 0; same && i < n_sessions; ++i) {
          same = digests[k * n_sessions + i] ==
                 results_digest(replay->session(i).results());
        }
        if (!same) {
          rep.fail("live-lu round " + std::to_string(k) +
                   ": pipeline results differ from the synchronous replay");
        }
      } catch (const std::exception& e) {
        spans.set_enabled(false);
        if (check) {
          rep.fail("live-lu round " + std::to_string(k) + ": " + e.what());
        }
      }
    }
    out.bytes_per_interval =
        static_cast<double>(rstore.store_bytes()) /
        static_cast<double>(std::max<std::uint64_t>(rstore.state_count(), 1));
    replay.reset();
    std::remove(replay_spill.c_str());
    return out;
  };
  const Replay checked = replay_rounds(args.trace, true);
  std::optional<Replay> untraced;
  if (args.trace) {
    untraced = replay_rounds(false, false);
    for (std::size_t b = 0; b < checked.block_cpu_s.size() &&
                            b < untraced->block_cpu_s.size();
         ++b) {
      samples.overhead_ratios.push_back(checked.block_cpu_s[b] /
                                        untraced->block_cpu_s[b]);
    }
  }
  std::remove(csv_path.c_str());

  rep.counts["trace.events"] = checked.events;
  rep.counts["trace.file_bytes"] = checked.text_bytes;
  rep.counts["trace.chunks_sealed"] = checked.chunks_sealed;
  rep.counts["trace.spilled_bytes"] = checked.peak_spilled;
  rep.info["rounds_open"] = static_cast<double>(n_open);
  rep.info["rounds_closed"] = static_cast<double>(n_closed);
  rep.info["offered_rounds_per_s"] = kOfferedRate;
  rep.info["capacity_rounds_per_s"] = capacity;
  rep.info["offered_load"] = kOfferedRate / capacity;
  rep.info["backlog_mean_first_half"] = backlog_first;
  rep.info["backlog_mean_second_half"] = backlog_second;
  rep.info["memory_budget_bytes"] = static_cast<double>(budget);
  rep.info["input_bytes"] = static_cast<double>(checked.text_bytes);
  rep.info["rss_window_is_measure_phase"] = rss_reset ? 1.0 : 0.0;

  finish_report(rep, samples, args.trace);
  if (!args.trace) return rep;

  add_layer_metrics(rep, spans.spans(), "round");
  std::uint64_t blocked = stats.batch_queue.blocked_pushes +
                          stats.watermark_queue.blocked_pushes;
  std::size_t high_water =
      std::max(stats.batch_queue.high_water, stats.watermark_queue.high_water);
  for (const BoundedQueueStats& q : stats.shard_queues) {
    blocked += q.blocked_pushes;
    high_water = std::max(high_water, q.high_water);
  }
  rep.metric("core.pipeline.submit_blocked_s", submit_s, "s");
  rep.metric("core.pipeline.blocked_pushes", static_cast<double>(blocked),
             "count");
  rep.metric("core.pipeline.queue_high_water",
             static_cast<double>(high_water), "count");
  rep.metric("core.pipeline.gen_lag_ms", quantile(lag_ms, 0.9), "ms");
  rep.metric("core.pipeline.backlog_rounds", quantile(backlog, 1.0), "count");
  rep.metric("core.pipeline.backlog_growth", backlog_second - backlog_first,
             "rounds");
  rep.metric("trace.resident_mb",
             static_cast<double>(checked.peak_resident) / (1 << 20), "MiB");
  rep.metric("trace.spilled_mb",
             static_cast<double>(checked.peak_spilled) / (1 << 20), "MiB");
  rep.metric("trace.bytes_per_interval", checked.bytes_per_interval, "B");
  rep.metric("baseline.sync_events_per_cpu_s",
             static_cast<double>(untraced->events) /
                 std::max(untraced->cpu_s, 1e-9),
             "events/s");
  return rep;
}

}  // namespace perfbench
