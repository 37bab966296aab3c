// perf_layers: the traced half of the repository benchmark (README.md in
// this directory). It links the simulator's libraries and calls each
// layer's public functions for one workload, with spans and counters
// recorded around those calls from this file only, and prints one JSON
// object of per-unit layer costs (ns per chunk, per segment, per session,
// per byte), the exact work counters behind them, and the outcome of every
// correctness check.
//
//   perf_layers --groups g1,g2,... [--faults SPEC] [--obs 0|1]
//               [--checkpoint 0|1] [--sequential 0|1]
//               --sessions N --days N [--seq-sessions N --seq-days N]
//               --seed S --seconds T --tmp DIR
//   perf_layers --calibrate
//
// Structure of one run:
//   1. Reference: the real harness (exp::run_ab_test_checkpointed) over the
//      traced grid at 1 thread and at every hardware thread, untraced, with
//      the workload's obs instruments and a metrics registry installed.
//   2. Pipeline passes: the harness's per-key work re-done layer by layer
//      (population -> trace generation / faults -> batched kernel or scalar
//      player -> fold -> timeline / monitor / btrace), through a 1-thread
//      runtime::SessionExecutor exactly as exp::SessionBlockRunner does it.
//      Passes alternate spans off and spans on. Every pass must reproduce
//      the reference's cells and registry counters, the two kinds of pass
//      must batch the same lanes, and their wall-time ratio is the tracing
//      overhead.
//   3. Attribution passes: every ABR the CLIs know simulates a fixed key
//      sample on pre-built traces (scalar player + StreamingMetricsSink);
//      its decisions and sink events are recorded and replayed alone, which
//      splits a session's cost into ABR decision, sink fold and player self
//      time. A counted pass checks the zero-allocation invariant.
//   4. One-off layer probes: btrace read-back, checkpoint save/load/merge,
//      an empty SessionExecutor map, the sequential engine, report render.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "abr/baselines.hpp"
#include "abr/bola.hpp"
#include "abr/related_work.hpp"
#include "exp/abtest.hpp"
#include "exp/checkpoint.hpp"
#include "exp/population.hpp"
#include "exp/report.hpp"
#include "exp/session_key.hpp"
#include "exp/workload.hpp"
#include "media/video.hpp"
#include "net/estimators.hpp"
#include "net/fault_inject.hpp"
#include "net/trace_gen.hpp"
#include "net/trace_stream.hpp"
#include "obs/btrace.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/obs.hpp"
#include "obs/setup.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "runtime/session_executor.hpp"
#include "runtime/thread_pool.hpp"
#include "seq/engine.hpp"
#include "sim/batch_player.hpp"
#include "sim/player.hpp"
#include "sim/session_sink.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: operator new is interposed for this binary and counts
// while g_counting is set (frees are not counted).
namespace {
std::atomic<long long> g_allocs{0};
std::atomic<bool> g_counting{false};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace bba;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Spans: one accumulator per layer boundary. The spans never nest, so each
// accumulator is that layer's self time. When disabled a Span reads no clock.
enum SpanId {
  kTraceGen,     // Population::trace_for_into (materialized trace)
  kFaults,       // Population::inject_faults
  kScalar,       // sim::simulate_session with the StreamingMetricsSink
  kFold,         // exp::accumulate_session
  kTimeline,     // obs::TimelineAggregator::record
  kMonitor,      // obs::HealthMonitor::record / finalize
  kBtrace,       // traced-session replay + btrace serialization + write
  kNumSpans
};

struct SpanTable {
  bool on = false;
  double ns[kNumSpans] = {};
  void clear() { std::fill(std::begin(ns), std::end(ns), 0.0); }
};

class Span {
 public:
  Span(SpanTable& t, SpanId id) : t_(t), id_(id) {
    if (t_.on) start_ = Clock::now();
  }
  ~Span() {
    if (t_.on) {
      t_.ns[id_] +=
          std::chrono::duration<double, std::nano>(Clock::now() - start_)
              .count();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTable& t_;
  SpanId id_;
  Clock::time_point start_{};
};

// ---------------------------------------------------------------------------
struct Args {
  std::vector<std::string> groups;
  std::string faults;
  bool obs = false;
  bool checkpoint = false;
  bool sequential = false;
  std::size_t sessions = 0;
  std::size_t days = 0;
  std::size_t seq_sessions = 0;  // the sequential probe's grid; 0 = traced grid
  std::size_t seq_days = 0;
  std::uint64_t seed = 2014;
  double seconds = 10.0;
  std::string tmp = ".";
};

// The groups the CLIs accept, built as tools/abtest_cli.cpp builds them.
exp::AbrFactory factory_for(const std::string& name) {
  if (name == "control") return exp::make_control_factory();
  if (name == "rmin-always") return exp::make_rmin_factory();
  if (name == "bba0") return exp::make_bba0_factory();
  if (name == "bba1") return exp::make_bba1_factory();
  if (name == "bba2") return exp::make_bba2_factory();
  if (name == "bba-others") return exp::make_bba_others_factory();
  if (name == "throughput") {
    return [] {
      return std::make_unique<abr::ThroughputAbr>(
          std::make_unique<net::EwmaEstimator>(0.3));
    };
  }
  if (name == "pid") return [] { return std::make_unique<abr::PidAbr>(); };
  if (name == "elastic") {
    return [] { return std::make_unique<abr::ElasticAbr>(); };
  }
  if (name == "bola") return [] { return std::make_unique<abr::BolaAbr>(); };
  return nullptr;
}

const std::vector<std::string> kAllAbrs = {
    "control", "throughput", "pid",  "elastic", "bola",
    "rmin-always", "bba0",   "bba1", "bba2",    "bba-others"};

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = s.find(',', start);
    out.push_back(s.substr(start, comma - start));
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_metrics(const sim::SessionMetrics& a, const sim::SessionMetrics& b) {
  return same_bits(a.play_s, b.play_s) && same_bits(a.join_s, b.join_s) &&
         a.rebuffer_count == b.rebuffer_count &&
         same_bits(a.rebuffer_s, b.rebuffer_s) &&
         same_bits(a.rebuffers_per_hour, b.rebuffers_per_hour) &&
         a.fault_stall_count == b.fault_stall_count &&
         same_bits(a.avg_rate_bps, b.avg_rate_bps) &&
         same_bits(a.startup_rate_bps, b.startup_rate_bps) &&
         same_bits(a.steady_rate_bps, b.steady_rate_bps) &&
         a.has_steady == b.has_steady && a.switch_count == b.switch_count &&
         same_bits(a.switches_per_hour, b.switches_per_hour) &&
         same_bits(a.avg_buffer_s, b.avg_buffer_s) &&
         a.abandoned == b.abandoned &&
         same_bits(a.steady_play_s, b.steady_play_s);
}

bool same_cell(const exp::WindowMetrics& a, const exp::WindowMetrics& b) {
  return same_bits(a.play_hours, b.play_hours) &&
         same_bits(a.rebuffer_count, b.rebuffer_count) &&
         same_bits(a.rebuffer_s, b.rebuffer_s) &&
         same_bits(a.avg_rate_bps, b.avg_rate_bps) &&
         same_bits(a.startup_rate_bps, b.startup_rate_bps) &&
         same_bits(a.steady_rate_bps, b.steady_rate_bps) &&
         same_bits(a.switch_count, b.switch_count) &&
         a.sessions == b.sessions &&
         same_bits(a.steady_play_hours, b.steady_play_hours) &&
         same_bits(a.fault_stall_count, b.fault_stall_count);
}

using Cells = std::vector<std::vector<std::vector<exp::WindowMetrics>>>;

bool same_cells(const Cells& a, const Cells& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t g = 0; g < a.size(); ++g) {
    if (a[g].size() != b[g].size()) return false;
    for (std::size_t d = 0; d < a[g].size(); ++d) {
      for (std::size_t w = 0; w < a[g][d].size(); ++w) {
        if (!same_cell(a[g][d][w], b[g][d][w])) return false;
      }
    }
  }
  return true;
}

using Counters = std::vector<std::uint64_t>;

Counters counters_of(const obs::MetricsRegistry& registry) {
  const obs::MetricsSnapshot snap = registry.snapshot();
  Counters out(obs::kNumCounters);
  for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
    out[c] = snap.counter(static_cast<obs::Counter>(c));
  }
  return out;
}

std::uint64_t counter(const Counters& c, obs::Counter id) {
  return c[static_cast<std::size_t>(id)];
}

// ---------------------------------------------------------------------------
// The workload as the CLIs configure it, at the traced grid size.
struct Workload {
  Args args;
  std::vector<exp::Group> groups;
  exp::AbTestConfig cfg;

  // The CLI's obs flags. metrics_out alone is what brings up the metrics
  // registry whose counters the pipeline passes are checked against.
  obs::ObsOptions obs_options(const std::string& stem) const {
    obs::ObsOptions o;
    o.metrics_out = stem + ".metrics.json";
    if (args.obs) {
      o.trace_out = stem + ".btrace";
      o.trace_format = "btrace";
      o.trace_sample = 16;
      o.timeline_out = stem + ".timeline.json";
      o.alerts_out = stem + ".alerts";
    }
    return o;
  }
  std::size_t checkpoint_every() const {
    return cfg.sessions_per_window * exp::kWindowsPerDay;
  }
};

struct HarnessRun {
  exp::AbTestResult result;
  Counters counters;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

// One untraced run of the real harness with the workload's instruments.
HarnessRun run_harness(const Workload& w, std::size_t threads,
                       const exp::CheckpointOptions& ckpt,
                       const std::string& stem) {
  const media::VideoLibrary library = media::VideoLibrary::standard(11);
  exp::AbTestConfig cfg = w.cfg;
  cfg.threads = threads;
  HarnessRun out;
  obs::ObsScope scope(w.obs_options(stem), threads);
  exp::AbTestResult result;
  std::string error;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  if (!exp::run_ab_test_checkpointed(w.groups, library, cfg, ckpt, &result,
                                     &error)) {
    std::fprintf(stderr, "perf_layers: harness: %s\n", error.c_str());
    std::exit(1);
  }
  out.wall_s = seconds_since(t0);
  out.cpu_s = cpu_seconds() - cpu0;
  out.result = std::move(result);
  out.counters = counters_of(*scope.handle()->metrics);
  return out;
}

// The health monitor as the CLIs configure it without --alert-spec.
obs::MonitorSpec default_monitor_spec() {
  obs::MonitorSpec spec;
  std::string error;
  obs::MonitorSpec::parse("", &spec, &error);
  return spec;
}

// ---------------------------------------------------------------------------
// Pipeline: exp::SessionBlockRunner's per-key work, one layer call at a time.
struct PipelineResult {
  Cells cells;
  Counters counters;
  double wall_s = 0.0;
  double spans_ns[kNumSpans] = {};
  std::uint64_t sessions = 0;
  std::uint64_t lanes_offered = 0;
  std::uint64_t lanes_batched = 0;
  std::uint64_t segments_materialized = 0;
  std::uint64_t stream_segments_used = 0;
  std::uint64_t stream_segments_full = 0;
  std::uint64_t traced_sessions = 0;
  std::uint64_t btrace_bytes = 0;
  std::string btrace_path;
};

class Pipeline {
 public:
  Pipeline(const Workload& w, SpanTable& spans, const std::string& stem)
      : w_(w),
        spans_(spans),
        library_(media::VideoLibrary::standard(11)),
        population_(w.cfg.population),
        registry_(1),
        monitor_(default_monitor_spec()),
        executor_(1),
        stem_(stem) {
    for (std::size_t d = 0; d < w.cfg.days; ++d) {
      for (std::size_t win = 0; win < exp::kWindowsPerDay; ++win) {
        for (std::size_t u = 0; u < w.cfg.sessions_per_window; ++u) {
          keys_.push_back(exp::SessionKey{w.cfg.seed, d, win, u});
        }
      }
    }
    for (const auto& g : w.groups) {
      names_.push_back(g.name);
      abrs_.push_back(g.factory());
    }
    lanes_.resize(w.groups.size());
    // The obs writers run on every workload, so their per-session costs
    // are measured everywhere; they change no cell and, their replays
    // being muted, no counter.
    obs::TraceConfig tc;
    tc.path = stem + ".btrace";
    tc.sample = 16;
    tracer_ = std::make_unique<obs::BinaryTraceCollector>(tc);
    trace_sink_ = tracer_->make_sink();
    timeline_.begin_run(w.cfg.seed, names_, w.cfg.days, exp::kWindowsPerDay);
    monitor_.begin_run(w.cfg.seed, names_, w.cfg.days, exp::kWindowsPerDay);
  }

  PipelineResult run() {
    const std::size_t n_groups = names_.size();
    res_.cells.assign(n_groups, std::vector<std::vector<exp::WindowMetrics>>(
                                    w_.cfg.days, std::vector<exp::WindowMetrics>(
                                                     exp::kWindowsPerDay)));
    metrics_.assign(keys_.size() * n_groups, sim::SessionMetrics{});
    key_lines_.assign(keys_.size(), KeyLines{});
    spans_.clear();
    const auto t0 = Clock::now();
    {
      obs::SlotBinding main_binding(&registry_, 0);
      executor_.execute_slotted(
          keys_.size(),
          [&](std::size_t task, std::size_t slot) { produce(task, slot); },
          [&](std::size_t task) { fold(task); });
      {
        Span s(spans_, kMonitor);
        monitor_.finalize();
      }
      for (const obs::MonitorCapture& cap : monitor_.take_captures()) {
        capture(exp::SessionKey{w_.cfg.seed, cap.day, cap.window, cap.session},
                cap.group, cap.marker);
      }
      Span s(spans_, kBtrace);
      tracer_->finalize();
    }
    res_.wall_s = seconds_since(t0);
    res_.counters = counters_of(registry_);
    std::copy(std::begin(spans_.ns), std::end(spans_.ns), res_.spans_ns);
    res_.btrace_bytes = tracer_->bytes_written();
    res_.btrace_path = stem_ + ".btrace";
    return std::move(res_);
  }

 private:
  struct KeyLines {
    std::string lines;
    std::uint32_t emitted = 0;
    std::uint32_t anomalies = 0;
  };

  void produce(std::size_t task, std::size_t slot) {
    obs::SlotBinding binding(&registry_, slot);
    have_trace_ = false;
    const exp::SessionKey& key = keys_[task];
    const exp::UserEnvironment env = population_.environment_for(key);
    const exp::SessionSpec spec =
        exp::session_for(library_, w_.cfg.workload, key);
    const media::Video& video = library_.at(spec.video_index);
    sim::PlayerConfig player = w_.cfg.player;
    player.watch_duration_s = spec.watch_duration_s;
    const std::size_t n_groups = names_.size();
    sim::SessionMetrics* out = &metrics_[task * n_groups];
    res_.sessions += n_groups;
    res_.lanes_offered += n_groups;
    const bool traced =
        tracer_->sampled(key.seed, key.day, key.window, key.session);

    // Faulted sessions always take the scalar player (exp/block.cpp).
    const bool faulted = population_.has_faults();
    if (faulted) materialize(env, key);
    {
      // With no fault plan the call returns at once; it is timed all the
      // same, so the fault layer is costed on every workload.
      Span s(spans_, kFaults);
      population_.inject_faults(key, fault_scratch_, trace_);
    }
    if (faulted) {
      player.faults = &fault_scratch_.events;
      for (std::size_t g = 0; g < n_groups; ++g) {
        simulate_scalar(video, player, g, &out[g]);
      }
    } else {
      bool any_ineligible = false;
      std::vector<bool>& eligible = eligible_;
      eligible.assign(n_groups, false);
      for (std::size_t g = 0; g < n_groups; ++g) {
        abr::BatchDecisionProfile profile;
        eligible[g] = abrs_[g]->batch_profile(&profile) &&
                      sim::batch_lane_eligible(profile, player, video, nullptr);
        any_ineligible |= !eligible[g];
      }
      const bool mat = env.has_outages || any_ineligible;
      if (mat) materialize(env, key);
      std::size_t n_lanes = 0;
      for (std::size_t g = 0; g < n_groups; ++g) {
        if (!eligible[g]) continue;
        sim::BatchLane& lane = lanes_[n_lanes++];
        lane = sim::BatchLane{};
        lane.video = &video;
        lane.abr = abrs_[g].get();
        lane.config = player;
        lane.out = &out[g];
        if (mat) {
          lane.trace = &trace_;
        } else {
          lane.stream = &env.trace;
          lane.stream_rng = exp::session_rng(key, exp::StreamClass::kTrace);
          lane.stream_key = 1;
        }
      }
      if (n_lanes > 0) {
        res_.lanes_batched += n_lanes;
        sim::simulate_session_batch(
            std::span<sim::BatchLane>(lanes_.data(), n_lanes), batch_);
      }
      if (n_lanes > 0 && !mat) {
        // The lanes pulled only part of the lazy trace; the full trace's
        // length (not harness work, so not timed) is the base of the ratio.
        res_.stream_segments_used += batch_.streams[0]->num_segments();
        full_stream_.reset(env.trace,
                           exp::session_rng(key, exp::StreamClass::kTrace));
        full_stream_.ensure_done();
        res_.stream_segments_full += full_stream_.num_segments();
      }
      for (std::size_t g = 0; g < n_groups; ++g) {
        if (!eligible[g]) simulate_scalar(video, player, g, &out[g]);
      }
    }

    // Sampled or anomalous sessions are re-simulated with the trace sink
    // teed in and the registry muted, as the harness does.
    const obs::TraceConfig& tc = tracer_->config();
    for (std::size_t g = 0; g < n_groups; ++g) {
      const sim::SessionMetrics& m = out[g];
      const bool need_tee =
          traced || (tc.anomalies_enabled() &&
                     (m.rebuffer_s >= tc.anomaly_rebuffer_s ||
                      (tc.capture_abandoned && m.abandoned)));
      if (!need_tee) continue;
      Span s(spans_, kBtrace);
      if (!have_trace_) {
        population_.trace_for_into(env, key, trace_scratch_, trace_);
        have_trace_ = true;
      }
      KeyLines& kl = key_lines_[task];
      if (tee_session(key, g, video, player, traced, std::string_view(),
                      &kl.lines)) {
        ++kl.emitted;
        if (trace_sink_->anomalous()) ++kl.anomalies;
      }
    }
  }

  void fold(std::size_t task) {
    const exp::SessionKey& key = keys_[task];
    const std::size_t n_groups = names_.size();
    for (std::size_t g = 0; g < n_groups; ++g) {
      const sim::SessionMetrics& m = metrics_[task * n_groups + g];
      {
        Span s(spans_, kFold);
        exp::accumulate_session(res_.cells[g][key.day][key.window], m);
      }
      {
        Span s(spans_, kTimeline);
        timeline_.record(key.day, key.window, g, m);
      }
      {
        Span s(spans_, kMonitor);
        monitor_.record(key.day, key.window, g, key.session, m);
      }
    }
    Span s(spans_, kBtrace);
    KeyLines& kl = key_lines_[task];
    for (std::uint32_t i = 0; i < kl.emitted; ++i) {
      tracer_->note_session(i < kl.anomalies);
    }
    if (!kl.lines.empty()) tracer_->write(kl.lines);
    res_.traced_sessions += kl.emitted;
    kl = KeyLines{};
  }

  // Alert-triggered capture, as SessionBlockRunner::capture_session.
  void capture(const exp::SessionKey& key, std::size_t group,
               const std::string& marker) {
    obs::SlotBinding mute(nullptr, 0);
    const exp::UserEnvironment env = population_.environment_for(key);
    const exp::SessionSpec spec =
        exp::session_for(library_, w_.cfg.workload, key);
    const media::Video& video = library_.at(spec.video_index);
    sim::PlayerConfig player = w_.cfg.player;
    player.watch_duration_s = spec.watch_duration_s;
    population_.trace_for_into(env, key, trace_scratch_, trace_);
    if (population_.has_faults()) {
      population_.inject_faults(key, fault_scratch_, trace_);
      player.faults = &fault_scratch_.events;
    }
    Span s(spans_, kBtrace);
    std::string lines;
    const bool sampled =
        tracer_->sampled(key.seed, key.day, key.window, key.session);
    if (tee_session(key, group, video, player, sampled, marker, &lines)) {
      tracer_->note_session(trace_sink_->anomalous());
      tracer_->write(lines);
      ++res_.traced_sessions;
    }
  }

  bool tee_session(const exp::SessionKey& key, std::size_t g,
                   const media::Video& video, const sim::PlayerConfig& player,
                   bool sampled, std::string_view marker, std::string* out) {
    obs::SlotBinding mute(nullptr, 0);
    trace_sink_->begin(tracer_->config(), key.seed, key.day, key.window,
                       key.session, names_[g], sampled);
    if (!marker.empty()) trace_sink_->set_alert(marker);
    if (player.faults != nullptr) {
      trace_sink_->set_faults(player.faults, trace_.cycle_duration_s(),
                              trace_.loops());
    }
    sim::TeeSink tee(sink_, *trace_sink_);
    sim::simulate_session(video, trace_, *abrs_[g], player, tee);
    return trace_sink_->finish(out);
  }

  void materialize(const exp::UserEnvironment& env,
                   const exp::SessionKey& key) {
    Span s(spans_, kTraceGen);
    population_.trace_for_into(env, key, trace_scratch_, trace_);
    res_.segments_materialized += trace_.segments().size();
    have_trace_ = true;
  }

  void simulate_scalar(const media::Video& video,
                       const sim::PlayerConfig& player, std::size_t g,
                       sim::SessionMetrics* out) {
    Span s(spans_, kScalar);
    sim::simulate_session(video, trace_, *abrs_[g], player, sink_);
    *out = sink_.metrics();
  }

  const Workload& w_;
  SpanTable& spans_;
  const media::VideoLibrary library_;
  exp::Population population_;
  obs::MetricsRegistry registry_;
  obs::HealthMonitor monitor_;
  runtime::SessionExecutor executor_;
  std::string stem_;
  std::vector<exp::SessionKey> keys_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<abr::RateAdaptation>> abrs_;
  std::vector<sim::BatchLane> lanes_;
  std::vector<bool> eligible_;
  sim::BatchScratch batch_;
  net::TraceStream full_stream_;
  net::TraceScratch trace_scratch_;
  net::FaultScratch fault_scratch_;
  net::CapacityTrace trace_ = net::CapacityTrace::constant(1.0);
  bool have_trace_ = false;
  sim::StreamingMetricsSink sink_;
  std::unique_ptr<obs::BinaryTraceCollector> tracer_;
  std::unique_ptr<obs::SessionTraceSink> trace_sink_;
  obs::TimelineAggregator timeline_;
  std::vector<sim::SessionMetrics> metrics_;
  std::vector<KeyLines> key_lines_;
  PipelineResult res_;
};

// ---------------------------------------------------------------------------
// Attribution: per-ABR scalar sessions, split by replay.

// The exact call sequence a session pushed into its sink, replayable into
// any other sink.
class EventLog final : public sim::SessionSink {
 public:
  void on_session_start(double chunk_duration_s) override {
    order_.clear();
    chunks_.clear();
    played_.clear();
    rebuffers_.clear();
    chunk_duration_s_ = chunk_duration_s;
  }
  void on_chunk(const sim::ChunkRecord& chunk, double played_s) override {
    order_.push_back(kChunk);
    chunks_.push_back(chunk);
    played_.push_back(played_s);
  }
  void on_rebuffer(const sim::RebufferEvent& event) override {
    order_.push_back(kRebuffer);
    rebuffers_.push_back(event);
  }
  void on_session_end(const sim::SessionSummary& summary) override {
    summary_ = summary;
  }

  void replay(sim::SessionSink& sink) const {
    sink.on_session_start(chunk_duration_s_);
    std::size_t c = 0, r = 0;
    for (const Kind k : order_) {
      if (k == kChunk) {
        sink.on_chunk(chunks_[c], played_[c]);
        ++c;
      } else {
        sink.on_rebuffer(rebuffers_[r++]);
      }
    }
    sink.on_session_end(summary_);
  }
  std::size_t chunks() const { return chunks_.size(); }

 private:
  enum Kind : unsigned char { kChunk, kRebuffer };
  std::vector<Kind> order_;
  std::vector<sim::ChunkRecord> chunks_;
  std::vector<double> played_;
  std::vector<sim::RebufferEvent> rebuffers_;
  double chunk_duration_s_ = 0.0;
  sim::SessionSummary summary_;
};

// Forwards to an ABR and records every observation and decision.
class DecisionRecorder final : public abr::RateAdaptation {
 public:
  DecisionRecorder(abr::RateAdaptation& inner,
                   std::vector<abr::Observation>* observations,
                   std::vector<std::size_t>* decisions)
      : inner_(inner), observations_(observations), decisions_(decisions) {}
  std::size_t choose_rate(const abr::Observation& obs) override {
    const std::size_t d = inner_.choose_rate(obs);
    observations_->push_back(obs);
    decisions_->push_back(d);
    return d;
  }
  void reset() override { inner_.reset(); }
  std::string name() const override { return inner_.name(); }

 private:
  abr::RateAdaptation& inner_;
  std::vector<abr::Observation>* observations_;
  std::vector<std::size_t>* decisions_;
};

// Pre-built inputs of the attribution key sample: trace (with the
// workload's faults), title and player config per key.
struct SampleSession {
  exp::SessionKey key;
  const media::Video* video = nullptr;
  net::CapacityTrace trace = net::CapacityTrace::constant(1.0);
  net::CapacityTrace clean_trace = net::CapacityTrace::constant(1.0);
  std::vector<net::InjectedFault> faults;
  sim::PlayerConfig player;
  exp::UserEnvironment env;
};

std::vector<SampleSession> build_sample(const Workload& w,
                                        const media::VideoLibrary& library,
                                        std::size_t per_window) {
  const exp::Population population(w.cfg.population);
  net::FaultScratch fault_scratch;
  std::vector<SampleSession> out;
  for (std::size_t win = 0; win < exp::kWindowsPerDay; ++win) {
    for (std::size_t u = 0; u < per_window; ++u) {
      SampleSession s;
      s.key = exp::SessionKey{w.cfg.seed, 0, win, u};
      s.env = population.environment_for(s.key);
      const exp::SessionSpec spec =
          exp::session_for(library, w.cfg.workload, s.key);
      s.video = &library.at(spec.video_index);
      s.trace = population.trace_for(s.env, s.key);
      s.clean_trace = s.trace;
      population.inject_faults(s.key, fault_scratch, s.trace);
      s.faults = fault_scratch.events;
      s.player = w.cfg.player;
      s.player.watch_duration_s = spec.watch_duration_s;
      out.push_back(std::move(s));
    }
  }
  // Faults are pointed at only once the vector no longer moves.
  if (population.has_faults()) {
    for (auto& s : out) s.player.faults = &s.faults;
  }
  return out;
}

// Totals over the key sample for one ABR.
struct AbrCost {
  double session_ns = 0.0;  // scalar simulate_session + sink
  double decide_ns = 0.0;   // choose_rate replay
  double sink_ns = 0.0;     // StreamingMetricsSink replay
  std::uint64_t sessions = 0, decisions = 0, chunks = 0;
};

struct AttributionResult {
  std::map<std::string, AbrCost> per_abr;
  double batch_ns = 0.0;  // sim::simulate_session_batch, BBA-1/2 lanes
  std::uint64_t batch_chunks = 0;
  double stream_ns = 0.0;  // net::TraceStream generated to completion
  std::uint64_t stream_segments = 0;
  std::uint64_t alloc_sessions = 0;
  long long allocs = 0;
  bool decisions_equal = true;
  bool sink_equal = true;
};

AttributionResult attribute(const std::vector<SampleSession>& sample) {
  AttributionResult res;
  sim::StreamingMetricsSink sink, replay_sink;
  std::vector<std::vector<abr::Observation>> observations(sample.size());
  std::vector<std::vector<std::size_t>> decisions(sample.size());
  std::vector<EventLog> logs(sample.size());
  std::vector<sim::SessionMetrics> metrics(sample.size());
  sim::BatchScratch batch;
  net::TraceStream stream;
  const auto t_stream = Clock::now();
  for (const SampleSession& s : sample) {
    stream.reset(s.env.trace, exp::session_rng(s.key, exp::StreamClass::kTrace));
    stream.ensure_done();
    res.stream_segments += stream.num_segments();
  }
  res.stream_ns = 1e9 * seconds_since(t_stream);
  for (const std::string& name : kAllAbrs) {
    const std::unique_ptr<abr::RateAdaptation> abr = factory_for(name)();
    AbrCost cost;
    cost.sessions = sample.size();
    auto simulate_all = [&] {
      for (std::size_t i = 0; i < sample.size(); ++i) {
        const SampleSession& s = sample[i];
        sim::simulate_session(*s.video, s.trace, *abr, s.player, sink);
        metrics[i] = sink.metrics();
      }
    };
    simulate_all();  // warm-up: memo tables and sink buffers grow here
    const auto t0 = Clock::now();
    simulate_all();
    cost.session_ns = 1e9 * seconds_since(t0);

    // Steady state: a second pass allocates nothing.
    g_allocs.store(0);
    g_counting.store(true);
    simulate_all();
    g_counting.store(false);
    res.allocs += g_allocs.load();
    res.alloc_sessions += sample.size();

    for (std::size_t i = 0; i < sample.size(); ++i) {
      const SampleSession& s = sample[i];
      observations[i].clear();
      decisions[i].clear();
      DecisionRecorder recorder(*abr, &observations[i], &decisions[i]);
      sim::simulate_session(*s.video, s.trace, recorder, s.player, logs[i]);
      cost.decisions += decisions[i].size();
      cost.chunks += logs[i].chunks();
    }
    std::size_t mismatches = 0;
    const auto t1 = Clock::now();
    for (std::size_t i = 0; i < sample.size(); ++i) {
      abr->reset();
      const auto& obs_i = observations[i];
      const auto& dec_i = decisions[i];
      for (std::size_t j = 0; j < obs_i.size(); ++j) {
        mismatches += abr->choose_rate(obs_i[j]) != dec_i[j];
      }
    }
    cost.decide_ns = 1e9 * seconds_since(t1);
    res.decisions_equal &= mismatches == 0;

    bool sink_same = true;
    const auto t2 = Clock::now();
    for (std::size_t i = 0; i < sample.size(); ++i) {
      logs[i].replay(replay_sink);
      sink_same &= same_metrics(replay_sink.metrics(), metrics[i]);
    }
    cost.sink_ns = 1e9 * seconds_since(t2);
    res.sink_equal &= sink_same;

    // The batched kernel, for the ABRs it accepts, on the sample's traces
    // without faults (faulted lanes never reach it): a timed pass with the
    // chunks counted, then a pass that must not allocate.
    abr::BatchDecisionProfile profile;
    if (abr->batch_profile(&profile)) {
      std::vector<sim::BatchLane> lanes;
      for (std::size_t i = 0; i < sample.size(); ++i) {
        const SampleSession& s = sample[i];
        sim::BatchLane lane;
        lane.video = s.video;
        lane.abr = abr.get();
        lane.config = s.player;
        lane.config.faults = nullptr;
        lane.trace = &s.clean_trace;
        lane.out = &metrics[i];
        if (sim::batch_lane_eligible(profile, lane.config, *s.video,
                                     lane.trace)) {
          lanes.push_back(lane);
        }
      }
      auto batch_all = [&] {
        for (auto& lane : lanes) {
          sim::simulate_session_batch(std::span<sim::BatchLane>(&lane, 1),
                                      batch);
        }
      };
      batch_all();  // warm-up: decision tables and the pending ring grow
      obs::MetricsRegistry chunks(1);
      {
        obs::SlotBinding bind(&chunks, 0);
        const auto t3 = Clock::now();
        batch_all();
        res.batch_ns += 1e9 * seconds_since(t3);
      }
      res.batch_chunks +=
          chunks.snapshot().counter(obs::Counter::kChunksDownloaded);
      g_allocs.store(0);
      g_counting.store(true);
      batch_all();
      g_counting.store(false);
      res.allocs += g_allocs.load();
      res.alloc_sessions += lanes.size();
    }
    res.per_abr[name] = cost;
  }
  return res;
}

// ---------------------------------------------------------------------------
Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--groups") {
      a.groups = split_csv(v);
    } else if (k == "--faults") {
      a.faults = v;
    } else if (k == "--obs") {
      a.obs = v == "1";
    } else if (k == "--checkpoint") {
      a.checkpoint = v == "1";
    } else if (k == "--sequential") {
      a.sequential = v == "1";
    } else if (k == "--sessions") {
      a.sessions = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--days") {
      a.days = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seq-sessions") {
      a.seq_sessions = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seq-days") {
      a.seq_days = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--tmp") {
      a.tmp = v;
    } else {
      std::fprintf(stderr, "perf_layers: unknown argument %s\n", k.c_str());
      std::exit(2);
    }
  }
  if (a.groups.empty() || a.sessions == 0 || a.days == 0) {
    std::fprintf(stderr,
                 "usage: perf_layers --groups g1,g2 --sessions N --days N "
                 "[--faults SPEC] [--obs 0|1] [--checkpoint 0|1] "
                 "[--sequential 0|1] [--seed S] "
                 "[--seconds T] [--tmp DIR]\n");
    std::exit(2);
  }
  return a;
}

// Collects "name": {"value", "unit", "samples"} entries.
class MetricsJson {
 public:
  void add(const std::string& name, double value, const char* unit,
           std::size_t samples) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                  "\"samples\": %zu}",
                  text_.empty() ? "" : ", ", name.c_str(),
                  std::isfinite(value) ? value : 0.0, unit, samples);
    text_ += buf;
  }
  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The calibration probe: a fixed loop shaped like the simulator's inner
// loops -- a pseudo-random walk over a 128 KB table driving data-dependent
// branches on a floating-point level, with scattered writes into a 4 MB
// array. Its ns per iteration says how fast this host runs such code at the
// moment. Every run records it beside its fingerprint, so per-unit layer
// costs taken on different hosts, or at different moments of a noisy one,
// can be put side by side.
int calibrate() {
  std::vector<double> table(1u << 14);
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = 1.0 + std::sin(static_cast<double>(i));
  }
  std::vector<std::uint32_t> scatter(1u << 20);
  std::vector<double> ns;
  std::uint64_t x = 88172645463325252ull;
  double level = 10.0, acc = 0.0;
  const int iters = 400000;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const double r = table[(x >> 20) & (table.size() - 1)];
      if (level > 3.0 * r) {
        level -= 0.5 * r;
      } else if (level < 2.0) {
        level += 1.5 * r;
      } else {
        level += r - 1.2;
      }
      scatter[(x >> 40) & (scatter.size() - 1)] +=
          static_cast<std::uint32_t>(level * 100.0);
      acc += level;
    }
    ns.push_back(1e9 * seconds_since(t0) / iters);
  }
  std::printf("{\"calibration_ns_per_iter\": %.6f, \"checksum\": %.6g}\n",
              median(ns), acc + scatter[7]);
  return 0;
}

// --- One-off probes --------------------------------------------------------

using Checks = std::map<std::string, bool>;

// Reads the btrace file back whole: open via the footer index and decode
// every session block.
void probe_btrace_read(const PipelineResult& last, Checks& checks,
                       MetricsJson& m) {
  std::vector<double> read_ns;
  bool ok = true;
  for (std::size_t rep = 0; rep < 5; ++rep) {
    obs::BtraceReader reader;
    std::string error;
    const auto t0 = Clock::now();
    ok &= reader.open(last.btrace_path, &error);
    obs::BtraceReader::SessionCounts counts;
    for (std::size_t i = 0; ok && i < reader.session_count(); ++i) {
      ok &= reader.read_session(i, nullptr, &counts, &error);
    }
    read_ns.push_back(per(1e9 * seconds_since(t0),
                          static_cast<double>(reader.session_count())));
    ok &= reader.session_count() == last.traced_sessions;
  }
  checks["btrace_read_back"] = ok;
  m.add("obs.btrace.read_ns_per_session", median(read_ns), "ns",
        read_ns.size());
}

// The sequential engine at the end-to-end size, checkpointing every round
// into <stem>.ckpt as the CLI does.
void probe_sequential(const Workload& w, const std::string& stem,
                      Checks& checks, MetricsJson& m) {
  seq::SeqMetric metric;
  seq::seq_metric_by_name("rebuffers", &metric);
  exp::CheckpointOptions ckpt;
  ckpt.out = stem + ".ckpt";
  exp::AbTestConfig cfg = w.cfg;
  cfg.threads = 1;
  if (w.args.seq_sessions != 0) cfg.sessions_per_window = w.args.seq_sessions;
  if (w.args.seq_days != 0) cfg.days = w.args.seq_days;
  seq::SeqResult sr;
  std::string error;
  const media::VideoLibrary library = media::VideoLibrary::standard(11);
  checks["sequential_run"] = seq::run_sequential_checkpointed(
      w.groups, library, cfg, metric, seq::SeqConfig{}, ckpt, &sr, &error);
  std::size_t eliminated = 0;
  for (const auto& arm : sr.arms) eliminated += arm.eliminated_round > 0;
  m.add("seq.rounds", static_cast<double>(sr.rounds), "count", 1);
  m.add("seq.arms_eliminated", static_cast<double>(eliminated), "count", 1);
}

// Save and load of the workload's own checkpoint (<stem>.ckpt), and a merge
// of two shard partials of the same groups and days.
void probe_checkpoint(const Workload& w, const std::string& stem,
                      Checks& checks, MetricsJson& m) {
  std::vector<double> load_us, save_us, merge_us;
  exp::Checkpoint ck;
  std::string error;
  bool ok = true;
  for (std::size_t rep = 0; rep < 9; ++rep) {
    auto t0 = Clock::now();
    ok &= exp::load_checkpoint(stem + ".ckpt", &ck, &error);
    load_us.push_back(1e6 * seconds_since(t0));
    t0 = Clock::now();
    ok &= exp::save_checkpoint(ck, stem + ".resave.ckpt", &error);
    save_us.push_back(1e6 * seconds_since(t0));
  }
  Workload shard_w = w;
  shard_w.cfg.sessions_per_window = 2;
  std::vector<exp::Checkpoint> parts(2);
  for (std::size_t k = 0; k < parts.size(); ++k) {
    const std::string shard_stem = stem + ".shard" + std::to_string(k + 1);
    exp::CheckpointOptions shard;
    shard.out = shard_stem + ".ckpt";
    shard.shard_index = k + 1;
    shard.shard_count = parts.size();
    run_harness(shard_w, 1, shard, shard_stem);
    ok &= exp::load_checkpoint(shard.out, &parts[k], &error);
  }
  for (std::size_t rep = 0; ok && rep < 9; ++rep) {
    exp::Checkpoint merged;
    const auto t0 = Clock::now();
    ok &= exp::merge_checkpoints(parts, &merged, &error);
    merge_us.push_back(1e6 * seconds_since(t0));
  }
  checks["checkpoint_io"] = ok;
  m.add("exp.checkpoint.save_us", median(save_us), "us", save_us.size());
  m.add("exp.checkpoint.load_us", median(load_us), "us", load_us.size());
  m.add("exp.checkpoint.merge_us", median(merge_us), "us", merge_us.size());
  m.add("exp.checkpoint.bytes",
        static_cast<double>(std::filesystem::file_size(stem + ".ckpt")),
        "bytes", 1);
}

// The statistics bba_paper_report renders, over the reference result.
void probe_report(const exp::AbTestResult& r, Checks& checks,
                  MetricsJson& m) {
  const auto rebuf = exp::rebuffers_per_hour_metric();
  const auto switches = exp::switches_per_hour_metric();
  const auto rate = exp::avg_rate_kbps_metric();
  const auto steady = exp::steady_rate_kbps_metric();
  const auto startup = exp::startup_rate_kbps_metric();
  std::vector<double> ms;
  double sum = 0.0;
  for (std::size_t rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t g = 1; g < r.group_names.size(); ++g) {
      const std::string& name = r.group_names[g];
      for (const auto* metric : {&rebuf, &switches}) {
        sum += exp::mean_normalized(r, *metric, name, "control", false);
        sum += exp::mean_normalized(r, *metric, name, "control", true);
        sum += exp::normalized_ci(r, *metric, name, "control").lo;
      }
      for (const auto* metric : {&rate, &steady, &startup}) {
        sum += exp::mean_delta(r, *metric, name, "control", false);
      }
    }
    ms.push_back(1e3 * seconds_since(t0));
  }
  checks["report_finite"] = std::isfinite(sum);
  m.add("exp.report.ms", median(ms), "ms", ms.size());
}

// Dispatch + barrier of an empty 120-task map (one sequential-engine round
// of keys) at every hardware thread.
double map_us_per_call(std::size_t threads, std::size_t calls) {
  runtime::SessionExecutor executor(threads);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) {
    executor.execute(120, [](std::size_t) {}, [](std::size_t) {});
  }
  return 1e6 * seconds_since(t0) / static_cast<double>(calls);
}

Workload make_workload(const Args& args) {
  Workload w;
  w.args = args;
  for (const auto& name : args.groups) {
    exp::AbrFactory f = factory_for(name);
    if (!f) {
      std::fprintf(stderr, "perf_layers: unknown group %s\n", name.c_str());
      std::exit(2);
    }
    w.groups.push_back({name, std::move(f)});
  }
  w.cfg.sessions_per_window = args.sessions;
  w.cfg.days = args.days;
  w.cfg.seed = args.seed;
  std::string error;
  if (!net::parse_fault_plan(args.faults, &w.cfg.population.faults, &error)) {
    std::fprintf(stderr, "perf_layers: --faults: %s\n", error.c_str());
    std::exit(2);
  }
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--calibrate") == 0) return calibrate();
  const Args args = parse_args(argc, argv);
  const auto run_start = Clock::now();
  const Workload w = make_workload(args);
  const std::string stem = args.tmp + "/layers";
  const std::size_t hw = runtime::ThreadPool::hardware_threads();
  Checks checks;

  // 1. Reference runs of the real harness, untraced.
  // Every workload's reference run leaves the checkpoint the checkpoint
  // probe reads (the sequential probe rewrites it for seq_league); only a
  // periodically checkpointing workload saves mid-run.
  exp::CheckpointOptions ckpt;
  ckpt.out = stem + ".ckpt";
  if (args.checkpoint && !args.sequential) ckpt.every = w.checkpoint_every();
  const HarnessRun ref = run_harness(w, 1, ckpt, stem + ".ref1");
  const HarnessRun ref_mt = run_harness(w, hw, {}, stem + ".refmt");
  checks["reference_threads_identical"] =
      same_cells(ref.result.cells, ref_mt.result.cells);

  // 2 + 3. Pipeline passes (spans off, then on) and attribution passes,
  // repeated until the time is up; every timing is a median over passes.
  const media::VideoLibrary library = media::VideoLibrary::standard(11);
  const std::vector<SampleSession> sample = build_sample(w, library, 10);
  std::map<std::string, std::vector<double>> series;
  auto push = [&](const std::string& name, double v) {
    series[name].push_back(v);
  };
  bool counters_equal = true, cells_equal = true, lanes_equal = true;
  bool decisions_equal = true, sink_equal = true;
  long long allocs = 0;
  std::uint64_t alloc_sessions = 0;
  PipelineResult last;
  AttributionResult attr;
  SpanTable spans;
  std::size_t iterations = 0;
  for (; iterations < 3 || seconds_since(run_start) < args.seconds;
       ++iterations) {
    PipelineResult off, on;
    {
      spans.on = false;
      Pipeline p(w, spans, stem + ".pipe");
      off = p.run();
    }
    {
      spans.on = true;
      Pipeline p(w, spans, stem + ".pipe");
      on = p.run();
    }
    for (const PipelineResult* r : {&off, &on}) {
      counters_equal &= r->counters == ref.counters;
      cells_equal &= same_cells(r->cells, ref.result.cells);
    }
    lanes_equal &= off.lanes_batched == on.lanes_batched &&
                   off.lanes_offered == on.lanes_offered;
    push("trace_overhead_frac", on.wall_s / off.wall_s - 1.0);

    const double* ns = on.spans_ns;
    const double sessions = static_cast<double>(on.sessions);
    push("net.trace_gen.ns_per_segment",
         per(ns[kTraceGen], static_cast<double>(on.segments_materialized)));
    push("net.faults.ns_per_session", per(ns[kFaults], sessions));
    push("exp.fold.ns_per_session", per(ns[kFold], sessions));
    push("obs.btrace.ns_per_session", per(ns[kBtrace], sessions));
    push("obs.timeline.ns_per_session", per(ns[kTimeline], sessions));
    push("obs.monitor.ns_per_session", per(ns[kMonitor], sessions));

    attr = attribute(sample);
    decisions_equal &= attr.decisions_equal;
    sink_equal &= attr.sink_equal;
    allocs += attr.allocs;
    alloc_sessions += attr.alloc_sessions;
    double player_ns = 0.0, sink_ns = 0.0, chunks = 0.0;
    for (const auto& [name, c] : attr.per_abr) {
      const double n = static_cast<double>(c.sessions);
      push("sim." + name + ".session_us", per(c.session_ns, 1e3 * n));
      push("abr." + name + ".decide_ns",
           per(c.decide_ns, static_cast<double>(c.decisions)));
      push("sink." + name + ".ns_per_chunk",
           per(c.sink_ns, static_cast<double>(c.chunks)));
      player_ns += c.session_ns - c.decide_ns - c.sink_ns;
      sink_ns += c.sink_ns;
      chunks += static_cast<double>(c.chunks);
    }
    push("sim.ns_per_chunk", per(player_ns, chunks));
    push("sim.sink.ns_per_chunk", per(sink_ns, chunks));
    push("net.trace_stream.ns_per_segment",
         per(attr.stream_ns, static_cast<double>(attr.stream_segments)));
    push("sim.batch.ns_per_chunk",
         per(attr.batch_ns, static_cast<double>(attr.batch_chunks)));
    last = std::move(on);
  }
  checks["pipeline_counters_equal_reference"] = counters_equal;
  checks["pipeline_cells_equal_reference"] = cells_equal;
  checks["traced_lanes_equal_untraced"] = lanes_equal;
  checks["decision_replay_equal"] = decisions_equal;
  checks["sink_replay_equal"] = sink_equal;
  checks["steady_state_allocs_zero"] = allocs == 0;

  // 4. The metrics, with the one-off probes in between. Every layer is
  // costed on every workload; only the sequential engine's counts are 0
  // (with 0 samples) where the workload does not run it.
  MetricsJson m;
  auto emit = [&](const std::string& name, const char* unit) {
    const auto it = series.find(name);
    if (it == series.end()) {
      m.add(name, 0.0, unit, 0);
    } else {
      m.add(name, median(it->second), unit, it->second.size());
    }
  };
  auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return per(static_cast<double>(num), static_cast<double>(den));
  };
  emit("sim.batch.ns_per_chunk", "ns");
  m.add("sim.batch.lane_frac", ratio(last.lanes_batched, last.lanes_offered),
        "ratio", 1);
  for (const auto& name : kAllAbrs) emit("sim." + name + ".session_us", "us");
  emit("sim.ns_per_chunk", "ns");
  emit("sim.sink.ns_per_chunk", "ns");
  for (const auto& name : kAllAbrs) emit("abr." + name + ".decide_ns", "ns");
  emit("net.trace_gen.ns_per_segment", "ns");
  emit("net.faults.ns_per_session", "ns");
  m.add("net.cursor.rewind_ratio",
        ratio(counter(last.counters, obs::Counter::kCursorRewinds),
              counter(last.counters, obs::Counter::kCursorQueries)),
        "ratio", 1);
  emit("net.trace_stream.ns_per_segment", "ns");
  m.add("net.trace_stream.segments_used_frac",
        ratio(last.stream_segments_used, last.stream_segments_full), "ratio",
        1);
  emit("obs.btrace.ns_per_session", "ns");
  m.add("obs.btrace.bytes_per_session",
        ratio(last.btrace_bytes, last.sessions), "bytes", 1);
  probe_btrace_read(last, checks, m);
  emit("obs.timeline.ns_per_session", "ns");
  emit("obs.monitor.ns_per_session", "ns");
  // The sequential probe writes the checkpoint probe_checkpoint reads.
  if (args.sequential) {
    probe_sequential(w, stem, checks, m);
  } else {
    m.add("seq.rounds", 0.0, "count", 0);
    m.add("seq.arms_eliminated", 0.0, "count", 0);
  }
  probe_checkpoint(w, stem, checks, m);
  emit("exp.fold.ns_per_session", "ns");
  probe_report(ref.result, checks, m);
  // Worker CPU over thread-seconds of the all-threads reference run.
  m.add("runtime.busy_frac",
        per(ref_mt.cpu_s, static_cast<double>(hw) * ref_mt.wall_s), "ratio",
        1);
  m.add("runtime.map_us_per_call", map_us_per_call(hw, 2000), "us", 2000);
  m.add("sim.allocs_per_session",
        ratio(static_cast<std::uint64_t>(allocs), alloc_sessions), "count",
        alloc_sessions);
  emit("trace_overhead_frac", "ratio");

  // Per-ABR split of a scalar session: decisions, sink fold, and the
  // player with its trace cursor (the rest), as shares of session time.
  std::string attribution;
  for (const auto& name : kAllAbrs) {
    const AbrCost& c = attr.per_abr[name];
    const double n = static_cast<double>(c.sessions);
    const double session_ns = 1e3 * median(series["sim." + name + ".session_us"]);
    const double decide_ns = median(series["abr." + name + ".decide_ns"]) *
                             static_cast<double>(c.decisions) / n;
    const double sink_ns = median(series["sink." + name + ".ns_per_chunk"]) *
                           static_cast<double>(c.chunks) / n;
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"session_us\": %.3f, \"decisions_per_session\": "
                  "%.1f, \"decide_share\": %.3f, \"sink_share\": %.3f, "
                  "\"player_share\": %.3f}",
                  attribution.empty() ? "" : ", ", name.c_str(),
                  session_ns / 1e3, static_cast<double>(c.decisions) / n,
                  decide_ns / session_ns, sink_ns / session_ns,
                  1.0 - (decide_ns + sink_ns) / session_ns);
    attribution += buf;
  }

  const Counters& c = last.counters;
  std::printf(
      "{\"metrics\": {%s}, \"counters\": {\"sessions\": %" PRIu64
      ", \"chunks_downloaded\": %" PRIu64 ", \"rebuffers\": %" PRIu64
      ", \"rate_switches\": %" PRIu64 ", \"cursor_queries\": %" PRIu64
      ", \"segments_generated\": %" PRIu64 ", \"lanes_offered\": %" PRIu64
      ", \"lanes_batched\": %" PRIu64 "}, \"attribution\": {%s}, "
      "\"checks\": {",
      m.text().c_str(), counter(c, obs::Counter::kSessions),
      counter(c, obs::Counter::kChunksDownloaded),
      counter(c, obs::Counter::kRebuffers),
      counter(c, obs::Counter::kRateSwitches),
      counter(c, obs::Counter::kCursorQueries),
      last.segments_materialized + last.stream_segments_used,
      last.lanes_offered, last.lanes_batched, attribution.c_str());
  bool first = true;
  for (const auto& [name, ok] : checks) {
    std::printf("%s\"%s\": %s", first ? "" : ", ", name.c_str(),
                ok ? "true" : "false");
    first = false;
  }
  std::printf("}, \"iterations\": %zu, \"seconds\": %.3f}\n", iterations,
              seconds_since(run_start));
  return 0;
}
