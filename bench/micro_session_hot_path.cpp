// micro_session_hot_path: sessions/sec and heap allocations/session of the
// A/B harness hot path, recorded sink vs streaming sink, at 1 and N
// threads. Emits BENCH_session_hot_path.json (cwd; --out overrides).
//
//   micro_session_hot_path [--sessions N] [--passes N] [--out PATH]
//
// The recorded path reproduces the pre-optimisation main loop: a fresh
// CapacityTrace by value, a factory-fresh ABR with the historical
// per-decision reservoir scan (cache_window_sums off), a SessionResult
// recording every chunk, then compute_metrics. The streaming path is what
// run_ab_test now does: per-thread scratch (TraceScratch +
// CapacityTrace::assign + reused ABR with memoized window sums) feeding a
// StreamingMetricsSink. Both produce bit-identical SessionMetrics, which
// this binary also checks.
// Allocations are counted by interposing global operator new in this
// binary; the strict single-thread pass checks the MAXIMUM allocations of
// any one steady-state session, which must be exactly zero. Observability
// is compiled into the instrumented libraries (obs::count in the player /
// cursor / reservoir paths), so the streaming rows double as proof that the
// disabled instruments cost nothing measurable and allocate nothing. A
// third mode, streaming_obs, runs with metrics bound and 1-in-64 session
// tracing live (serialization on, output discarded) and reports the
// overhead fraction against plain streaming -- the ISSUE budget is <5%.
// Two full-population rows (jsonl_full_trace / btrace_full_trace) serialize
// EVERY session (--trace-sample 1) through each sink format and record
// bytes/session; the btrace encoder must stay >=5x smaller than JSONL (a
// hard exit -- bytes are deterministic, unlike timings). A
// streaming_timeline row folds every session into a TimelineAggregator and
// enforces the fleet-telemetry budget as hard exits: zero steady-state
// allocations and <=5% overhead over plain streaming. A streaming_monitor
// row does the same for the fleet health monitor (cell fold + top-K
// offender tracking; docs/monitoring.md) under a quiet spec, with the
// same two hard exits (monitor_overhead_frac). The single-thread modes'
// timed passes run interleaved, one window of sessions at a time, so the
// ratios the gates check compare modes timed under the same host load.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "core/bba2.hpp"
#include "exp/abtest.hpp"
#include "exp/population.hpp"
#include "exp/session_key.hpp"
#include "exp/workload.hpp"
#include "media/video.hpp"
#include "net/trace_gen.hpp"
#include "obs/btrace.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/obs.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "runtime/session_executor.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/batch_player.hpp"
#include "sim/metrics.hpp"
#include "sim/player.hpp"
#include "sim/session_sink.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: every operator new in this binary bumps the counter
// while counting is enabled. delete is left uncounted (frees are the
// mirror of the allocations we already count).
namespace {
std::atomic<long long> g_allocs{0};
std::atomic<bool> g_counting{false};

inline void count_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(std::size_t size) {
  count_alloc();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  count_alloc();
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               (size + static_cast<std::size_t>(align) - 1) &
                                   ~(static_cast<std::size_t>(align) - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

// ---------------------------------------------------------------------------
namespace {

using namespace bba;

struct BenchSetup {
  exp::Population population;
  const media::VideoLibrary* library = nullptr;
  exp::WorkloadConfig workload;
  sim::PlayerConfig player;
  std::uint64_t seed = 2014;
  std::size_t sessions = 0;  // one day x 12 windows x sessions_per_window
  std::size_t sessions_per_window = 0;
};

exp::SessionKey key_of(const BenchSetup& setup, std::size_t task) {
  const std::size_t window = task / setup.sessions_per_window;
  const std::size_t user = task % setup.sessions_per_window;
  return exp::SessionKey{setup.seed, 0, window % exp::kWindowsPerDay, user};
}

// The pre-optimisation hot path: everything constructed fresh per session
// and the reservoir window rescanned on every decision, as the harness did
// before per-thread scratch and the window-sum memo existed.
void run_recorded(const BenchSetup& setup, std::size_t task,
                  sim::SessionMetrics* out) {
  const exp::SessionKey key = key_of(setup, task);
  const exp::UserEnvironment env = setup.population.environment_for(key);
  const net::CapacityTrace trace = setup.population.trace_for(env, key);
  const exp::SessionSpec spec =
      exp::session_for(*setup.library, setup.workload, key);
  sim::PlayerConfig player = setup.player;
  player.watch_duration_s = spec.watch_duration_s;
  player.use_trace_cursor = false;  // per-query binary search, as before
  core::Bba2Config legacy;
  legacy.base.reservoir.cache_window_sums = false;
  const auto abr = std::make_unique<core::Bba2>(legacy);
  const sim::SessionResult res = sim::simulate_session(
      setup.library->at(spec.video_index), trace, *abr, player);
  *out = sim::compute_metrics(res);
}

// The post-PR hot path: per-thread scratch, zero steady-state allocation.
struct Scratch {
  net::TraceScratch trace_scratch;
  net::CapacityTrace trace = net::CapacityTrace::constant(1.0);
  sim::StreamingMetricsSink sink;
  core::Bba2 abr;
};

void run_streaming(const BenchSetup& setup, std::size_t task, Scratch& s,
                   sim::SessionMetrics* out) {
  const exp::SessionKey key = key_of(setup, task);
  const exp::UserEnvironment env = setup.population.environment_for(key);
  setup.population.trace_for_into(env, key, s.trace_scratch, s.trace);
  const exp::SessionSpec spec =
      exp::session_for(*setup.library, setup.workload, key);
  sim::PlayerConfig player = setup.player;
  player.watch_duration_s = spec.watch_duration_s;
  sim::simulate_session(setup.library->at(spec.video_index), s.trace, s.abr,
                        player, s.sink);
  *out = s.sink.metrics();
}

// The streaming path with observability live: metrics slot bound by the
// caller, every session teed through a SessionTraceSink, sampled sessions
// serialized to JSONL and handed to a path-less collector (discarded, but
// the serialization cost is real).
void run_streaming_obs(const BenchSetup& setup, std::size_t task, Scratch& s,
                       obs::TraceCollector& collector,
                       obs::SessionTraceSink& trace_sink, std::string& lines,
                       sim::SessionMetrics* out) {
  const exp::SessionKey key = key_of(setup, task);
  const exp::UserEnvironment env = setup.population.environment_for(key);
  setup.population.trace_for_into(env, key, s.trace_scratch, s.trace);
  const exp::SessionSpec spec =
      exp::session_for(*setup.library, setup.workload, key);
  sim::PlayerConfig player = setup.player;
  player.watch_duration_s = spec.watch_duration_s;
  const media::Video& video = setup.library->at(spec.video_index);
  // Mirror run_ab_test's run-then-replay shape: the common case runs with
  // the plain sink and only sampled (or post-hoc anomalous) sessions are
  // re-simulated with the tee attached.
  const bool sampled =
      collector.sampled(key.seed, key.day, key.window, key.session);
  bool need_tee = sampled;
  if (!need_tee) {
    sim::simulate_session(video, s.trace, s.abr, player, s.sink);
    const sim::SessionMetrics& m = s.sink.metrics();
    const obs::TraceConfig& tc = collector.config();
    need_tee = tc.anomalies_enabled() &&
               (m.rebuffer_s >= tc.anomaly_rebuffer_s ||
                (tc.capture_abandoned && m.abandoned));
  }
  if (need_tee) {
    trace_sink.begin(collector.config(), key.seed, key.day, key.window,
                     key.session, "bba2", sampled);
    sim::TeeSink tee(s.sink, trace_sink);
    sim::simulate_session(video, s.trace, s.abr, player, tee);
    if (trace_sink.finish(&lines)) {
      collector.note_session(trace_sink.anomalous());
      collector.write(lines);
      lines.clear();  // capacity kept: zero steady-state allocation here too
    }
  }
  *out = s.sink.metrics();
}

// The batched SoA kernel (this PR's hot path): lane-batches of sessions
// through sim::simulate_session_batch. Outage-free sessions stream their
// Markov trace lazily (no materialization at all); outage sessions bind the
// materialized trace. Bit-identical to run_streaming for every session.
constexpr std::size_t kLaneBatch = 8;

struct BatchedScratch {
  sim::BatchScratch batch;
  std::vector<sim::BatchLane> lanes;
  std::vector<net::CapacityTrace> traces;
  std::vector<exp::UserEnvironment> envs;
  net::TraceScratch trace_scratch;
  core::Bba2 abr;

  BatchedScratch()
      : lanes(kLaneBatch),
        traces(kLaneBatch, net::CapacityTrace::constant(1.0)),
        envs(kLaneBatch) {}
};

void run_streaming_batched(const BenchSetup& setup, std::size_t first,
                           std::size_t count, BatchedScratch& s,
                           sim::SessionMetrics* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t task = first + i;
    const exp::SessionKey key = key_of(setup, task);
    s.envs[i] = setup.population.environment_for(key);
    const exp::SessionSpec spec =
        exp::session_for(*setup.library, setup.workload, key);
    sim::BatchLane& lane = s.lanes[i];
    lane = sim::BatchLane{};
    lane.video = &setup.library->at(spec.video_index);
    lane.abr = &s.abr;
    lane.config = setup.player;
    lane.config.watch_duration_s = spec.watch_duration_s;
    if (s.envs[i].has_outages) {
      setup.population.trace_for_into(s.envs[i], key, s.trace_scratch,
                                      s.traces[i]);
      lane.trace = &s.traces[i];
    } else {
      lane.stream = &s.envs[i].trace;
      lane.stream_rng = exp::session_rng(key, exp::StreamClass::kTrace);
    }
    lane.out = &out[task];
  }
  sim::simulate_session_batch(
      std::span<sim::BatchLane>(s.lanes.data(), count), s.batch);
}

bool metrics_identical(const sim::SessionMetrics& a,
                       const sim::SessionMetrics& b) {
  auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  return same(a.play_s, b.play_s) && same(a.join_s, b.join_s) &&
         a.rebuffer_count == b.rebuffer_count &&
         same(a.rebuffer_s, b.rebuffer_s) &&
         same(a.rebuffers_per_hour, b.rebuffers_per_hour) &&
         same(a.avg_rate_bps, b.avg_rate_bps) &&
         same(a.startup_rate_bps, b.startup_rate_bps) &&
         same(a.steady_rate_bps, b.steady_rate_bps) &&
         a.has_steady == b.has_steady &&
         same(a.steady_play_s, b.steady_play_s) &&
         a.switch_count == b.switch_count &&
         same(a.switches_per_hour, b.switches_per_hour) &&
         same(a.avg_buffer_s, b.avg_buffer_s) &&
         a.abandoned == b.abandoned;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Row {
  const char* mode;
  std::size_t threads;
  double seconds;
  double sessions_per_sec;
  double allocs_per_session;
};

}  // namespace

int main(int argc, char** argv) {
  BenchSetup setup;
  setup.sessions_per_window = 40;
  std::size_t passes = 3;
  std::string out_path = "BENCH_session_hot_path.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string(argv[i]) == "--sessions") {
      setup.sessions_per_window =
          static_cast<std::size_t>(std::atoi(argv[i + 1]));
    } else if (std::string(argv[i]) == "--passes") {
      passes = static_cast<std::size_t>(std::atoi(argv[i + 1]));
    } else if (std::string(argv[i]) == "--out") {
      out_path = argv[i + 1];
    }
  }
  const media::VideoLibrary library = media::VideoLibrary::standard(11);
  setup.library = &library;
  setup.sessions = exp::kWindowsPerDay * setup.sessions_per_window;
  const std::size_t hw = runtime::ThreadPool::hardware_threads();

  std::vector<sim::SessionMetrics> recorded(setup.sessions);
  std::vector<sim::SessionMetrics> streamed(setup.sessions);
  std::vector<Row> rows;

  // --- Strict single-thread passes: direct loops, per-session counters. --
  // Warmup pass grows every reusable buffer to the workload.
  Scratch scratch;
  for (std::size_t i = 0; i < setup.sessions; ++i) {
    run_streaming(setup, i, scratch, &streamed[i]);
    run_recorded(setup, i, &recorded[i]);
  }
  bool identical = true;
  for (std::size_t i = 0; i < setup.sessions; ++i) {
    identical = identical && metrics_identical(recorded[i], streamed[i]);
  }

  long long max_session_allocs = 0;
  {
    g_counting.store(true);
    for (std::size_t i = 0; i < setup.sessions; ++i) {
      const long long before = g_allocs.load();
      run_streaming(setup, i, scratch, &streamed[i]);
      max_session_allocs =
          std::max(max_session_allocs, g_allocs.load() - before);
    }
    g_counting.store(false);
  }

  // The timed single-thread modes. Each mode registers its session loop
  // here, after its own warmup and allocation checks; the timed passes run
  // interleaved further below.
  struct TimedMode {
    const char* mode;
    std::function<void(std::size_t, std::size_t)> run;  // sessions [lo, hi)
    double seconds = 0.0;
    long long allocs = 0;
  };
  std::vector<TimedMode> timed;
  auto time_direct = [&](const char* mode, auto body) {
    timed.push_back({mode, [body](std::size_t lo, std::size_t hi) mutable {
                       for (std::size_t i = lo; i < hi; ++i) body(i);
                     }});
  };
  time_direct("recorded", [&](std::size_t i) {
    run_recorded(setup, i, &recorded[i]);
  });
  time_direct("streaming", [&](std::size_t i) {
    run_streaming(setup, i, scratch, &streamed[i]);
  });

  // --- Batched SoA kernel at 1 thread: lane batches of kLaneBatch. ------
  BatchedScratch batched_scratch;
  std::vector<sim::SessionMetrics> batched(setup.sessions);
  auto batched_block = [&](std::size_t first) {
    run_streaming_batched(setup, first,
                          std::min(kLaneBatch, setup.sessions - first),
                          batched_scratch, batched.data());
  };
  for (std::size_t i = 0; i < setup.sessions; i += kLaneBatch) {
    batched_block(i);  // warmup: grows the kernel scratch to the workload
  }
  for (std::size_t i = 0; i < setup.sessions; ++i) {
    identical = identical && metrics_identical(streamed[i], batched[i]);
  }
  long long max_batch_allocs = 0;
  {
    g_counting.store(true);
    for (std::size_t i = 0; i < setup.sessions; i += kLaneBatch) {
      const long long before = g_allocs.load();
      batched_block(i);
      max_batch_allocs = std::max(max_batch_allocs, g_allocs.load() - before);
    }
    g_counting.store(false);
  }
  time_direct("streaming_batched", [&](std::size_t i) {
    if (i % kLaneBatch == 0) batched_block(i);
  });

  // Calibration tallies of the defaults the kernel ships with
  // (use_trace_cursor + lazy stream bursts, memoized window sums): one
  // instrumented pass over the workload, ratios recorded in the JSON so a
  // regression in cursor locality or memo effectiveness is visible in CI
  // diffs even when timings are noisy.
  double cursor_rewind_ratio = 0.0, memo_hit_ratio = 0.0;
  {
    obs::MetricsRegistry calib_registry(1);
    {
      obs::SlotBinding bind(&calib_registry, 0);
      for (std::size_t i = 0; i < setup.sessions; i += kLaneBatch) {
        batched_block(i);
      }
    }
    const obs::MetricsSnapshot snap = calib_registry.snapshot();
    const double queries =
        static_cast<double>(snap.counter(obs::Counter::kCursorQueries));
    const double rewinds =
        static_cast<double>(snap.counter(obs::Counter::kCursorRewinds));
    const double hits =
        static_cast<double>(snap.counter(obs::Counter::kReservoirMemoHits));
    const double builds =
        static_cast<double>(snap.counter(obs::Counter::kReservoirMemoBuilds));
    if (queries > 0.0) cursor_rewind_ratio = rewinds / queries;
    if (hits + builds > 0.0) memo_hit_ratio = hits / (hits + builds);
  }

  // --- Observability-enabled streaming at 1 thread: the overhead budget. -
  // Metrics are bound and the collector installed only while this mode
  // runs, so the other modes' passes see observability off.
  obs::Observability obs_handle;
  obs_handle.metrics = std::make_unique<obs::MetricsRegistry>(1);
  obs::TraceCollector obs_collector(obs::TraceConfig{});  // sample=64, no file
  obs::SessionTraceSink obs_trace_sink;
  std::string obs_lines;
  std::vector<sim::SessionMetrics> obs_streamed(setup.sessions);
  auto run_obs = [&](std::size_t lo, std::size_t hi) {
    obs::install(&obs_handle);
    {
      obs::SlotBinding bind(obs_handle.metrics.get(), 0);
      for (std::size_t i = lo; i < hi; ++i) {
        run_streaming_obs(setup, i, scratch, obs_collector, obs_trace_sink,
                          obs_lines, &obs_streamed[i]);
      }
    }
    obs::install(nullptr);
  };
  run_obs(0, setup.sessions);  // warmup
  timed.push_back({"streaming_obs", run_obs});

  // --- Timeline-enabled streaming at 1 thread: fleet telemetry budget. --
  // The aggregator is pre-sized by begin_run, so the per-session record()
  // (cell adds + three sketch inserts) must allocate exactly nothing and
  // cost <=5% over plain streaming -- both hard exits below.
  long long max_timeline_allocs = 0;
  obs::TimelineAggregator timeline;
  timeline.begin_run(setup.seed, {"bba2"}, 1, exp::kWindowsPerDay);
  std::vector<sim::SessionMetrics> tl_streamed(setup.sessions);
  auto run_timeline = [&](std::size_t i) {
    run_streaming(setup, i, scratch, &tl_streamed[i]);
    const exp::SessionKey key = key_of(setup, i);
    timeline.record(key.day, key.window, 0, tl_streamed[i]);
  };
  for (std::size_t i = 0; i < setup.sessions; ++i) run_timeline(i);  // warmup
  {
    g_counting.store(true);
    for (std::size_t i = 0; i < setup.sessions; ++i) {
      const long long before = g_allocs.load();
      run_timeline(i);
      max_timeline_allocs =
          std::max(max_timeline_allocs, g_allocs.load() - before);
    }
    g_counting.store(false);
  }
  time_direct("streaming_timeline", run_timeline);

  // --- Health-monitor streaming at 1 thread: the alerting budget. -------
  // The per-session monitor cost is the cell fold plus top-K offender
  // tracking (insert into reserved arrays); detector math runs once per
  // cell close. Alert emission itself is an exceptional event (string
  // append + capture enqueue, like anomaly capture), so the spec below
  // sets unreachable thresholds to measure the steady-state path -- which
  // must allocate exactly nothing and cost <=5% over plain streaming,
  // both hard exits.
  long long max_monitor_allocs = 0;
  obs::MonitorSpec quiet;
  std::string spec_err;
  if (!obs::MonitorSpec::parse(
          "ewma_k=1000000,cusum_h=1000000,slo_rebuffer_ratio=1000000,"
          "slo_join_s=1000000",
          &quiet, &spec_err)) {
    std::fprintf(stderr, "bad monitor bench spec: %s\n", spec_err.c_str());
    return 1;
  }
  obs::HealthMonitor monitor(quiet);
  // A configured monitor only folds forward, so each pass over the
  // workload plays as its own synthetic day; pre-declaring the full day
  // span keeps the cell grid growth out of the measured loop. Every timed
  // pass also replays each window once untimed, hence two days per pass.
  const std::size_t monitor_days = 2 * passes + 8;
  monitor.begin_run(setup.seed, {"bba2"}, monitor_days, exp::kWindowsPerDay);
  std::size_t monitor_day = 0, next_day = 0;
  std::vector<sim::SessionMetrics> mon_streamed(setup.sessions);
  auto run_monitor = [&](std::size_t i) {
    if (i == 0) monitor_day = next_day++;
    run_streaming(setup, i, scratch, &mon_streamed[i]);
    const exp::SessionKey key = key_of(setup, i);
    monitor.record(monitor_day, key.window, 0, key.session, mon_streamed[i]);
  };
  for (std::size_t i = 0; i < setup.sessions; ++i) run_monitor(i);  // warmup
  {
    g_counting.store(true);
    for (std::size_t i = 0; i < setup.sessions; ++i) {
      const long long before = g_allocs.load();
      run_monitor(i);
      max_monitor_allocs =
          std::max(max_monitor_allocs, g_allocs.load() - before);
    }
    g_counting.store(false);
  }
  time_direct("streaming_monitor", run_monitor);

  // --- Full-population capture: every session serialized (sample=1), ----
  // jsonl vs btrace through the same polymorphic collector/sink pair the
  // harness uses (output discarded; the serialization cost is real).
  // Records bytes/session per format. The >=5x btrace compression floor is
  // a hard exit below: bytes are a pure function of the encoder, immune to
  // CI timing noise.
  double full_bytes_per_session[2] = {0.0, 0.0};
  obs::Observability full_handle;
  full_handle.metrics = std::make_unique<obs::MetricsRegistry>(1);
  obs::TraceConfig full_cfg;
  full_cfg.sample = 1;
  std::unique_ptr<obs::TraceCollector> full_collectors[2] = {
      std::make_unique<obs::TraceCollector>(full_cfg),
      std::make_unique<obs::BinaryTraceCollector>(full_cfg)};
  std::unique_ptr<obs::SessionTraceSink> full_sinks[2] = {
      full_collectors[0]->make_sink(), full_collectors[1]->make_sink()};
  std::string full_lines[2];
  std::vector<sim::SessionMetrics> full_streamed[2] = {
      std::vector<sim::SessionMetrics>(setup.sessions),
      std::vector<sim::SessionMetrics>(setup.sessions)};
  auto run_full = [&](int fmt, std::size_t lo, std::size_t hi) {
    obs::install(&full_handle);
    {
      obs::SlotBinding bind(full_handle.metrics.get(), 0);
      for (std::size_t i = lo; i < hi; ++i) {
        run_streaming_obs(setup, i, scratch, *full_collectors[fmt],
                          *full_sinks[fmt], full_lines[fmt],
                          &full_streamed[fmt][i]);
      }
    }
    obs::install(nullptr);
  };
  const char* full_modes[2] = {"jsonl_full_trace", "btrace_full_trace"};
  for (int fmt = 0; fmt < 2; ++fmt) {
    // Warmup, and the bytes one pass writes.
    const std::uint64_t before = full_collectors[fmt]->bytes_written();
    run_full(fmt, 0, setup.sessions);
    full_bytes_per_session[fmt] =
        static_cast<double>(full_collectors[fmt]->bytes_written() - before) /
        static_cast<double>(setup.sessions);
    timed.push_back({full_modes[fmt],
                     [&run_full, fmt](std::size_t lo, std::size_t hi) {
                       run_full(fmt, lo, hi);
                     }});
  }

  // --- The interleaved timed passes. -------------------------------------
  // The gates compare modes with each other, and the host's speed drifts:
  // other tenants' bursts last about as long as one mode's whole pass. So
  // the modes take turns one window of sessions at a time: pass p of every
  // mode runs before pass p + 1 of any, and within a pass every mode runs
  // window w before any runs window w + 1, each in its own session order.
  // A turn first replays its window untimed, so that the mode's working
  // set (the kernel's decision tables, the scalar path's scratch) is back
  // in cache after the other modes' turns, and then times it. Each mode
  // keeps its best time per window over the passes; its row is their sum.
  // Windows are rounded up to whole kernel lane batches so the batched
  // mode's blocks never straddle two turns. The replays add days to the
  // monitor's synthetic calendar, which monitor_days above covers.
  const std::size_t window =
      (setup.sessions_per_window + kLaneBatch - 1) / kLaneBatch * kLaneBatch;
  const std::size_t n_windows = (setup.sessions + window - 1) / window;
  std::vector<double> best_turn(timed.size() * n_windows, 1e100);
  for (std::size_t p = 0; p < passes; ++p) {
    for (TimedMode& t : timed) t.allocs = 0;
    for (std::size_t w = 0; w < n_windows; ++w) {
      const std::size_t lo = w * window;
      const std::size_t hi = std::min(lo + window, setup.sessions);
      for (std::size_t m = 0; m < timed.size(); ++m) {
        timed[m].run(lo, hi);  // untimed replay: warms this mode's caches
        const long long allocs_before = g_allocs.load();
        g_counting.store(true);
        const auto start = std::chrono::steady_clock::now();
        timed[m].run(lo, hi);
        const double s = seconds_since(start);
        g_counting.store(false);
        timed[m].allocs += g_allocs.load() - allocs_before;
        double& best = best_turn[m * n_windows + w];
        best = std::min(best, s);
      }
    }
  }
  for (std::size_t m = 0; m < timed.size(); ++m) {
    for (std::size_t w = 0; w < n_windows; ++w) {
      timed[m].seconds += best_turn[m * n_windows + w];
    }
  }
  double full_sps[2] = {0.0, 0.0};
  for (const TimedMode& t : timed) {
    rows.push_back({t.mode, 1, t.seconds,
                    static_cast<double>(setup.sessions) / t.seconds,
                    static_cast<double>(t.allocs) /
                        static_cast<double>(setup.sessions)});
    for (int fmt = 0; fmt < 2; ++fmt) {
      if (std::string(t.mode) == full_modes[fmt]) {
        full_sps[fmt] = rows.back().sessions_per_sec;
      }
    }
  }

  for (std::size_t i = 0; i < setup.sessions; ++i) {
    identical = identical && metrics_identical(streamed[i], obs_streamed[i]) &&
                metrics_identical(streamed[i], tl_streamed[i]) &&
                metrics_identical(streamed[i], mon_streamed[i]) &&
                metrics_identical(streamed[i], full_streamed[0][i]) &&
                metrics_identical(streamed[i], full_streamed[1][i]);
  }
  if (monitor.alerts_fired() != 0) {
    std::fprintf(stderr,
                 "FAIL: quiet monitor bench spec fired %llu alerts\n",
                 static_cast<unsigned long long>(monitor.alerts_fired()));
    identical = false;  // surfaces through the shared exit path
  }

  // --- Executor passes at N threads (the harness configuration). --------
  if (hw > 1) {
    runtime::SessionExecutor executor(hw);
    std::vector<Scratch> slot_scratch(executor.threads());
    auto time_executor = [&](const char* mode, bool streaming) {
      double best = 1e100;
      long long allocs = 0;
      // Warmup for the per-slot scratch.
      if (streaming) {
        executor.execute_slotted(
            setup.sessions,
            [&](std::size_t i, std::size_t slot) {
              run_streaming(setup, i, slot_scratch[slot], &streamed[i]);
            },
            [](std::size_t) {});
      }
      for (std::size_t p = 0; p < passes; ++p) {
        g_allocs.store(0);
        g_counting.store(true);
        const auto start = std::chrono::steady_clock::now();
        if (streaming) {
          executor.execute_slotted(
              setup.sessions,
              [&](std::size_t i, std::size_t slot) {
                run_streaming(setup, i, slot_scratch[slot], &streamed[i]);
              },
              [](std::size_t) {});
        } else {
          executor.execute(
              setup.sessions,
              [&](std::size_t i) { run_recorded(setup, i, &recorded[i]); },
              [](std::size_t) {});
        }
        const double s = seconds_since(start);
        g_counting.store(false);
        allocs = g_allocs.load();
        best = std::min(best, s);
      }
      rows.push_back({mode, hw, best,
                      static_cast<double>(setup.sessions) / best,
                      static_cast<double>(allocs) /
                          static_cast<double>(setup.sessions)});
    };
    time_executor("recorded", false);
    time_executor("streaming", true);

    // Batched kernel under the executor: one task = one lane block, each
    // slot owning its kernel scratch. Results must stay bit-identical to
    // the single-thread passes (checked below against streamed[]).
    const std::size_t n_blocks =
        (setup.sessions + kLaneBatch - 1) / kLaneBatch;
    std::vector<BatchedScratch> batch_slots(executor.threads());
    auto batched_pass = [&] {
      executor.execute_slotted(
          n_blocks,
          [&](std::size_t b, std::size_t slot) {
            const std::size_t first = b * kLaneBatch;
            run_streaming_batched(setup, first,
                                  std::min(kLaneBatch,
                                           setup.sessions - first),
                                  batch_slots[slot], batched.data());
          },
          [](std::size_t) {});
    };
    batched_pass();  // warmup for the per-slot scratch
    double best = 1e100;
    long long allocs = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      g_allocs.store(0);
      g_counting.store(true);
      const auto start = std::chrono::steady_clock::now();
      batched_pass();
      const double s = seconds_since(start);
      g_counting.store(false);
      allocs = g_allocs.load();
      best = std::min(best, s);
    }
    rows.push_back({"streaming_batched", hw, best,
                    static_cast<double>(setup.sessions) / best,
                    static_cast<double>(allocs) /
                        static_cast<double>(setup.sessions)});
    for (std::size_t i = 0; i < setup.sessions; ++i) {
      identical = identical && metrics_identical(streamed[i], batched[i]);
    }
  }

  double recorded_sps = 0.0, streaming_sps = 0.0, obs_sps = 0.0;
  double batched_sps = 0.0, timeline_sps = 0.0, monitor_sps = 0.0;
  for (const Row& r : rows) {
    if (r.threads != 1) continue;
    if (std::string(r.mode) == "recorded") recorded_sps = r.sessions_per_sec;
    if (std::string(r.mode) == "streaming") streaming_sps = r.sessions_per_sec;
    if (std::string(r.mode) == "streaming_obs") obs_sps = r.sessions_per_sec;
    if (std::string(r.mode) == "streaming_timeline") {
      timeline_sps = r.sessions_per_sec;
    }
    if (std::string(r.mode) == "streaming_monitor") {
      monitor_sps = r.sessions_per_sec;
    }
    if (std::string(r.mode) == "streaming_batched") {
      batched_sps = r.sessions_per_sec;
    }
  }
  const double speedup =
      recorded_sps > 0.0 ? streaming_sps / recorded_sps : 0.0;
  const double batched_speedup =
      streaming_sps > 0.0 ? batched_sps / streaming_sps : 0.0;
  // Overhead of live observability (metrics + 1/64 tracing) vs plain
  // streaming. Informational: the ISSUE budget is <5%, tracked via the
  // committed BENCH json rather than a hard exit (CI timing noise on small
  // runs would make a hard check flaky).
  const double obs_overhead_frac =
      streaming_sps > 0.0 && obs_sps > 0.0
          ? 1.0 - obs_sps / streaming_sps
          : 0.0;
  // Overhead of the fleet timeline fold vs plain streaming. Unlike the obs
  // row this IS a hard exit (<=5%): the record() cost is a handful of u64
  // adds, far inside the budget even with CI timing noise on best-of-N.
  const double timeline_overhead_frac =
      streaming_sps > 0.0 && timeline_sps > 0.0
          ? 1.0 - timeline_sps / streaming_sps
          : 0.0;
  // Overhead of the health-monitor fold vs plain streaming. Hard exit
  // (<=5%) like the timeline: the per-session cost is the cell fold plus
  // a few reserved-capacity comparisons for offender tracking.
  const double monitor_overhead_frac =
      streaming_sps > 0.0 && monitor_sps > 0.0
          ? 1.0 - monitor_sps / streaming_sps
          : 0.0;
  const double btrace_compression =
      full_bytes_per_session[1] > 0.0
          ? full_bytes_per_session[0] / full_bytes_per_session[1]
          : 0.0;

  std::string json = "{\"bench\":\"session_hot_path\",";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "\"hardware_threads\":%zu,\"sessions\":%zu,\"results\":[",
                hw, setup.sessions);
  json += buf;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"mode\":\"%s\",\"threads\":%zu,\"seconds\":%.4f,"
                  "\"sessions_per_sec\":%.1f,\"allocs_per_session\":%.4f}",
                  i == 0 ? "" : ",", rows[i].mode, rows[i].threads,
                  rows[i].seconds, rows[i].sessions_per_sec,
                  rows[i].allocs_per_session);
    json += buf;
  }
  std::snprintf(buf, sizeof buf,
                "],\"full_population_trace\":{"
                "\"jsonl_bytes_per_session\":%.1f,"
                "\"btrace_bytes_per_session\":%.1f,"
                "\"btrace_compression\":%.2f,"
                "\"jsonl_overhead_frac\":%.3f,"
                "\"btrace_overhead_frac\":%.3f}",
                full_bytes_per_session[0], full_bytes_per_session[1],
                btrace_compression,
                streaming_sps > 0.0 && full_sps[0] > 0.0
                    ? 1.0 - full_sps[0] / streaming_sps
                    : 0.0,
                streaming_sps > 0.0 && full_sps[1] > 0.0
                    ? 1.0 - full_sps[1] / streaming_sps
                    : 0.0);
  json += buf;
  std::snprintf(buf, sizeof buf,
                ",\"calibration\":{\"lane_batch\":%zu,"
                "\"use_trace_cursor\":true,\"cache_window_sums\":true,"
                "\"stream_burst\":%zu,\"cursor_rewind_ratio\":%.5f,"
                "\"memo_hit_ratio\":%.5f}",
                kLaneBatch,
                static_cast<std::size_t>(net::StreamSource::kBurst),
                cursor_rewind_ratio, memo_hit_ratio);
  json += buf;
  std::snprintf(buf, sizeof buf,
                ",\"speedup_streaming_vs_recorded\":%.2f,"
                "\"batched_speedup_vs_streaming\":%.2f,"
                "\"obs_overhead_frac\":%.3f,"
                "\"timeline_overhead_frac\":%.3f,"
                "\"monitor_overhead_frac\":%.3f,"
                "\"max_allocs_per_steady_session\":%lld,"
                "\"max_allocs_per_steady_batch\":%lld,"
                "\"max_allocs_per_timeline_session\":%lld,"
                "\"max_allocs_per_monitor_session\":%lld,"
                "\"bit_identical\":%s}",
                speedup, batched_speedup, obs_overhead_frac,
                timeline_overhead_frac, monitor_overhead_frac,
                max_session_allocs, max_batch_allocs, max_timeline_allocs,
                max_monitor_allocs, identical ? "true" : "false");
  json += buf;

  std::printf("%s\n", json.c_str());
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
  }

  bool ok = identical;
  if (max_session_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: streaming path allocated on a steady-state session "
                 "(max %lld allocs)\n",
                 max_session_allocs);
    ok = false;
  }
  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: streaming speedup %.2fx below the 1.5x target\n",
                 speedup);
    ok = false;
  }
  if (max_batch_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: batched kernel allocated on a steady-state batch "
                 "(max %lld allocs)\n",
                 max_batch_allocs);
    ok = false;
  }
  // The batched kernel runs 2.3-3.0x the streaming scalar path on the CI
  // host (the ratio wanders with VM noise; docs/perf.md derives why ~3x is
  // the single-core structural ceiling: the scalar baseline already
  // streams its metrics with zero allocations, so the kernel's wins are
  // lazy trace generation and the fused decision loop only). The hard
  // floor sits below the observed band so a real regression fails while
  // an unlucky scheduler slice does not.
  if (batched_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: batched kernel speedup %.2fx over streaming below "
                 "the 2x floor\n",
                 batched_speedup);
    ok = false;
  }
  if (max_timeline_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: timeline record() allocated on a steady-state "
                 "session (max %lld allocs)\n",
                 max_timeline_allocs);
    ok = false;
  }
  if (timeline_overhead_frac > 0.05) {
    std::fprintf(stderr,
                 "FAIL: timeline overhead %.1f%% above the 5%% budget\n",
                 timeline_overhead_frac * 100.0);
    ok = false;
  }
  if (max_monitor_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: health monitor record() allocated on a steady-state "
                 "session (max %lld allocs)\n",
                 max_monitor_allocs);
    ok = false;
  }
  if (monitor_overhead_frac > 0.05) {
    std::fprintf(stderr,
                 "FAIL: health monitor overhead %.1f%% above the 5%% budget\n",
                 monitor_overhead_frac * 100.0);
    ok = false;
  }
  if (btrace_compression < 5.0) {
    std::fprintf(stderr,
                 "FAIL: btrace compression %.2fx below the 5x target "
                 "(%.1f -> %.1f bytes/session)\n",
                 btrace_compression, full_bytes_per_session[0],
                 full_bytes_per_session[1]);
    ok = false;
  }
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: streaming metrics differ from recorded metrics\n");
  }
  return ok ? 0 : 1;
}
