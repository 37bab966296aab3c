// Differential tests: the batched SoA session kernel
// (sim/batch_player.hpp) against the scalar simulate_session +
// StreamingMetricsSink oracle. Everything is compared at the byte level --
// SessionMetrics fields via memcmp and the obs registry via full snapshot
// equality (counters, histogram buckets, fixed-point sums) -- because the
// kernel's contract is bit-identity, not closeness.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "abr/baselines.hpp"
#include "abr/bola.hpp"
#include "abr/related_work.hpp"
#include "core/bba1.hpp"
#include "core/bba2.hpp"
#include "exp/abtest.hpp"
#include "exp/population.hpp"
#include "exp/session_key.hpp"
#include "exp/workload.hpp"
#include "media/video.hpp"
#include "net/capacity_trace.hpp"
#include "net/estimators.hpp"
#include "net/fault_inject.hpp"
#include "net/trace_gen.hpp"
#include "obs/metrics.hpp"
#include "sim/batch_player.hpp"
#include "sim/metrics.hpp"
#include "sim/player.hpp"
#include "sim/session_result.hpp"
#include "sim/session_sink.hpp"
#include "util/rng.hpp"

namespace {

using namespace bba;

void expect_identical(const sim::SessionMetrics& a,
                      const sim::SessionMetrics& b, std::size_t lane) {
  auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  EXPECT_TRUE(same(a.play_s, b.play_s)) << "lane " << lane;
  EXPECT_TRUE(same(a.join_s, b.join_s)) << "lane " << lane;
  EXPECT_EQ(a.rebuffer_count, b.rebuffer_count) << "lane " << lane;
  EXPECT_TRUE(same(a.rebuffer_s, b.rebuffer_s)) << "lane " << lane;
  EXPECT_TRUE(same(a.rebuffers_per_hour, b.rebuffers_per_hour))
      << "lane " << lane;
  EXPECT_EQ(a.fault_stall_count, b.fault_stall_count) << "lane " << lane;
  EXPECT_TRUE(same(a.avg_rate_bps, b.avg_rate_bps)) << "lane " << lane;
  EXPECT_TRUE(same(a.startup_rate_bps, b.startup_rate_bps))
      << "lane " << lane;
  EXPECT_TRUE(same(a.steady_rate_bps, b.steady_rate_bps)) << "lane " << lane;
  EXPECT_EQ(a.has_steady, b.has_steady) << "lane " << lane;
  EXPECT_TRUE(same(a.steady_play_s, b.steady_play_s)) << "lane " << lane;
  EXPECT_EQ(a.switch_count, b.switch_count) << "lane " << lane;
  EXPECT_TRUE(same(a.switches_per_hour, b.switches_per_hour))
      << "lane " << lane;
  EXPECT_TRUE(same(a.avg_buffer_s, b.avg_buffer_s)) << "lane " << lane;
  EXPECT_EQ(a.abandoned, b.abandoned) << "lane " << lane;
}

void expect_snapshots_equal(const obs::MetricsSnapshot& a,
                            const obs::MetricsSnapshot& b) {
  for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
    EXPECT_EQ(a.counters[c], b.counters[c])
        << obs::counter_name(static_cast<obs::Counter>(c));
  }
  for (std::size_t h = 0; h < obs::kNumHists; ++h) {
    const auto& ha = a.hists[h];
    const auto& hb = b.hists[h];
    EXPECT_EQ(ha.count, hb.count) << obs::hist_name(static_cast<obs::Hist>(h));
    EXPECT_EQ(ha.sum, hb.sum) << obs::hist_name(static_cast<obs::Hist>(h));
    for (int i = 0; i < obs::HistSlot::kBuckets; ++i) {
      EXPECT_EQ(ha.buckets[i], hb.buckets[i])
          << obs::hist_name(static_cast<obs::Hist>(h)) << " bucket " << i;
    }
  }
}

// One session's worth of inputs, resolved from a SessionKey exactly the way
// the A/B harness hot path does.
struct Case {
  exp::SessionKey key;
  exp::UserEnvironment env;
  exp::SessionSpec spec;
  net::CapacityTrace trace = net::CapacityTrace::constant(1.0);
  bool materialized = false;
};

struct Fixture {
  exp::Population population;
  media::VideoLibrary library = media::VideoLibrary::standard(11);
  exp::WorkloadConfig workload;
  sim::PlayerConfig player;
  std::uint64_t seed = 2014;

  explicit Fixture(exp::PopulationConfig pop_cfg = {})
      : population(std::move(pop_cfg)) {}

  // Materializes every case (environment, spec, and -- for sessions with
  // outages or when `force_trace` -- the full capacity trace).
  std::vector<Case> cases(std::size_t n, bool force_trace = false) {
    std::vector<Case> out(n);
    net::TraceScratch scratch;
    for (std::size_t i = 0; i < n; ++i) {
      Case& c = out[i];
      c.key = exp::SessionKey{seed, 0, i % exp::kWindowsPerDay,
                              i / exp::kWindowsPerDay};
      c.env = population.environment_for(c.key);
      c.spec = exp::session_for(library, workload, c.key);
      if (c.env.has_outages || force_trace) {
        population.trace_for_into(c.env, c.key, scratch, c.trace);
        c.materialized = true;
      }
    }
    return out;
  }

  sim::PlayerConfig config_for(const Case& c) const {
    sim::PlayerConfig cfg = player;
    cfg.watch_duration_s = c.spec.watch_duration_s;
    return cfg;
  }

  // Scalar oracle: the exact harness hot path (materialized trace,
  // streaming sink, reused ABR).
  sim::SessionMetrics scalar(const Case& c, core::Bba2& abr,
                             sim::StreamingMetricsSink& sink,
                             net::TraceScratch& scratch,
                             net::CapacityTrace& trace) {
    population.trace_for_into(c.env, c.key, scratch, trace);
    sim::simulate_session(library.at(c.spec.video_index), trace, abr,
                          config_for(c), sink);
    return sink.metrics();
  }

  // Builds lanes for `cases`: sessions with a materialized trace become
  // trace lanes, the rest stream lazily from the environment's Markov
  // config (the batch dispatch's plan for outage-free sessions).
  std::vector<sim::BatchLane> lanes(std::vector<Case>& cases,
                                    core::Bba2& abr,
                                    std::vector<sim::SessionMetrics>& out) {
    out.assign(cases.size(), sim::SessionMetrics{});
    std::vector<sim::BatchLane> ls(cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
      sim::BatchLane& l = ls[i];
      l.video = &library.at(cases[i].spec.video_index);
      l.abr = &abr;
      l.config = config_for(cases[i]);
      if (cases[i].materialized) {
        l.trace = &cases[i].trace;
      } else {
        l.stream = &cases[i].env.trace;
        l.stream_rng = exp::session_rng(cases[i].key, exp::StreamClass::kTrace);
      }
      l.out = &out[i];
    }
    return ls;
  }
};

constexpr std::size_t kSweep = 180;  // 15 sessions in each of 12 windows

TEST(SimBatch, MixedStreamAndTraceLanesMatchScalar) {
  Fixture fx;
  std::vector<Case> cases = fx.cases(kSweep);
  core::Bba2 abr;
  std::vector<sim::SessionMetrics> got;
  std::vector<sim::BatchLane> lanes = fx.lanes(cases, abr, got);
  sim::BatchScratch scratch;
  sim::simulate_session_batch(lanes, scratch);

  core::Bba2 oracle_abr;
  sim::StreamingMetricsSink sink;
  net::TraceScratch ts;
  net::CapacityTrace trace = net::CapacityTrace::constant(1.0);
  std::size_t streamed = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const sim::SessionMetrics want =
        fx.scalar(cases[i], oracle_abr, sink, ts, trace);
    expect_identical(got[i], want, i);
    if (lanes[i].stream != nullptr) ++streamed;
  }
  // The sweep must actually exercise both lane kinds.
  EXPECT_GT(streamed, kSweep / 2);
  EXPECT_LT(streamed, kSweep);
}

TEST(SimBatch, AllOutageLanesMatchScalar) {
  exp::PopulationConfig pop;
  pop.outage_session_fraction = 1.0;  // every trace carries outage windows
  Fixture fx(pop);
  std::vector<Case> cases = fx.cases(60);
  core::Bba2 abr;
  std::vector<sim::SessionMetrics> got;
  std::vector<sim::BatchLane> lanes = fx.lanes(cases, abr, got);
  for (const sim::BatchLane& l : lanes) {
    ASSERT_NE(l.trace, nullptr);  // all materialized
  }
  sim::BatchScratch scratch;
  sim::simulate_session_batch(lanes, scratch);

  core::Bba2 oracle_abr;
  sim::StreamingMetricsSink sink;
  net::TraceScratch ts;
  net::CapacityTrace trace = net::CapacityTrace::constant(1.0);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    expect_identical(got[i], fx.scalar(cases[i], oracle_abr, sink, ts, trace),
                     i);
  }
}

TEST(SimBatch, ObsRegistryDeltasMatchScalar) {
  // Memo accounting (kReservoirMemoHits / kReservoirMemoBuilds) depends on
  // the ChunkTable memo temperature, so each side gets its own
  // identically-seeded library copy and a cold registry.
  Fixture fx_batch;
  Fixture fx_scalar;
  std::vector<Case> bc = fx_batch.cases(kSweep);
  std::vector<Case> sc = fx_scalar.cases(kSweep);

  obs::MetricsRegistry reg_batch(1);
  {
    obs::SlotBinding bind(&reg_batch, 0);
    core::Bba2 abr;
    std::vector<sim::SessionMetrics> got;
    std::vector<sim::BatchLane> lanes = fx_batch.lanes(bc, abr, got);
    sim::BatchScratch scratch;
    sim::simulate_session_batch(lanes, scratch);
  }

  obs::MetricsRegistry reg_scalar(1);
  {
    obs::SlotBinding bind(&reg_scalar, 0);
    core::Bba2 abr;
    sim::StreamingMetricsSink sink;
    net::TraceScratch ts;
    net::CapacityTrace trace = net::CapacityTrace::constant(1.0);
    for (const Case& c : sc) fx_scalar.scalar(c, abr, sink, ts, trace);
  }

  expect_snapshots_equal(reg_batch.snapshot(), reg_scalar.snapshot());
}

TEST(SimBatch, BatchSplitInvariance) {
  // Lane results must not depend on how sessions are grouped into batch
  // calls: one call over all lanes vs. uneven chunks (batch of 1, a
  // non-dividing remainder) through one reused scratch.
  Fixture fx;
  std::vector<Case> cases = fx.cases(53);  // deliberately awkward count
  core::Bba2 abr;

  std::vector<sim::SessionMetrics> whole;
  {
    std::vector<sim::BatchLane> lanes = fx.lanes(cases, abr, whole);
    sim::BatchScratch scratch;
    sim::simulate_session_batch(lanes, scratch);
  }

  std::vector<sim::SessionMetrics> split;
  {
    std::vector<sim::BatchLane> lanes = fx.lanes(cases, abr, split);
    sim::BatchScratch scratch;
    std::span<sim::BatchLane> rest(lanes);
    const std::size_t sizes[] = {1, 7, 16, 2, 27};  // sums to 53
    for (std::size_t n : sizes) {
      sim::simulate_session_batch(rest.subspan(0, n), scratch);
      rest = rest.subspan(n);
    }
    ASSERT_TRUE(rest.empty());
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    expect_identical(whole[i], split[i], i);
  }
}

TEST(SimBatch, SharedStreamKeyLanesMatchPrivateStreams) {
  // Common-random-numbers groups: lanes replaying the same kTrace substream
  // share one lazily generated stream via stream_key. Results must equal
  // the same lanes run with private streams.
  Fixture fx;
  std::vector<Case> cases = fx.cases(40);
  core::Bba2 abr;

  std::vector<sim::SessionMetrics> keyed;
  std::vector<sim::SessionMetrics> twin_out(cases.size());
  std::vector<std::size_t> streamed;
  {
    std::vector<sim::BatchLane> lanes = fx.lanes(cases, abr, keyed);
    // Duplicate every streamed lane: two lanes per key sharing the stream.
    std::vector<sim::BatchLane> doubled;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      if (lanes[i].stream == nullptr) continue;
      streamed.push_back(i);
      lanes[i].stream_key = i + 1;
      doubled.push_back(lanes[i]);
      sim::BatchLane twin = lanes[i];
      twin.out = &twin_out[i];
      doubled.push_back(twin);
    }
    ASSERT_FALSE(doubled.empty());
    sim::BatchScratch scratch;
    sim::simulate_session_batch(doubled, scratch);
  }

  std::vector<sim::SessionMetrics> priv;
  {
    std::vector<sim::BatchLane> lanes = fx.lanes(cases, abr, priv);
    sim::BatchScratch scratch;
    sim::simulate_session_batch(lanes, scratch);
  }
  for (std::size_t i : streamed) {
    expect_identical(keyed[i], priv[i], i);
    expect_identical(twin_out[i], priv[i], i);
  }
}

TEST(SimBatch, IneligibleLanesFallBackIdentically) {
  // Give-up timers, seeks (start_chunk), TCP model, disabled cursor: all
  // route through the scalar fallback inside the batch call and must equal
  // a direct scalar run with the same config.
  Fixture fx;
  std::vector<Case> cases = fx.cases(24, /*force_trace=*/true);
  core::Bba2 abr;
  std::vector<sim::SessionMetrics> got;
  std::vector<sim::BatchLane> lanes = fx.lanes(cases, abr, got);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    sim::PlayerConfig& cfg = lanes[i].config;
    switch (i % 4) {
      case 0: cfg.give_up_stall_s = 30.0; break;
      case 1: cfg.start_chunk = 3; break;
      case 2: cfg.tcp = net::TcpModelConfig{}; break;
      case 3: cfg.use_trace_cursor = false; break;
    }
  }
  sim::BatchScratch scratch;
  sim::simulate_session_batch(lanes, scratch);

  core::Bba2 oracle_abr;
  sim::StreamingMetricsSink sink;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    sim::simulate_session(fx.library.at(cases[i].spec.video_index),
                          cases[i].trace, oracle_abr, lanes[i].config, sink);
    expect_identical(got[i], sink.metrics(), i);
  }
}

// How one stall relates to the fault windows of its session.
struct StallCoverage {
  std::size_t inside = 0;       // within one fault occurrence
  std::size_t straddling = 0;   // overlaps an occurrence, not contained
  std::size_t outside = 0;      // overlaps none
  std::size_t later_cycle = 0;  // overlaps only a repeat in a later cycle
};

void classify_stalls(const sim::SessionResult& rec,
                     const std::vector<net::InjectedFault>& faults,
                     const net::CapacityTrace& trace, StallCoverage& cov) {
  const double cycle = trace.cycle_duration_s();
  for (const sim::RebufferEvent& e : rec.rebuffers) {
    const double t0 = e.start_s;
    const double t1 = e.start_s + e.duration_s;
    EXPECT_EQ(e.during_fault, net::fault_overlaps(faults, cycle,
                                                  trace.loops(), t0, t1));
    if (!e.during_fault) {
      ++cov.outside;
      continue;
    }
    if (!net::fault_overlaps(faults, cycle, /*loops=*/false, t0, t1)) {
      ++cov.later_cycle;
    }
    bool contained = false;
    for (const net::InjectedFault& f : faults) {
      const double k = std::floor((t0 - f.start_s) / cycle);
      const double lo = f.start_s + k * cycle;
      if (f.duration_s > 0.0 && lo <= t0 && t1 <= lo + f.duration_s) {
        contained = true;
      }
    }
    ++(contained ? cov.inside : cov.straddling);
  }
}

TEST(SimBatch, FaultedLanesMatchScalar) {
  // Faulted lanes run through the kernel, which attributes each stall at
  // close. Outage, spike and failover plans (and all three at once) over
  // the population's traces and over short looping traces watched for
  // several cycles, so stalls also meet faults only through a later
  // cycle's repeat. SessionMetrics bits (fault_stall_count included) and
  // the registry snapshot must equal the scalar player's.
  const char* const specs[] = {
      "outage:every=90,dur=15..35",
      "spike:every=60,dur=5..25,depth=0.02..0.15",
      "failover:every=150,dur=2..6,shift=0.2..0.5",
      "outage:every=120,dur=20..35;spike:every=90,dur=5..15,depth=0.1..0.3;"
      "failover:every=600,dur=1..3,shift=0.4..0.7"};
  std::vector<net::FaultPlan> plans(std::size(specs));
  for (std::size_t i = 0; i < plans.size(); ++i) {
    std::string err;
    ASSERT_TRUE(net::parse_fault_plan(specs[i], &plans[i], &err)) << err;
  }

  constexpr std::size_t kCases = 96;
  struct Faulted {
    std::vector<Case> cases;
    std::vector<std::vector<net::InjectedFault>> events;
    std::vector<sim::PlayerConfig> configs;
  };
  // Identical inputs for each side; each side owns its library so the
  // window-sum memo accounting starts cold on both.
  auto build = [&](Fixture& fx) {
    Faulted f;
    f.cases = fx.cases(kCases, /*force_trace=*/true);
    f.events.resize(kCases);
    f.configs.resize(kCases);
    for (std::size_t i = 0; i < kCases; ++i) {
      Case& c = f.cases[i];
      util::Rng rng(1000 + i);
      sim::PlayerConfig cfg = fx.config_for(c);
      if (i % 3 == 1) {
        // A short cycle watched for much longer than one cycle.
        net::MarkovTraceConfig tc = c.env.trace;
        tc.duration_s = 200.0 + 20.0 * static_cast<double>(i % 5);
        c.trace = net::make_markov_trace(tc, rng);
        cfg.watch_duration_s = 1500.0;
      }
      c.trace = net::with_faults(c.trace, plans[i % plans.size()], rng,
                                 &f.events[i]);
      cfg.faults = &f.events[i];
      f.configs[i] = cfg;
    }
    return f;
  };

  Fixture fx_batch;
  Fixture fx_scalar;
  Faulted fb = build(fx_batch);
  Faulted fs = build(fx_scalar);

  obs::MetricsRegistry reg_batch(1);
  std::vector<sim::SessionMetrics> got(kCases);
  std::size_t kernel_lanes = 0;
  {
    obs::SlotBinding bind(&reg_batch, 0);
    core::Bba2 bba2;
    core::Bba1 bba1;
    std::vector<sim::BatchLane> lanes(kCases);
    for (std::size_t i = 0; i < kCases; ++i) {
      sim::BatchLane& l = lanes[i];
      l.video = &fx_batch.library.at(fb.cases[i].spec.video_index);
      l.abr = i % 2 == 0 ? static_cast<abr::RateAdaptation*>(&bba2) : &bba1;
      l.config = fb.configs[i];
      l.trace = &fb.cases[i].trace;
      l.out = &got[i];
      abr::BatchDecisionProfile profile;
      ASSERT_TRUE(l.abr->batch_profile(&profile));
      if (sim::batch_lane_eligible(profile, l.config, *l.video, l.trace)) {
        ++kernel_lanes;
      }
    }
    sim::BatchScratch scratch;
    sim::simulate_session_batch(lanes, scratch);
  }
  EXPECT_EQ(kernel_lanes, kCases);

  obs::MetricsRegistry reg_scalar(1);
  StallCoverage cov;
  long long fault_stalls = 0;
  {
    obs::SlotBinding bind(&reg_scalar, 0);
    core::Bba2 bba2;
    core::Bba1 bba1;
    sim::StreamingMetricsSink sink;
    sim::SessionResult rec;
    sim::RecordingSink recorder(&rec);
    for (std::size_t i = 0; i < kCases; ++i) {
      const Case& c = fs.cases[i];
      const media::Video& video = fx_scalar.library.at(c.spec.video_index);
      abr::RateAdaptation& abr =
          i % 2 == 0 ? static_cast<abr::RateAdaptation&>(bba2) : bba1;
      sim::simulate_session(video, c.trace, abr, fs.configs[i], sink);
      expect_identical(got[i], sink.metrics(), i);
      fault_stalls += sink.metrics().fault_stall_count;
      // The recorded replay, muted, shows where each stall fell.
      obs::SlotBinding mute(nullptr, 0);
      sim::simulate_session(video, c.trace, abr, fs.configs[i], recorder);
      classify_stalls(rec, *fs.configs[i].faults, c.trace, cov);
    }
  }
  expect_snapshots_equal(reg_batch.snapshot(), reg_scalar.snapshot());

  EXPECT_GT(fault_stalls, 0);
  EXPECT_GT(cov.inside, 0u);
  EXPECT_GT(cov.straddling, 0u);
  EXPECT_GT(cov.outside, 0u);
  EXPECT_GT(cov.later_cycle, 0u);
}

TEST(SimBatch, EligibilityRejectsUnsupportedConfigs) {
  Fixture fx;
  std::vector<Case> cases = fx.cases(1, /*force_trace=*/true);
  core::Bba2 abr;
  abr::BatchDecisionProfile profile;
  ASSERT_TRUE(abr.batch_profile(&profile));
  const media::Video& video = fx.library.at(cases[0].spec.video_index);
  const net::CapacityTrace* trace = &cases[0].trace;
  sim::PlayerConfig base = fx.config_for(cases[0]);
  ASSERT_TRUE(sim::batch_lane_eligible(profile, base, video, trace));

  auto with = [&](auto mut) {
    sim::PlayerConfig cfg = base;
    mut(cfg);
    return sim::batch_lane_eligible(profile, cfg, video, trace);
  };
  EXPECT_FALSE(with([](sim::PlayerConfig& c) { c.give_up_stall_s = 60.0; }));
  EXPECT_FALSE(with([](sim::PlayerConfig& c) { c.max_wall_s = 1e6; }));
  EXPECT_FALSE(with([](sim::PlayerConfig& c) { c.start_chunk = 1; }));
  EXPECT_FALSE(with([](sim::PlayerConfig& c) { c.start_wall_s = 5.0; }));
  EXPECT_FALSE(
      with([](sim::PlayerConfig& c) { c.position_offset_s = 40.0; }));
  EXPECT_FALSE(
      with([](sim::PlayerConfig& c) { c.tcp = net::TcpModelConfig{}; }));
  EXPECT_FALSE(
      with([](sim::PlayerConfig& c) { c.use_trace_cursor = false; }));
  EXPECT_FALSE(with([](sim::PlayerConfig& c) { c.watch_duration_s = 0.0; }));
  // Injected faults are a kernel branch, not a reason to fall back.
  static const std::vector<net::InjectedFault> kNoFaults;
  EXPECT_TRUE(with([](sim::PlayerConfig& c) { c.faults = &kNoFaults; }));

  // Non-looping traces are out (the kernel's wrap math assumes loops).
  net::CapacityTrace non_looping(
      std::vector<net::CapacityTrace::Segment>{{1000.0, 1e6}},
      /*loop=*/false);
  EXPECT_FALSE(sim::batch_lane_eligible(profile, base, video, &non_looping));

  // A profile without memoized window sums is out.
  abr::BatchDecisionProfile no_memo = profile;
  no_memo.cache_window_sums = false;
  EXPECT_FALSE(sim::batch_lane_eligible(no_memo, base, video, trace));
}

// --- Scalar lanes on the shared stream --------------------------------------

// One instance of each of the ten ABRs bba_abtest knows, with its factories.
std::vector<std::unique_ptr<abr::RateAdaptation>> ten_abrs() {
  std::vector<std::unique_ptr<abr::RateAdaptation>> v;
  v.push_back(exp::make_control_factory()());
  v.push_back(std::make_unique<abr::ThroughputAbr>(
      std::make_unique<net::EwmaEstimator>(0.3)));
  v.push_back(std::make_unique<abr::PidAbr>());
  v.push_back(std::make_unique<abr::ElasticAbr>());
  v.push_back(std::make_unique<abr::BolaAbr>());
  v.push_back(exp::make_rmin_factory()());
  v.push_back(exp::make_bba0_factory()());
  v.push_back(exp::make_bba1_factory()());
  v.push_back(exp::make_bba2_factory()());
  v.push_back(exp::make_bba_others_factory()());
  return v;
}

struct SideRun {
  std::vector<sim::SessionMetrics> out;  ///< [key * 10 + abr]
  obs::MetricsSnapshot snapshot;
  std::vector<std::size_t> segments;  ///< per key: committed or full
  std::vector<bool> stream_done;      ///< per key, streamed side only
};

// Runs the ten ABRs over `n_keys` outage-free keys, one batch call per key
// as the harness makes it: every lane of a key reads one shared stream, or
// every lane reads the key's materialized trace. `duration_s` > 0
// overrides the Markov trace length. Each side gets its own library and
// registry, so memo accounting starts equally cold.
SideRun run_ten_abrs(bool streamed, bool reversed, double duration_s,
                     const sim::PlayerConfig& player, std::size_t n_keys) {
  constexpr std::size_t kAbrs = 10;
  const exp::Population population{exp::PopulationConfig{}};
  const media::VideoLibrary library = media::VideoLibrary::standard(11);
  const exp::WorkloadConfig workload;
  std::vector<std::unique_ptr<abr::RateAdaptation>> abrs = ten_abrs();
  SideRun run;
  run.out.assign(n_keys * kAbrs, sim::SessionMetrics{});
  obs::MetricsRegistry registry(1);
  {
    obs::SlotBinding bind(&registry, 0);
    sim::BatchScratch scratch;
    net::TraceScratch trace_scratch;
    net::CapacityTrace trace = net::CapacityTrace::constant(1.0);
    std::vector<sim::BatchLane> lanes(kAbrs);
    for (std::size_t i = 0; i < n_keys; ++i) {
      const exp::SessionKey key{2014, 0, i % exp::kWindowsPerDay,
                                i / exp::kWindowsPerDay};
      exp::UserEnvironment env = population.environment_for(key);
      env.has_outages = false;
      if (duration_s > 0.0) env.trace.duration_s = duration_s;
      const exp::SessionSpec spec = exp::session_for(library, workload, key);
      if (!streamed) {
        util::Rng rng = exp::session_rng(key, exp::StreamClass::kTrace);
        population.make_trace_into(env, rng, trace_scratch, trace);
      }
      for (std::size_t j = 0; j < kAbrs; ++j) {
        const std::size_t g = reversed ? kAbrs - 1 - j : j;
        sim::BatchLane& lane = lanes[j];
        lane = sim::BatchLane{};
        lane.video = &library.at(spec.video_index);
        lane.abr = abrs[g].get();
        lane.config = player;
        lane.config.watch_duration_s = spec.watch_duration_s;
        lane.out = &run.out[i * kAbrs + g];
        if (streamed) {
          lane.stream = &env.trace;
          lane.stream_rng = exp::session_rng(key, exp::StreamClass::kTrace);
          lane.stream_key = 1;
        } else {
          lane.trace = &trace;
        }
      }
      sim::simulate_session_batch(lanes, scratch);
      if (streamed) {
        run.segments.push_back(scratch.streams[0]->num_segments());
        run.stream_done.push_back(scratch.streams[0]->done);
      } else {
        run.segments.push_back(trace.segments().size());
      }
    }
  }
  run.snapshot = registry.snapshot();
  return run;
}

TEST(SimBatch, ScalarLanesOnStreamMatchMaterialized) {
  // The scalar loop reads a shared TraceStream through LaneCursor exactly
  // as it reads the materialized trace through TraceCursor: same metrics
  // bits, same registry events (cursor queries and rewinds, memo hits,
  // chunks, switches), whatever the order the lanes pull the stream in.
  // The default player runs the eight scalar ABRs on the stream and
  // BBA-1/2 in the kernel; a give-up timer, which the kernel refuses,
  // puts all ten on the scalar loop.
  sim::PlayerConfig give_up;
  give_up.give_up_stall_s = 60.0;
  constexpr std::size_t kKeys = 24;
  // 0 keeps the population's 7200 s traces; 240 s is shorter than most
  // sessions, which then wrap the cycle and generate the whole stream.
  for (const double duration_s : {0.0, 240.0}) {
    for (const sim::PlayerConfig& player : {sim::PlayerConfig{}, give_up}) {
      const SideRun want =
          run_ten_abrs(false, false, duration_s, player, kKeys);
      for (const bool reversed : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "duration " << duration_s << " give_up "
                     << player.give_up_stall_s << " reversed " << reversed);
        const SideRun got =
            run_ten_abrs(true, reversed, duration_s, player, kKeys);
        for (std::size_t i = 0; i < want.out.size(); ++i) {
          expect_identical(got.out[i], want.out[i], i);
        }
        expect_snapshots_equal(got.snapshot, want.snapshot);
        const auto counter = [&](obs::Counter c) {
          return got.snapshot.counters[static_cast<std::size_t>(c)];
        };
        EXPECT_EQ(counter(obs::Counter::kSessions), kKeys * 10);
        EXPECT_GT(counter(obs::Counter::kReservoirMemoHits), 0u);
        std::size_t done = 0;
        for (std::size_t k = 0; k < kKeys; ++k) {
          done += got.stream_done[k] ? 1 : 0;
          if (duration_s == 0.0) {
            // Laziness: a standard key commits only the prefix its
            // furthest session reached.
            EXPECT_LT(got.segments[k], want.segments[k]) << "key " << k;
          } else if (got.stream_done[k]) {
            EXPECT_EQ(got.segments[k], want.segments[k]) << "key " << k;
          }
        }
        if (duration_s == 0.0) {
          EXPECT_EQ(done, 0u);
        } else {
          // Sessions wrapped the short cycle: the streams ran to the end
          // and the wrap path's seeks rewound.
          EXPECT_GT(done, kKeys / 2);
          EXPECT_GT(counter(obs::Counter::kCursorRewinds), 0u);
        }
      }
    }
  }
}

// --- Harness-level differentials ------------------------------------------

exp::AbTestConfig harness_config(bool batch, std::size_t threads) {
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 6;
  cfg.days = 1;
  cfg.seed = 77;
  cfg.threads = threads;
  cfg.batch_sessions = batch;
  return cfg;
}

std::vector<exp::Group> harness_groups() {
  std::vector<exp::Group> groups;
  groups.push_back({"control", exp::make_control_factory()});
  groups.push_back({"bba1", exp::make_bba1_factory()});
  groups.push_back({"bba2", exp::make_bba2_factory()});
  return groups;
}

void expect_results_bitwise_equal(const exp::AbTestResult& a,
                                  const exp::AbTestResult& b) {
  ASSERT_EQ(a.group_names, b.group_names);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t g = 0; g < a.cells.size(); ++g) {
    ASSERT_EQ(a.cells[g].size(), b.cells[g].size());
    for (std::size_t d = 0; d < a.cells[g].size(); ++d) {
      ASSERT_EQ(a.cells[g][d].size(), b.cells[g][d].size());
      for (std::size_t w = 0; w < a.cells[g][d].size(); ++w) {
        EXPECT_EQ(std::memcmp(&a.cells[g][d][w], &b.cells[g][d][w],
                              sizeof(exp::WindowMetrics)),
                  0)
            << "group " << g << " day " << d << " window " << w;
      }
    }
  }
}

TEST(SimBatch, HarnessBatchOnOffBitIdentical) {
  const media::VideoLibrary library = media::VideoLibrary::standard(5);
  const exp::AbTestResult off =
      exp::run_ab_test(harness_groups(), library, harness_config(false, 1));
  const exp::AbTestResult on1 =
      exp::run_ab_test(harness_groups(), library, harness_config(true, 1));
  const exp::AbTestResult on4 =
      exp::run_ab_test(harness_groups(), library, harness_config(true, 4));
  expect_results_bitwise_equal(off, on1);
  expect_results_bitwise_equal(off, on4);
}

TEST(SimBatch, HarnessBatchWithFaultsBitIdentical) {
  // With a non-empty fault plan every key materializes its faulted trace
  // and the kernel attributes each stall; the knob must not change a
  // single byte either way.
  const media::VideoLibrary library = media::VideoLibrary::standard(5);
  exp::AbTestConfig off = harness_config(false, 1);
  exp::AbTestConfig on = harness_config(true, 1);
  std::string err;
  ASSERT_TRUE(net::parse_fault_plan("outage:every=400,dur=20..30",
                                    &off.population.faults, &err))
      << err;
  on.population.faults = off.population.faults;
  expect_results_bitwise_equal(
      exp::run_ab_test(harness_groups(), library, off),
      exp::run_ab_test(harness_groups(), library, on));
}

TEST(SimBatch, DerivedAbrRefusesProfile) {
  // The exact-dynamic-type guard: a subclass that might override behaviour
  // must not inherit the base class's kernel profile.
  struct TweakedBba2 : core::Bba2 {
    using core::Bba2::Bba2;
  };
  TweakedBba2 derived;
  abr::BatchDecisionProfile profile;
  EXPECT_FALSE(derived.batch_profile(&profile));
}

}  // namespace
