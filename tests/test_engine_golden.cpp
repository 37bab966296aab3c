// Golden pin of the session engine across every ABR and every dispatch.
//
// Every (key, group) SessionMetrics of a ten-group A/B grid is hashed
// bit for bit with FNV-1a, with and without injected faults, at 1 and 4
// threads. One constant per fault setting covers both thread counts. A
// second constant pins run_ab_test's aggregated window cells over the same
// grid. The constants were recorded before faulted sessions could run
// through the batched kernel, and held for every lane on its own ABR as
// well as for BBA-1/BBA-2 on the table decision, so they also pin the
// table decision as byte-neutral.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "abr/baselines.hpp"
#include "abr/bola.hpp"
#include "abr/related_work.hpp"
#include "exp/abtest.hpp"
#include "exp/block.hpp"
#include "exp/session_key.hpp"
#include "media/video.hpp"
#include "net/estimators.hpp"
#include "net/fault_inject.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace bba;

// The fault plan CI's faults-smoke job runs: outages, spikes, failovers.
constexpr const char* kFaultsSpec =
    "outage:every=120,dur=20..35;spike:every=90,dur=5..15,depth=0.1..0.3;"
    "failover:every=600,dur=1..3,shift=0.4..0.7";

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

void hash_metrics(Fnv1a& f, const sim::SessionMetrics& m) {
  f.add(m.play_s);
  f.add(m.join_s);
  f.add(static_cast<std::uint64_t>(m.rebuffer_count));
  f.add(m.rebuffer_s);
  f.add(m.rebuffers_per_hour);
  f.add(static_cast<std::uint64_t>(m.fault_stall_count));
  f.add(m.avg_rate_bps);
  f.add(m.startup_rate_bps);
  f.add(m.steady_rate_bps);
  f.add(static_cast<std::uint64_t>(m.has_steady));
  f.add(static_cast<std::uint64_t>(m.switch_count));
  f.add(m.switches_per_hour);
  f.add(m.avg_buffer_s);
  f.add(static_cast<std::uint64_t>(m.abandoned));
  f.add(m.steady_play_s);
}

void hash_cell(Fnv1a& f, const exp::WindowMetrics& w) {
  f.add(w.play_hours);
  f.add(w.rebuffer_count);
  f.add(w.rebuffer_s);
  f.add(w.avg_rate_bps);
  f.add(w.startup_rate_bps);
  f.add(w.steady_rate_bps);
  f.add(w.switch_count);
  f.add(static_cast<std::uint64_t>(w.sessions));
  f.add(w.steady_play_hours);
  f.add(w.fault_stall_count);
}

// All ten groups bba_abtest knows, with the same factories.
std::vector<exp::Group> all_groups() {
  std::vector<exp::Group> g;
  g.push_back({"control", exp::make_control_factory()});
  g.push_back({"throughput", [] {
                 return std::make_unique<abr::ThroughputAbr>(
                     std::make_unique<net::EwmaEstimator>(0.3));
               }});
  g.push_back({"pid", [] { return std::make_unique<abr::PidAbr>(); }});
  g.push_back({"elastic", [] { return std::make_unique<abr::ElasticAbr>(); }});
  g.push_back({"bola", [] { return std::make_unique<abr::BolaAbr>(); }});
  g.push_back({"rmin-always", exp::make_rmin_factory()});
  g.push_back({"bba0", exp::make_bba0_factory()});
  g.push_back({"bba1", exp::make_bba1_factory()});
  g.push_back({"bba2", exp::make_bba2_factory()});
  g.push_back({"bba-others", exp::make_bba_others_factory()});
  return g;
}

exp::AbTestConfig grid_config(bool faulted, std::size_t threads) {
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 8;
  cfg.days = 2;
  cfg.seed = 2014;
  cfg.threads = threads;
  if (faulted) {
    std::string err;
    const bool ok =
        net::parse_fault_plan(kFaultsSpec, &cfg.population.faults, &err);
    EXPECT_TRUE(ok) << err;
  }
  return cfg;
}

struct Pins {
  std::uint64_t sessions;
  std::uint64_t cells;
};

// Hashes every (key, group) session in canonical order, plus the
// run_ab_test cells of the same grid. Also reports how many stalls were
// attributed to faults, so the faulted pin provably covers attribution.
Pins run_grid(const exp::AbTestConfig& cfg, long long* fault_stalls,
              long long* rebuffers) {
  const media::VideoLibrary library = media::VideoLibrary::standard(11);
  const std::vector<exp::Group> groups = all_groups();

  std::vector<exp::SessionKey> keys;
  for (std::size_t day = 0; day < cfg.days; ++day) {
    for (std::size_t window = 0; window < exp::kWindowsPerDay; ++window) {
      for (std::size_t user = 0; user < cfg.sessions_per_window; ++user) {
        keys.push_back(exp::SessionKey{cfg.seed, day, window, user});
      }
    }
  }
  Fnv1a sessions;
  *fault_stalls = 0;
  *rebuffers = 0;
  {
    exp::SessionBlockRunner runner(groups, library, cfg);
    runner.run(keys, [&](std::size_t i, std::size_t g,
                         const sim::SessionMetrics& m) {
      sessions.add(static_cast<std::uint64_t>(i));
      sessions.add(static_cast<std::uint64_t>(g));
      hash_metrics(sessions, m);
      *fault_stalls += m.fault_stall_count;
      *rebuffers += m.rebuffer_count;
    });
    runner.finish();
  }

  Fnv1a cells;
  const exp::AbTestResult result = exp::run_ab_test(groups, library, cfg);
  for (const auto& group : result.cells) {
    for (const auto& day : group) {
      for (const exp::WindowMetrics& w : day) hash_cell(cells, w);
    }
  }
  return {sessions.h, cells.h};
}

void expect_pinned(bool faulted, Pins want) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    long long fault_stalls = 0;
    long long rebuffers = 0;
    const Pins got =
        run_grid(grid_config(faulted, threads), &fault_stalls, &rebuffers);
    EXPECT_GT(rebuffers, 0);
    if (faulted) {
      EXPECT_GT(fault_stalls, 0);
    } else {
      EXPECT_EQ(fault_stalls, 0);
    }
    EXPECT_EQ(got.sessions, want.sessions)
        << std::hex << "sessions 0x" << got.sessions << std::dec
        << " threads=" << threads;
    EXPECT_EQ(got.cells, want.cells)
        << std::hex << "cells 0x" << got.cells << std::dec
        << " threads=" << threads;
  }
}

TEST(EngineGolden, AllAbrsWithoutFaults) {
  expect_pinned(false, {0xe697fa64306c39a6ULL, 0x9c3118feccd9a0b4ULL});
}

TEST(EngineGolden, AllAbrsWithFaults) {
  expect_pinned(true, {0x9b1421576bc445ddULL, 0xca3d98c8e2a4e834ULL});
}

}  // namespace
