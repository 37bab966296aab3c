// Tests for the BOLA baseline (forward-looking buffer-based comparison).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "abr/bola.hpp"
#include "media/vbr.hpp"
#include "media/video.hpp"
#include "net/capacity_trace.hpp"
#include "net/fault_inject.hpp"
#include "net/trace_gen.hpp"
#include "sim/metrics.hpp"
#include "sim/player.hpp"
#include "sim/session_sink.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace bba::abr {
namespace {

using util::kbps;
using util::mbps;

const media::Video& cbr_video() {
  static const media::Video v = media::make_cbr_video(
      "t", media::EncodingLadder::netflix_2013(), 900, 4.0);
  return v;
}

Observation obs_at(double buffer_s) {
  Observation obs;
  obs.chunk_index = 10;
  obs.buffer_s = buffer_s;
  obs.buffer_max_s = 240.0;
  obs.prev_rate_index = 0;
  obs.playing = true;
  obs.video = &cbr_video();
  return obs;
}

TEST(Bola, PicksRminAtEmptyBuffer) {
  BolaAbr bola;
  EXPECT_EQ(bola.choose_rate(obs_at(0.0)), 0u);
  EXPECT_EQ(bola.choose_rate(obs_at(5.0)), 0u);
}

TEST(Bola, PicksRmaxAtFullBuffer) {
  BolaAbr bola;
  EXPECT_EQ(bola.choose_rate(obs_at(240.0)),
            cbr_video().ladder().max_index());
}

TEST(Bola, ChoiceIsMonotoneInBuffer) {
  // The Lyapunov objective induces a monotone buffer-to-rate map -- the
  // same family the paper's Sec. 3 characterizes.
  BolaAbr bola;
  std::size_t prev = 0;
  for (double b = 0.0; b <= 240.0; b += 1.0) {
    const std::size_t pick = bola.choose_rate(obs_at(b));
    EXPECT_GE(pick, prev) << "buffer " << b;
    prev = pick;
  }
  EXPECT_EQ(prev, cbr_video().ladder().max_index());
}

TEST(Bola, ObjectivePerByteStructure) {
  // At low buffer the smallest rendition has the best per-byte value; at
  // high buffer the largest does.
  BolaAbr bola;
  EXPECT_GT(bola.objective(obs_at(0.0), 0),
            bola.objective(obs_at(0.0), 8));
  EXPECT_LT(bola.objective(obs_at(239.0), 0),
            bola.objective(obs_at(239.0), 8));
}

TEST(Bola, ThresholdsShiftTheMap) {
  BolaConfig eager;
  eager.min_threshold_s = 6.0;
  eager.max_threshold_s = 60.0;
  BolaAbr fast(eager);
  BolaAbr stock;
  // At a mid buffer the eager configuration picks a higher rendition.
  EXPECT_GT(fast.choose_rate(obs_at(50.0)), stock.choose_rate(obs_at(50.0)));
}

TEST(Bola, NoUnnecessaryRebufferEndToEnd) {
  // As a monotone buffer-based map pinned at R_min near empty, BOLA
  // inherits the Sec. 3 guarantee.
  BolaAbr bola;
  const net::CapacityTrace trace({{30.0, kbps(260)}, {30.0, mbps(8)}});
  sim::PlayerConfig player;
  player.watch_duration_s = 1800.0;
  const sim::SessionResult r =
      sim::simulate_session(cbr_video(), trace, bola, player);
  EXPECT_TRUE(r.rebuffers.empty());
}

TEST(Bola, TracksCapacityOnConstantLink) {
  BolaAbr bola;
  const net::CapacityTrace trace = net::CapacityTrace::constant(mbps(2.5));
  sim::PlayerConfig player;
  player.watch_duration_s = 2400.0;
  const sim::SessionMetrics m = sim::compute_metrics(
      sim::simulate_session(cbr_video(), trace, bola, player));
  EXPECT_EQ(m.rebuffer_count, 0);
  EXPECT_GT(m.steady_rate_bps, kbps(1500));
  EXPECT_LE(m.steady_rate_bps, mbps(2.5));
}

TEST(Bola, NameIsStable) { EXPECT_EQ(BolaAbr().name(), "bola"); }

// --- Reference oracle ------------------------------------------------------
//
// The straightforward BOLA-BASIC formula: every call recomputes the
// utilities (one std::log each) from the chunk table. BolaAbr caches the
// per-title constants; it must agree with this bit for bit.

double reference_utility(const Observation& obs, std::size_t m) {
  const auto& chunks = obs.video->chunks();
  return 1.0 + std::log(chunks.mean_size_bits(m) / chunks.mean_size_bits(0));
}

double reference_objective(const BolaConfig& cfg, const Observation& obs,
                           std::size_t m) {
  const auto& chunks = obs.video->chunks();
  const double u_top =
      reference_utility(obs, obs.video->ladder().max_index());
  const double gp =
      u_top > 1.0
          ? (u_top - 1.0) / (cfg.max_threshold_s / cfg.min_threshold_s - 1.0)
          : 1.0;
  const double vp = cfg.min_threshold_s / gp;
  return (vp * (reference_utility(obs, m) + gp) - obs.buffer_s) /
         chunks.mean_size_bits(m);
}

std::size_t reference_choice(const BolaConfig& cfg, const Observation& obs) {
  std::size_t best = 0;
  double best_value = reference_objective(cfg, obs, 0);
  for (std::size_t m = 1; m < obs.video->ladder().size(); ++m) {
    const double value = reference_objective(cfg, obs, m);
    if (value > best_value) {
      best_value = value;
      best = m;
    }
  }
  return best;
}

const media::Video& vbr_video() {
  static const media::Video v = [] {
    util::Rng rng(11);
    return media::make_vbr_video("vbr", media::EncodingLadder::netflix_2013(),
                                 900, 4.0, media::VbrConfig{}, rng);
  }();
  return v;
}

const media::Video& rmin560_video() {
  static const media::Video v = media::make_cbr_video(
      "rmin560", media::EncodingLadder::netflix_2013_rmin560(), 900, 4.0);
  return v;
}

Observation obs_for(const media::Video& video, double buffer_s) {
  Observation obs = obs_at(buffer_s);
  obs.video = &video;
  return obs;
}

TEST(Bola, ObjectiveAndChoiceMatchReferenceBitForBit) {
  BolaConfig eager;
  eager.min_threshold_s = 6.0;
  eager.max_threshold_s = 60.0;
  const BolaConfig configs[] = {BolaConfig{}, eager};
  const media::Video* videos[] = {&cbr_video(), &vbr_video(),
                                  &rmin560_video()};
  for (const BolaConfig& cfg : configs) {
    for (const media::Video* video : videos) {
      BolaAbr bola(cfg);
      for (int step = 0; step <= 960; ++step) {
        const Observation obs = obs_for(*video, 0.25 * step);
        for (std::size_t m = 0; m < video->ladder().size(); ++m) {
          const double got = bola.objective(obs, m);
          const double want = reference_objective(cfg, obs, m);
          EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
              << video->name() << " buffer " << obs.buffer_s << " m " << m;
        }
        EXPECT_EQ(bola.choose_rate(obs), reference_choice(cfg, obs))
            << video->name() << " buffer " << obs.buffer_s;
      }
    }
  }
}

// --- Per-title constants cache ---------------------------------------------

// Decisions of a fresh instance over a buffer sweep: the uncached answer.
std::vector<std::size_t> fresh_sweep(const media::Video& video) {
  std::vector<std::size_t> picks;
  for (int step = 0; step <= 240; ++step) {
    BolaAbr fresh;
    picks.push_back(fresh.choose_rate(obs_for(video, step)));
  }
  return picks;
}

std::vector<std::size_t> sweep(BolaAbr& bola, const media::Video& video) {
  std::vector<std::size_t> picks;
  for (int step = 0; step <= 240; ++step) {
    picks.push_back(bola.choose_rate(obs_for(video, step)));
  }
  return picks;
}

TEST(Bola, ReusedInstanceFollowsVideoChanges) {
  const media::Video& a = cbr_video();      // 9 rungs
  const media::Video& b = rmin560_video();  // 7 rungs
  const std::vector<std::size_t> want_a = fresh_sweep(a);
  const std::vector<std::size_t> want_b = fresh_sweep(b);
  ASSERT_NE(want_a, want_b);
  for (const bool with_reset : {false, true}) {
    BolaAbr bola;
    for (int round = 0; round < 3; ++round) {
      EXPECT_EQ(sweep(bola, a), want_a) << "round " << round;
      if (with_reset) bola.reset();
      EXPECT_EQ(sweep(bola, b), want_b) << "round " << round;
      if (with_reset) bola.reset();
    }
    // Interleaved per decision, not per sweep.
    for (int step = 0; step <= 240; ++step) {
      EXPECT_EQ(bola.choose_rate(obs_for(a, step)), want_a[step]);
      EXPECT_EQ(bola.choose_rate(obs_for(b, step)), want_b[step]);
    }
  }
}

TEST(Bola, ResetDropsConstantsOfATitleRebuiltAtTheSameAddress) {
  // A title freed and a different one built in the same storage: the
  // Observation's video pointer is unchanged, so only reset() (which the
  // player issues at every session start) tells the instance to
  // recompute.
  const media::EncodingLadder narrow(
      {kbps(235), kbps(300), kbps(400), kbps(500), kbps(600), kbps(700),
       kbps(800), kbps(900), kbps(1000)});
  ASSERT_EQ(narrow.size(), media::EncodingLadder::netflix_2013().size());
  std::optional<media::Video> slot;
  slot.emplace(media::make_cbr_video(
      "wide", media::EncodingLadder::netflix_2013(), 900, 4.0));
  const media::Video* first = &*slot;
  const std::vector<std::size_t> want_wide = fresh_sweep(*slot);

  BolaAbr bola;
  EXPECT_EQ(sweep(bola, *slot), want_wide);

  slot.reset();
  slot.emplace(media::make_cbr_video("narrow", narrow, 900, 4.0));
  ASSERT_EQ(&*slot, first);
  const std::vector<std::size_t> want_narrow = fresh_sweep(*slot);
  ASSERT_NE(want_wide, want_narrow);

  bola.reset();
  EXPECT_EQ(sweep(bola, *slot), want_narrow);
  for (int step = 0; step <= 240; ++step) {
    const Observation obs = obs_for(*slot, step);
    for (std::size_t m = 0; m < slot->ladder().size(); ++m) {
      const double got = bola.objective(obs, m);
      const double want = reference_objective(BolaConfig{}, obs, m);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0);
    }
  }
}

// --- Golden pin of whole-session decisions ---------------------------------
//
// BOLA's rate sequence and SessionMetrics over generated traces, with and
// without injected faults, hashed with FNV-1a. The constant was recorded
// from the uncached formula; any change to a decision or to a metric bit
// changes the hash.

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

TEST(Bola, GoldenDecisionSequence) {
  const std::string spec =
      "outage:every=120,dur=20..35;spike:every=90,dur=5..15,depth=0.1..0.3;"
      "failover:every=600,dur=1..3,shift=0.4..0.7";
  net::FaultPlan plan;
  ASSERT_TRUE(net::parse_fault_plan(spec, &plan));

  Fnv1a f;
  std::size_t chunks = 0;
  long long switches = 0;
  long long fault_stalls = 0;
  BolaAbr bola;  // one instance across sessions, as the harness reuses it
  sim::SessionResult result;
  sim::RecordingSink sink(&result);
  for (const std::uint64_t seed : {2014ULL, 7ULL, 99ULL}) {
    for (const media::Video* video : {&cbr_video(), &vbr_video()}) {
      for (const bool faulted : {false, true}) {
        util::Rng rng(seed);
        net::MarkovTraceConfig tcfg;
        tcfg.median_bps = 1.5e6;
        tcfg.duration_s = 1800.0;
        net::CapacityTrace trace = net::make_markov_trace(tcfg, rng);
        std::vector<net::InjectedFault> events;
        if (faulted) trace = net::with_faults(trace, plan, rng, &events);
        sim::PlayerConfig player;
        player.watch_duration_s = 1200.0;
        if (faulted) player.faults = &events;
        sim::simulate_session(*video, trace, bola, player, sink);
        for (const sim::ChunkRecord& c : result.chunks) {
          f.add(static_cast<std::uint64_t>(c.rate_index));
        }
        chunks += result.chunks.size();
        const sim::SessionMetrics m = sim::compute_metrics(result);
        switches += m.switch_count;
        fault_stalls += m.fault_stall_count;
        hash_metrics(f, m);
      }
    }
  }
  // The pin covers rate switches and fault-attributed stalls.
  EXPECT_GT(chunks, 0u);
  EXPECT_GT(switches, 0);
  EXPECT_GT(fault_stalls, 0);
  EXPECT_EQ(f.h, 0x9e3d03057a3f16dfULL) << std::hex << "0x" << f.h;
}

}  // namespace
}  // namespace bba::abr
