#include "sim/batch_player.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "net/fault_inject.hpp"
#include "obs/metrics.hpp"
#include "sim/session_loop.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace bba::sim {

namespace {

// Grows the pending ring (cold path; steady state never hits it once the
// ring covers buffer_capacity / V chunks). Compacts the live FIFO window
// to the front of the grown ring.
void grow_ring(BatchScratch& scratch, std::size_t head, std::size_t cnt) {
  std::vector<BatchPendingChunk> grown(
      std::max<std::size_t>(64, scratch.ring.size() * 2));
  for (std::size_t i = 0; i < cnt; ++i) {
    grown[i] = scratch.ring[(head + i) & scratch.ring_mask];
  }
  scratch.ring.swap(grown);
  scratch.ring_mask = scratch.ring.size() - 1;
}

// The fused session kernel: one whole session, every hot variable local so
// the compiler keeps the chunk loop's state in registers (a per-chunk
// step-call boundary costs ~20 member load/stores per chunk -- measured,
// the difference between ~40 ns and ~25 ns per chunk; see docs/perf.md).
//
// Every arithmetic expression replicates its scalar counterpart exactly:
// the Bba1/Bba2 decision order (core/bba1.cpp, core/bba2.cpp), the player
// loop (sim/player.cpp), and the StreamingMetricsSink fold order
// (sim/session_sink.cpp). Bit-identical results depend on that ordering,
// so treat the scalar sources as the normative reference when editing.
template <class Src>
void lane_run(Src src, const media::DecisionTable& dt,
              const abr::BatchDecisionProfile& p, const PlayerConfig& config,
              double watch_limit, bool memo_built_now, BatchScratch& scratch,
              SessionMetrics* out) {
  const double V = dt.V;
  const double cap = config.buffer_capacity_s;
  const double knee = p.upper_knee_fraction * cap;
  const double knee_cushioned = knee - p.min_cushion_s;
  const double accrue_below = p.outage_accrue_below_fraction * cap;
  const double res_min = p.reservoir_min_s;
  const double res_max = p.reservoir_max_s;
  const std::size_t nch = dt.n;
  const std::size_t n_rates = dt.n_rates;
  const std::size_t max_index = n_rates - 1;
  const double* szt = dt.szt.data();
  const std::size_t row_stride = dt.row_stride;
  const double* rates = dt.rate_bps.data();
  const double chunk_min_mean = dt.chunk_min_mean;
  const double chunk_max_mean = dt.chunk_max_mean;
  net::LaneCursor cur;

  // player
  double t = 0.0, buffer = 0.0, played = 0.0;
  bool playing = false, started = false, abandoned = false;
  double stall_start = -1.0, last_dl = 0.0, join_s = 0.0;
  std::size_t prev_rate = 0, k = 0;
  // bba
  bool in_startup = p.startup;
  double startup_prev_buffer = 0.0;
  double eff_res = res_min;
  double outage_s = 0.0, prev_buffer = 0.0;
  bool has_prev_buffer = false;
  // sink
  BatchPendingChunk* ring = scratch.ring.data();
  std::size_t mask = scratch.ring_mask, head = 0, cnt = 0;
  double total_w = 0.0, total_r = 0.0, start_w = 0.0, start_r = 0.0,
         steady_w = 0.0, steady_r = 0.0;
  long long switches = 0, rebuf_n = 0, fault_stalls = 0;
  double rebuf_s = 0.0;
  double buf_sum = 0.0;
  long long buf_n = 0;
  std::size_t sink_prev = 0;
  bool sink_has_prev = false;
  // obs
  std::uint32_t obs_chunks = 0, obs_offs = 0, obs_sw = 0;
  std::uint32_t decisions = 0;

  // Fault attribution, as the player's stall_during_fault: the stall
  // overlaps an injected fault window in some cycle of the looping trace.
  // Faulted lanes always carry their materialized trace (asserted by
  // simulate_session_batch), so the source's cycle length is known.
  const std::vector<net::InjectedFault>* faults = config.faults;
  auto close_stall = [&](double resume_t) {
    if (stall_start >= 0.0) {
      obs::count(obs::Counter::kRebuffers);
      obs::observe(obs::Hist::kStallSeconds, resume_t - stall_start);
      ++rebuf_n;
      rebuf_s += resume_t - stall_start;
      if (faults != nullptr &&
          net::fault_overlaps(*faults, src.cycle_s(), /*loops=*/true,
                              stall_start, resume_t)) {
        ++fault_stalls;
      }
      stall_start = -1.0;
    }
  };

  while (k < nch && played < watch_limit) {
    // ON-OFF: wait out the buffer overshoot before the next request.
    double off_wait = 0.0;
    if (buffer + V > cap) {
      off_wait = buffer + V - cap;
      const double need = watch_limit - played;
      if (need <= off_wait) {
        t += need;
        buffer -= need;
        played = watch_limit;
        break;
      }
      t += off_wait;
      buffer -= off_wait;
      played += off_wait;
    }

    // ---- BBA decision (exact Bba1/Bba2::choose_rate order) ----
    ++decisions;
    const double delta_buffer = last_dl > 0.0 ? V - last_dl : 0.0;
    const double* row = szt + k * row_stride;
    const double* sz = row + 1;
    if (p.outage_protection && !in_startup && has_prev_buffer &&
        buffer > prev_buffer && buffer < accrue_below) {
      outage_s = std::min(outage_s + p.outage_accrual_s, p.outage_cap_s);
    }
    prev_buffer = buffer;
    has_prev_buffer = true;
    const double dynamic = std::clamp(row[0], res_min, res_max);
    double effective = std::min(dynamic + outage_s, knee_cushioned);
    if (p.monotone_reservoir) effective = std::max(effective, eff_res);
    eff_res = effective;
    const std::size_t prev = k == 0 ? std::min(p.start_index, max_index)
                                    : std::min(prev_rate, max_index);
    if (in_startup && k > 0) {
      // BBA-2 startup exit: buffer decreasing, or the chunk map suggests a
      // higher rate than the one in use.
      const bool buffer_decreasing = buffer < startup_prev_buffer;
      std::size_t suggestion;
      if (buffer <= effective) {
        suggestion = 0;
      } else if (buffer >= knee) {
        suggestion = max_index;
      } else {
        const double frac = (buffer - effective) / (knee - effective);
        const double bits =
            chunk_min_mean + frac * (chunk_max_mean - chunk_min_mean);
        std::size_t best = 0;
        for (std::size_t i = 0; i < n_rates; ++i) {
          if (sz[i] <= bits) best = i;
        }
        suggestion = best;
      }
      if (buffer_decreasing || suggestion > prev) in_startup = false;
    }
    startup_prev_buffer = buffer;
    std::size_t r;
    if (!in_startup) {
      // Steady state: generalized Algorithm 1 over the chunk map.
      if (buffer <= effective) {
        r = 0;
      } else if (buffer >= knee) {
        r = max_index;
      } else {
        const double frac = (buffer - effective) / (knee - effective);
        const double bits =
            chunk_min_mean + frac * (chunk_max_mean - chunk_min_mean);
        const std::size_t rate_plus = prev < max_index ? prev + 1 : max_index;
        const std::size_t rate_minus = prev > 0 ? prev - 1 : 0;
        if (rate_plus != prev && bits >= sz[rate_plus]) {
          std::size_t candidate = prev;
          for (std::size_t i = 0; i < n_rates; ++i) {
            if (sz[i] < bits) candidate = i;
          }
          r = std::max(candidate, prev);
        } else if (rate_minus != prev && bits <= sz[rate_minus]) {
          std::size_t candidate = 0;
          for (std::size_t i = n_rates; i-- > 0;) {
            if (sz[i] > bits) candidate = i;
          }
          r = std::min(candidate, prev);
        } else {
          r = prev;
        }
      }
    } else if (k == 0) {
      r = prev;  // first request: nothing is known yet
    } else {
      // Startup ramp: step up when the last chunk filled fast enough.
      const double frac = std::clamp(buffer / knee, 0.0, 1.0);
      const double threshold_frac =
          p.threshold_at_empty +
          (p.threshold_at_knee - p.threshold_at_empty) * frac;
      const double threshold = threshold_frac * V;
      r = delta_buffer > threshold ? (prev < max_index ? prev + 1 : max_index)
                                   : prev;
    }

    // ---- download ----
    const double size = sz[r];
    const double req_t = t;
    const double finish = cur.finish_time_s(src, t, size);
    if (!std::isfinite(finish)) {
      // Dead link: drain what is buffered, then give up.
      if (playing) {
        const double drain = std::min(buffer, watch_limit - played);
        played += drain;
        t += drain;
        buffer -= drain;
      }
      abandoned = true;
      break;
    }
    const double dl = finish - req_t;

    if (playing) {
      const double need = watch_limit - played;
      if (need <= std::min(dl, buffer)) {
        // The user finishes their session while this chunk is in flight.
        t += need;
        buffer -= need;
        played = watch_limit;
        break;
      }
      if (dl > buffer) {
        // Buffer runs dry mid-download: stall until the chunk lands.
        stall_start = t + buffer;
        played += buffer;
        buffer = 0.0;
        playing = false;
      } else {
        buffer -= dl;
        played += dl;
      }
    }

    buffer += V;
    t = finish;

    if (!playing) {
      const double threshold =
          started ? config.resume_threshold_s : config.play_threshold_s;
      if (buffer >= threshold || k + 1 == nch) {
        playing = true;
        if (!started) {
          started = true;
          join_s = t;
        } else {
          close_stall(t);
        }
      }
    }

    last_dl = dl;
    ++obs_chunks;
    obs::observe(obs::Hist::kDownloadSeconds, dl);
    if (off_wait > 0.0) {
      ++obs_offs;
      obs::observe(obs::Hist::kOffWaitSeconds, off_wait);
    }
    if (k > 0 && r != prev_rate) ++obs_sw;

    // ---- streaming metrics fold (exact StreamingMetricsSink order) ----
    if (sink_has_prev && r != sink_prev) ++switches;
    sink_prev = r;
    sink_has_prev = true;
    // `buffer` here equals ChunkRecord::buffer_after_s (post buffer += V),
    // summed in download order like the scalar sinks.
    buf_sum += buffer;
    ++buf_n;
    if (cnt == mask + 1) {
      grow_ring(scratch, head, cnt);
      ring = scratch.ring.data();
      mask = scratch.ring_mask;
      head = 0;
    }
    const double position_s = V * static_cast<double>(k);
    ring[(head + cnt) & mask] = {position_s, rates[r]};
    ++cnt;
    while (cnt > 0) {
      const BatchPendingChunk front = ring[head];
      if (!(played - front.position_s >= V)) break;
      const double start_overlap =
          std::clamp(120.0 - front.position_s, 0.0, V);
      total_w += V;
      total_r += front.rate_bps * V;
      start_w += start_overlap;
      start_r += front.rate_bps * start_overlap;
      const double steady_overlap = V - start_overlap;
      steady_w += steady_overlap;
      steady_r += front.rate_bps * steady_overlap;
      head = (head + 1) & mask;
      --cnt;
    }
    prev_rate = r;
    ++k;
  }

  // ---- finish_session (shared by every exit path) ----
  if (!started && buffer > 0.0) {
    started = true;
    join_s = t;
    playing = true;
  }
  if (playing || buffer > 0.0) {
    close_stall(t);
    const double drain = std::min(buffer, std::max(0.0, watch_limit - played));
    played += drain;
    t += drain;
    buffer -= drain;
  }
  close_stall(t);  // session ended while stalled: close at session end

  // ---- sink end-of-session fold ----
  SessionMetrics m;
  m.play_s = played;
  m.join_s = started ? join_s : 0.0;
  m.abandoned = abandoned;
  m.rebuffer_count = rebuf_n;
  m.rebuffer_s = rebuf_s;
  m.fault_stall_count = fault_stalls;
  const double play_hours = util::to_hours(played);
  if (play_hours > 0.0) {
    m.rebuffers_per_hour = static_cast<double>(rebuf_n) / play_hours;
  }
  for (std::size_t i = 0; i < cnt; ++i) {
    const BatchPendingChunk c = ring[(head + i) & mask];
    const double lo = c.position_s;
    const double played_portion = std::clamp(played - lo, 0.0, V);
    if (played_portion <= 0.0) continue;
    const double start_overlap =
        std::clamp(std::min(120.0, played) - lo, 0.0, played_portion);
    total_w += played_portion;
    total_r += c.rate_bps * played_portion;
    start_w += start_overlap;
    start_r += c.rate_bps * start_overlap;
    const double steady_overlap = played_portion - start_overlap;
    steady_w += steady_overlap;
    steady_r += c.rate_bps * steady_overlap;
  }
  if (buf_n > 0) m.avg_buffer_s = buf_sum / static_cast<double>(buf_n);
  if (total_w > 0.0) m.avg_rate_bps = total_r / total_w;
  if (start_w > 0.0) m.startup_rate_bps = start_r / start_w;
  if (steady_w > 0.0) {
    m.steady_rate_bps = steady_r / steady_w;
    m.has_steady = true;
    m.steady_play_s = steady_w;
  }
  m.switch_count = switches;
  if (play_hours > 0.0) {
    m.switches_per_hour = static_cast<double>(switches) / play_hours;
  }
  *out = m;

  // ---- obs flush (scalar simulate_session's end-of-session counts) ----
  obs::count(obs::Counter::kSessions);
  if (abandoned) obs::count(obs::Counter::kSessionsAbandoned);
  obs::count(obs::Counter::kChunksDownloaded, obs_chunks);
  obs::count(obs::Counter::kOffPeriods, obs_offs);
  obs::count(obs::Counter::kRateSwitches, obs_sw);
  obs::count(obs::Counter::kCursorQueries, cur.queries);
  obs::count(obs::Counter::kCursorRewinds, cur.rewinds);
  // Reservoir memo accounting: the scalar path calls window_sums once per
  // decision -- one memo hit each, except that the very first call on a
  // cold ChunkTable memo is a build. The kernel reads the decision table
  // instead; building that table performed exactly one real window_sums
  // call (a build or a hit, counted there), so the building session
  // reports decisions - 1 manual hits and everyone else reports decisions.
  // Summed over any number of slots, threads, and repeat runs this equals
  // the scalar totals exactly (see docs/perf.md).
  if (decisions > 0) {
    obs::count(obs::Counter::kReservoirMemoHits,
               memo_built_now ? decisions - 1 : decisions);
  }
}

// Scalar oracle for ineligible lanes: identical behaviour and obs events
// to the pre-batch dispatch. Stream-backed lanes materialize the identical
// trace the lazy generator would have produced.
void run_fallback(BatchLane& lane, BatchScratch& scratch) {
  const net::CapacityTrace* trace = lane.trace;
  if (trace == nullptr) {
    util::Rng rng = lane.stream_rng;
    net::make_markov_trace_into(*lane.stream, rng, scratch.trace_scratch.segments);
    scratch.fallback_trace.assign(scratch.trace_scratch.segments,
                                  /*loop=*/true);
    trace = &scratch.fallback_trace;
  }
  simulate_session_into(*lane.video, *trace, *lane.abr, lane.config,
                        scratch.sink);
  *lane.out = scratch.sink.metrics();
}

}  // namespace

bool batch_lane_eligible(const abr::BatchDecisionProfile& profile,
                         const PlayerConfig& config,
                         const media::Video& video,
                         const net::CapacityTrace* trace) {
  const media::EncodingLadder& ladder = video.ladder();
  const double V = video.chunk_duration_s();
  const double remaining = V * static_cast<double>(video.num_chunks());
  const double watch_limit = std::min(config.watch_duration_s, remaining);
  return profile.cache_window_sums && !config.tcp.has_value() &&
         std::isinf(config.max_wall_s) && config.max_wall_s > 0.0 &&
         std::isinf(config.give_up_stall_s) && config.give_up_stall_s > 0.0 &&
         config.start_chunk == 0 && config.start_wall_s == 0.0 &&
         config.position_offset_s == 0.0 && config.use_trace_cursor &&
         watch_limit > 0.0 &&
         config.buffer_capacity_s >= V && config.play_threshold_s > 0.0 &&
         config.resume_threshold_s > 0.0 && ladder.min_index() == 0 &&
         ladder.max_index() + 1 == ladder.size() &&
         (trace == nullptr || trace->loops());
}

void simulate_session_batch(std::span<BatchLane> lanes,
                            BatchScratch& scratch) {
  scratch.stream_keys.clear();
  if (scratch.ring.empty()) {
    scratch.ring.resize(64);
    scratch.ring_mask = 63;
  }
  for (BatchLane& lane : lanes) {
    BBA_ASSERT(lane.video != nullptr && lane.abr != nullptr &&
                   lane.out != nullptr,
               "batch lane missing video/abr/out");
    BBA_ASSERT((lane.trace != nullptr) != (lane.stream != nullptr),
               "batch lane needs exactly one trace source");
    BBA_ASSERT(lane.config.faults == nullptr || lane.trace != nullptr,
               "faulted batch lane needs its materialized, faulted trace");
    abr::BatchDecisionProfile profile;
    if (!lane.abr->batch_profile(&profile) ||
        !batch_lane_eligible(profile, lane.config, *lane.video, lane.trace)) {
      run_fallback(lane, scratch);
      continue;
    }
    // The scalar player resets the ABR at session start; the kernel never
    // touches the instance, so reset it here to keep reused instances in
    // the same state either way.
    lane.abr->reset();
    const media::Video& video = *lane.video;
    const double V = video.chunk_duration_s();
    const std::size_t window_chunks = static_cast<std::size_t>(
        std::max(1.0, std::floor(profile.lookahead_s / V)));
    bool built_now = false;
    const media::DecisionTable& dt =
        scratch.tables.get(video, window_chunks, &built_now);
    const double remaining = V * static_cast<double>(dt.n);
    const double watch_limit =
        std::min(lane.config.watch_duration_s, remaining);

    if (lane.trace != nullptr) {
      net::FixedSource src;
      src.bind(*lane.trace);
      lane_run(src, dt, profile, lane.config, watch_limit, built_now,
               scratch, lane.out);
      continue;
    }
    net::TraceStream* ts;
    if (lane.stream_key == 0) {
      ts = &scratch.private_stream;
      ts->reset(*lane.stream, lane.stream_rng);
    } else {
      std::size_t idx = scratch.stream_keys.size();
      for (std::size_t i = 0; i < scratch.stream_keys.size(); ++i) {
        if (scratch.stream_keys[i] == lane.stream_key) {
          idx = i;
          break;
        }
      }
      if (idx == scratch.stream_keys.size()) {
        scratch.stream_keys.push_back(lane.stream_key);
        if (scratch.streams.size() < scratch.stream_keys.size()) {
          scratch.streams.push_back(std::make_unique<net::TraceStream>());
        }
        scratch.streams[idx]->reset(*lane.stream, lane.stream_rng);
      }
      ts = scratch.streams[idx].get();
    }
    net::StreamSource src{ts};
    lane_run(src, dt, profile, lane.config, watch_limit, built_now, scratch,
             lane.out);
  }
}

}  // namespace bba::sim
