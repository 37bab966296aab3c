#include "sim/batch_player.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/metrics.hpp"
#include "sim/session_loop.hpp"
#include "util/assert.hpp"

namespace bba::sim {

namespace {

// BBA-1/BBA-2's choose_rate read off a media::DecisionTable: the exact
// Bba1/Bba2 decision order (core/bba1.cpp, core/bba2.cpp) -- reservoir,
// outage accrual, BBA-2's startup exit and ramp, the hysteresis barriers
// -- with chunk k's raw reservoir and its size at every rate read from one
// table row instead of the ChunkTable rows and the window-sum memo. Like
// those classes it reads only abr::Observation fields. The table is
// fetched at the first decision, so a session that decides nothing builds
// nothing.
class TableDecision final {
 public:
  TableDecision(const abr::BatchDecisionProfile& profile,
                media::DecisionTableCache& tables, std::size_t window_chunks)
      : p_(profile), tables_(&tables), window_chunks_(window_chunks) {}

  void reset() {
    in_startup_ = p_.startup;
    startup_prev_buffer_ = 0.0;
    eff_res_ = p_.reservoir_min_s;
    outage_s_ = 0.0;
    prev_buffer_ = 0.0;
    has_prev_buffer_ = false;
  }

  // Inlined into the loop even though it is large: called once per chunk,
  // and out of line its state could not stay in registers.
  [[gnu::always_inline]] std::size_t choose_rate(const abr::Observation& obs) {
    if (szt_ == nullptr) fetch(*obs.video);
    ++decisions_;
    const double buffer = obs.buffer_s;
    const double knee = p_.upper_knee_fraction * obs.buffer_max_s;
    const std::size_t k = obs.chunk_index;
    const double* row = szt_ + k * row_stride_;
    const double* sz = row + 1;
    if (p_.outage_protection && !in_startup_ && has_prev_buffer_ &&
        buffer > prev_buffer_ &&
        buffer < p_.outage_accrue_below_fraction * obs.buffer_max_s) {
      outage_s_ = std::min(outage_s_ + p_.outage_accrual_s, p_.outage_cap_s);
    }
    prev_buffer_ = buffer;
    has_prev_buffer_ = true;
    const double dynamic =
        std::clamp(row[0], p_.reservoir_min_s, p_.reservoir_max_s);
    double effective = std::min(dynamic + outage_s_, knee - p_.min_cushion_s);
    if (p_.monotone_reservoir) effective = std::max(effective, eff_res_);
    eff_res_ = effective;
    const std::size_t prev =
        std::min(k == 0 ? p_.start_index : obs.prev_rate_index, max_index_);
    if (in_startup_ && k > 0) {
      // BBA-2 startup exit: buffer decreasing, or the chunk map suggests a
      // higher rate than the one in use.
      const bool buffer_decreasing = buffer < startup_prev_buffer_;
      std::size_t suggestion;
      if (buffer <= effective) {
        suggestion = 0;
      } else if (buffer >= knee) {
        suggestion = max_index_;
      } else {
        const double bits = map_bits(buffer, effective, knee);
        std::size_t best = 0;
        for (std::size_t i = 0; i <= max_index_; ++i) {
          if (sz[i] <= bits) best = i;
        }
        suggestion = best;
      }
      if (buffer_decreasing || suggestion > prev) in_startup_ = false;
    }
    startup_prev_buffer_ = buffer;
    if (in_startup_) {
      if (k == 0) return prev;  // first request: nothing is known yet
      // Startup ramp: step up when the last chunk filled fast enough.
      const double frac = std::clamp(buffer / knee, 0.0, 1.0);
      const double threshold_frac =
          p_.threshold_at_empty +
          (p_.threshold_at_knee - p_.threshold_at_empty) * frac;
      return obs.delta_buffer_s > threshold_frac * V_
                 ? (prev < max_index_ ? prev + 1 : max_index_)
                 : prev;
    }
    // Steady state: generalized Algorithm 1 over the chunk map.
    if (buffer <= effective) return 0;
    if (buffer >= knee) return max_index_;
    const double bits = map_bits(buffer, effective, knee);
    const std::size_t rate_plus = prev < max_index_ ? prev + 1 : max_index_;
    const std::size_t rate_minus = prev > 0 ? prev - 1 : 0;
    if (rate_plus != prev && bits >= sz[rate_plus]) {
      std::size_t candidate = prev;
      for (std::size_t i = 0; i <= max_index_; ++i) {
        if (sz[i] < bits) candidate = i;
      }
      return std::max(candidate, prev);
    }
    if (rate_minus != prev && bits <= sz[rate_minus]) {
      std::size_t candidate = 0;
      for (std::size_t i = max_index_ + 1; i-- > 0;) {
        if (sz[i] > bits) candidate = i;
      }
      return std::min(candidate, prev);
    }
    return prev;
  }

  // Reservoir memo accounting: the scalar path calls window_sums once per
  // decision -- one memo hit each, except that the very first call on a
  // cold ChunkTable memo is a build. This class reads the decision table
  // instead; building that table performed exactly one real window_sums
  // call (a build or a hit, counted there), so the building session
  // reports decisions - 1 manual hits and everyone else reports decisions.
  // Summed over any number of slots, threads, and repeat runs this equals
  // the scalar totals exactly (see docs/perf.md).
  void count_memo_hits() const {
    if (decisions_ > 0) {
      obs::count(obs::Counter::kReservoirMemoHits,
                 built_now_ ? decisions_ - 1 : decisions_);
    }
  }

 private:
  // Inlined like choose_rate: called out of line, `this` would escape and
  // the decision's state could not live in registers.
  [[gnu::always_inline]] void fetch(const media::Video& video) {
    bool built_now = false;
    const media::DecisionTable& dt =
        tables_->get(video, window_chunks_, &built_now);
    built_now_ = built_now;
    szt_ = dt.szt.data();
    row_stride_ = dt.row_stride;
    max_index_ = dt.n_rates - 1;
    chunk_min_mean_ = dt.chunk_min_mean;
    chunk_max_mean_ = dt.chunk_max_mean;
    V_ = dt.V;
  }

  // The chunk map: the largest chunk allowed at `buffer`.
  double map_bits(double buffer, double effective, double knee) const {
    const double frac = (buffer - effective) / (knee - effective);
    return chunk_min_mean_ + frac * (chunk_max_mean_ - chunk_min_mean_);
  }

  const abr::BatchDecisionProfile p_;
  media::DecisionTableCache* const tables_;
  const std::size_t window_chunks_;

  // The table, from the first decision on.
  const double* szt_ = nullptr;
  std::size_t row_stride_ = 0;
  std::size_t max_index_ = 0;
  double chunk_min_mean_ = 0.0;
  double chunk_max_mean_ = 0.0;
  double V_ = 0.0;
  bool built_now_ = false;
  std::uint64_t decisions_ = 0;

  // Per-session state, as Bba1/Bba2 keep it.
  bool in_startup_ = false;
  double startup_prev_buffer_ = 0.0;
  double eff_res_ = 0.0;
  double outage_s_ = 0.0;
  double prev_buffer_ = 0.0;
  bool has_prev_buffer_ = false;
};

// Resolves a stream lane's TraceStream: the scratch's private stream, or
// the one every lane of its `stream_key` shares in this batch call (reset
// when the key is first seen).
net::TraceStream& stream_for(const BatchLane& lane, BatchScratch& scratch) {
  if (lane.stream_key == 0) {
    scratch.private_stream.reset(*lane.stream, lane.stream_rng);
    return scratch.private_stream;
  }
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
  return *scratch.streams[idx];
}

// Runs one lane's session over `trace` (its materialized CapacityTrace or
// its TraceStream) through `Reader`: BBA-1/BBA-2 lanes decide through the
// table, every other lane through its own ABR.
template <class Reader, class Trace>
void run_lane(BatchLane& lane, Trace& trace, BatchScratch& scratch) {
  const media::Video& video = *lane.video;
  abr::BatchDecisionProfile profile;
  if (lane.abr->batch_profile(&profile) &&
      batch_lane_eligible(profile, lane.config, video, lane.trace)) {
    // The table decision never touches the instance, so reset it as the
    // loop would have: a reused instance ends in the same state either way.
    lane.abr->reset();
    const std::size_t window_chunks = static_cast<std::size_t>(std::max(
        1.0, std::floor(profile.lookahead_s / video.chunk_duration_s())));
    TableDecision decision(profile, scratch.tables, window_chunks);
    detail::session_loop<Reader>(video, trace, decision, lane.config,
                                 scratch.sink);
    decision.count_memo_hits();
  } else {
    detail::session_loop<Reader>(video, trace, *lane.abr, lane.config,
                                 scratch.sink);
  }
  *lane.out = scratch.sink.metrics();
}

}  // namespace

bool batch_lane_eligible(const abr::BatchDecisionProfile& profile,
                         const PlayerConfig& /*config*/,
                         const media::Video& /*video*/,
                         const net::CapacityTrace* /*trace*/) {
  // The memo accounting above balances against window_sums calls, which
  // only the memoized reservoir makes.
  return profile.cache_window_sums;
}

void simulate_session_batch(std::span<BatchLane> lanes,
                            BatchScratch& scratch) {
  scratch.stream_keys.clear();
  for (BatchLane& lane : lanes) {
    BBA_ASSERT(lane.video != nullptr && lane.abr != nullptr &&
                   lane.out != nullptr,
               "batch lane missing video/abr/out");
    BBA_ASSERT((lane.trace != nullptr) != (lane.stream != nullptr),
               "batch lane needs exactly one trace source");
    const PlayerConfig& config = lane.config;
    if (lane.stream != nullptr) {
      run_lane<detail::LaneCursorReader<net::StreamSource>>(
          lane, stream_for(lane, scratch), scratch);
    } else if (lane.trace->loops() && !config.tcp &&
               config.use_trace_cursor) {
      // The lazy stream's cursor, on the materialized trace: the same
      // finish times and tallies as the TraceCursor, in fewer steps.
      run_lane<detail::LaneCursorReader<net::FixedSource>>(lane, *lane.trace,
                                                           scratch);
    } else {
      run_lane<detail::CapacityTraceReader>(lane, *lane.trace, scratch);
    }
  }
}

}  // namespace bba::sim
