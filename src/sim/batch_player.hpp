// Batched session runs: a lane-batch of sessions through the one session
// loop (sim/session_loop.hpp), bit-identical to running simulate_session
// with a StreamingMetricsSink per lane.
//
// One lane is one session. The batch adds two things to the loop:
//  - a table decision: BBA-1/BBA-2 lanes (ABRs that export an
//    abr::BatchDecisionProfile) decide from a chunk-major DecisionTable
//    row, through a final class the loop inlines, instead of the virtual
//    choose_rate; every other lane runs its own ABR;
//  - a shared lazy trace: lanes backed by a MarkovTraceConfig generate
//    their trace lazily, only the prefix the session actually consumes,
//    and lanes sharing a `stream_key` (common-random-numbers groups
//    replaying one kTrace substream) generate that prefix once.
// TCP models, seeks, wall caps, give-up timers, non-looping traces and
// injected faults are branches of the same loop, whichever decision a
// lane uses.
//
// Contracts (enforced by tests/test_sim_batch.cpp and the hot-path bench):
//  - SessionMetrics bytes identical to the scalar pipeline for every lane;
//  - obs registry deltas identical (per-chunk histograms, session counters,
//    cursor query/rewind tallies, reservoir memo-hit accounting);
//  - zero steady-state heap allocation per session.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "abr/abr.hpp"
#include "media/decision_table.hpp"
#include "media/video.hpp"
#include "net/capacity_trace.hpp"
#include "net/trace_gen.hpp"
#include "net/trace_stream.hpp"
#include "sim/player.hpp"
#include "sim/session_sink.hpp"
#include "util/rng.hpp"

namespace bba::sim {

/// One session of a batch. Exactly one trace source must be set: `trace`
/// (materialized) or `stream` (lazy Markov generation from
/// `stream_rng`). A lane with `config.faults` set must use `trace`: the
/// faults were injected into it. So must a lane with `config.tcp` set or
/// `config.use_trace_cursor` off: those read a CapacityTrace. `abr`
/// provides the decision profile -- and decides itself when it has none,
/// so it must be a valid single-session instance either way.
struct BatchLane {
  const media::Video* video = nullptr;
  abr::RateAdaptation* abr = nullptr;
  PlayerConfig config;

  const net::CapacityTrace* trace = nullptr;
  const net::MarkovTraceConfig* stream = nullptr;
  util::Rng stream_rng{0};
  /// Lanes with equal nonzero key share one TraceStream within a batch
  /// call; the caller guarantees they carry identical (stream, stream_rng).
  /// 0 = private stream.
  std::uint64_t stream_key = 0;

  SessionMetrics* out = nullptr;
};

/// Per-thread (per executor slot) scratch. All steady-state storage lives
/// here: the decision-table cache, the trace streams and the metrics sink.
/// Reuse across batches is what makes steady-state sessions
/// allocation-free.
struct BatchScratch {
  media::DecisionTableCache tables;

  net::TraceStream private_stream;  ///< reused by stream_key == 0 lanes
  std::vector<std::unique_ptr<net::TraceStream>> streams;
  std::vector<std::uint64_t> stream_keys;  ///< active keys, per batch call

  StreamingMetricsSink sink;
};

/// True when a lane with this profile decides through the table: its ABR
/// memoizes its reservoir window sums, which the table's memo accounting
/// balances against. The player config, video and trace do not matter:
/// every one of them runs the same loop. Exposed for tests and for callers
/// that want to pre-classify.
bool batch_lane_eligible(const abr::BatchDecisionProfile& profile,
                         const PlayerConfig& config,
                         const media::Video& video,
                         const net::CapacityTrace* trace);

/// Runs every lane to completion, one after the other, and writes each
/// lane's SessionMetrics to *out. Bit-identical to running
/// simulate_session per lane with a StreamingMetricsSink, including every
/// obs registry event.
void simulate_session_batch(std::span<BatchLane> lanes,
                            BatchScratch& scratch);

}  // namespace bba::sim
