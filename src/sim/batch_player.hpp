// Batched session kernel: advance a lane-batch of sessions with all hot
// state in structure-of-arrays / register-resident form, bit-identical to
// the scalar simulate_session + StreamingMetricsSink pipeline.
//
// One lane is one session. The kernel fuses the three layers the scalar
// path crosses per chunk -- ABR decision (virtual choose_rate), trace
// integration (TraceCursor), metrics fold (SessionSink virtual calls) --
// into a single loop whose state lives in locals, reading decisions from a
// chunk-major DecisionTable row and capacity from raw prefix arrays
// (net/trace_stream.hpp). Lanes backed by a MarkovTraceConfig generate
// their trace lazily: only the prefix the session actually consumes is ever
// produced, and lanes sharing a `stream_key` (common-random-numbers groups
// replaying one kTrace substream) generate that prefix once.
//
// Contracts (enforced by tests/test_sim_batch.cpp and the hot-path bench):
//  - SessionMetrics bytes identical to the scalar pipeline for every lane;
//  - obs registry deltas identical (per-chunk histograms, session counters,
//    cursor query/rewind tallies, reservoir memo-hit accounting);
//  - zero steady-state heap allocation per session;
//  - lanes the kernel cannot express (TCP model, seeks, give-up timers,
//    non-looping traces, ABRs without a BatchDecisionProfile)
//    transparently fall back to the scalar oracle inside the batch call.
//    Injected faults (PlayerConfig::faults) are a branch of the kernel:
//    each stall is attributed at close, exactly as the scalar player does.
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
/// (materialized, must loop) or `stream` (lazy Markov generation from
/// `stream_rng`). A lane with `config.faults` set must use `trace`: the
/// faults were injected into it. `abr` provides the decision profile -- and drives the
/// scalar fallback when the lane is ineligible, so it must be a valid
/// single-session instance either way.
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

/// Pending played-weight fold entry (mirrors StreamingMetricsSink's ring).
struct BatchPendingChunk {
  double position_s = 0.0;
  double rate_bps = 0.0;
};

/// Per-thread (per executor slot) scratch. All steady-state storage lives
/// here: the decision-table cache, the trace streams, the pending ring,
/// and the scalar-fallback trace/sink. Reuse across batches is what makes
/// steady-state sessions allocation-free.
struct BatchScratch {
  media::DecisionTableCache tables;

  net::TraceStream private_stream;  ///< reused by stream_key == 0 lanes
  std::vector<std::unique_ptr<net::TraceStream>> streams;
  std::vector<std::uint64_t> stream_keys;  ///< active keys, per batch call

  std::vector<BatchPendingChunk> ring;
  std::size_t ring_mask = 0;

  net::TraceScratch trace_scratch;
  net::CapacityTrace fallback_trace = net::CapacityTrace::constant(1.0);
  StreamingMetricsSink sink;
};

/// True when the kernel can run this (profile, config, video, trace)
/// combination bit-identically; false routes the lane to the scalar
/// fallback. Exposed for tests and for callers that want to pre-classify.
bool batch_lane_eligible(const abr::BatchDecisionProfile& profile,
                         const PlayerConfig& config,
                         const media::Video& video,
                         const net::CapacityTrace* trace);

/// Runs every lane to completion (depth-first per lane -- measured faster
/// than cross-lane interleaving on current hardware; see docs/perf.md) and
/// writes each lane's SessionMetrics to *out. Bit-identical to running
/// simulate_session per lane with a StreamingMetricsSink, including every
/// obs registry event.
void simulate_session_batch(std::span<BatchLane> lanes,
                            BatchScratch& scratch);

}  // namespace bba::sim
