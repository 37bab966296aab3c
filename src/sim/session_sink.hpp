// Where a simulated session's events go.
//
// simulate_session historically appended every chunk to a heap-allocated
// SessionResult::chunks vector that most callers immediately reduced to
// SessionMetrics and threw away. SessionSink decouples the player from its
// output: callers choose between full per-chunk recording (RecordingSink --
// figures, per-chunk CSV logs, `bba_session --repro`) and a streaming
// accumulator (StreamingMetricsSink) that computes SessionMetrics on the
// fly with a small bounded ring and no chunk vector at all. The A/B
// harness uses the streaming sink; its result is bit-identical to
// compute_metrics() over the recorded chunks (enforced by
// tests/test_sim_sink.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/session_result.hpp"

namespace bba::sim {

/// Scalar end-of-session summary (the non-vector tail of SessionResult).
struct SessionSummary {
  double chunk_duration_s = 0.0;  ///< V
  double join_s = 0.0;            ///< wall time playback first started
  double played_s = 0.0;          ///< seconds of video actually played
  double wall_s = 0.0;            ///< wall-clock session length
  bool started = false;           ///< playback ever began
  bool abandoned = false;         ///< session aborted (dead link / wall cap)
};

/// Receives one session's events in simulation order. Implementations are
/// reusable: on_session_start resets all per-session state.
class SessionSink {
 public:
  virtual ~SessionSink() = default;

  /// Called once before any other event. `chunk_duration_s` is V.
  virtual void on_session_start(double chunk_duration_s) = 0;

  /// One downloaded chunk, in download order. `played_s` is the content
  /// seconds already played when the chunk landed (monotone across calls).
  virtual void on_chunk(const ChunkRecord& chunk, double played_s) = 0;

  /// One playback stall, emitted when the stall resolves (or at session
  /// end / viewer give-up while still stalled).
  virtual void on_rebuffer(const RebufferEvent& event) = 0;

  /// Called exactly once, after every chunk and rebuffer.
  virtual void on_session_end(const SessionSummary& summary) = 0;
};

/// Forwards every event to two sinks, first then second -- how the A/B
/// harness attaches an observability trace sink next to its metrics sink
/// without either knowing about the other. Cheap to construct on the
/// stack per session (two pointers, no allocation); both sinks see the
/// exact event sequence they would see alone.
class TeeSink final : public SessionSink {
 public:
  TeeSink(SessionSink& first, SessionSink& second)
      : first_(&first), second_(&second) {}

  void on_session_start(double chunk_duration_s) override {
    first_->on_session_start(chunk_duration_s);
    second_->on_session_start(chunk_duration_s);
  }
  void on_chunk(const ChunkRecord& chunk, double played_s) override {
    first_->on_chunk(chunk, played_s);
    second_->on_chunk(chunk, played_s);
  }
  void on_rebuffer(const RebufferEvent& event) override {
    first_->on_rebuffer(event);
    second_->on_rebuffer(event);
  }
  void on_session_end(const SessionSummary& summary) override {
    first_->on_session_end(summary);
    second_->on_session_end(summary);
  }

 private:
  SessionSink* first_;
  SessionSink* second_;
};

/// Records everything into a SessionResult -- the pre-sink behaviour. The
/// target's vectors are cleared (capacity kept) on session start, so a
/// reused RecordingSink+SessionResult pair stops allocating once the
/// vectors have grown to the workload.
class RecordingSink final : public SessionSink {
 public:
  explicit RecordingSink(SessionResult* out);

  void on_session_start(double chunk_duration_s) override;
  void on_chunk(const ChunkRecord& chunk, double played_s) override;
  void on_rebuffer(const RebufferEvent& event) override;
  void on_session_end(const SessionSummary& summary) override;

 private:
  SessionResult* out_;
};

/// Computes SessionMetrics on the fly, bit-identical to
/// compute_metrics(recorded_result, steady_after_s).
///
/// compute_metrics weights each chunk by how much of its video interval
/// was played, which depends on the final played_s -- but a chunk's
/// contribution becomes exact as soon as playback passes its interval
/// (the clamps saturate). Downloaded-but-unplayed content is bounded by
/// the buffer capacity, so a small FIFO of pending chunks suffices:
/// chunks are folded into the running sums (in download order, the same
/// floating-point sequence as compute_metrics) the moment playback passes
/// them, and the handful still pending at session end are folded during
/// on_session_end. The ring grows to the deepest buffer ever seen and is
/// then reused forever: zero steady-state allocation.
///
/// The per-chunk path (on_chunk, push_pending, fold) is defined in this
/// header: the player loop instantiated on this final type
/// (sim/session_loop.hpp) inlines it instead of making a virtual call.
class StreamingMetricsSink final : public SessionSink {
 public:
  explicit StreamingMetricsSink(double steady_after_s = 120.0);

  void on_session_start(double chunk_duration_s) override;
  void on_chunk(const ChunkRecord& chunk, double played_s) override;
  void on_rebuffer(const RebufferEvent& event) override;
  void on_session_end(const SessionSummary& summary) override;

  /// Valid after on_session_end, until the next on_session_start.
  const SessionMetrics& metrics() const { return metrics_; }

 private:
  struct PendingChunk {
    double position_s = 0.0;
    double rate_bps = 0.0;
  };

  void fold(double position_s, double rate_bps, double played_portion,
            double start_overlap);
  void push_pending(const PendingChunk& c);
  void grow_ring();

  double steady_after_s_;
  double chunk_duration_s_ = 0.0;

  // Pending ring: FIFO over ring_[(head_ + i) & mask()]. Its size is
  // always 64 * 2^k (grow_ring), so the wrap is a mask, not a division.
  std::size_t mask() const { return ring_.size() - 1; }
  std::vector<PendingChunk> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;

  // Running accumulators (same order as the compute_metrics loop).
  double total_weight_ = 0.0, total_rate_ = 0.0;
  double start_weight_ = 0.0, start_rate_ = 0.0;
  double steady_weight_ = 0.0, steady_rate_ = 0.0;
  long long switch_count_ = 0;
  std::size_t prev_rate_index_ = 0;
  bool has_prev_rate_ = false;
  long long rebuffer_count_ = 0;
  double rebuffer_s_ = 0.0;
  long long fault_stall_count_ = 0;
  double buffer_sum_ = 0.0;
  long long chunk_count_ = 0;

  SessionMetrics metrics_;
};

inline void StreamingMetricsSink::fold(double position_s, double rate_bps,
                                       double played_portion,
                                       double start_overlap) {
  // The exact accumulation sequence of the compute_metrics loop body; every
  // chunk passes through here exactly once, in download order.
  (void)position_s;
  total_weight_ += played_portion;
  total_rate_ += rate_bps * played_portion;
  start_weight_ += start_overlap;
  start_rate_ += rate_bps * start_overlap;
  const double steady_overlap = played_portion - start_overlap;
  steady_weight_ += steady_overlap;
  steady_rate_ += rate_bps * steady_overlap;
}

inline void StreamingMetricsSink::push_pending(const PendingChunk& c) {
  if (count_ == ring_.size()) grow_ring();
  ring_[(head_ + count_) & mask()] = c;
  ++count_;
}

inline void StreamingMetricsSink::on_chunk(const ChunkRecord& chunk,
                                           double played_s) {
  if (has_prev_rate_ && chunk.rate_index != prev_rate_index_) {
    ++switch_count_;
  }
  prev_rate_index_ = chunk.rate_index;
  has_prev_rate_ = true;

  // Independent accumulator summed in on_chunk (= download) order: the
  // identical floating-point sequence compute_metrics performs over
  // result.chunks.
  buffer_sum_ += chunk.buffer_after_s;
  ++chunk_count_;

  push_pending({chunk.position_s, chunk.rate_bps});

  // Fold every pending chunk whose video interval playback has fully
  // passed: its compute_metrics clamps are saturated, so its contribution
  // no longer depends on the final played_s.
  //   played_portion = clamp(played_final - lo, 0, V) == V
  //     (played_final >= played_s and played_s - lo >= V already), and
  //   start_overlap = clamp(min(steady_after, played_final) - lo, 0, V)
  //                 == clamp(steady_after - lo, 0, V)
  //     (if played_final < steady_after, both saturate at V).
  const double V = chunk_duration_s_;
  while (count_ > 0) {
    const PendingChunk& front = ring_[head_];
    if (!(played_s - front.position_s >= V)) break;
    const double start_overlap =
        std::clamp(steady_after_s_ - front.position_s, 0.0, V);
    fold(front.position_s, front.rate_bps, V, start_overlap);
    head_ = (head_ + 1) & mask();
    --count_;
  }
}

}  // namespace bba::sim
