#include "sim/session_sink.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/units.hpp"

namespace bba::sim {

RecordingSink::RecordingSink(SessionResult* out) : out_(out) {
  BBA_ASSERT(out_ != nullptr, "RecordingSink requires a target");
}

void RecordingSink::on_session_start(double chunk_duration_s) {
  out_->chunks.clear();
  out_->rebuffers.clear();
  out_->chunk_duration_s = chunk_duration_s;
  out_->join_s = 0.0;
  out_->played_s = 0.0;
  out_->wall_s = 0.0;
  out_->started = false;
  out_->abandoned = false;
}

void RecordingSink::on_chunk(const ChunkRecord& chunk, double /*played_s*/) {
  out_->chunks.push_back(chunk);
}

void RecordingSink::on_rebuffer(const RebufferEvent& event) {
  out_->rebuffers.push_back(event);
}

void RecordingSink::on_session_end(const SessionSummary& summary) {
  out_->chunk_duration_s = summary.chunk_duration_s;
  out_->join_s = summary.join_s;
  out_->played_s = summary.played_s;
  out_->wall_s = summary.wall_s;
  out_->started = summary.started;
  out_->abandoned = summary.abandoned;
}

StreamingMetricsSink::StreamingMetricsSink(double steady_after_s)
    : steady_after_s_(steady_after_s) {
  BBA_ASSERT(steady_after_s_ > 0.0, "steady_after_s must be > 0");
}

void StreamingMetricsSink::on_session_start(double chunk_duration_s) {
  chunk_duration_s_ = chunk_duration_s;
  head_ = 0;
  count_ = 0;
  total_weight_ = total_rate_ = 0.0;
  start_weight_ = start_rate_ = 0.0;
  steady_weight_ = steady_rate_ = 0.0;
  switch_count_ = 0;
  prev_rate_index_ = 0;
  has_prev_rate_ = false;
  rebuffer_count_ = 0;
  rebuffer_s_ = 0.0;
  fault_stall_count_ = 0;
  buffer_sum_ = 0.0;
  chunk_count_ = 0;
  metrics_ = SessionMetrics{};
}

void StreamingMetricsSink::grow_ring() {
  // Startup only: re-linearize the FIFO into the new storage.
  std::vector<PendingChunk> grown;
  grown.resize(std::max<std::size_t>(64, ring_.size() * 2));
  for (std::size_t i = 0; i < count_; ++i) {
    grown[i] = ring_[(head_ + i) & mask()];
  }
  ring_.swap(grown);
  head_ = 0;
}

void StreamingMetricsSink::on_rebuffer(const RebufferEvent& event) {
  ++rebuffer_count_;
  rebuffer_s_ += event.duration_s;
  if (event.during_fault) ++fault_stall_count_;
}

void StreamingMetricsSink::on_session_end(const SessionSummary& summary) {
  SessionMetrics& m = metrics_;
  m.play_s = summary.played_s;
  m.join_s = summary.join_s;
  m.abandoned = summary.abandoned;
  m.rebuffer_count = rebuffer_count_;
  m.rebuffer_s = rebuffer_s_;
  m.fault_stall_count = fault_stall_count_;

  const double play_hours = util::to_hours(summary.played_s);
  if (play_hours > 0.0) {
    m.rebuffers_per_hour = static_cast<double>(m.rebuffer_count) / play_hours;
  }

  // Chunks still pending fold with the final played_s, verbatim the
  // compute_metrics expressions.
  const double V = summary.chunk_duration_s;
  for (std::size_t i = 0; i < count_; ++i) {
    const PendingChunk& c = ring_[(head_ + i) & mask()];
    const double lo = c.position_s;
    const double played_portion =
        std::clamp(summary.played_s - lo, 0.0, V);
    if (played_portion <= 0.0) continue;
    const double start_overlap =
        std::clamp(std::min(steady_after_s_, summary.played_s) - lo, 0.0,
                   played_portion);
    fold(lo, c.rate_bps, played_portion, start_overlap);
  }
  head_ = 0;
  count_ = 0;

  if (chunk_count_ > 0) {
    m.avg_buffer_s = buffer_sum_ / static_cast<double>(chunk_count_);
  }
  if (total_weight_ > 0.0) m.avg_rate_bps = total_rate_ / total_weight_;
  if (start_weight_ > 0.0) m.startup_rate_bps = start_rate_ / start_weight_;
  if (steady_weight_ > 0.0) {
    m.steady_rate_bps = steady_rate_ / steady_weight_;
    m.has_steady = true;
    m.steady_play_s = steady_weight_;
  }

  m.switch_count = switch_count_;
  if (play_hours > 0.0) {
    m.switches_per_hour = static_cast<double>(m.switch_count) / play_hours;
  }
}

}  // namespace bba::sim
