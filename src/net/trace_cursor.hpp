// Incremental, O(1)-amortized reader over a CapacityTrace.
//
// CapacityTrace answers every query with a fresh binary search over its
// segment prefix table. A simulated session, however, queries the SAME
// trace at monotonically non-decreasing times (each chunk starts where the
// previous one finished), so the segment containing the query is almost
// always the hinted one or a near successor. TraceCursor keeps that hint:
// monotone query streams advance it incrementally (amortized O(1) per
// query across a cycle), and a rewind -- a query earlier than the hint --
// falls back to the trace's own binary search.
//
// Contract: every method returns a result BIT-IDENTICAL to the same-named
// CapacityTrace method. The cursor only replaces how the segment index is
// found (an integer, found exactly either way); all floating-point
// arithmetic on times and bits is the verbatim CapacityTrace expression
// sequence. tests/test_net_cursor.cpp enforces this on randomized query
// streams.
//
// A cursor borrows the trace: it must not outlive it, and the trace must
// not be mutated (assign()) while the cursor is in use.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "net/capacity_trace.hpp"
#include "util/assert.hpp"

namespace bba::net {

/// Stateful trace reader; cheap to construct (no allocation), one per
/// session.
class TraceCursor {
 public:
  explicit TraceCursor(const CapacityTrace& trace) : trace_(&trace) {}

  const CapacityTrace& trace() const { return *trace_; }

  /// Bit-identical to CapacityTrace::rate_at_bps.
  double rate_at_bps(double t_s);

  /// Bit-identical to CapacityTrace::finish_time_s.
  double finish_time_s(double start_s, double bits);

  /// Bit-identical to CapacityTrace::bits_between.
  double bits_between(double t0_s, double t1_s);

  /// Bit-identical to CapacityTrace::average_bps.
  double average_bps(double t0_s, double t1_s);

  /// Lookup tallies, kept as plain members (a seek runs in nanoseconds, so
  /// even a thread-local touch per call is too expensive); the session
  /// owner flushes them into the obs registry once, at session end.
  std::uint32_t queries() const { return queries_; }
  std::uint32_t rewinds() const { return rewinds_; }

 private:
  /// Segment index containing in-cycle time `pos` (0 <= pos <= cycle):
  /// advances the hint forward when possible, binary-searches on rewind.
  /// Always equals trace_->segment_index_at(pos).
  std::size_t seek(double pos);

  /// CapacityTrace::bits_prefix with the hinted lookup.
  double bits_prefix(double t_s);

  const CapacityTrace* trace_;
  std::size_t hint_ = 0;
  std::uint32_t queries_ = 0;
  std::uint32_t rewinds_ = 0;
};

// seek, bits_prefix and finish_time_s run once or twice per simulated
// chunk, so they are defined here for the player loop to inline.

inline std::size_t TraceCursor::seek(double pos) {
  ++queries_;
  const std::vector<double>& tp = trace_->time_prefix();
  const std::size_t last = trace_->segments().size() - 1;
  std::size_t i = hint_;
  if (i > last || tp[i] > pos) {
    // Rewind (or a hint stale after trace mutation in debug builds): the
    // trace's binary search finds the identical index.
    ++rewinds_;
    i = trace_->segment_index_at(pos);
  } else {
    while (i < last && tp[i + 1] <= pos) ++i;
  }
  hint_ = i;
  return i;
}

inline double TraceCursor::bits_prefix(double t_s) {
  t_s = std::clamp(t_s, 0.0, trace_->cycle_duration_s());
  const std::size_t idx = seek(t_s);
  return trace_->bits_prefix_table()[idx] +
         trace_->segments()[idx].rate_bps *
             (t_s - trace_->time_prefix()[idx]);
}

inline double TraceCursor::finish_time_s(double start_s, double bits) {
  BBA_ASSERT(start_s >= 0.0, "start time must be >= 0");
  BBA_ASSERT(bits >= 0.0, "bits must be >= 0");
  if (bits == 0.0) return start_s;

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double cycle_s = trace_->cycle_duration_s();
  const double cycle_bits = trace_->cycle_bits();
  const bool loop = trace_->loops();
  const std::vector<CapacityTrace::Segment>& segments = trace_->segments();
  const std::vector<double>& time_prefix = trace_->time_prefix();

  // Position within the cycle (or past the end for non-looping traces).
  double cycles_done = 0.0;
  double pos = start_s;
  if (loop && pos >= cycle_s) {
    cycles_done = std::floor(pos / cycle_s);
    pos -= cycles_done * cycle_s;
  }
  if (!loop && pos >= cycle_s) return kInf;

  double remaining = bits;
  // Finish the partial cycle from `pos`.
  {
    const double avail = cycle_bits - bits_prefix(pos);
    if (avail < remaining) {
      if (!loop) return kInf;
      remaining -= avail;
      cycles_done += 1.0;
      pos = 0.0;
      // Skip whole cycles.
      if (cycle_bits <= 0.0) return kInf;  // permanent outage
      const double whole = std::floor(remaining / cycle_bits);
      // Guard the exact-multiple case: keep at least a hair of work for the
      // in-cycle walk below.
      if (whole > 0.0 && whole * cycle_bits < remaining) {
        cycles_done += whole;
        remaining -= whole * cycle_bits;
      } else if (whole > 0.0) {
        cycles_done += whole - 1.0;
        remaining -= (whole - 1.0) * cycle_bits;
      }
    }
  }

  // Walk segments inside the current cycle until `remaining` is delivered.
  // `pos` is within [0, cycle_s).
  std::size_t idx = seek(pos);
  double t = pos;
  while (true) {
    const CapacityTrace::Segment& seg = segments[idx];
    const double seg_end = time_prefix[idx + 1];
    const double span = seg_end - t;
    const double avail = seg.rate_bps * span;
    if (avail >= remaining && seg.rate_bps > 0.0) {
      t += remaining / seg.rate_bps;
      hint_ = idx;  // the next monotone query resumes here
      return cycles_done * cycle_s + t;
    }
    remaining -= avail;
    t = seg_end;
    ++idx;
    if (idx == segments.size()) {
      if (!loop) return kInf;
      idx = 0;
      t = 0.0;
      cycles_done += 1.0;
      if (cycle_bits <= 0.0) return kInf;
    }
  }
}

}  // namespace bba::net
