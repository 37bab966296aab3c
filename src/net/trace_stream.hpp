// Incremental capacity-trace generation for the session loops.
//
// A session's whole Markov trace (7200 s, ~720 segments) costs several
// times what the session consumes of it: on the paper grid the furthest
// of a key's six sessions reaches a quarter of it on average. TraceStream generates the identical
// committed segment sequence -- same rng consumption, same prefix
// arithmetic as make_markov_trace_into followed by CapacityTrace::assign --
// but only as far as consumers ask, which removes most of the generation
// cost from the per-session budget. The A/B harness streams every
// outage-free, unfaulted key: the batched kernel's lanes and the scalar
// loop's (sim/session_loop.hpp, TraceStreamReader) read one stream per key.
//
// Outage splicing (Population sessions with env.has_outages) is deliberately
// NOT supported here: insert_outages draws from the same kTrace rng *after*
// every Markov segment has been generated, so a lazy generator cannot know
// the outage draws without defeating its own laziness. Those sessions
// materialize their trace exactly as before (as do faulted ones, whose
// faults are injected into the whole trace) and run through FixedSource or
// the scalar loop's CapacityTraceReader.
//
// LaneCursor is the streaming counterpart of net::TraceCursor, shared by
// the batched kernel and the scalar loop: bit-identical finish times AND
// identical query/rewind tallies over either source (enforced by
// tests/test_sim_batch.cpp), with the walk running over raw prefix arrays
// the reader caches for its whole lifetime.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>

#include "net/capacity_trace.hpp"
#include "net/trace_gen.hpp"
#include "util/rng.hpp"

namespace bba::net {

/// Lazily generated Markov capacity trace in structure-of-arrays form.
/// Committed segments are exposed through stable raw pointers into
/// preallocated buffers: a commit is three stores and an increment, and
/// consumers can cache tp/bp/rate for the stream's whole lifetime.
/// tp (segment start times) and bp (bits prefix) carry n+1 entries.
struct TraceStream {
  double duration_s = 0.0, mean_dwell_s = 0.0, mu = 0.0, sigma = 0.0,
         min_bps = 0.0, max_bps = 0.0;
  util::Rng rng{0};
  double base_t = 0.0;

  // Left uninitialized: every entry is written before it is read. The
  // bound below is ~20 times the segments a Population trace commits, so
  // most pages of each buffer are never touched and never resident.
  std::unique_ptr<double[]> tp_buf, bp_buf, rate_buf;
  std::size_t capacity = 0;  ///< segments the buffers hold
  double* tp = nullptr;
  double* bp = nullptr;
  double* rate = nullptr;
  std::size_t n = 0;  ///< committed segments; tp/bp valid through index n
  bool done = false;
  double cycle_s = 0.0, cycle_bits = 0.0;

  /// Sizes the buffers for any trace of at most `max_duration_s`: base
  /// dwells are clamped to >= 0.5 s, so duration/0.5 bounds the segment
  /// count. Sized once per lane, reused forever.
  void reserve_for(double max_duration_s);

  /// Rebinds the stream to a fresh (config, rng) pair. No allocation once
  /// the buffers have grown to the workload's longest trace.
  void reset(const MarkovTraceConfig& cfg, util::Rng r);

  std::size_t num_segments() const { return n; }

  /// Generates and commits one Markov segment (or finishes the trace).
  void step_one();

  /// Commits segments until the prefix extends strictly beyond `pos` (or
  /// the trace is finished).
  inline void ensure_beyond(double pos) {
    while (!done && tp[n] <= pos) step_one();
  }
  void ensure_done() {
    while (!done) step_one();
  }
};

/// Trace-source policies for the templated LaneCursor. Both expose the same
/// inline surface; StreamSource generates on demand, FixedSource wraps a
/// materialized CapacityTrace (strided Segment rates).
struct StreamSource {
  TraceStream* s = nullptr;

  static constexpr std::size_t kBurst = 16;

  inline const double* tp() const { return s->tp; }
  inline const double* bp() const { return s->bp; }
  inline double rate_at(std::size_t i) const { return s->rate[i]; }
  inline std::size_t count() const { return s->n; }
  inline bool done() const { return s->done; }
  inline double cycle_s() const { return s->cycle_s; }
  inline double cycle_bits() const { return s->cycle_bits; }
  inline void ensure_beyond(double pos) {
    if (!s->done && s->tp[s->n] <= pos) s->ensure_beyond(pos);
  }
  inline void ensure_done() { s->ensure_done(); }
  /// Commit more segments after a walk exhausted the prefix.
  inline void gen_burst() {
    for (std::size_t i = 0; i < kBurst && !s->done; ++i) s->step_one();
  }
};

struct FixedSource {
  const double* tp_ = nullptr;
  const double* bp_ = nullptr;
  const double* rate_ = nullptr;
  std::size_t count_ = 0;
  double cycle_s_ = 0.0, cycle_bits_ = 0.0;

  void bind(const CapacityTrace& t) {
    tp_ = t.time_prefix().data();
    bp_ = t.bits_prefix_table().data();
    rate_ = &t.segments().data()->rate_bps;
    count_ = t.segments().size();
    cycle_s_ = t.cycle_duration_s();
    cycle_bits_ = t.cycle_bits();
  }
  inline const double* tp() const { return tp_; }
  inline const double* bp() const { return bp_; }
  inline double rate_at(std::size_t i) const {
    // Segment is {duration_s, rate_bps}: stride 2 doubles.
    return rate_[i * 2];
  }
  inline std::size_t count() const { return count_; }
  inline bool done() const { return true; }
  inline double cycle_s() const { return cycle_s_; }
  inline double cycle_bits() const { return cycle_bits_; }
  inline void ensure_beyond(double) {}
  inline void ensure_done() {}
  inline void gen_burst() {}
};

/// Stateful segment cursor over a StreamSource or FixedSource, replicating
/// net::TraceCursor::finish_time_s bit for bit on looping traces --
/// including the kCursorQueries / kCursorRewinds tallies (the scalar cursor
/// seeks twice per finish_time_s call: once for the bits prefix, once to
/// start the walk; seek2 deduplicates the walk but counts both).
struct LaneCursor {
  std::size_t hint = 0;
  std::uint64_t queries = 0, rewinds = 0;

  template <class Src>
  static inline std::size_t bsearch(const Src& tr, double pos) {
    const double* begin = tr.tp();
    const double* end = begin + tr.count() + 1;
    const double* it = std::upper_bound(begin, end, pos);
    std::size_t i = static_cast<std::size_t>(it - begin) - 1;
    return std::min(i, tr.count() - 1);
  }

  /// The two scalar seeks of one finish_time_s call, deduplicated: counts
  /// queries += 2 and evaluates the first seek's rewind predicate, but
  /// walks once (the second scalar seek starts from the hint the first one
  /// just wrote, so it can never rewind).
  template <class Src>
  inline std::size_t seek2(const Src& tr, double pos) {
    queries += 2;
    const double* tp = tr.tp();
    const std::size_t last = tr.count() - 1;
    std::size_t i = hint;
    if (i > last || tp[i] > pos) {
      ++rewinds;
      i = bsearch(tr, pos);
    } else {
      while (i < last && tp[i + 1] <= pos) ++i;
    }
    hint = i;
    return i;
  }

  /// Verbatim TraceCursor::finish_time_s over the fully generated trace,
  /// used for the wrap (slow) path and the rare FP-residue fallback.
  template <class Src>
  double finish_slow(Src& tr, double pos, double cycles_done, double bits,
                     double bp_at_pos) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double cycle_s = tr.cycle_s();
    const double cycle_bits = tr.cycle_bits();
    double remaining = bits;
    const double avail0 = cycle_bits - bp_at_pos;
    bool wrapped = false;
    if (avail0 < remaining) {
      wrapped = true;
      remaining -= avail0;
      cycles_done += 1.0;
      pos = 0.0;
      if (cycle_bits <= 0.0) return kInf;
      const double whole = std::floor(remaining / cycle_bits);
      if (whole > 0.0 && whole * cycle_bits < remaining) {
        cycles_done += whole;
        remaining -= whole * cycle_bits;
      } else if (whole > 0.0) {
        cycles_done += whole - 1.0;
        remaining -= (whole - 1.0) * cycle_bits;
      }
    }
    // The scalar path re-seeks here (its walk seek). On the wrap path that
    // is a real second seek at pos == 0 whose rewind predicate fires
    // whenever the hint segment starts after 0.
    std::size_t idx;
    const double* tp = tr.tp();
    if (wrapped) {
      const std::size_t last = tr.count() - 1;
      if (hint > last || tp[hint] > pos) {
        ++rewinds;
        idx = bsearch(tr, pos);
      } else {
        idx = hint;
        while (idx < last && tp[idx + 1] <= pos) ++idx;
      }
      hint = idx;
    } else {
      // FP-residue fallback: seek2 already walked to idx(pos) and counted
      // both queries; recompute without recounting.
      idx = bsearch(tr, pos);
    }
    double t = pos;
    while (true) {
      const double r = tr.rate_at(idx);
      const double seg_end = tp[idx + 1];
      const double span = seg_end - t;
      const double avail = r * span;
      if (avail >= remaining && r > 0.0) {
        t += remaining / r;
        hint = idx;
        return cycles_done * cycle_s + t;
      }
      remaining -= avail;
      t = seg_end;
      ++idx;
      if (idx == tr.count()) {
        idx = 0;
        t = 0.0;
        cycles_done += 1.0;
        if (cycle_bits <= 0.0) return kInf;
      }
    }
  }

  /// Bit-identical to TraceCursor::finish_time_s on the materialized trace
  /// (looping traces only -- the caller gates on trace.loops()), including
  /// query/rewind tallies. The walk is a tight loop over the committed
  /// prefix; the source is only asked to generate when the walk exhausts
  /// it.
  template <class Src>
  double finish_time_s(Src& tr, double start_s, double bits) {
    if (bits == 0.0) return start_s;
    double cycles_done = 0.0;
    double pos = start_s;
    tr.ensure_beyond(pos);
    if (tr.done() && pos >= tr.cycle_s()) {
      cycles_done = std::floor(pos / tr.cycle_s());
      pos -= cycles_done * tr.cycle_s();
      tr.ensure_beyond(pos);
    }
    const std::size_t idx0 = seek2(tr, pos);
    if (tr.done()) {
      const double bp_at_pos =
          tr.bp()[idx0] + tr.rate_at(idx0) * (pos - tr.tp()[idx0]);
      const double avail = tr.cycle_bits() - bp_at_pos;
      if (avail < bits) {
        return finish_slow(tr, pos, cycles_done, bits, bp_at_pos);
      }
    }
    double remaining = bits;
    std::size_t idx = idx0;
    double t = pos;
    while (true) {
      const std::size_t count = tr.count();
      const double* tp = tr.tp();
      while (idx < count) {
        const double r = tr.rate_at(idx);
        const double seg_end = tp[idx + 1];
        const double avail = r * (seg_end - t);
        if (avail >= remaining && r > 0.0) {
          t += remaining / r;
          hint = idx;
          return cycles_done == 0.0 ? t : cycles_done * tr.cycle_s() + t;
        }
        remaining -= avail;
        t = seg_end;
        ++idx;
      }
      if (tr.done()) {
        const double bp_at_pos =
            tr.bp()[idx0] + tr.rate_at(idx0) * (pos - tr.tp()[idx0]);
        return finish_slow(tr, pos, cycles_done, bits, bp_at_pos);
      }
      tr.gen_burst();
    }
  }
};

}  // namespace bba::net
