// Shared JSONL serialization for session traces.
//
// Two writers must produce the *same bytes* for one session: the JSONL
// sink (obs/trace.hpp) serializing live, and `bba_trace cat` re-serializing
// a columnar binary block (obs/btrace.hpp). Sharing printf-style helpers is
// not enough -- the event lines quantize doubles to microsecond fixed point
// before printing, and the binary format stores that quantized integer, not
// the double. This header therefore centralizes three things:
//
//  * Num -- a JSON number carried either as the original double or as the
//    already-quantized micro integer. Num::of(double) performs the exact
//    quantization the JSONL event lines use; append_num prints both forms
//    through one code path, so a Num built from the double at capture time
//    and a Num rebuilt from the stored micro at decode time print
//    identically.
//  * One append_* function per trace line (session header, fault, off,
//    switch, stall, chunk). Every byte of the schema lives here, once.
//  * walk_session_lines -- the chronological merge of chunk-derived lines
//    with stall lines. The JSONL sink and the binary encoder both drive
//    their emission through this walk, so the *order* of lines (decided by
//    double comparisons that quantization could flip) is computed exactly
//    once, in double precision, at capture time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "sim/session_result.hpp"

namespace bba::obs::jsonl {

/// A JSON number ready to print the way the trace event lines print it:
/// non-negative finite doubles below 9e12 as microsecond fixed point with
/// trailing zeros trimmed, everything else via printf %.10g.
struct Num {
  bool is_micro = false;
  std::uint64_t micro = 0;  ///< valid when is_micro
  double raw = 0.0;         ///< valid when !is_micro

  /// The event-line quantization. A sampled session serializes thousands
  /// of doubles; snprintf %.10g at a few hundred ns each would dominate
  /// the whole tracing budget, so the fast range prints from the micro
  /// integer (~10x cheaper). Values outside it (negative, >= ~9e12,
  /// non-finite) keep the double and fall back to %.10g.
  static Num of(double v) {
    if (!is_micro_range(v)) return Num{false, 0, v};
    return Num{true, to_micro(v), 0.0};
  }
  /// The two halves of of(), for encoders that classify a whole column
  /// before converting it.
  static bool is_micro_range(double v) { return v >= 0.0 && v < 9.0e12; }
  static std::uint64_t to_micro(double v) {
    return static_cast<std::uint64_t>(v * 1e6 + 0.5);
  }
  static Num from_micro(std::uint64_t m) { return Num{true, m, 0.0}; }
};

void append_fmt(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Escapes the JSON specials (and drops control bytes) so a hostile group
/// name cannot corrupt the stream.
void append_escaped(std::string& out, std::string_view s);

void append_u64(std::string& out, std::uint64_t v);

/// Prints `micro` as a fixed-point decimal (6 fractional digits, trailing
/// zeros trimmed, no exponent) -- the fast path of append_num.
void append_micro(std::string& out, std::uint64_t micro);

void append_num(std::string& out, const Num& n);

inline void append_double(std::string& out, double v) {
  append_num(out, Num::of(v));
}

// --- Line emitters --------------------------------------------------------
// One function per "ev" kind; docs/observability.md documents the schema.

/// Everything the `{"ev":"session",...}` header line carries. The fault
/// keys are emitted only when has_faults is set, keeping faults-disabled
/// trace bytes identical to a build without fault injection.
struct SessionHeader {
  std::uint64_t seed = 0, day = 0, window = 0, session = 0;
  std::string_view group;
  bool sampled = false, anomaly = false;
  double v_s = 0.0, join_s = 0.0, played_s = 0.0, wall_s = 0.0;
  double rebuffer_s = 0.0;
  std::size_t rebuffer_count = 0, chunks = 0;
  bool started = false, abandoned = false;
  bool has_faults = false;
  std::uint64_t fault_count = 0;
  Num trace_cycle_s{};
  bool trace_loops = false;
};

void append_session_line(std::string& out, const SessionHeader& h);
void append_fault_line(std::string& out, std::string_view kind, Num start_s,
                       Num dur_s, Num factor);
void append_off_line(std::string& out, std::uint64_t k, Num start_s,
                     Num wait_s);
void append_switch_line(std::string& out, std::uint64_t k, Num t_s,
                        std::uint64_t from, std::uint64_t to);
/// `fault_flag`: -1 omits the "fault" key (no fault injection attached),
/// 0/1 emit "fault":false/true.
void append_stall_line(std::string& out, std::uint64_t k, Num start_s,
                       Num dur_s, int fault_flag);

struct ChunkLine {
  std::uint64_t k = 0, rate = 0;
  Num rate_bps, bits, req_s, fin_s, dl_s, tput_bps, buf_s, pos_s, played_s;
};

void append_chunk_line(std::string& out, const ChunkLine& c);

// --- Event walk -----------------------------------------------------------

/// Chronological merge of the chunk-derived lines (OFF wait, rate switch,
/// chunk completion -- times monotone across chunks) with the stall lines
/// (monotone in start_s). Stalls start mid-download, so they interleave
/// between a chunk's request and its completion. The visitor receives, in
/// emission order:
///
///   v.off(k, start_s, wait_s)
///   v.rate_switch(k, t_s, from, to)
///   v.stall(k, start_s, dur_s, fault_flag)   // fault_flag as above
///   v.chunk(record, played_s)
///
/// All values are the captured doubles; visitors quantize (Num::of) as
/// needed. Both the JSONL sink and the binary encoder use this walk, so a
/// line ordering decided by a sub-microsecond time difference can never
/// diverge between the two formats.
template <class V>
void walk_session_lines(const std::vector<sim::ChunkRecord>& chunks,
                        const std::vector<double>& played_at_chunk,
                        const std::vector<sim::RebufferEvent>& stalls,
                        bool with_fault_flags, V&& v) {
  std::size_t ri = 0;
  auto emit_stalls_before = [&](double t) {
    while (ri < stalls.size() && stalls[ri].start_s <= t) {
      const sim::RebufferEvent& r = stalls[ri++];
      v.stall(static_cast<std::uint64_t>(r.chunk_index), r.start_s,
              r.duration_s,
              with_fault_flags ? (r.during_fault ? 1 : 0) : -1);
    }
  };

  bool has_prev_rate = false;
  std::size_t prev_rate = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const sim::ChunkRecord& c = chunks[i];
    if (c.off_wait_s > 0.0) {
      const double off_start = c.request_s - c.off_wait_s;
      emit_stalls_before(off_start);
      v.off(static_cast<std::uint64_t>(c.index), off_start, c.off_wait_s);
    }
    if (has_prev_rate && c.rate_index != prev_rate) {
      emit_stalls_before(c.request_s);
      v.rate_switch(static_cast<std::uint64_t>(c.index), c.request_s,
                    static_cast<std::uint64_t>(prev_rate),
                    static_cast<std::uint64_t>(c.rate_index));
    }
    prev_rate = c.rate_index;
    has_prev_rate = true;
    emit_stalls_before(c.finish_s);
    v.chunk(c, played_at_chunk[i]);
  }
  emit_stalls_before(std::numeric_limits<double>::infinity());
}

}  // namespace bba::obs::jsonl
