#include "exp/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string_view>

#include "exp/block.hpp"
#include "exp/session_key.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "util/assert.hpp"
#include "util/crc32.hpp"

namespace bba::exp {

namespace {

// --- Primitive serialization ----------------------------------------------
// Little-endian, independent of host order; same discipline as the btrace
// container (obs/btrace.cpp).

void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out.append(b, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out.append(b, 8);
}

void put_f64(std::string& out, double v) {
  // Raw IEEE-754 bits: the window cells are order-sensitive incremental
  // means, so the restored doubles must be the exact bit patterns.
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out += static_cast<char>(0x80 | (v & 0x7f));
    v >>= 7;
  }
  out += static_cast<char>(v);
}

void put_string(std::string& out, const std::string& s) {
  put_varint(out, s.size());
  out += s;
}

std::uint32_t load_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t load_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

// --- Bounds-checked read cursor -------------------------------------------

struct Cursor {
  const unsigned char* p;
  const unsigned char* end;
  bool fail = false;

  bool need(std::size_t n) {
    if (static_cast<std::size_t>(end - p) < n) {
      fail = true;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!need(1)) return 0;
    return *p++;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    const std::uint32_t v = load_u32(p);
    p += 4;
    return v;
  }
  double f64() {
    if (!need(8)) return 0.0;
    const std::uint64_t v = load_u64(p);
    p += 8;
    return std::bit_cast<double>(v);
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (p == end) break;
      const unsigned char c = *p++;
      v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
      if ((c & 0x80) == 0) return v;
    }
    fail = true;
    return 0;
  }
  bool str(std::string* out) {
    const std::uint64_t n = varint();
    if (fail || !need(static_cast<std::size_t>(n))) return false;
    out->assign(reinterpret_cast<const char*>(p),
                static_cast<std::size_t>(n));
    p += n;
    return true;
  }
};

// --- Section payloads ------------------------------------------------------

void put_run_section(std::string& p, const Checkpoint& ck) {
  put_u32(p, ck.kind);
  put_varint(p, ck.seed);
  put_varint(p, ck.days);
  put_varint(p, ck.windows_per_day);
  put_varint(p, ck.sessions_per_window);
  put_varint(p, ck.shard_index);
  put_varint(p, ck.shard_count);
  put_varint(p, ck.total_keys);
  put_varint(p, ck.cursor);
  put_varint(p, ck.groups.size());
  for (const std::string& g : ck.groups) put_string(p, g);
}

bool parse_run_section(Cursor& c, Checkpoint* out) {
  out->kind = c.u32();
  out->seed = c.varint();
  out->days = c.varint();
  out->windows_per_day = c.varint();
  out->sessions_per_window = c.varint();
  out->shard_index = c.varint();
  out->shard_count = c.varint();
  out->total_keys = c.varint();
  out->cursor = c.varint();
  const std::uint64_t n_groups = c.varint();
  if (c.fail || n_groups == 0 || n_groups > 4096) return false;
  out->groups.resize(static_cast<std::size_t>(n_groups));
  for (std::string& g : out->groups) {
    if (!c.str(&g)) return false;
  }
  // Sanity caps: a corrupt varint must not turn into a giant allocation.
  if (out->days == 0 || out->days > (1u << 20) ||
      out->windows_per_day == 0 || out->windows_per_day > (1u << 16)) {
    return false;
  }
  out->cells.assign(
      out->groups.size(),
      std::vector<std::vector<WindowMetrics>>(
          static_cast<std::size_t>(out->days),
          std::vector<WindowMetrics>(
              static_cast<std::size_t>(out->windows_per_day))));
  return !c.fail;
}

void put_cells_section(std::string& p, const Checkpoint& ck) {
  std::uint64_t n = 0;
  for (const auto& group : ck.cells) {
    for (const auto& day : group) {
      for (const WindowMetrics& cell : day) n += cell.sessions != 0 ? 1 : 0;
    }
  }
  put_varint(p, n);
  for (std::size_t g = 0; g < ck.cells.size(); ++g) {
    for (std::size_t d = 0; d < ck.cells[g].size(); ++d) {
      for (std::size_t w = 0; w < ck.cells[g][d].size(); ++w) {
        const WindowMetrics& cell = ck.cells[g][d][w];
        if (cell.sessions == 0) continue;
        put_varint(p, g);
        put_varint(p, d);
        put_varint(p, w);
        put_varint(p, static_cast<std::uint64_t>(cell.sessions));
        put_f64(p, cell.play_hours);
        put_f64(p, cell.rebuffer_count);
        put_f64(p, cell.rebuffer_s);
        put_f64(p, cell.avg_rate_bps);
        put_f64(p, cell.startup_rate_bps);
        put_f64(p, cell.steady_rate_bps);
        put_f64(p, cell.switch_count);
        put_f64(p, cell.steady_play_hours);
        put_f64(p, cell.fault_stall_count);
      }
    }
  }
}

bool parse_cells_section(Cursor& c, Checkpoint* out) {
  const std::uint64_t n = c.varint();
  for (std::uint64_t i = 0; i < n && !c.fail; ++i) {
    const std::uint64_t g = c.varint();
    const std::uint64_t d = c.varint();
    const std::uint64_t w = c.varint();
    if (c.fail || g >= out->cells.size() || d >= out->days ||
        w >= out->windows_per_day) {
      return false;
    }
    WindowMetrics& cell =
        out->cells[static_cast<std::size_t>(g)][static_cast<std::size_t>(d)]
                  [static_cast<std::size_t>(w)];
    cell.sessions = static_cast<long long>(c.varint());
    cell.play_hours = c.f64();
    cell.rebuffer_count = c.f64();
    cell.rebuffer_s = c.f64();
    cell.avg_rate_bps = c.f64();
    cell.startup_rate_bps = c.f64();
    cell.steady_rate_bps = c.f64();
    cell.switch_count = c.f64();
    cell.steady_play_hours = c.f64();
    cell.fault_stall_count = c.f64();
  }
  return !c.fail;
}

void put_sketch(std::string& p, const stats::QuantileSketch& s) {
  put_varint(p, s.zero_count());
  std::uint64_t n_occ = 0;
  for (int b = 0; b < stats::QuantileSketch::kBuckets; ++b) {
    n_occ += s.bucket_count(b) != 0 ? 1 : 0;
  }
  put_varint(p, n_occ);
  for (int b = 0; b < stats::QuantileSketch::kBuckets; ++b) {
    if (s.bucket_count(b) == 0) continue;
    put_varint(p, static_cast<std::uint64_t>(b));
    put_varint(p, s.bucket_count(b));
  }
}

bool parse_sketch(Cursor& c, stats::QuantileSketch* s) {
  // count_ is always zero_ + sum(buckets_), so replaying the raw counts
  // through the deserialization hooks reconstructs the exact state.
  const std::uint64_t zero = c.varint();
  if (zero != 0) s->add_zero(zero);
  const std::uint64_t n_occ = c.varint();
  if (c.fail || n_occ > static_cast<std::uint64_t>(
                            stats::QuantileSketch::kBuckets)) {
    return false;
  }
  for (std::uint64_t i = 0; i < n_occ && !c.fail; ++i) {
    const std::uint64_t b = c.varint();
    const std::uint64_t count = c.varint();
    if (b >= static_cast<std::uint64_t>(stats::QuantileSketch::kBuckets)) {
      return false;
    }
    s->add_bucket(static_cast<int>(b), count);
  }
  return !c.fail;
}

void put_timeline_section(std::string& p, const obs::TimelineAggregator& t) {
  put_varint(p, t.seed());
  put_varint(p, t.days());
  put_varint(p, t.windows_per_day());
  put_varint(p, t.num_groups());
  for (const std::string& g : t.group_names()) put_string(p, g);
  std::uint64_t n = 0;
  for (std::size_t d = 0; d < t.days(); ++d) {
    for (std::size_t w = 0; w < t.windows_per_day(); ++w) {
      for (std::size_t g = 0; g < t.num_groups(); ++g) {
        n += t.cell(d, w, g).empty() ? 0 : 1;
      }
    }
  }
  put_varint(p, n);
  for (std::size_t d = 0; d < t.days(); ++d) {
    for (std::size_t w = 0; w < t.windows_per_day(); ++w) {
      for (std::size_t g = 0; g < t.num_groups(); ++g) {
        const obs::TimelineCell& cell = t.cell(d, w, g);
        if (cell.empty()) continue;
        put_varint(p, d);
        put_varint(p, w);
        put_varint(p, g);
        put_varint(p, cell.sessions);
        put_varint(p, cell.abandoned);
        put_varint(p, cell.rebuffers);
        put_varint(p, cell.fault_stalls);
        put_varint(p, cell.switches);
        put_varint(p, cell.play_micro);
        put_varint(p, cell.rebuffer_micro);
        put_varint(p, cell.join_micro);
        put_varint(p, cell.rate_play_kbit);
      }
    }
  }
  for (std::size_t g = 0; g < t.num_groups(); ++g) {
    const obs::GroupSketches& s = t.sketches(g);
    put_sketch(p, s.rate_bps);
    put_sketch(p, s.join_s);
    put_sketch(p, s.buffer_s);
  }
}

bool parse_timeline_section(Cursor& c, obs::TimelineAggregator* t) {
  const std::uint64_t seed = c.varint();
  const std::uint64_t days = c.varint();
  const std::uint64_t windows = c.varint();
  const std::uint64_t n_groups = c.varint();
  if (c.fail || n_groups == 0 || n_groups > 4096 || days == 0 ||
      days > (1u << 20) || windows == 0 || windows > (1u << 16)) {
    return false;
  }
  std::vector<std::string> names(static_cast<std::size_t>(n_groups));
  for (std::string& g : names) {
    if (!c.str(&g)) return false;
  }
  t->begin_run(seed, names, static_cast<std::size_t>(days),
               static_cast<std::size_t>(windows));
  const std::uint64_t n = c.varint();
  for (std::uint64_t i = 0; i < n && !c.fail; ++i) {
    const std::uint64_t d = c.varint();
    const std::uint64_t w = c.varint();
    const std::uint64_t g = c.varint();
    if (c.fail || d >= days || w >= windows || g >= n_groups) return false;
    obs::TimelineCell& cell = t->mutable_cell(
        static_cast<std::size_t>(d), static_cast<std::size_t>(w),
        static_cast<std::size_t>(g));
    cell.sessions = c.varint();
    cell.abandoned = c.varint();
    cell.rebuffers = c.varint();
    cell.fault_stalls = c.varint();
    cell.switches = c.varint();
    cell.play_micro = c.varint();
    cell.rebuffer_micro = c.varint();
    cell.join_micro = c.varint();
    cell.rate_play_kbit = c.varint();
  }
  for (std::uint64_t g = 0; g < n_groups && !c.fail; ++g) {
    obs::GroupSketches& s = t->mutable_sketches(static_cast<std::size_t>(g));
    if (!parse_sketch(c, &s.rate_bps) || !parse_sketch(c, &s.join_s) ||
        !parse_sketch(c, &s.buffer_s)) {
      return false;
    }
  }
  return !c.fail;
}

void put_trace_section(std::string& p, const obs::TraceResumeState& st) {
  put_string(p, st.format);
  put_varint(p, st.sample);
  put_f64(p, st.anomaly_rebuffer_s);
  put_varint(p, st.sessions_written);
  put_varint(p, st.anomalies_written);
  put_varint(p, st.bytes_written);
  put_varint(p, st.write_errors);
  put_varint(p, st.file_size);
}

bool parse_trace_section(Cursor& c, obs::TraceResumeState* st) {
  if (!c.str(&st->format)) return false;
  st->sample = c.varint();
  st->anomaly_rebuffer_s = c.f64();
  st->sessions_written = c.varint();
  st->anomalies_written = c.varint();
  st->bytes_written = c.varint();
  st->write_errors = c.varint();
  st->file_size = c.varint();
  return !c.fail;
}

void put_seq_section(std::string& p, const CheckpointSeq& s) {
  put_varint(p, s.rounds);
  put_varint(p, s.sessions_used);
  put_varint(p, s.budget_sessions);
  put_varint(p, s.next_key);
  put_varint(p, s.batch_sessions);
  put_varint(p, s.min_batches);
  put_varint(p, s.baseline);
  put_f64(p, s.confidence);
  put_string(p, s.metric);
  put_string(p, s.verdict);
  put_varint(p, s.arms.size());
  for (const CheckpointSeq::Arm& a : s.arms) {
    p += static_cast<char>(a.candidate ? 1 : 0);
    put_varint(p, a.eliminated_round);
    put_varint(p, static_cast<std::uint64_t>(a.n));
    put_f64(p, a.mean);
    put_f64(p, a.m2);
    put_f64(p, a.lo);
    put_f64(p, a.hi);
  }
  put_string(p, s.decision_log);
}

bool parse_seq_section(Cursor& c, CheckpointSeq* s) {
  s->rounds = c.varint();
  s->sessions_used = c.varint();
  s->budget_sessions = c.varint();
  s->next_key = c.varint();
  s->batch_sessions = c.varint();
  s->min_batches = c.varint();
  s->baseline = c.varint();
  s->confidence = c.f64();
  if (!c.str(&s->metric) || !c.str(&s->verdict)) return false;
  const std::uint64_t n_arms = c.varint();
  if (c.fail || n_arms > 4096) return false;
  s->arms.resize(static_cast<std::size_t>(n_arms));
  for (CheckpointSeq::Arm& a : s->arms) {
    a.candidate = (c.u8() & 1) != 0;
    a.eliminated_round = c.varint();
    a.n = static_cast<long long>(c.varint());
    a.mean = c.f64();
    a.m2 = c.f64();
    a.lo = c.f64();
    a.hi = c.f64();
  }
  return c.str(&s->decision_log) && !c.fail;
}

void put_timeline_cell(std::string& p, const obs::TimelineCell& cell) {
  put_varint(p, cell.sessions);
  put_varint(p, cell.abandoned);
  put_varint(p, cell.rebuffers);
  put_varint(p, cell.fault_stalls);
  put_varint(p, cell.switches);
  put_varint(p, cell.play_micro);
  put_varint(p, cell.rebuffer_micro);
  put_varint(p, cell.join_micro);
  put_varint(p, cell.rate_play_kbit);
}

void parse_timeline_cell(Cursor& c, obs::TimelineCell* cell) {
  cell->sessions = c.varint();
  cell->abandoned = c.varint();
  cell->rebuffers = c.varint();
  cell->fault_stalls = c.varint();
  cell->switches = c.varint();
  cell->play_micro = c.varint();
  cell->rebuffer_micro = c.varint();
  cell->join_micro = c.varint();
  cell->rate_play_kbit = c.varint();
}

/// The ALRT payload: the monitor's complete MonitorState, detector doubles
/// as raw IEEE bits, prefixed by the spec JSON so a resume can reject a
/// changed --alert-spec.
void put_alerts_section(std::string& p, const std::string& spec_json,
                        const obs::MonitorState& st) {
  put_string(p, spec_json);
  p += static_cast<char>(st.deferred ? 1 : 0);
  put_varint(p, st.seed);
  put_varint(p, st.days);
  put_varint(p, st.windows);
  put_varint(p, st.groups.size());
  for (const std::string& g : st.groups) put_string(p, g);
  put_varint(p, st.consumed);
  put_varint(p, st.open);
  std::uint64_t n = 0;
  for (const obs::TimelineCell& cell : st.cells) n += cell.empty() ? 0 : 1;
  put_varint(p, n);
  for (std::size_t i = 0; i < st.cells.size(); ++i) {
    if (st.cells[i].empty()) continue;
    put_varint(p, i);
    put_timeline_cell(p, st.cells[i]);
  }
  for (const stats::EwmaState& e : st.ewma) {
    put_varint(p, e.base.n);
    put_f64(p, e.base.mean);
    put_f64(p, e.base.m2);
    put_f64(p, e.ewma);
    put_f64(p, e.sd);
    p += static_cast<char>(e.ready ? 1 : 0);
  }
  for (const stats::CusumState& s : st.cusum) {
    put_varint(p, s.base.n);
    put_f64(p, s.base.mean);
    put_f64(p, s.base.m2);
    put_f64(p, s.sd);
    p += static_cast<char>(s.ready ? 1 : 0);
    put_f64(p, s.s_pos);
    put_f64(p, s.s_neg);
  }
  for (const stats::BurnState& b : st.burn) {
    put_varint(p, b.streak);
    p += static_cast<char>(b.armed ? 1 : 0);
  }
  put_varint(p, st.alert_seq);
  put_string(p, st.alert_log);
  for (const obs::MonitorCandidates& cand : st.cand) {
    put_varint(p, cand.sessions.size());
    for (std::size_t i = 0; i < cand.sessions.size(); ++i) {
      put_varint(p, cand.sessions[i]);
      put_f64(p, cand.scores[i]);
    }
  }
  put_varint(p, st.pending.size());
  for (const obs::MonitorCapture& cap : st.pending) {
    put_varint(p, cap.day);
    put_varint(p, cap.window);
    put_varint(p, cap.group);
    put_varint(p, cap.session);
    put_string(p, cap.marker);
  }
}

bool parse_alerts_section(Cursor& c, std::string* spec_json,
                          obs::MonitorState* st) {
  if (!c.str(spec_json)) return false;
  st->deferred = (c.u8() & 1) != 0;
  st->seed = c.varint();
  st->days = static_cast<std::size_t>(c.varint());
  st->windows = static_cast<std::size_t>(c.varint());
  const std::uint64_t n_groups = c.varint();
  if (c.fail || n_groups == 0 || n_groups > 4096 || st->days == 0 ||
      st->days > (1u << 20) || st->windows == 0 ||
      st->windows > (1u << 16)) {
    return false;
  }
  st->groups.resize(static_cast<std::size_t>(n_groups));
  for (std::string& g : st->groups) {
    if (!c.str(&g)) return false;
  }
  st->consumed = c.varint();
  st->open = c.varint();
  const std::size_t g = st->groups.size();
  const std::uint64_t n_cells =
      static_cast<std::uint64_t>(st->days) * st->windows * g;
  st->cells.assign(static_cast<std::size_t>(n_cells), obs::TimelineCell{});
  const std::uint64_t n = c.varint();
  if (c.fail || n > n_cells) return false;
  for (std::uint64_t i = 0; i < n && !c.fail; ++i) {
    const std::uint64_t idx = c.varint();
    if (c.fail || idx >= n_cells) return false;
    parse_timeline_cell(c, &st->cells[static_cast<std::size_t>(idx)]);
  }
  st->ewma.assign(g * obs::kNumMonitorMetrics, stats::EwmaState{});
  for (stats::EwmaState& e : st->ewma) {
    e.base.n = c.varint();
    e.base.mean = c.f64();
    e.base.m2 = c.f64();
    e.ewma = c.f64();
    e.sd = c.f64();
    e.ready = (c.u8() & 1) != 0;
  }
  st->cusum.assign(g * obs::kNumMonitorMetrics, stats::CusumState{});
  for (stats::CusumState& s : st->cusum) {
    s.base.n = c.varint();
    s.base.mean = c.f64();
    s.base.m2 = c.f64();
    s.sd = c.f64();
    s.ready = (c.u8() & 1) != 0;
    s.s_pos = c.f64();
    s.s_neg = c.f64();
  }
  st->burn.assign(g * obs::kNumMonitorSlos, stats::BurnState{});
  for (stats::BurnState& b : st->burn) {
    b.streak = c.varint();
    b.armed = (c.u8() & 1) != 0;
  }
  st->alert_seq = c.varint();
  if (!c.str(&st->alert_log)) return false;
  st->cand.assign(g * obs::kNumMonitorMetrics, obs::MonitorCandidates{});
  for (obs::MonitorCandidates& cand : st->cand) {
    const std::uint64_t n_cand = c.varint();
    if (c.fail || n_cand > 4096) return false;
    cand.sessions.resize(static_cast<std::size_t>(n_cand));
    cand.scores.resize(static_cast<std::size_t>(n_cand));
    for (std::size_t i = 0; i < cand.sessions.size(); ++i) {
      cand.sessions[i] = c.varint();
      cand.scores[i] = c.f64();
    }
  }
  const std::uint64_t n_pending = c.varint();
  if (c.fail || n_pending > (1u << 20)) return false;
  st->pending.resize(static_cast<std::size_t>(n_pending));
  for (obs::MonitorCapture& cap : st->pending) {
    cap.day = c.varint();
    cap.window = c.varint();
    cap.group = c.varint();
    cap.session = c.varint();
    if (!c.str(&cap.marker)) return false;
  }
  return !c.fail;
}

/// Strict base-10 u64 parse for --shard and the env knobs (no atoll:
/// garbage must be rejected, not read as 0).
bool parse_number(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

// --- Container assembly -----------------------------------------------------

std::string serialize_checkpoint(const Checkpoint& ck) {
  BBA_ASSERT(ck.cells.size() == ck.groups.size(),
             "checkpoint cells/groups shape mismatch");
  std::string out;
  out.append(kCkptMagic, 8);
  put_u32(out, kCkptVersion);
  put_u32(out, 0);  // reserved

  struct Sec {
    std::uint32_t magic;
    std::uint64_t offset;
    std::uint64_t length;
  };
  std::vector<Sec> secs;
  std::string payload;
  auto add_section = [&](std::uint32_t magic) {
    const std::uint64_t offset = out.size();
    put_u32(out, magic);
    put_u32(out, static_cast<std::uint32_t>(payload.size()));
    put_u32(out, util::crc32(payload.data(), payload.size()));
    out += payload;
    secs.push_back(Sec{magic, offset, 12 + payload.size()});
    payload.clear();
  };

  put_run_section(payload, ck);
  add_section(kCkptSectionRun);
  put_cells_section(payload, ck);
  add_section(kCkptSectionCells);
  if (ck.has_timeline) {
    put_timeline_section(payload, ck.timeline);
    add_section(kCkptSectionTimeline);
  }
  if (ck.has_trace) {
    put_trace_section(payload, ck.trace);
    add_section(kCkptSectionTrace);
  }
  if (ck.has_seq) {
    put_seq_section(payload, ck.seq);
    add_section(kCkptSectionSeq);
  }
  if (ck.has_alerts) {
    put_alerts_section(payload, ck.alerts_spec_json, ck.alerts);
    add_section(kCkptSectionAlerts);
  }

  put_u32(out, kCkptFooterMagic);
  std::string body;
  put_varint(body, secs.size());
  for (const Sec& s : secs) {
    put_u32(body, s.magic);
    put_varint(body, s.offset);
    put_varint(body, s.length);
  }
  out += body;
  put_u32(out, util::crc32(body.data(), body.size()));
  put_u64(out, body.size());
  out.append(kCkptTrailerMagic, 8);
  return out;
}

bool parse_checkpoint(const std::string& bytes, Checkpoint* out,
                      std::string* error) {
  auto fail = [&](const char* msg) {
    *error = msg;
    return false;
  };
  constexpr std::size_t kHeader = 16;
  constexpr std::size_t kTrailer = 20;
  if (bytes.size() < kHeader + 4 + kTrailer) {
    return fail("checkpoint file too short");
  }
  if (std::memcmp(bytes.data(), kCkptMagic, 8) != 0) {
    return fail("not a bbackpt checkpoint (bad magic)");
  }
  const unsigned char* base =
      reinterpret_cast<const unsigned char*>(bytes.data());
  if (load_u32(base + 8) != kCkptVersion) {
    return fail("unsupported checkpoint version");
  }
  const unsigned char* trailer = base + bytes.size() - kTrailer;
  if (std::memcmp(trailer + 12, kCkptTrailerMagic, 8) != 0) {
    return fail("bad checkpoint trailer (file truncated?)");
  }
  const std::uint32_t footer_crc = load_u32(trailer);
  const std::uint64_t footer_len = load_u64(trailer + 4);
  if (footer_len > bytes.size() - kHeader - 4 - kTrailer) {
    return fail("checkpoint footer length out of range");
  }
  const unsigned char* body = trailer - footer_len;
  if (load_u32(body - 4) != kCkptFooterMagic) {
    return fail("bad checkpoint footer magic");
  }
  if (util::crc32(body, static_cast<std::size_t>(footer_len)) !=
      footer_crc) {
    return fail("checkpoint footer CRC mismatch");
  }

  Cursor fc{body, trailer};
  const std::uint64_t n_sections = fc.varint();
  if (fc.fail || n_sections == 0 || n_sections > 64) {
    return fail("corrupt checkpoint footer");
  }
  struct Sec {
    std::uint32_t magic;
    std::uint64_t offset;
    std::uint64_t length;
  };
  std::vector<Sec> secs;
  const std::uint64_t data_end = bytes.size() - kTrailer - footer_len - 4;
  for (std::uint64_t i = 0; i < n_sections; ++i) {
    Sec s;
    s.magic = fc.u32();
    s.offset = fc.varint();
    s.length = fc.varint();
    if (fc.fail || s.offset < kHeader || s.length < 12 ||
        s.offset + s.length > data_end) {
      return fail("corrupt checkpoint footer");
    }
    secs.push_back(s);
  }

  // Validates one section's framing + CRC and returns its payload span.
  auto payload_of = [&](const Sec& s, Cursor* c) -> bool {
    const unsigned char* p = base + s.offset;
    if (load_u32(p) != s.magic) return false;
    const std::uint32_t plen = load_u32(p + 4);
    const std::uint32_t pcrc = load_u32(p + 8);
    if (plen + 12 != s.length) return false;
    if (util::crc32(p + 12, plen) != pcrc) return false;
    *c = Cursor{p + 12, p + 12 + plen};
    return true;
  };

  *out = Checkpoint{};
  // RUN0 declares the grid, so it parses first regardless of file order.
  bool have_run = false;
  for (const Sec& s : secs) {
    if (s.magic != kCkptSectionRun) continue;
    Cursor c{nullptr, nullptr};
    if (!payload_of(s, &c)) return fail("checkpoint run section corrupt");
    if (!parse_run_section(c, out)) {
      return fail("checkpoint run section corrupt");
    }
    have_run = true;
    break;
  }
  if (!have_run) return fail("checkpoint has no run section");

  for (const Sec& s : secs) {
    Cursor c{nullptr, nullptr};
    if (s.magic == kCkptSectionRun) continue;
    if (!payload_of(s, &c)) return fail("checkpoint section CRC mismatch");
    if (s.magic == kCkptSectionCells) {
      if (!parse_cells_section(c, out)) {
        return fail("checkpoint cell section corrupt");
      }
    } else if (s.magic == kCkptSectionTimeline) {
      if (!parse_timeline_section(c, &out->timeline)) {
        return fail("checkpoint timeline section corrupt");
      }
      out->has_timeline = true;
    } else if (s.magic == kCkptSectionTrace) {
      if (!parse_trace_section(c, &out->trace)) {
        return fail("checkpoint trace section corrupt");
      }
      out->has_trace = true;
    } else if (s.magic == kCkptSectionSeq) {
      if (!parse_seq_section(c, &out->seq)) {
        return fail("checkpoint seq section corrupt");
      }
      out->has_seq = true;
    } else if (s.magic == kCkptSectionAlerts) {
      if (!parse_alerts_section(c, &out->alerts_spec_json, &out->alerts)) {
        return fail("checkpoint alerts section corrupt");
      }
      out->has_alerts = true;
    }
    // Unknown sections skip silently: forward compatibility.
  }
  if (out->cursor > out->total_keys) {
    return fail("checkpoint cursor past its key count");
  }
  return true;
}

bool save_checkpoint(const Checkpoint& ck, const std::string& path,
                     std::string* error) {
  const std::string bytes = serialize_checkpoint(ck);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    *error = "could not open " + tmp + " for writing";
    return false;
  }
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    *error = "could not write " + tmp + " (disk full?)";
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    *error = "could not rename " + tmp + " into place";
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool load_checkpoint(const std::string& path, Checkpoint* out,
                     std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "could not open checkpoint " + path;
    return false;
  }
  std::string bytes;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    *error = "could not read checkpoint " + path;
    return false;
  }
  if (!parse_checkpoint(bytes, out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

// --- Shard merge ------------------------------------------------------------

bool merge_checkpoints(const std::vector<Checkpoint>& parts, Checkpoint* out,
                       std::string* error) {
  if (parts.empty()) {
    *error = "no checkpoints to merge";
    return false;
  }
  const Checkpoint& first = parts[0];
  if (first.kind != 0) {
    *error = "only fixed-run checkpoints merge (sequential runs can't shard)";
    return false;
  }
  const std::uint64_t m = first.shard_count;
  if (parts.size() != m) {
    *error = "shard count mismatch: checkpoints declare " +
             std::to_string(m) + " shards, " +
             std::to_string(parts.size()) + " given";
    return false;
  }
  std::vector<bool> seen(static_cast<std::size_t>(m), false);
  std::uint64_t total = 0;
  for (const Checkpoint& p : parts) {
    if (p.kind != first.kind || p.seed != first.seed ||
        p.days != first.days || p.windows_per_day != first.windows_per_day ||
        p.sessions_per_window != first.sessions_per_window ||
        p.groups != first.groups || p.shard_count != m) {
      *error = "shard checkpoints disagree on run dimensions or groups";
      return false;
    }
    if (p.shard_index < 1 || p.shard_index > m ||
        seen[static_cast<std::size_t>(p.shard_index - 1)]) {
      *error = "shard indices must cover 1/" + std::to_string(m) + " .. " +
               std::to_string(m) + "/" + std::to_string(m) + " exactly once";
      return false;
    }
    seen[static_cast<std::size_t>(p.shard_index - 1)] = true;
    if (!p.complete()) {
      *error = "shard " + std::to_string(p.shard_index) + "/" +
               std::to_string(m) + " is incomplete (cursor " +
               std::to_string(p.cursor) + "/" + std::to_string(p.total_keys) +
               "); finish it before merging";
      return false;
    }
    if (p.has_timeline != first.has_timeline) {
      *error = "some shards carry a timeline and some do not";
      return false;
    }
    if (p.has_alerts != first.has_alerts) {
      *error = "some shards carry health-monitor state and some do not";
      return false;
    }
    if (p.has_alerts && p.alerts_spec_json != first.alerts_spec_json) {
      *error = "shard checkpoints disagree on the --alert-spec";
      return false;
    }
    total += p.total_keys;
  }
  const std::uint64_t full_grid =
      first.days * first.windows_per_day * first.sessions_per_window;
  if (total != full_grid) {
    *error = "shard key counts do not sum to the full grid";
    return false;
  }

  *out = Checkpoint{};
  out->kind = 0;
  out->seed = first.seed;
  out->days = first.days;
  out->windows_per_day = first.windows_per_day;
  out->sessions_per_window = first.sessions_per_window;
  out->shard_index = 1;
  out->shard_count = 1;
  out->total_keys = full_grid;
  out->cursor = full_grid;
  out->groups = first.groups;
  out->cells.assign(
      out->groups.size(),
      std::vector<std::vector<WindowMetrics>>(
          static_cast<std::size_t>(out->days),
          std::vector<WindowMetrics>(
              static_cast<std::size_t>(out->windows_per_day))));
  // Disjoint union: every (day, window) cell lives wholly in one shard, so
  // a second shard touching the same cell is corruption, not a merge case.
  for (const Checkpoint& p : parts) {
    for (std::size_t g = 0; g < p.cells.size(); ++g) {
      for (std::size_t d = 0; d < p.cells[g].size(); ++d) {
        for (std::size_t w = 0; w < p.cells[g][d].size(); ++w) {
          const WindowMetrics& cell = p.cells[g][d][w];
          if (cell.sessions == 0) continue;
          if (out->cells[g][d][w].sessions != 0) {
            *error = "shards overlap: cell (day " + std::to_string(d) +
                     ", window " + std::to_string(w) +
                     ") appears in two shards";
            return false;
          }
          out->cells[g][d][w] = cell;
        }
      }
    }
  }
  if (first.has_timeline) {
    out->has_timeline = true;
    out->timeline = first.timeline;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      if (!out->timeline.merge(parts[i].timeline)) {
        *error = "shard timelines disagree on seed, groups, or windows";
        return false;
      }
    }
  }
  // Trace state is per-file; shard trace files merge via `bba_merge
  // traces`, so the merged checkpoint deliberately carries none.
  out->has_trace = false;
  if (first.has_alerts) {
    // Sharded monitors deferred their detectors, so the per-shard states
    // carry cells only. Union the disjoint cells; the merged state stays
    // deferred with fresh detectors, and the resume render refold()s the
    // full grid in canonical order -- the unsharded run's bytes exactly.
    out->has_alerts = true;
    out->alerts_spec_json = first.alerts_spec_json;
    obs::MonitorState& st = out->alerts;
    st.deferred = true;
    st.seed = first.alerts.seed;
    st.days = static_cast<std::size_t>(first.days);
    st.windows = static_cast<std::size_t>(first.windows_per_day);
    st.groups = first.alerts.groups;
    const std::size_t g = st.groups.size();
    st.cells.assign(st.days * st.windows * g, obs::TimelineCell{});
    st.ewma.assign(g * obs::kNumMonitorMetrics, stats::EwmaState{});
    st.cusum.assign(g * obs::kNumMonitorMetrics, stats::CusumState{});
    st.burn.assign(g * obs::kNumMonitorSlos, stats::BurnState{});
    st.cand.assign(g * obs::kNumMonitorMetrics, obs::MonitorCandidates{});
    for (const Checkpoint& p : parts) {
      if (p.alerts.groups != st.groups || p.alerts.seed != st.seed ||
          p.alerts.days != st.days || p.alerts.windows != st.windows ||
          p.alerts.cells.size() != st.cells.size()) {
        *error = "shard health-monitor states disagree on the grid";
        return false;
      }
      for (std::size_t i = 0; i < st.cells.size(); ++i) {
        if (p.alerts.cells[i].empty()) continue;
        if (!st.cells[i].empty()) {
          *error = "shards overlap: health-monitor cell " +
                   std::to_string(i) + " appears in two shards";
          return false;
        }
        st.cells[i] = p.alerts.cells[i];
      }
    }
  }
  return true;
}

// --- Options ----------------------------------------------------------------

bool CheckpointOptions::parse_shard(const std::string& spec) {
  const std::size_t slash = spec.find('/');
  if (slash == std::string::npos) return false;
  std::uint64_t k = 0, m = 0;
  if (!parse_number(spec.substr(0, slash).c_str(), &k) ||
      !parse_number(spec.substr(slash + 1).c_str(), &m)) {
    return false;
  }
  if (k < 1 || m < 1 || k > m) return false;
  shard_index = static_cast<std::size_t>(k);
  shard_count = static_cast<std::size_t>(m);
  return true;
}

CheckpointOptions CheckpointOptions::from_env() {
  CheckpointOptions opts;
  auto env = [](const char* name) -> const char* {
    const char* v = std::getenv(name);
    return (v != nullptr && *v != '\0') ? v : nullptr;
  };
  if (const char* v = env("BBA_CHECKPOINT_OUT")) opts.out = v;
  if (const char* v = env("BBA_CHECKPOINT_RESUME")) opts.resume = v;
  std::uint64_t n = 0;
  if (const char* v = env("BBA_CHECKPOINT_EVERY")) {
    if (parse_number(v, &n)) opts.every = static_cast<std::size_t>(n);
  }
  if (const char* v = env("BBA_CHECKPOINT_KILL")) {
    if (parse_number(v, &n)) opts.kill_after = static_cast<std::size_t>(n);
  }
  if (const char* v = env("BBA_CHECKPOINT_SHARD")) opts.parse_shard(v);
  return opts;
}

// --- The checkpointed harness ----------------------------------------------

bool run_ab_test_checkpointed(const std::vector<Group>& groups,
                              const media::VideoLibrary& library,
                              const AbTestConfig& cfg,
                              const CheckpointOptions& opts,
                              AbTestResult* result, std::string* error) {
  BBA_ASSERT(!groups.empty(), "at least one group required");
  BBA_ASSERT(cfg.days >= 1 && cfg.sessions_per_window >= 1,
             "experiment dimensions must be >= 1");
  BBA_ASSERT(opts.shard_index >= 1 && opts.shard_index <= opts.shard_count,
             "--shard index must lie in 1..count");
  std::string scratch_error;
  if (error == nullptr) error = &scratch_error;

  obs::Observability* o = obs::global();
  obs::Profiler* profiler = o != nullptr ? o->profiler.get() : nullptr;
  obs::ScopedTimer run_span(profiler, 0, "run_ab_test");
  obs::TimelineAggregator* timeline =
      o != nullptr ? o->timeline.get() : nullptr;
  obs::TraceCollector* tracer =
      (o != nullptr && o->trace != nullptr && o->trace->ok())
          ? o->trace.get()
          : nullptr;
  obs::HealthMonitor* monitor = o != nullptr ? o->monitor.get() : nullptr;

  *result = AbTestResult{};
  result->group_names.reserve(groups.size());
  for (const auto& g : groups) result->group_names.push_back(g.name);
  result->cells.assign(
      groups.size(),
      std::vector<std::vector<WindowMetrics>>(
          cfg.days, std::vector<WindowMetrics>(kWindowsPerDay)));

  // The canonical key sequence, filtered to this shard's (day, window)
  // cells. A cell's sessions all share one shard, so each cell's fold
  // order -- and therefore its order-sensitive incremental means -- is
  // identical to the unsharded run's.
  std::vector<SessionKey> keys;
  keys.reserve(cfg.days * kWindowsPerDay * cfg.sessions_per_window /
                   opts.shard_count +
               cfg.sessions_per_window);
  for (std::size_t day = 0; day < cfg.days; ++day) {
    for (std::size_t window = 0; window < kWindowsPerDay; ++window) {
      if ((day * kWindowsPerDay + window) % opts.shard_count !=
          opts.shard_index - 1) {
        continue;
      }
      for (std::size_t user = 0; user < cfg.sessions_per_window; ++user) {
        keys.push_back(SessionKey{cfg.seed, day, window, user});
      }
    }
  }
  const std::uint64_t total = keys.size();

  if (timeline != nullptr) {
    timeline->begin_run(cfg.seed, result->group_names, cfg.days,
                        kWindowsPerDay);
  }
  if (monitor != nullptr) {
    monitor->begin_run(cfg.seed, result->group_names, cfg.days,
                       kWindowsPerDay);
    // A shard sees only its own (day, window) subsequence, which would
    // feed the detectors a different cell order than the unsharded fold:
    // accumulate cells only, and let the merged checkpoint's resume render
    // refold() the full grid.
    monitor->set_deferred(opts.sharded());
  }

  std::uint64_t cursor = 0;
  if (opts.resuming()) {
    Checkpoint ck;
    if (!load_checkpoint(opts.resume, &ck, error)) return false;
    if (ck.kind != 0) {
      *error = opts.resume + " checkpoints a sequential run; resume it "
               "with --sequential";
      return false;
    }
    if (ck.seed != cfg.seed || ck.days != cfg.days ||
        ck.windows_per_day != kWindowsPerDay ||
        ck.sessions_per_window != cfg.sessions_per_window) {
      *error = opts.resume +
               " was checkpointed with different run dimensions or seed";
      return false;
    }
    if (ck.groups != result->group_names) {
      *error = opts.resume + " was checkpointed with different groups";
      return false;
    }
    if (ck.shard_index != opts.shard_index ||
        ck.shard_count != opts.shard_count) {
      // A complete merged checkpoint (shard 1/1, cursor at total) may be
      // rendered by an unsharded resume; anything else must match.
      if (!(ck.shard_count == 1 && opts.shard_count == 1)) {
        *error = opts.resume + " was checkpointed for shard " +
                 std::to_string(ck.shard_index) + "/" +
                 std::to_string(ck.shard_count) +
                 ", this run is shard " + std::to_string(opts.shard_index) +
                 "/" + std::to_string(opts.shard_count);
        return false;
      }
    }
    if (ck.total_keys != total) {
      *error = opts.resume + " covers a different key count";
      return false;
    }
    result->cells = std::move(ck.cells);
    cursor = ck.cursor;
    if (timeline != nullptr) {
      if (!ck.has_timeline) {
        *error = "--timeline-out is set but " + opts.resume +
                 " has no timeline section (was the original run started "
                 "without --timeline-out?)";
        return false;
      }
      *timeline = ck.timeline;
    }
    if (tracer != nullptr) {
      if (!ck.has_trace) {
        *error = "--trace-out is set but " + opts.resume +
                 " has no trace section (was the original run started "
                 "without --trace-out?)";
        return false;
      }
      if (!tracer->resume_from(ck.trace, error)) return false;
    }
    if (monitor != nullptr) {
      if (!ck.has_alerts) {
        *error = "--alerts-out is set but " + opts.resume +
                 " has no alerts section (was the original run started "
                 "without --alerts-out?)";
        return false;
      }
      if (ck.alerts_spec_json != monitor->spec().to_json()) {
        *error = opts.resume +
                 " was checkpointed with a different --alert-spec (" +
                 ck.alerts_spec_json + "); resuming with new detector "
                 "parameters would change the fired alerts";
        return false;
      }
      monitor->restore(std::move(ck.alerts));
      // A merged (sharded) checkpoint carries deferred cells; an unsharded
      // resume render folds them through the detectors now, in canonical
      // order -- the unsharded run's alert bytes exactly.
      if (monitor->deferred() && !opts.sharded()) monitor->refold();
    }
    std::fprintf(stderr,
                 "checkpoint: resumed %s at key %llu/%llu\n",
                 opts.resume.c_str(),
                 static_cast<unsigned long long>(cursor),
                 static_cast<unsigned long long>(total));
  }

  SessionBlockRunner runner(groups, library, cfg);
  const std::uint64_t start = cursor;
  std::size_t saves = 0;
  auto save_now = [&]() -> bool {
    Checkpoint ck;
    ck.kind = 0;
    ck.seed = cfg.seed;
    ck.days = cfg.days;
    ck.windows_per_day = kWindowsPerDay;
    ck.sessions_per_window = cfg.sessions_per_window;
    ck.shard_index = opts.shard_index;
    ck.shard_count = opts.shard_count;
    ck.total_keys = total;
    ck.cursor = cursor;
    ck.groups = result->group_names;
    ck.cells = result->cells;
    if (timeline != nullptr && timeline->configured()) {
      ck.has_timeline = true;
      ck.timeline = *timeline;
    }
    if (tracer != nullptr) {
      ck.has_trace = true;
      ck.trace = tracer->resume_state();  // flushes first
    }
    if (monitor != nullptr && monitor->configured()) {
      ck.has_alerts = true;
      ck.alerts = monitor->state();
      ck.alerts_spec_json = monitor->spec().to_json();
    }
    if (!save_checkpoint(ck, opts.out, error)) return false;
    ++saves;
    std::fprintf(stderr, "checkpoint: wrote %s (key %llu/%llu)\n",
                 opts.out.c_str(), static_cast<unsigned long long>(cursor),
                 static_cast<unsigned long long>(total));
    if (opts.kill_after != 0 && saves >= opts.kill_after) {
      std::fprintf(stderr,
                   "checkpoint: --checkpoint-kill %llu reached, exiting\n",
                   static_cast<unsigned long long>(opts.kill_after));
      std::_Exit(3);
    }
    return true;
  };

  // The chunk loop. run() is block-split invariant (exp/block.hpp), so
  // chunking for --checkpoint-every changes no output byte; a resumed run
  // simply enters with cursor > 0 and folds the remaining suffix.
  while (cursor < total) {
    const std::uint64_t chunk =
        (!opts.out.empty() && opts.every != 0)
            ? std::min<std::uint64_t>(opts.every, total - cursor)
            : total - cursor;
    const std::span<const SessionKey> block(
        keys.data() + static_cast<std::size_t>(cursor),
        static_cast<std::size_t>(chunk));
    runner.run(block, [&](std::size_t i, std::size_t g,
                          const sim::SessionMetrics& m) {
      const SessionKey& key = block[i];
      accumulate_session(result->cells[g][key.day][key.window], m);
      if (timeline != nullptr) {
        timeline->record(key.day, key.window, g, m);
      }
      if (monitor != nullptr) {
        monitor->record(key.day, key.window, g, key.session, m);
      }
    });
    cursor += chunk;
    BBA_ASSERT(runner.keys_folded() == cursor - start,
               "executor fold cursor out of sync with the chunk loop");
    if (!opts.out.empty() && cursor < total) {
      if (!save_now()) return false;
    }
  }
  // The grid is complete: close the trailing cell and drain the capture
  // queue BEFORE the trace finishes and before the final checkpoint save.
  // Draining once at the end (not per chunk) makes the captured trace
  // bytes independent of --checkpoint-every chunking, and draining before
  // the save means a completed checkpoint re-render has nothing pending --
  // re-rendering never duplicates captures.
  if (monitor != nullptr && !opts.sharded()) {
    monitor->finalize();
    for (const obs::MonitorCapture& cap : monitor->take_captures()) {
      runner.capture_session(
          SessionKey{cfg.seed, static_cast<std::size_t>(cap.day),
                     static_cast<std::size_t>(cap.window),
                     static_cast<std::size_t>(cap.session)},
          static_cast<std::size_t>(cap.group), cap.marker);
    }
  }
  runner.finish();
  if (!opts.out.empty()) {
    if (!save_now()) return false;
  }
  return true;
}

}  // namespace bba::exp
