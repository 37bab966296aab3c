#include "obs/btrace.hpp"

#include <bit>
#include <cstring>

#include "net/fault_inject.hpp"
#include "obs/trace_jsonl.hpp"
#include "util/assert.hpp"
#include "util/crc32.hpp"

namespace bba::obs {

namespace {

// --- Primitive serialization ----------------------------------------------
// Everything is little-endian, independent of host order.

void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out.append(b, 4);
}

char* write_u64(char* w, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) w[i] = static_cast<char>(v >> (8 * i));
  return w + 8;
}

void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  write_u64(b, v);
  out.append(b, 8);
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

// Worst-case bytes of one LEB128 varint of a u64.
constexpr std::size_t kMaxVarint = 10;

char* write_varint(char* w, std::uint64_t v) {
  while (v >= 0x80) {
    *w++ = static_cast<char>(0x80 | (v & 0x7f));
    v >>= 7;
  }
  *w++ = static_cast<char>(v);
  return w;
}

void put_varint(std::string& out, std::uint64_t v) {
  char b[kMaxVarint];
  out.append(b, static_cast<std::size_t>(write_varint(b, v) - b));
}

/// Grows `out` by `max` bytes and returns where they start. The caller
/// writes at most `max` bytes through the pointer, then hands its end to
/// trim(), so a column costs one resize instead of one append per byte.
char* grow(std::string& out, std::size_t max) {
  const std::size_t at = out.size();
  out.resize(at + max);
  return out.data() + at;
}

void trim(std::string& out, const char* end) {
  out.resize(static_cast<std::size_t>(end - out.data()));
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

/// Zigzag maps a wrapped (mod 2^64) delta to an unsigned varint-friendly
/// value: small positive and small negative deltas both encode short. The
/// pair is a bijection on u64, so *any* delta round-trips -- there is no
/// overflow case to special-case.
std::uint64_t zz(std::uint64_t d) { return (d << 1) ^ (0 - (d >> 63)); }
std::uint64_t unzz(std::uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }

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
};

// --- Column codecs --------------------------------------------------------
// A "num column" is a sequence of jsonl::Num values. Fast-path values store
// their microsecond integer as zigzag varints of order-1 deltas (or
// delta-of-deltas for monotone time columns, where consecutive deltas are
// near-equal and the second difference is near zero); the rare %.10g
// escapes are listed up front as (index, raw f64) pairs and skipped by the
// delta chain, so one outlier cannot blow up its neighbours' deltas.

// The encoders take a row vector and a field getter, so the chunk columns
// encode straight from the sink's ChunkRecords.
template <class Row, class Get>
void put_num_col(std::string& out, const std::vector<Row>& rows, Get get,
                 bool order2) {
  std::size_t n_esc = 0;
  for (const Row& r : rows) {
    if (!jsonl::Num::is_micro_range(get(r))) ++n_esc;
  }
  // One varint per value plus the escape count; an escape adds its raw f64.
  char* w = grow(out, kMaxVarint * (rows.size() + 1) + 8 * n_esc);
  w = write_varint(w, n_esc);
  if (n_esc != 0) {
    std::size_t prev_idx = 0;
    bool first = true;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const double v = get(rows[i]);
      if (jsonl::Num::is_micro_range(v)) continue;
      w = write_varint(w, first ? i : i - prev_idx);
      first = false;
      prev_idx = i;
      w = write_u64(w, std::bit_cast<std::uint64_t>(v));
    }
  }
  std::uint64_t prev = 0, prev_d = 0;
  for (const Row& r : rows) {
    const double v = get(r);
    if (!jsonl::Num::is_micro_range(v)) continue;
    const std::uint64_t micro = jsonl::Num::to_micro(v);
    const std::uint64_t d = micro - prev;  // wrapped; zigzag is total
    if (order2) {
      w = write_varint(w, zz(d - prev_d));
      prev_d = d;
    } else {
      w = write_varint(w, zz(d));
    }
    prev = micro;
  }
  trim(out, w);
}

void put_num_col(std::string& out, const std::vector<double>& vals,
                 bool order2) {
  put_num_col(out, vals, [](double v) { return v; }, order2);
}

// The out-of-band escapes of one num column, decoded before its values.
struct Escapes {
  std::vector<std::size_t> idx;
  std::vector<double> val;
};

bool get_num_col(Cursor& c, std::size_t n, bool order2, Escapes& esc,
                 std::vector<jsonl::Num>* out) {
  out->clear();
  out->reserve(n);
  const std::uint64_t n_esc = c.varint();
  if (c.fail || n_esc > n) return false;
  std::vector<std::size_t>& esc_idx = esc.idx;
  std::vector<double>& esc_val = esc.val;
  esc_idx.resize(static_cast<std::size_t>(n_esc));
  esc_val.resize(static_cast<std::size_t>(n_esc));
  std::size_t idx = 0;
  for (std::size_t i = 0; i < n_esc; ++i) {
    idx = i == 0 ? static_cast<std::size_t>(c.varint())
                 : idx + static_cast<std::size_t>(c.varint());
    esc_idx[i] = idx;
    esc_val[i] = c.f64();
  }
  if (c.fail || (n_esc != 0 && idx >= n)) return false;
  std::size_t e = 0;
  std::uint64_t prev = 0, prev_d = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (e < n_esc && esc_idx[e] == i) {
      out->push_back(jsonl::Num::of(esc_val[e]));
      ++e;
      continue;
    }
    const std::uint64_t t = c.varint();
    std::uint64_t d;
    if (order2) {
      d = prev_d + unzz(t);
      prev_d = d;
    } else {
      d = unzz(t);
    }
    prev += d;
    out->push_back(jsonl::Num::from_micro(prev));
  }
  return !c.fail && e == n_esc;
}

template <class Row, class Get>
void put_u64_col(std::string& out, const std::vector<Row>& rows, Get get) {
  char* w = grow(out, kMaxVarint * rows.size());
  std::uint64_t prev = 0;
  for (const Row& r : rows) {
    const std::uint64_t v = get(r);
    w = write_varint(w, zz(v - prev));
    prev = v;
  }
  trim(out, w);
}

void put_u64_col(std::string& out, const std::vector<std::uint64_t>& vals) {
  put_u64_col(out, vals, [](std::uint64_t v) { return v; });
}

bool get_u64_col(Cursor& c, std::size_t n, std::vector<std::uint64_t>* out) {
  out->clear();
  out->reserve(n);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prev += unzz(c.varint());
    out->push_back(prev);
  }
  return !c.fail;
}

// --- Block payload prefix -------------------------------------------------
// The leading bytes every block shares: session coordinates, group name,
// flags. The collector parses just this much to index a block; the reader
// parses it again as the start of a full decode.

constexpr std::uint8_t kFlagSampled = 1u << 0;
constexpr std::uint8_t kFlagAnomaly = 1u << 1;
constexpr std::uint8_t kFlagStarted = 1u << 2;
constexpr std::uint8_t kFlagAbandoned = 1u << 3;
constexpr std::uint8_t kFlagFaults = 1u << 4;
constexpr std::uint8_t kFlagFaultLoops = 1u << 5;
constexpr std::uint8_t kFlagAlert = 1u << 6;

struct BlockPrefix {
  std::uint64_t seed = 0, day = 0, window = 0, session = 0;
  std::string_view group;
  std::uint8_t flags = 0;
};

bool parse_prefix(Cursor& c, BlockPrefix* out) {
  out->seed = c.varint();
  out->day = c.varint();
  out->window = c.varint();
  out->session = c.varint();
  const std::uint64_t group_len = c.varint();
  if (c.fail || !c.need(static_cast<std::size_t>(group_len) + 1)) {
    return false;
  }
  out->group = std::string_view(reinterpret_cast<const char*>(c.p),
                                static_cast<std::size_t>(group_len));
  c.p += group_len;
  out->flags = *c.p++;
  return true;
}

std::uint32_t intern_group_name(std::vector<std::string>& groups,
                                std::string_view name) {
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (groups[i] == name) return static_cast<std::uint32_t>(i);
  }
  groups.emplace_back(name);
  return static_cast<std::uint32_t>(groups.size() - 1);
}

}  // namespace

// --- BinaryTraceSink ------------------------------------------------------

namespace {

/// walk_session_lines visitor recording the emission order as a tag stream
/// and gathering the non-chunk line fields into columns. Chunk lines carry
/// no payload here: the chunk columns encode straight from the sink's
/// chunk buffer, which the walk visits in index order.
struct CollectVisitor {
  std::vector<std::uint8_t>& tags;
  std::vector<std::uint64_t>& off_k;
  std::vector<double>& off_start;
  std::vector<double>& off_wait;
  std::vector<std::uint64_t>& sw_k;
  std::vector<double>& sw_t;
  std::vector<std::uint64_t>& sw_from;
  std::vector<std::uint64_t>& sw_to;
  std::vector<std::uint64_t>& st_k;
  std::vector<double>& st_start;
  std::vector<double>& st_dur;
  std::vector<std::uint8_t>& st_fault;

  void off(std::uint64_t k, double start_s, double wait_s) {
    tags.push_back(0);
    off_k.push_back(k);
    off_start.push_back(start_s);
    off_wait.push_back(wait_s);
  }
  void rate_switch(std::uint64_t k, double t_s, std::uint64_t from,
                   std::uint64_t to) {
    tags.push_back(1);
    sw_k.push_back(k);
    sw_t.push_back(t_s);
    sw_from.push_back(from);
    sw_to.push_back(to);
  }
  void stall(std::uint64_t k, double start_s, double dur_s, int fault_flag) {
    tags.push_back(2);
    st_k.push_back(k);
    st_start.push_back(start_s);
    st_dur.push_back(dur_s);
    if (fault_flag >= 0) st_fault.push_back(fault_flag != 0 ? 1 : 0);
  }
  void chunk(const sim::ChunkRecord&, double) { tags.push_back(3); }
};

}  // namespace

bool BinaryTraceSink::finish(std::string* out) const {
  BBA_ASSERT(ended_, "finish() requires a completed session");
  if (!emit_ || out == nullptr) return emit_;

  tags_.clear();
  off_k_.clear();
  off_start_.clear();
  off_wait_.clear();
  sw_k_.clear();
  sw_t_.clear();
  sw_from_.clear();
  sw_to_.clear();
  st_k_.clear();
  st_start_.clear();
  st_dur_.clear();
  st_fault_.clear();
  jsonl::walk_session_lines(
      chunks_, played_at_chunk_, rebuffers_,
      /*with_fault_flags=*/faults_ != nullptr,
      CollectVisitor{tags_, off_k_, off_start_, off_wait_, sw_k_, sw_t_,
                     sw_from_, sw_to_, st_k_, st_start_, st_dur_, st_fault_});

  std::string& p = payload_;
  p.clear();
  put_varint(p, seed_);
  put_varint(p, day_);
  put_varint(p, window_);
  put_varint(p, session_);
  put_varint(p, group_.size());
  p += group_;
  std::uint8_t flags = 0;
  if (sampled_) flags |= kFlagSampled;
  if (anomalous_) flags |= kFlagAnomaly;
  if (summary_.started) flags |= kFlagStarted;
  if (summary_.abandoned) flags |= kFlagAbandoned;
  if (faults_ != nullptr) {
    flags |= kFlagFaults;
    if (fault_loops_) flags |= kFlagFaultLoops;
  }
  if (!alert_marker_.empty()) flags |= kFlagAlert;
  p += static_cast<char>(flags);
  // Summary doubles are stored as raw IEEE bits: the JSONL header prints
  // them with %.10g (not the microsecond fast path), so the exact double
  // is the only representation that reproduces those bytes.
  put_f64(p, summary_.chunk_duration_s);
  put_f64(p, summary_.join_s);
  put_f64(p, summary_.played_s);
  put_f64(p, summary_.wall_s);
  put_f64(p, rebuffer_total_s_);
  if (!alert_marker_.empty()) {
    // The monitor's marker line, verbatim: the reader re-emits it after
    // the header so `bba_trace cat` round-trips alert captures exactly.
    put_varint(p, alert_marker_.size());
    p += alert_marker_;
  }
  if (faults_ != nullptr) {
    put_f64(p, fault_cycle_s_);
    put_varint(p, faults_->size());
    for (const net::InjectedFault& f : *faults_) {
      p += static_cast<char>(static_cast<std::uint8_t>(f.kind));
      put_f64(p, f.start_s);
      put_f64(p, f.duration_s);
      put_f64(p, f.factor);
    }
  }

  put_varint(p, tags_.size());
  p.append(reinterpret_cast<const char*>(tags_.data()), tags_.size());

  put_u64_col(p, off_k_);
  put_num_col(p, off_start_, /*order2=*/false);
  put_num_col(p, off_wait_, /*order2=*/false);

  put_u64_col(p, sw_k_);
  put_num_col(p, sw_t_, /*order2=*/false);
  put_u64_col(p, sw_from_);
  put_u64_col(p, sw_to_);

  put_u64_col(p, st_k_);
  put_num_col(p, st_start_, /*order2=*/false);
  put_num_col(p, st_dur_, /*order2=*/false);
  if (faults_ != nullptr) {
    // Stall fault-attribution bits, LSB-first, one bit per stall line.
    std::uint8_t byte = 0;
    for (std::size_t i = 0; i < st_fault_.size(); ++i) {
      byte |= static_cast<std::uint8_t>((st_fault_[i] & 1u) << (i % 8));
      if (i % 8 == 7) {
        p += static_cast<char>(byte);
        byte = 0;
      }
    }
    if (st_fault_.size() % 8 != 0) p += static_cast<char>(byte);
  }

  put_u64_col(p, chunks_, [](const sim::ChunkRecord& c) {
    return static_cast<std::uint64_t>(c.index);
  });
  put_u64_col(p, chunks_, [](const sim::ChunkRecord& c) {
    return static_cast<std::uint64_t>(c.rate_index);
  });
  const auto chunk_num_col = [&](double sim::ChunkRecord::*field,
                                 bool order2) {
    put_num_col(
        p, chunks_, [field](const sim::ChunkRecord& c) { return c.*field; },
        order2);
  };
  chunk_num_col(&sim::ChunkRecord::rate_bps, false);
  chunk_num_col(&sim::ChunkRecord::size_bits, false);
  chunk_num_col(&sim::ChunkRecord::download_s, false);
  chunk_num_col(&sim::ChunkRecord::throughput_bps, false);
  chunk_num_col(&sim::ChunkRecord::buffer_after_s, false);
  // Chunk times are monotone with near-constant stride; delta-of-delta
  // brings their varints down to a byte or two each.
  chunk_num_col(&sim::ChunkRecord::request_s, true);
  chunk_num_col(&sim::ChunkRecord::finish_s, true);
  chunk_num_col(&sim::ChunkRecord::position_s, true);
  put_num_col(p, played_at_chunk_, /*order2=*/true);

  BBA_ASSERT(p.size() <= 0xFFFFFFFFu, "btrace block payload exceeds 4 GiB");
  put_u32(*out, kBtraceBlockMagic);
  put_u32(*out, static_cast<std::uint32_t>(p.size()));
  put_u32(*out, util::crc32(p.data(), p.size()));
  out->append(p);
  return true;
}

// --- BinaryTraceCollector -------------------------------------------------

BinaryTraceCollector::BinaryTraceCollector(TraceConfig cfg)
    : TraceCollector(std::move(cfg)) {
  if (config().resume) {
    // The interrupted run already wrote the header (its bytes are part of
    // the checkpointed tallies); resume_from() restores offset_ and the
    // index. Until then the collector must not be written to.
    return;
  }
  std::string header;
  header.append(kBtraceMagic, sizeof kBtraceMagic);
  put_u32(header, kBtraceVersion);
  put_u32(header, 0);  // reserved
  TraceCollector::write(header);
  offset_ = header.size();
}

BinaryTraceCollector::~BinaryTraceCollector() { finalize(); }

std::unique_ptr<SessionTraceSink> BinaryTraceCollector::make_sink() const {
  return std::make_unique<BinaryTraceSink>();
}

void BinaryTraceCollector::write(const std::string& blocks) {
  BBA_ASSERT(!finalized_, "btrace write() after finalize()");
  const unsigned char* base =
      reinterpret_cast<const unsigned char*>(blocks.data());
  std::size_t pos = 0;
  while (pos < blocks.size()) {
    // Only BinaryTraceSink::finish output reaches this collector, so a
    // malformed block is a harness bug, not an input error.
    BBA_ASSERT(blocks.size() - pos >= kBtraceBlockFramingSize,
               "truncated btrace block framing");
    BBA_ASSERT(load_u32(base + pos) == kBtraceBlockMagic,
               "btrace write() fed non-block bytes");
    const std::uint32_t payload_len = load_u32(base + pos + 4);
    BBA_ASSERT(blocks.size() - pos - kBtraceBlockFramingSize >= payload_len,
               "truncated btrace block payload");
    Cursor c{base + pos + kBtraceBlockFramingSize,
             base + pos + kBtraceBlockFramingSize + payload_len};
    BlockPrefix prefix;
    BBA_ASSERT(parse_prefix(c, &prefix), "unparseable btrace block prefix");
    BtraceEntry e;
    e.seed = prefix.seed;
    e.day = prefix.day;
    e.window = prefix.window;
    e.session = prefix.session;
    e.group_id = intern_group_name(groups_, prefix.group);
    e.sampled = (prefix.flags & kFlagSampled) != 0;
    e.anomaly = (prefix.flags & kFlagAnomaly) != 0;
    e.offset = offset_ + pos;
    e.length = kBtraceBlockFramingSize + payload_len;
    entries_.push_back(e);
    pos += e.length;
  }
  offset_ += blocks.size();
  TraceCollector::write(blocks);
}

void BinaryTraceCollector::finalize() {
  if (finalized_) return;
  finalized_ = true;
  std::string footer;
  put_varint(footer, groups_.size());
  for (const std::string& g : groups_) {
    put_varint(footer, g.size());
    footer += g;
  }
  put_varint(footer, entries_.size());
  std::uint64_t prev_offset = 0;
  bool first = true;
  for (const BtraceEntry& e : entries_) {
    put_varint(footer, e.seed);
    put_varint(footer, e.day);
    put_varint(footer, e.window);
    put_varint(footer, e.session);
    put_varint(footer, e.group_id);
    std::uint8_t flags = 0;
    if (e.sampled) flags |= kFlagSampled;
    if (e.anomaly) flags |= kFlagAnomaly;
    footer += static_cast<char>(flags);
    put_varint(footer, first ? e.offset : e.offset - prev_offset);
    first = false;
    prev_offset = e.offset;
    put_varint(footer, e.length);
  }
  std::string tail;
  put_u32(tail, kBtraceFooterMagic);
  tail += footer;
  put_u32(tail, util::crc32(footer.data(), footer.size()));
  put_u64(tail, footer.size());
  tail.append(kBtraceTrailerMagic, sizeof kBtraceTrailerMagic);
  TraceCollector::write(tail);
  TraceCollector::flush();
}

bool BinaryTraceCollector::resume_from(const TraceResumeState& st,
                                       std::string* error) {
  BBA_ASSERT(!finalized_, "btrace resume_from after finalize()");
  BBA_ASSERT(entries_.empty(), "btrace resume_from after write()");
  if (!TraceCollector::resume_from(st, error)) return false;
  offset_ = st.file_size;
  if (config().path.empty()) return true;
  // Rebuild the in-memory footer index from the truncated file. The scan
  // visits blocks front to back, so groups intern in first-appearance
  // order -- exactly the order the interrupted collector assigned ids.
  BtraceReader reader;
  if (!reader.open_scan(config().path, error)) {
    *error = "rescanning truncated trace: " + *error;
    return false;
  }
  groups_ = reader.groups();
  entries_.reserve(reader.session_count());
  for (std::size_t i = 0; i < reader.session_count(); ++i) {
    entries_.push_back(reader.entry(i));
  }
  return true;
}

// --- BtraceReader ---------------------------------------------------------

namespace {

// A fault table row as stored in a block.
struct FaultRow {
  std::uint8_t kind;
  double start_s, dur_s, factor;
};

}  // namespace

// Everything read_session decodes a block into. The reader keeps one, so
// decoding session after session reuses the storage instead of allocating
// every column anew.
struct BtraceReader::Columns {
  std::vector<FaultRow> faults;
  std::vector<std::uint64_t> off_k, sw_k, sw_from, sw_to, st_k, ck_k, ck_rate;
  std::vector<jsonl::Num> off_start, off_wait, sw_t, st_start, st_dur;
  std::vector<jsonl::Num> ck_rate_bps, ck_bits, ck_dl, ck_tput, ck_buf,
      ck_req, ck_fin, ck_pos, ck_played;
  std::vector<std::uint8_t> st_fault;
  Escapes esc;
};

BtraceReader::BtraceReader() : cols_(std::make_unique<Columns>()) {}

BtraceReader::~BtraceReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool BtraceReader::sniff(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char magic[sizeof kBtraceMagic];
  const bool ok =
      std::fread(magic, 1, sizeof magic, f) == sizeof magic &&
      std::memcmp(magic, kBtraceMagic, sizeof magic) == 0;
  std::fclose(f);
  return ok;
}

std::uint32_t BtraceReader::intern_group(const std::string& name) {
  return intern_group_name(groups_, name);
}

bool BtraceReader::open_file(const std::string& path, std::string* error) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  entries_.clear();
  groups_.clear();
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  std::fseek(file_, 0, SEEK_END);
  file_size_ = static_cast<std::uint64_t>(std::ftell(file_));
  if (file_size_ < kBtraceFileHeaderSize) {
    *error = path + ": not a btrace file (shorter than the file header)";
    return false;
  }
  unsigned char header[kBtraceFileHeaderSize];
  std::fseek(file_, 0, SEEK_SET);
  if (std::fread(header, 1, sizeof header, file_) != sizeof header) {
    *error = path + ": cannot read file header";
    return false;
  }
  if (std::memcmp(header, kBtraceMagic, sizeof kBtraceMagic) != 0) {
    *error = path + ": not a btrace file (bad magic)";
    return false;
  }
  version_ = load_u32(header + sizeof kBtraceMagic);
  if (version_ != kBtraceVersion) {
    *error = path + ": unsupported btrace version " +
             std::to_string(version_);
    return false;
  }
  return true;
}

bool BtraceReader::open(const std::string& path, std::string* error) {
  if (!open_file(path, error)) return false;
  if (file_size_ < kBtraceFileHeaderSize + kBtraceTrailerSize + 4) {
    *error = path + ": missing footer index (truncated file?)";
    return false;
  }
  unsigned char trailer[kBtraceTrailerSize];
  std::fseek(file_,
             static_cast<long>(file_size_ - kBtraceTrailerSize), SEEK_SET);
  if (std::fread(trailer, 1, sizeof trailer, file_) != sizeof trailer) {
    *error = path + ": cannot read trailer";
    return false;
  }
  if (std::memcmp(trailer + 12, kBtraceTrailerMagic,
                  sizeof kBtraceTrailerMagic) != 0) {
    *error = path + ": missing footer index (truncated file?)";
    return false;
  }
  const std::uint32_t footer_crc = load_u32(trailer);
  const std::uint64_t footer_len = load_u64(trailer + 4);
  if (footer_len >
      file_size_ - kBtraceFileHeaderSize - kBtraceTrailerSize - 4) {
    *error = path + ": corrupt footer (length out of range)";
    return false;
  }
  const std::uint64_t footer_start =
      file_size_ - kBtraceTrailerSize - footer_len;
  unsigned char footer_magic[4];
  std::fseek(file_, static_cast<long>(footer_start - 4), SEEK_SET);
  if (std::fread(footer_magic, 1, 4, file_) != 4 ||
      load_u32(footer_magic) != kBtraceFooterMagic) {
    *error = path + ": corrupt footer (bad magic)";
    return false;
  }
  std::string footer(static_cast<std::size_t>(footer_len), '\0');
  if (footer_len != 0 &&
      std::fread(footer.data(), 1, footer.size(), file_) != footer.size()) {
    *error = path + ": cannot read footer";
    return false;
  }
  if (util::crc32(footer.data(), footer.size()) != footer_crc) {
    *error = path + ": corrupt footer (CRC mismatch)";
    return false;
  }
  Cursor c{reinterpret_cast<const unsigned char*>(footer.data()),
           reinterpret_cast<const unsigned char*>(footer.data()) +
               footer.size()};
  const std::uint64_t n_groups = c.varint();
  for (std::uint64_t i = 0; i < n_groups && !c.fail; ++i) {
    const std::uint64_t len = c.varint();
    if (c.fail || !c.need(static_cast<std::size_t>(len))) break;
    groups_.emplace_back(reinterpret_cast<const char*>(c.p),
                         static_cast<std::size_t>(len));
    c.p += len;
  }
  const std::uint64_t n_sessions = c.fail ? 0 : c.varint();
  std::uint64_t prev_offset = 0;
  for (std::uint64_t i = 0; i < n_sessions && !c.fail; ++i) {
    BtraceEntry e;
    e.seed = c.varint();
    e.day = c.varint();
    e.window = c.varint();
    e.session = c.varint();
    e.group_id = static_cast<std::uint32_t>(c.varint());
    const std::uint8_t flags = c.u8();
    e.sampled = (flags & kFlagSampled) != 0;
    e.anomaly = (flags & kFlagAnomaly) != 0;
    e.offset = i == 0 ? c.varint() : prev_offset + c.varint();
    prev_offset = e.offset;
    e.length = c.varint();
    if (c.fail || e.group_id >= groups_.size() ||
        e.length < kBtraceBlockFramingSize ||
        e.offset < kBtraceFileHeaderSize ||
        e.offset + e.length > footer_start - 4) {
      c.fail = true;
      break;
    }
    entries_.push_back(e);
  }
  if (c.fail || c.p != c.end) {
    entries_.clear();
    groups_.clear();
    *error = path + ": corrupt footer (malformed index)";
    return false;
  }
  return true;
}

bool BtraceReader::open_scan(const std::string& path, std::string* error) {
  if (!open_file(path, error)) return false;
  std::uint64_t pos = kBtraceFileHeaderSize;
  std::string buf;
  while (pos + kBtraceBlockFramingSize <= file_size_) {
    unsigned char framing[kBtraceBlockFramingSize];
    std::fseek(file_, static_cast<long>(pos), SEEK_SET);
    if (std::fread(framing, 1, sizeof framing, file_) != sizeof framing) {
      *error = path + ": cannot read block framing";
      return false;
    }
    // The block sequence ends at the first non-block magic: the footer on
    // a finalized file, or EOF-adjacent garbage on a truncated one (scan
    // recovers every intact block before the damage).
    if (load_u32(framing) != kBtraceBlockMagic) break;
    const std::uint32_t payload_len = load_u32(framing + 4);
    const std::uint32_t payload_crc = load_u32(framing + 8);
    // A payload running past EOF is the crash-mid-write signature: keep
    // the intact blocks already recovered. (A CRC mismatch below is real
    // corruption, not truncation, and still fails the scan.)
    if (pos + kBtraceBlockFramingSize + payload_len > file_size_) break;
    buf.resize(payload_len);
    if (payload_len != 0 &&
        std::fread(buf.data(), 1, buf.size(), file_) != buf.size()) {
      *error = path + ": cannot read block payload";
      return false;
    }
    if (util::crc32(buf.data(), buf.size()) != payload_crc) {
      *error = path + ": corrupt block (CRC mismatch) at offset " +
               std::to_string(pos);
      return false;
    }
    Cursor c{reinterpret_cast<const unsigned char*>(buf.data()),
             reinterpret_cast<const unsigned char*>(buf.data()) +
                 buf.size()};
    BlockPrefix prefix;
    if (!parse_prefix(c, &prefix)) {
      *error = path + ": corrupt block (unparseable prefix) at offset " +
               std::to_string(pos);
      return false;
    }
    BtraceEntry e;
    e.seed = prefix.seed;
    e.day = prefix.day;
    e.window = prefix.window;
    e.session = prefix.session;
    e.group_id = intern_group(std::string(prefix.group));
    e.sampled = (prefix.flags & kFlagSampled) != 0;
    e.anomaly = (prefix.flags & kFlagAnomaly) != 0;
    e.offset = pos;
    e.length = kBtraceBlockFramingSize + payload_len;
    entries_.push_back(e);
    pos += e.length;
  }
  return true;
}

bool BtraceReader::read_session(std::size_t i, std::string* jsonl_out,
                                SessionCounts* counts, std::string* error) {
  BBA_ASSERT(i < entries_.size(), "read_session index out of range");
  const BtraceEntry& entry = entries_[i];
  blockbuf_.resize(static_cast<std::size_t>(entry.length));
  std::fseek(file_, static_cast<long>(entry.offset), SEEK_SET);
  if (std::fread(blockbuf_.data(), 1, blockbuf_.size(), file_) !=
      blockbuf_.size()) {
    *error = "cannot read block at offset " + std::to_string(entry.offset);
    return false;
  }
  const unsigned char* base =
      reinterpret_cast<const unsigned char*>(blockbuf_.data());
  if (load_u32(base) != kBtraceBlockMagic) {
    *error = "corrupt block (bad magic) at offset " +
             std::to_string(entry.offset);
    return false;
  }
  const std::uint32_t payload_len = load_u32(base + 4);
  const std::uint32_t payload_crc = load_u32(base + 8);
  if (payload_len + kBtraceBlockFramingSize != entry.length) {
    *error = "corrupt block (length mismatch) at offset " +
             std::to_string(entry.offset);
    return false;
  }
  if (util::crc32(blockbuf_.data() + kBtraceBlockFramingSize, payload_len) !=
      payload_crc) {
    *error = "corrupt block (CRC mismatch) at offset " +
             std::to_string(entry.offset);
    return false;
  }

  Cursor c{base + kBtraceBlockFramingSize,
           base + kBtraceBlockFramingSize + payload_len};
  const auto corrupt = [&](const char* what) {
    *error = std::string("corrupt block (") + what + ") at offset " +
             std::to_string(entry.offset);
    return false;
  };

  BlockPrefix prefix;
  if (!parse_prefix(c, &prefix)) return corrupt("unparseable prefix");
  const bool has_faults = (prefix.flags & kFlagFaults) != 0;
  const double v_s = c.f64();
  const double join_s = c.f64();
  const double played_s = c.f64();
  const double wall_s = c.f64();
  const double rebuffer_s = c.f64();
  std::string_view alert_marker;
  if ((prefix.flags & kFlagAlert) != 0) {
    const std::uint64_t marker_len = c.varint();
    if (c.fail || !c.need(static_cast<std::size_t>(marker_len))) {
      return corrupt("truncated alert marker");
    }
    alert_marker = std::string_view(reinterpret_cast<const char*>(c.p),
                                    static_cast<std::size_t>(marker_len));
    c.p += marker_len;
  }
  Columns& col = *cols_;
  double fault_cycle_s = 0.0;
  std::uint64_t n_faults = 0;
  std::vector<FaultRow>& faults = col.faults;
  faults.clear();
  if (has_faults) {
    fault_cycle_s = c.f64();
    n_faults = c.varint();
    // 25 bytes per fault row; bounding first keeps reserve() sane on a
    // corrupt count.
    if (c.fail ||
        n_faults > static_cast<std::uint64_t>(c.end - c.p) / 25) {
      return corrupt("truncated fault table");
    }
    faults.reserve(static_cast<std::size_t>(n_faults));
    for (std::uint64_t f = 0; f < n_faults; ++f) {
      FaultRow row;
      row.kind = c.u8();
      row.start_s = c.f64();
      row.dur_s = c.f64();
      row.factor = c.f64();
      if (row.kind > static_cast<std::uint8_t>(net::FaultKind::kFailover)) {
        return corrupt("unknown fault kind");
      }
      faults.push_back(row);
    }
  }

  const std::uint64_t n_lines = c.varint();
  if (c.fail || !c.need(static_cast<std::size_t>(n_lines))) {
    return corrupt("truncated tag stream");
  }
  const unsigned char* tags = c.p;
  c.p += n_lines;
  std::size_t n_off = 0, n_switch = 0, n_stall = 0, n_chunk = 0;
  for (std::uint64_t t = 0; t < n_lines; ++t) {
    switch (tags[t]) {
      case 0: ++n_off; break;
      case 1: ++n_switch; break;
      case 2: ++n_stall; break;
      case 3: ++n_chunk; break;
      default: return corrupt("unknown event tag");
    }
  }

  if (!get_u64_col(c, n_off, &col.off_k) ||
      !get_num_col(c, n_off, false, col.esc, &col.off_start) ||
      !get_num_col(c, n_off, false, col.esc, &col.off_wait) ||
      !get_u64_col(c, n_switch, &col.sw_k) ||
      !get_num_col(c, n_switch, false, col.esc, &col.sw_t) ||
      !get_u64_col(c, n_switch, &col.sw_from) ||
      !get_u64_col(c, n_switch, &col.sw_to) ||
      !get_u64_col(c, n_stall, &col.st_k) ||
      !get_num_col(c, n_stall, false, col.esc, &col.st_start) ||
      !get_num_col(c, n_stall, false, col.esc, &col.st_dur)) {
    return corrupt("truncated event columns");
  }
  if (has_faults) {
    const std::size_t n_bytes = (n_stall + 7) / 8;
    if (!c.need(n_bytes)) return corrupt("truncated stall fault bits");
    col.st_fault.resize(n_stall);
    for (std::size_t s = 0; s < n_stall; ++s) {
      col.st_fault[s] = (c.p[s / 8] >> (s % 8)) & 1u;
    }
    c.p += n_bytes;
  }
  if (!get_u64_col(c, n_chunk, &col.ck_k) ||
      !get_u64_col(c, n_chunk, &col.ck_rate) ||
      !get_num_col(c, n_chunk, false, col.esc, &col.ck_rate_bps) ||
      !get_num_col(c, n_chunk, false, col.esc, &col.ck_bits) ||
      !get_num_col(c, n_chunk, false, col.esc, &col.ck_dl) ||
      !get_num_col(c, n_chunk, false, col.esc, &col.ck_tput) ||
      !get_num_col(c, n_chunk, false, col.esc, &col.ck_buf) ||
      !get_num_col(c, n_chunk, true, col.esc, &col.ck_req) ||
      !get_num_col(c, n_chunk, true, col.esc, &col.ck_fin) ||
      !get_num_col(c, n_chunk, true, col.esc, &col.ck_pos) ||
      !get_num_col(c, n_chunk, true, col.esc, &col.ck_played)) {
    return corrupt("truncated chunk columns");
  }
  if (c.fail || c.p != c.end) return corrupt("trailing bytes");

  if (counts != nullptr) {
    counts->chunks = n_chunk;
    counts->stalls = n_stall;
    counts->offs = n_off;
    counts->switches = n_switch;
    counts->faults = n_faults;
  }
  if (jsonl_out == nullptr) return true;

  std::string& o = *jsonl_out;
  jsonl::SessionHeader h;
  h.seed = prefix.seed;
  h.day = prefix.day;
  h.window = prefix.window;
  h.session = prefix.session;
  h.group = prefix.group;
  h.sampled = (prefix.flags & kFlagSampled) != 0;
  h.anomaly = (prefix.flags & kFlagAnomaly) != 0;
  h.started = (prefix.flags & kFlagStarted) != 0;
  h.abandoned = (prefix.flags & kFlagAbandoned) != 0;
  h.v_s = v_s;
  h.join_s = join_s;
  h.played_s = played_s;
  h.wall_s = wall_s;
  h.rebuffer_s = rebuffer_s;
  h.rebuffer_count = n_stall;
  h.chunks = n_chunk;
  if (has_faults) {
    h.has_faults = true;
    h.fault_count = n_faults;
    h.trace_cycle_s = jsonl::Num::of(fault_cycle_s);
    h.trace_loops = (prefix.flags & kFlagFaultLoops) != 0;
  }
  jsonl::append_session_line(o, h);
  o += alert_marker;
  for (const FaultRow& f : faults) {
    jsonl::append_fault_line(
        o, net::fault_kind_name(static_cast<net::FaultKind>(f.kind)),
        jsonl::Num::of(f.start_s), jsonl::Num::of(f.dur_s),
        jsonl::Num::of(f.factor));
  }

  // Replay the recorded line order; each tag consumes the next value from
  // its columns.
  std::size_t oi = 0, wi = 0, si = 0, ci = 0;
  for (std::uint64_t t = 0; t < n_lines; ++t) {
    switch (tags[t]) {
      case 0:
        jsonl::append_off_line(o, col.off_k[oi], col.off_start[oi], col.off_wait[oi]);
        ++oi;
        break;
      case 1:
        jsonl::append_switch_line(o, col.sw_k[wi], col.sw_t[wi], col.sw_from[wi],
                                  col.sw_to[wi]);
        ++wi;
        break;
      case 2:
        jsonl::append_stall_line(o, col.st_k[si], col.st_start[si], col.st_dur[si],
                                 has_faults ? (col.st_fault[si] != 0 ? 1 : 0)
                                            : -1);
        ++si;
        break;
      case 3: {
        jsonl::ChunkLine line;
        line.k = col.ck_k[ci];
        line.rate = col.ck_rate[ci];
        line.rate_bps = col.ck_rate_bps[ci];
        line.bits = col.ck_bits[ci];
        line.req_s = col.ck_req[ci];
        line.fin_s = col.ck_fin[ci];
        line.dl_s = col.ck_dl[ci];
        line.tput_bps = col.ck_tput[ci];
        line.buf_s = col.ck_buf[ci];
        line.pos_s = col.ck_pos[ci];
        line.played_s = col.ck_played[ci];
        jsonl::append_chunk_line(o, line);
        ++ci;
        break;
      }
      default: break;
    }
  }
  return true;
}

}  // namespace bba::obs
