// Columnar binary session traces ("btrace"): the full-population sibling of
// the JSONL trace (obs/trace.hpp).
//
// JSONL is practical at --trace-sample 64; at --trace-sample 1 a
// multi-million-session run produces tens of GB of text and the serializer
// dominates runtime. The btrace container stores the same per-session event
// stream as column blocks -- one self-contained block per session, each
// field of each event kind stored contiguously and delta + zigzag-varint
// coded -- behind the same collector single-writer fold, so every PR 3/PR 4
// invariant carries over: byte-identical files at any --threads value,
// deterministic 1-in-N sampling plus anomaly capture, fault events and
// stall attribution, zero steady-state allocations per session.
//
// The binary file is not a new schema, it is a *compression* of the JSONL
// one: `bba_trace cat run.btrace` re-emits the exact bytes the JSONL sink
// would have written for the same run. That round trip is exact because the
// sink stores precisely what the JSONL serializer would have printed --
// already-quantized microsecond integers for the fast-path numbers, raw
// doubles for the %.10g escapes and header fields -- and the decoder prints
// them through the same shared emitters (obs/trace_jsonl.hpp).
//
// Container layout (full byte-level description in docs/file_formats.md):
//
//   [16-byte file header]  "BBATRACE", u32 version, u32 reserved
//   [session block]*       u32 block magic, u32 payload length,
//                          u32 CRC32(payload), payload (columns)
//   [footer]               u32 footer magic, group table + session index:
//                          (day, window, session, group) -> block offset
//   [20-byte trailer]      u32 CRC32(footer), u64 footer length, "BBATRIDX"
//
// The trailer is fixed-size and lands at EOF, so a reader finds the index
// with one seek and reaches any session in O(1) -- `bba_session
// --repro-trace run.btrace --repro-pick N` replays without scanning. Every
// payload carries its own CRC; truncation or corruption is detected, never
// silently decoded.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace bba::obs {

inline constexpr char kBtraceMagic[8] = {'B', 'B', 'A', 'T',
                                         'R', 'A', 'C', 'E'};
inline constexpr char kBtraceTrailerMagic[8] = {'B', 'B', 'A', 'T',
                                                'R', 'I', 'D', 'X'};
inline constexpr std::uint32_t kBtraceVersion = 1;
inline constexpr std::uint32_t kBtraceBlockMagic = 0x4b4c4253;   // "SBLK"
inline constexpr std::uint32_t kBtraceFooterMagic = 0x58444953;  // "SIDX"
inline constexpr std::size_t kBtraceFileHeaderSize = 16;
inline constexpr std::size_t kBtraceBlockFramingSize = 12;
inline constexpr std::size_t kBtraceTrailerSize = 20;

/// One session in the footer index: coordinates and flags for selection,
/// offset/length for O(1) block access.
struct BtraceEntry {
  std::uint64_t seed = 0, day = 0, window = 0, session = 0;
  std::uint32_t group_id = 0;
  bool sampled = false;
  bool anomaly = false;
  std::uint64_t offset = 0;  ///< file offset of the block's framing magic
  std::uint64_t length = 0;  ///< whole block, framing included
};

/// SessionTraceSink that serializes the buffered session as one btrace
/// block instead of JSONL lines. The event *order* inside the block is the
/// JSONL line order (same walk_session_lines merge, recorded as a tag
/// stream), so decoding is a replay, not a re-derivation.
class BinaryTraceSink final : public SessionTraceSink {
 public:
  bool finish(std::string* out) const override;

 private:
  // Reused per-finish scratch (capacity kept across sessions, so a warm
  // sink serializes with zero heap allocations).
  mutable std::string payload_;
  mutable std::vector<std::uint8_t> tags_;
  mutable std::vector<std::uint64_t> off_k_, sw_k_, sw_from_, sw_to_, st_k_;
  mutable std::vector<double> off_start_, off_wait_, sw_t_, st_start_,
      st_dur_;
  mutable std::vector<std::uint8_t> st_fault_;
};

/// TraceCollector writing the btrace container. `write()` still appends
/// opaque pre-serialized bytes from the single-writer fold -- the collector
/// additionally parses each block's coordinate prefix to grow the footer
/// index, and `finalize()` (idempotent; the destructor calls it) appends
/// the footer + trailer.
class BinaryTraceCollector final : public TraceCollector {
 public:
  explicit BinaryTraceCollector(TraceConfig cfg);
  ~BinaryTraceCollector() override;

  const char* format_name() const override { return "btrace"; }
  std::unique_ptr<SessionTraceSink> make_sink() const override;

  /// Appends one or more complete blocks (a task's sessions arrive
  /// concatenated) and indexes each.
  void write(const std::string& blocks) override;

  /// Writes the footer index and trailer. Safe to call more than once;
  /// write() must not be called afterwards.
  void finalize() override;

  /// TraceCollector::resume_from plus index recovery: after truncating to
  /// the checkpointed offset, the file's blocks are rescanned (the
  /// open_scan path) to rebuild the interned group table and footer
  /// entries the interrupted collector held in memory, in the same order.
  bool resume_from(const TraceResumeState& st, std::string* error) override;

  std::size_t indexed_sessions() const { return entries_.size(); }

 private:
  std::vector<BtraceEntry> entries_;
  std::vector<std::string> groups_;  // interned; group_id indexes this
  std::uint64_t offset_ = 0;         // next block's file offset
  bool finalized_ = false;
};

/// Reads a btrace file: footer-index open (one seek, O(1) session access)
/// or a linear block scan that ignores the footer (recovery of truncated
/// files, and the cross-check that index and blocks agree).
class BtraceReader {
 public:
  BtraceReader() = default;
  ~BtraceReader();
  BtraceReader(const BtraceReader&) = delete;
  BtraceReader& operator=(const BtraceReader&) = delete;

  /// True when the file starts with the btrace magic (cheap format sniff
  /// for CLI dispatch; does not validate anything else).
  static bool sniff(const std::string& path);

  /// Opens via the trailer + footer index. On failure returns false and
  /// sets *error (bad magic, bad version, missing/corrupt footer).
  bool open(const std::string& path, std::string* error);

  /// Opens by scanning block framings front-to-back, rebuilding the index
  /// from each block's coordinate prefix; the footer (if any) is ignored.
  bool open_scan(const std::string& path, std::string* error);

  std::uint32_t version() const { return version_; }
  std::size_t session_count() const { return entries_.size(); }
  const BtraceEntry& entry(std::size_t i) const { return entries_[i]; }
  const std::string& group_name(std::uint32_t id) const {
    return groups_[id];
  }
  const std::vector<std::string>& groups() const { return groups_; }

  /// Per-session event tallies filled by read_session.
  struct SessionCounts {
    std::uint64_t chunks = 0, stalls = 0, offs = 0, switches = 0,
                  faults = 0;
  };

  /// Decodes session i and appends its JSONL serialization (header line +
  /// event lines, byte-identical to the JSONL sink) to *jsonl_out (may be
  /// null to just validate). Verifies the block CRC; returns false and
  /// sets *error on any corruption.
  bool read_session(std::size_t i, std::string* jsonl_out,
                    SessionCounts* counts, std::string* error);

 private:
  bool open_file(const std::string& path, std::string* error);
  std::uint32_t intern_group(const std::string& name);

  std::FILE* file_ = nullptr;
  std::uint64_t file_size_ = 0;
  std::uint32_t version_ = 0;
  std::vector<BtraceEntry> entries_;
  std::vector<std::string> groups_;
  std::string blockbuf_;  // reused block read buffer
};

}  // namespace bba::obs
