// Columnar binary traces: JSONL round trip, footer index, thread
// invariance, corruption rejection, and collector I/O-error surfacing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "abr/bola.hpp"
#include "core/bba2.hpp"
#include "exp/abtest.hpp"
#include "exp/checkpoint.hpp"
#include "media/video.hpp"
#include "net/capacity_trace.hpp"
#include "net/fault_inject.hpp"
#include "obs/btrace.hpp"
#include "obs/obs.hpp"
#include "obs/setup.hpp"
#include "obs/trace.hpp"
#include "sim/player.hpp"
#include "sim/session_sink.hpp"
#include "util/rng.hpp"

namespace bba {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string temp_path(const char* tag, const char* ext) {
  return testing::TempDir() + "obs_btrace_" + tag + ext;
}

/// Decodes every session of a btrace file to JSONL via the footer index;
/// fails the test on any error.
std::string cat_btrace(const std::string& path) {
  obs::BtraceReader reader;
  std::string error, out;
  EXPECT_TRUE(reader.open(path, &error)) << error;
  for (std::size_t i = 0; i < reader.session_count(); ++i) {
    EXPECT_TRUE(reader.read_session(i, &out, nullptr, &error)) << error;
  }
  return out;
}

// --- Harness round trip ---------------------------------------------------

exp::AbTestConfig tiny_config(std::size_t threads, bool faults) {
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 3;
  cfg.days = 1;
  cfg.seed = 99;
  cfg.threads = threads;
  if (faults) {
    EXPECT_TRUE(net::parse_fault_plan(
        "outage:every=45,dur=25..45;spike:every=120,dur=5..15,"
        "depth=0.05..0.2",
        &cfg.population.faults));
  }
  return cfg;
}

std::vector<exp::Group> tiny_groups() {
  std::vector<exp::Group> groups;
  groups.push_back({"control", exp::make_control_factory()});
  groups.push_back({"bba2", exp::make_bba2_factory()});
  return groups;
}

/// Runs the tiny experiment with the given collector format, leaving the
/// trace file at `path`.
void run_with_format(bool btrace, std::size_t threads,
                     const std::string& path, std::uint64_t sample,
                     bool faults) {
  obs::Observability handle;
  obs::TraceConfig tc;
  tc.path = path;
  tc.sample = sample;
  if (btrace) {
    handle.trace = std::make_unique<obs::BinaryTraceCollector>(tc);
  } else {
    handle.trace = std::make_unique<obs::TraceCollector>(tc);
  }
  ASSERT_TRUE(handle.trace->ok());
  obs::install(&handle);
  const media::VideoLibrary library = media::VideoLibrary::standard(3);
  exp::run_ab_test(tiny_groups(), library,
                   tiny_config(threads, faults));
  obs::install(nullptr);
}

TEST(BtraceRoundTrip, CatReproducesJsonlSinkBytes) {
  const std::string jp = temp_path("rt", ".jsonl");
  const std::string bp = temp_path("rt", ".btrace");
  run_with_format(false, 2, jp, 2, false);
  run_with_format(true, 2, bp, 2, false);
  const std::string jsonl = read_file(jp);
  ASSERT_FALSE(jsonl.empty());
  EXPECT_EQ(cat_btrace(bp), jsonl);
}

TEST(BtraceRoundTrip, CatReproducesJsonlSinkBytesWithFaults) {
  const std::string jp = temp_path("rtf", ".jsonl");
  const std::string bp = temp_path("rtf", ".btrace");
  run_with_format(false, 2, jp, 2, true);
  run_with_format(true, 2, bp, 2, true);
  const std::string jsonl = read_file(jp);
  ASSERT_FALSE(jsonl.empty());
  // The faulted schema round-trips too: fault header keys, fault event
  // lines, and the stall attribution flag.
  EXPECT_NE(jsonl.find("\"ev\":\"fault\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"fault\":"), std::string::npos);
  EXPECT_EQ(cat_btrace(bp), jsonl);
}

TEST(BtraceRoundTrip, FileBytesIdenticalAcrossThreadCounts) {
  const std::string p1 = temp_path("t1", ".btrace");
  const std::string p4 = temp_path("t4", ".btrace");
  run_with_format(true, 1, p1, 2, false);
  run_with_format(true, 4, p4, 2, false);
  const std::string bytes = read_file(p1);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, read_file(p4));
}

TEST(BtraceRoundTrip, CompressesAtLeastFiveFoldAtFullSampling) {
  const std::string jp = temp_path("full", ".jsonl");
  const std::string bp = temp_path("full", ".btrace");
  run_with_format(false, 2, jp, 1, false);
  run_with_format(true, 2, bp, 1, false);
  const std::size_t jsonl_size = read_file(jp).size();
  const std::size_t btrace_size = read_file(bp).size();
  ASSERT_GT(btrace_size, 0u);
  EXPECT_GE(static_cast<double>(jsonl_size),
            5.0 * static_cast<double>(btrace_size));
}

// --- Single-session round trips (anomalous + hostile values) --------------

net::CapacityTrace cliff_trace() {
  return net::CapacityTrace({{60.0, 8e6}, {36000.0, 1e3}}, false);
}

TEST(BtraceRoundTrip, AnomalousSessionMatchesJsonl) {
  util::Rng rng(11);
  const media::Video video = media::make_vbr_video(
      "t", media::EncodingLadder::netflix_2013(), 400, 4.0,
      media::VbrConfig{}, rng);
  const net::CapacityTrace trace = cliff_trace();
  sim::PlayerConfig player;
  player.watch_duration_s = 3600.0;
  player.give_up_stall_s = 120.0;

  obs::TraceConfig cfg;
  cfg.path = temp_path("anom", ".btrace");
  cfg.sample = 0;  // only the anomaly trigger can emit

  std::string jsonl;
  {
    core::Bba2 abr;
    obs::SessionTraceSink sink;
    sink.begin(cfg, 1, 0, 0, 0, "bba2", false);
    sim::simulate_session(video, trace, abr, player, sink);
    ASSERT_TRUE(sink.anomalous());
    ASSERT_TRUE(sink.finish(&jsonl));
  }
  {
    core::Bba2 abr;
    obs::BinaryTraceCollector collector(cfg);
    auto sink = collector.make_sink();
    sink->begin(cfg, 1, 0, 0, 0, "bba2", false);
    sim::simulate_session(video, trace, abr, player, *sink);
    std::string block;
    ASSERT_TRUE(sink->finish(&block));
    collector.write(block);
    collector.finalize();
  }
  obs::BtraceReader reader;
  std::string error, out;
  ASSERT_TRUE(reader.open(cfg.path, &error)) << error;
  ASSERT_EQ(reader.session_count(), 1u);
  EXPECT_TRUE(reader.entry(0).anomaly);
  ASSERT_TRUE(reader.read_session(0, &out, nullptr, &error)) << error;
  EXPECT_EQ(out, jsonl);
}

/// Feeds both sinks a synthetic session whose values exercise the %.10g
/// escape path (negative, huge, non-finite) next to fast-path values, plus
/// a group name needing JSON escaping.
TEST(BtraceRoundTrip, EscapeValuesAndHostileGroupNameMatchJsonl) {
  obs::TraceConfig cfg;
  cfg.path = temp_path("esc", ".btrace");
  cfg.sample = 1;

  std::vector<sim::ChunkRecord> chunks(4);
  const double values[4] = {-1.5, 9.5e12, 123.456789,
                            std::numeric_limits<double>::infinity()};
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    sim::ChunkRecord& c = chunks[i];
    c.index = i;
    c.rate_index = i % 2;  // forces switch lines
    c.rate_bps = values[i];
    c.size_bits = values[(i + 1) % 4];
    c.request_s = 4.0 * static_cast<double>(i) + 0.25;
    c.finish_s = c.request_s + 1.5;
    c.download_s = 1.5;
    c.throughput_bps = values[(i + 2) % 4];
    c.buffer_after_s = 8.0;
    c.off_wait_s = i == 2 ? 0.75 : 0.0;  // forces an off line
    c.position_s = 4.0 * static_cast<double>(i);
  }
  const sim::RebufferEvent stall{5.0, 2.25, 1, false};
  sim::SessionSummary summary;
  summary.chunk_duration_s = 4.0;
  summary.join_s = 0.5;
  summary.played_s = 16.0;
  summary.wall_s = 20.0;
  summary.started = true;

  auto feed = [&](sim::SessionSink& sink) {
    sink.on_session_start(4.0);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      if (i == 1) sink.on_rebuffer(stall);
      sink.on_chunk(chunks[i], 4.0 * static_cast<double>(i));
    }
    sink.on_session_end(summary);
  };

  std::string jsonl;
  {
    obs::SessionTraceSink sink;
    sink.begin(cfg, 7, 1, 2, 3, "we\"ird\\grp", true);
    feed(sink);
    ASSERT_TRUE(sink.finish(&jsonl));
  }
  {
    obs::BinaryTraceCollector collector(cfg);
    auto sink = collector.make_sink();
    sink->begin(cfg, 7, 1, 2, 3, "we\"ird\\grp", true);
    feed(*sink);
    std::string block;
    ASSERT_TRUE(sink->finish(&block));
    collector.write(block);
    collector.finalize();
  }
  EXPECT_NE(jsonl.find("-1.5"), std::string::npos);
  EXPECT_NE(jsonl.find("inf"), std::string::npos);
  EXPECT_EQ(cat_btrace(cfg.path), jsonl);
}

/// A session built to hit the encoders' worst cases: every chunk field
/// alternates between just under the 9e12 escape bound and 0, starting
/// high, and chunk indices between 2^63 and 0, so each delta (and
/// delta-of-delta) zigzags to near 2^64 and takes a 10-byte varint. The
/// index, rate and throughput columns fill exactly the 10 bytes per value
/// (plus the escape count) their encoders reserve. In five of the columns
/// every third value is an escape (negative, NaN, or >= 9e12), and the
/// off, switch and stall columns are empty. The decoded block must
/// reproduce the JSONL sink's bytes; a write past the reserved space
/// either corrupts them or trips the sanitizer build.
TEST(BtraceRoundTrip, WorstCaseVarintsAndEscapesMatchJsonl) {
  obs::TraceConfig cfg;
  cfg.path = temp_path("worst", ".btrace");
  cfg.sample = 1;

  constexpr double kHigh = 8.999999e12;
  const double escapes[3] = {-1.0, std::numeric_limits<double>::quiet_NaN(),
                             9.5e12};
  std::vector<sim::ChunkRecord> chunks(64);
  std::vector<double> played(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const double v = i % 2 == 0 ? kHigh - static_cast<double>(i) : 0.0;
    const double odd = i % 3 == 2 ? escapes[(i / 3) % 3] : v;
    sim::ChunkRecord& c = chunks[i];
    c.index = i % 2 == 0 ? (std::size_t{1} << 63) + i : i;
    c.rate_index = 3;  // constant: no switch lines
    c.rate_bps = v;
    c.size_bits = odd;
    c.request_s = v;
    c.finish_s = odd;
    c.download_s = odd;
    c.throughput_bps = v;
    c.buffer_after_s = odd;
    c.off_wait_s = 0.0;  // no off lines
    c.position_s = v;
    played[i] = odd;
  }
  sim::SessionSummary summary;
  summary.chunk_duration_s = 4.0;
  summary.played_s = 256.0;
  summary.wall_s = 300.0;
  summary.started = true;

  auto feed = [&](sim::SessionSink& sink) {
    sink.on_session_start(4.0);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      sink.on_chunk(chunks[i], played[i]);
    }
    sink.on_session_end(summary);
  };

  std::string jsonl;
  {
    obs::SessionTraceSink sink;
    sink.begin(cfg, 1, 0, 0, 0, "bba2", true);
    feed(sink);
    ASSERT_TRUE(sink.finish(&jsonl));
  }
  std::string block;
  {
    obs::BinaryTraceCollector collector(cfg);
    auto sink = collector.make_sink();
    sink->begin(cfg, 1, 0, 0, 0, "bba2", true);
    feed(*sink);
    ASSERT_TRUE(sink->finish(&block));
    collector.write(block);
    collector.finalize();
  }
  EXPECT_EQ(jsonl.find("\"ev\":\"switch\""), std::string::npos);
  EXPECT_EQ(jsonl.find("\"ev\":\"off\""), std::string::npos);
  EXPECT_EQ(jsonl.find("\"ev\":\"stall\""), std::string::npos);
  EXPECT_NE(jsonl.find("nan"), std::string::npos);
  // Most of the 64 chunks spend near 10 bytes on each of their 11 columns.
  EXPECT_GT(block.size(), 64u * 10u * 8u);
  EXPECT_EQ(cat_btrace(cfg.path), jsonl);
}

// --- Golden byte pin -----------------------------------------------------
// The trace and checkpoint bytes of a faulted, fully observed run, pinned
// by constant: control, BOLA and BBA-2 under the benchmark's faulted_obs
// fault plan, 1-in-4 sampling plus anomaly capture, the health monitor,
// and a checkpoint every 16 keys. The constants were recorded before the
// CRC-32 and the column encoders were rewritten, so they pin that rewrite
// as byte-neutral.

constexpr const char* kFaultedObsSpec =
    "outage:every=300,dur=20..35;spike:every=240,depth=0.1..0.3";

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct ObservedRun {
  std::string trace_path;
  std::string trace;
  std::string checkpoint;
};

ObservedRun faulted_obs_run(const std::string& format, std::size_t threads) {
  const std::string tag = format + std::to_string(threads);
  obs::ObsOptions opts;
  opts.trace_out = temp_path(("golden_" + tag).c_str(), ".trace");
  opts.trace_format = format;
  opts.trace_sample = 4;
  opts.alerts_out = temp_path(("golden_" + tag).c_str(), ".alerts");
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 6;
  cfg.days = 1;
  cfg.seed = 2014;
  cfg.threads = threads;
  EXPECT_TRUE(net::parse_fault_plan(kFaultedObsSpec, &cfg.population.faults));
  exp::CheckpointOptions ck;
  ck.out = temp_path(("golden_" + tag).c_str(), ".ckpt");
  ck.every = 16;
  std::vector<exp::Group> groups;
  groups.push_back({"control", exp::make_control_factory()});
  groups.push_back(
      {"bola", [] { return std::make_unique<abr::BolaAbr>(); }});
  groups.push_back({"bba2", exp::make_bba2_factory()});
  const media::VideoLibrary library = media::VideoLibrary::standard(11);
  {
    obs::ObsScope scope(opts, threads);
    EXPECT_TRUE(scope.ok());
    exp::AbTestResult result;
    std::string error;
    EXPECT_TRUE(exp::run_ab_test_checkpointed(groups, library, cfg, ck,
                                              &result, &error))
        << error;
  }
  return {opts.trace_out, read_file(opts.trace_out), read_file(ck.out)};
}

TEST(BtraceGolden, FaultedObservedRunBytesArePinned) {
  constexpr std::uint64_t kBtrace = 0x1cfea6dc9a931ca6ULL;
  constexpr std::uint64_t kJsonl = 0x02cf8609e047514aULL;
  constexpr std::uint64_t kCheckpoint = 0x1241cfd74bb63cd2ULL;
  for (std::size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const ObservedRun b = faulted_obs_run("btrace", threads);
    const ObservedRun j = faulted_obs_run("jsonl", threads);
    // The run exercises what the encoder must get right: fault events,
    // fault-attributed stalls and anomaly captures.
    ASSERT_NE(j.trace.find("\"ev\":\"fault\""), std::string::npos);
    ASSERT_NE(j.trace.find("\"fault\":true"), std::string::npos);
    ASSERT_NE(j.trace.find("\"anomaly\":true"), std::string::npos);
    EXPECT_EQ(cat_btrace(b.trace_path), j.trace);
    EXPECT_EQ(fnv1a64(b.trace), kBtrace) << std::hex << fnv1a64(b.trace);
    EXPECT_EQ(fnv1a64(j.trace), kJsonl) << std::hex << fnv1a64(j.trace);
    EXPECT_EQ(fnv1a64(b.checkpoint), kCheckpoint)
        << std::hex << fnv1a64(b.checkpoint);
  }
}

// --- Footer index ---------------------------------------------------------

TEST(BtraceIndex, FooterLookupAgreesWithLinearScan) {
  const std::string path = temp_path("idx", ".btrace");
  run_with_format(true, 2, path, 2, false);

  obs::BtraceReader indexed, scanned;
  std::string error;
  ASSERT_TRUE(indexed.open(path, &error)) << error;
  ASSERT_TRUE(scanned.open_scan(path, &error)) << error;
  ASSERT_GT(indexed.session_count(), 0u);
  ASSERT_EQ(indexed.session_count(), scanned.session_count());
  EXPECT_EQ(indexed.groups(), scanned.groups());
  for (std::size_t i = 0; i < indexed.session_count(); ++i) {
    const obs::BtraceEntry& a = indexed.entry(i);
    const obs::BtraceEntry& b = scanned.entry(i);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.day, b.day);
    EXPECT_EQ(a.window, b.window);
    EXPECT_EQ(a.session, b.session);
    EXPECT_EQ(a.group_id, b.group_id);
    EXPECT_EQ(a.sampled, b.sampled);
    EXPECT_EQ(a.anomaly, b.anomaly);
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.length, b.length);
    std::string via_index, via_scan;
    ASSERT_TRUE(indexed.read_session(i, &via_index, nullptr, &error))
        << error;
    ASSERT_TRUE(scanned.read_session(i, &via_scan, nullptr, &error))
        << error;
    EXPECT_EQ(via_index, via_scan);
  }
}

TEST(BtraceIndex, CountsMatchJsonlLines) {
  const std::string path = temp_path("cnt", ".btrace");
  run_with_format(true, 2, path, 2, false);
  obs::BtraceReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(path, &error)) << error;
  for (std::size_t i = 0; i < reader.session_count(); ++i) {
    std::string out;
    obs::BtraceReader::SessionCounts c;
    ASSERT_TRUE(reader.read_session(i, &out, &c, &error)) << error;
    auto occurrences = [&](const char* needle) {
      std::uint64_t n = 0;
      for (std::size_t pos = out.find(needle); pos != std::string::npos;
           pos = out.find(needle, pos + 1)) {
        ++n;
      }
      return n;
    };
    EXPECT_EQ(occurrences("\"ev\":\"chunk\""), c.chunks);
    EXPECT_EQ(occurrences("\"ev\":\"stall\""), c.stalls);
    EXPECT_EQ(occurrences("\"ev\":\"off\""), c.offs);
    EXPECT_EQ(occurrences("\"ev\":\"switch\""), c.switches);
    EXPECT_EQ(occurrences("\"ev\":\"fault\""), c.faults);
  }
}

// --- Corruption rejection -------------------------------------------------

TEST(BtraceCorruption, RejectsBadMagicAndEmptyFiles) {
  const std::string path = temp_path("junk", ".btrace");
  write_file(path, "definitely not a btrace file, but long enough to read");
  EXPECT_FALSE(obs::BtraceReader::sniff(path));
  obs::BtraceReader reader;
  std::string error;
  EXPECT_FALSE(reader.open(path, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;

  write_file(path, "");
  error.clear();
  EXPECT_FALSE(reader.open(path, &error));
  EXPECT_FALSE(error.empty());
}

TEST(BtraceCorruption, TruncationLosesFooterButScanRecovers) {
  const std::string path = temp_path("trunc", ".btrace");
  run_with_format(true, 2, path, 2, false);
  const std::string bytes = read_file(path);
  obs::BtraceReader whole;
  std::string error;
  ASSERT_TRUE(whole.open(path, &error)) << error;
  const std::size_t n = whole.session_count();
  ASSERT_GT(n, 1u);

  // Chop mid-footer: the indexed open must refuse, the scan must still
  // recover every intact block.
  const std::string cut = temp_path("trunc_cut", ".btrace");
  write_file(cut, bytes.substr(0, bytes.size() - 10));
  obs::BtraceReader reader;
  EXPECT_FALSE(reader.open(cut, &error));
  EXPECT_NE(error.find("missing footer"), std::string::npos) << error;
  ASSERT_TRUE(reader.open_scan(cut, &error)) << error;
  EXPECT_EQ(reader.session_count(), n);

  // Chop mid-block: scan keeps the sessions before the damage.
  const std::size_t mid_block =
      static_cast<std::size_t>(whole.entry(1).offset + whole.entry(1).length)
      - 4;
  write_file(cut, bytes.substr(0, mid_block));
  EXPECT_FALSE(reader.open(cut, &error));
  ASSERT_TRUE(reader.open_scan(cut, &error)) << error;
  EXPECT_EQ(reader.session_count(), 1u);
}

TEST(BtraceCorruption, BlockCrcMismatchIsDetected) {
  const std::string path = temp_path("crc", ".btrace");
  run_with_format(true, 2, path, 2, false);
  std::string bytes = read_file(path);
  obs::BtraceReader whole;
  std::string error;
  ASSERT_TRUE(whole.open(path, &error)) << error;
  ASSERT_GT(whole.session_count(), 1u);

  // Flip one payload byte of session 1. The footer is untouched, so open
  // still succeeds; reading the damaged session must fail, its neighbours
  // must not.
  const std::size_t flip = static_cast<std::size_t>(
      whole.entry(1).offset + obs::kBtraceBlockFramingSize + 20);
  bytes[flip] = static_cast<char>(bytes[flip] ^ 0x5a);
  const std::string bad = temp_path("crc_bad", ".btrace");
  write_file(bad, bytes);

  obs::BtraceReader reader;
  ASSERT_TRUE(reader.open(bad, &error)) << error;
  std::string out;
  EXPECT_TRUE(reader.read_session(0, &out, nullptr, &error)) << error;
  EXPECT_FALSE(reader.read_session(1, &out, nullptr, &error));
  EXPECT_NE(error.find("CRC mismatch"), std::string::npos) << error;
  // The scan hits the same CRC failure.
  EXPECT_FALSE(reader.open_scan(bad, &error));
  EXPECT_NE(error.find("CRC mismatch"), std::string::npos) << error;
}

/// Every single-bit flip inside a real block's payload must fail that
/// block's CRC. Bits swept: all of the first and last 64 payload bytes,
/// plus 2,000 seeded positions in between.
TEST(BtraceCorruption, EverySingleBitFlipInABlockPayloadIsRejected) {
  const std::string many = temp_path("flip_src", ".btrace");
  run_with_format(true, 1, many, 2, true);
  obs::BtraceReader source;
  std::string error;
  ASSERT_TRUE(source.open(many, &error)) << error;
  ASSERT_GT(source.session_count(), 0u);
  // The largest block: the most chunk-column bytes.
  std::size_t pick = 0;
  for (std::size_t i = 1; i < source.session_count(); ++i) {
    if (source.entry(i).length > source.entry(pick).length) pick = i;
  }
  const std::string block = read_file(many).substr(
      static_cast<std::size_t>(source.entry(pick).offset),
      static_cast<std::size_t>(source.entry(pick).length));

  // A one-block file: header, the block, footer index.
  obs::TraceConfig cfg;
  cfg.path = temp_path("flip_one", ".btrace");
  {
    obs::BinaryTraceCollector collector(cfg);
    collector.write(block);
    collector.finalize();
  }
  const std::string clean = read_file(cfg.path);
  const std::size_t payload_at =
      obs::kBtraceFileHeaderSize + obs::kBtraceBlockFramingSize;
  const std::size_t payload_len = block.size() - obs::kBtraceBlockFramingSize;
  ASSERT_GT(payload_len, 128u);

  std::vector<std::size_t> bits;  // bit positions within the payload
  for (std::size_t b = 0; b < 64 * 8; ++b) {
    bits.push_back(b);
    bits.push_back((payload_len - 64) * 8 + b);
  }
  util::Rng rng(2014);
  const auto last_middle_bit =
      static_cast<std::int64_t>(payload_len - 64) * 8 - 1;
  for (int k = 0; k < 2000; ++k) {
    bits.push_back(
        static_cast<std::size_t>(rng.uniform_int(64 * 8, last_middle_bit)));
  }

  const std::string flipped_path = temp_path("flip_bad", ".btrace");
  for (const std::size_t bit : bits) {
    std::string bytes = clean;
    bytes[payload_at + bit / 8] =
        static_cast<char>(bytes[payload_at + bit / 8] ^ (1 << (bit % 8)));
    write_file(flipped_path, bytes);
    obs::BtraceReader reader;
    ASSERT_TRUE(reader.open(flipped_path, &error)) << error;
    std::string out;
    ASSERT_FALSE(reader.read_session(0, &out, nullptr, &error))
        << "bit " << bit;
    ASSERT_NE(error.find("CRC mismatch"), std::string::npos) << error;
  }
}

// --- Collector I/O-error surfacing (regression) ---------------------------

TEST(TraceCollectorErrors, FailedWritesFlipOkAndCount) {
  // /dev/full accepts fopen but fails writes at flush time -- exactly the
  // full-disk failure the collector previously swallowed.
  obs::TraceConfig cfg;
  cfg.path = "/dev/full";
  obs::TraceCollector collector(cfg);
  if (!collector.ok()) GTEST_SKIP() << "/dev/full not available";
  std::string line(1 << 16, 'x');
  line += '\n';
  collector.write(line);
  collector.flush();
  if (collector.ok()) GTEST_SKIP() << "/dev/full did not reject writes";
  EXPECT_GE(collector.write_errors(), 1u);
  // The stats fragment reports the failure and the format tag.
  const std::string stats = collector.stats_json();
  EXPECT_NE(stats.find("\"write_errors\":"), std::string::npos);
  EXPECT_NE(stats.find("\"format\":\"jsonl\""), std::string::npos);
  EXPECT_EQ(stats.find("\"write_errors\":0"), std::string::npos);
}

TEST(TraceCollectorErrors, FormatTagInStats) {
  obs::TraceConfig cfg;  // no path: discards, never errors
  obs::TraceCollector jsonl_collector(cfg);
  EXPECT_NE(jsonl_collector.stats_json().find("\"format\":\"jsonl\""),
            std::string::npos);
  EXPECT_NE(jsonl_collector.stats_json().find("\"write_errors\":0"),
            std::string::npos);
  obs::BinaryTraceCollector btrace_collector(cfg);
  EXPECT_NE(btrace_collector.stats_json().find("\"format\":\"btrace\""),
            std::string::npos);
}

}  // namespace
}  // namespace bba
