// Checkpoint/resume and sharded runs (exp/checkpoint.hpp): container
// round-trip bit-exactness, corruption detection, the
// run_ab_test_checkpointed equivalence contract (chunked / killed+resumed
// / sharded+merged runs all land on the uninterrupted run's bits), and
// resume validation of the run identity.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/abtest.hpp"
#include "exp/checkpoint.hpp"
#include "exp/population.hpp"
#include "media/video.hpp"
#include "obs/timeline.hpp"
#include "sim/metrics.hpp"
#include "util/rng.hpp"

namespace bba::exp {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

bool cells_bit_equal(const AbTestResult& a, const AbTestResult& b) {
  if (a.group_names != b.group_names) return false;
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t g = 0; g < a.cells.size(); ++g) {
    if (a.cells[g].size() != b.cells[g].size()) return false;
    for (std::size_t d = 0; d < a.cells[g].size(); ++d) {
      for (std::size_t w = 0; w < a.cells[g][d].size(); ++w) {
        const WindowMetrics& x = a.cells[g][d][w];
        const WindowMetrics& y = b.cells[g][d][w];
        if (bits(x.play_hours) != bits(y.play_hours) ||
            bits(x.rebuffer_count) != bits(y.rebuffer_count) ||
            bits(x.rebuffer_s) != bits(y.rebuffer_s) ||
            bits(x.avg_rate_bps) != bits(y.avg_rate_bps) ||
            bits(x.startup_rate_bps) != bits(y.startup_rate_bps) ||
            bits(x.steady_rate_bps) != bits(y.steady_rate_bps) ||
            bits(x.switch_count) != bits(y.switch_count) ||
            bits(x.steady_play_hours) != bits(y.steady_play_hours) ||
            bits(x.fault_stall_count) != bits(y.fault_stall_count) ||
            x.sessions != y.sessions) {
          return false;
        }
      }
    }
  }
  return true;
}

TEST(CheckpointOptions, ParseShard) {
  CheckpointOptions o;
  EXPECT_TRUE(o.parse_shard("1/1"));
  EXPECT_EQ(o.shard_index, 1u);
  EXPECT_EQ(o.shard_count, 1u);
  EXPECT_TRUE(o.parse_shard("3/8"));
  EXPECT_EQ(o.shard_index, 3u);
  EXPECT_EQ(o.shard_count, 8u);
  EXPECT_TRUE(o.sharded());

  for (const char* bad :
       {"", "0/4", "5/4", "a/b", "2", "2/", "/3", "1/0", "1/2/3", "-1/2"}) {
    CheckpointOptions fresh;
    EXPECT_FALSE(fresh.parse_shard(bad)) << bad;
  }
}

/// A fixed-run checkpoint with adversarial double bit patterns, a
/// populated timeline, and trace state -- every section exercised.
Checkpoint sample_checkpoint() {
  Checkpoint ck;
  ck.kind = 0;
  ck.seed = 0xdeadbeef;
  ck.days = 2;
  ck.windows_per_day = kWindowsPerDay;
  ck.sessions_per_window = 5;
  ck.total_keys = 2 * kWindowsPerDay * 5;
  ck.cursor = 37;
  ck.groups = {"control", "bba2"};
  ck.cells.assign(2, std::vector<std::vector<WindowMetrics>>(
                         2, std::vector<WindowMetrics>(kWindowsPerDay)));
  // Bit patterns that punish any text round trip: negative zero, a
  // denormal, a value with no short decimal form, and huge magnitudes.
  WindowMetrics& cell = ck.cells[1][0][3];
  cell.play_hours = 0.1;
  cell.rebuffer_count = -0.0;
  cell.rebuffer_s = 5e-324;
  cell.avg_rate_bps = 1.0 / 3.0;
  cell.startup_rate_bps = 1e300;
  cell.steady_rate_bps = -2.5e-10;
  cell.switch_count = 3.0;
  cell.steady_play_hours = 0.30000000000000004;
  cell.fault_stall_count = 1.0;
  cell.sessions = 4;
  ck.cells[0][1][11].sessions = 1;
  ck.cells[0][1][11].play_hours = 2.0;

  ck.has_timeline = true;
  ck.timeline.begin_run(ck.seed, ck.groups, 2, kWindowsPerDay);
  sim::SessionMetrics m;
  m.play_s = 1234.5;
  m.join_s = 1.25;
  m.rebuffer_count = 2;
  m.rebuffer_s = 3.5;
  m.avg_rate_bps = 2.1e6;
  m.avg_buffer_s = 17.0;
  m.switch_count = 5;
  ck.timeline.record(0, 3, 1, m);
  m.abandoned = true;
  ck.timeline.record(1, 11, 0, m);

  ck.has_trace = true;
  ck.trace.format = "jsonl";
  ck.trace.sample = 4;
  ck.trace.anomaly_rebuffer_s = 30.0;
  ck.trace.sessions_written = 9;
  ck.trace.anomalies_written = 2;
  ck.trace.bytes_written = 4096;
  ck.trace.write_errors = 0;
  ck.trace.file_size = 4096;
  return ck;
}

TEST(CheckpointContainer, FixedRunRoundTripIsBitExact) {
  const Checkpoint ck = sample_checkpoint();
  const std::string bytes = serialize_checkpoint(ck);

  Checkpoint back;
  std::string error;
  ASSERT_TRUE(parse_checkpoint(bytes, &back, &error)) << error;
  EXPECT_EQ(back.kind, ck.kind);
  EXPECT_EQ(back.seed, ck.seed);
  EXPECT_EQ(back.days, ck.days);
  EXPECT_EQ(back.windows_per_day, ck.windows_per_day);
  EXPECT_EQ(back.sessions_per_window, ck.sessions_per_window);
  EXPECT_EQ(back.total_keys, ck.total_keys);
  EXPECT_EQ(back.cursor, ck.cursor);
  EXPECT_FALSE(back.complete());
  EXPECT_EQ(back.groups, ck.groups);

  const WindowMetrics& a = ck.cells[1][0][3];
  const WindowMetrics& b = back.cells[1][0][3];
  EXPECT_EQ(bits(a.play_hours), bits(b.play_hours));
  EXPECT_EQ(bits(a.rebuffer_count), bits(b.rebuffer_count));  // -0.0 kept
  EXPECT_EQ(bits(a.rebuffer_s), bits(b.rebuffer_s));          // denormal
  EXPECT_EQ(bits(a.avg_rate_bps), bits(b.avg_rate_bps));
  EXPECT_EQ(bits(a.startup_rate_bps), bits(b.startup_rate_bps));
  EXPECT_EQ(bits(a.steady_rate_bps), bits(b.steady_rate_bps));
  EXPECT_EQ(bits(a.steady_play_hours), bits(b.steady_play_hours));
  EXPECT_EQ(a.sessions, b.sessions);

  ASSERT_TRUE(back.has_timeline);
  EXPECT_EQ(back.timeline.to_json(), ck.timeline.to_json());
  ASSERT_TRUE(back.has_trace);
  EXPECT_EQ(back.trace.format, "jsonl");
  EXPECT_EQ(back.trace.sample, 4u);
  EXPECT_EQ(back.trace.file_size, 4096u);

  // Serialization is a pure function of the state: re-serializing the
  // parsed checkpoint reproduces the exact bytes.
  EXPECT_EQ(serialize_checkpoint(back), bytes);
}

TEST(CheckpointContainer, SeqRunRoundTrip) {
  Checkpoint ck;
  ck.kind = 1;
  ck.seed = 7;
  ck.days = 1;
  ck.windows_per_day = kWindowsPerDay;
  ck.sessions_per_window = 30;
  ck.total_keys = 720;
  ck.cursor = 240;
  ck.groups = {"control", "rmin-always"};
  ck.cells.assign(2, std::vector<std::vector<WindowMetrics>>(
                         1, std::vector<WindowMetrics>(kWindowsPerDay)));
  ck.has_seq = true;
  ck.seq.rounds = 4;
  ck.seq.sessions_used = 240;
  ck.seq.budget_sessions = 720;
  ck.seq.next_key = 120;
  ck.seq.batch_sessions = 30;
  ck.seq.min_batches = 2;
  ck.seq.baseline = 0;
  ck.seq.confidence = 0.95;
  ck.seq.metric = "rate";
  ck.seq.verdict = "";
  CheckpointSeq::Arm arm;
  arm.candidate = true;
  arm.n = 120;
  arm.mean = -0.125;
  arm.m2 = 17.5;
  arm.lo = -0.5;
  arm.hi = 0.25;
  ck.seq.arms = {CheckpointSeq::Arm{}, arm};
  ck.seq.decision_log = "{\"round\":1}\n{\"round\":2}\n";

  const std::string bytes = serialize_checkpoint(ck);
  Checkpoint back;
  std::string error;
  ASSERT_TRUE(parse_checkpoint(bytes, &back, &error)) << error;
  ASSERT_TRUE(back.has_seq);
  EXPECT_EQ(back.seq.rounds, 4u);
  EXPECT_EQ(back.seq.metric, "rate");
  ASSERT_EQ(back.seq.arms.size(), 2u);
  EXPECT_EQ(back.seq.arms[1].n, 120);
  EXPECT_EQ(bits(back.seq.arms[1].mean), bits(-0.125));
  EXPECT_EQ(bits(back.seq.arms[1].m2), bits(17.5));
  EXPECT_EQ(back.seq.decision_log, ck.seq.decision_log);
  EXPECT_EQ(serialize_checkpoint(back), bytes);
}

TEST(CheckpointContainer, DetectsCorruptionAndTruncation) {
  const std::string bytes = serialize_checkpoint(sample_checkpoint());
  Checkpoint out;
  std::string error;

  // Flip one payload byte (inside the first section, past the 16-byte
  // header and 12-byte framing): the section CRC must catch it.
  std::string corrupt = bytes;
  corrupt[40] = static_cast<char>(corrupt[40] ^ 0x20);
  EXPECT_FALSE(parse_checkpoint(corrupt, &out, &error));
  EXPECT_FALSE(error.empty());

  // Truncation at any point: bad trailer.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{10},
                                 bytes.size() / 2, bytes.size() - 1}) {
    error.clear();
    EXPECT_FALSE(parse_checkpoint(bytes.substr(0, keep), &out, &error))
        << "keep=" << keep;
    EXPECT_FALSE(error.empty());
  }

  // Wrong magic.
  std::string magic = bytes;
  magic[0] = 'X';
  EXPECT_FALSE(parse_checkpoint(magic, &out, &error));
}

/// Every single-bit flip inside any section (framing or payload) must be
/// rejected. Per section the sweep covers every bit of its first and last
/// 64 bytes plus a seeded share of 2,000 positions in between.
TEST(CheckpointContainer, EverySingleBitFlipInASectionIsRejected) {
  const std::string bytes = serialize_checkpoint(sample_checkpoint());
  struct Span {
    std::size_t begin, end;
  };
  std::vector<Span> sections;
  std::size_t at = 16;  // past the file header
  auto load_u32 = [&](std::size_t i) {
    std::uint32_t v = 0;
    for (int k = 0; k < 4; ++k) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[i + k]))
           << (8 * k);
    }
    return v;
  };
  while (load_u32(at) != kCkptFooterMagic) {
    const std::size_t len = 12 + load_u32(at + 4);
    sections.push_back({at, at + len});
    at += len;
  }
  ASSERT_EQ(sections.size(), 4u);  // RUN0, CELL, TLIN, TRCE

  util::Rng rng(2014);
  Checkpoint out;
  std::string error;
  for (const Span& sec : sections) {
    const std::size_t n_bits = (sec.end - sec.begin) * 8;
    std::vector<std::size_t> bits;
    for (std::size_t b = 0; b < n_bits; ++b) {
      if (b < 64 * 8 || b >= n_bits - 64 * 8) bits.push_back(b);
    }
    for (std::size_t k = 0; k < 2000 / sections.size(); ++k) {
      bits.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n_bits) - 1)));
    }
    for (const std::size_t bit : bits) {
      std::string corrupt = bytes;
      const std::size_t i = sec.begin + bit / 8;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << (bit % 8)));
      ASSERT_FALSE(parse_checkpoint(corrupt, &out, &error))
          << "section at " << sec.begin << ", bit " << bit;
    }
  }
}

TEST(CheckpointContainer, SaveLoadRoundTrip) {
  const Checkpoint ck = sample_checkpoint();
  const std::string path = testing::TempDir() + "/bba_ckpt_roundtrip.ckpt";
  std::string error;
  ASSERT_TRUE(save_checkpoint(ck, path, &error)) << error;
  Checkpoint back;
  ASSERT_TRUE(load_checkpoint(path, &back, &error)) << error;
  EXPECT_EQ(serialize_checkpoint(back), serialize_checkpoint(ck));
  std::remove(path.c_str());

  EXPECT_FALSE(save_checkpoint(ck, "/nonexistent/dir/x.ckpt", &error));
  EXPECT_FALSE(load_checkpoint("/nonexistent/dir/x.ckpt", &back, &error));
}

AbTestConfig tiny_config() {
  AbTestConfig cfg;
  cfg.sessions_per_window = 2;
  cfg.days = 1;
  cfg.seed = 99;
  cfg.threads = 2;
  return cfg;
}

std::vector<Group> tiny_groups() {
  return {{"control", make_control_factory()},
          {"bba2", make_bba2_factory()}};
}

TEST(CheckpointedRun, DefaultOptionsMatchRunAbTest) {
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const AbTestResult reference = run_ab_test(tiny_groups(), lib,
                                             tiny_config());
  AbTestResult result;
  std::string error;
  ASSERT_TRUE(run_ab_test_checkpointed(tiny_groups(), lib, tiny_config(),
                                       CheckpointOptions{}, &result, &error))
      << error;
  EXPECT_TRUE(cells_bit_equal(result, reference));
}

TEST(CheckpointedRun, ChunkedRunAndResumeRenderAreByteNeutral) {
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const AbTestResult reference = run_ab_test(tiny_groups(), lib,
                                             tiny_config());
  const std::string path = testing::TempDir() + "/bba_ckpt_chunked.ckpt";

  // Chunking the fold into 7-key blocks (with a save between blocks) must
  // not change a single bit: the fold is strictly sequential either way.
  CheckpointOptions opts;
  opts.out = path;
  opts.every = 7;
  AbTestResult chunked;
  std::string error;
  ASSERT_TRUE(run_ab_test_checkpointed(tiny_groups(), lib, tiny_config(),
                                       opts, &chunked, &error))
      << error;
  EXPECT_TRUE(cells_bit_equal(chunked, reference));

  // The final checkpoint is complete; resuming it re-renders the result
  // without simulating, at a different thread count.
  Checkpoint final_ck;
  ASSERT_TRUE(load_checkpoint(path, &final_ck, &error)) << error;
  EXPECT_TRUE(final_ck.complete());

  CheckpointOptions resume;
  resume.resume = path;
  AbTestConfig cfg = tiny_config();
  cfg.threads = 1;
  AbTestResult rendered;
  ASSERT_TRUE(run_ab_test_checkpointed(tiny_groups(), lib, cfg, resume,
                                       &rendered, &error))
      << error;
  EXPECT_TRUE(cells_bit_equal(rendered, reference));
  std::remove(path.c_str());
}

TEST(CheckpointedRun, ResumeValidatesRunIdentity) {
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const std::string path = testing::TempDir() + "/bba_ckpt_identity.ckpt";
  CheckpointOptions opts;
  opts.out = path;
  AbTestResult result;
  std::string error;
  ASSERT_TRUE(run_ab_test_checkpointed(tiny_groups(), lib, tiny_config(),
                                       opts, &result, &error))
      << error;

  CheckpointOptions resume;
  resume.resume = path;

  AbTestConfig wrong_seed = tiny_config();
  wrong_seed.seed = 100;
  EXPECT_FALSE(run_ab_test_checkpointed(tiny_groups(), lib, wrong_seed,
                                        resume, &result, &error));
  EXPECT_NE(error.find("seed"), std::string::npos) << error;

  AbTestConfig wrong_dims = tiny_config();
  wrong_dims.sessions_per_window = 3;
  EXPECT_FALSE(run_ab_test_checkpointed(tiny_groups(), lib, wrong_dims,
                                        resume, &result, &error));

  std::vector<Group> wrong_groups = tiny_groups();
  wrong_groups[1].name = "bba0";
  EXPECT_FALSE(run_ab_test_checkpointed(wrong_groups, lib, tiny_config(),
                                        resume, &result, &error));

  CheckpointOptions missing;
  missing.resume = "/nonexistent/x.ckpt";
  EXPECT_FALSE(run_ab_test_checkpointed(tiny_groups(), lib, tiny_config(),
                                        missing, &result, &error));
  std::remove(path.c_str());
}

TEST(CheckpointedRun, ShardsMergeToTheSingleRunCheckpoint) {
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const std::string base = testing::TempDir() + "/bba_ckpt_shard";

  // Unsharded reference run, also writing its final checkpoint.
  CheckpointOptions full_opts;
  full_opts.out = base + "_full.ckpt";
  AbTestResult reference;
  std::string error;
  ASSERT_TRUE(run_ab_test_checkpointed(tiny_groups(), lib, tiny_config(),
                                       full_opts, &reference, &error))
      << error;

  // Three shard partials, alternating thread counts.
  std::vector<Checkpoint> parts(3);
  for (std::size_t k = 1; k <= 3; ++k) {
    CheckpointOptions opts;
    opts.out = base + std::to_string(k) + ".ckpt";
    opts.shard_index = k;
    opts.shard_count = 3;
    AbTestConfig cfg = tiny_config();
    cfg.threads = (k % 2 == 0) ? 2 : 1;
    AbTestResult partial;
    ASSERT_TRUE(run_ab_test_checkpointed(tiny_groups(), lib, cfg, opts,
                                         &partial, &error))
        << error;
    ASSERT_TRUE(load_checkpoint(opts.out, &parts[k - 1], &error)) << error;
    EXPECT_TRUE(parts[k - 1].complete());
    std::remove(opts.out.c_str());
  }

  // The merged partials ARE the unsharded run's checkpoint, byte for byte.
  Checkpoint merged;
  ASSERT_TRUE(merge_checkpoints(parts, &merged, &error)) << error;
  Checkpoint full;
  ASSERT_TRUE(load_checkpoint(full_opts.out, &full, &error)) << error;
  EXPECT_EQ(serialize_checkpoint(merged), serialize_checkpoint(full));

  // And resuming the merged checkpoint renders the reference cells.
  const std::string merged_path = base + "_merged.ckpt";
  ASSERT_TRUE(save_checkpoint(merged, merged_path, &error)) << error;
  CheckpointOptions resume;
  resume.resume = merged_path;
  AbTestResult rendered;
  ASSERT_TRUE(run_ab_test_checkpointed(tiny_groups(), lib, tiny_config(),
                                       resume, &rendered, &error))
      << error;
  EXPECT_TRUE(cells_bit_equal(rendered, reference));
  std::remove(full_opts.out.c_str());
  std::remove(merged_path.c_str());
}

TEST(CheckpointedRun, MergeRejectsBadShardSets) {
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const std::string base = testing::TempDir() + "/bba_ckpt_badmerge";
  std::vector<Checkpoint> parts(2);
  std::string error;
  for (std::size_t k = 1; k <= 2; ++k) {
    CheckpointOptions opts;
    opts.out = base + std::to_string(k) + ".ckpt";
    opts.shard_index = k;
    opts.shard_count = 2;
    AbTestResult partial;
    ASSERT_TRUE(run_ab_test_checkpointed(tiny_groups(), lib, tiny_config(),
                                         opts, &partial, &error))
        << error;
    ASSERT_TRUE(load_checkpoint(opts.out, &parts[k - 1], &error)) << error;
    std::remove(opts.out.c_str());
  }

  Checkpoint merged;
  // Same shard twice.
  EXPECT_FALSE(
      merge_checkpoints({parts[0], parts[0]}, &merged, &error));
  // Missing shard.
  EXPECT_FALSE(merge_checkpoints({parts[0]}, &merged, &error));
  // Mismatched seed.
  Checkpoint reseeded = parts[1];
  reseeded.seed ^= 1;
  EXPECT_FALSE(merge_checkpoints({parts[0], reseeded}, &merged, &error));
  // The honest set still merges.
  EXPECT_TRUE(merge_checkpoints(parts, &merged, &error)) << error;
}

// A reproducible mid-run kill: the child process saves two checkpoints and
// _Exit(3)s right after the second, exactly like the CLI's
// --checkpoint-kill test hook. The parent then resumes the partial file at
// a different thread count and must land on the uninterrupted run's bits.
TEST(CheckpointedRunDeathTest, KillAndResumeReproduceTheRun) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const std::string path = testing::TempDir() + "/bba_ckpt_kill.ckpt";
  std::remove(path.c_str());

  CheckpointOptions kill_opts;
  kill_opts.out = path;
  kill_opts.every = 6;
  kill_opts.kill_after = 2;
  EXPECT_EXIT(
      {
        AbTestConfig cfg = tiny_config();
        cfg.threads = 1;
        AbTestResult result;
        std::string error;
        run_ab_test_checkpointed(tiny_groups(), lib, cfg, kill_opts,
                                 &result, &error);
      },
      testing::ExitedWithCode(3), "");

  Checkpoint partial;
  std::string error;
  ASSERT_TRUE(load_checkpoint(path, &partial, &error)) << error;
  EXPECT_EQ(partial.cursor, 12u);  // killed right after the second save
  EXPECT_FALSE(partial.complete());

  const AbTestResult reference = run_ab_test(tiny_groups(), lib,
                                             tiny_config());
  CheckpointOptions resume;
  resume.resume = path;
  AbTestResult resumed;
  ASSERT_TRUE(run_ab_test_checkpointed(tiny_groups(), lib, tiny_config(),
                                       resume, &resumed, &error))
      << error;
  EXPECT_TRUE(cells_bit_equal(resumed, reference));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bba::exp
