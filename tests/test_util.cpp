// Tests for bba::util: deterministic RNG, CSV, table formatting, units,
// CRC-32.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "util/crc32.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace bba::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(0, 5);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all six values appear in 1000 draws
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.uniform_int(7, 7), 7);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(5);
  constexpr int kN = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.02);
}

TEST(Rng, NormalScalesMeanAndSigma) {
  Rng rng(5);
  constexpr int kN = 100000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / kN, 10.0, 0.05);
}

TEST(Rng, LognormalMedianIsExpMu) {
  Rng rng(9);
  constexpr int kN = 50001;
  std::vector<double> xs(kN);
  for (auto& x : xs) x = rng.lognormal(std::log(4.0), 0.8);
  std::nth_element(xs.begin(), xs.begin() + kN / 2, xs.end());
  EXPECT_NEAR(xs[kN / 2], 4.0, 0.15);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(13);
  constexpr int kN = 100000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.1);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(17);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(19);
  std::vector<double> weights{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / kN, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / kN, 0.75, 0.02);
}

TEST(Rng, ForkIsDeterministic) {
  Rng parent(123);
  Rng c1 = parent.fork(7);
  Rng c2 = Rng(123).fork(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(c1.next_u64(), c2.next_u64());
  }
}

TEST(Rng, ForkStreamsAreIndependent) {
  Rng parent(123);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1.next_u64() == c2.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkDoesNotPerturbParent) {
  Rng a(55);
  Rng b(55);
  (void)a.fork(3);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Csv, ParseSimpleLine) {
  const CsvRow row = parse_csv_line("a, b ,c");
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], "a");
  EXPECT_EQ(row[1], "b");
  EXPECT_EQ(row[2], "c");
}

TEST(Csv, ParseEmptyFields) {
  const CsvRow row = parse_csv_line(",x,");
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], "");
  EXPECT_EQ(row[1], "x");
  EXPECT_EQ(row[2], "");
}

TEST(Csv, RoundTripThroughFile) {
  const std::string path = testing::TempDir() + "/bba_csv_test.csv";
  {
    CsvWriter out(path);
    ASSERT_TRUE(out.ok());
    out.comment("a comment");
    out.row(std::vector<std::string>{"h1", "h2"});
    out.row(std::vector<double>{1.5, 2.25});
    out.row(std::vector<double>{-3.0, 1e6});
  }
  std::vector<CsvRow> rows;
  CsvRow header;
  ASSERT_TRUE(read_csv(path, rows, /*expect_header=*/true, &header));
  ASSERT_EQ(header.size(), 2u);
  EXPECT_EQ(header[0], "h1");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(std::stod(rows[0][0]), 1.5);
  EXPECT_DOUBLE_EQ(std::stod(rows[1][1]), 1e6);
  std::remove(path.c_str());
}

TEST(Csv, MissingFileReturnsFalse) {
  std::vector<CsvRow> rows;
  EXPECT_FALSE(read_csv("/nonexistent/definitely/missing.csv", rows));
}

TEST(Csv, SkipsCommentsAndBlankLines) {
  const std::string path = testing::TempDir() + "/bba_csv_comments.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# comment\n\n1,2\n  \n# another\n3,4\n", f);
    std::fclose(f);
  }
  std::vector<CsvRow> rows;
  ASSERT_TRUE(read_csv(path, rows));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "4");
  std::remove(path.c_str());
}

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  EXPECT_EQ(t.row_count(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  // Header and separator and two rows -> four lines.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_NE(t.to_string().find("only"), std::string::npos);
}

TEST(Format, PrintfStyle) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(fmt_double(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(kbps(235), 235e3);
  EXPECT_DOUBLE_EQ(mbps(3), 3e6);
  EXPECT_DOUBLE_EQ(to_kbps(5e6), 5000.0);
  EXPECT_DOUBLE_EQ(to_mbps(5e6), 5.0);
  EXPECT_DOUBLE_EQ(bits_to_megabytes(8e6), 1.0);
  EXPECT_DOUBLE_EQ(minutes(2), 120.0);
  EXPECT_DOUBLE_EQ(hours(1), 3600.0);
  EXPECT_DOUBLE_EQ(to_hours(1800), 0.5);
}

// --- CRC-32 ----------------------------------------------------------------

/// Bit-at-a-time CRC-32/ISO-HDLC straight from the definition: the oracle
/// the table-driven implementation must equal.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1)));
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32("", 0), 0u);
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog", 43),
            0x414FA339u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(2014);
  std::vector<unsigned char> buf(300 + 8);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.next_u64());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(crc32(buf.data() + offset, len),
                crc32_bitwise(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, MatchesBitwiseReferenceOnOneMebibyte) {
  Rng rng(7);
  std::vector<unsigned char> buf(std::size_t{1} << 20);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.next_u64());
  EXPECT_EQ(crc32(buf.data(), buf.size()),
            crc32_bitwise(buf.data(), buf.size()));
}

}  // namespace
}  // namespace bba::util
