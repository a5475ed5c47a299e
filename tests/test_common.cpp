// Unit tests for the common utilities (RNG, statistics, histogram, table,
// ring buffer).
#include <gtest/gtest.h>

#include <cmath>

#include "common/histogram.h"
#include "common/ring.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace flexstep {
namespace {

/// Every element of `ring`, oldest first.
std::vector<int> contents(const Ring<int>& ring) {
  std::vector<int> out(ring.size());
  ring.copy_out(0, ring.size(), out.data());
  return out;
}

TEST(Ring, ReserveCommitAcrossTheWrap) {
  Ring<int> ring(8);
  for (int i = 0; i < 6; ++i) ring.push_back(i);
  ring.pop_front(5);  // head at 5, one element queued: the back is at 6
  // The free run stops at the buffer end: 2 slots, not the 7 that are free.
  std::span<int> run = ring.reserve(100);
  ASSERT_EQ(run.size(), 2u);
  run[0] = 6;
  run[1] = 7;
  ring.commit(2);
  // The next run starts at the buffer front and stops at the head.
  run = ring.reserve(100);
  ASSERT_EQ(run.size(), 5u);
  for (int i = 0; i < 3; ++i) run[i] = 8 + i;
  ring.commit(3);  // a prefix: the rest stays free
  EXPECT_EQ(contents(ring), (std::vector<int>{5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(ring.capacity(), 8u);
  // front_run also stops at the wrap, and at the back.
  EXPECT_EQ(ring.front_run(100).size(), 3u);
  EXPECT_EQ(ring.front_run(2).size(), 2u);
  EXPECT_EQ(ring.front_run(100)[0], 5);
  ring.pop_front(3);
  ASSERT_EQ(ring.front_run(100).size(), 3u);
  EXPECT_EQ(ring.front_run(100)[2], 10);
}

TEST(Ring, ReserveGrowsOnlyAFullRing) {
  Ring<int> ring(4);
  for (int i = 0; i < 3; ++i) ring.push_back(i);
  ring.pop_front(2);
  for (int i = 3; i < 6; ++i) ring.push_back(i);  // full, and wrapped
  ASSERT_EQ(ring.size(), 4u);
  ASSERT_EQ(ring.capacity(), 4u);
  std::span<int> run = ring.reserve(3);
  EXPECT_EQ(ring.capacity(), 8u);  // grown before the run was handed out
  ASSERT_EQ(run.size(), 3u);
  for (int i = 0; i < 3; ++i) run[i] = 6 + i;
  ring.commit(3);
  EXPECT_EQ(contents(ring), (std::vector<int>{2, 3, 4, 5, 6, 7, 8}));
  // Not full: a reserve hands out what is free without growing.
  EXPECT_EQ(ring.reserve(100).size(), 1u);
  ring.commit(0);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.reserve(0).size(), 0u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(7);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) ++seen[rng.next_below(10)];
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const i64 v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, LogUniformWithinBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_log_uniform(10.0, 1000.0);
    EXPECT_GE(v, 10.0);
    EXPECT_LT(v, 1000.0);
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(9);
  Rng child = a.split();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.next_double_in(-5, 5);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, GeomeanOfSlowdowns) {
  const std::vector<double> xs{1.0107, 1.0107, 1.0107};
  EXPECT_NEAR(geomean(xs), 1.0107, 1e-9);
}

TEST(Stats, GeomeanMixed) {
  const std::vector<double> xs{1.0, 4.0};
  EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
}

TEST(Histogram, DensityIntegratesToOne) {
  Histogram h(0.0, 10.0, 20);
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) h.add(rng.next_double_in(0, 10));
  double integral = 0.0;
  for (std::size_t b = 0; b < h.bin_count(); ++b) integral += h.density(b) * h.bin_width();
  EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 1.0, 10);
  h.add(-5.0);
  h.add(7.0);
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(9), 1u);
}

TEST(Histogram, CdfExactAtRangeEdges) {
  // Awkward (lo, hi, bins) triples where lo + bins*width lands a ULP off hi
  // under floating-point rounding: cdf(hi) used to drop the last bin.
  const struct {
    double lo, hi;
    std::size_t bins;
  } triples[] = {{0.0, 0.7, 7}, {0.1, 0.7, 6}, {0.0, 1.0 / 3.0, 9},
                 {1e-3, 2.3e-1, 11}, {0.0, 100.0, 50}};
  for (const auto& t : triples) {
    Histogram h(t.lo, t.hi, t.bins);
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) h.add(rng.next_double_in(t.lo, t.hi));
    EXPECT_EQ(h.cdf(t.lo), 0.0) << t.lo << " " << t.hi << " " << t.bins;
    EXPECT_EQ(h.cdf(t.hi), 1.0) << t.lo << " " << t.hi << " " << t.bins;
  }
}

TEST(Histogram, RenderSurvivesWideWidths) {
  // Rows used to be assembled in a fixed char[256]: width ≳ 240 silently
  // truncated the bar and dropped the trailing count.
  Histogram h(0.0, 4.0, 4);
  h.add_n(0.5, 123456);  // peak bin: full-width bar
  h.add_n(1.5, 61728);
  for (const std::size_t width : {60u, 400u, 1000u}) {
    const std::string out = h.render(width);
    // Every row: 10-char center + " | " + width bar columns + " " + count.
    std::size_t rows = 0;
    std::size_t start = 0;
    while (start < out.size()) {
      const std::size_t end = out.find('\n', start);
      ASSERT_NE(end, std::string::npos);
      const std::string line = out.substr(start, end - start);
      EXPECT_GT(line.size(), 13 + width) << "width " << width;
      start = end + 1;
      ++rows;
    }
    EXPECT_EQ(rows, h.bin_count());
    // The peak bin renders a full-width bar and keeps its exact count.
    EXPECT_NE(out.find(std::string(width, '#') + " 123456"), std::string::npos)
        << "width " << width;
  }
}

TEST(Histogram, CdfMonotone) {
  Histogram h(0.0, 100.0, 50);
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) h.add(rng.next_double_in(0, 100));
  double prev = 0.0;
  for (double x = 0; x <= 100; x += 5) {
    const double c = h.cdf(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_NEAR(h.cdf(100.0), 1.0, 1e-9);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1.00"});
  t.add_row({"longer-name", "2.50"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| longer-name"), std::string::npos);
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, FormatsNumbersAndPercent) {
  EXPECT_EQ(Table::num(1.2345, 2), "1.23");
  EXPECT_EQ(Table::pct(0.0221), "+2.21%");
  EXPECT_EQ(Table::pct(-0.01, 1), "-1.0%");
}

TEST(Types, CycleUsConversion) {
  EXPECT_DOUBLE_EQ(cycles_to_us(1600), 1.0);
  EXPECT_EQ(us_to_cycles(2.0), 3200u);
}

}  // namespace
}  // namespace flexstep
