#include <vector>

#include <gtest/gtest.h>

#include "workload/stream.h"

namespace scp {
namespace {

TEST(QueryStream, TimesAreStrictlyIncreasing) {
  const auto d = QueryDistribution::uniform(100);
  QueryStream stream(d, 1000.0, 1);
  double last = -1.0;
  for (int i = 0; i < 1000; ++i) {
    const Query q = stream.next();
    EXPECT_GT(q.time, last);
    last = q.time;
    EXPECT_LT(q.key, 100u);
  }
}

TEST(QueryStream, RateMatchesExpectation) {
  const auto d = QueryDistribution::uniform(10);
  QueryStream stream(d, 5000.0, 2);
  const auto queries = stream.generate(2.0);
  // Poisson(rate·T): mean 10000, sd 100 → ±5 sd band.
  EXPECT_NEAR(static_cast<double>(queries.size()), 10000.0, 500.0);
  for (const Query& q : queries) {
    EXPECT_LT(q.time, 2.0);
  }
}

TEST(QueryStream, SameSeedSameStream) {
  const auto d = QueryDistribution::zipf(50, 1.1);
  QueryStream a(d, 100.0, 7);
  QueryStream b(d, 100.0, 7);
  for (int i = 0; i < 100; ++i) {
    const Query qa = a.next();
    const Query qb = b.next();
    EXPECT_DOUBLE_EQ(qa.time, qb.time);
    EXPECT_EQ(qa.key, qb.key);
  }
}

TEST(QueryStream, KeysFollowDistribution) {
  const auto d = QueryDistribution::uniform_over(4, 100);
  QueryStream stream(d, 1e6, 3);
  const auto queries = stream.generate(0.1);
  std::vector<int> counts(4, 0);
  for (const Query& q : queries) {
    ASSERT_LT(q.key, 4u);
    ++counts[q.key];
  }
  const double total = static_cast<double>(queries.size());
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / total, 0.25, 0.02);
  }
}

TEST(SampleKeyCounts, TotalsAndSupport) {
  const auto d = QueryDistribution::uniform_over(5, 50);
  const auto counts = sample_key_counts(d, 10000, 4);
  ASSERT_EQ(counts.size(), 50u);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    total += counts[i];
    if (i >= 5) {
      EXPECT_EQ(counts[i], 0u) << "key outside support was sampled";
    }
  }
  EXPECT_EQ(total, 10000u);
}

TEST(SampleKeyCounts, ZipfSkewShowsInCounts) {
  const auto d = QueryDistribution::zipf(1000, 1.2);
  const auto counts = sample_key_counts(d, 50000, 5);
  EXPECT_GT(counts[0], counts[100]);
  EXPECT_GT(counts[0], 1000u);
}

}  // namespace
}  // namespace scp
