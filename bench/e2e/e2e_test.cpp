// Tests of the benchmark's own logic: nearest-rank percentiles and the
// tail rule, ratio bases, and request-stream determinism.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "requests.hpp"
#include "stats.hpp"

namespace cvb::e2e {
namespace {

TEST(E2ePercentile, NearestRankPicksObservedSamples) {
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_EQ(percentile(ten, 50.0), 5.0);
  EXPECT_EQ(percentile(ten, 90.0), 9.0);
  EXPECT_EQ(percentile(ten, 100.0), 10.0);
  EXPECT_EQ(percentile(ten, 1.0), 1.0);
  EXPECT_EQ(percentile({42.0}, 90.0), 42.0);
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW((void)nearest_rank(0.0, 10), std::invalid_argument);
}

TEST(E2ePercentile, RankIsExactAtRoundNumbers) {
  EXPECT_EQ(nearest_rank(90.0, 100), 90u);
  EXPECT_EQ(nearest_rank(90.0, 101), 91u);
  EXPECT_EQ(nearest_rank(50.0, 3), 2u);
  EXPECT_EQ(nearest_rank(50.0, 4), 2u);
}

TEST(E2ePercentile, TailRuleNeedsTenSamplesAbove) {
  EXPECT_EQ(samples_above(90.0, 100), 10u);
  EXPECT_EQ(samples_above(90.0, 99), 9u);
  EXPECT_EQ(min_samples_for(90.0), 100u);
  EXPECT_EQ(min_samples_for(50.0), 20u);
  for (std::size_t n = min_samples_for(90.0); n < 400; ++n) {
    EXPECT_GE(samples_above(90.0, n), kMinTail) << n;
  }
}

TEST(E2eMetrics, EveryRatioCarriesItsBase) {
  MetricSet m;
  m.add_ratio("x.hit_ratio", 3.0, 12.0, "x.candidates", "count");
  m.add_ratio("x.other_ratio", 6.0, 12.0, "x.candidates", "count");
  m.add_ratio("x.empty_ratio", 0.0, 0.0, "x.none", "count");
  ASSERT_NE(m.find("x.candidates"), nullptr);
  EXPECT_EQ(m.find("x.candidates")->value, 12.0);
  EXPECT_EQ(m.find("x.hit_ratio")->value, 0.25);
  EXPECT_EQ(m.find("x.empty_ratio")->value, 0.0);
  for (const auto& [ratio, base] : m.bases()) {
    EXPECT_NE(m.find(ratio), nullptr) << ratio;
    EXPECT_NE(m.find(base), nullptr) << base;
  }
  // A base shared by two ratios must be the same count for both.
  EXPECT_THROW(m.add_ratio("x.bad_ratio", 1.0, 5.0, "x.candidates", "count"),
               std::logic_error);
  EXPECT_THROW(m.add("x.candidates", 1.0, "count"), std::logic_error);
}

TEST(E2eMetrics, NumbersKeepAllDigits) {
  EXPECT_EQ(format_number(0.1), "0.1");
  EXPECT_EQ(format_number(1234.5678901234567), "1234.5678901234567");
  EXPECT_EQ(format_number(3.0), "3");
  MetricSet m;
  m.add("a", 1.5, "ms");
  EXPECT_EQ(m.json(), "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}");
}

/// The byte form of every request a workload would send for `seed`.
std::string request_stream(std::uint64_t seed) {
  std::string out;
  const std::vector<BenchRequest> suite = suite_requests(1);
  for (std::uint64_t pass = 0; pass < 3; ++pass) {
    for (const std::size_t i : pass_order(suite.size(), seed, pass)) {
      out += request_json(suite[i], "s") + "\n";
    }
  }
  for (const BenchRequest& r : portfolio_requests()) {
    out += r.label + "\n";
  }
  const std::vector<BenchRequest> hot = table1_requests();
  for (std::uint64_t client = 0; client < 2; ++client) {
    ServeMix mix(seed, client, hot.size());
    for (int n = 0; n < 200; ++n) {
      const ServeMix::Pick pick = mix.next();
      out += pick.fresh ? request_json(fresh_request(seed, client,
                                                     pick.fresh_index),
                                       "f")
                        : request_json(hot[pick.hot], "h");
      out += "\n";
    }
  }
  return out;
}

TEST(E2eRequests, SameSeedSameBytes) {
  EXPECT_EQ(request_stream(7), request_stream(7));
  EXPECT_NE(request_stream(7), request_stream(8));
}

TEST(E2eRequests, SuiteIsTheTable1And2Rows) {
  const std::vector<BenchRequest> suite = suite_requests(4);
  ASSERT_EQ(suite.size(), 37u);
  std::set<std::string> labels;
  for (const BenchRequest& r : suite) {
    labels.insert(r.label);
    EXPECT_EQ(r.request.num_threads, 4);
  }
  EXPECT_EQ(labels.size(), 37u);
  EXPECT_EQ(table1_requests().size(), 33u);
  EXPECT_EQ(portfolio_requests().size(), 12u);
}

TEST(E2eRequests, PassOrderIsAPermutation) {
  const std::vector<std::size_t> order = pass_order(37, 5, 2);
  std::set<std::size_t> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), 37u);
  EXPECT_EQ(*seen.rbegin(), 36u);
  EXPECT_NE(pass_order(37, 5, 2), pass_order(37, 5, 3));
}

TEST(E2eRequests, ServeMixBlocksAreZipfSkewedWithFixedFreshShare) {
  ServeMix mix(3, 0, 33);
  std::vector<int> hits(33, 0);
  for (std::size_t block = 0; block < 3; ++block) {
    std::size_t fresh = 0;
    for (std::size_t i = 0; i < kServeBlock; ++i) {
      const ServeMix::Pick pick = mix.next();
      if (pick.fresh) {
        EXPECT_EQ(pick.fresh_index, block * kFreshPerBlock + fresh);
        ++fresh;
      } else {
        ++hits[pick.hot];
      }
    }
    EXPECT_EQ(fresh, kFreshPerBlock);
  }
  // Zipf(1) over 33 ranks: rank 0 gets 70 / H(33) ~ 17.2 of 70 slots.
  EXPECT_EQ(hits[0], 3 * 17);
  EXPECT_GT(hits[0], hits[1]);
  EXPECT_GT(hits[1], hits[8]);
}

TEST(E2eRequests, FreshDagSizesAreStratifiedOverThirtyToSixty) {
  std::multiset<int> sizes;
  for (std::uint64_t i = 0; i < kFreshPerBlock; ++i) {
    sizes.insert(fresh_request(11, 1, i).request.dfg.num_ops());
  }
  EXPECT_EQ(*sizes.begin(), 30);
  EXPECT_EQ(*sizes.rbegin(), 60);
  EXPECT_EQ(std::set<int>(sizes.begin(), sizes.end()).size(), kFreshPerBlock);
  // The next block draws the same sizes in another order.
  std::multiset<int> next;
  for (std::uint64_t i = kFreshPerBlock; i < 2 * kFreshPerBlock; ++i) {
    next.insert(fresh_request(11, 1, i).request.dfg.num_ops());
  }
  EXPECT_EQ(sizes, next);
}

}  // namespace
}  // namespace cvb::e2e
