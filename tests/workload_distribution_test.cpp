#include "workload/distribution.h"

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "workload/arrival.h"

namespace nicsched::workload {

// Names each parameterised case by its distribution family ("bimodal" of
// "bimodal(...)"): gtest's default print of a shared_ptr holds heap addresses,
// so the discovered test names would change per run. Outside the unnamed
// namespace so argument-dependent lookup finds it.
void PrintTo(const std::shared_ptr<ServiceDistribution>& distribution,
             std::ostream* os) {
  const std::string name = distribution->name();
  *os << name.substr(0, name.find('('));
}

namespace {

double empirical_mean_us(ServiceDistribution& distribution, int n,
                         std::uint64_t seed = 1) {
  sim::Rng rng(seed);
  double sum = 0;
  for (int i = 0; i < n; ++i) {
    sum += distribution.sample(rng).work.to_micros();
  }
  return sum / n;
}

TEST(FixedDistribution, AlwaysExactValue) {
  FixedDistribution fixed(sim::Duration::micros(5));
  sim::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const ServiceSample sample = fixed.sample(rng);
    EXPECT_EQ(sample.work, sim::Duration::micros(5));
    EXPECT_EQ(sample.kind, 0);
  }
  EXPECT_EQ(fixed.mean(), sim::Duration::micros(5));
}

TEST(BimodalDistribution, PaperWorkloadMoments) {
  // Figure 2's workload: 99.5 % x 5 us + 0.5 % x 100 us → mean 5.475 us.
  BimodalDistribution bimodal(sim::Duration::micros(5),
                              sim::Duration::micros(100), 0.005);
  EXPECT_DOUBLE_EQ(bimodal.mean().to_micros(), 5.475);

  sim::Rng rng(2);
  int longs = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const ServiceSample sample = bimodal.sample(rng);
    if (sample.kind == BimodalDistribution::kLongKind) {
      EXPECT_EQ(sample.work, sim::Duration::micros(100));
      ++longs;
    } else {
      EXPECT_EQ(sample.work, sim::Duration::micros(5));
    }
  }
  EXPECT_NEAR(static_cast<double>(longs) / n, 0.005, 0.001);
}

TEST(BimodalDistribution, RejectsBadFraction) {
  EXPECT_THROW(BimodalDistribution(sim::Duration::micros(1),
                                   sim::Duration::micros(2), -0.1),
               std::invalid_argument);
  EXPECT_THROW(BimodalDistribution(sim::Duration::micros(1),
                                   sim::Duration::micros(2), 1.1),
               std::invalid_argument);
}

TEST(ExponentialDistribution, MeanMatches) {
  ExponentialDistribution exponential(sim::Duration::micros(10));
  EXPECT_EQ(exponential.mean(), sim::Duration::micros(10));
  EXPECT_NEAR(empirical_mean_us(exponential, 200'000), 10.0, 0.2);
}

TEST(LogNormalDistribution, MeanAndCv) {
  LogNormalDistribution lognormal(sim::Duration::micros(20), 2.0);
  EXPECT_NEAR(empirical_mean_us(lognormal, 400'000), 20.0, 1.0);

  sim::Rng rng(5);
  double sum = 0, sq = 0;
  const int n = 400'000;
  for (int i = 0; i < n; ++i) {
    const double x = lognormal.sample(rng).work.to_micros();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double cv = std::sqrt(sq / n - mean * mean) / mean;
  EXPECT_NEAR(cv, 2.0, 0.15);
  EXPECT_THROW(LogNormalDistribution(sim::Duration::micros(1), 0.0),
               std::invalid_argument);
}

TEST(BoundedParetoDistribution, SamplesStayInBounds) {
  BoundedParetoDistribution pareto(sim::Duration::micros(1),
                                   sim::Duration::micros(1000), 1.1);
  sim::Rng rng(6);
  for (int i = 0; i < 50'000; ++i) {
    const double us = pareto.sample(rng).work.to_micros();
    EXPECT_GE(us, 0.999);
    EXPECT_LE(us, 1000.001);
  }
  EXPECT_NEAR(empirical_mean_us(pareto, 400'000),
              pareto.mean().to_micros(), pareto.mean().to_micros() * 0.05);
}

TEST(BoundedParetoDistribution, RejectsBadParameters) {
  EXPECT_THROW(BoundedParetoDistribution(sim::Duration::micros(10),
                                         sim::Duration::micros(1), 1.1),
               std::invalid_argument);
  EXPECT_THROW(BoundedParetoDistribution(sim::Duration::micros(1),
                                         sim::Duration::micros(10), 0.0),
               std::invalid_argument);
}

TEST(MixtureDistribution, WeightsAndKindTagging) {
  std::vector<MixtureDistribution::Component> components;
  components.push_back({std::make_shared<FixedDistribution>(
                            sim::Duration::micros(1)),
                        3.0});
  components.push_back({std::make_shared<FixedDistribution>(
                            sim::Duration::micros(10)),
                        1.0});
  MixtureDistribution mixture(std::move(components));

  // Mean = 0.75*1 + 0.25*10 = 3.25 us.
  EXPECT_NEAR(mixture.mean().to_micros(), 3.25, 1e-9);

  sim::Rng rng(7);
  int first = 0, second = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const ServiceSample sample = mixture.sample(rng);
    if (sample.kind == 0) {
      EXPECT_EQ(sample.work, sim::Duration::micros(1));
      ++first;
    } else {
      EXPECT_EQ(sample.kind, 1);
      EXPECT_EQ(sample.work, sim::Duration::micros(10));
      ++second;
    }
  }
  EXPECT_NEAR(static_cast<double>(first) / n, 0.75, 0.01);
}

TEST(MixtureDistribution, RejectsEmptyAndBadComponents) {
  EXPECT_THROW(MixtureDistribution({}), std::invalid_argument);
  std::vector<MixtureDistribution::Component> bad;
  bad.push_back({nullptr, 1.0});
  EXPECT_THROW(MixtureDistribution(std::move(bad)), std::invalid_argument);
  std::vector<MixtureDistribution::Component> zero_weight;
  zero_weight.push_back(
      {std::make_shared<FixedDistribution>(sim::Duration::micros(1)), 0.0});
  EXPECT_THROW(MixtureDistribution(std::move(zero_weight)),
               std::invalid_argument);
}

TEST(Distributions, NamesAreDescriptive) {
  EXPECT_EQ(FixedDistribution(sim::Duration::micros(5)).name(),
            "fixed(5us)");
  BimodalDistribution bimodal(sim::Duration::micros(5),
                              sim::Duration::micros(100), 0.005);
  EXPECT_NE(bimodal.name().find("bimodal"), std::string::npos);
  EXPECT_NE(ExponentialDistribution(sim::Duration::micros(1)).name().find(
                "exp"),
            std::string::npos);
}

TEST(PoissonArrivals, MeanGapMatchesRate) {
  PoissonArrivals arrivals(100'000.0);
  sim::Rng rng(8);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += arrivals.next_gap(rng).to_micros();
  EXPECT_NEAR(sum / n, 10.0, 0.2);  // 100k RPS → 10 us mean gap
}

TEST(BurstyArrivals, LongRunRateMatchesFormula) {
  BurstyArrivals::Config config;
  config.normal_rps = 100'000.0;
  config.burst_rps = 500'000.0;
  config.mean_normal_spell = sim::Duration::millis(4);
  config.mean_burst_spell = sim::Duration::millis(1);
  BurstyArrivals arrivals(config);
  // (100k*4 + 500k*1) / 5 = 180k.
  EXPECT_NEAR(arrivals.mean_rate_rps(), 180'000.0, 1.0);

  sim::Rng rng(21);
  double total_s = 0.0;
  const int n = 400'000;
  for (int i = 0; i < n; ++i) total_s += arrivals.next_gap(rng).to_seconds();
  EXPECT_NEAR(n / total_s, 180'000.0, 9'000.0);
}

TEST(BurstyArrivals, GapsAreShorterDuringBursts) {
  BurstyArrivals::Config config;
  config.normal_rps = 50'000.0;
  config.burst_rps = 1'000'000.0;
  BurstyArrivals arrivals(config);
  sim::Rng rng(22);
  double normal_sum = 0, burst_sum = 0;
  int normal_n = 0, burst_n = 0;
  for (int i = 0; i < 300'000; ++i) {
    const bool was_burst = arrivals.in_burst();
    const double gap_us = arrivals.next_gap(rng).to_micros();
    if (was_burst) {
      burst_sum += gap_us;
      ++burst_n;
    } else {
      normal_sum += gap_us;
      ++normal_n;
    }
  }
  ASSERT_GT(burst_n, 1000);
  ASSERT_GT(normal_n, 1000);
  EXPECT_NEAR(normal_sum / normal_n, 20.0, 1.0);  // 50 kRPS → 20 us
  EXPECT_NEAR(burst_sum / burst_n, 1.0, 0.05);    // 1 MRPS → 1 us
}

TEST(UniformArrivals, ExactGap) {
  UniformArrivals arrivals(50'000.0);
  sim::Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(arrivals.next_gap(rng), sim::Duration::micros(20));
  }
}

class DistributionMeanProperty
    : public ::testing::TestWithParam<std::shared_ptr<ServiceDistribution>> {};

TEST_P(DistributionMeanProperty, EmpiricalMeanMatchesDeclaredMean) {
  auto distribution = GetParam();
  const double declared = distribution->mean().to_micros();
  const double empirical = empirical_mean_us(*distribution, 300'000, 99);
  EXPECT_NEAR(empirical, declared, declared * 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, DistributionMeanProperty,
    ::testing::Values(
        std::make_shared<FixedDistribution>(sim::Duration::micros(5)),
        std::make_shared<BimodalDistribution>(sim::Duration::micros(5),
                                              sim::Duration::micros(100),
                                              0.005),
        std::make_shared<ExponentialDistribution>(sim::Duration::micros(25)),
        std::make_shared<LogNormalDistribution>(sim::Duration::micros(10),
                                                1.5),
        std::make_shared<BoundedParetoDistribution>(
            sim::Duration::micros(1), sim::Duration::micros(500), 1.3)));

}  // namespace
}  // namespace nicsched::workload
