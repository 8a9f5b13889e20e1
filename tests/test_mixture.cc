/**
 * @file
 * Tests for the bathtub-curve lifetime mixture and its effect on
 * structures designed under the pure-Weibull assumption (Section 7
 * model-sensitivity).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "arch/structures_sim.h"
#include "engine/engine.h"
#include "oracle/oracle.h"
#include "sim/empirical.h"
#include "util/rng.h"
#include "wearout/mixture.h"

namespace lemons::wearout {
namespace {

TEST(BathtubModel, RejectsBadWeight)
{
    const Weibull w(10.0, 8.0);
    EXPECT_THROW(BathtubModel(-0.1, w, w), std::invalid_argument);
    EXPECT_THROW(BathtubModel(1.1, w, w), std::invalid_argument);
}

TEST(BathtubModel, ZeroWeightIsTheMainModel)
{
    const Weibull main(10.0, 8.0);
    const BathtubModel mix(0.0, Weibull(1.0, 0.8), main);
    for (double x : {1.0, 5.0, 10.0, 15.0})
        EXPECT_DOUBLE_EQ(mix.reliability(x), main.reliability(x));
    EXPECT_DOUBLE_EQ(mix.mttf(), main.mttf());
}

TEST(BathtubModel, FullWeightIsTheInfantModel)
{
    const Weibull infant(1.0, 0.8);
    const BathtubModel mix(1.0, infant, Weibull(10.0, 8.0));
    for (double x : {0.5, 1.0, 2.0})
        EXPECT_DOUBLE_EQ(mix.reliability(x), infant.reliability(x));
}

TEST(BathtubModel, ReliabilityIsConvexCombination)
{
    const Weibull infant(1.0, 0.8);
    const Weibull main(10.0, 8.0);
    const BathtubModel mix(0.3, infant, main);
    for (double x : {0.5, 2.0, 8.0, 12.0}) {
        EXPECT_NEAR(mix.reliability(x),
                    0.3 * infant.reliability(x) +
                        0.7 * main.reliability(x),
                    1e-12);
    }
}

TEST(BathtubModel, CdfComplementsReliability)
{
    const BathtubModel mix =
        BathtubModel::withInfantMortality(Weibull(10.0, 8.0), 0.1);
    for (double x : {0.1, 1.0, 5.0, 10.0, 20.0})
        EXPECT_NEAR(mix.cdf(x) + mix.reliability(x), 1.0, 1e-12);
}

TEST(BathtubModel, SamplesMatchAnalyticCdf)
{
    const BathtubModel mix =
        BathtubModel::withInfantMortality(Weibull(10.0, 8.0), 0.15);
    Rng rng(1);
    std::vector<double> lifetimes;
    lifetimes.reserve(50000);
    for (int i = 0; i < 50000; ++i)
        lifetimes.push_back(mix.sample(rng));
    const sim::SurvivalCurve curve(std::move(lifetimes));
    EXPECT_LT(curve.ksDistance([&](double x) { return mix.cdf(x); }),
              0.0073);
}

TEST(BathtubModel, MttfMatchesSampleMean)
{
    const BathtubModel mix =
        BathtubModel::withInfantMortality(Weibull(10.0, 8.0), 0.2);
    Rng rng(2);
    double sum = 0.0;
    const int trials = 200000;
    for (int i = 0; i < trials; ++i)
        sum += mix.sample(rng);
    EXPECT_NEAR(sum / trials, mix.mttf(), 0.02 * mix.mttf());
}

TEST(BathtubModel, InfantMortalityHurtsEarlyReliability)
{
    const Weibull main(10.0, 8.0);
    const BathtubModel mix = BathtubModel::withInfantMortality(main, 0.1);
    // At 10% of the scale, the pure model is near-perfect; the mixture
    // loses roughly the infant fraction.
    EXPECT_GT(main.reliability(1.0), 0.999);
    EXPECT_LT(mix.reliability(1.0), 0.95);
}

TEST(BathtubMixture, KOutOfNStructuresAbsorbModerateInfantMortality)
{
    // A 60-wide k=6 structure designed for Weibull(10, 8) still meets
    // its 10-access bound when 5% of devices are infant-mortal: the
    // redundancy absorbs them (the design margin is n/k = 10x).
    const Weibull main(10.0, 12.0);
    const BathtubModel mix = BathtubModel::withInfantMortality(main, 0.05);
    const arch::LifetimeSampler sampler = [&](Rng &rng) {
        return mix.sample(rng);
    };
    const auto ci = engine::estimateProbability(3, 20000, [&](Rng &rng) {
        return arch::sampleParallelSurvivedAccesses(sampler, 60, 6, rng) >=
               9;
    });
    EXPECT_GT(ci.estimate, 0.97);
}

TEST(BathtubMixture, HeavyInfantMortalityBreaksTheBound)
{
    // At 40% infant mortality the same structure misses its bound
    // badly — the fabrication-quality floor the paper's Section 7
    // caveat implies.
    const Weibull main(10.0, 12.0);
    const BathtubModel mix = BathtubModel::withInfantMortality(main, 0.4);
    const arch::LifetimeSampler sampler = [&](Rng &rng) {
        return mix.sample(rng);
    };
    const auto ci = engine::estimateProbability(4, 5000, [&](Rng &rng) {
        return arch::sampleParallelSurvivedAccesses(sampler, 60, 30,
                                                    rng) >= 9;
    });
    EXPECT_LT(ci.estimate, 0.5);
}

TEST(GenericSampler, MatchesFactoryPathInLaw)
{
    // The DeviceFactory overload draws a nominal bank's order statistic
    // directly; the std::function overload samples every device. Same
    // law: chi-square homogeneity on independent trial streams.
    const DeviceFactory factory({10.0, 8.0}, ProcessVariation::none());
    const arch::LifetimeSampler sampler = [&](Rng &rng) {
        return factory.sampleLifetime(rng);
    };
    const std::vector<uint64_t> direct =
        oracle::drawSamples(0, 20000, [&](Rng &rng) {
            return arch::sampleParallelSurvivedAccesses(factory, 40, 4, rng);
        });
    const std::vector<uint64_t> perDevice =
        oracle::drawSamples(1, 20000, [&](Rng &rng) {
            return arch::sampleParallelSurvivedAccesses(sampler, 40, 4, rng);
        });
    const oracle::Bins bins =
        oracle::equiprobableBins(oracle::bankLaw(10.0, 8.0, 40, 4), 40);
    EXPECT_GE(oracle::twoSample(direct, perDevice, bins).pValue,
              oracle::kFamilyAlpha);
}

} // namespace
} // namespace lemons::wearout
