/**
 * @file
 * Unit tests for the Monte Carlo engine and empirical curves.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "engine/engine.h"
#include "sim/empirical.h"
#include "wearout/weibull.h"

namespace lemons::sim {
namespace {

const engine::TrialMetric kUniform = [](Rng &rng, uint64_t) {
    return rng.nextDouble();
};

engine::TrialReport
run(uint64_t seed, uint64_t trials, const engine::TrialMetric &metric,
    unsigned threads = 1)
{
    return engine::runTrials(seed, {.trials = trials, .threads = threads},
                             metric);
}

TEST(MonteCarlo, DeterministicAcrossRuns)
{
    const auto a = run(42, 1000, kUniform).stats;
    const auto b = run(42, 1000, kUniform).stats;
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
}

TEST(MonteCarlo, DifferentSeedsDiffer)
{
    EXPECT_NE(run(1, 1000, kUniform).stats.mean(),
              run(2, 1000, kUniform).stats.mean());
}

TEST(MonteCarlo, TrialsAreIndependentOfEachOther)
{
    // Trial i's value must not depend on how many trials run.
    const auto small = run(7, 10, kUniform).samples;
    const auto large = run(7, 100, kUniform).samples;
    for (size_t i = 0; i < small.size(); ++i)
        EXPECT_EQ(small[i], large[i]) << "trial " << i;
}

TEST(MonteCarlo, UniformMeanIsHalf)
{
    const auto stats = run(3, 100000, kUniform).stats;
    EXPECT_NEAR(stats.mean(), 0.5, 0.01);
    EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
}

TEST(MonteCarlo, ProbabilityEstimateWithInterval)
{
    // Seeded coverage check: a 95% interval misses the true value for
    // ~5% of seeds by construction, so the fixed seed is one whose
    // interval covers 0.2 under the definitional Philox trial stream.
    const auto ci = engine::estimateProbability(
        6, 40000, [](Rng &rng) { return rng.nextDouble() < 0.2; });
    EXPECT_NEAR(ci.estimate, 0.2, 0.01);
    EXPECT_LT(ci.low, 0.2);
    EXPECT_GT(ci.high, 0.2);
}

TEST(MonteCarlo, SamplesSizeMatchesTrials)
{
    const auto samples =
        run(9, 123, [](Rng &, uint64_t) { return 1.0; }).samples;
    EXPECT_EQ(samples.size(), 123u);
}

TEST(MonteCarlo, ParallelSamplesAreBitIdenticalToSerial)
{
    const engine::TrialMetric metric = [](Rng &rng, uint64_t) {
        double acc = 0.0;
        for (int i = 0; i < 8; ++i)
            acc += rng.nextDouble();
        return acc;
    };
    const auto serial = run(77, 5000, metric).samples;
    for (unsigned threads : {1u, 2u, 3u, 8u}) {
        const auto parallel = run(77, 5000, metric, threads).samples;
        ASSERT_EQ(parallel.size(), serial.size());
        for (size_t i = 0; i < serial.size(); ++i)
            ASSERT_EQ(parallel[i], serial[i])
                << "threads=" << threads << " trial=" << i;
    }
}

TEST(MonteCarlo, ParallelWithMoreThreadsThanTrials)
{
    EXPECT_EQ(run(78, 3, kUniform, 16).samples.size(), 3u);
}

TEST(SurvivalCurve, RejectsEmpty)
{
    EXPECT_THROW(SurvivalCurve({}), std::invalid_argument);
}

TEST(SurvivalCurve, StepFunctionSemantics)
{
    const SurvivalCurve curve({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(curve.reliability(0.5), 1.0);
    EXPECT_DOUBLE_EQ(curve.reliability(1.0), 0.75); // strictly greater
    EXPECT_DOUBLE_EQ(curve.reliability(2.5), 0.5);
    EXPECT_DOUBLE_EQ(curve.reliability(4.0), 0.0);
    EXPECT_DOUBLE_EQ(curve.cdf(2.5), 0.5);
}

TEST(SurvivalCurve, QuantileAndMean)
{
    const SurvivalCurve curve({4.0, 1.0, 3.0, 2.0});
    EXPECT_DOUBLE_EQ(curve.mean(), 2.5);
    EXPECT_DOUBLE_EQ(curve.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(curve.quantile(0.5), 2.0);
    EXPECT_DOUBLE_EQ(curve.quantile(1.0), 4.0);
}

TEST(SurvivalCurve, KsDistanceSmallForMatchingModel)
{
    const wearout::Weibull w(10.0, 2.0);
    Rng rng(123);
    const SurvivalCurve curve(w.sampleMany(rng, 20000));
    EXPECT_LT(curve.ksDistance([&](double x) { return w.cdf(x); }), 0.012);
}

TEST(SurvivalCurve, KsDistanceLargeForWrongModel)
{
    const wearout::Weibull truth(10.0, 2.0);
    const wearout::Weibull wrong(20.0, 2.0);
    Rng rng(124);
    const SurvivalCurve curve(truth.sampleMany(rng, 20000));
    EXPECT_GT(curve.ksDistance([&](double x) { return wrong.cdf(x); }),
              0.2);
}

} // namespace
} // namespace lemons::sim
