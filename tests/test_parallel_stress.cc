/**
 * @file
 * Concurrency stress tests for the parallel Monte Carlo paths. These
 * are the tests the TSan CI job leans on: they hammer the pooled
 * engine::runTrials path (sample-keeping, streaming, and fault-capturing
 * configurations) and the SharedRunningStats accumulator with more
 * workers than cores so any data race in the reduction or
 * error-capture plumbing has a real chance to interleave.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "util/stats.h"

namespace lemons {
namespace {

using engine::FaultPolicy;
using engine::runTrials;

constexpr uint64_t kSeed = 0xC0FFEEULL;
constexpr unsigned kThreads = 8; // deliberately oversubscribed

double
noisyMetric(Rng &rng, uint64_t)
{
    // A little arithmetic per trial so workers overlap in the metric,
    // not just in the reduction.
    const double u = rng.nextDouble();
    return std::sqrt(u) + 0.25 * rng.nextDouble();
}

TEST(ParallelStress, SamplesMatchSerialBitForBit)
{
    const std::vector<double> serial =
        runTrials(kSeed, {.trials = 20'000, .faults = FaultPolicy::Rethrow},
                  noisyMetric)
            .samples;
    for (int repeat = 0; repeat < 3; ++repeat) {
        const std::vector<double> parallel =
            runTrials(kSeed,
                      {.trials = 20'000,
                       .threads = kThreads,
                       .faults = FaultPolicy::Rethrow},
                      noisyMetric)
                .samples;
        ASSERT_EQ(parallel.size(), serial.size());
        for (size_t i = 0; i < serial.size(); ++i)
            ASSERT_EQ(parallel[i], serial[i]) << "trial " << i;
    }
}

TEST(ParallelStress, StatsMatchSerialAggregates)
{
    const RunningStats serial =
        runTrials(kSeed, {.trials = 50'000, .faults = FaultPolicy::Rethrow},
                  noisyMetric)
            .stats;
    const RunningStats parallel = runTrials(kSeed,
                                            {.trials = 50'000,
                                             .threads = kThreads,
                                             .keepSamples = false,
                                             .faults = FaultPolicy::Rethrow},
                                            noisyMetric)
                                      .stats;
    EXPECT_EQ(parallel.count(), serial.count());
    EXPECT_EQ(parallel.nonFiniteCount(), serial.nonFiniteCount());
    EXPECT_EQ(parallel.min(), serial.min());
    EXPECT_EQ(parallel.max(), serial.max());
    EXPECT_NEAR(parallel.mean(), serial.mean(), 1e-12);
    EXPECT_NEAR(parallel.variance(), serial.variance(), 1e-12);
}

TEST(ParallelStress, StatsAreDeterministicPerThreadCount)
{
    const engine::McRunOptions streaming{.trials = 10'000,
                                         .threads = kThreads,
                                         .keepSamples = false,
                                         .faults = FaultPolicy::Rethrow};
    const RunningStats first = runTrials(kSeed, streaming, noisyMetric).stats;
    for (int repeat = 0; repeat < 5; ++repeat) {
        const RunningStats again =
            runTrials(kSeed, streaming, noisyMetric).stats;
        EXPECT_EQ(again.count(), first.count());
        EXPECT_EQ(again.mean(), first.mean());
        EXPECT_EQ(again.variance(), first.variance());
    }
}

TEST(ParallelStress, StatsQuarantineNonFinite)
{
    const auto metric = [](Rng &rng, uint64_t) {
        const double u = rng.nextDouble();
        return u < 0.01 ? std::nan("") : u;
    };
    const RunningStats serial =
        runTrials(kSeed, {.trials = 8'192, .faults = FaultPolicy::Rethrow},
                  metric)
            .stats;
    const RunningStats parallel = runTrials(kSeed,
                                            {.trials = 8'192,
                                             .threads = kThreads,
                                             .keepSamples = false,
                                             .faults = FaultPolicy::Rethrow},
                                            metric)
                                      .stats;
    EXPECT_GT(serial.nonFiniteCount(), 0u);
    EXPECT_EQ(parallel.nonFiniteCount(), serial.nonFiniteCount());
    EXPECT_EQ(parallel.count(), serial.count());
}

TEST(ParallelStress, LowestThrowingTrialWinsDeterministically)
{
    const auto metric = [](Rng &rng, uint64_t) {
        const double u = rng.nextDouble();
        if (u > 0.999)
            throw std::runtime_error("poisoned trial");
        return u;
    };
    std::string firstMessage;
    try {
        static_cast<void>(runTrials(kSeed,
                                    {.trials = 4'096,
                                     .threads = kThreads,
                                     .faults = FaultPolicy::Rethrow},
                                    metric));
        FAIL() << "expected the poisoned trial to rethrow";
    } catch (const std::runtime_error &e) {
        firstMessage = e.what();
    }
    EXPECT_EQ(firstMessage, "poisoned trial");
    // The capture path must agree on which trial failed first.
    const engine::TrialReport report =
        runTrials(kSeed, {.trials = 4'096, .threads = kThreads}, metric);
    ASSERT_FALSE(report.failedTrials.empty());
    const engine::TrialReport serialReport =
        runTrials(kSeed, {.trials = 4'096, .threads = 1}, metric);
    EXPECT_EQ(report.failedTrials, serialReport.failedTrials);
    EXPECT_EQ(report.firstError, serialReport.firstError);
}

TEST(ParallelStress, ReportStressRun)
{
    constexpr uint64_t kTrials = 16'384;
    const auto metric = [](Rng &rng, uint64_t trial) {
        const double u = rng.nextDouble();
        if (trial % 1009 == 0)
            throw std::runtime_error("periodic failure");
        if (trial % 997 == 0)
            return std::numeric_limits<double>::infinity();
        return u;
    };
    for (int repeat = 0; repeat < 3; ++repeat) {
        const engine::TrialReport report =
            runTrials(kSeed, {.trials = kTrials, .threads = kThreads}, metric);
        EXPECT_EQ(report.trials, kTrials);
        EXPECT_FALSE(report.complete());
        EXPECT_EQ(report.firstError, "periodic failure");
        EXPECT_EQ(report.failedTrials.size(), (kTrials + 1008) / 1009);
        EXPECT_EQ(report.cleanTrials(),
                  report.trials - report.failedTrials.size() -
                      report.nonFiniteTrials.size());
        EXPECT_EQ(report.stats.count(), report.cleanTrials());
    }
}

TEST(ParallelStress, SharedRunningStatsConcurrentAdds)
{
    SharedRunningStats shared;
    constexpr unsigned kWriters = 8;
    constexpr uint64_t kPerWriter = 25'000;
    std::atomic<uint64_t> started{0};
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (unsigned w = 0; w < kWriters; ++w) {
        writers.emplace_back([&shared, &started, w] {
            started.fetch_add(1);
            while (started.load() < kWriters) {
            } // spin so all writers contend at once
            RunningStats local;
            for (uint64_t i = 0; i < kPerWriter; ++i) {
                const double x =
                    static_cast<double>(w * kPerWriter + i);
                if (i % 2 == 0)
                    shared.add(x); // direct contended path
                else
                    local.add(x); // bulk path
            }
            shared.mergeFrom(local);
        });
    }
    for (auto &t : writers)
        t.join();
    const RunningStats total = shared.snapshot();
    const uint64_t expected = uint64_t{kWriters} * kPerWriter;
    EXPECT_EQ(total.count(), expected);
    EXPECT_EQ(total.min(), 0.0);
    EXPECT_EQ(total.max(), static_cast<double>(expected - 1));
    // Sum of 0..N-1 => mean (N-1)/2.
    EXPECT_NEAR(total.mean(), static_cast<double>(expected - 1) / 2.0,
                1e-6 * static_cast<double>(expected));
}

TEST(ParallelStress, MergeAgreesWithSingleAccumulator)
{
    RunningStats whole;
    RunningStats left;
    RunningStats right;
    RunningStats emptyMerged;
    for (int i = 0; i < 10'000; ++i) {
        const double x = std::sin(0.1 * i) * (i % 7 == 0 ? 100.0 : 1.0);
        whole.add(x);
        (i < 3'000 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_EQ(left.min(), whole.min());
    EXPECT_EQ(left.max(), whole.max());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);

    // Merging into / from an empty accumulator is the identity, and the
    // quarantine tally survives both directions.
    RunningStats quarantine;
    quarantine.add(std::nan(""));
    emptyMerged.merge(quarantine);
    EXPECT_EQ(emptyMerged.count(), 0u);
    EXPECT_EQ(emptyMerged.nonFiniteCount(), 1u);
    emptyMerged.merge(whole);
    EXPECT_EQ(emptyMerged.count(), whole.count());
    EXPECT_EQ(emptyMerged.nonFiniteCount(), 1u);
    RunningStats other;
    other.merge(RunningStats{});
    EXPECT_EQ(other.count(), 0u);
}

} // namespace
} // namespace lemons
