/**
 * @file
 * Thread-count invariance of the Monte Carlo engine.
 *
 * The engine's contract is that trial i depends only on (seed, i), so
 * parallel execution must be bit-identical to serial execution at any
 * worker count — including when trials throw or return non-finite
 * values. These tests pin that contract across 1, 2, and 8 workers
 * (more workers than this machine has cores, so oversubscription is
 * exercised) with a small explicit chunk size so every run spans many
 * chunks.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/structures_sim.h"
#include "engine/engine.h"
#include "util/rng.h"
#include "util/simd.h"
#include "wearout/population.h"
#include "wearout/weibull.h"

namespace lemons::engine {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

/** Small chunks: 501 trials split into 8 chunks, so multi-chunk
 *  scheduling (including the odd-sized tail chunk) is exercised. */
constexpr uint64_t kChunk = 64;

/** A nontrivial metric: structure lifetime of a 40-of-60 parallel
 *  structure, consuming 60 Rng draws per trial. */
double
structureMetric(Rng &rng, uint64_t)
{
    const wearout::Weibull device(10.0, 12.0);
    const arch::LifetimeSampler sampler = [&](Rng &r) {
        return device.sample(r);
    };
    return static_cast<double>(
        arch::sampleParallelSurvivedAccesses(sampler, 60, 40, rng));
}

/** Bitwise vector equality (distinguishes -0.0/0.0, compares NaNs). */
void
expectBitIdentical(const std::vector<double> &got,
                   const std::vector<double> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i]),
                  std::bit_cast<uint64_t>(want[i]))
            << "trial " << i;
}

TEST(Determinism, PooledSamplesBitIdenticalToSerial)
{
    // Odd trial count: tail-chunk remainder.
    const std::vector<double> serial =
        runTrials(4242, {.trials = 501, .faults = FaultPolicy::Rethrow},
                  structureMetric)
            .samples;
    for (const unsigned threads : kThreadCounts) {
        const std::vector<double> pooled =
            runTrials(4242,
                      {.trials = 501,
                       .threads = threads,
                       .chunkSize = kChunk,
                       .faults = FaultPolicy::Rethrow},
                      structureMetric)
                .samples;
        expectBitIdentical(pooled, serial);
    }
}

TEST(Determinism, StreamingStatsMatchSerialAtAnyThreadCount)
{
    const RunningStats serial =
        runTrials(4242, {.trials = 501, .faults = FaultPolicy::Rethrow},
                  structureMetric)
            .stats;
    for (const unsigned threads : kThreadCounts) {
        const RunningStats streamed =
            runTrials(4242,
                      {.trials = 501,
                       .threads = threads,
                       .chunkSize = kChunk,
                       .keepSamples = false,
                       .faults = FaultPolicy::Rethrow},
                      structureMetric)
                .stats;
        // Count and extrema are exact at any worker count; mean and
        // variance agree up to floating-point reassociation.
        EXPECT_EQ(streamed.count(), serial.count());
        EXPECT_EQ(std::bit_cast<uint64_t>(streamed.min()),
                  std::bit_cast<uint64_t>(serial.min()));
        EXPECT_EQ(std::bit_cast<uint64_t>(streamed.max()),
                  std::bit_cast<uint64_t>(serial.max()));
        EXPECT_NEAR(streamed.mean(), serial.mean(),
                    1e-9 * std::abs(serial.mean()));
        EXPECT_NEAR(streamed.variance(), serial.variance(),
                    1e-6 * serial.variance());
    }
}

TEST(Determinism, StreamingStatsBitIdenticalAcrossThreadCounts)
{
    // Chunk partials are merged in chunk order, which depends only on
    // the chunk size — so even the reassociation-sensitive moments are
    // bit-identical at ANY thread count (the old strided engine only
    // promised this per fixed thread count).
    const McRunOptions base{.trials = 300,
                            .chunkSize = kChunk,
                            .keepSamples = false,
                            .faults = FaultPolicy::Rethrow};
    McRunOptions two = base;
    two.threads = 2;
    const RunningStats a = runTrials(9001, two, structureMetric).stats;
    for (const unsigned threads : kThreadCounts) {
        McRunOptions options = base;
        options.threads = threads;
        const RunningStats b =
            runTrials(9001, options, structureMetric).stats;
        EXPECT_EQ(std::bit_cast<uint64_t>(a.mean()),
                  std::bit_cast<uint64_t>(b.mean()))
            << threads;
        EXPECT_EQ(std::bit_cast<uint64_t>(a.variance()),
                  std::bit_cast<uint64_t>(b.variance()))
            << threads;
    }
}

TEST(Determinism, CapturedFailuresAreThreadInvariant)
{
    const auto metric = [](Rng &rng, uint64_t trial) -> double {
        if (trial == 57 || trial == 133)
            throw std::runtime_error("trial " + std::to_string(trial));
        return rng.nextDouble();
    };
    for (const unsigned threads : kThreadCounts) {
        const TrialReport report = runTrials(
            7, {.trials = 200, .threads = threads, .chunkSize = kChunk},
            metric);
        ASSERT_EQ(report.failedTrials.size(), 2u) << threads;
        EXPECT_EQ(report.failedTrials[0], 57u);
        EXPECT_EQ(report.failedTrials[1], 133u);
        EXPECT_EQ(report.firstError, "trial 57");
        EXPECT_EQ(report.cleanTrials(), 198u);
    }
}

TEST(Determinism, RethrowPolicyThrowIsDeterministic)
{
    const auto throwingMetric = [](Rng &rng, uint64_t) -> double {
        const double x = rng.nextDouble();
        if (x > 0.95)
            throw std::runtime_error("u = " + std::to_string(x));
        return x;
    };

    std::string firstMessage;
    for (const unsigned threads : kThreadCounts) {
        try {
            static_cast<void>(runTrials(7,
                                        {.trials = 128,
                                         .threads = threads,
                                         .chunkSize = 16,
                                         .faults = FaultPolicy::Rethrow},
                                        throwingMetric));
            FAIL() << "expected a rethrow at " << threads << " threads";
        } catch (const std::runtime_error &e) {
            if (firstMessage.empty())
                firstMessage = e.what();
            // The lowest-indexed throwing trial wins regardless of
            // worker interleaving, so the message is thread-invariant.
            EXPECT_EQ(std::string(e.what()), firstMessage)
                << threads << " threads";
        }
    }
}

TEST(Determinism, NonFiniteQuarantineIsThreadInvariant)
{
    const auto metric = [](Rng &rng, uint64_t trial) -> double {
        if (trial % 97 == 3)
            return std::numeric_limits<double>::infinity();
        if (trial % 101 == 7)
            return std::numeric_limits<double>::quiet_NaN();
        return rng.nextDouble();
    };

    const TrialReport serial =
        runTrials(13, {.trials = 400, .threads = 1}, metric);
    EXPECT_FALSE(serial.complete());
    EXPECT_FALSE(serial.nonFiniteTrials.empty());
    for (const unsigned threads : kThreadCounts) {
        const TrialReport report = runTrials(
            13, {.trials = 400, .threads = threads, .chunkSize = kChunk},
            metric);
        EXPECT_EQ(report.trials, serial.trials);
        EXPECT_EQ(report.failedTrials, serial.failedTrials);
        EXPECT_EQ(report.nonFiniteTrials, serial.nonFiniteTrials);
        EXPECT_EQ(report.firstError, serial.firstError);
        EXPECT_EQ(report.stats.count(), serial.stats.count());
        EXPECT_EQ(std::bit_cast<uint64_t>(report.stats.min()),
                  std::bit_cast<uint64_t>(serial.stats.min()));
        EXPECT_EQ(std::bit_cast<uint64_t>(report.stats.max()),
                  std::bit_cast<uint64_t>(serial.stats.max()));
        expectBitIdentical(report.samples, serial.samples);
    }
}

TEST(Determinism, EarlyStopPointIsThreadInvariant)
{
    // Early stopping is decided at wave boundaries from chunk-ordered
    // streaming statistics, so the stopped trial count and the kept
    // samples are identical at any thread count.
    const McRunOptions base{
        .trials = 100000,
        .chunkSize = 128,
        .faults = FaultPolicy::Rethrow,
        .earlyStop = EarlyStop{.relHalfWidth = 0.02,
                               .minTrials = 512,
                               .checkEveryChunks = 4}};
    const TrialReport serial = runTrials(21, base, structureMetric);
    EXPECT_TRUE(serial.stoppedEarly);
    EXPECT_LT(serial.trials, serial.requestedTrials);
    for (const unsigned threads : kThreadCounts) {
        McRunOptions options = base;
        options.threads = threads;
        const TrialReport report = runTrials(21, options, structureMetric);
        EXPECT_EQ(report.trials, serial.trials) << threads;
        EXPECT_EQ(report.stoppedEarly, serial.stoppedEarly) << threads;
        expectBitIdentical(report.samples, serial.samples);
    }
}

// ---------------------------------------------------------------------------
// Counter-based stream goldens and the re-baseline protocol.
//
// Within one sampling algorithm the digests below never move: samples
// depend only on (seed, trial), whatever the thread count, chunk size,
// SIMD level, early-stop arming or resume point, so a failure under a
// draw-preserving change is a break of the reproducibility contract,
// not a re-baselining opportunity.
//
// A change to how many draws an algorithm makes moves them by
// construction. Such a change may re-baseline a digest only when
//  1. the statistical-equivalence oracle (tests/oracle/) covers the
//     changed sampler family and passes at its pre-registered seeds
//     and significance level, power checks included;
//  2. every other golden (test_regression_figures, the test_chaos
//     reference digest, bench_smoke_work's exact counters) stays
//     unchanged, or is re-baselined under this same protocol;
//  3. the change re-baselines once, and CHANGES.md lists the old and
//     new values of every digest it moved.
//
// History: recorded when the Philox trial stream was introduced;
// re-baselined once when nominal banks switched to the O(1)
// order-statistic draw (engine::sampleBankSurvival), sample digest
// 0x6ea8701c802e958f -> 0x3986701c802e958f, stats digest
// 0xc00f4c1b61165276 -> 0x16fd59ec8d22b98c.
// ---------------------------------------------------------------------------

/** A metric on the nominal-lot bank kernel: a 1-of-40 parallel bank
 *  plus an 8-deep series chain per trial. */
double
nominalKernelMetric(Rng &rng, uint64_t)
{
    const wearout::DeviceFactory factory(
        {9.3, 12.0}, wearout::ProcessVariation::none());
    return static_cast<double>(
        arch::sampleParallelSurvivedAccesses(factory, 40, 1, rng) +
        arch::sampleSeriesSurvivedAccesses(factory, 8, rng));
}

/** FNV-1a over the exact bit patterns of the samples. */
uint64_t
bitDigest(const std::vector<double> &samples)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const double sample : samples) {
        hash ^= std::bit_cast<uint64_t>(sample);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** FNV-1a over the streaming-statistics state words. */
uint64_t
statsDigest(const RunningStats &stats)
{
    const uint64_t words[] = {stats.count(),
                              std::bit_cast<uint64_t>(stats.mean()),
                              std::bit_cast<uint64_t>(stats.variance()),
                              std::bit_cast<uint64_t>(stats.min()),
                              std::bit_cast<uint64_t>(stats.max())};
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const uint64_t word : words) {
        hash ^= word;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

constexpr uint64_t kGoldenSeed = 20170624;
constexpr uint64_t kGoldenTrials = 501;
/** Digest of the 501 per-trial samples — invariant across threads,
 *  chunk sizes, SIMD level, early-stop arming, and resume. */
constexpr uint64_t kGoldenSampleDigest = 0x3986701c802e958fULL;
/** Digest of the streaming statistics at chunkSize 64. The moments
 *  are merged in chunk order, so this one is pinned per chunk size
 *  (the per-trial samples above are chunk-size invariant). */
constexpr uint64_t kGoldenStatsDigestChunk64 = 0x16fd59ec8d22b98cULL;

TEST(Determinism, SimdLevelDoesNotChangeSamples)
{
    // The nominal bank kernel is scalar fastmath at every tier, and the
    // vectorized Philox fill mirrors the scalar blocks op-for-op, so a
    // whole run is bit-identical whichever path dispatch picks.
    if (simd::detectedLevel() == simd::Level::Scalar)
        GTEST_SKIP() << "host has no AVX2; scalar-vs-scalar is vacuous";
    const McRunOptions options{.trials = kGoldenTrials,
                               .chunkSize = kChunk,
                               .faults = FaultPolicy::Rethrow};
    simd::setLevelForTesting(simd::Level::Avx2);
    const std::vector<double> vectorized =
        runTrials(kGoldenSeed, options, nominalKernelMetric).samples;
    simd::setLevelForTesting(simd::Level::Scalar);
    const std::vector<double> scalar =
        runTrials(kGoldenSeed, options, nominalKernelMetric).samples;
    simd::clearLevelForTesting();
    expectBitIdentical(vectorized, scalar);
}

TEST(Determinism, GoldenDigestAcrossThreadsChunksAndEarlyStopArming)
{
    // Every scheduling configuration must reproduce the recorded
    // sample digest bit-for-bit. The armed early stop uses a target
    // half-width no run can reach, so arming the machinery (wave
    // bookkeeping, boundary checks) must not perturb the stream.
    // (A *firing* early stop legitimately depends on the chunk size,
    // because stop points are wave boundaries; thread invariance of
    // the fired case is pinned by EarlyStopPointIsThreadInvariant.)
    const uint64_t chunkSizes[] = {0, 1, 7, 4096};
    for (const unsigned threads : kThreadCounts) {
        for (const uint64_t chunk : chunkSizes) {
            for (const bool armed : {false, true}) {
                McRunOptions options;
                options.trials = kGoldenTrials;
                options.threads = threads;
                options.chunkSize = chunk;
                options.faults = FaultPolicy::Rethrow;
                if (armed)
                    options.earlyStop =
                        EarlyStop{.relHalfWidth = 1e-12,
                                  .minTrials = kGoldenTrials,
                                  .checkEveryChunks = 1};
                const TrialReport report =
                    runTrials(kGoldenSeed, options, nominalKernelMetric);
                EXPECT_FALSE(report.stoppedEarly);
                EXPECT_EQ(bitDigest(report.samples), kGoldenSampleDigest)
                    << "threads=" << threads << " chunk=" << chunk
                    << " earlyStopArmed=" << armed;
            }
        }
    }
}

TEST(Determinism, CheckpointResumeReproducesGoldenDigest)
{
    // Resuming from any interior checkpoint lands on the same pinned
    // streaming digest as the uninterrupted run, at any thread count.
    std::vector<EngineCheckpoint> checkpoints;
    McRunOptions recording;
    recording.trials = kGoldenTrials;
    recording.chunkSize = kChunk;
    recording.keepSamples = false;
    recording.faults = FaultPolicy::Rethrow;
    recording.checkpointEveryChunks = 2;
    recording.checkpoint = [&](const EngineCheckpoint &checkpoint) {
        checkpoints.push_back(checkpoint);
    };
    const TrialReport full =
        runTrials(kGoldenSeed, recording, nominalKernelMetric);
    EXPECT_EQ(statsDigest(full.stats), kGoldenStatsDigestChunk64);
    ASSERT_GE(checkpoints.size(), 2u);
    const EngineCheckpoint &mid = checkpoints[checkpoints.size() / 2];
    ASSERT_GT(mid.executedChunks, 0u);
    ASSERT_LT(mid.executedChunks * kChunk, kGoldenTrials);
    for (const unsigned threads : kThreadCounts) {
        McRunOptions resume;
        resume.trials = kGoldenTrials;
        resume.threads = threads;
        resume.chunkSize = kChunk;
        resume.keepSamples = false;
        resume.faults = FaultPolicy::Rethrow;
        resume.resumeFrom = &mid;
        const TrialReport resumed =
            runTrials(kGoldenSeed, resume, nominalKernelMetric);
        EXPECT_EQ(statsDigest(resumed.stats), kGoldenStatsDigestChunk64)
            << "resume at " << threads << " threads";
    }
}

} // namespace
} // namespace lemons::engine
