/**
 * @file
 * Unit tests for the lemons::engine execution substrate: the
 * persistent thread pool (no thread creation after warmup), the bank
 * kernels (classed lots bit-equal to the per-device sampling path,
 * nominal lots equal to it in law by the oracle's two-sample test),
 * and the chunked runTrials runner (chunk-size invariance, early-stop
 * prefix identity, streaming/keepSamples agreement).
 */

#include <gtest/gtest.h>

#ifdef __linux__
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/structures_sim.h"
#include "engine/batch.h"
#include "engine/engine.h"
#include "engine/thread_pool.h"
#include "fault/faulty_device.h"
#include "obs/metrics.h"
#include "oracle/oracle.h"
#include "util/rng.h"
#include "util/simd.h"
#include "wearout/mixture.h"
#include "wearout/weibull.h"

namespace lemons::engine {
namespace {

double
uniformMetric(Rng &rng, uint64_t)
{
    return rng.nextDouble();
}

/** Classed-kernel bank shapes: n = 1, k = 1, k = n, middle k, and
 *  banks wider than one bulk fill of raw draws. */
constexpr struct
{
    size_t n, k;
} kClassedShapes[] = {{1, 1},   {40, 1},   {40, 40}, {60, 30},
                      {175, 18}, {700, 1}, {700, 70}};

constexpr double kBathtubWeights[] = {0.0, 0.01, 0.4, 1.0};

/** Fault plans eps x infant on a nominal lot (no drift). The null
 *  plan is left out: it is the nominal bank, not a classed lot. */
std::vector<fault::FaultyDeviceFactory>
faultFactories()
{
    const wearout::DeviceFactory base({14.0, 8.0},
                                      wearout::ProcessVariation::none());
    std::vector<fault::FaultyDeviceFactory> factories;
    for (const double eps : {0.0, 1e-3, 0.5}) {
        for (const double infant : {0.0, 0.05}) {
            if (eps == 0.0 && infant == 0.0)
                continue;
            fault::FaultPlan plan;
            plan.stuckClosedRate = eps;
            plan.infantFraction = infant;
            factories.emplace_back(base, plan);
        }
    }
    return factories;
}

/** The per-device faulty bank: one sampleFaultyLifetime per device,
 *  then the k-th largest lifetime. */
arch::FaultySurvival
perDeviceFaultySurvival(const fault::FaultyDeviceFactory &factory, size_t n,
                        size_t k, Rng &rng)
{
    arch::FaultySurvival survival;
    std::vector<double> lifetimes;
    for (size_t i = 0; i < n; ++i) {
        const fault::FaultyLifetime fate = factory.sampleFaultyLifetime(rng);
        if (fate.stuckClosed())
            ++survival.stuckDevices;
        lifetimes.push_back(fate.lifetime);
    }
    if (survival.stuckDevices >= k) {
        survival.unbounded = true;
        return survival;
    }
    std::nth_element(lifetimes.begin(),
                     lifetimes.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     lifetimes.end(), std::greater<double>());
    survival.accesses = floorToAccesses(lifetimes[k - 1]);
    return survival;
}

/** Seed-mode stream (xoshiro) or counter-mode trial stream. */
Rng
streamFor(bool counterBased, uint64_t trial)
{
    return counterBased ? Rng::trialStream(4711, trial) : Rng(4711 + trial);
}

TEST(ThreadPool, NoThreadCreationAfterWarmup)
{
    ThreadPool &pool = ThreadPool::global();
    obs::Counter &created =
        obs::Registry::global().counter("sim.mc.pool.threads_created");

    // Warmup: force the pool to the worker count the rest of the test
    // needs.
    pool.parallelFor(64, 8, [](uint64_t) {});
    EXPECT_GE(pool.workerCount(), 7u);

    const uint64_t createdAfterWarmup = created.get();
    for (int round = 0; round < 50; ++round)
        pool.parallelFor(32, 8, [](uint64_t) {});
    const McRunOptions options{
        .trials = 500, .threads = 8, .chunkSize = 16};
    static_cast<void>(runTrials(1, options, uniformMetric));
    EXPECT_EQ(created.get(), createdAfterWarmup)
        << "pooled execution must reuse warm workers";
}

TEST(ThreadPool, InlineRunsForSingleParallelism)
{
    obs::Counter &created =
        obs::Registry::global().counter("sim.mc.pool.threads_created");
    obs::Counter &inlineRuns =
        obs::Registry::global().counter("sim.mc.pool.inline_runs");
    const uint64_t createdBefore = created.get();
    const uint64_t inlineBefore = inlineRuns.get();
    uint64_t sum = 0;
    ThreadPool::global().parallelFor(100, 1,
                                     [&sum](uint64_t i) { sum += i; });
    EXPECT_EQ(sum, 4950u);
    EXPECT_EQ(created.get(), createdBefore);
    EXPECT_EQ(inlineRuns.get(), inlineBefore + 1);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<uint32_t>> touched(1000);
    ThreadPool::global().parallelFor(
        touched.size(), 8, [&touched](uint64_t i) {
            touched[i].fetch_add(1, std::memory_order_relaxed);
        });
    for (size_t i = 0; i < touched.size(); ++i)
        EXPECT_EQ(touched[i].load(), 1u) << "index " << i;
}

TEST(BatchKernel, NominalBanksMatchPerDevicePathInLaw)
{
    // The O(1) order-statistic draw must have the law of per-device
    // sampling: chi-square homogeneity against the LifetimeSampler
    // path on independent trial streams, for k = 1, k = n, middle k
    // and a series chain, Bonferroni over the six cases.
    const struct
    {
        double alpha, beta;
        size_t n, k;
    } points[] = {{14.0, 8.0, 1, 1},    {14.0, 8.0, 40, 1},
                  {14.0, 8.0, 60, 30},  {14.0, 8.0, 175, 18},
                  {14.0, 8.0, 175, 175}, {10.0, 6.0, 12, 12}};
    const double cut =
        oracle::kFamilyAlpha / static_cast<double>(std::size(points));
    uint64_t seed = 9000;
    for (const auto &point : points) {
        const wearout::Weibull model(point.alpha, point.beta);
        const arch::LifetimeSampler device = [&model](Rng &r) {
            return model.sample(r);
        };
        const std::vector<uint64_t> kernel = oracle::drawSamples(
            seed++, 20000, [&](Rng &rng) {
                return sampleBankSurvival(model, point.n, point.k, rng);
            });
        const std::vector<uint64_t> reference = oracle::drawSamples(
            seed++, 20000, [&](Rng &rng) {
                return arch::sampleParallelSurvivedAccesses(
                    device, point.n, point.k, rng);
            });
        const oracle::Bins bins = oracle::equiprobableBins(
            oracle::bankLaw(point.alpha, point.beta, point.n, point.k), 40);
        EXPECT_GE(oracle::twoSample(kernel, reference, bins).pValue, cut)
            << "n=" << point.n << " k=" << point.k;
    }
}

TEST(BatchKernel, ClassedBanksBitEqualToPerDevicePath)
{
    // Classed lots: bathtub mixtures and drift-free fault plans. Each
    // call must return the per-device result, transform at most k
    // uniforms per mortal class, and leave both streams at the same
    // position (checked by the next draw, which also shifts the
    // alignment of the following call's Philox blocks).
    obs::Counter &transforms =
        obs::Registry::global().counter("engine.bank.transforms");
    const wearout::Weibull main(14.0, 8.0);
    const std::vector<fault::FaultyDeviceFactory> factories =
        faultFactories();
    size_t unboundedSeen = 0;
    for (const bool counterBased : {false, true}) {
        for (const auto &shape : kClassedShapes) {
            for (const double w : kBathtubWeights) {
                const wearout::BathtubModel mix =
                    wearout::BathtubModel::withInfantMortality(main, w);
                const arch::LifetimeSampler sampler = [&mix](Rng &r) {
                    return mix.sample(r);
                };
                Rng kernelRng = streamFor(counterBased, shape.n);
                Rng referenceRng = streamFor(counterBased, shape.n);
                for (int trial = 0; trial < 20; ++trial) {
                    const uint64_t before = transforms.get();
                    const uint64_t got = arch::sampleParallelSurvivedAccesses(
                        mix, shape.n, shape.k, kernelRng);
                    EXPECT_LE(transforms.get() - before, 2 * shape.k);
                    const uint64_t want =
                        arch::sampleParallelSurvivedAccesses(
                            sampler, shape.n, shape.k, referenceRng);
                    ASSERT_EQ(got, want)
                        << "bathtub w=" << w << " n=" << shape.n
                        << " k=" << shape.k << " trial=" << trial
                        << " counter=" << counterBased;
                    ASSERT_EQ(kernelRng.next(), referenceRng.next());
                }
            }
            for (const fault::FaultyDeviceFactory &factory : factories) {
                Rng kernelRng = streamFor(counterBased, shape.n);
                Rng referenceRng = streamFor(counterBased, shape.n);
                for (int trial = 0; trial < 20; ++trial) {
                    const uint64_t before = transforms.get();
                    const arch::FaultySurvival got =
                        arch::sampleFaultyParallelSurvivedAccesses(
                            factory, shape.n, shape.k, kernelRng);
                    EXPECT_LE(transforms.get() - before, 2 * shape.k);
                    const arch::FaultySurvival want =
                        perDeviceFaultySurvival(factory, shape.n, shape.k,
                                                referenceRng);
                    const std::string where =
                        "eps=" +
                        std::to_string(factory.plan().stuckClosedRate) +
                        " infant=" +
                        std::to_string(factory.plan().infantFraction) +
                        " n=" + std::to_string(shape.n) +
                        " k=" + std::to_string(shape.k) +
                        " trial=" + std::to_string(trial);
                    ASSERT_EQ(got.unbounded, want.unbounded) << where;
                    ASSERT_EQ(got.stuckDevices, want.stuckDevices) << where;
                    ASSERT_EQ(got.accesses, want.accesses) << where;
                    ASSERT_EQ(kernelRng.next(), referenceRng.next())
                        << where;
                    if (got.unbounded)
                        ++unboundedSeen;
                }
            }
        }
    }
    EXPECT_GT(unboundedSeen, 0u) << "no case had stuck >= k";
}

TEST(BatchKernel, SimdAndScalarKernelsBitIdentical)
{
    // Forcing either dispatch tier over counter-mode trial streams
    // must yield identical survival counts and identical post-call
    // stream positions: the nominal kernel is scalar fastmath whatever
    // the tier, and the classed kernel's AVX2 fill mirrors the scalar
    // blocks op-for-op.
    if (simd::detectedLevel() == simd::Level::Scalar)
        GTEST_SKIP() << "host has no AVX2; scalar-vs-scalar is vacuous";
    const wearout::Weibull model(9.3, 12.0);
    const struct
    {
        size_t n, k;
    } points[] = {{1, 1}, {40, 1}, {60, 30}, {175, 175}, {512, 7}};
    for (const auto &point : points) {
        for (uint64_t trial = 0; trial < 16; ++trial) {
            Rng vectorRng = Rng::trialStream(20170624, trial);
            Rng scalarRng = Rng::trialStream(20170624, trial);
            simd::setLevelForTesting(simd::Level::Avx2);
            const uint64_t parallelVec =
                sampleBankSurvival(model, point.n, point.k, vectorRng);
            const uint64_t seriesVec =
                sampleBankSurvival(model, point.n, point.n, vectorRng);
            const uint64_t tailVec = vectorRng.next();
            simd::setLevelForTesting(simd::Level::Scalar);
            const uint64_t parallelScalar =
                sampleBankSurvival(model, point.n, point.k, scalarRng);
            const uint64_t seriesScalar =
                sampleBankSurvival(model, point.n, point.n, scalarRng);
            const uint64_t tailScalar = scalarRng.next();
            simd::clearLevelForTesting();
            ASSERT_EQ(parallelVec, parallelScalar)
                << "n=" << point.n << " k=" << point.k
                << " trial=" << trial;
            ASSERT_EQ(seriesVec, seriesScalar)
                << "n=" << point.n << " trial=" << trial;
            ASSERT_EQ(tailVec, tailScalar)
                << "stream position diverged: n=" << point.n
                << " trial=" << trial;
        }
    }

    // Classed lots read their draws through the bulk raw fill, whose
    // AVX2 Philox batch must match the scalar blocks draw for draw.
    const wearout::Weibull main(9.3, 12.0);
    const std::vector<fault::FaultyDeviceFactory> factories =
        faultFactories();
    auto both = [](auto &&sample) {
        // One sample under each forced dispatch tier, plus the draw
        // that follows it.
        Rng vectorRng = Rng::trialStream(20170624, 3);
        Rng scalarRng = Rng::trialStream(20170624, 3);
        static_cast<void>(vectorRng.next()); // start mid-block
        static_cast<void>(scalarRng.next());
        simd::setLevelForTesting(simd::Level::Avx2);
        const auto vec = sample(vectorRng);
        const uint64_t tailVec = vectorRng.next();
        simd::setLevelForTesting(simd::Level::Scalar);
        const auto scalar = sample(scalarRng);
        const uint64_t tailScalar = scalarRng.next();
        simd::clearLevelForTesting();
        EXPECT_EQ(tailVec, tailScalar) << "stream position diverged";
        return std::make_pair(vec, scalar);
    };
    for (const auto &shape : kClassedShapes) {
        for (const double w : kBathtubWeights) {
            const wearout::BathtubModel mix =
                wearout::BathtubModel::withInfantMortality(main, w);
            const auto [vec, scalar] = both([&](Rng &rng) {
                return arch::sampleParallelSurvivedAccesses(mix, shape.n,
                                                            shape.k, rng);
            });
            ASSERT_EQ(vec, scalar) << "bathtub w=" << w << " n=" << shape.n
                                   << " k=" << shape.k;
        }
        for (const fault::FaultyDeviceFactory &factory : factories) {
            const auto [vec, scalar] = both([&](Rng &rng) {
                const arch::FaultySurvival s =
                    arch::sampleFaultyParallelSurvivedAccesses(
                        factory, shape.n, shape.k, rng);
                return std::make_tuple(s.accesses, s.unbounded,
                                       s.stuckDevices);
            });
            ASSERT_EQ(vec, scalar)
                << "eps=" << factory.plan().stuckClosedRate
                << " infant=" << factory.plan().infantFraction
                << " n=" << shape.n << " k=" << shape.k;
        }
    }
}

TEST(RunTrials, ChunkSizeDoesNotChangeSamples)
{
    const auto metric = [](Rng &rng, uint64_t) {
        double acc = 0.0;
        for (int i = 0; i < 4; ++i)
            acc += rng.nextDouble();
        return acc;
    };
    const McRunOptions reference{.trials = 333};
    const std::vector<double> want =
        runTrials(1234, reference, metric).samples;
    for (uint64_t chunk : {uint64_t{1}, uint64_t{7}, uint64_t{64},
                           uint64_t{4096}}) {
        const McRunOptions options{
            .trials = 333, .threads = 4, .chunkSize = chunk};
        const std::vector<double> got =
            runTrials(1234, options, metric).samples;
        ASSERT_EQ(got.size(), want.size()) << "chunk=" << chunk;
        for (size_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(std::bit_cast<uint64_t>(got[i]),
                      std::bit_cast<uint64_t>(want[i]))
                << "chunk=" << chunk << " trial=" << i;
    }
}

TEST(RunTrials, EarlyStopReturnsExactPrefixOfFullRun)
{
    const McRunOptions fullOptions{.trials = 50000};
    const std::vector<double> full =
        runTrials(99, fullOptions, uniformMetric).samples;

    const McRunOptions stopped{
        .trials = 50000,
        .chunkSize = 128,
        .earlyStop = EarlyStop{.relHalfWidth = 0.05,
                               .minTrials = 256,
                               .checkEveryChunks = 2}};
    const TrialReport report = runTrials(99, stopped, uniformMetric);
    ASSERT_TRUE(report.stoppedEarly);
    ASSERT_LT(report.trials, report.requestedTrials);
    // The stop point is a wave boundary.
    EXPECT_EQ(report.trials % (128 * 2), 0u);
    ASSERT_EQ(report.samples.size(), report.trials);
    for (size_t i = 0; i < report.samples.size(); ++i)
        ASSERT_EQ(std::bit_cast<uint64_t>(report.samples[i]),
                  std::bit_cast<uint64_t>(full[i]))
            << "trial " << i;
}

TEST(RunTrials, EarlyStopDisabledRunsEveryTrial)
{
    const McRunOptions options{.trials = 5000, .threads = 4};
    const TrialReport report = runTrials(7, options, uniformMetric);
    EXPECT_FALSE(report.stoppedEarly);
    EXPECT_EQ(report.trials, 5000u);
    EXPECT_EQ(report.requestedTrials, 5000u);
    EXPECT_EQ(report.samples.size(), 5000u);
}

TEST(RunTrials, StreamingAgreesWithKeptSamples)
{
    const McRunOptions kept{.trials = 4001, .threads = 4, .chunkSize = 64};
    McRunOptions streaming = kept;
    streaming.keepSamples = false;
    const TrialReport a = runTrials(31, kept, uniformMetric);
    const TrialReport b = runTrials(31, streaming, uniformMetric);
    EXPECT_TRUE(b.samples.empty());
    EXPECT_EQ(a.stats.count(), b.stats.count());
    EXPECT_EQ(a.stats.min(), b.stats.min());
    EXPECT_EQ(a.stats.max(), b.stats.max());
    EXPECT_NEAR(a.stats.mean(), b.stats.mean(),
                1e-12 * std::abs(a.stats.mean()));
    EXPECT_NEAR(a.stats.variance(), b.stats.variance(),
                1e-9 * a.stats.variance());
}

TEST(RunTrials, RejectsZeroTrials)
{
    EXPECT_THROW(
        static_cast<void>(runTrials(1, McRunOptions{}, uniformMetric)),
        std::invalid_argument);
}

TEST(RunTrials, PreCancelledTokenReturnsEmptyPartialReport)
{
    CancelToken token;
    token.cancel();
    McRunOptions options;
    options.trials = 10000;
    options.keepSamples = false;
    options.cancel = &token;
    const TrialReport report = runTrials(7, options, uniformMetric);
    EXPECT_EQ(report.interrupt, InterruptReason::Cancelled);
    EXPECT_TRUE(report.interrupted());
    EXPECT_EQ(report.trials, 0u);
    EXPECT_EQ(report.requestedTrials, 10000u);
    EXPECT_FALSE(report.stoppedEarly);
}

TEST(RunTrials, ExpiredDeadlineReturnsPartialReport)
{
    McRunOptions options;
    options.trials = 10000;
    options.keepSamples = false;
    options.deadline = std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1);
    const TrialReport report = runTrials(7, options, uniformMetric);
    EXPECT_EQ(report.interrupt, InterruptReason::DeadlineExceeded);
    EXPECT_EQ(report.trials, 0u);
}

TEST(RunTrials, CancellationWithoutHookLeavesPrefixStats)
{
    // A token cancelled from the checkpoint hook fires at the *next*
    // wave boundary, so the partial report is an exact prefix.
    CancelToken token;
    McRunOptions options;
    options.trials = 4096;
    options.chunkSize = 64;
    options.keepSamples = false;
    options.cancel = &token;
    options.checkpointEveryChunks = 8;
    options.checkpoint = [&](const EngineCheckpoint &) {
        token.cancel();
    };
    const TrialReport partial = runTrials(11, options, uniformMetric);
    EXPECT_EQ(partial.interrupt, InterruptReason::Cancelled);
    ASSERT_GT(partial.trials, 0u);
    ASSERT_LT(partial.trials, 4096u);

    // The partial stats must be bit-equal to an uninterrupted run
    // truncated to the same trial count.
    McRunOptions prefix;
    prefix.trials = partial.trials;
    prefix.chunkSize = 64;
    prefix.keepSamples = false;
    const TrialReport reference = runTrials(11, prefix, uniformMetric);
    EXPECT_EQ(std::bit_cast<uint64_t>(partial.stats.mean()),
              std::bit_cast<uint64_t>(reference.stats.mean()));
    EXPECT_EQ(partial.stats.count(), reference.stats.count());
}

TEST(RunTrials, CheckpointResumeIsBitIdenticalAtAnyThreadCount)
{
    constexpr uint64_t kTrials = 8192;
    McRunOptions full;
    full.trials = kTrials;
    full.chunkSize = 64;
    full.keepSamples = false;
    const TrialReport reference = runTrials(99, full, uniformMetric);

    // Capture every checkpoint of a single-threaded run.
    std::vector<EngineCheckpoint> checkpoints;
    McRunOptions recording = full;
    recording.checkpointEveryChunks = 16;
    recording.checkpoint = [&](const EngineCheckpoint &checkpoint) {
        checkpoints.push_back(checkpoint);
    };
    static_cast<void>(runTrials(99, recording, uniformMetric));
    ASSERT_GE(checkpoints.size(), 3u);

    const EngineCheckpoint &mid = checkpoints[checkpoints.size() / 2];
    ASSERT_GT(mid.executedChunks, 0u);
    ASSERT_LT(mid.executedChunks * 64, kTrials);
    for (unsigned threads : {1u, 2u, 8u}) {
        McRunOptions resume = full;
        resume.threads = threads;
        resume.resumeFrom = &mid;
        const TrialReport resumed = runTrials(99, resume, uniformMetric);
        EXPECT_EQ(resumed.trials, reference.trials);
        EXPECT_EQ(resumed.stats.count(), reference.stats.count());
        EXPECT_EQ(std::bit_cast<uint64_t>(resumed.stats.mean()),
                  std::bit_cast<uint64_t>(reference.stats.mean()))
            << "resume at " << threads << " threads diverged";
        EXPECT_EQ(std::bit_cast<uint64_t>(resumed.stats.variance()),
                  std::bit_cast<uint64_t>(reference.stats.variance()));
        EXPECT_EQ(resumed.stats.min(), reference.stats.min());
        EXPECT_EQ(resumed.stats.max(), reference.stats.max());
    }
}

TEST(RunTrials, ResumeRequiresMatchingRunAndStreaming)
{
    EngineCheckpoint checkpoint;
    checkpoint.seed = 5;
    checkpoint.requestedTrials = 1000;
    checkpoint.chunkSize = 64;
    checkpoint.executedChunks = 2;

    McRunOptions options;
    options.trials = 1000;
    options.chunkSize = 64;
    options.keepSamples = false;
    options.resumeFrom = &checkpoint;
    // Wrong seed.
    EXPECT_THROW(static_cast<void>(runTrials(6, options, uniformMetric)),
                 std::invalid_argument);
    // keepSamples requires the full per-trial record, which a
    // streaming checkpoint cannot supply.
    options.keepSamples = true;
    EXPECT_THROW(static_cast<void>(runTrials(5, options, uniformMetric)),
                 std::invalid_argument);
}

TEST(RunTrials, EarlyStopCaptureKeepsLowestTrialError)
{
    // Satellite regression: when early stopping cuts a Capture-mode
    // run short, the captured faults must still appear in the report
    // and firstError must be the lowest-indexed failing trial's —
    // regardless of thread interleaving.
    const auto metric = [](Rng &rng, uint64_t trial) {
        if (trial % 97 == 13)
            throw std::runtime_error("fault at trial " +
                                     std::to_string(trial));
        return 5.0 + 0.01 * rng.nextDouble();
    };

    for (unsigned threads : {1u, 2u, 8u}) {
        McRunOptions options;
        options.trials = 200000;
        options.threads = threads;
        options.chunkSize = 64;
        options.keepSamples = false;
        options.faults = FaultPolicy::Capture;
        options.earlyStop =
            EarlyStop{.relHalfWidth = 0.05, .minTrials = 1024,
                      .checkEveryChunks = 4};
        const TrialReport report = runTrials(3, options, metric);
        ASSERT_TRUE(report.stoppedEarly);
        ASSERT_LT(report.trials, 200000u);
        ASSERT_FALSE(report.failedTrials.empty());
        EXPECT_TRUE(std::is_sorted(report.failedTrials.begin(),
                                   report.failedTrials.end()));
        // Every failing trial below the stop point is captured...
        uint64_t expected = 0;
        for (uint64_t trial = 0; trial < report.trials; ++trial)
            if (trial % 97 == 13)
                ++expected;
        EXPECT_EQ(report.failedTrials.size(), expected);
        // ...and the surfaced error is the lowest trial's (13).
        EXPECT_EQ(report.failedTrials.front(), 13u);
        EXPECT_EQ(report.firstError, "fault at trial 13");
    }
}

/** Bitwise equality of two reports' samples, statistics and logs. */
void
expectSameReport(const TrialReport &want, const TrialReport &got,
                 const std::string &where)
{
    ASSERT_EQ(got.trials, want.trials) << where;
    ASSERT_EQ(got.samples.size(), want.samples.size()) << where;
    for (size_t i = 0; i < want.samples.size(); ++i)
        ASSERT_EQ(std::bit_cast<uint64_t>(got.samples[i]),
                  std::bit_cast<uint64_t>(want.samples[i]))
            << where << " trial=" << i;
    const RunningStats::State a = want.stats.state();
    const RunningStats::State b = got.stats.state();
    EXPECT_EQ(b.count, a.count) << where;
    EXPECT_EQ(b.nonFiniteCount, a.nonFiniteCount) << where;
    EXPECT_EQ(std::bit_cast<uint64_t>(b.mean), std::bit_cast<uint64_t>(a.mean))
        << where;
    EXPECT_EQ(std::bit_cast<uint64_t>(b.m2), std::bit_cast<uint64_t>(a.m2))
        << where;
    EXPECT_EQ(b.min, a.min) << where;
    EXPECT_EQ(b.max, a.max) << where;
    EXPECT_EQ(got.failedTrials, want.failedTrials) << where;
    EXPECT_EQ(got.nonFiniteTrials, want.nonFiniteTrials) << where;
    EXPECT_EQ(got.firstError, want.firstError) << where;
}

/** Runs with fewer chunks than executors are cut into slices below
 *  the chunk; every result must still equal the inline run's bits. */
void
expectSlicedRunsMatchInline(const TrialMetric &metric)
{
    for (const uint64_t trials :
         {uint64_t{1}, uint64_t{7}, uint64_t{100}, uint64_t{1023},
          uint64_t{1025}, uint64_t{3000}}) {
        for (const uint64_t chunk : {uint64_t{0}, uint64_t{16}}) {
            for (const bool keep : {true, false}) {
                McRunOptions options{.trials = trials,
                                     .chunkSize = chunk,
                                     .keepSamples = keep};
                const TrialReport want = runTrials(17, options, metric);
                for (const unsigned threads : {2u, 4u, 8u}) {
                    options.threads = threads;
                    expectSameReport(
                        want, runTrials(17, options, metric),
                        "trials=" + std::to_string(trials) +
                            " chunk=" + std::to_string(chunk) +
                            " keep=" + std::to_string(keep) +
                            " threads=" + std::to_string(threads));
                }
            }
        }
    }
}

TEST(RunTrials, SlicedWavesBitEqualToInline)
{
    // Heavy-tailed samples: any change to the order of the adds moves
    // the low bits of the mean and M2.
    expectSlicedRunsMatchInline([](Rng &rng, uint64_t) {
        return -1000.0 * std::log(rng.nextDoubleOpenLow());
    });
}

TEST(RunTrials, SlicedCaptureBitEqualToInline)
{
    expectSlicedRunsMatchInline([](Rng &rng, uint64_t trial) {
        if (trial % 13 == 5)
            throw std::runtime_error("fault at trial " +
                                     std::to_string(trial));
        if (trial % 17 == 3)
            return std::numeric_limits<double>::quiet_NaN();
        if (trial % 29 == 28)
            return std::numeric_limits<double>::infinity();
        return -1000.0 * std::log(rng.nextDoubleOpenLow());
    });
}

TEST(RunTrials, SlicedRethrowRaisesLowestFailingTrial)
{
    // Two failing trials in different slices of one chunk. The lower
    // one stalls first, so the higher one is usually recorded earlier:
    // the lowest trial must still win, as it does inline.
    const auto rethrown = [](const McRunOptions &options, uint64_t low,
                             uint64_t high) -> std::string {
        try {
            static_cast<void>(runTrials(
                5, options, [low, high](Rng &rng, uint64_t trial) {
                    if (trial == low) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(20));
                        throw std::runtime_error("trial " +
                                                 std::to_string(trial));
                    }
                    if (trial == high)
                        throw std::runtime_error("trial " +
                                                 std::to_string(trial));
                    return rng.nextDouble();
                }));
        } catch (const std::runtime_error &e) {
            return e.what();
        }
        return "no exception";
    };
    // One 100-trial chunk in 16 slices; chunk 2 of seven 16-trial
    // chunks in five slices ([35, 38) and [38, 41)).
    for (const auto &[chunk, low, high] :
         {std::tuple<uint64_t, uint64_t, uint64_t>{0, 20, 70},
          std::tuple<uint64_t, uint64_t, uint64_t>{16, 37, 40}}) {
        for (const unsigned threads : {1u, 4u, 8u}) {
            const McRunOptions options{.trials = 100,
                                       .threads = threads,
                                       .chunkSize = chunk,
                                       .faults = FaultPolicy::Rethrow};
            EXPECT_EQ(rethrown(options, low, high),
                      "trial " + std::to_string(low))
                << "chunk=" << chunk << " threads=" << threads;
        }
    }
}

TEST(RunTrials, SmallRunSpreadsOverThePool)
{
    // One 100-trial chunk at 4 threads must not fall back to the
    // inline loop: its slices run as pool tasks.
    obs::Counter &tasks =
        obs::Registry::global().counter("sim.mc.pool.tasks");
    obs::Counter &inlineRuns =
        obs::Registry::global().counter("sim.mc.pool.inline_runs");
    const uint64_t tasksBefore = tasks.get();
    const uint64_t inlineBefore = inlineRuns.get();
    static_cast<void>(
        runTrials(3, {.trials = 100, .threads = 4}, uniformMetric));
    EXPECT_GT(tasks.get() - tasksBefore, 1u);
    EXPECT_EQ(inlineRuns.get(), inlineBefore);
}

TEST(RunTrials, AllThreadsMeansTheAffinityMask)
{
#ifdef __linux__
    // Pin the calling thread to one CPU: "all CPUs" is then one
    // executor, so the run stays inline instead of oversubscribing.
    cpu_set_t saved;
    CPU_ZERO(&saved);
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    size_t first = 0;
    while (!CPU_ISSET(first, &saved))
        ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);

    obs::Counter &inlineRuns =
        obs::Registry::global().counter("sim.mc.pool.inline_runs");
    const uint64_t inlineBefore = inlineRuns.get();
    static_cast<void>(
        runTrials(3, {.trials = 100, .threads = 0}, uniformMetric));
    const uint64_t inlineAfter = inlineRuns.get();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(inlineAfter, inlineBefore + 1);
#else
    GTEST_SKIP() << "affinity masks are Linux-only";
#endif
}

} // namespace
} // namespace lemons::engine
