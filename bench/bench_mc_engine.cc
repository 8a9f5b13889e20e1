/**
 * @file
 * Throughput microbenchmarks for the Monte Carlo substrate: Weibull
 * sampling, structure-failure sampling, whole-architecture trials, and
 * the batched lemons::engine execution path — the costs behind every
 * empirical curve in the reproduction.
 *
 * The mc_engine.* group carries its own before/after pair: run_large
 * exercises engine::runTrials while run_large_legacy_spawn replays the
 * retired per-call std::thread implementation on the identical metric
 * and seed, so `lemons-bench --filter mc_engine --report` shows the
 * engine speedup directly.
 */

#include <string>
#include <thread>
#include <vector>

#include "arch/structures.h"
#include "arch/structures_sim.h"
#include "bench/harness.h"
#include "engine/batch.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "wearout/population.h"
#include "wearout/weibull.h"

using namespace lemons;
using lemons::bench::BenchContext;
using lemons::bench::registerBench;

LEMONS_BENCH(mcWeibullSample, "mc.weibull_sample")
{
    const wearout::Weibull model(14.0, 8.0);
    Rng rng(ctx.seed());
    const uint64_t iters = ctx.scaled(1000000, 10000);
    for (uint64_t i = 0; i < iters; ++i)
        ctx.keep(model.sample(rng));
    ctx.metric("items", static_cast<double>(iters));
}

LEMONS_BENCH_REGISTRAR(registerStructureSampleBenches)
{
    constexpr size_t kPoints[][2] = {
        {40, 1}, {60, 30}, {175, 18}, {2000, 200}};
    for (const auto &point : kPoints) {
        const size_t n = point[0];
        const size_t k = point[1];
        registerBench("mc.structure_sample.n" + std::to_string(n) + ".k" +
                          std::to_string(k),
                      [n, k](BenchContext &ctx) {
                          const wearout::DeviceFactory factory(
                              {14.0, 8.0},
                              wearout::ProcessVariation::none());
                          Rng rng(ctx.seed());
                          const uint64_t iters =
                              ctx.scaled(2000000 / n, 100);
                          for (uint64_t i = 0; i < iters; ++i)
                              ctx.keep(static_cast<double>(
                                  arch::sampleParallelSurvivedAccesses(
                                      factory, n, k, rng)));
                          ctx.metric("items", static_cast<double>(
                                                  iters * n));
                      });
    }
}

LEMONS_BENCH(mcFullArchitectureTrial, "mc.full_architecture_trial")
{
    // One full lifetime of the (alpha=14, beta=8, k=10%) connection:
    // 6,084 copies x 175 devices, scaled down under --quick.
    const wearout::DeviceFactory factory({14.0, 8.0},
                                         wearout::ProcessVariation::none());
    Rng rng(ctx.seed());
    const uint64_t copies = ctx.scaled(6084, 100);
    ctx.keep(static_cast<double>(arch::sampleSerialCopiesTotalAccesses(
        factory, 175, 18, copies, rng)));
    ctx.metric("items", static_cast<double>(175 * copies));
}

LEMONS_BENCH(mcEstimateProbability, "mc.estimate_probability")
{
    const wearout::DeviceFactory factory({9.3, 12.0},
                                         wearout::ProcessVariation::none());
    const uint64_t trials = ctx.scaled(20000, 500);
    const auto ci =
        engine::estimateProbability(ctx.seed(), trials, [&](Rng &rng) {
            return arch::sampleParallelSurvivedAccesses(factory, 40, 1,
                                                        rng) >= 10;
        });
    ctx.keep(ci.estimate);
    ctx.metric("items", static_cast<double>(trials));
}

LEMONS_BENCH(mcRunStatsParallel, "mc.run_stats_parallel")
{
    // Same metric through the threaded entry point; on a single-core
    // host this mostly measures the partition/merge overhead.
    const wearout::DeviceFactory factory({9.3, 12.0},
                                         wearout::ProcessVariation::none());
    const uint64_t trials = ctx.scaled(20000, 500);
    const auto report = engine::runTrials(
        ctx.seed(),
        {.trials = trials,
         .threads = 2,
         .keepSamples = false,
         .faults = engine::FaultPolicy::Rethrow},
        [&](Rng &rng, uint64_t) {
            return static_cast<double>(
                arch::sampleParallelSurvivedAccesses(factory, 40, 1, rng));
        });
    ctx.keep(report.stats.mean());
    ctx.metric("items", static_cast<double>(trials));
}

namespace {

/** The structure-survival metric shared by the engine/legacy pair. */
double
largeTrialMetric(const wearout::DeviceFactory &factory, Rng &rng)
{
    return static_cast<double>(
        arch::sampleParallelSurvivedAccesses(factory, 40, 1, rng));
}

} // namespace

LEMONS_BENCH(mcEngineRunLarge, "mc_engine.run_large")
{
    // Large-trial config through engine::runTrials (pooled chunks).
    const wearout::DeviceFactory factory({9.3, 12.0},
                                         wearout::ProcessVariation::none());
    const uint64_t trials = ctx.scaled(20000, 500);
    const auto report = engine::runTrials(
        ctx.seed(),
        {.trials = trials,
         .threads = 2,
         .faults = engine::FaultPolicy::Rethrow},
        [&](Rng &rng, uint64_t) { return largeTrialMetric(factory, rng); });
    ctx.keep(report.stats.mean());
    ctx.metric("items", static_cast<double>(trials));
}

LEMONS_BENCH(mcEngineRunLargeLegacySpawn, "mc_engine.run_large_legacy_spawn")
{
    // Faithful replay of the retired runSamplesParallel: fresh
    // std::thread workers per call, strided partition, per-device
    // sampling through the DeviceFactory std::function hop. Identical
    // seed and metric to mc_engine.run_large, so the report ratio IS
    // the engine speedup.
    const wearout::DeviceFactory factory({9.3, 12.0},
                                         wearout::ProcessVariation::none());
    const uint64_t trials = ctx.scaled(20000, 500);
    const unsigned threads = 2;
    const Rng parent(ctx.seed());
    std::vector<double> samples(trials);
    const auto sampler = [&factory](Rng &r) {
        return factory.sampleLifetime(r);
    };
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
        workers.emplace_back([&, w] {
            for (uint64_t i = w; i < trials; i += threads) {
                Rng rng = parent.split(i);
                samples[i] = static_cast<double>(
                    arch::sampleParallelSurvivedAccesses(sampler, 40, 1,
                                                         rng));
            }
        });
    }
    for (auto &worker : workers)
        worker.join();
    RunningStats stats;
    for (double sample : samples)
        stats.add(sample);
    ctx.keep(stats.mean());
    ctx.metric("items", static_cast<double>(trials));
}

LEMONS_BENCH(mcEngineEarlyStop, "mc_engine.early_stop")
{
    // CI-width early stopping on a low-variance metric: the run should
    // finish well short of the requested trial count.
    const wearout::DeviceFactory factory({9.3, 12.0},
                                         wearout::ProcessVariation::none());
    const uint64_t trials = ctx.scaled(200000, 2000);
    const auto report = engine::runTrials(
        ctx.seed(),
        {.trials = trials,
         .chunkSize = 256,
         .faults = engine::FaultPolicy::Rethrow,
         .earlyStop = engine::EarlyStop{.relHalfWidth = 0.01,
                                        .minTrials = 1024,
                                        .checkEveryChunks = 4}},
        [&](Rng &rng, uint64_t) { return largeTrialMetric(factory, rng); });
    ctx.keep(report.stats.mean());
    ctx.metric("items", static_cast<double>(report.trials));
    ctx.metric("trials_requested", static_cast<double>(trials));
    ctx.metric("trials_run", static_cast<double>(report.trials));
}

LEMONS_BENCH(mcEnginePoolReuse, "mc_engine.pool_reuse")
{
    // Many small pooled runs back to back. threads_created measures the
    // pool's thread churn across the whole batch — after the first
    // warmup it must stay flat (the ISSUE's no-spawn-after-warmup
    // proof, exported into BENCH_results.json).
    const wearout::DeviceFactory factory({14.0, 8.0},
                                         wearout::ProcessVariation::none());
    const uint64_t runs = ctx.scaled(200, 10);
    obs::Counter &created =
        obs::Registry::global().counter("sim.mc.pool.threads_created");
    const uint64_t createdBefore = created.get();
    double acc = 0.0;
    for (uint64_t r = 0; r < runs; ++r) {
        acc += engine::runTrials(
                   ctx.seed() + r,
                   {.trials = 64,
                    .threads = 2,
                    .chunkSize = 16,
                    .faults = engine::FaultPolicy::Rethrow},
                   [&](Rng &rng, uint64_t) {
                       return static_cast<double>(
                           arch::sampleParallelSurvivedAccesses(factory, 40,
                                                                1, rng));
                   })
                   .stats.mean();
    }
    ctx.keep(acc);
    ctx.metric("items", static_cast<double>(runs * 64));
    ctx.metric("threads_created",
               static_cast<double>(created.get() - createdBefore));
}

LEMONS_BENCH(mcEngineCacheHitRate, "mc_engine.cache_hit_rate")
{
    // Solver-style probe pattern: repeated (n, k, x) k-of-n reliability
    // queries against a fixed device, one item per probe. The name
    // predates the probes; perfbench/benches.json pins it and the item
    // count.
    const wearout::Weibull device(14.0, 8.0);
    const uint64_t sweeps = ctx.scaled(200, 5);
    uint64_t probes = 0;
    double acc = 0.0;
    for (uint64_t s = 0; s < sweeps; ++s)
        for (uint64_t n = 10; n <= 200; n += 10) {
            const arch::ParallelStructure copy(
                device, n, std::max<uint64_t>(1, n / 10));
            for (uint64_t x = 1; x <= 20; ++x, ++probes)
                acc += copy.reliabilityAt(static_cast<double>(x));
        }
    ctx.keep(acc);
    ctx.metric("items", static_cast<double>(probes));
}

LEMONS_BENCH(mcEngineBatchKernel, "mc_engine.batch_kernel")
{
    // The raw nominal bank kernel at the paper's connection geometry
    // (n=175, k=18): one order-statistic draw and one transform per
    // structure. Items stay device-equivalents (iters x n).
    const wearout::Weibull model(14.0, 8.0);
    Rng rng(ctx.seed());
    const uint64_t iters = ctx.scaled(2000000 / 175, 100);
    for (uint64_t i = 0; i < iters; ++i)
        ctx.keep(static_cast<double>(
            engine::sampleBankSurvival(model, 175, 18, rng)));
    ctx.metric("items", static_cast<double>(iters * 175));
}
