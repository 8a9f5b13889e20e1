#include "sim/monte_carlo.h"

#include <algorithm>
#include <utility>

#include "engine/engine.h"
#include "obs/metrics.h"
#include "util/require.h"

namespace lemons::sim {

MonteCarlo::MonteCarlo(uint64_t seed, uint64_t trials)
    : masterSeed(seed), trialCount(trials)
{
    requireArg(trials > 0, "MonteCarlo: need at least one trial");
}

TrialReport
MonteCarlo::run(const std::function<double(Rng &, uint64_t)> &metric,
                McRunOptions options) const
{
    if (options.trials == 0)
        options.trials = trialCount;
    return engine::runTrials(masterSeed, options, metric);
}

TrialReport
MonteCarlo::run(const std::function<double(Rng &)> &metric,
                McRunOptions options) const
{
    return run([&metric](Rng &rng, uint64_t) { return metric(rng); },
               options);
}

ProportionInterval
MonteCarlo::estimateProbability(
    const std::function<bool(Rng &)> &event) const
{
    LEMONS_OBS_SCOPED_TIMER("sim.mc.estimate_probability");
    TrialReport report = run(
        [&event](Rng &rng) { return event(rng) ? 1.0 : 0.0; },
        {.threads = 0, .faults = FaultPolicy::Rethrow});
    const auto successes = static_cast<uint64_t>(std::count(
        report.samples.begin(), report.samples.end(), 1.0));
    return wilsonInterval(successes, report.trials);
}

// ----------------------------------------------------------------------
// Deprecated wrappers. Serial sample-keeping runs fold their statistics
// in trial order, so runStats/runSamples results stay bit-identical to
// the historical serial loops; the parallel wrappers inherit the
// engine's thread-count-invariant determinism, which is strictly
// stronger than what the old strided-worker implementations promised.
// ----------------------------------------------------------------------

RunningStats
MonteCarlo::runStats(const std::function<double(Rng &)> &metric) const
{
    return run(metric, {.faults = FaultPolicy::Rethrow}).stats;
}

std::vector<double>
MonteCarlo::runSamples(const std::function<double(Rng &)> &metric) const
{
    return std::move(run(metric, {.faults = FaultPolicy::Rethrow}).samples);
}

RunningStats
MonteCarlo::runStatsParallel(const std::function<double(Rng &)> &metric,
                             unsigned threads) const
{
    return run(metric, {.threads = threads,
                        .keepSamples = false,
                        .faults = FaultPolicy::Rethrow})
        .stats;
}

std::vector<double>
MonteCarlo::runSamplesParallel(const std::function<double(Rng &)> &metric,
                               unsigned threads) const
{
    return std::move(
        run(metric,
            {.threads = threads, .faults = FaultPolicy::Rethrow})
            .samples);
}

TrialReport
MonteCarlo::runSamplesReport(
    const std::function<double(Rng &, uint64_t)> &metric,
    unsigned threads) const
{
    return run(metric, {.threads = threads});
}

TrialReport
MonteCarlo::runSamplesReport(const std::function<double(Rng &)> &metric,
                             unsigned threads) const
{
    return run(metric, {.threads = threads});
}

} // namespace lemons::sim
