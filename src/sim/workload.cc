#include "sim/workload.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "engine/engine.h"
#include "obs/metrics.h"
#include "util/require.h"

namespace lemons::sim {

uint64_t
poissonSample(Rng &rng, double mean)
{
    requireArg(mean >= 0.0 && std::isfinite(mean),
               "poissonSample: mean must be finite and >= 0");
    LEMONS_OBS_INCREMENT("sim.poisson.samples");
    if (mean == 0.0)
        return 0;
    if (mean < 64.0) {
        // Knuth's product-of-uniforms method.
        LEMONS_OBS_INCREMENT("sim.poisson.exact");
        const double limit = std::exp(-mean);
        uint64_t count = 0;
        double product = rng.nextDoubleOpenLow();
        while (product > limit) {
            ++count;
            product *= rng.nextDoubleOpenLow();
        }
        return count;
    }
    // Normal approximation with continuity correction; relative error
    // is far below the Monte Carlo noise at mean >= 64.
    LEMONS_OBS_INCREMENT("sim.poisson.approx");
    const double sample =
        mean + std::sqrt(mean) * rng.nextGaussian() + 0.5;
    return sample <= 0.0 ? 0 : static_cast<uint64_t>(sample);
}

double
UsageProfile::effectiveDailyMean() const
{
    return meanPerDay *
           (1.0 + burstProbability * (burstMultiplier - 1.0));
}

namespace {

void
requireValidUsage(const UsageProfile &profile, uint64_t horizonDays)
{
    requireArg(profile.meanPerDay > 0.0,
               "simulateUsage: meanPerDay must be positive");
    requireArg(profile.burstProbability >= 0.0 &&
                   profile.burstProbability <= 1.0,
               "simulateUsage: burstProbability outside [0, 1]");
    requireArg(profile.burstMultiplier >= 1.0,
               "simulateUsage: burstMultiplier must be >= 1");
    requireArg(horizonDays >= 1, "simulateUsage: horizon must be >= 1 day");
}

/** One day's access demand: the burst pick, then the Poisson count. */
uint64_t
dailyDemand(const UsageProfile &profile, Rng &rng)
{
    double rate = profile.meanPerDay;
    if (profile.burstProbability > 0.0 &&
        rng.nextBernoulli(profile.burstProbability))
        rate *= profile.burstMultiplier;
    return poissonSample(rng, rate);
}

/**
 * Total demand over the whole horizon: the draws simulateUsage makes
 * when the budget never runs out.
 */
uint64_t
horizonDemand(const UsageProfile &profile, uint64_t horizonDays, Rng &rng)
{
    requireValidUsage(profile, horizonDays);
    uint64_t total = 0;
    for (uint64_t day = 0; day < horizonDays; ++day)
        total += dailyDemand(profile, rng);
    return total;
}

} // namespace

LifetimeOutcome
simulateUsage(const UsageProfile &profile, uint64_t budgetAccesses,
              uint64_t horizonDays, Rng &rng)
{
    requireValidUsage(profile, horizonDays);
    LifetimeOutcome outcome;
    uint64_t remaining = budgetAccesses;
    for (uint64_t day = 0; day < horizonDays; ++day) {
        const uint64_t wanted = dailyDemand(profile, rng);
        if (wanted > remaining) {
            outcome.accessesServed += remaining;
            outcome.daysServed = day;
            return outcome; // exhausted mid-day
        }
        remaining -= wanted;
        outcome.accessesServed += wanted;
    }
    outcome.survivedHorizon = true;
    outcome.daysServed = horizonDays;
    return outcome;
}

ProportionInterval
survivalProbability(const UsageProfile &profile, uint64_t budgetAccesses,
                    uint64_t horizonDays, uint64_t seed, uint64_t trials)
{
    return engine::estimateProbability(seed, trials, [&](Rng &rng) {
        return simulateUsage(profile, budgetAccesses, horizonDays, rng)
            .survivedHorizon;
    });
}

uint64_t
budgetForSurvival(const UsageProfile &profile, uint64_t horizonDays,
                  double targetProbability, uint64_t seed, uint64_t trials)
{
    requireArg(targetProbability > 0.0 && targetProbability < 1.0,
               "budgetForSurvival: target outside (0, 1)");

    // Trial t's stream does not depend on the budget, and cumulative
    // demand only grows, so trial t survives budget b exactly when its
    // horizon demand D_t <= b. survivalProbability(b) is then
    // #{t : D_t <= b} / trials, and the smallest b whose estimate
    // reaches the target is the m-th smallest D_t, where m is the
    // smallest success count whose estimate (the same double quotient
    // as wilsonInterval's) reaches it. One pass answers every budget.
    engine::TrialReport report = engine::runTrials(
        seed,
        {.trials = trials,
         .threads = 0,
         .faults = engine::FaultPolicy::Rethrow},
        [&](Rng &rng, uint64_t) {
            return static_cast<double>(
                horizonDemand(profile, horizonDays, rng));
        });
    std::vector<double> &demands = report.samples;
    const auto n = static_cast<double>(report.trials);
    size_t m = 1;
    while (static_cast<double>(m) / n < targetProbability)
        ++m;
    std::nth_element(demands.begin(),
                     demands.begin() + static_cast<std::ptrdiff_t>(m - 1),
                     demands.end());
    // Budgets start at 1: a zero budget is never an answer.
    return std::max<uint64_t>(1, static_cast<uint64_t>(demands[m - 1]));
}

} // namespace lemons::sim
