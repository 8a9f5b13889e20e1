/**
 * @file
 * Usage-workload simulation for limited-use devices.
 *
 * The paper sizes the limited-use connection from a fixed assumption —
 * "a user may log into a smartphone a maximum of 50 times a day for 5
 * years" (Section 1). Real usage is stochastic: days vary, some days
 * burst. This module models daily access counts as a (optionally
 * bursty) Poisson process and answers the question the fixed budget
 * raises: with what probability does a given access budget survive a
 * usage profile over a calendar horizon — and how much budget does a
 * target survival probability need?
 */

#ifndef LEMONS_SIM_WORKLOAD_H_
#define LEMONS_SIM_WORKLOAD_H_

#include <cstdint>

#include "util/rng.h"
#include "util/stats.h"

namespace lemons::sim {

/** Draw a Poisson(@p mean) sample (exact for small means, normal
 *  approximation above 64 where the error is negligible). */
uint64_t poissonSample(Rng &rng, double mean);

/** Stochastic daily usage profile. */
struct UsageProfile
{
    /** Mean accesses per ordinary day (Poisson rate, > 0). */
    double meanPerDay = 50.0;
    /** Probability a day is a burst day. */
    double burstProbability = 0.0;
    /** Rate multiplier on burst days (>= 1). */
    double burstMultiplier = 1.0;

    /** Long-run mean accesses per day including bursts. */
    double effectiveDailyMean() const;
};

/** Outcome of one simulated device lifetime under a profile. */
struct LifetimeOutcome
{
    bool survivedHorizon = false; ///< budget covered every access
    uint64_t daysServed = 0;      ///< full days before exhaustion
    uint64_t accessesServed = 0;  ///< accesses granted
};

/**
 * Simulate one device lifetime: each day draws a usage count from the
 * profile; the device grants accesses until @p budgetAccesses is
 * spent.
 *
 * @param profile Usage profile.
 * @param budgetAccesses The device's total access budget (e.g. the
 *        91,250 LAB, or M times it with replication).
 * @param horizonDays Calendar horizon (e.g. 5 * 365).
 * @param rng Randomness source.
 */
LifetimeOutcome simulateUsage(const UsageProfile &profile,
                              uint64_t budgetAccesses, uint64_t horizonDays,
                              Rng &rng);

/**
 * Monte Carlo estimate of P(budget survives the horizon) under
 * @p profile, from @p trials trials of engine::estimateProbability at
 * @p seed.
 */
ProportionInterval survivalProbability(const UsageProfile &profile,
                                       uint64_t budgetAccesses,
                                       uint64_t horizonDays, uint64_t seed,
                                       uint64_t trials);

/**
 * Smallest access budget (at least 1) whose survivalProbability point
 * estimate reaches @p targetProbability, from ONE Monte Carlo pass.
 * Trial streams are counter-based, so trial t survives budget b
 * exactly when its full-horizon demand D_t <= b; the answer is the
 * m-th smallest D_t, m the smallest success count whose estimate
 * m / trials (the same double quotient as wilsonInterval) reaches the
 * target. This is bit-identical to bisecting over survivalProbability
 * with the same (seed, trials), at one pass instead of about twenty.
 * The pass runs on every CPU the process may use; the answer is
 * deterministic given @p seed, at any thread count.
 */
uint64_t budgetForSurvival(const UsageProfile &profile,
                           uint64_t horizonDays, double targetProbability,
                           uint64_t seed, uint64_t trials);

} // namespace lemons::sim

#endif // LEMONS_SIM_WORKLOAD_H_
