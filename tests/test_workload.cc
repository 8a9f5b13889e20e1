/**
 * @file
 * Tests for the usage-workload simulator (Poisson daily usage vs the
 * paper's fixed 50/day x 5yr budget assumption).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "sim/workload.h"
#include "util/stats.h"

namespace lemons::sim {
namespace {

TEST(Poisson, RejectsBadMean)
{
    Rng rng(1);
    EXPECT_THROW(poissonSample(rng, -1.0), std::invalid_argument);
}

TEST(Poisson, ZeroMeanIsZero)
{
    Rng rng(2);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(poissonSample(rng, 0.0), 0u);
}

TEST(Poisson, SmallMeanMatchesMoments)
{
    Rng rng(3);
    RunningStats stats;
    for (int i = 0; i < 200000; ++i)
        stats.add(static_cast<double>(poissonSample(rng, 3.7)));
    EXPECT_NEAR(stats.mean(), 3.7, 0.03);
    EXPECT_NEAR(stats.variance(), 3.7, 0.08);
}

TEST(Poisson, LargeMeanMatchesMoments)
{
    // Exercises the normal-approximation branch.
    Rng rng(4);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.add(static_cast<double>(poissonSample(rng, 500.0)));
    EXPECT_NEAR(stats.mean(), 500.0, 1.0);
    EXPECT_NEAR(stats.variance(), 500.0, 12.0);
}

TEST(UsageProfile, EffectiveMeanAccountsForBursts)
{
    UsageProfile plain;
    EXPECT_DOUBLE_EQ(plain.effectiveDailyMean(), 50.0);
    UsageProfile bursty;
    bursty.meanPerDay = 50.0;
    bursty.burstProbability = 0.1;
    bursty.burstMultiplier = 3.0;
    EXPECT_DOUBLE_EQ(bursty.effectiveDailyMean(), 60.0);
}

TEST(SimulateUsage, GenerousBudgetSurvives)
{
    UsageProfile profile;
    profile.meanPerDay = 50.0;
    Rng rng(5);
    const auto outcome = simulateUsage(profile, 100000, 1825, rng);
    EXPECT_TRUE(outcome.survivedHorizon);
    EXPECT_EQ(outcome.daysServed, 1825u);
    EXPECT_NEAR(static_cast<double>(outcome.accessesServed),
                50.0 * 1825.0, 2000.0);
}

TEST(SimulateUsage, TightBudgetExhausts)
{
    UsageProfile profile;
    profile.meanPerDay = 50.0;
    Rng rng(6);
    const auto outcome = simulateUsage(profile, 1000, 1825, rng);
    EXPECT_FALSE(outcome.survivedHorizon);
    EXPECT_LT(outcome.daysServed, 40u);
    EXPECT_LE(outcome.accessesServed, 1000u);
}

TEST(SimulateUsage, AccessesNeverExceedBudget)
{
    UsageProfile profile;
    profile.meanPerDay = 200.0;
    for (uint64_t seed = 0; seed < 50; ++seed) {
        Rng rng(seed);
        const auto outcome = simulateUsage(profile, 5000, 365, rng);
        EXPECT_LE(outcome.accessesServed, 5000u);
    }
}

TEST(SimulateUsage, RejectsBadProfile)
{
    Rng rng(7);
    UsageProfile bad;
    bad.meanPerDay = 0.0;
    EXPECT_THROW(simulateUsage(bad, 10, 10, rng), std::invalid_argument);
    bad = {};
    bad.burstProbability = 1.5;
    EXPECT_THROW(simulateUsage(bad, 10, 10, rng), std::invalid_argument);
    bad = {};
    bad.burstMultiplier = 0.5;
    EXPECT_THROW(simulateUsage(bad, 10, 10, rng), std::invalid_argument);
    EXPECT_THROW(simulateUsage({}, 10, 0, rng), std::invalid_argument);
}

TEST(SurvivalProbability, PaperBudgetIsAKnifeEdge)
{
    // 91,250 = exactly 50 * 1825: a Poisson 50/day user exhausts it
    // about half the time — the fixed-budget assumption has no slack.
    UsageProfile profile;
    profile.meanPerDay = 50.0;
    const auto ci = survivalProbability(profile, 91250, 1825, 8, 400);
    EXPECT_GT(ci.estimate, 0.3);
    EXPECT_LT(ci.estimate, 0.7);
}

TEST(SurvivalProbability, MWayScaledBudgetIsComfortable)
{
    // 2x the nominal budget (M = 2 replication) survives essentially
    // always for the same user.
    UsageProfile profile;
    profile.meanPerDay = 50.0;
    const auto ci = survivalProbability(profile, 2 * 91250, 1825, 9, 300);
    EXPECT_EQ(ci.estimate, 1.0);
}

TEST(SurvivalProbability, MonotoneInBudget)
{
    UsageProfile profile;
    profile.meanPerDay = 50.0;
    double prev = 0.0;
    for (uint64_t budget : {85000u, 91250u, 95000u, 105000u}) {
        const double p =
            survivalProbability(profile, budget, 1825, 10, 300).estimate;
        EXPECT_GE(p, prev - 0.05) << "budget " << budget;
        prev = p;
    }
}

TEST(BudgetForSurvival, FindsTheQuantile)
{
    UsageProfile profile;
    profile.meanPerDay = 50.0;
    const uint64_t budget =
        budgetForSurvival(profile, 1825, 0.99, 11, 400);
    // Mean 91,250, sd = sqrt(91,250) ~ 302; the 99th percentile sits
    // ~2.3 sigma up.
    EXPECT_GT(budget, 91250u);
    EXPECT_LT(budget, 93500u);
    // And the found budget indeed survives at the target rate.
    EXPECT_GE(survivalProbability(profile, budget, 1825, 11, 400).estimate,
              0.99);
}

TEST(BudgetForSurvival, BurstyUsersNeedMore)
{
    UsageProfile plain;
    plain.meanPerDay = 50.0;
    UsageProfile bursty = plain;
    bursty.burstProbability = 0.05;
    bursty.burstMultiplier = 4.0;
    EXPECT_GT(budgetForSurvival(bursty, 1825, 0.99, 12, 300),
              budgetForSurvival(plain, 1825, 0.99, 12, 300));
}

/**
 * The exponential-plus-binary search budgetForSurvival used to run: one
 * full Monte Carlo pass per probed budget. The one-pass order
 * statistic must return the same budget.
 */
uint64_t
bisectedBudget(const UsageProfile &profile, uint64_t horizonDays,
               double targetProbability, uint64_t seed, uint64_t trials)
{
    auto survives = [&](uint64_t budget) {
        return survivalProbability(profile, budget, horizonDays, seed,
                                   trials)
                   .estimate >= targetProbability;
    };
    uint64_t hi = std::max<uint64_t>(
        1, static_cast<uint64_t>(profile.effectiveDailyMean() *
                                 static_cast<double>(horizonDays)));
    uint64_t lo = 0;
    while (!survives(hi)) {
        lo = hi;
        hi *= 2;
    }
    while (hi - lo > 1) {
        const uint64_t mid = lo + (hi - lo) / 2;
        if (survives(mid))
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

TEST(BudgetForSurvival, OnePassEqualsBisection)
{
    // The five usage-bench profiles, plus a near-zero rate whose
    // demand is mostly 0, so the answer is the floor budget of 1.
    const UsageProfile profiles[] = {
        {50.0, 0.0, 1.0},  {30.0, 0.0, 1.0},   {60.0, 0.0, 1.0},
        {50.0, 0.05, 4.0}, {120.0, 0.0, 1.0}, {1e-4, 0.0, 1.0},
    };
    size_t floorAnswers = 0;
    for (const UsageProfile &profile : profiles) {
        for (const uint64_t trials : {1u, 2u, 7u, 100u}) {
            const uint64_t seed = 20170624 + trials;
            for (const double target : {0.01, 0.5, 0.99, 0.999}) {
                for (const uint64_t horizon : {1u, 30u, 365u}) {
                    const uint64_t got = budgetForSurvival(
                        profile, horizon, target, seed, trials);
                    EXPECT_EQ(got, bisectedBudget(profile, horizon, target,
                                                  seed, trials))
                        << "mean " << profile.meanPerDay << " burst "
                        << profile.burstProbability << " trials " << trials
                        << " target " << target << " horizon " << horizon;
                    if (got == 1)
                        ++floorAnswers;
                }
            }
        }
    }
    EXPECT_GT(floorAnswers, 0u) << "the answer-is-1 edge went untested";
}

TEST(BudgetForSurvival, RejectsBadTarget)
{
    EXPECT_THROW(budgetForSurvival({}, 10, 0.0, 13, 10),
                 std::invalid_argument);
    EXPECT_THROW(budgetForSurvival({}, 10, 1.0, 13, 10),
                 std::invalid_argument);
}

} // namespace
} // namespace lemons::sim
