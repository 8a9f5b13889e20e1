/**
 * @file
 * Statistical-equivalence oracle for integer-valued samplers.
 *
 * A change that alters how many random draws a sampler makes cannot
 * keep its outputs bit-identical, so a golden digest says nothing
 * about whether it is still right. These helpers test the law
 * instead:
 *
 *  - goodness of fit: Pearson chi-square of a sample against an exact
 *    law (for a k-of-n Weibull bank, P(A >= t) = P(Binomial(n, S(t))
 *    >= k) with S(t) = exp(-(t/alpha)^beta));
 *  - two-sample: chi-square homogeneity of the new sampler's sample
 *    against a reference sampler's (the per-device path).
 *
 * Bins are fixed by the law before any sample is drawn (equal
 * probability, merged until each holds at least kMinBinProbability),
 * and samples come from fixed-seed trial streams, so a battery is
 * deterministic. A battery of m tests passes when every p-value is at
 * least kFamilyAlpha / m (Bonferroni).
 */

#ifndef LEMONS_TESTS_ORACLE_ORACLE_H_
#define LEMONS_TESTS_ORACLE_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/rng.h"

namespace lemons::oracle {

/** Pre-registered family-wise significance level of one battery. */
inline constexpr double kFamilyAlpha = 1e-3;

/** Bins are merged until each has at least this probability. */
inline constexpr double kMinBinProbability = 1e-3;

/** An integer law on t = 0, 1, 2, ...: t -> P(A >= t), with P(A >= 0) = 1. */
using AtLeast = std::function<double(uint64_t)>;

/**
 * Exact survived-access law of a k-out-of-n parallel bank of iid
 * Weibull(@p alpha, @p beta) devices (a series chain is k = n).
 */
AtLeast bankLaw(double alpha, double beta, size_t n, size_t k);

/**
 * Exact law of the sum of @p copies iid draws from @p law, by repeated
 * convolution of its pmf. For laws on a small support (alpha of tens):
 * the pmf is truncated where P(A >= t) < 1e-15.
 */
AtLeast sumLaw(const AtLeast &law, uint64_t copies);

/** Contiguous integer bins [lower[i], lower[i + 1]); the last is open. */
struct Bins
{
    std::vector<uint64_t> lower;
    std::vector<double> probability;

    size_t size() const { return lower.size(); }
    /** Index of the bin holding @p value. */
    size_t index(uint64_t value) const;
};

/**
 * About @p count bins of equal probability under @p law, merged until
 * each has at least kMinBinProbability.
 */
Bins equiprobableBins(const AtLeast &law, size_t count);

/** One test's outcome. */
struct TestResult
{
    double statistic = 0.0;
    double df = 0.0;
    double pValue = 1.0;
};

/** P(X >= @p x) for X ~ chi-square with @p df degrees of freedom. */
double chiSquareSurvival(double x, double df);

/** Pearson chi-square of @p samples against the bins' probabilities. */
TestResult goodnessOfFit(const std::vector<uint64_t> &samples,
                         const Bins &bins);

/** Chi-square test that @p a and @p b share one law, over @p bins. */
TestResult twoSample(const std::vector<uint64_t> &a,
                     const std::vector<uint64_t> &b, const Bins &bins);

/** One draw of the quantity under test. */
using Sampler = std::function<uint64_t(Rng &)>;

/**
 * @p count draws of @p sample, draw i on Rng::trialStream(@p seed, i):
 * the stream engine::runTrials hands trial i.
 */
std::vector<uint64_t> drawSamples(uint64_t seed, size_t count,
                                  const Sampler &sample);

} // namespace lemons::oracle

#endif // LEMONS_TESTS_ORACLE_ORACLE_H_
