/**
 * @file
 * Statistical-equivalence battery for the nominal-lot samplers: every
 * path that now draws a bank's order statistic directly
 * (engine::sampleBankSurvival) instead of n device lifetimes.
 *
 * Families: k-of-n parallel banks, series chains, serially consumed
 * copies, and a null fault plan on a nominal base. Each case runs two
 * tests at fixed seeds:
 *
 *  - chi-square of its sample against the exact law,
 *    P(A >= t) = P(Binomial(n, S(t)) >= k), S(t) = exp(-(t/alpha)^beta)
 *    (for copies, that law convolved);
 *  - chi-square homogeneity against the per-device LifetimeSampler
 *    reference path, on independent seeds.
 *
 * The significance level is pre-registered (oracle::kFamilyAlpha,
 * Bonferroni across every test of the battery). The power checks run
 * the same tests at the same threshold on deliberately wrong samplers
 * — Weibull scale x 1.01, k off by one — and require every one to be
 * rejected, so a passing battery is not vacuous. The bank and series
 * cases use a scale of 1e5 accesses, where flooring a lifetime to
 * whole accesses moves it by under 1e-5 relative and cannot hide a 1 %
 * bias.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "arch/structures_sim.h"
#include "fault/faulty_device.h"
#include "oracle/oracle.h"
#include "wearout/population.h"
#include "wearout/weibull.h"

namespace lemons {
namespace {

/** Samples per test and target bins per law. */
constexpr size_t kSamples = 20000;
constexpr size_t kBins = 40;

/** Weibull scale of the bank and series cases, in accesses. */
constexpr double kScale = 1e5;
/** The paper's shape. */
constexpr double kShape = 12.0;

/** Base seed: case i draws its sample on seed kSeed + 2i and its
 *  reference on kSeed + 2i + 1. */
constexpr uint64_t kSeed = 20171024;

/** A nominal k-of-n geometry of Weibull(alpha, beta) devices; copies
 *  > 0 makes it serially consumed copies. */
struct Geometry
{
    double alpha;
    double beta;
    size_t n;
    size_t k;
    uint64_t copies = 0;
};

enum class Path { Parallel, Series, NullPlan, Copies };

struct Case
{
    std::string name;
    Path path;
    Geometry geometry;
    /** Perturbed by the power checks. */
    bool power = false;
};

wearout::DeviceFactory
nominalFactory(const Geometry &g)
{
    return wearout::DeviceFactory({g.alpha, g.beta},
                                  wearout::ProcessVariation::none());
}

/** The production sampler of @p path on geometry @p g (a case's own
 *  geometry, or a deliberately wrong one for the power checks). */
oracle::Sampler
productionSampler(Path path, const Geometry &g)
{
    const wearout::DeviceFactory factory = nominalFactory(g);
    switch (path) {
    case Path::Series:
        return [factory, g](Rng &rng) {
            return arch::sampleSeriesSurvivedAccesses(factory, g.n, rng);
        };
    case Path::NullPlan: {
        const fault::FaultyDeviceFactory faulty(factory,
                                                fault::FaultPlan::none());
        return [faulty, g](Rng &rng) {
            return arch::sampleFaultyParallelSurvivedAccesses(faulty, g.n,
                                                              g.k, rng)
                .accesses;
        };
    }
    case Path::Copies:
        return [factory, g](Rng &rng) {
            return arch::sampleSerialCopiesTotalAccesses(factory, g.n, g.k,
                                                         g.copies, rng);
        };
    case Path::Parallel:
        break;
    }
    return [factory, g](Rng &rng) {
        return arch::sampleParallelSurvivedAccesses(factory, g.n, g.k, rng);
    };
}

/** The per-device reference: one Weibull::sample per device through
 *  the LifetimeSampler overloads. */
oracle::Sampler
referenceSampler(const Geometry &g)
{
    const wearout::Weibull model(g.alpha, g.beta);
    const arch::LifetimeSampler device = [model](Rng &r) {
        return model.sample(r);
    };
    if (g.copies > 0)
        return [device, g](Rng &rng) {
            return arch::sampleSerialCopiesTotalAccesses(device, g.n, g.k,
                                                         g.copies, rng);
        };
    return [device, g](Rng &rng) {
        return arch::sampleParallelSurvivedAccesses(device, g.n, g.k, rng);
    };
}

oracle::AtLeast
exactLaw(const Geometry &g)
{
    const oracle::AtLeast bank = oracle::bankLaw(g.alpha, g.beta, g.n, g.k);
    return g.copies > 0 ? oracle::sumLaw(bank, g.copies) : bank;
}

/** The pre-registered battery. The power checks perturb both bank
 *  regimes of serve_mc and the paper, k = 1, a series chain and
 *  serial copies. */
std::vector<Case>
battery()
{
    return {
        {"bank 11-of-105", Path::Parallel, {kScale, kShape, 105, 11}, true},
        {"bank 100-of-1000", Path::Parallel, {kScale, kShape, 1000, 100},
         true},
        {"bank 1-of-40", Path::Parallel, {kScale, kShape, 40, 1}, true},
        {"bank 175-of-175", Path::Parallel, {kScale, kShape, 175, 175}},
        {"bank 30-of-60 beta 1.5", Path::Parallel, {kScale, 1.5, 60, 30}},
        {"bank 1-of-1 beta 2", Path::Parallel, {kScale, 2.0, 1, 1}},
        {"null plan 11-of-105", Path::NullPlan, {kScale, kShape, 105, 11}},
        {"series 4", Path::Series, {kScale, kShape, 4, 4}},
        {"series 16", Path::Series, {kScale, kShape, 16, 16}, true},
        {"series 32", Path::Series, {kScale, kShape, 32, 32}},
        {"copies 8 x 1-of-10", Path::Copies, {14.0, 8.0, 10, 1, 8}, true},
        {"copies 4 x 3-of-20 beta 2", Path::Copies, {14.0, 2.0, 20, 3, 4}},
    };
}

/** Two tests per case, Bonferroni over the whole battery. */
double
threshold()
{
    return oracle::kFamilyAlpha /
           (2.0 * static_cast<double>(battery().size()));
}

void
report(const std::string &name, const char *test,
       const oracle::TestResult &r)
{
    std::cout << "  " << name << " [" << test << "] chi2 = " << r.statistic
              << " df = " << r.df << " p = " << r.pValue << '\n';
}

TEST(OracleBattery, NominalSamplersMatchExactLawAndReference)
{
    const std::vector<Case> cases = battery();
    const double cut = threshold();
    for (size_t i = 0; i < cases.size(); ++i) {
        const Case &c = cases[i];
        const oracle::Bins bins =
            oracle::equiprobableBins(exactLaw(c.geometry), kBins);
        ASSERT_GE(bins.size(), 2u) << c.name;
        const std::vector<uint64_t> sample = oracle::drawSamples(
            kSeed + 2 * i, kSamples, productionSampler(c.path, c.geometry));
        const std::vector<uint64_t> reference = oracle::drawSamples(
            kSeed + 2 * i + 1, kSamples, referenceSampler(c.geometry));
        const oracle::TestResult fit = oracle::goodnessOfFit(sample, bins);
        const oracle::TestResult same =
            oracle::twoSample(sample, reference, bins);
        report(c.name, "exact law", fit);
        report(c.name, "reference", same);
        EXPECT_GE(fit.pValue, cut) << c.name << ": exact law rejected";
        EXPECT_GE(same.pValue, cut)
            << c.name << ": per-device reference rejected";
    }
}

/** The per-device reference sample of a power case, drawn once. */
const std::vector<uint64_t> &
powerReference(const Case &c)
{
    static std::map<std::string, std::vector<uint64_t>> drawn;
    auto found = drawn.find(c.name);
    if (found == drawn.end())
        found = drawn
                    .emplace(c.name,
                             oracle::drawSamples(kSeed + 1, kSamples,
                                                 referenceSampler(c.geometry)))
                    .first;
    return found->second;
}

/** Both tests of the battery must reject @p wrong, a sampler of the
 *  wrong law, at the battery's own threshold. */
void
expectRejected(const Case &c, const oracle::Sampler &wrong,
               const std::string &why)
{
    const oracle::Bins bins =
        oracle::equiprobableBins(exactLaw(c.geometry), kBins);
    const std::vector<uint64_t> sample =
        oracle::drawSamples(kSeed, kSamples, wrong);
    const std::vector<uint64_t> &reference = powerReference(c);
    const oracle::TestResult fit = oracle::goodnessOfFit(sample, bins);
    const oracle::TestResult same = oracle::twoSample(sample, reference, bins);
    report(c.name + ", " + why, "exact law", fit);
    report(c.name + ", " + why, "reference", same);
    EXPECT_LT(fit.pValue, threshold()) << c.name << ", " << why;
    EXPECT_LT(same.pValue, threshold()) << c.name << ", " << why;
}

/** The cases the power checks perturb. */
std::vector<Case>
powerCases()
{
    std::vector<Case> out;
    for (const Case &c : battery()) {
        if (c.power)
            out.push_back(c);
    }
    return out;
}

TEST(OracleBattery, RejectsScaleBiasedSamplers)
{
    for (const Case &c : powerCases()) {
        Geometry biased = c.geometry;
        biased.alpha *= 1.01;
        expectRejected(c, productionSampler(c.path, biased), "alpha x 1.01");
    }
}

TEST(OracleBattery, RejectsOffByOneThresholds)
{
    for (const Case &c : powerCases()) {
        // A series chain is the n-of-n bank: off by one is (n-1)-of-n.
        const Path path = c.path == Path::Series ? Path::Parallel : c.path;
        if (c.geometry.k < c.geometry.n) {
            Geometry up = c.geometry;
            ++up.k;
            expectRejected(c, productionSampler(path, up), "k + 1");
        }
        if (c.geometry.k > 1) {
            Geometry down = c.geometry;
            --down.k;
            expectRejected(c, productionSampler(path, down), "k - 1");
        }
    }
}

TEST(OracleHelpers, ChiSquareSurvivalMatchesKnownQuantiles)
{
    // Upper 5 % and 0.1 % points of chi-square(1), (10) and (39).
    EXPECT_NEAR(oracle::chiSquareSurvival(3.841459, 1.0), 0.05, 1e-6);
    EXPECT_NEAR(oracle::chiSquareSurvival(18.307038, 10.0), 0.05, 1e-6);
    EXPECT_NEAR(oracle::chiSquareSurvival(29.588298, 10.0), 0.001, 1e-7);
    EXPECT_NEAR(oracle::chiSquareSurvival(54.572228, 39.0), 0.05, 1e-6);
    EXPECT_DOUBLE_EQ(oracle::chiSquareSurvival(0.0, 5.0), 1.0);
}

TEST(OracleHelpers, BinsPartitionTheLaw)
{
    for (const Case &c : battery()) {
        const oracle::Bins bins =
            oracle::equiprobableBins(exactLaw(c.geometry), kBins);
        double total = 0.0;
        for (size_t i = 0; i < bins.size(); ++i) {
            EXPECT_GE(bins.probability[i], oracle::kMinBinProbability)
                << c.name;
            if (i > 0) {
                EXPECT_GT(bins.lower[i], bins.lower[i - 1]) << c.name;
            }
            total += bins.probability[i];
        }
        EXPECT_NEAR(total, 1.0, 1e-9) << c.name;
        EXPECT_EQ(bins.lower.front(), 0u);
        EXPECT_EQ(bins.index(0), 0u);
        EXPECT_EQ(bins.index(~uint64_t{0}), bins.size() - 1);
    }
}

} // namespace
} // namespace lemons
