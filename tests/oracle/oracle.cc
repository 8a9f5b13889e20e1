#include "oracle/oracle.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "util/math.h"

namespace lemons::oracle {

namespace {

/** Q(a, x) = Gamma(a, x) / Gamma(a): the series for P below a + 1,
 *  Lentz's continued fraction for Q above it. */
double
regularizedGammaQ(double a, double x)
{
    if (x <= 0.0)
        return 1.0;
    const double logPrefix = -x + a * std::log(x) - std::lgamma(a);
    if (x < a + 1.0) {
        double term = 1.0 / a;
        double sum = term;
        for (double ap = a + 1.0; ap < a + 10000.0; ap += 1.0) {
            term *= x / ap;
            sum += term;
            if (std::abs(term) < std::abs(sum) * 1e-16)
                break;
        }
        return 1.0 - sum * std::exp(logPrefix);
    }
    constexpr double kTiny = 1e-300;
    double b = x + 1.0 - a;
    double c = 1.0 / kTiny;
    double d = 1.0 / b;
    double h = d;
    for (double i = 1.0; i < 10000.0; i += 1.0) {
        const double an = -i * (i - a);
        b += 2.0;
        d = an * d + b;
        if (std::abs(d) < kTiny)
            d = kTiny;
        c = b + an / c;
        if (std::abs(c) < kTiny)
            c = kTiny;
        d = 1.0 / d;
        const double delta = d * c;
        h *= delta;
        if (std::abs(delta - 1.0) < 1e-16)
            break;
    }
    return std::exp(logPrefix) * h;
}

/** Smallest t > @p from with law(t) <= @p target. @pre law(from) > target. */
uint64_t
firstAtOrBelow(const AtLeast &law, double target, uint64_t from)
{
    uint64_t lo = from; // law(lo) > target
    uint64_t hi = std::max<uint64_t>(1, 2 * from);
    while (law(hi) > target) {
        lo = hi;
        if (hi > (uint64_t{1} << 62))
            throw std::runtime_error("oracle: law has no upper tail");
        hi *= 2;
    }
    while (hi - lo > 1) {
        const uint64_t mid = lo + (hi - lo) / 2;
        if (law(mid) > target)
            lo = mid;
        else
            hi = mid;
    }
    return hi;
}

} // namespace

AtLeast
bankLaw(double alpha, double beta, size_t n, size_t k)
{
    return [alpha, beta, n, k](uint64_t t) {
        if (t == 0)
            return 1.0;
        const double survival =
            std::exp(-std::pow(static_cast<double>(t) / alpha, beta));
        return binomialTailAtLeast(n, k, survival);
    };
}

AtLeast
sumLaw(const AtLeast &law, uint64_t copies)
{
    std::vector<double> pmf;
    for (uint64_t t = 0; law(t) >= 1e-15; ++t) {
        if (t > 100000)
            throw std::runtime_error("oracle: sumLaw support too wide");
        pmf.push_back(law(t) - law(t + 1));
    }
    std::vector<double> total = {1.0};
    for (uint64_t c = 0; c < copies; ++c) {
        std::vector<double> next(total.size() + pmf.size() - 1, 0.0);
        for (size_t i = 0; i < total.size(); ++i)
            for (size_t j = 0; j < pmf.size(); ++j)
                next[i + j] += total[i] * pmf[j];
        total = std::move(next);
    }
    // tail[t] = P(sum >= t), accumulated from the top for accuracy.
    auto tail = std::make_shared<std::vector<double>>(total.size() + 1, 0.0);
    for (size_t t = total.size(); t-- > 0;)
        (*tail)[t] = (*tail)[t + 1] + total[t];
    return [tail](uint64_t t) {
        if (t == 0)
            return 1.0;
        return t < tail->size() ? std::min(1.0, (*tail)[t]) : 0.0;
    };
}

size_t
Bins::index(uint64_t value) const
{
    const auto it = std::upper_bound(lower.begin(), lower.end(), value);
    return static_cast<size_t>(it - lower.begin()) - 1;
}

Bins
equiprobableBins(const AtLeast &law, size_t count)
{
    std::vector<uint64_t> edges = {0};
    for (size_t j = 1; j < count; ++j) {
        const double target =
            1.0 - static_cast<double>(j) / static_cast<double>(count);
        if (law(edges.back()) <= target)
            continue; // an atom already spans this quantile
        edges.push_back(firstAtOrBelow(law, target, edges.back()));
    }
    Bins bins;
    double pending = 0.0;
    for (size_t i = 0; i < edges.size(); ++i) {
        const double upper = i + 1 < edges.size() ? law(edges[i + 1]) : 0.0;
        if (pending == 0.0)
            bins.lower.push_back(edges[i]);
        pending += law(edges[i]) - upper;
        if (pending >= kMinBinProbability) {
            bins.probability.push_back(pending);
            pending = 0.0;
        }
    }
    if (pending > 0.0) { // a thin top bin joins its neighbour
        bins.lower.pop_back();
        bins.probability.back() += pending;
    }
    return bins;
}

double
chiSquareSurvival(double x, double df)
{
    return regularizedGammaQ(0.5 * df, 0.5 * x);
}

TestResult
goodnessOfFit(const std::vector<uint64_t> &samples, const Bins &bins)
{
    std::vector<double> observed(bins.size(), 0.0);
    for (const uint64_t value : samples)
        observed[bins.index(value)] += 1.0;
    const double n = static_cast<double>(samples.size());
    TestResult result;
    for (size_t i = 0; i < bins.size(); ++i) {
        const double expected = n * bins.probability[i];
        const double diff = observed[i] - expected;
        result.statistic += diff * diff / expected;
    }
    result.df = static_cast<double>(bins.size()) - 1.0;
    result.pValue = result.df > 0.0
                        ? chiSquareSurvival(result.statistic, result.df)
                        : 1.0;
    return result;
}

TestResult
twoSample(const std::vector<uint64_t> &a, const std::vector<uint64_t> &b,
          const Bins &bins)
{
    std::vector<double> countA(bins.size(), 0.0);
    std::vector<double> countB(bins.size(), 0.0);
    for (const uint64_t value : a)
        countA[bins.index(value)] += 1.0;
    for (const uint64_t value : b)
        countB[bins.index(value)] += 1.0;
    const double na = static_cast<double>(a.size());
    const double nb = static_cast<double>(b.size());
    TestResult result;
    double occupied = 0.0;
    for (size_t i = 0; i < bins.size(); ++i) {
        const double column = countA[i] + countB[i];
        if (column == 0.0)
            continue;
        occupied += 1.0;
        const double expectedA = column * na / (na + nb);
        const double expectedB = column * nb / (na + nb);
        const double diffA = countA[i] - expectedA;
        const double diffB = countB[i] - expectedB;
        result.statistic +=
            diffA * diffA / expectedA + diffB * diffB / expectedB;
    }
    result.df = occupied - 1.0;
    result.pValue = result.df > 0.0
                        ? chiSquareSurvival(result.statistic, result.df)
                        : 1.0;
    return result;
}

std::vector<uint64_t>
drawSamples(uint64_t seed, size_t count, const Sampler &sample)
{
    std::vector<uint64_t> out;
    out.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        Rng rng = Rng::trialStream(seed, i);
        out.push_back(sample(rng));
    }
    return out;
}

} // namespace lemons::oracle
