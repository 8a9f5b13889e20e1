#include "engine/batch.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "obs/metrics.h"
#include "util/fastmath.h"
#include "util/require.h"

namespace lemons::engine {

namespace {

/** Raw draws per bulk fill in the classed kernel (4 KiB of stack). */
constexpr size_t kRawChunk = 512;

/** Per-thread per-class uniform arrays and transformed candidates of
 *  the classed kernel's k > 1 path; widths recur, so they grow once. */
thread_local std::vector<double> classUniforms[ClassedLot::kMaxPicks + 1];
thread_local std::vector<double> candidateScratch;

/**
 * Standard normals by Marsaglia's polar method on detLog and sqrt
 * (both exact-sequence, so no libm), keeping the second variate of
 * each pair for the next call.
 */
class PolarNormal
{
  public:
    double next(Rng &rng)
    {
        if (hasSpare) {
            hasSpare = false;
            return spare;
        }
        double x = 0.0;
        double y = 0.0;
        double s = 0.0;
        do {
            x = 2.0 * rng.nextDouble() - 1.0;
            y = 2.0 * rng.nextDouble() - 1.0;
            s = x * x + y * y;
        } while (s >= 1.0 || s == 0.0);
        const double f = std::sqrt(-2.0 * fastmath::detLog(s) / s);
        spare = y * f;
        hasSpare = true;
        return x * f;
    }

  private:
    double spare = 0.0;
    bool hasSpare = false;
};

/**
 * One Gamma(@p shape, 1) variate for shape >= 1: G. Marsaglia and
 * W. W. Tsang, "A simple method for generating gamma variables",
 * ACM TOMS 26(3), 2000. Exact (rejection, not an approximation); the
 * squeeze accepts about 98 % of proposals without a log.
 */
double
gammaVariate(double shape, PolarNormal &normal, Rng &rng)
{
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
        double x = 0.0;
        double v = 0.0;
        do {
            x = normal.next(rng);
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        const double u = rng.nextDoubleOpenLow();
        const double x2 = x * x;
        if (u < 1.0 - 0.0331 * x2 * x2)
            return d * v;
        if (fastmath::detLog(u) <
            0.5 * x2 + d * (1.0 - v + fastmath::detLog(v)))
            return d * v;
    }
}

/** 1/13, 1/12, ..., 1/2: the Horner factors of oneMinusExpNeg. */
constexpr double kInverseJ[] = {1.0 / 13.0, 1.0 / 12.0, 1.0 / 11.0,
                                1.0 / 10.0, 1.0 / 9.0,  1.0 / 8.0,
                                1.0 / 7.0,  1.0 / 6.0,  1.0 / 5.0,
                                1.0 / 4.0,  1.0 / 3.0,  1.0 / 2.0};

/**
 * 1 - e^-y for y > 0 without cancellation: below 0.25 the alternating
 * Taylor series y (1 - y/2 (1 - y/3 (1 - ...))) to y^13 (truncation
 * under 1e-17 relative), above it the direct form, where e^-y <= 0.78.
 */
double
oneMinusExpNeg(double y)
{
    if (y >= 0.25)
        return 1.0 - fastmath::detExp(-y);
    double s = 1.0;
    for (const double inverse : kInverseJ)
        s = 1.0 - y * inverse * s;
    return y * s;
}

/**
 * -ln U(k:n), the cumulative hazard of a k-of-n bank's lifetime, drawn
 * directly: see sampleBankSurvival.
 */
double
bankHazard(size_t n, size_t k, Rng &rng)
{
    const double width = static_cast<double>(n);
    if (k == n)
        return -fastmath::detLog(rng.nextDoubleOpenLow()) / width;
    if (k == 1) {
        // V strictly inside (0, 1), so y > 0 and U(1:n) > 0.
        const double v =
            (static_cast<double>(rng.next() >> 11) + 0.5) * 0x1.0p-53;
        return -fastmath::detLog(
            oneMinusExpNeg(-fastmath::detLog(v) / width));
    }
    PolarNormal normal;
    const double x = gammaVariate(static_cast<double>(k), normal, rng);
    const double y =
        gammaVariate(static_cast<double>(n - k + 1), normal, rng);
    // -ln(X / (X + Y)) = ln(1 + Y / X).
    return fastmath::detLog(1.0 + y / x);
}

/** One class's lifetime at uniform @p u, exactly as the per-device
 *  samplers compute it. @pre the class is mortal. */
double
lifetimeOf(const ClassedLot::Law &law, double u)
{
    const double lifetime = law.primary->sampleFromUniform(u);
    if (!law.competing)
        return lifetime;
    return std::min(lifetime, law.competing->sampleFromUniform(u));
}

} // namespace

ClassedLot
ClassedLot::bathtub(const wearout::BathtubModel &model)
{
    // nextBernoulli(w) draws only when 0 < w < 1, and fires iff w >= 1
    // otherwise: exactly an undrawn pick's rule.
    const double w = model.infantFraction();
    ClassedLot lot;
    lot.picks[0] = {w, w > 0.0 && w < 1.0};
    lot.pickCount = 1;
    lot.laws[0].primary = model.infant();
    lot.laws[1].primary = model.main();
    return lot;
}

uint64_t
floorToAccesses(double lifetime)
{
    // A device with lifetime L serves floor(L) whole accesses (the
    // t-th access succeeds iff t <= L).
    if (lifetime <= 0.0)
        return 0;
    const double f = std::floor(lifetime);
    if (f >= static_cast<double>(std::numeric_limits<int64_t>::max()))
        return std::numeric_limits<uint64_t>::max() / 2;
    return static_cast<uint64_t>(f);
}

uint64_t
sampleBankSurvival(const wearout::Weibull &model, size_t n, size_t k,
                   Rng &rng)
{
    requireArg(n >= 1, "sampleBankSurvival: n must be >= 1");
    requireArg(k >= 1 && k <= n, "sampleBankSurvival: need 1 <= k <= n");
    LEMONS_OBS_INCREMENT("wearout.weibull.samples");
    return floorToAccesses(model.lifetimeAtHazard(bankHazard(n, k, rng)));
}

ClassedBankSample
sampleClassedBank(const ClassedLot &lot, size_t n, size_t k, Rng &rng)
{
    requireArg(n >= 1, "sampleClassedBank: n must be >= 1");
    requireArg(k >= 1 && k <= n, "sampleClassedBank: need 1 <= k <= n");
    requireArg(lot.pickCount <= ClassedLot::kMaxPicks,
               "sampleClassedBank: too many class picks");
    const size_t classCount = lot.pickCount + 1;
    size_t drawnPicks = 0;
    for (size_t p = 0; p < lot.pickCount; ++p) {
        if (lot.picks[p].drawn)
            ++drawnPicks;
    }

    // Each device reads its pick draws and then its lifetime uniform
    // from the bulk-filled raw words; only the per-class k smallest
    // uniforms are ever transformed. For k = 1 that is a running
    // minimum per class, with no arrays at all.
    size_t counts[ClassedLot::kMaxPicks + 1] = {};
    double minU[ClassedLot::kMaxPicks + 1];
    std::fill(minU, minU + classCount, 2.0);
    if (k > 1) {
        for (size_t c = 0; c < classCount; ++c)
            classUniforms[c].clear();
    }
    const size_t stride = drawnPicks + 1;
    const size_t perFill = kRawChunk / stride;
    uint64_t raw[kRawChunk];
    for (size_t done = 0; done < n;) {
        const size_t devices = std::min(perFill, n - done);
        rng.fillRaw(raw, devices * stride);
        const uint64_t *word = raw;
        for (size_t d = 0; d < devices; ++d) {
            size_t cls = lot.pickCount;
            for (size_t p = 0; p < lot.pickCount; ++p) {
                const ClassedLot::Pick &pick = lot.picks[p];
                const bool fires =
                    pick.drawn ? Rng::uniformFromWord(*word++) < pick.p
                               : pick.p >= 1.0;
                if (fires && cls == lot.pickCount)
                    cls = p;
            }
            const double u = Rng::uniformOpenLowFromWord(*word++);
            ++counts[cls];
            if (k == 1)
                minU[cls] = u < minU[cls] ? u : minU[cls];
            else if (lot.laws[cls].primary)
                classUniforms[cls].push_back(u);
        }
        done += devices;
    }

    ClassedBankSample out;
    for (size_t c = 0; c < classCount; ++c) {
        if (!lot.laws[c].primary)
            out.immortal += counts[c];
    }
    if (out.immortal >= k) {
        out.unbounded = true;
        return out;
    }
    // Immortal devices are the largest lifetimes, so the bank's k-th
    // largest is the rank-th largest mortal one.
    const size_t rank = k - out.immortal;
    size_t transforms = 0;
    double lifetime = 0.0;
    if (k == 1) {
        for (size_t c = 0; c < classCount; ++c) {
            if (!lot.laws[c].primary || counts[c] == 0)
                continue;
            const double t = lifetimeOf(lot.laws[c], minU[c]);
            lifetime = t > lifetime ? t : lifetime;
            ++transforms;
        }
    } else {
        std::vector<double> &candidates = candidateScratch;
        candidates.clear();
        for (size_t c = 0; c < classCount; ++c) {
            std::vector<double> &u = classUniforms[c];
            const size_t take = std::min(rank, u.size());
            if (take == 0)
                continue;
            if (take < u.size())
                std::nth_element(u.begin(),
                                 u.begin() +
                                     static_cast<std::ptrdiff_t>(take - 1),
                                 u.end());
            for (size_t i = 0; i < take; ++i)
                candidates.push_back(lifetimeOf(lot.laws[c], u[i]));
            transforms += take;
        }
        std::nth_element(candidates.begin(),
                         candidates.begin() +
                             static_cast<std::ptrdiff_t>(rank - 1),
                         candidates.end(), std::greater<double>());
        lifetime = candidates[rank - 1];
    }
    LEMONS_OBS_COUNT("engine.bank.transforms", transforms);
    out.accesses = floorToAccesses(lifetime);
    return out;
}

} // namespace lemons::engine
