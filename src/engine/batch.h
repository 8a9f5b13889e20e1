/**
 * @file
 * Order-statistic trial kernels for whole device banks.
 *
 * A k-out-of-n bank survives floor of its k-th largest device
 * lifetime, and every lifetime law here is monotone non-increasing in
 * the device's uniform u: for a Weibull, T(u) = alpha * (-ln u)^(1/beta).
 * So the bank's lifetime is T(U(k:n)), with U(k:n) the k-th smallest
 * of n iid uniforms. Two kernel families use that:
 *
 *  - Nominal Weibull lots (sampleBankSurvival): U(k:n) ~
 *    Beta(k, n - k + 1) is drawn directly, in O(1) whatever n is, and
 *    transformed once. The result has the exact law of the per-device
 *    path, P(A >= t) = P(Binomial(n, S(t)) >= k), but not its bits or
 *    its draw count: the statistical-equivalence oracle
 *    (tests/oracle/) is what pins it to the per-device reference.
 *  - Classed lots (ClassedLot, sampleClassedBank): each device first
 *    draws class picks — a bathtub mixture's infant/main Bernoulli, a
 *    fault plan's stuck-closed and infant-mortality decisions — and
 *    then one lifetime uniform; its lifetime is its class's law at
 *    that uniform. The kernel keeps the k smallest uniforms per class
 *    and transforms at most k per class. It consumes the very draws of
 *    per-device sampling, in the same order, and returns a
 *    bit-identical result.
 *
 * Both are SIMD-level invariant: the nominal kernel is scalar
 * fastmath and sqrt only, and the classed kernel's bulk Philox fill
 * is bit-identical to the scalar blocks (enforced by the determinism
 * suites). Lots that draw per-device parameters (process variation,
 * fault-plan drift) stay on the per-device path.
 */

#ifndef LEMONS_ENGINE_BATCH_H_
#define LEMONS_ENGINE_BATCH_H_

#include <cstddef>
#include <cstdint>

#include <optional>

#include "util/rng.h"
#include "wearout/mixture.h"
#include "wearout/weibull.h"

namespace lemons::engine {

/**
 * Whole accesses a lifetime supports: floor(L), with huge lifetimes
 * clamped representably. Identical semantics to the arch simulation
 * layer (which now delegates here).
 */
uint64_t floorToAccesses(double lifetime);

/**
 * Survived accesses of one k-out-of-n parallel bank of iid
 * Weibull(@p model) devices: floor(T(U(k:n))). Draws U(k:n) directly
 * on @p rng, whatever n is:
 *
 *  - k = n: U = V^(1/n), so -ln U = -ln V / n (a series chain is the
 *    k = n bank);
 *  - k = 1: U = 1 - V^(1/n);
 *  - otherwise U = X / (X + Y) with X ~ Gamma(k), Y ~ Gamma(n - k + 1),
 *    each by Marsaglia-Tsang on polar-method normals.
 *
 * Uses only fastmath and sqrt, so results do not depend on libm or on
 * the SIMD dispatch level. Counts one `wearout.weibull.samples`.
 * @pre 1 <= k <= n.
 */
uint64_t sampleBankSurvival(const wearout::Weibull &model, size_t n,
                            size_t k, Rng &rng);

/**
 * A bank lot whose devices fall into a few lifetime classes. Each
 * device consumes, in order, one draw per drawn pick and then one
 * (0, 1] lifetime uniform u. Its class is the index of the first pick
 * that fires, or pickCount when none does; its lifetime is that
 * class's law at u.
 */
struct ClassedLot
{
    static constexpr size_t kMaxPicks = 2;

    /**
     * A class pick that fires with probability p. A drawn pick
     * consumes one draw and fires iff its [0, 1) uniform
     * (Rng::nextDouble) is below p; an undrawn pick consumes nothing
     * and fires iff p >= 1.
     */
    struct Pick
    {
        double p = 0.0;
        bool drawn = false;
    };

    /**
     * A class lifetime law: primary(u), or min(primary(u),
     * competing(u)) for a competing-risks class. Both are monotone in
     * u, so their min is too. A class without a primary law is
     * immortal (+inf: stuck closed).
     */
    struct Law
    {
        std::optional<wearout::Weibull> primary;
        std::optional<wearout::Weibull> competing;
    };

    Pick picks[kMaxPicks];
    size_t pickCount = 0;
    Law laws[kMaxPicks + 1];

    /**
     * The draws of BathtubModel::sample: nextBernoulli(w) picks the
     * infant class (class 0), otherwise the main class (class 1).
     */
    static ClassedLot bathtub(const wearout::BathtubModel &model);
};

/** One classed-bank sample. */
struct ClassedBankSample
{
    /** floor of the (k - immortal)-th largest mortal lifetime;
     *  0 when unbounded. */
    uint64_t accesses = 0;
    /** Devices in immortal classes (no primary law). */
    size_t immortal = 0;
    /** True when immortal >= k: the bank never drops below k. */
    bool unbounded = false;
};

/**
 * Sample one k-out-of-n parallel bank of @p lot devices. Consumes the
 * draws of n per-device samples in the same order and returns the
 * same order statistic, bit for bit, with at most k transforms per
 * class (counted in `engine.bank.transforms`). For k = 1 it tracks
 * per-class minima and builds no arrays.
 */
ClassedBankSample sampleClassedBank(const ClassedLot &lot, size_t n,
                                    size_t k, Rng &rng);

} // namespace lemons::engine

#endif // LEMONS_ENGINE_BATCH_H_
