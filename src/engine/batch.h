/**
 * @file
 * Order-statistic trial kernels for whole device banks.
 *
 * The per-device simulation path draws n lifetimes, one pow/log
 * inverse-CDF transform each, and order-selects them. A k-of-n bank
 * only needs its k-th largest lifetime, and every lifetime law here is
 * monotone non-increasing in the device's uniform u: for a Weibull,
 * T(u) = alpha * (-ln u)^(1/beta). So the kernels order-select the raw
 * uniforms first and transform only the few that can matter. The
 * result is bit-identical to the per-device path (monotone maps
 * preserve order statistics, and each selected uniform goes through
 * the very same sampleFromUniform), and the kernels consume the
 * identical RNG stream: same draws, same order, same stream position
 * afterwards.
 *
 * Two kernel families share that contract:
 *
 *  - Nominal Weibull lots (sampleParallelBankSurvival and friends):
 *    one transform per structure.
 *  - Classed lots (ClassedLot, sampleClassedBank): each device first
 *    draws class picks — a bathtub mixture's infant/main Bernoulli, a
 *    fault plan's stuck-closed and infant-mortality decisions — and
 *    then one lifetime uniform; its lifetime is its class's law at
 *    that uniform. The kernel keeps the k smallest uniforms per class
 *    and transforms at most k per class.
 *
 * On counter-based trial streams (Rng::trialStream) the draws are
 * bulk-generated through the dispatched Philox batch, and the k == 1 /
 * k == n selections reduce with AVX2 min/max — both bit-identical to
 * the scalar path, so SIMD width never changes results (enforced by
 * the determinism suites). Lots that draw per-device parameters
 * (process variation, fault-plan drift) stay on the per-device path.
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
 * Weibull(@p model) devices: floor of the k-th largest lifetime.
 * Consumes exactly n uniforms from @p rng, in the same order as n
 * individual Weibull::sample calls, and returns a bit-identical
 * result — but with one transform instead of n.
 */
uint64_t sampleParallelBankSurvival(const wearout::Weibull &model, size_t n,
                                    size_t k, Rng &rng);

/**
 * Survived accesses of one n-device series bank: floor of the minimum
 * lifetime, i.e. the transform of the maximum uniform. Same stream
 * consumption and bit-identity guarantee as the parallel kernel.
 */
uint64_t sampleSeriesBankSurvival(const wearout::Weibull &model, size_t n,
                                  Rng &rng);

/**
 * Batched form: fill @p out[0..trials) with independent parallel-bank
 * survivals, drawing all randomness from @p rng in trial order. The
 * per-trial draws match `trials` sequential sampleParallelBankSurvival
 * calls exactly.
 */
void sampleParallelBankSurvivalMany(const wearout::Weibull &model, size_t n,
                                    size_t k, Rng &rng, uint64_t *out,
                                    size_t trials);

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
