/**
 * @file
 * Monte Carlo counterparts of the analytic structure models: sample
 * device lifetimes from a factory and report how many accesses a
 * structure actually survives.
 */

#ifndef LEMONS_ARCH_STRUCTURES_SIM_H_
#define LEMONS_ARCH_STRUCTURES_SIM_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "fault/faulty_device.h"
#include "util/rng.h"
#include "wearout/mixture.h"
#include "wearout/population.h"

namespace lemons::arch {

/**
 * Arbitrary lifetime source: draws one device time-to-failure. The
 * per-device reference path: it pays one sampler call and one
 * transform per device. The classed order-statistic kernels are tested
 * bit-equal against it, the nominal one (engine::sampleBankSurvival)
 * equal in law by the statistical oracle.
 */
using LifetimeSampler = std::function<double(Rng &)>;

/**
 * Generic version of sampleParallelSurvivedAccesses for any lifetime
 * distribution.
 */
uint64_t sampleParallelSurvivedAccesses(const LifetimeSampler &sampler,
                                        size_t n, size_t k, Rng &rng);

/** Generic version of sampleSerialCopiesTotalAccesses. */
uint64_t sampleSerialCopiesTotalAccesses(const LifetimeSampler &sampler,
                                         size_t n, size_t k,
                                         uint64_t copies, Rng &rng);

/**
 * sampleParallelSurvivedAccesses on a bathtub-mixture lot (each device
 * draws model.sample): the same draws and the same result as the
 * LifetimeSampler path over model.sample, through the classed
 * order-statistic kernel (engine::sampleClassedBank).
 */
uint64_t sampleParallelSurvivedAccesses(const wearout::BathtubModel &model,
                                        size_t n, size_t k, Rng &rng);

/** sampleSerialCopiesTotalAccesses on a bathtub-mixture lot. */
uint64_t sampleSerialCopiesTotalAccesses(const wearout::BathtubModel &model,
                                         size_t n, size_t k,
                                         uint64_t copies, Rng &rng);

/**
 * Sample the number of whole accesses a k-out-of-n parallel structure
 * survives: each access actuates every device; the structure works
 * while at least k devices still close. Equals floor of the k-th
 * largest sampled lifetime. A lot without process variation draws
 * that order statistic directly (engine::sampleBankSurvival): the same
 * law as per-device sampling, in one draw instead of n.
 *
 * @param factory Device fabrication model.
 * @param n Structure width. @param k Alive threshold (1 <= k <= n).
 * @param rng Randomness source.
 */
uint64_t sampleParallelSurvivedAccesses(const wearout::DeviceFactory &factory,
                                        size_t n, size_t k, Rng &rng);

/**
 * Sample the number of whole accesses an n-device series chain
 * survives: floor of the minimum sampled lifetime.
 */
uint64_t sampleSeriesSurvivedAccesses(const wearout::DeviceFactory &factory,
                                      size_t n, Rng &rng);

/**
 * Sample the total accesses served by @p copies serially-consumed
 * parallel structures (the N-copy architecture of Section 4.1): when
 * the current copy's structure dies, the next copy takes over; the
 * total is the sum of per-copy survived accesses. This is the
 * quantity behind the paper's "empirical access bounds" (Fig 4c).
 */
uint64_t sampleSerialCopiesTotalAccesses(const wearout::DeviceFactory &factory,
                                         size_t n, size_t k, uint64_t copies,
                                         Rng &rng);

/** Survived-access sample under fault injection. */
struct FaultySurvival
{
    /** Accesses survived; meaningless when unbounded. */
    uint64_t accesses = 0;
    /**
     * True when >= k devices are stuck closed: the structure never
     * degrades below threshold and the access bound is gone.
     */
    bool unbounded = false;
    /** Fail-short devices in the sampled population. */
    size_t stuckDevices = 0;
};

/**
 * Fault-injected counterpart of sampleParallelSurvivedAccesses.
 * Transient glitches are ignored here: they fail individual reads but
 * do not move the wearout order statistics. On a lot without process
 * variation, a null plan is the nominal bank (the draw and result of
 * sampleParallelSurvivedAccesses), and any other plan without drift
 * runs through the classed order-statistic kernel (stuck-closed,
 * infant and healthy classes) with the draws and result of per-device
 * sampling.
 */
FaultySurvival
sampleFaultyParallelSurvivedAccesses(const fault::FaultyDeviceFactory &factory,
                                     size_t n, size_t k, Rng &rng);

/** Whole-architecture outcome under fault injection. */
struct FaultyArchitectureOutcome
{
    /** Accesses served before exhaustion (sum over consumed copies). */
    uint64_t totalAccesses = 0;
    /** True when some copy never dies (secret retrievable forever). */
    bool unbounded = false;
    /** Copies with >= k stuck-closed devices. */
    size_t stuckDominatedCopies = 0;
};

/**
 * Fault-injected counterpart of sampleSerialCopiesTotalAccesses:
 * copies are consumed serially until one of them turns out to be
 * unkillable (at which point the architecture serves unbounded
 * accesses) or all copies die.
 */
FaultyArchitectureOutcome
sampleFaultySerialCopiesOutcome(const fault::FaultyDeviceFactory &factory,
                                size_t n, size_t k, uint64_t copies,
                                Rng &rng);

} // namespace lemons::arch

#endif // LEMONS_ARCH_STRUCTURES_SIM_H_
