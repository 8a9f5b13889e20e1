#include "arch/structures_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "engine/batch.h"
#include "obs/metrics.h"
#include "util/require.h"

namespace lemons::arch {

namespace {

// The lifetime -> whole-accesses clamp lives in the engine layer now
// (engine::floorToAccesses) so the batched trial kernels and this
// generic path share one definition.
using engine::floorToAccesses;

/** True when every fabricated device matches the nominal Weibull. */
bool
isNominalLot(const wearout::DeviceFactory &factory)
{
    const wearout::ProcessVariation &variation = factory.variation();
    return variation.alphaSigma == 0.0 && variation.betaSigma == 0.0;
}

/**
 * The classed lot of a fault plan without drift on a nominal base, in
 * sampleFaultyLifetime's draw order: the stuck-closed pick (class 0,
 * immortal), the infant pick (class 1, the earlier of the wearout and
 * infant legs at the shared uniform), else healthy (class 2). A zero
 * rate draws no pick, like sampleFaultyLifetime.
 */
engine::ClassedLot
faultLot(const fault::FaultyDeviceFactory &factory)
{
    const fault::FaultPlan &plan = factory.plan();
    const wearout::DeviceSpec &spec = factory.base().spec();
    const wearout::Weibull main(spec.alpha, spec.beta);
    engine::ClassedLot lot;
    lot.picks[0] = {plan.stuckClosedRate, plan.stuckClosedRate > 0.0};
    lot.picks[1] = {plan.infantFraction, plan.infantFraction > 0.0};
    lot.pickCount = 2;
    lot.laws[1].primary = main;
    lot.laws[1].competing = wearout::Weibull(
        plan.infantScaleFraction * spec.alpha, plan.infantShape);
    lot.laws[2].primary = main;
    return lot;
}

/**
 * Total accesses of @p copies serially-consumed k-of-n structures of
 * @p lot devices (any sampleParallelSurvivedAccesses lot type).
 */
template <typename Lot>
uint64_t
serialCopiesTotal(const Lot &lot, size_t n, size_t k, uint64_t copies,
                  Rng &rng)
{
    requireArg(copies >= 1,
               "sampleSerialCopiesTotalAccesses: need at least one copy");
    uint64_t total = 0;
    for (uint64_t c = 0; c < copies; ++c)
        total += sampleParallelSurvivedAccesses(lot, n, k, rng);
    return total;
}

} // namespace

uint64_t
sampleParallelSurvivedAccesses(const LifetimeSampler &sampler, size_t n,
                               size_t k, Rng &rng)
{
    requireArg(n >= 1, "sampleParallelSurvivedAccesses: n must be >= 1");
    requireArg(k >= 1 && k <= n,
               "sampleParallelSurvivedAccesses: need 1 <= k <= n");
    // One bump per structure, not per device: the per-device count is
    // n, and aggregate increments keep the atomic off the inner loop.
    LEMONS_OBS_INCREMENT("arch.sim.structure_samples");
    LEMONS_OBS_COUNT("arch.sim.device_samples", n);
    std::vector<double> lifetimes(n);
    for (auto &lifetime : lifetimes)
        lifetime = sampler(rng);
    // The structure survives access t while the k-th largest lifetime
    // is >= t, so the survived count is floor of that order statistic.
    std::nth_element(lifetimes.begin(),
                     lifetimes.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     lifetimes.end(), std::greater<double>());
    return floorToAccesses(lifetimes[k - 1]);
}

uint64_t
sampleParallelSurvivedAccesses(const wearout::DeviceFactory &factory,
                               size_t n, size_t k, Rng &rng)
{
    if (isNominalLot(factory)) {
        // iid nominal Weibull: the engine draws the bank's order
        // statistic directly, one sample instead of n. Argument
        // validation happens once, inside the kernel.
        LEMONS_OBS_INCREMENT("arch.sim.structure_samples");
        LEMONS_OBS_INCREMENT("arch.sim.device_samples");
        return engine::sampleBankSurvival(factory.nominalModel(), n, k,
                                          rng);
    }
    return sampleParallelSurvivedAccesses(
        [&factory](Rng &r) { return factory.sampleLifetime(r); }, n, k,
        rng);
}

uint64_t
sampleSerialCopiesTotalAccesses(const LifetimeSampler &sampler, size_t n,
                                size_t k, uint64_t copies, Rng &rng)
{
    return serialCopiesTotal(sampler, n, k, copies, rng);
}

uint64_t
sampleParallelSurvivedAccesses(const wearout::BathtubModel &model, size_t n,
                               size_t k, Rng &rng)
{
    // Argument validation happens once, inside the kernel.
    LEMONS_OBS_INCREMENT("arch.sim.structure_samples");
    LEMONS_OBS_COUNT("arch.sim.device_samples", n);
    LEMONS_OBS_COUNT("wearout.mixture.samples", n);
    LEMONS_OBS_COUNT("wearout.weibull.samples", n);
    return engine::sampleClassedBank(engine::ClassedLot::bathtub(model), n,
                                     k, rng)
        .accesses;
}

uint64_t
sampleSerialCopiesTotalAccesses(const wearout::BathtubModel &model, size_t n,
                                size_t k, uint64_t copies, Rng &rng)
{
    return serialCopiesTotal(model, n, k, copies, rng);
}

uint64_t
sampleSeriesSurvivedAccesses(const wearout::DeviceFactory &factory, size_t n,
                             Rng &rng)
{
    requireArg(n >= 1, "sampleSeriesSurvivedAccesses: n must be >= 1");
    if (isNominalLot(factory)) // a series chain is the n-of-n bank
        return engine::sampleBankSurvival(factory.nominalModel(), n, n,
                                          rng);
    double minLifetime = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i)
        minLifetime = std::min(minLifetime, factory.sampleLifetime(rng));
    return floorToAccesses(minLifetime);
}

uint64_t
sampleSerialCopiesTotalAccesses(const wearout::DeviceFactory &factory,
                                size_t n, size_t k, uint64_t copies, Rng &rng)
{
    return serialCopiesTotal(factory, n, k, copies, rng);
}

FaultySurvival
sampleFaultyParallelSurvivedAccesses(const fault::FaultyDeviceFactory &factory,
                                     size_t n, size_t k, Rng &rng)
{
    requireArg(n >= 1,
               "sampleFaultyParallelSurvivedAccesses: n must be >= 1");
    requireArg(k >= 1 && k <= n,
               "sampleFaultyParallelSurvivedAccesses: need 1 <= k <= n");
    LEMONS_OBS_INCREMENT("arch.sim.faulty_structure_samples");
    FaultySurvival survival;
    const fault::FaultPlan &plan = factory.plan();
    if (plan.isNull() && isNominalLot(factory.base())) {
        // A null plan is its base lot: the nominal order-statistic draw.
        LEMONS_OBS_INCREMENT("arch.sim.device_samples");
        survival.accesses = engine::sampleBankSurvival(
            factory.base().nominalModel(), n, k, rng);
        return survival;
    }
    LEMONS_OBS_COUNT("arch.sim.device_samples", n);
    if (isNominalLot(factory.base()) && plan.alphaDriftSigma == 0.0 &&
        plan.betaDriftSigma == 0.0) {
        const engine::ClassedBankSample bank =
            engine::sampleClassedBank(faultLot(factory), n, k, rng);
        survival.accesses = bank.accesses;
        survival.unbounded = bank.unbounded;
        survival.stuckDevices = bank.immortal;
        return survival;
    }
    std::vector<double> lifetimes;
    lifetimes.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        const fault::FaultyLifetime fate = factory.sampleFaultyLifetime(rng);
        if (fate.stuckClosed())
            ++survival.stuckDevices;
        lifetimes.push_back(fate.lifetime);
    }
    if (survival.stuckDevices >= k) {
        survival.unbounded = true;
        return survival;
    }
    std::nth_element(lifetimes.begin(),
                     lifetimes.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     lifetimes.end(), std::greater<double>());
    survival.accesses = floorToAccesses(lifetimes[k - 1]);
    return survival;
}

FaultyArchitectureOutcome
sampleFaultySerialCopiesOutcome(const fault::FaultyDeviceFactory &factory,
                                size_t n, size_t k, uint64_t copies,
                                Rng &rng)
{
    requireArg(copies >= 1,
               "sampleFaultySerialCopiesOutcome: need at least one copy");
    FaultyArchitectureOutcome outcome;
    for (uint64_t c = 0; c < copies; ++c) {
        const FaultySurvival survival =
            sampleFaultyParallelSurvivedAccesses(factory, n, k, rng);
        if (survival.stuckDevices >= k)
            ++outcome.stuckDominatedCopies;
        if (survival.unbounded) {
            // Serial consumption halts here: this copy keeps serving
            // accesses forever, so later copies are never reached.
            LEMONS_OBS_INCREMENT("arch.sim.unbounded_outcomes");
            outcome.unbounded = true;
            return outcome;
        }
        outcome.totalAccesses += survival.accesses;
    }
    return outcome;
}

} // namespace lemons::arch
