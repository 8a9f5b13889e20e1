#include "core/usage_bounds.h"

#include "arch/structures_sim.h"
#include "engine/engine.h"
#include "util/require.h"
#include "util/stats.h"

namespace lemons::core {

UsageBounds
estimateUsageBounds(const Design &design, const wearout::DeviceSpec &device,
                    const wearout::ProcessVariation &variation,
                    uint64_t trials, uint64_t seed)
{
    requireArg(design.feasible, "estimateUsageBounds: design is infeasible");
    const wearout::DeviceFactory factory(device, variation);
    const engine::TrialReport report = engine::runTrials(
        seed,
        {.trials = trials,
         .threads = 0,
         .faults = engine::FaultPolicy::Rethrow},
        [&](Rng &rng, uint64_t) {
            return static_cast<double>(arch::sampleSerialCopiesTotalAccesses(
                factory, design.width, design.threshold, design.copies,
                rng));
        });

    UsageBounds bounds;
    bounds.meanTotalAccesses = report.stats.mean();
    bounds.minTotalAccesses = report.stats.min();
    bounds.maxTotalAccesses = report.stats.max();
    bounds.q001 = quantile(report.samples, 0.001);
    bounds.q999 = quantile(report.samples, 0.999);
    bounds.trials = trials;
    return bounds;
}

} // namespace lemons::core
