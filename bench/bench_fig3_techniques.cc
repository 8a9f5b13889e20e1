/**
 * @file
 * Figure 3: techniques to control the hardware degradation window.
 *
 *  3a — scaling alpha down (alpha = 1.7, beta = 12) shrinks the
 *       window to within one access,
 *  3b — parallel structures (alpha = 9.3, beta = 12, n in {1,20,40,60})
 *       push the high-reliability threshold toward the cliff,
 *  3c — Reed-Solomon k-out-of-60 structures (alpha = 20, beta = 12,
 *       k in {1,10,20,30,60}) accelerate degradation.
 *
 * Each analytic series is cross-validated against Monte Carlo device
 * populations.
 */

#include <cstdint>

#include "arch/structures.h"
#include "arch/structures_sim.h"
#include "bench/harness.h"
#include "engine/engine.h"
#include "util/table.h"

using namespace lemons;
using wearout::DeviceFactory;
using wearout::ProcessVariation;
using wearout::Weibull;

LEMONS_BENCH(fig3aScaledAlpha, "fig3.techniques.scaled_alpha")
{
    ctx.out() << "--- Fig 3a: scaled-down alpha (alpha = 1.7, beta = 12) "
                 "---\n";
    const Weibull device(1.7, 12.0);
    Table table({"access", "pdf", "reliability"});
    for (double x = 0.0; x <= 3.0; x += 0.25) {
        table.addRow({formatGeneral(x, 3), formatGeneral(device.pdf(x), 4),
                      formatGeneral(device.reliability(x), 4)});
        ctx.keep(device.reliability(x));
    }
    table.print(ctx.out());
    ctx.out() << "R(1) = " << formatGeneral(device.reliability(1.0), 4)
              << " (close to 1), R(2) = "
              << formatGeneral(device.reliability(2.0), 4)
              << " (close to 0): window within one access.\n\n";
}

LEMONS_BENCH(fig3bParallel, "fig3.techniques.parallel")
{
    ctx.out() << "--- Fig 3b: parallel devices (alpha = 9.3, beta = 12) "
                 "---\n";
    const Weibull device(9.3, 12.0);
    Table table({"access", "n=1", "n=20", "n=40", "n=60"});
    for (double x = 7.0; x <= 14.0; x += 1.0) {
        std::vector<std::string> row{formatGeneral(x, 3)};
        for (size_t n : {1u, 20u, 40u, 60u}) {
            row.push_back(formatGeneral(
                arch::ParallelStructure(device, n).reliabilityAt(x), 4));
        }
        table.addRow(row);
    }
    table.print(ctx.out());

    const arch::ParallelStructure forty(device, 40);
    ctx.out() << "n = 40: R(10) = "
              << formatGeneral(forty.reliabilityAt(10.0), 4)
              << " (paper ~0.98), R(11) = "
              << formatGeneral(forty.reliabilityAt(11.0), 4)
              << " (paper ~0.022)\n";

    // Monte Carlo cross-check at the cliff.
    const DeviceFactory factory({9.3, 12.0}, ProcessVariation::none());
    const uint64_t trials = ctx.scaled(100000, 1000);
    const auto ci10 = engine::estimateProbability(33, trials, [&](Rng &rng) {
        return arch::sampleParallelSurvivedAccesses(factory, 40, 1, rng) >=
               10;
    });
    ctx.out() << "MC (" << trials
              << " trials): P(40-wide survives 10 accesses) = "
              << formatGeneral(ci10.estimate, 4) << " [analytic "
              << formatGeneral(forty.reliabilityAt(10.0), 4) << "]\n\n";
    ctx.keep(ci10.estimate);
    ctx.metric("items", static_cast<double>(trials));
}

LEMONS_BENCH(fig3cCoded, "fig3.techniques.rs_coded")
{
    ctx.out() << "--- Fig 3c: Reed-Solomon coded structures "
                 "(alpha = 20, beta = 12, n = 60) ---\n";
    const Weibull device(20.0, 12.0);
    Table table({"access", "k=1", "k=10", "k=20", "k=30", "k=60"});
    for (double x = 8.0; x <= 32.0; x += 2.0) {
        std::vector<std::string> row{formatGeneral(x, 3)};
        for (size_t k : {1u, 10u, 20u, 30u, 60u}) {
            row.push_back(formatGeneral(
                arch::ParallelStructure(device, 60, k).reliabilityAt(x),
                4));
        }
        table.addRow(row);
    }
    table.print(ctx.out());

    const arch::ParallelStructure k30(device, 60, 30);
    ctx.out() << "k = 30 cliff: R(19) = "
              << formatGeneral(k30.reliabilityAt(19.0), 4) << ", R(20) = "
              << formatGeneral(k30.reliabilityAt(20.0), 4)
              << " (paper narrates ~0.92 / ~0.02 around the 20th "
                 "access)\n";
    ctx.out() << "Window [0.9 -> 0.1]: k=1: "
              << arch::ParallelStructure(device, 60, 1)
                     .degradationWindow(0.9, 0.1)
              << " accesses, k=30: " << k30.degradationWindow(0.9, 0.1)
              << " accesses (paper: ~2 vs ~1)\n";

    const DeviceFactory factory({20.0, 12.0}, ProcessVariation::none());
    const uint64_t trials = ctx.scaled(100000, 1000);
    const auto ci = engine::estimateProbability(34, trials, [&](Rng &rng) {
        return arch::sampleParallelSurvivedAccesses(factory, 60, 30, rng) >=
               19;
    });
    ctx.out() << "MC (" << trials
              << " trials): P(30-of-60 survives 19 accesses) = "
              << formatGeneral(ci.estimate, 4) << " [analytic "
              << formatGeneral(k30.reliabilityAt(19.0), 4) << "]\n";
    ctx.keep(ci.estimate);
    ctx.metric("items", static_cast<double>(trials));
}
