/**
 * @file
 * Lifetime-model sensitivity (Section 7): the paper concedes the
 * Weibull model "needs experimental data to validate the range of
 * parameters that are realistic of this or other alternative models."
 *
 * This ablation fabricates a design — solved under the pure-Weibull
 * assumption — from bathtub-curve populations (a fraction of devices
 * fails in infancy) and measures how the empirical usage bounds
 * degrade with the infant-mortality fraction, with and without
 * redundant encoding.
 */

#include "arch/structures_sim.h"
#include "bench/harness.h"
#include "core/design_solver.h"
#include "engine/engine.h"
#include "util/stats.h"
#include "util/table.h"
#include "wearout/mixture.h"

using namespace lemons;
using namespace lemons::core;

namespace {

void
sweep(lemons::bench::BenchContext &ctx, const char *label,
      const Design &design, uint64_t lab, const wearout::Weibull &assumed)
{
    ctx.out() << "--- " << label << ": "
              << formatCount(design.totalDevices) << " switches, nominal "
              << formatCount(design.copies * design.perCopyBound)
              << " accesses ---\n";
    Table table({"infant fraction", "mean total", "q0.1%",
                 "min bound held?", "q99.9% (attacker view)"});
    const uint64_t trials = ctx.scaled(2000, 100);
    for (double w : {0.0, 0.01, 0.05, 0.1, 0.2, 0.4}) {
        const wearout::BathtubModel mix =
            wearout::BathtubModel::withInfantMortality(assumed, w);
        const auto report = engine::runTrials(
            90210,
            {.trials = trials,
             .threads = 0,
             .faults = engine::FaultPolicy::Rethrow},
            [&](Rng &rng, uint64_t) {
                return static_cast<double>(
                    arch::sampleSerialCopiesTotalAccesses(
                        mix, design.width, design.threshold,
                        design.copies, rng));
            });
        const RunningStats &stats = report.stats;
        const double q001 = quantile(report.samples, 0.001);
        const double q999 = quantile(report.samples, 0.999);
        const bool held = q001 >= static_cast<double>(lab);
        ctx.keep(stats.mean());
        table.addRow({formatGeneral(w, 3), formatGeneral(stats.mean(), 6),
                      formatGeneral(q001, 6), held ? "yes" : "NO",
                      formatGeneral(q999, 6)});
    }
    table.print(ctx.out());
    ctx.out() << "\n";
    ctx.metric("items", static_cast<double>(6 * trials));
}

} // namespace

LEMONS_BENCH(modelSensitivity, "ablation.model_sensitivity")
{
    ctx.out() << "=== Lifetime-model sensitivity: Weibull-designed "
                 "architectures on bathtub populations ===\n\n";

    const wearout::Weibull assumed(10.0, 12.0);

    DesignRequest encoded;
    encoded.device = {10.0, 12.0};
    encoded.legitimateAccessBound = 100;
    encoded.kFraction = 0.1;
    sweep(ctx, "encoded k=10% design", DesignSolver(encoded).solve(), 100,
          assumed);

    DesignRequest plain = encoded;
    plain.kFraction = 0.0;
    sweep(ctx, "plain 1-of-n design", DesignSolver(plain).solve(), 100,
          assumed);

    ctx.out()
        << "The encoded design's k-of-n margin absorbs a few percent of "
           "infant mortality outright; the plain\n1-of-n design is even "
           "more tolerant on the minimum bound (any survivor suffices) "
           "but its upper bound\nstretches further — the degradation "
           "window widens exactly as Section 7 cautions when the true\n"
           "lifetime model deviates from the designed-for Weibull.\n";
}
