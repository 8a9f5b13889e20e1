/**
 * @file
 * Fault-injection ablation: how manufacturing defects erode the
 * paper's limited-use guarantees.
 *
 * The analyses of Sections 4-5 assume every NEMS contact is fail-open:
 * a worn switch never closes again, so access counts are bounded by
 * construction. Real lots also contain fail-short (stuck-closed)
 * contacts — which never wear out and silently void the access bound —
 * and infant-mortality devices, which die far before the designed
 * per-copy bound and erode the legitimate user's side instead.
 *
 * This bench sweeps the stuck-closed rate epsilon and the infant-
 * mortality fraction over a solved LAB = 100 design and reports both
 * sides of the trade: P(architecture serves >= LAB accesses) for the
 * legitimate user, and P(some copy is stuck-closed-dominated), i.e.
 * the attacker gets unbounded accesses. The latter is cross-checked
 * against the analytic 1 - (1 - BinTail(n, k, eps))^N.
 *
 * Runs on the fault-tolerant Monte Carlo engine: unbounded trials
 * return +inf and are quarantined by TrialReport rather than poisoning
 * the bounded-total statistics.
 */

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "arch/structures_sim.h"
#include "bench/harness.h"
#include "core/design_solver.h"
#include "engine/engine.h"
#include "fault/fault_plan.h"
#include "util/math.h"
#include "util/stats.h"
#include "util/table.h"

using namespace lemons;
using namespace lemons::core;

namespace {

constexpr uint64_t kSeed = 20170624; // ISCA '17
constexpr double kLab = 100.0;

struct CellResult
{
    double pLabSurvival;       ///< P(total accesses >= LAB)
    double pUnboundedMc;       ///< P(some copy never dies), Monte Carlo
    double pUnboundedAnalytic; ///< 1 - (1 - BinTail(n, k, eps))^N
    double meanBoundedTotal;   ///< mean total over bounded trials
    double q001BoundedTotal;   ///< 0.1% quantile (legitimate-user tail)
    double q999BoundedTotal;   ///< 99.9% quantile (attacker's extra tries)
    uint64_t failedTrials;     ///< trials that threw (expect 0)
};

CellResult
runCell(const Design &design, const fault::FaultyDeviceFactory &factory,
        uint64_t trials)
{
    const engine::TrialReport report = engine::runTrials(
        kSeed, {.trials = trials, .threads = 0}, [&](Rng &rng, uint64_t) {
            const arch::FaultyArchitectureOutcome outcome =
                arch::sampleFaultySerialCopiesOutcome(
                    factory, design.width, design.threshold, design.copies,
                    rng);
            if (outcome.unbounded)
                return std::numeric_limits<double>::infinity();
            return static_cast<double>(outcome.totalAccesses);
        });

    uint64_t labSurvivals = 0;
    std::vector<double> bounded;
    bounded.reserve(report.samples.size());
    for (double total : report.samples) {
        if (total >= kLab) // +inf counts: unbounded certainly covers LAB
            ++labSurvivals;
        if (std::isfinite(total))
            bounded.push_back(total);
    }

    const double eps = factory.plan().stuckClosedRate;
    const double pCopyStuck = binomialTailAtLeast(
        design.width, design.threshold, eps);
    const double pAnyCopyStuck =
        1.0 - std::pow(1.0 - pCopyStuck,
                       static_cast<double>(design.copies));

    CellResult cell;
    cell.pLabSurvival =
        static_cast<double>(labSurvivals) / static_cast<double>(trials);
    cell.pUnboundedMc =
        static_cast<double>(report.nonFiniteTrials.size()) /
        static_cast<double>(trials);
    cell.pUnboundedAnalytic = pAnyCopyStuck;
    if (bounded.empty()) {
        cell.meanBoundedTotal = std::numeric_limits<double>::quiet_NaN();
        cell.q001BoundedTotal = std::numeric_limits<double>::quiet_NaN();
        cell.q999BoundedTotal = std::numeric_limits<double>::quiet_NaN();
    } else {
        cell.meanBoundedTotal = report.stats.mean();
        cell.q001BoundedTotal = quantile(bounded, 0.001);
        cell.q999BoundedTotal = quantile(bounded, 0.999);
    }
    cell.failedTrials = report.failedTrials.size();
    return cell;
}

uint64_t
sweepDesign(lemons::bench::BenchContext &ctx, const std::string &label,
            const Design &design, const wearout::DeviceFactory &base,
            uint64_t trials)
{
    ctx.out() << label << ": n = " << design.width << ", k = "
              << design.threshold << ", N = " << design.copies
              << " copies (" << formatCount(design.totalDevices)
              << " switches)\n";

    Table table({"stuck eps", "infant frac", "P(total>=LAB)",
                 "mean bounded", "q0.1", "q99.9", "P(unbounded) MC",
                 "P(unbounded) analytic"});
    uint64_t failures = 0;
    for (double eps : {0.0, 1e-4, 1e-3, 1e-2}) {
        for (double infant : {0.0, 0.01, 0.05}) {
            fault::FaultPlan plan;
            plan.stuckClosedRate = eps;
            plan.infantFraction = infant;
            const fault::FaultyDeviceFactory factory(base, plan);
            const CellResult cell = runCell(design, factory, trials);
            failures += cell.failedTrials;
            ctx.keep(cell.pLabSurvival + cell.pUnboundedMc);

            table.addRow({formatGeneral(eps, 3), formatGeneral(infant, 3),
                          formatGeneral(cell.pLabSurvival, 4),
                          formatGeneral(cell.meanBoundedTotal, 6),
                          formatGeneral(cell.q001BoundedTotal, 6),
                          formatGeneral(cell.q999BoundedTotal, 6),
                          formatGeneral(cell.pUnboundedMc, 4),
                          formatGeneral(cell.pUnboundedAnalytic, 4)});
        }
    }
    table.print(ctx.out());
    ctx.out() << "\n";
    return failures;
}

} // namespace

LEMONS_BENCH(faultAblation, "ablation.fault_injection")
{
    ctx.out() << "=== Fault-injection ablation (targeting-scale design, "
                 "LAB = 100) ===\n\n";

    const wearout::DeviceSpec device{10.0, 12.0};
    const wearout::DeviceFactory base(device,
                                      wearout::ProcessVariation::none());
    const uint64_t trials = ctx.scaled(2000, 100);
    ctx.out() << trials << " trials per cell, seed " << kSeed << "\n\n";

    DesignRequest encoded;
    encoded.device = device;
    encoded.legitimateAccessBound = 100;
    encoded.kFraction = 0.1;
    uint64_t failures = sweepDesign(
        ctx, "Encoded design (k/n = 10%)", DesignSolver(encoded).solve(),
        base, trials);

    DesignRequest unencoded = encoded;
    unencoded.kFraction = 0.0; // plain 1-of-n structures (Fig 2c)
    failures += sweepDesign(ctx, "Unencoded design (1-of-n)",
                            DesignSolver(unencoded).solve(), base, trials);

    if (failures > 0)
        ctx.out() << "warning: " << failures
                  << " trials threw and were quarantined\n";

    ctx.out()
        << "The decisive variable is the share threshold k: a copy "
           "serves unbounded accesses only\nwhen >= k of its contacts "
           "are stuck closed. In the unencoded 1-of-n design k = 1, so "
           "a\nsingle fail-short contact among its ~3e5 switches voids "
           "the access bound — already at\nepsilon = 1e-4 essentially "
           "every fabricated architecture is broken, and the analytic\n"
           "column "
           "1 - (1 - BinTail(n, k, eps))^N tracks the Monte Carlo "
           "estimate. The k = 11 encoded\ndesign suppresses the "
           "violation probability to ~1e-7 even at the same epsilon: "
           "the\nredundant encoding the paper introduces for "
           "*reliability* doubles as protection against\nfail-short "
           "defects. Infant mortality pushes the other way — it only "
           "shaves the bounded\ntotals (mean and lower tail) and never "
           "helps the attacker, so burn-in screening is a\nyield "
           "concern, while stuck-closed screening is a security "
           "requirement.\n";
    ctx.metric("items", static_cast<double>(24 * trials));
}
