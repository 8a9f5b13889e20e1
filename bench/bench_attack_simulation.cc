/**
 * @file
 * Threat-model simulation (Sections 3, 4.1): professional brute-force
 * attacks against the limited-use connection.
 *
 * For each design point, samples users' password guess-ranks from the
 * empirical guessability model and checks whether a popularity-order
 * attacker cracks the password before the hardware wears out. Compares
 * against an unprotected baseline (software counter bypassed, hardware
 * unlimited).
 */

#include "arch/structures_sim.h"
#include "bench/harness.h"
#include "core/design_solver.h"
#include "crypto/password_model.h"
#include "engine/engine.h"
#include "util/table.h"

using namespace lemons;
using namespace lemons::core;

namespace {

struct Scenario
{
    const char *label;
    double kFraction;
    double maxResidual;
    std::optional<uint64_t> upperBound;
    double rejectedFraction;
};

} // namespace

LEMONS_BENCH(attackSimulation, "attack.brute_force")
{
    ctx.out() << "=== Brute-force attack simulation (alpha = 14, "
                 "beta = 8, LAB = 91,250) ===\n\n";

    const crypto::PasswordModel passwords;
    const Scenario scenarios[] = {
        {"encoded, p=1%", 0.1, 0.01, {}, 0.0},
        {"encoded, p=10%", 0.1, 0.10, {}, 0.0},
        {"UB 100k, reject top 1%", 0.1, 0.01, 100000, 0.01},
        {"UB 200k, reject top 2%", 0.1, 0.01, 200000, 0.02},
    };

    const uint64_t trials = ctx.scaled(40, 5);
    Table table({"scenario", "#NEMS", "hardware bound (mean)",
                 "attack success (MC)", "attack success (analytic)"});
    for (const Scenario &s : scenarios) {
        DesignRequest request;
        request.device = {14.0, 8.0};
        request.kFraction = s.kFraction;
        request.criteria.maxResidualReliability = s.maxResidual;
        request.upperBoundTarget = s.upperBound;
        const Design design = DesignSolver(request).solve();
        if (!design.feasible) {
            table.addRow({s.label, "infeasible", "-", "-", "-"});
            continue;
        }

        const crypto::PasswordModel policy =
            passwords.withPopularRejected(s.rejectedFraction);
        const wearout::DeviceFactory factory(
            request.device, wearout::ProcessVariation::none());

        // MC: attacker gets as many attempts as this chip instance
        // physically serves; they win if the victim's password rank
        // falls within that.
        const auto ci = engine::estimateProbability(
            20260706, trials, [&](Rng &rng) {
                const uint64_t hardwareBound =
                    arch::sampleSerialCopiesTotalAccesses(
                        factory, design.width, design.threshold,
                        design.copies, rng);
                Rng user = rng.split(1);
                return policy.sampleGuessRank(user) <= hardwareBound;
            });
        ctx.keep(ci.estimate);

        table.addRow({s.label, formatCount(design.totalDevices),
                      formatGeneral(design.expectedSystemTotal, 7),
                      formatGeneral(ci.estimate, 3),
                      formatSci(policy.attackSuccessProbability(
                                    static_cast<uint64_t>(
                                        design.expectedSystemTotal)),
                                2)});
    }
    table.print(ctx.out());

    ctx.out() << "\nUnprotected baseline (no wearout bound): an attacker "
                 "with 1e10 attempts cracks with probability "
              << formatGeneral(
                     passwords.attackSuccessProbability(10000000000ULL), 3)
              << ".\nWith the limited-use connection the success "
                 "probability is pinned at the ~1-2% the password "
                 "distribution\nallows within ~91k-200k attempts — "
                 "matching the paper's security argument.\n";
    ctx.metric("items", static_cast<double>(4 * trials));
}
