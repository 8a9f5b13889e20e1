/**
 * @file
 * Figure 8: one-time-pad success probability over (k, H) at
 * alpha = 10, beta = 1, n = 128 copies.
 *
 *  8a — receiver success (Eq. 10),
 *  8b — adversary success (Eq. 15),
 * plus the "success space" cells where the receiver wins and the
 * adversary loses, and Monte Carlo spot checks of both.
 */

#include <vector>

#include "bench/harness.h"
#include "core/explorer.h"
#include "engine/engine.h"
#include "util/table.h"
#include "wearout/population.h"

using namespace lemons;
using namespace lemons::core;

namespace {

const std::vector<uint64_t> kGrid = {1, 8, 16, 32, 48, 64, 96, 120, 128};
const std::vector<unsigned> hGrid = {1, 2, 4, 6, 8, 10, 12};

void
printGrid(lemons::bench::BenchContext &ctx, const char *title,
          bool receiver)
{
    ctx.out() << "--- " << title << " ---\n";
    std::vector<std::string> headers{"H \\ k"};
    for (uint64_t k : kGrid)
        headers.push_back(std::to_string(k));
    Table table(headers);
    for (unsigned h : hGrid) {
        const auto row =
            sweepOtpThresholdHeight(kGrid, {h}, 128, {10.0, 1.0});
        std::vector<std::string> cells{std::to_string(h)};
        for (const auto &point : row) {
            const double success = receiver ? point.receiverSuccess
                                            : point.adversarySuccess;
            cells.push_back(formatGeneral(success, 3));
            ctx.keep(success);
        }
        table.addRow(cells);
    }
    table.print(ctx.out());
    ctx.out() << "\n";
}

} // namespace

LEMONS_BENCH(fig8OtpGrids, "fig8.otp.analytic_grids")
{
    ctx.out() << "=== Figure 8: OTP success probability vs (k, H), "
                 "alpha=10 beta=1 n=128 ===\n\n";
    printGrid(ctx, "Fig 8a: receiver success probability", true);
    printGrid(ctx, "Fig 8b: adversary success probability", false);

    // Success space: receiver > 0.99 AND adversary < 0.01.
    ctx.out() << "--- success space (R = receiver wins, . = not) ---\n";
    for (unsigned h : hGrid) {
        ctx.out() << "H=" << h << (h < 10 ? " " : "") << " ";
        const auto row =
            sweepOtpThresholdHeight(kGrid, {h}, 128, {10.0, 1.0});
        for (const auto &point : row) {
            ctx.out() << (point.receiverSuccess > 0.99 &&
                                  point.adversarySuccess < 0.01
                              ? 'R'
                              : '.');
        }
        ctx.out() << "\n";
    }
    ctx.out() << "(columns: k = ";
    for (uint64_t k : kGrid)
        ctx.out() << k << " ";
    ctx.out() << ")\n\n";
    ctx.metric("items",
               static_cast<double>(3 * kGrid.size() * hGrid.size()));
}

LEMONS_BENCH(fig8OtpMonteCarlo, "fig8.otp.monte_carlo")
{
    // Monte Carlo spot check at the paper's working point H=4, k=8 and
    // at the adversary-relevant point H=2, k=8.
    const wearout::DeviceFactory factory({10.0, 1.0},
                                         wearout::ProcessVariation::none());
    OtpParams params;
    params.device = {10.0, 1.0};
    params.copies = 128;
    params.threshold = 8;
    const std::vector<uint8_t> key(32, 0x42);

    params.height = 4;
    const uint64_t pads = ctx.scaled(300, 30);
    const auto recvCi = engine::estimateProbability(77, pads, [&](Rng &rng) {
        OneTimePad pad(params, key, 3, factory, rng);
        return pad.retrieve(3).has_value();
    });
    ctx.out() << "MC receiver success (H=4, k=8, " << pads << " pads): "
              << formatGeneral(recvCi.estimate, 4) << " [analytic "
              << formatGeneral(OtpAnalytics(params).receiverSuccess(), 4)
              << "]\n";
    ctx.keep(recvCi.estimate);

    params.height = 2;
    const auto advCi = engine::estimateProbability(77, pads, [&](Rng &rng) {
        OneTimePad pad(params, key, 1, factory, rng);
        Rng attacker = rng.split(13);
        return pad.randomPathAttack(attacker).has_value();
    });
    ctx.out() << "MC adversary success (H=2, k=8, " << pads << " pads): "
              << formatGeneral(advCi.estimate, 4) << " [analytic "
              << formatGeneral(OtpAnalytics(params).adversarySuccess(), 4)
              << "]\n";
    ctx.keep(advCi.estimate);
    ctx.metric("items", static_cast<double>(2 * pads));
}
