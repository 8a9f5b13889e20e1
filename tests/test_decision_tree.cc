/**
 * @file
 * Tests for the one-time-pad decision trees: Eq. 9-15 analytics,
 * Monte Carlo cross-validation, and the runtime hardware model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/decision_tree.h"
#include "engine/engine.h"
#include "util/math.h"

namespace lemons::core {
namespace {

using wearout::DeviceFactory;
using wearout::ProcessVariation;

OtpParams
paperParams(unsigned height = 4, uint64_t threshold = 8)
{
    OtpParams p;
    p.height = height;
    p.copies = 128;
    p.threshold = threshold;
    p.device = {10.0, 1.0}; // Section 6.4's example technology
    return p;
}

TEST(OtpAnalytics, RejectsBadParams)
{
    OtpParams p = paperParams();
    p.height = 0;
    EXPECT_THROW(OtpAnalytics{p}, std::invalid_argument);
    p = paperParams();
    p.threshold = 0;
    EXPECT_THROW(OtpAnalytics{p}, std::invalid_argument);
    p = paperParams();
    p.threshold = 129;
    EXPECT_THROW(OtpAnalytics{p}, std::invalid_argument);
}

TEST(OtpAnalytics, PathSuccessMatchesEquationNine)
{
    // Eq. 9: s = exp(-(1/alpha)^beta * H). With alpha=10, beta=1:
    // R(1) = e^-0.1, so s = e^-(0.1 H).
    for (unsigned h : {1u, 4u, 8u, 12u}) {
        const OtpAnalytics analytics(paperParams(h));
        EXPECT_NEAR(analytics.pathSuccess(),
                    std::exp(-0.1 * static_cast<double>(h)), 1e-12)
            << "H = " << h;
    }
}

TEST(OtpAnalytics, PathCountIsTwoToHMinusOne)
{
    EXPECT_DOUBLE_EQ(OtpAnalytics(paperParams(1)).pathCount(), 1.0);
    EXPECT_DOUBLE_EQ(OtpAnalytics(paperParams(4)).pathCount(), 8.0);
    EXPECT_DOUBLE_EQ(OtpAnalytics(paperParams(8)).pathCount(), 128.0);
}

TEST(OtpAnalytics, ReceiverSuccessMatchesEquationTen)
{
    const OtpAnalytics analytics(paperParams(4, 8));
    const double s = analytics.pathSuccess();
    double direct = 0.0;
    for (uint64_t i = 8; i <= 128; ++i)
        direct += std::exp(logBinomialPmf(128, i, s));
    EXPECT_NEAR(analytics.receiverSuccess(), direct, 1e-9);
}

TEST(OtpAnalytics, ReceiverNearCertainAtPaperPoint)
{
    // H=4, k=8, n=128, alpha=10: the paper's working design point lies
    // deep inside the receiver's success region (Fig 8a).
    const OtpAnalytics analytics(paperParams(4, 8));
    EXPECT_GT(analytics.receiverSuccess(), 0.9999);
}

TEST(OtpAnalytics, AdversaryBlockedByHeightEight)
{
    // Fig 8b: "When the tree height is 8 or more, the adversaries'
    // success probability reduces to zero even if the redundancy level
    // is very high."
    const OtpAnalytics analytics(paperParams(8, 8));
    EXPECT_LT(analytics.adversarySuccess(), 1e-6);
    // And the receiver still succeeds (right path known).
    EXPECT_GT(analytics.receiverSuccess(), 0.99);
}

TEST(OtpAnalytics, AdversaryWeakerThanReceiverEverywhere)
{
    for (unsigned h : {2u, 4u, 6u, 8u}) {
        for (uint64_t k : {4u, 8u, 16u, 32u}) {
            const OtpAnalytics analytics(paperParams(h, k));
            EXPECT_LE(analytics.adversarySuccess(),
                      analytics.receiverSuccess() + 1e-12)
                << "H=" << h << " k=" << k;
        }
    }
}

TEST(OtpAnalytics, HigherThresholdLowersBothSuccesses)
{
    const double recvK8 = OtpAnalytics(paperParams(4, 8)).receiverSuccess();
    const double recvK64 =
        OtpAnalytics(paperParams(4, 64)).receiverSuccess();
    EXPECT_GT(recvK8, recvK64);
    const double advK8 = OtpAnalytics(paperParams(4, 8)).adversarySuccess();
    const double advK64 =
        OtpAnalytics(paperParams(4, 64)).adversarySuccess();
    EXPECT_GT(advK8, advK64);
}

TEST(OtpAnalytics, TallerTreesBlockAdversariesFaster)
{
    double prev = 1.0;
    for (unsigned h = 1; h <= 10; ++h) {
        const double adv = OtpAnalytics(paperParams(h, 8))
                               .adversarySuccess();
        EXPECT_LE(adv, prev + 1e-12) << "H = " << h;
        prev = adv;
    }
}

TEST(OtpAnalytics, HigherAlphaHelpsBothParties)
{
    // Fig 9: looser wearout bounds (higher alpha) raise everyone's
    // success probability.
    OtpParams weak = paperParams(6, 8);
    weak.device.alpha = 5.0;
    OtpParams strong = paperParams(6, 8);
    strong.device.alpha = 50.0;
    EXPECT_LT(OtpAnalytics(weak).receiverSuccess(),
              OtpAnalytics(strong).receiverSuccess());
    EXPECT_LE(OtpAnalytics(weak).adversarySuccess(),
              OtpAnalytics(strong).adversarySuccess() + 1e-12);
}

TEST(OtpAnalytics, LogAdversaryConsistentWithLinear)
{
    const OtpAnalytics analytics(paperParams(4, 8));
    EXPECT_NEAR(std::exp(analytics.logAdversarySuccess()),
                analytics.adversarySuccess(), 1e-12);
}

TEST(DecisionTree, RejectsBadConstruction)
{
    const DeviceFactory factory({10.0, 1.0}, ProcessVariation::none());
    Rng rng(1);
    EXPECT_THROW(DecisionTree(0, {}, factory, rng), std::invalid_argument);
    EXPECT_THROW(DecisionTree(3, {{1}, {2}}, factory, rng),
                 std::invalid_argument); // needs 4 leaves
}

TEST(DecisionTree, TraverseReturnsLeafPayload)
{
    const DeviceFactory immortal({1e9, 8.0}, ProcessVariation::none());
    Rng rng(2);
    DecisionTree tree(3, {{0}, {1}, {2}, {3}}, immortal, rng);
    EXPECT_EQ(tree.leafCount(), 4u);
    for (uint64_t path = 0; path < 4; ++path) {
        const auto payload = tree.traverse(path);
        ASSERT_TRUE(payload.has_value());
        EXPECT_EQ((*payload)[0], static_cast<uint8_t>(path));
    }
}

TEST(DecisionTree, LeavesAreReadDestructive)
{
    const DeviceFactory immortal({1e9, 8.0}, ProcessVariation::none());
    Rng rng(3);
    DecisionTree tree(2, {{7}, {8}}, immortal, rng);
    EXPECT_TRUE(tree.traverse(0).has_value());
    EXPECT_FALSE(tree.traverse(0).has_value()); // consumed
    EXPECT_TRUE(tree.traverse(1).has_value());  // sibling untouched
}

TEST(DecisionTree, PathOutOfRangeRejected)
{
    const DeviceFactory immortal({1e9, 8.0}, ProcessVariation::none());
    Rng rng(4);
    DecisionTree tree(2, {{1}, {2}}, immortal, rng);
    EXPECT_THROW(tree.traverse(2), std::invalid_argument);
}

std::vector<std::vector<uint8_t>>
leafBytes(size_t count)
{
    std::vector<std::vector<uint8_t>> leaves(count);
    for (size_t i = 0; i < count; ++i)
        leaves[i] = {static_cast<uint8_t>(i)};
    return leaves;
}

TEST(DecisionTree, EntrySwitchWearBlocksAllPaths)
{
    const DeviceFactory oneShot({1.0, 100.0}, ProcessVariation::none());
    Rng rng(6);
    DecisionTree tree(3, leafBytes(4), oneShot, rng);
    // First traversal consumes the entry switch (lifetime ~1 cycle).
    (void)tree.traverse(0);
    // Every subsequent path shares the dead entry switch.
    for (uint64_t path = 0; path < 4; ++path)
        EXPECT_FALSE(tree.traverse(path).has_value());
}

TEST(DecisionTree, TraversalCountTracksAttempts)
{
    const DeviceFactory immortal({1e9, 8.0}, ProcessVariation::none());
    Rng rng(7);
    DecisionTree tree(2, leafBytes(2), immortal, rng);
    (void)tree.traverse(0);
    (void)tree.traverse(1);
    (void)tree.traverse(1);
    EXPECT_EQ(tree.traversalCount(), 3u);
}

std::vector<uint8_t>
padKey()
{
    std::vector<uint8_t> key(32);
    for (size_t i = 0; i < key.size(); ++i)
        key[i] = static_cast<uint8_t>(0x11 * (i % 15) + 1);
    return key;
}

TEST(OneTimePad, ReceiverRetrievesWithRightPath)
{
    const OtpParams params = paperParams(4, 8);
    const DeviceFactory factory({10.0, 1.0}, ProcessVariation::none());
    Rng rng(8);
    OneTimePad pad(params, padKey(), /*rightPath=*/5, factory, rng);
    const auto key = pad.retrieve(5);
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(*key, padKey());
}

TEST(OneTimePad, WrongPathYieldsNothing)
{
    const OtpParams params = paperParams(4, 8);
    const DeviceFactory factory({10.0, 1.0}, ProcessVariation::none());
    Rng rng(9);
    OneTimePad pad(params, padKey(), 5, factory, rng);
    EXPECT_FALSE(pad.retrieve(3).has_value());
}

TEST(OneTimePad, RetrievalIsOneShot)
{
    const OtpParams params = paperParams(4, 8);
    const DeviceFactory factory({10.0, 1.0}, ProcessVariation::none());
    Rng rng(10);
    OneTimePad pad(params, padKey(), 2, factory, rng);
    ASSERT_TRUE(pad.retrieve(2).has_value());
    // Leaves destroyed; a second retrieval cannot gather k shares.
    EXPECT_FALSE(pad.retrieve(2).has_value());
}

TEST(OneTimePad, RejectsBadConstruction)
{
    const DeviceFactory factory({10.0, 1.0}, ProcessVariation::none());
    Rng rng(11);
    OtpParams params = paperParams(4, 8);
    EXPECT_THROW(OneTimePad(params, {}, 0, factory, rng),
                 std::invalid_argument);
    EXPECT_THROW(OneTimePad(params, padKey(), 8, factory, rng),
                 std::invalid_argument); // only 8 paths: 0..7
    params.copies = 300;
    EXPECT_THROW(OneTimePad(params, padKey(), 0, factory, rng),
                 std::invalid_argument);
}

TEST(OneTimePad, ReceiverSuccessRateMatchesAnalytics)
{
    // MC over fabricated pads vs Eq. 10.
    const OtpParams params = paperParams(4, 8);
    const OtpAnalytics analytics(params);
    const DeviceFactory factory({10.0, 1.0}, ProcessVariation::none());
    const auto ci = engine::estimateProbability(12, 400, [&](Rng &rng) {
        OneTimePad pad(params, padKey(), 5, factory, rng);
        return pad.retrieve(5).has_value();
    });
    const double analytic = analytics.receiverSuccess();
    EXPECT_GT(analytic, ci.low - 0.02);
    EXPECT_LT(analytic, ci.high + 0.02);
}

TEST(OneTimePad, AdversarySuccessRateMatchesAnalytics)
{
    // Use a small tree (H=2 -> 2 paths) where the adversary sometimes
    // wins, and compare against Eq. 15.
    const OtpParams params = paperParams(2, 8);
    const OtpAnalytics analytics(params);
    const DeviceFactory factory({10.0, 1.0}, ProcessVariation::none());
    const auto ci = engine::estimateProbability(13, 400, [&](Rng &rng) {
        OneTimePad pad(params, padKey(), 1, factory, rng);
        Rng attacker = rng.split(999);
        return pad.randomPathAttack(attacker).has_value();
    });
    const double analytic = analytics.adversarySuccess();
    EXPECT_GT(analytic, ci.low - 0.05);
    EXPECT_LT(analytic, ci.high + 0.05);
}

TEST(OneTimePad, TallTreeDefeatsAdversaryInSimulation)
{
    const OtpParams params = paperParams(8, 8);
    const DeviceFactory factory({10.0, 1.0}, ProcessVariation::none());
    const auto ci = engine::estimateProbability(14, 100, [&](Rng &rng) {
        OneTimePad pad(params, padKey(), 77, factory, rng);
        Rng attacker = rng.split(31337);
        return pad.randomPathAttack(attacker).has_value();
    });
    EXPECT_EQ(ci.estimate, 0.0);
}

TEST(OneTimePad, AttackConsumesTheReceiverPad)
{
    // Evil-maid style: after an attack pass, the legitimate receiver
    // usually cannot retrieve anymore — availability is lost, but the
    // key was not leaked.
    const OtpParams params = paperParams(4, 96); // high threshold
    const DeviceFactory factory({10.0, 1.0}, ProcessVariation::none());
    Rng rng(15);
    OneTimePad pad(params, padKey(), 3, factory, rng);
    Rng attacker(16);
    EXPECT_FALSE(pad.randomPathAttack(attacker).has_value());
    EXPECT_FALSE(pad.retrieve(3).has_value());
}

} // namespace
} // namespace lemons::core
