/**
 * @file
 * End-to-end integration tests across modules: the full smartphone
 * scenario (design -> fabricate -> unlock -> attack), the targeting
 * mission, and one-time-pad messaging with an evil-maid adversary.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/connection.h"
#include "core/decision_tree.h"
#include "core/design_solver.h"
#include "core/targeting.h"
#include "crypto/otp.h"
#include "crypto/password_model.h"
#include "engine/engine.h"

namespace lemons::core {
namespace {

using wearout::DeviceFactory;
using wearout::ProcessVariation;

TEST(Integration, SmartphoneLifecycle)
{
    // Design a scaled-down connection (LAB 200 for test speed),
    // provision it, live a full legitimate life, then confirm the
    // brute-force bound.
    DesignRequest request;
    request.device = {10.0, 12.0};
    request.legitimateAccessBound = 200;
    request.kFraction = 0.1;
    const Design design = DesignSolver(request).solve();
    ASSERT_TRUE(design.feasible);
    ASSERT_LE(design.width, 255u);

    const DeviceFactory factory(request.device, ProcessVariation::none());
    std::vector<uint8_t> storageKey(32, 0xc3);
    Rng rng(2024);
    LimitedUseConnection phone(design, factory, "correct-horse",
                               storageKey, rng);

    // Five years of daily unlocks (scaled down).
    for (int day = 0; day < 200; ++day) {
        const auto key = phone.unlock("correct-horse");
        ASSERT_TRUE(key.has_value()) << "day " << day;
        ASSERT_EQ(*key, storageKey);
    }

    // A thief with unlimited time: the hardware dies long before the
    // password model gives them a realistic chance.
    const crypto::PasswordModel passwords;
    uint64_t thiefAttempts = 0;
    while (!phone.bricked()) {
        (void)phone.unlock("thief-guess-" + std::to_string(thiefAttempts));
        ++thiefAttempts;
    }
    const double crackChance =
        passwords.attackSuccessProbability(200 + thiefAttempts);
    EXPECT_LT(crackChance, 0.001); // scaled-down bound: tiny head start
    EXPECT_FALSE(phone.unlock("correct-horse").has_value());
}

TEST(Integration, AttackerSuccessProbabilityAtFullScale)
{
    // At the paper's real scale: the hardware bound (~91,250 + small
    // overshoot) admits at most ~1 % cracking probability, versus
    // near-certainty for an unbounded attacker.
    const crypto::PasswordModel passwords;
    DesignRequest request;
    request.device = {14.0, 8.0};
    request.kFraction = 0.1;
    const Design design = DesignSolver(request).solve();
    ASSERT_TRUE(design.feasible);
    const double bounded = passwords.attackSuccessProbability(
        static_cast<uint64_t>(design.expectedSystemTotal));
    EXPECT_LT(bounded, 0.01);
    const double unbounded =
        passwords.attackSuccessProbability(uint64_t{10'000'000'000});
    EXPECT_EQ(unbounded, 1.0);
}

TEST(Integration, TargetingMissionEndToEnd)
{
    DesignRequest request;
    request.device = {10.0, 12.0};
    request.legitimateAccessBound = 100;
    request.kFraction = 0.1;
    const Design design = DesignSolver(request).solve();
    ASSERT_TRUE(design.feasible);

    const DeviceFactory factory(request.device, ProcessVariation::none());
    std::vector<uint8_t> missionKey(32, 0x7e);
    Rng rng(5150);
    CommandAuthority authority(missionKey);
    LaunchStation station(design, factory, missionKey, rng);

    // The mission: 100 commands, all executed.
    for (int i = 0; i < 100; ++i) {
        const auto cmd = authority.issueCommand(
            "engage target " + std::to_string(i));
        const auto result = station.executeCommand(cmd);
        ASSERT_TRUE(result.has_value()) << "command " << i;
    }

    // Beyond the mission the station rapidly retires, bounding any
    // post-mission abuse.
    uint64_t extra = 0;
    while (!station.decommissioned() && extra < 1000) {
        (void)station.executeCommand(
            authority.issueCommand("overreach " + std::to_string(extra)));
        ++extra;
    }
    EXPECT_TRUE(station.decommissioned());
    EXPECT_LE(100 + extra, design.copies * (design.perCopyBound + 2));
}

TEST(Integration, OneTimePadMessaging)
{
    // Sender and receiver share a chip of pads and a path string; a
    // message is encrypted with a pad key, the receiver pulls the key
    // through the decision trees exactly once and decrypts.
    OtpParams params;
    params.height = 4;
    params.copies = 128;
    params.threshold = 8;
    params.device = {10.0, 1.0};

    const DeviceFactory factory(params.device, ProcessVariation::none());
    Rng rng(77);

    const std::vector<uint8_t> padKey = crypto::generatePad(rng, 64);
    const uint64_t path = 6; // the shared short string "110"
    OneTimePad receiverPad(params, padKey, path, factory, rng);

    const std::string message = "MEET AT DAWN. BURN AFTER READING.";
    const std::vector<uint8_t> plaintext(message.begin(), message.end());
    const auto ciphertext = crypto::otpApply(plaintext, padKey);

    const auto retrieved = receiverPad.retrieve(path);
    ASSERT_TRUE(retrieved.has_value());
    const auto decrypted = crypto::otpApply(ciphertext, *retrieved);
    EXPECT_EQ(std::string(decrypted.begin(), decrypted.end()), message);

    // Rule of one-time pads: the key is gone now.
    EXPECT_FALSE(receiverPad.retrieve(path).has_value());
}

TEST(Integration, EvilMaidCannotCloneThePad)
{
    // The evil maid intercepts the chip before the receiver uses it,
    // runs a random-path cloning attack, and puts it back. The paper's
    // design goal: she almost never obtains the key, and the tampering
    // is likely to destroy the pad (detectable by the receiver), never
    // to silently leak it.
    OtpParams params;
    params.height = 8; // the paper's "H >= 8 blocks adversaries"
    params.copies = 128;
    params.threshold = 8;
    params.device = {10.0, 1.0};
    const DeviceFactory factory(params.device, ProcessVariation::none());

    const auto ci = engine::estimateProbability(31337, 50, [&](Rng &rng) {
        std::vector<uint8_t> padKey = crypto::generatePad(rng, 32);
        OneTimePad pad(params, padKey, 100, factory, rng);
        Rng maid = rng.split(666);
        return pad.randomPathAttack(maid).has_value();
    });
    EXPECT_EQ(ci.estimate, 0.0);
}

TEST(Integration, SolverDesignsSurviveHardwareSimulation)
{
    // Close the loop: a solved design, when actually fabricated and
    // exercised, must deliver its promised minimum usage in (almost)
    // every trial.
    DesignRequest request;
    request.device = {12.0, 10.0};
    request.legitimateAccessBound = 150;
    request.kFraction = 0.2;
    const Design design = DesignSolver(request).solve();
    ASSERT_TRUE(design.feasible);
    ASSERT_LE(design.width, 255u);

    const DeviceFactory factory(request.device, ProcessVariation::none());
    const auto ci = engine::estimateProbability(99, 60, [&](Rng &rng) {
        LimitedUseGate gate(design, factory,
                            std::vector<uint8_t>(16, 0xab), rng);
        for (uint64_t i = 0; i < request.legitimateAccessBound; ++i) {
            if (!gate.access().has_value())
                return false;
        }
        return true;
    });
    EXPECT_GT(ci.estimate, 0.9);
}

} // namespace
} // namespace lemons::core
