/**
 * @file
 * Unit tests for the generators: xoshiro256** stream splitting, and the
 * Philox4x32-10 counter-based trial streams (known-answer vectors from
 * the Random123 distribution, key-derivation goldens, bulk-fill and
 * fused-reduction equivalence, SIMD-vs-scalar bit-identity).
 */

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>
#include <vector>

#include "util/philox.h"
#include "util/rng.h"
#include "util/simd.h"

namespace lemons {
namespace {

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 1000; ++i)
        if (a.next() == b.next())
            ++equal;
    EXPECT_LT(equal, 2);
}

TEST(Rng, ZeroSeedStillProducesEntropy)
{
    Rng rng(0);
    std::set<uint64_t> values;
    for (int i = 0; i < 100; ++i)
        values.insert(rng.next());
    EXPECT_EQ(values.size(), 100u);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 100000; ++i) {
        const double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, NextDoubleOpenLowNeverZero)
{
    Rng rng(7);
    for (int i = 0; i < 100000; ++i) {
        const double x = rng.nextDoubleOpenLow();
        EXPECT_GT(x, 0.0);
        EXPECT_LE(x, 1.0);
    }
}

TEST(Rng, NextDoubleMeanIsHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int trials = 200000;
    for (int i = 0; i < trials; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / trials, 0.5, 0.005);
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(13);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextBelowOneAlwaysZero)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextBelow(1), 0u);
}

TEST(Rng, NextBelowRejectsZeroBound)
{
    Rng rng(13);
    EXPECT_THROW(rng.nextBelow(0), std::invalid_argument);
}

TEST(Rng, NextBelowIsRoughlyUniform)
{
    Rng rng(17);
    const uint64_t buckets = 8;
    std::vector<int> counts(buckets, 0);
    const int trials = 80000;
    for (int i = 0; i < trials; ++i)
        ++counts[rng.nextBelow(buckets)];
    for (uint64_t b = 0; b < buckets; ++b)
        EXPECT_NEAR(counts[b], trials / 8, trials / 80)
            << "bucket " << b;
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBernoulli(0.0));
        EXPECT_TRUE(rng.nextBernoulli(1.0));
        EXPECT_FALSE(rng.nextBernoulli(-0.5));
        EXPECT_TRUE(rng.nextBernoulli(1.5));
    }
}

TEST(Rng, BernoulliFrequencyMatchesP)
{
    Rng rng(23);
    const int trials = 100000;
    int hits = 0;
    for (int i = 0; i < trials; ++i)
        if (rng.nextBernoulli(0.3))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(29);
    const int trials = 200000;
    double sum = 0.0, sumSq = 0.0;
    for (int i = 0; i < trials; ++i) {
        const double x = rng.nextGaussian();
        sum += x;
        sumSq += x * x;
    }
    const double mean = sum / trials;
    const double var = sumSq / trials - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.01);
    EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(Rng, SplitIsDeterministic)
{
    const Rng parent(31);
    Rng a = parent.split(5);
    Rng b = parent.split(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitChildrenAreIndependentStreams)
{
    const Rng parent(37);
    Rng a = parent.split(0);
    Rng b = parent.split(1);
    int equal = 0;
    for (int i = 0; i < 1000; ++i)
        if (a.next() == b.next())
            ++equal;
    EXPECT_LT(equal, 2);
}

TEST(Rng, SplitIsOrderIndependent)
{
    const Rng parent(41);
    // Derive child 3 before and after deriving other children; the
    // stream must be identical either way.
    Rng early = parent.split(3);
    (void)parent.split(0);
    (void)parent.split(1);
    Rng late = parent.split(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(early.next(), late.next());
}

TEST(Rng, ManySplitSeedsDistinct)
{
    const Rng parent(43);
    std::set<uint64_t> firsts;
    for (uint64_t i = 0; i < 4096; ++i)
        firsts.insert(parent.split(i).next());
    EXPECT_EQ(firsts.size(), 4096u);
}

// ---------------------------------------------------------------------
// Philox4x32-10 counter mode
// ---------------------------------------------------------------------

TEST(Philox, KnownAnswerZeroInput)
{
    // Random123 kat_vectors: philox4x32-10 of the all-zero counter and
    // key. Pins the round function, multipliers and Weyl constants.
    const philox::Counter out =
        philox::block({0u, 0u, 0u, 0u}, {0u, 0u});
    EXPECT_EQ(out[0], 0x6627e8d5u);
    EXPECT_EQ(out[1], 0xe169c58du);
    EXPECT_EQ(out[2], 0xbc57ac4cu);
    EXPECT_EQ(out[3], 0x9b00dbd8u);
}

TEST(Philox, KnownAnswerAllOnesInput)
{
    const philox::Counter out = philox::block(
        {0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu},
        {0xffffffffu, 0xffffffffu});
    EXPECT_EQ(out[0], 0x408f276du);
    EXPECT_EQ(out[1], 0x41c83b0eu);
    EXPECT_EQ(out[2], 0xa20bc7c6u);
    EXPECT_EQ(out[3], 0x6d5451fdu);
}

TEST(Philox, KnownAnswerPiDigits)
{
    // Random123's "pi digits" vector: counter/key words drawn from the
    // hexadecimal expansion of pi.
    const philox::Counter out = philox::block(
        {0x243f6a88u, 0x85a308d3u, 0x13198a2eu, 0x03707344u},
        {0xa4093822u, 0x299f31d0u});
    EXPECT_EQ(out[0], 0xd16cfe09u);
    EXPECT_EQ(out[1], 0x94fdccebu);
    EXPECT_EQ(out[2], 0x5001e420u);
    EXPECT_EQ(out[3], 0x24126ea1u);
}

TEST(Philox, DeriveKeyGoldens)
{
    // Pin the SplitMix64 key derivation so a silent change to the
    // domain tag or the mixer re-keys every golden in the repo loudly
    // here, not quietly everywhere else.
    EXPECT_EQ(philox::deriveKey(0), 0xbb5d7b1f2ad3793eULL);
    EXPECT_EQ(philox::deriveKey(1), 0x1b3784e8f8ab5602ULL);
    EXPECT_EQ(philox::deriveKey(0x853c49e6748fea9bULL),
              0xf5080dccafd4dadaULL);
    EXPECT_EQ(philox::deriveKey(20170624), 0x17f4ee122d6ee341ULL);
}

TEST(Philox, CounterAndKeyWordLayout)
{
    const philox::Counter c =
        philox::makeCounter(0x1122334455667788ULL, 0xaabbccddeeff0011ULL);
    EXPECT_EQ(c[0], 0xeeff0011u); // block low
    EXPECT_EQ(c[1], 0xaabbccddu); // block high
    EXPECT_EQ(c[2], 0x55667788u); // trial low
    EXPECT_EQ(c[3], 0x11223344u); // trial high

    const philox::Key k = philox::keyWords(0x0123456789abcdefULL);
    EXPECT_EQ(k[0], 0x89abcdefu);
    EXPECT_EQ(k[1], 0x01234567u);
}

TEST(Philox, BlockDrawsPairWordsLowFirst)
{
    const philox::Counter out = {0x00000001u, 0x00000002u, 0x00000003u,
                                 0x00000004u};
    const std::array<uint64_t, 2> draws = philox::blockDraws(out);
    EXPECT_EQ(draws[0], 0x0000000200000001ULL);
    EXPECT_EQ(draws[1], 0x0000000400000003ULL);
}

TEST(Philox, TrialStreamMatchesRawBlocks)
{
    // The Rng facade must be a pure view over the raw Philox layout:
    // draw i of trial t is blockDraws(block(counter(t, i/2), key))[i%2].
    const uint64_t seed = 20170624;
    const philox::Key key = philox::keyWords(philox::deriveKey(seed));
    for (uint64_t trial : {uint64_t{0}, uint64_t{3}, uint64_t{1} << 40}) {
        Rng rng = Rng::trialStream(seed, trial);
        ASSERT_TRUE(rng.isCounterBased());
        for (uint64_t b = 0; b < 8; ++b) {
            const std::array<uint64_t, 2> draws = philox::blockDraws(
                philox::block(philox::makeCounter(trial, b), key));
            EXPECT_EQ(rng.next(), draws[0]);
            EXPECT_EQ(rng.next(), draws[1]);
        }
    }
}

TEST(Philox, FillRaw64MatchesPerBlockCalls)
{
    const philox::Key key = philox::keyWords(philox::deriveKey(7));
    constexpr size_t kBlocks = 37; // exercises X8, X4 and scalar tails
    uint64_t bulk[2 * kBlocks];
    philox::fillRaw64(key, 5, 11, bulk, kBlocks);
    for (size_t b = 0; b < kBlocks; ++b) {
        const std::array<uint64_t, 2> draws = philox::blockDraws(
            philox::block(philox::makeCounter(5, 11 + b), key));
        EXPECT_EQ(bulk[2 * b], draws[0]) << "block " << b;
        EXPECT_EQ(bulk[2 * b + 1], draws[1]) << "block " << b;
    }
}

TEST(Philox, FillUniformMatchesSequentialDraws)
{
    // The bulk uniform fill must equal sequential nextDoubleOpenLow()
    // on the same trial stream, from any first block and for block
    // counts that exercise the X16, X8, X4 and scalar tails.
    const uint64_t seed = 99;
    const philox::Key key = philox::keyWords(philox::deriveKey(seed));
    for (const uint64_t first : {uint64_t{0}, uint64_t{1}, uint64_t{5}}) {
        for (const size_t blocks : {size_t{1}, size_t{2}, size_t{4},
                                    size_t{9}, size_t{20}, size_t{35},
                                    size_t{70}}) {
            std::vector<double> filled(2 * blocks);
            philox::fillUniformOpenLow(key, 4, first, filled.data(), blocks);
            Rng seq = Rng::trialStream(seed, 4);
            for (uint64_t i = 0; i < 2 * first; ++i)
                static_cast<void>(seq.next());
            for (size_t i = 0; i < filled.size(); ++i)
                ASSERT_EQ(filled[i], seq.nextDoubleOpenLow())
                    << "first=" << first << " blocks=" << blocks
                    << " i=" << i;
        }
    }
}

TEST(Philox, FillRawMatchesSequentialDraws)
{
    // Rng::fillRaw must be bit-identical to sequential next() calls and
    // leave the generator in the identical state, for every count and
    // buffered-draw phase (an odd number of prior draws leaves the
    // second draw of a block pending).
    for (int pre = 0; pre < 3; ++pre) {
        for (size_t count : {size_t{1}, size_t{2}, size_t{3}, size_t{8},
                             size_t{17}, size_t{40}, size_t{70}}) {
            Rng bulk = Rng::trialStream(99, 4);
            Rng seq = Rng::trialStream(99, 4);
            for (int i = 0; i < pre; ++i)
                ASSERT_EQ(bulk.next(), seq.next());
            std::vector<uint64_t> filled(count);
            bulk.fillRaw(filled.data(), count);
            for (size_t i = 0; i < count; ++i)
                ASSERT_EQ(filled[i], seq.next())
                    << "pre=" << pre << " count=" << count << " i=" << i;
            // Identical post-state: the next raw draws agree.
            for (int i = 0; i < 4; ++i)
                ASSERT_EQ(bulk.next(), seq.next());
        }
    }
}

TEST(Philox, AdjacentTrialStreamsAreDistinct)
{
    // 64 adjacent trials x 4096 draws: every 64-bit output distinct.
    // A counter-layout bug (e.g. trial bits colliding with block bits)
    // would repeat blocks across streams and fail immediately.
    std::unordered_set<uint64_t> seen;
    seen.reserve(64 * 4096);
    for (uint64_t trial = 0; trial < 64; ++trial) {
        Rng rng = Rng::trialStream(42, trial);
        for (int i = 0; i < 4096; ++i)
            seen.insert(rng.next());
    }
    EXPECT_EQ(seen.size(), 64u * 4096u);
}

TEST(Philox, TrialStreamsIgnoreDrawOrderAcrossSeeds)
{
    // Different master seeds produce unrelated streams for the same
    // trial index.
    Rng a = Rng::trialStream(1, 17);
    Rng b = Rng::trialStream(2, 17);
    int equal = 0;
    for (int i = 0; i < 1000; ++i)
        if (a.next() == b.next())
            ++equal;
    EXPECT_LT(equal, 2);
}

TEST(Philox, SplitDerivesCounterModeChildren)
{
    const Rng parent = Rng::trialStream(55, 7);
    Rng a = parent.split(0);
    Rng b = parent.split(1);
    EXPECT_TRUE(a.isCounterBased());
    EXPECT_TRUE(b.isCounterBased());
    int equal = 0;
    for (int i = 0; i < 1000; ++i)
        if (a.next() == b.next())
            ++equal;
    EXPECT_LT(equal, 2);
    // Deterministic: re-deriving gives the identical stream.
    Rng a2 = parent.split(0);
    Rng a3 = parent.split(0);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a2.next(), a3.next());
}

TEST(Philox, SimdAndScalarPathsBitIdentical)
{
    if (simd::detectedLevel() == simd::Level::Scalar)
        GTEST_SKIP() << "no SIMD tier available on this build/machine";

    constexpr size_t kBlocks = 125; // X16 groups + X8 + X4 + scalar tail
    constexpr size_t kCount = 2 * kBlocks;
    std::vector<double> vec(kCount), sca(kCount);
    uint64_t vecRaw[64], scaRaw[64];
    const philox::Key key = philox::keyWords(philox::deriveKey(3));

    simd::setLevelForTesting(simd::Level::Avx2);
    philox::fillUniformOpenLow(key, 12, 0, vec.data(), kBlocks);
    philox::fillRaw64(key, 12, 0, vecRaw, 32);

    simd::setLevelForTesting(simd::Level::Scalar);
    philox::fillUniformOpenLow(key, 12, 0, sca.data(), kBlocks);
    philox::fillRaw64(key, 12, 0, scaRaw, 32);
    simd::clearLevelForTesting();

    for (size_t i = 0; i < kCount; ++i)
        ASSERT_EQ(vec[i], sca[i]) << "uniform " << i;
    for (size_t i = 0; i < 64; ++i)
        ASSERT_EQ(vecRaw[i], scaRaw[i]) << "raw draw " << i;
}

} // namespace
} // namespace lemons
