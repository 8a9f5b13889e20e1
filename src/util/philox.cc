#include "util/philox.h"

#include "util/simd.h"

#if defined(__x86_64__) && !defined(LEMONS_NO_SIMD)
#define LEMONS_PHILOX_AVX2 1
#include <immintrin.h>
#endif

namespace lemons::philox {

namespace {

/** One multiply of a Philox round: 32x32 -> (hi, lo) 32-bit halves. */
inline uint32_t
mulHiLo(uint32_t a, uint32_t b, uint32_t &hi)
{
    const uint64_t product = static_cast<uint64_t>(a) * b;
    hi = static_cast<uint32_t>(product >> 32);
    return static_cast<uint32_t>(product);
}

/**
 * Domain tag ("philox4x" in ASCII) XORed into the seed before the
 * SplitMix64 key-derivation step; see deriveKey().
 */
constexpr uint64_t kKeyDomainTag = 0x7068696C6F783478ULL;

void
fillRaw64Scalar(Key key, uint64_t trial, uint64_t firstBlock, uint64_t *out,
                size_t blockCount)
{
    for (size_t i = 0; i < blockCount; ++i) {
        const Counter output = block(makeCounter(trial, firstBlock + i), key);
        const std::array<uint64_t, 2> draws = blockDraws(output);
        out[2 * i] = draws[0];
        out[2 * i + 1] = draws[1];
    }
}

/** Draw -> (0, 1] uniform, the library-wide 53-bit convention. */
inline double
toUniformOpenLow(uint64_t w)
{
    return static_cast<double>((w >> 11) + 1) * 0x1.0p-53;
}

void
fillUniformScalar(Key key, uint64_t trial, uint64_t firstBlock, double *out,
                  size_t blockCount)
{
    for (size_t i = 0; i < blockCount; ++i) {
        const std::array<uint64_t, 2> draws =
            blockDraws(block(makeCounter(trial, firstBlock + i), key));
        out[2 * i] = toUniformOpenLow(draws[0]);
        out[2 * i + 1] = toUniformOpenLow(draws[1]);
    }
}

#if defined(LEMONS_PHILOX_AVX2)

/**
 * Four Philox blocks at once: every counter/key word lives as a 32-bit
 * value in a 64-bit lane, so _mm256_mul_epu32 delivers the four
 * 32x32->64 products of one round in a single instruction. Pure
 * integer arithmetic, hence bit-identical to fillRaw64Scalar.
 */
/** Draws of four consecutive blocks, in stream order (4 per vector). */
struct DrawsX4
{
    __m256i first;  // draws 0..3 of the group
    __m256i second; // draws 4..7 of the group
};

/** One lane-parallel counter state (blocks b, b+1, b+2, b+3). */
struct StateX4
{
    __m256i c0, c1, c2, c3;
};

__attribute__((target("avx2"))) inline StateX4
philoxCountersX4Avx2(uint64_t trial, uint64_t firstBlock)
{
    const __m256i mask32 =
        _mm256_set1_epi64x(static_cast<long long>(0xFFFFFFFFULL));
    // Lane j holds block firstBlock + j. The block index spans counter
    // words 0 (low) and 1 (high).
    const __m256i blockIndex = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<long long>(firstBlock)),
        _mm256_set_epi64x(3, 2, 1, 0));
    return {_mm256_and_si256(blockIndex, mask32),
            _mm256_srli_epi64(blockIndex, 32),
            _mm256_set1_epi64x(static_cast<long long>(trial & 0xFFFFFFFFULL)),
            _mm256_set1_epi64x(static_cast<long long>(trial >> 32))};
}

__attribute__((target("avx2"))) inline StateX4
philoxRoundsX4Avx2(StateX4 s, Key key)
{
    const __m256i mult0 = _mm256_set1_epi64x(static_cast<long long>(kMult0));
    const __m256i mult1 = _mm256_set1_epi64x(static_cast<long long>(kMult1));
    // Weyl increments sit in the low dword of each lane so a plain
    // 32-bit lane add reproduces the scalar key bump's mod-2^32 wrap.
    const __m256i weyl0 = _mm256_set1_epi64x(static_cast<long long>(kWeyl0));
    const __m256i weyl1 = _mm256_set1_epi64x(static_cast<long long>(kWeyl1));
    const __m256i mask32 =
        _mm256_set1_epi64x(static_cast<long long>(0xFFFFFFFFULL));
    __m256i k0 = _mm256_set1_epi64x(static_cast<long long>(key[0]));
    __m256i k1 = _mm256_set1_epi64x(static_cast<long long>(key[1]));

    for (int round = 0; round < kRounds; ++round) {
        if (round != 0) {
            k0 = _mm256_add_epi32(k0, weyl0);
            k1 = _mm256_add_epi32(k1, weyl1);
        }
        const __m256i product0 = _mm256_mul_epu32(s.c0, mult0);
        const __m256i product1 = _mm256_mul_epu32(s.c2, mult1);
        const __m256i hi0 = _mm256_srli_epi64(product0, 32);
        const __m256i lo0 = _mm256_and_si256(product0, mask32);
        const __m256i hi1 = _mm256_srli_epi64(product1, 32);
        const __m256i lo1 = _mm256_and_si256(product1, mask32);
        s.c0 = _mm256_xor_si256(_mm256_xor_si256(hi1, s.c1), k0);
        s.c1 = lo1;
        s.c2 = _mm256_xor_si256(_mm256_xor_si256(hi0, s.c3), k1);
        s.c3 = lo0;
    }
    return s;
}

__attribute__((target("avx2"))) inline DrawsX4
philoxDrawsX4Avx2(const StateX4 &s)
{
    // Per lane: draw0 = x0 | x1 << 32, draw1 = x2 | x3 << 32, then
    // interleave lanes into block order (d0_0 d1_0 d0_1 d1_1 ...).
    const __m256i draw0 =
        _mm256_or_si256(s.c0, _mm256_slli_epi64(s.c1, 32));
    const __m256i draw1 =
        _mm256_or_si256(s.c2, _mm256_slli_epi64(s.c3, 32));
    const __m256i evenPairs = _mm256_unpacklo_epi64(draw0, draw1);
    const __m256i oddPairs = _mm256_unpackhi_epi64(draw0, draw1);
    return {_mm256_permute2x128_si256(evenPairs, oddPairs, 0x20),
            _mm256_permute2x128_si256(evenPairs, oddPairs, 0x31)};
}

__attribute__((target("avx2"))) inline DrawsX4
philoxBlocksX4Avx2(Key key, uint64_t trial, uint64_t firstBlock)
{
    return philoxDrawsX4Avx2(
        philoxRoundsX4Avx2(philoxCountersX4Avx2(trial, firstBlock), key));
}

/**
 * Two independent four-block groups with their round loops interleaved
 * in one body: the ten-round chain of one group is latency-bound (each
 * round's multiplies wait on the previous round), so pairing it with a
 * second, data-independent chain roughly doubles multiplier
 * utilization. Bit-identical to two philoxBlocksX4Avx2 calls.
 */
__attribute__((target("avx2"))) inline void
philoxBlocksX8Avx2(Key key, uint64_t trial, uint64_t firstBlock, DrawsX4 &a,
                   DrawsX4 &b)
{
    const __m256i mult0 = _mm256_set1_epi64x(static_cast<long long>(kMult0));
    const __m256i mult1 = _mm256_set1_epi64x(static_cast<long long>(kMult1));
    const __m256i weyl0 = _mm256_set1_epi64x(static_cast<long long>(kWeyl0));
    const __m256i weyl1 = _mm256_set1_epi64x(static_cast<long long>(kWeyl1));
    const __m256i mask32 =
        _mm256_set1_epi64x(static_cast<long long>(0xFFFFFFFFULL));
    StateX4 sa = philoxCountersX4Avx2(trial, firstBlock);
    StateX4 sb = philoxCountersX4Avx2(trial, firstBlock + 4);
    __m256i k0 = _mm256_set1_epi64x(static_cast<long long>(key[0]));
    __m256i k1 = _mm256_set1_epi64x(static_cast<long long>(key[1]));

    for (int round = 0; round < kRounds; ++round) {
        if (round != 0) {
            k0 = _mm256_add_epi32(k0, weyl0);
            k1 = _mm256_add_epi32(k1, weyl1);
        }
        const __m256i pa0 = _mm256_mul_epu32(sa.c0, mult0);
        const __m256i pb0 = _mm256_mul_epu32(sb.c0, mult0);
        const __m256i pa1 = _mm256_mul_epu32(sa.c2, mult1);
        const __m256i pb1 = _mm256_mul_epu32(sb.c2, mult1);
        const __m256i hia0 = _mm256_srli_epi64(pa0, 32);
        const __m256i hib0 = _mm256_srli_epi64(pb0, 32);
        const __m256i loa0 = _mm256_and_si256(pa0, mask32);
        const __m256i lob0 = _mm256_and_si256(pb0, mask32);
        const __m256i hia1 = _mm256_srli_epi64(pa1, 32);
        const __m256i hib1 = _mm256_srli_epi64(pb1, 32);
        const __m256i loa1 = _mm256_and_si256(pa1, mask32);
        const __m256i lob1 = _mm256_and_si256(pb1, mask32);
        sa.c0 = _mm256_xor_si256(_mm256_xor_si256(hia1, sa.c1), k0);
        sb.c0 = _mm256_xor_si256(_mm256_xor_si256(hib1, sb.c1), k0);
        sa.c1 = loa1;
        sb.c1 = lob1;
        sa.c2 = _mm256_xor_si256(_mm256_xor_si256(hia0, sa.c3), k1);
        sb.c2 = _mm256_xor_si256(_mm256_xor_si256(hib0, sb.c3), k1);
        sa.c3 = loa0;
        sb.c3 = lob0;
    }
    a = philoxDrawsX4Avx2(sa);
    b = philoxDrawsX4Avx2(sb);
}

/**
 * Four independent four-block groups (16 blocks) with interleaved
 * round bodies. Two chains (the X8 body) still leave the multipliers
 * idle for most of each round's latency; four chains get within ~2x of
 * multiply throughput on the 10-round chain while still (just) fitting
 * the sixteen ymm registers. Bit-identical to four X4 calls.
 */
__attribute__((target("avx2"))) inline void
philoxBlocksX16Avx2(Key key, uint64_t trial, uint64_t firstBlock,
                    DrawsX4 &a, DrawsX4 &b, DrawsX4 &c, DrawsX4 &d)
{
    const __m256i mult0 = _mm256_set1_epi64x(static_cast<long long>(kMult0));
    const __m256i mult1 = _mm256_set1_epi64x(static_cast<long long>(kMult1));
    const __m256i weyl0 = _mm256_set1_epi64x(static_cast<long long>(kWeyl0));
    const __m256i weyl1 = _mm256_set1_epi64x(static_cast<long long>(kWeyl1));
    const __m256i mask32 =
        _mm256_set1_epi64x(static_cast<long long>(0xFFFFFFFFULL));
    StateX4 sa = philoxCountersX4Avx2(trial, firstBlock);
    StateX4 sb = philoxCountersX4Avx2(trial, firstBlock + 4);
    StateX4 sc = philoxCountersX4Avx2(trial, firstBlock + 8);
    StateX4 sd = philoxCountersX4Avx2(trial, firstBlock + 12);
    __m256i k0 = _mm256_set1_epi64x(static_cast<long long>(key[0]));
    __m256i k1 = _mm256_set1_epi64x(static_cast<long long>(key[1]));

    for (int round = 0; round < kRounds; ++round) {
        if (round != 0) {
            k0 = _mm256_add_epi32(k0, weyl0);
            k1 = _mm256_add_epi32(k1, weyl1);
        }
        const __m256i pa0 = _mm256_mul_epu32(sa.c0, mult0);
        const __m256i pb0 = _mm256_mul_epu32(sb.c0, mult0);
        const __m256i pc0 = _mm256_mul_epu32(sc.c0, mult0);
        const __m256i pd0 = _mm256_mul_epu32(sd.c0, mult0);
        const __m256i pa1 = _mm256_mul_epu32(sa.c2, mult1);
        const __m256i pb1 = _mm256_mul_epu32(sb.c2, mult1);
        const __m256i pc1 = _mm256_mul_epu32(sc.c2, mult1);
        const __m256i pd1 = _mm256_mul_epu32(sd.c2, mult1);
        sa.c0 = _mm256_xor_si256(
            _mm256_xor_si256(_mm256_srli_epi64(pa1, 32), sa.c1), k0);
        sb.c0 = _mm256_xor_si256(
            _mm256_xor_si256(_mm256_srli_epi64(pb1, 32), sb.c1), k0);
        sc.c0 = _mm256_xor_si256(
            _mm256_xor_si256(_mm256_srli_epi64(pc1, 32), sc.c1), k0);
        sd.c0 = _mm256_xor_si256(
            _mm256_xor_si256(_mm256_srli_epi64(pd1, 32), sd.c1), k0);
        sa.c1 = _mm256_and_si256(pa1, mask32);
        sb.c1 = _mm256_and_si256(pb1, mask32);
        sc.c1 = _mm256_and_si256(pc1, mask32);
        sd.c1 = _mm256_and_si256(pd1, mask32);
        sa.c2 = _mm256_xor_si256(
            _mm256_xor_si256(_mm256_srli_epi64(pa0, 32), sa.c3), k1);
        sb.c2 = _mm256_xor_si256(
            _mm256_xor_si256(_mm256_srli_epi64(pb0, 32), sb.c3), k1);
        sc.c2 = _mm256_xor_si256(
            _mm256_xor_si256(_mm256_srli_epi64(pc0, 32), sc.c3), k1);
        sd.c2 = _mm256_xor_si256(
            _mm256_xor_si256(_mm256_srli_epi64(pd0, 32), sd.c3), k1);
        sa.c3 = _mm256_and_si256(pa0, mask32);
        sb.c3 = _mm256_and_si256(pb0, mask32);
        sc.c3 = _mm256_and_si256(pc0, mask32);
        sd.c3 = _mm256_and_si256(pd0, mask32);
    }
    a = philoxDrawsX4Avx2(sa);
    b = philoxDrawsX4Avx2(sb);
    c = philoxDrawsX4Avx2(sc);
    d = philoxDrawsX4Avx2(sd);
}

__attribute__((target("avx2"))) void
fillRaw64Avx2(Key key, uint64_t trial, uint64_t firstBlock, uint64_t *out,
              size_t blockCount)
{
    size_t i = 0;
    for (; i + 16 <= blockCount; i += 16) {
        DrawsX4 a, b, c, d;
        philoxBlocksX16Avx2(key, trial, firstBlock + i, a, b, c, d);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 2 * i),
                            a.first);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 2 * i + 4),
                            a.second);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 2 * i + 8),
                            b.first);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 2 * i + 12),
                            b.second);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 2 * i + 16),
                            c.first);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 2 * i + 20),
                            c.second);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 2 * i + 24),
                            d.first);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 2 * i + 28),
                            d.second);
    }
    if (i + 8 <= blockCount) {
        DrawsX4 a, b;
        philoxBlocksX8Avx2(key, trial, firstBlock + i, a, b);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 2 * i),
                            a.first);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 2 * i + 4),
                            a.second);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 2 * i + 8),
                            b.first);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 2 * i + 12),
                            b.second);
        i += 8;
    }
    if (i + 4 <= blockCount) {
        const DrawsX4 draws = philoxBlocksX4Avx2(key, trial, firstBlock + i);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 2 * i),
                            draws.first);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 2 * i + 4),
                            draws.second);
        i += 4;
    }
    if (i < blockCount)
        fillRaw64Scalar(key, trial, firstBlock + i, out + 2 * i,
                        blockCount - i);
}

/**
 * Exact uint64 -> double conversion of v = (w >> 11) + 1 <= 2^53,
 * vectorized: both 32-bit halves convert exactly via the 2^52
 * exponent-bias trick, and hi * 2^32 + lo is exact because the sum is
 * an integer <= 2^53. Bit-identical to static_cast<double>(v).
 */
__attribute__((target("avx2"))) inline __m256d
drawsToUniformAvx2(__m256i w)
{
    const __m256i mask32 =
        _mm256_set1_epi64x(static_cast<long long>(0xFFFFFFFFULL));
    const __m256i bias = _mm256_set1_epi64x(0x4330000000000000LL); // 2^52
    const __m256d biasD = _mm256_castsi256_pd(bias);
    const __m256i v =
        _mm256_add_epi64(_mm256_srli_epi64(w, 11), _mm256_set1_epi64x(1));
    const __m256i hi = _mm256_srli_epi64(v, 32);
    const __m256i lo = _mm256_and_si256(v, mask32);
    const __m256d hiD =
        _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(hi, bias)), biasD);
    const __m256d loD =
        _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(lo, bias)), biasD);
    const __m256d value =
        _mm256_add_pd(_mm256_mul_pd(hiD, _mm256_set1_pd(0x1.0p32)), loD);
    return _mm256_mul_pd(value, _mm256_set1_pd(0x1.0p-53));
}

__attribute__((target("avx2"))) void
fillUniformAvx2(Key key, uint64_t trial, uint64_t firstBlock, double *out,
                size_t blockCount)
{
    size_t i = 0;
    for (; i + 16 <= blockCount; i += 16) {
        DrawsX4 a, b, c, d;
        philoxBlocksX16Avx2(key, trial, firstBlock + i, a, b, c, d);
        _mm256_storeu_pd(out + 2 * i, drawsToUniformAvx2(a.first));
        _mm256_storeu_pd(out + 2 * i + 4, drawsToUniformAvx2(a.second));
        _mm256_storeu_pd(out + 2 * i + 8, drawsToUniformAvx2(b.first));
        _mm256_storeu_pd(out + 2 * i + 12, drawsToUniformAvx2(b.second));
        _mm256_storeu_pd(out + 2 * i + 16, drawsToUniformAvx2(c.first));
        _mm256_storeu_pd(out + 2 * i + 20, drawsToUniformAvx2(c.second));
        _mm256_storeu_pd(out + 2 * i + 24, drawsToUniformAvx2(d.first));
        _mm256_storeu_pd(out + 2 * i + 28, drawsToUniformAvx2(d.second));
    }
    if (i + 8 <= blockCount) {
        DrawsX4 a, b;
        philoxBlocksX8Avx2(key, trial, firstBlock + i, a, b);
        _mm256_storeu_pd(out + 2 * i, drawsToUniformAvx2(a.first));
        _mm256_storeu_pd(out + 2 * i + 4, drawsToUniformAvx2(a.second));
        _mm256_storeu_pd(out + 2 * i + 8, drawsToUniformAvx2(b.first));
        _mm256_storeu_pd(out + 2 * i + 12, drawsToUniformAvx2(b.second));
        i += 8;
    }
    if (i + 4 <= blockCount) {
        const DrawsX4 draws = philoxBlocksX4Avx2(key, trial, firstBlock + i);
        _mm256_storeu_pd(out + 2 * i, drawsToUniformAvx2(draws.first));
        _mm256_storeu_pd(out + 2 * i + 4, drawsToUniformAvx2(draws.second));
        i += 4;
    }
    for (; i < blockCount; ++i) {
        const std::array<uint64_t, 2> draws =
            blockDraws(block(makeCounter(trial, firstBlock + i), key));
        out[2 * i] = toUniformOpenLow(draws[0]);
        out[2 * i + 1] = toUniformOpenLow(draws[1]);
    }
}

#endif // LEMONS_PHILOX_AVX2

} // namespace

uint64_t
splitMix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
deriveKey(uint64_t seed)
{
    uint64_t x = seed ^ kKeyDomainTag;
    return splitMix64(x);
}

Key
keyWords(uint64_t key)
{
    return Key{static_cast<uint32_t>(key), static_cast<uint32_t>(key >> 32)};
}

Counter
makeCounter(uint64_t trial, uint64_t block)
{
    return Counter{static_cast<uint32_t>(block),
                   static_cast<uint32_t>(block >> 32),
                   static_cast<uint32_t>(trial),
                   static_cast<uint32_t>(trial >> 32)};
}

Counter
block(Counter counter, Key key)
{
    // Random123 reference structure: bump the key before every round
    // but the first, then apply the S-box round.
    for (int round = 0; round < kRounds; ++round) {
        if (round != 0) {
            key[0] += kWeyl0;
            key[1] += kWeyl1;
        }
        uint32_t hi0 = 0;
        uint32_t hi1 = 0;
        const uint32_t lo0 = mulHiLo(kMult0, counter[0], hi0);
        const uint32_t lo1 = mulHiLo(kMult1, counter[2], hi1);
        counter = Counter{hi1 ^ counter[1] ^ key[0], lo1,
                          hi0 ^ counter[3] ^ key[1], lo0};
    }
    return counter;
}

std::array<uint64_t, 2>
blockDraws(const Counter &output)
{
    return {static_cast<uint64_t>(output[0]) |
                (static_cast<uint64_t>(output[1]) << 32),
            static_cast<uint64_t>(output[2]) |
                (static_cast<uint64_t>(output[3]) << 32)};
}

void
fillRaw64(Key key, uint64_t trial, uint64_t firstBlock, uint64_t *out,
          size_t blockCount)
{
#if defined(LEMONS_PHILOX_AVX2)
    if (simd::activeLevel() == simd::Level::Avx2) {
        fillRaw64Avx2(key, trial, firstBlock, out, blockCount);
        return;
    }
#endif
    fillRaw64Scalar(key, trial, firstBlock, out, blockCount);
}

void
fillUniformOpenLow(Key key, uint64_t trial, uint64_t firstBlock, double *out,
                   size_t blockCount)
{
#if defined(LEMONS_PHILOX_AVX2)
    if (simd::activeLevel() == simd::Level::Avx2) {
        fillUniformAvx2(key, trial, firstBlock, out, blockCount);
        return;
    }
#endif
    fillUniformScalar(key, trial, firstBlock, out, blockCount);
}

} // namespace lemons::philox
