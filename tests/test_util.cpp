/**
 * @file
 * Unit tests for src/util: RNG determinism and distributions, bit
 * helpers, logging formatting.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "util/bitops.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace tu = triage::util;

TEST(Rng, DeterministicAcrossInstances)
{
    tu::Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiffer)
{
    tu::Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next_u32() == b.next_u32() ? 1 : 0;
    EXPECT_LT(same, 5);
}

TEST(Rng, NextBelowInRange)
{
    tu::Rng r(7);
    for (std::uint32_t bound : {1u, 2u, 3u, 10u, 1000u, 1u << 30}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.next_below(bound), bound);
    }
}

TEST(Rng, NextBelowOneAlwaysZero)
{
    tu::Rng r(9);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextRangeInclusive)
{
    tu::Rng r(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.next_range(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        saw_lo |= v == 5;
        saw_hi |= v == 8;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    tu::Rng r(13);
    for (int i = 0; i < 1000; ++i) {
        double d = r.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    tu::Rng r(15);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    tu::Rng r(17);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ZipfInRange)
{
    tu::Rng r(19);
    const tu::ZipfDist d(100, 1.0);
    for (int i = 0; i < 2000; ++i)
        EXPECT_LT(r.next_zipf(d), 100u);
}

TEST(Rng, ZipfSkewsTowardLowRanks)
{
    tu::Rng r(21);
    const tu::ZipfDist d(1000, 1.0);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 20000; ++i)
        ++counts[r.next_zipf(d)];
    // Rank 0 must dominate rank 100 by a large factor.
    EXPECT_GT(counts[0], 20 * std::max(counts[100], 1));
}

TEST(Rng, ZipfDegenerateN)
{
    tu::Rng r(23);
    const tu::ZipfDist d(1, 1.2);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(r.next_zipf(d), 0u);
}

TEST(Rng, ShuffleIsPermutation)
{
    tu::Rng r(25);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    auto sorted = v;
    r.shuffle(v);
    auto shuffled_sorted = v;
    std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
    EXPECT_EQ(shuffled_sorted, sorted);
}

TEST(Bitops, IsPow2)
{
    EXPECT_FALSE(tu::is_pow2(0));
    EXPECT_TRUE(tu::is_pow2(1));
    EXPECT_TRUE(tu::is_pow2(2));
    EXPECT_FALSE(tu::is_pow2(3));
    EXPECT_TRUE(tu::is_pow2(1ULL << 40));
    EXPECT_FALSE(tu::is_pow2((1ULL << 40) + 1));
}

TEST(Bitops, Log2Exact)
{
    EXPECT_EQ(tu::log2_exact(1), 0u);
    EXPECT_EQ(tu::log2_exact(2), 1u);
    EXPECT_EQ(tu::log2_exact(1024), 10u);
    EXPECT_EQ(tu::log2_exact(1ULL << 63), 63u);
}

TEST(Bitops, Log2Ceil)
{
    EXPECT_EQ(tu::log2_ceil(0), 0u);
    EXPECT_EQ(tu::log2_ceil(1), 0u);
    EXPECT_EQ(tu::log2_ceil(2), 1u);
    EXPECT_EQ(tu::log2_ceil(3), 2u);
    EXPECT_EQ(tu::log2_ceil(4), 2u);
    EXPECT_EQ(tu::log2_ceil(5), 3u);
}

TEST(Bitops, FloorPow2)
{
    EXPECT_EQ(tu::floor_pow2(0), 0u);
    EXPECT_EQ(tu::floor_pow2(1), 1u);
    // Powers of two map to themselves...
    EXPECT_EQ(tu::floor_pow2(2), 2u);
    EXPECT_EQ(tu::floor_pow2(4), 4u);
    EXPECT_EQ(tu::floor_pow2(1ULL << 20), 1ULL << 20);
    EXPECT_EQ(tu::floor_pow2(1ULL << 63), 1ULL << 63);
    // ...and 2^k +/- 1 straddle the boundary.
    EXPECT_EQ(tu::floor_pow2(3), 2u);
    EXPECT_EQ(tu::floor_pow2(5), 4u);
    EXPECT_EQ(tu::floor_pow2((1ULL << 20) - 1), 1ULL << 19);
    EXPECT_EQ(tu::floor_pow2((1ULL << 20) + 1), 1ULL << 20);
    EXPECT_EQ(tu::floor_pow2(~0ULL), 1ULL << 63);
}

TEST(Bitops, Bits)
{
    EXPECT_EQ(tu::bits(0xff00, 8, 8), 0xffu);
    EXPECT_EQ(tu::bits(0xdeadbeef, 0, 4), 0xfu);
    EXPECT_EQ(tu::bits(~0ULL, 0, 64), ~0ULL);
}

TEST(Bitops, Mix64Distributes)
{
    // Adjacent inputs must not collide in the low bits.
    std::vector<std::uint64_t> lows;
    for (std::uint64_t i = 0; i < 256; ++i)
        lows.push_back(tu::mix64(i) & 0xff);
    std::sort(lows.begin(), lows.end());
    auto unique_count =
        std::unique(lows.begin(), lows.end()) - lows.begin();
    EXPECT_GT(unique_count, 140); // near-uniform spread
}

TEST(Bitops, SaturatingCounters)
{
    std::uint8_t c = 6;
    c = tu::sat_inc<std::uint8_t>(c, 7);
    EXPECT_EQ(c, 7);
    c = tu::sat_inc<std::uint8_t>(c, 7);
    EXPECT_EQ(c, 7);
    c = 1;
    c = tu::sat_dec(c);
    EXPECT_EQ(c, 0);
    c = tu::sat_dec(c);
    EXPECT_EQ(c, 0);
}

TEST(Log, FormatMsgConcatenates)
{
    EXPECT_EQ(tu::format_msg("a", 1, ':', 2.5), "a1:2.5");
}

TEST(Log, ThresholdGatesLevels)
{
    const tu::LogLevel saved = tu::log_level();
    tu::set_log_level(tu::LogLevel::Warn);
    EXPECT_FALSE(tu::log_enabled(tu::LogLevel::Debug));
    EXPECT_FALSE(tu::log_enabled(tu::LogLevel::Info));
    EXPECT_TRUE(tu::log_enabled(tu::LogLevel::Warn));

    tu::set_log_level(tu::LogLevel::Debug);
    EXPECT_TRUE(tu::log_enabled(tu::LogLevel::Debug));
    EXPECT_TRUE(tu::log_enabled(tu::LogLevel::Info));

    tu::set_log_level(tu::LogLevel::Silent);
    EXPECT_FALSE(tu::log_enabled(tu::LogLevel::Warn));
    tu::set_log_level(saved);
}

// ---------------------------------------------------------------- FlatMap

#include <unordered_map>

#include "util/flat_map.hpp"

namespace {

/** Randomized op stream driving FlatMap and unordered_map in lockstep. */
void
flat_map_equivalence_run(std::uint64_t seed, std::uint32_t key_space,
                         int ops)
{
    tu::Rng rng(seed);
    tu::FlatMap<std::uint64_t, std::uint64_t> fm;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    for (int op = 0; op < ops; ++op) {
        const std::uint64_t k = rng.next_below(key_space);
        switch (rng.next_below(6)) {
        case 0:
        case 1: { // insert / overwrite
            const std::uint64_t v = rng.next_u64();
            fm.ref(k) = v;
            ref[k] = v;
            break;
        }
        case 2: { // increment-through (the reuse_counts_ pattern)
            ++fm.ref(k);
            ++ref[k];
            break;
        }
        case 3: // erase
            EXPECT_EQ(fm.erase(k), ref.erase(k) > 0);
            break;
        case 4: { // find
            const std::uint64_t* p = fm.find(k);
            auto it = ref.find(k);
            ASSERT_EQ(p != nullptr, it != ref.end());
            if (p != nullptr)
                EXPECT_EQ(*p, it->second);
            break;
        }
        default: { // bulk erase_if on a value predicate
            const std::uint64_t bit = std::uint64_t{1}
                                      << rng.next_below(8);
            fm.erase_if([&](std::uint64_t, std::uint64_t v) {
                return (v & bit) != 0;
            });
            for (auto it = ref.begin(); it != ref.end();) {
                if ((it->second & bit) != 0)
                    it = ref.erase(it);
                else
                    ++it;
            }
            break;
        }
        }
        ASSERT_EQ(fm.size(), ref.size()) << "op " << op;
    }
    // Full-content sweep both ways.
    fm.for_each([&](std::uint64_t k, std::uint64_t v) {
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end()) << k;
        EXPECT_EQ(it->second, v);
    });
    std::size_t seen = 0;
    for (auto [k, v] : fm) {
        EXPECT_EQ(ref.at(k), v);
        ++seen;
    }
    EXPECT_EQ(seen, ref.size());
}

} // namespace

TEST(FlatMap, RandomizedEquivalenceDense)
{
    // Tiny key space: constant hit/erase churn and heavy duplicates.
    flat_map_equivalence_run(0xf1a7'0001, 64, 20000);
}

TEST(FlatMap, RandomizedEquivalenceSparse)
{
    // Wide key space: mostly inserts, exercises growth and rehashing.
    flat_map_equivalence_run(0xf1a7'0002, 1u << 20, 20000);
}

TEST(FlatMap, ClearRetainsArenaCapacity)
{
    tu::FlatMap<std::uint64_t, std::uint32_t> fm;
    for (std::uint64_t k = 0; k < 1000; ++k)
        fm.ref(k) = static_cast<std::uint32_t>(k);
    const std::size_t cap = fm.capacity();
    EXPECT_GE(cap, 2000u); // load capped at 50%
    fm.clear();
    EXPECT_EQ(fm.size(), 0u);
    EXPECT_EQ(fm.capacity(), cap); // per-quantum overlay reuse
    for (std::uint64_t k = 0; k < 1000; ++k)
        EXPECT_EQ(fm.find(k), nullptr);
    fm.ref(7) = 9;
    EXPECT_EQ(fm.at(7), 9u);
    EXPECT_EQ(fm.capacity(), cap);
}

TEST(FlatMap, EraseBackwardShiftKeepsClustersReachable)
{
    // Saturate then erase every other key: backward-shift deletion
    // must leave every survivor findable (no tombstone holes).
    tu::FlatMap<std::uint64_t, std::uint64_t> fm;
    for (std::uint64_t k = 0; k < 4096; ++k)
        fm.ref(k) = k * 3;
    for (std::uint64_t k = 0; k < 4096; k += 2)
        EXPECT_TRUE(fm.erase(k));
    EXPECT_EQ(fm.size(), 2048u);
    for (std::uint64_t k = 0; k < 4096; ++k) {
        const std::uint64_t* p = fm.find(k);
        if (k % 2 == 0) {
            EXPECT_EQ(p, nullptr) << k;
        } else {
            ASSERT_NE(p, nullptr) << k;
            EXPECT_EQ(*p, k * 3);
        }
    }
}

TEST(FlatMap, CopyAndMoveSemantics)
{
    tu::FlatMap<std::uint64_t, std::uint64_t> a;
    for (std::uint64_t k = 10; k < 50; ++k)
        a.ref(k) = k + 1;
    tu::FlatMap<std::uint64_t, std::uint64_t> b(a);
    a.ref(99) = 1; // independent storage
    EXPECT_EQ(b.size(), 40u);
    EXPECT_EQ(b.find(99), nullptr);
    EXPECT_EQ(b.at(10), 11u);

    tu::FlatMap<std::uint64_t, std::uint64_t> c(std::move(b));
    EXPECT_EQ(c.size(), 40u);
    EXPECT_EQ(c.at(49), 50u);
}

TEST(FlatMap, EmptyMapQueriesAreSafe)
{
    tu::FlatMap<std::uint64_t, std::uint64_t> fm;
    EXPECT_TRUE(fm.empty());
    EXPECT_EQ(fm.find(0), nullptr);
    EXPECT_FALSE(fm.count(5));
    EXPECT_FALSE(fm.erase(5));
    fm.clear();
    std::size_t n = 0;
    fm.for_each([&](std::uint64_t, std::uint64_t) { ++n; });
    EXPECT_EQ(n, 0u);
    EXPECT_EQ(fm.begin(), fm.end());
}
