/**
 * @file
 * Unit + property tests for replacement policies: LRU, SRRIP, Random,
 * OPTgen vs a brute-force Belady oracle, and Hawkeye behaviour.
 */
#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hpp"
#include "replacement/belady.hpp"
#include "replacement/hawkeye.hpp"
#include "replacement/lru.hpp"
#include "replacement/optgen.hpp"
#include "replacement/random_repl.hpp"
#include "replacement/srrip.hpp"
#include "util/rng.hpp"

using namespace triage;

TEST(Belady, PerfectOnSmallExample)
{
    // Classic: with capacity 2 the sequence a b c a b has OPT hits a,b.
    std::vector<std::uint64_t> seq{1, 2, 3, 1, 2};
    EXPECT_EQ(replacement::belady_hits(seq, 2), 2u);
}

TEST(Belady, AllHitsWhenFits)
{
    std::vector<std::uint64_t> seq;
    for (int rep = 0; rep < 3; ++rep)
        for (std::uint64_t k = 0; k < 4; ++k)
            seq.push_back(k);
    // 4 distinct keys, capacity 4: only 4 compulsory misses.
    EXPECT_EQ(replacement::belady_hits(seq, 4), seq.size() - 4);
}

TEST(OptGen, MatchesBeladyOnRandomTraces)
{
    // Property: with a window longer than the trace, OPTgen's hit count
    // equals Belady's exactly.
    util::Rng rng(1234);
    for (int trial = 0; trial < 20; ++trial) {
        std::uint32_t capacity = 2 + rng.next_below(8);
        std::uint32_t keys = 2 + rng.next_below(30);
        std::vector<std::uint64_t> seq;
        for (int i = 0; i < 400; ++i)
            seq.push_back(rng.next_below(keys));

        replacement::OptGen og(capacity, /*history_factor=*/1000);
        std::uint64_t og_hits = 0;
        for (auto k : seq)
            og_hits += og.access(k) ? 1 : 0;
        EXPECT_EQ(og_hits, replacement::belady_hits(seq, capacity))
            << "capacity=" << capacity << " keys=" << keys;
    }
}

TEST(OptGen, MatchesBeladyOnCyclicPattern)
{
    // Sequence 0..k-1 repeated, k > capacity: LRU gets zero hits, but
    // OPT keeps a stable subset resident. OPTgen must agree with the
    // brute-force oracle exactly.
    replacement::OptGen og(4, 100);
    std::vector<std::uint64_t> seq;
    std::uint64_t hits = 0;
    for (int rep = 0; rep < 50; ++rep) {
        for (std::uint64_t k = 0; k < 8; ++k) {
            seq.push_back(k);
            hits += og.access(k) ? 1 : 0;
        }
    }
    EXPECT_EQ(hits, replacement::belady_hits(seq, 4));
    EXPECT_GT(hits, 100u); // far better than LRU's zero
}

TEST(OptGen, ClearResets)
{
    replacement::OptGen og(2, 8);
    og.access(1);
    og.access(1);
    EXPECT_GT(og.hits(), 0u);
    og.clear();
    EXPECT_EQ(og.hits(), 0u);
    EXPECT_EQ(og.accesses(), 0u);
}

TEST(OptGen, CountersClearKeepsHistory)
{
    replacement::OptGen og(2, 8);
    og.access(1);
    og.clear_counters();
    EXPECT_EQ(og.accesses(), 0u);
    // History preserved: immediate re-access of key 1 is an OPT hit.
    EXPECT_TRUE(og.access(1));
}

TEST(HawkeyePredictor, TrainsAndSaturates)
{
    replacement::HawkeyePredictor p(256);
    sim::Pc pc = 0xabcd;
    for (int i = 0; i < 10; ++i)
        p.train_positive(pc);
    EXPECT_TRUE(p.predict(pc));
    EXPECT_EQ(p.counter(pc), 7);
    for (int i = 0; i < 10; ++i)
        p.train_negative(pc);
    EXPECT_FALSE(p.predict(pc));
    EXPECT_EQ(p.counter(pc), 0);
}

namespace {

/** Thrash a cache with policy P using a cyclic set-overflowing trace. */
template <typename MakePolicy>
std::uint64_t
cyclic_hits(MakePolicy make, std::uint32_t passes)
{
    cache::CacheGeometry geom{"t", 64 * 64 * 4, 4}; // 64 sets x 4 ways
    cache::SetAssocCache c(geom, make(64, 4));
    std::uint64_t hits = 0;
    // 8 blocks mapping to the same set; 4 ways: LRU thrashes.
    for (std::uint32_t p = 0; p < passes; ++p) {
        for (std::uint64_t i = 0; i < 8; ++i) {
            sim::Addr block = i * 64; // all set 0
            sim::Pc pc = 0x100 + i * 4;
            if (c.access(block, pc, p * 100 + i, false).hit)
                ++hits;
            else
                c.insert(block, pc, 0, false, false);
        }
    }
    return hits;
}

} // namespace

TEST(Hawkeye, BeatsLruOnThrashingPattern)
{
    auto lru_hits = cyclic_hits(
        [](std::uint32_t sets, std::uint32_t assoc) {
            return std::make_unique<replacement::Lru>(sets, assoc);
        },
        300);
    auto hawkeye_hits = cyclic_hits(
        [](std::uint32_t sets, std::uint32_t assoc) {
            return std::make_unique<replacement::Hawkeye>(sets, assoc);
        },
        300);
    EXPECT_EQ(lru_hits, 0u);
    EXPECT_GT(hawkeye_hits, 300u); // keeps a stable subset resident
}

TEST(Srrip, EvictsNonReusedLines)
{
    cache::CacheGeometry geom{"t", 16 * 64 * 4, 4};
    cache::SetAssocCache c(geom,
                           std::make_unique<replacement::Srrip>(16, 4));
    // One hot block re-referenced between bursts of cold blocks.
    std::uint64_t hot_hits = 0;
    for (int i = 0; i < 100; ++i) {
        if (c.access(0, 1, i, false).hit)
            ++hot_hits;
        else
            c.insert(0, 1, 0, false, false);
        sim::Addr cold = (1 + i) * 16; // same set, never reused
        c.access(cold, 2, i, false);
        c.insert(cold, 2, 0, false, false);
    }
    EXPECT_GT(hot_hits, 90u);
}

TEST(RandomRepl, VictimAlwaysInPartition)
{
    replacement::RandomRepl r(99);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.victim(0, 2, 6);
        EXPECT_GE(v, 2u);
        EXPECT_LT(v, 6u);
    }
}

TEST(Lru, VictimRespectsPartitionBounds)
{
    replacement::Lru lru(4, 8);
    lru.on_insert({0, 0, 1, 0, false});
    lru.on_insert({0, 5, 2, 0, false});
    auto v = lru.victim(0, 4, 8);
    EXPECT_GE(v, 4u);
    EXPECT_LT(v, 8u);
}
