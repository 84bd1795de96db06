/**
 * @file
 * Unit tests for the set-associative cache and the memory hierarchy.
 */
#include <gtest/gtest.h>

#include <random>

#include "cache/cache.hpp"
#include "cache/hierarchy.hpp"
#include "replacement/lru.hpp"
#include "sim/config.hpp"

using namespace triage;

namespace {

cache::SetAssocCache
make_cache(std::uint64_t size, std::uint32_t assoc)
{
    std::uint32_t sets =
        static_cast<std::uint32_t>(size / (sim::BLOCK_SIZE * assoc));
    return cache::SetAssocCache(
        {"test", size, assoc},
        std::make_unique<replacement::Lru>(sets, assoc));
}

} // namespace

TEST(Cache, MissThenHit)
{
    auto c = make_cache(4096, 4);
    EXPECT_FALSE(c.access(1, 100, 0, false).hit);
    c.insert(1, 100, 0, false, false);
    EXPECT_TRUE(c.access(1, 100, 10, false).hit);
    EXPECT_EQ(c.stats().demand_hits, 1u);
    EXPECT_EQ(c.stats().demand_misses, 1u);
}

TEST(Cache, LruEvictsOldest)
{
    auto c = make_cache(4096, 4); // 16 sets
    // Fill one set (blocks that map to set 0: multiples of 16).
    for (sim::Addr b = 0; b < 5 * 16; b += 16)
        c.insert(b, 1, 0, false, false);
    // Set has 4 ways; inserting 5 blocks evicted block 0.
    EXPECT_FALSE(c.access(0, 1, 0, false).hit);
    EXPECT_TRUE(c.access(16, 1, 0, false).hit);
    EXPECT_TRUE(c.access(64, 1, 0, false).hit);
}

TEST(Cache, WriteMakesDirtyAndEvictionReportsIt)
{
    auto c = make_cache(4096, 2); // 32 sets
    c.insert(0, 1, 0, false, false);
    c.access(0, 1, 0, true); // write
    c.insert(32, 1, 0, false, false);
    auto ev = c.insert(64, 1, 0, false, false); // evicts LRU (block 0)
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.block, 0u);
    EXPECT_TRUE(ev.dirty);
}

TEST(Cache, PrefetchBitConsumedOnFirstDemandTouch)
{
    auto c = make_cache(4096, 4);
    c.insert(7, 1, 0, false, true);
    auto r1 = c.access(7, 1, 0, false);
    EXPECT_TRUE(r1.hit);
    EXPECT_TRUE(r1.first_prefetch_use);
    auto r2 = c.access(7, 1, 0, false);
    EXPECT_TRUE(r2.hit);
    EXPECT_FALSE(r2.first_prefetch_use);
    EXPECT_EQ(c.stats().prefetch_hits, 1u);
}

TEST(Cache, LatePrefetchDetected)
{
    auto c = make_cache(4096, 4);
    c.insert(9, 1, /*ready_time=*/500, false, true);
    auto r = c.access(9, 1, /*now=*/100, false);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.late_prefetch);
    EXPECT_EQ(c.stats().late_prefetch_hits, 1u);
}

TEST(Cache, PrefetchProbeKeepsPrefetchBit)
{
    auto c = make_cache(4096, 4);
    c.insert(7, 1, 0, false, true);
    auto probe = c.access(7, 1, 0, false, /*is_prefetch_probe=*/true);
    EXPECT_TRUE(probe.hit);
    EXPECT_EQ(c.stats().pf_probe_hits, 1u);
    auto demand = c.access(7, 1, 0, false);
    EXPECT_TRUE(demand.first_prefetch_use);
}

TEST(Cache, InvalidateRemovesLine)
{
    auto c = make_cache(4096, 4);
    c.insert(3, 1, 0, false, false);
    EXPECT_TRUE(c.invalidate(3));
    EXPECT_FALSE(c.invalidate(3));
    EXPECT_FALSE(c.access(3, 1, 0, false).hit);
}

TEST(Cache, WayPartitionShrinkInvalidatesAndCountsDirty)
{
    auto c = make_cache(4096, 4); // 16 sets x 4 ways
    // Fill everything, make some lines dirty.
    for (sim::Addr b = 0; b < 64; ++b)
        c.insert(b, 1, 0, (b % 2) == 0, false);
    EXPECT_EQ(c.valid_lines(), 64u);
    std::uint64_t flushed = 0;
    c.set_data_ways(2, &flushed);
    EXPECT_EQ(c.data_ways(), 2u);
    EXPECT_EQ(c.valid_lines(), 32u);
    EXPECT_GT(flushed, 0u);
    // New insertions only use the first 2 ways.
    for (sim::Addr b = 100; b < 164; ++b)
        c.insert(b, 1, 0, false, false);
    EXPECT_LE(c.valid_lines(), 32u);
}

TEST(Cache, WayPartitionGrowRestoresCapacity)
{
    auto c = make_cache(4096, 4);
    c.set_data_ways(2);
    for (sim::Addr b = 0; b < 64; ++b)
        c.insert(b, 1, 0, false, false);
    c.set_data_ways(4);
    for (sim::Addr b = 0; b < 64; ++b)
        c.insert(b, 1, 0, false, false);
    EXPECT_EQ(c.valid_lines(), 64u);
}

TEST(Cache, WayPartitionShrinkReportsExactDirtyCount)
{
    auto c = make_cache(4096, 4); // 16 sets x 4 ways
    // Fill all 64 lines; blocks land way 0..3 in fill order within a
    // set, so ways 2 and 3 of set s hold blocks 32+s and 48+s.
    for (sim::Addr b = 0; b < 64; ++b)
        c.insert(b, 1, 0, b >= 32, false); // ways 2-3 dirty everywhere
    std::uint64_t flushed = ~0ull;
    c.set_data_ways(2, &flushed);
    EXPECT_EQ(flushed, 32u); // exactly the 32 dirty lines in ways 2-3
    EXPECT_EQ(c.valid_lines(), 32u);
    // Growing back reports zero flushes.
    c.set_data_ways(4, &flushed);
    EXPECT_EQ(flushed, 0u);
}

TEST(Cache, WayPartitionShrinkInvalidatesReplacementState)
{
    auto c = make_cache(4096, 4);
    for (sim::Addr b = 0; b < 64; ++b)
        c.insert(b, 1, 0, false, false);
    c.set_data_ways(2);
    c.set_data_ways(4);
    // The reclaimed ways were invalidated (tags and LRU stamps): new
    // fills must reuse them instead of evicting the surviving lines.
    const std::uint64_t evictions_before = c.stats().evictions;
    for (sim::Addr b = 100; b < 132; ++b)
        c.insert(b, 1, 0, false, false);
    EXPECT_EQ(c.stats().evictions, evictions_before);
    EXPECT_EQ(c.valid_lines(), 64u);
    // The survivors from before the repartition are still resident.
    for (sim::Addr b = 0; b < 32; ++b)
        EXPECT_TRUE(c.contains(b)) << "block " << b;
}

TEST(Cache, LiveLineCounterMatchesScanUnderRandomizedOps)
{
    auto c = make_cache(4096, 4); // 16 sets x 4 ways
    std::mt19937_64 rng(7);
    const std::uint32_t way_plan[] = {4, 2, 3, 1, 4};
    for (std::uint32_t ways : way_plan) {
        c.set_data_ways(ways);
        ASSERT_EQ(c.valid_lines(), c.count_valid_lines_slow());
        for (int i = 0; i < 400; ++i) {
            sim::Addr b = rng() % 128;
            switch (rng() % 4) {
              case 0:
              case 1:
                c.insert(b, 1, 0, (rng() & 1) != 0, (rng() & 1) != 0);
                break;
              case 2:
                c.invalidate(b);
                break;
              default:
                c.access(b, 1, 0, (rng() & 1) != 0);
                break;
            }
            ASSERT_EQ(c.valid_lines(), c.count_valid_lines_slow());
        }
    }
}

TEST(Cache, ReinsertionRefreshesInsteadOfDuplicating)
{
    auto c = make_cache(4096, 4);
    c.insert(5, 1, 100, false, false);
    c.insert(5, 1, 50, true, false);
    EXPECT_EQ(c.valid_lines(), 1u);
    // The refreshed fill time is what a demand sees.
    auto r = c.access(5, 1, 0, false);
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(r.ready_time, 50u);
    // Fill the set with conflicting blocks (16 sets: 5 + 16k) until the
    // line is evicted; the eviction carries the refreshed dirty bit.
    cache::Eviction ev;
    for (sim::Addr b = 5 + 16; b <= 5 + 16 * 4 && !ev.valid; b += 16)
        ev = c.insert(b, 1, 0, false, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.block, 5u);
    EXPECT_TRUE(ev.dirty);
}

// ---------------------------------------------------------------------
// MemorySystem (hierarchy) tests.
// ---------------------------------------------------------------------

TEST(Hierarchy, LatenciesFollowTable1)
{
    sim::MachineConfig cfg;
    cfg.l1_stride_prefetcher = false;
    cache::MemorySystem mem(cfg, 1);

    // Cold miss goes to DRAM: >= LLC latency + DRAM latency.
    sim::Cycle t0 = mem.access(0, 0x400, 0x10000, false, 1000);
    EXPECT_GE(t0, 1000u + cfg.llc.latency + cfg.dram_latency);

    // Now resident everywhere: L1 hit at +3.
    sim::Cycle t1 = mem.access(0, 0x400, 0x10000, false, 200000);
    EXPECT_EQ(t1, 200000u + cfg.l1d.latency);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    sim::MachineConfig cfg;
    cfg.l1_stride_prefetcher = false;
    cache::MemorySystem mem(cfg, 1);
    mem.access(0, 0x400, 0, false, 0);
    // Evict block 0 from L1 by filling its set (L1: 64KB/4way = 256
    // sets; same set needs block addresses congruent mod 256).
    for (int i = 1; i <= 4; ++i)
        mem.access(0, 0x400, static_cast<sim::Addr>(i) * 256 * 64, false,
                   100000 + i * 1000);
    sim::Cycle t = mem.access(0, 0x400, 0, false, 900000);
    EXPECT_EQ(t, 900000u + cfg.l2.latency);
}

TEST(Hierarchy, DemandMergesWithPendingFill)
{
    sim::MachineConfig cfg;
    cfg.l1_stride_prefetcher = false;
    cache::MemorySystem mem(cfg, 1);
    sim::Cycle done = mem.access(0, 0x400, 0x40000, false, 100);
    // Re-access while the fill is still in flight: completion must not
    // exceed the original fill time, and must not be a fresh miss.
    sim::Cycle t2 = mem.access(0, 0x400, 0x40000, false, 110);
    EXPECT_LE(t2, done);
    EXPECT_GE(t2, 110u);
}

TEST(Hierarchy, PartitionRequestChangesLlcWays)
{
    sim::MachineConfig cfg;
    cache::MemorySystem mem(cfg, 1);
    EXPECT_EQ(mem.llc().data_ways(), cfg.llc.assoc);
    mem.request_metadata_capacity(0, 1024 * 1024, 0);
    // 1 MB of a 2 MB 16-way LLC = 8 ways.
    EXPECT_EQ(mem.metadata_ways(), 8u);
    EXPECT_EQ(mem.llc().data_ways(), 8u);
    mem.request_metadata_capacity(0, 0, 100);
    EXPECT_EQ(mem.metadata_ways(), 0u);
}

TEST(Hierarchy, MetadataCapacityCappedAtHalf)
{
    sim::MachineConfig cfg;
    cache::MemorySystem mem(cfg, 1);
    mem.request_metadata_capacity(0, 10 * 1024 * 1024, 0);
    EXPECT_EQ(mem.metadata_ways(), cfg.llc.assoc / 2);
}

TEST(Hierarchy, PerCorePartitionsAggregate)
{
    sim::MachineConfig cfg;
    cache::MemorySystem mem(cfg, 4); // 8 MB shared LLC, way = 512 KB
    mem.request_metadata_capacity(0, 1024 * 1024, 0);
    mem.request_metadata_capacity(1, 512 * 1024, 0);
    // 1.5 MB over 512 KB ways = 3 ways.
    EXPECT_EQ(mem.metadata_ways(), 3u);
}

TEST(Hierarchy, TrafficAccountedPerClass)
{
    sim::MachineConfig cfg;
    cfg.l1_stride_prefetcher = false;
    cache::MemorySystem mem(cfg, 1);
    for (int i = 0; i < 100; ++i)
        mem.access(0, 0x400, static_cast<sim::Addr>(i) * 64, false,
                   static_cast<sim::Cycle>(i) * 1000);
    EXPECT_EQ(mem.dram().traffic().of(sim::TrafficClass::DemandRead),
              100 * sim::BLOCK_SIZE);
    EXPECT_EQ(mem.dram().traffic().of(sim::TrafficClass::PrefetchRead),
              0u);
}

TEST(Hierarchy, DirtyDataEventuallyWritesBack)
{
    sim::MachineConfig cfg;
    cfg.l1_stride_prefetcher = false;
    cache::MemorySystem mem(cfg, 1);
    // Write a footprint far larger than the whole hierarchy, then
    // stream over fresh lines to force dirty evictions to DRAM.
    for (int i = 0; i < 200000; ++i) {
        mem.access(0, 0x400, static_cast<sim::Addr>(i) * 64, true,
                   static_cast<sim::Cycle>(i) * 20);
    }
    EXPECT_GT(mem.dram().traffic().of(sim::TrafficClass::Writeback), 0u);
}

TEST(Hierarchy, ExtraLlcLatencyLengthensMissPath)
{
    auto run = [](std::uint32_t extra) {
        sim::MachineConfig cfg;
        cfg.l1_stride_prefetcher = false;
        cfg.llc_extra_latency = extra;
        cache::MemorySystem mem(cfg, 1);
        return mem.access(0, 0x400, 0x99000, false, 1000);
    };
    EXPECT_EQ(run(6), run(0) + 6);
}

TEST(Hierarchy, IssuePrefetchOutcomes)
{
    sim::MachineConfig cfg;
    cfg.l1_stride_prefetcher = false;
    cache::MemorySystem mem(cfg, 1);
    // Cold block: prefetch goes to DRAM.
    EXPECT_EQ(mem.issue_prefetch(0, 0x500, 100, nullptr),
              prefetch::PfOutcome::IssuedToDram);
    // Already in L2 now: redundant.
    EXPECT_EQ(mem.issue_prefetch(0, 0x500, 200, nullptr),
              prefetch::PfOutcome::RedundantL2);
    // Present only in LLC (evict from L2 by filling its set: L2 has
    // 1024 sets, 8 ways).
    for (int i = 1; i <= 8; ++i) {
        mem.access(0, 0x400,
                   (0x500 + static_cast<sim::Addr>(i) * 1024) * 64,
                   false, 300 + i * 400);
    }
    EXPECT_EQ(mem.issue_prefetch(0, 0x500, 10000, nullptr),
              prefetch::PfOutcome::FilledFromLlc);
}

TEST(Hierarchy, PrefetchDroppedUnderBandwidthSaturation)
{
    sim::MachineConfig cfg;
    cfg.l1_stride_prefetcher = false;
    cfg.dram_prefetch_queue_limit = 2;
    cache::MemorySystem mem(cfg, 1);
    // Saturate the channels with demands at one instant.
    for (int i = 0; i < 256; ++i)
        mem.access(0, 0x400, static_cast<sim::Addr>(i) * 64, false, 500);
    bool dropped = false;
    for (int i = 0; i < 8; ++i) {
        if (mem.issue_prefetch(0, 0x900000 + i, 500, nullptr) ==
            prefetch::PfOutcome::DroppedBandwidth)
            dropped = true;
    }
    EXPECT_TRUE(dropped);
}

TEST(Hierarchy, ClearStatsResetsCountersNotContents)
{
    sim::MachineConfig cfg;
    cfg.l1_stride_prefetcher = false;
    cache::MemorySystem mem(cfg, 1);
    mem.access(0, 0x400, 0x2000, false, 10);
    mem.clear_stats(1000);
    EXPECT_EQ(mem.l1(0).stats().demand_accesses(), 0u);
    EXPECT_EQ(mem.dram().traffic().total(), 0u);
    // Contents survive: the block is still a hit.
    sim::Cycle t = mem.access(0, 0x400, 0x2000, false, 100000);
    EXPECT_EQ(t, 100000u + cfg.l1d.latency);
}

TEST(Hierarchy, StridePrefetcherCoversStreams)
{
    sim::MachineConfig cfg; // stride on
    cache::MemorySystem mem(cfg, 1);
    sim::Cycle now = 0;
    for (int i = 0; i < 4000; ++i) {
        mem.access(0, 0x400, static_cast<sim::Addr>(i) * 64, false, now);
        now += 50;
    }
    ASSERT_NE(mem.l1_stride(0), nullptr);
    EXPECT_GT(mem.l1_stride(0)->stats().useful, 1000u);
}

// -------------------------------------------------------------- MshrQueue

#include <set>

#include "cache/mshr_queue.hpp"
#include "util/rng.hpp"

TEST(MshrQueue, MatchesMultisetUnderRandomTraffic)
{
    // The queue replaced a std::multiset; drive both with the same
    // near-monotonic completion stream (the DRAM shape: mostly
    // increasing, bounded reordering) and random drains.
    util::Rng rng(0x6d736872); // "mshr"
    cache::MshrQueue q;
    std::multiset<sim::Cycle> ref;
    sim::Cycle clock = 0;
    for (int op = 0; op < 50000; ++op) {
        switch (rng.next_below(4)) {
        case 0:
        case 1: { // insert a completion near the clock
            const sim::Cycle c = clock + rng.next_below(400);
            q.insert(c);
            ref.insert(c);
            break;
        }
        case 2: { // batched drain at the advancing clock
            clock += rng.next_below(100);
            q.retire_until(clock);
            while (!ref.empty() && *ref.begin() <= clock)
                ref.erase(ref.begin());
            break;
        }
        default: // claim-style pop of the earliest completion
            if (!ref.empty()) {
                EXPECT_EQ(q.front(), *ref.begin());
                q.pop_front();
                ref.erase(ref.begin());
            }
            break;
        }
        ASSERT_EQ(q.size(), ref.size()) << "op " << op;
        ASSERT_EQ(q.empty(), ref.empty());
        if (!ref.empty())
            ASSERT_EQ(q.front(), *ref.begin()) << "op " << op;
    }
}

TEST(MshrQueue, DuplicateCompletionsAllowed)
{
    cache::MshrQueue q;
    q.insert(10);
    q.insert(10);
    q.insert(10);
    EXPECT_EQ(q.size(), 3u);
    q.retire_until(9);
    EXPECT_EQ(q.size(), 3u);
    q.retire_until(10);
    EXPECT_TRUE(q.empty());
}

TEST(MshrQueue, CompactionPreservesOrder)
{
    // Push the head index past the lazy-compaction threshold while
    // keeping live entries, then verify order survives the memmove.
    cache::MshrQueue q;
    for (sim::Cycle c = 0; c < 600; ++c)
        q.insert(c);
    q.insert(1000);
    q.insert(999);
    q.retire_until(599); // drains 600, head well past the threshold
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.front(), 999u);
    q.pop_front();
    EXPECT_EQ(q.front(), 1000u);
    q.pop_front();
    EXPECT_TRUE(q.empty());
}

TEST(MshrQueue, CheckpointRoundTripsLiveRange)
{
    cache::MshrQueue q;
    for (sim::Cycle c : {5u, 3u, 9u, 3u, 7u})
        q.insert(c);
    q.retire_until(3); // head past the duplicate 3s
    sim::Snapshot save;
    q.checkpoint(save);
    const sim::SnapshotBlob blob = save.seal(1, "mshr-test");

    cache::MshrQueue r;
    r.insert(1); // stale state the load must replace
    sim::Snapshot load =
        sim::Snapshot::open_or_die(blob, 1, "mshr-test");
    r.checkpoint(load);
    EXPECT_EQ(r.size(), 3u);
    EXPECT_EQ(r.front(), 5u);
    r.pop_front();
    EXPECT_EQ(r.front(), 7u);
    r.pop_front();
    EXPECT_EQ(r.front(), 9u);
}
