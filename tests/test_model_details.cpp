/**
 * @file
 * Detail-level tests: core-model clock semantics, filtered metadata
 * training, prefetch credit attribution, workload mixing, and config
 * helpers.
 */
#include <gtest/gtest.h>

#include "cache/hierarchy.hpp"
#include "prefetch/hybrid.hpp"
#include "prefetch/next_line.hpp"
#include "replacement/hawkeye.hpp"
#include "sim/cpu.hpp"
#include "workloads/synthetic.hpp"

using namespace triage;

// ---------------------------------------------------------------------
// Core model clocks
// ---------------------------------------------------------------------

TEST(CoreClocks, DrainCoversOutstandingLoads)
{
    sim::MachineConfig cfg;
    cfg.l1_stride_prefetcher = false;
    cache::MemorySystem mem(cfg, 1);
    sim::CoreModel core(cfg, mem, 0);
    std::vector<sim::TraceRecord> recs{{0x4, 0x123400, false, 0, 0}};
    sim::VectorWorkload wl("one", recs);
    core.bind(&wl);
    core.run_records(1);
    // The single record is a cold miss: drain() must be at least the
    // DRAM round trip even though dispatch finished immediately.
    EXPECT_GE(core.drain(), static_cast<sim::Cycle>(cfg.dram_latency));
    EXPECT_LT(core.now(), core.drain());
}

TEST(CoreClocks, RunUntilStopsNearTarget)
{
    sim::MachineConfig cfg;
    cfg.l1_stride_prefetcher = false;
    cache::MemorySystem mem(cfg, 1);
    sim::CoreModel core(cfg, mem, 0);
    std::vector<sim::TraceRecord> recs(
        100000, {0x4, 0x1000, false, 3, 0});
    sim::VectorWorkload wl("hits", recs);
    core.bind(&wl);
    ASSERT_TRUE(core.run_until(500));
    // One record can overshoot the quantum, but not by much for
    // cache-hit work.
    EXPECT_GE(core.now(), 500u);
    EXPECT_LT(core.now(), 600u);
}

TEST(CoreClocks, RunUntilReportsPassEnd)
{
    sim::MachineConfig cfg;
    cfg.l1_stride_prefetcher = false;
    cache::MemorySystem mem(cfg, 1);
    sim::CoreModel core(cfg, mem, 0);
    std::vector<sim::TraceRecord> recs(10, {0x4, 0x1000, false, 0, 0});
    sim::VectorWorkload wl("short", recs);
    core.bind(&wl);
    EXPECT_FALSE(core.run_until(1000000)); // pass ends first
    EXPECT_EQ(core.stats().mem_records, 10u);
}

// ---------------------------------------------------------------------
// Filtered metadata training (the paper's Section 3 rule)
// ---------------------------------------------------------------------

TEST(MetaHawkeyeFiltering, InvisibleAccessesDoNotTrainPredictor)
{
    // The metadata store trains Hawkeye through on_miss() for a
    // visible access only; an invisible one reaches the policy as an
    // on_hit() with train off, which must update the entry but never
    // the sampler or predictor.
    replacement::Hawkeye repl(64, 16);
    // Visible reuse by PC A trains positively; invisible reuse by PC B
    // must leave its counter untouched.
    for (int i = 0; i < 50; ++i) {
        repl.on_miss(0, 1000 + i, 0xA);
        repl.on_hit({.set = 0, .way = 0, .tag = 1000u + i, .pc = 0xB,
                     .train = false});
    }
    // Re-access the same keys: visible ones feed OPTgen.
    for (int i = 0; i < 50; ++i) {
        repl.on_miss(0, 1000 + i, 0xA);
        repl.on_hit({.set = 0, .way = 0, .tag = 1000u + i, .pc = 0xB,
                     .train = false});
    }
    // PC 0xB was never sampled: its counter stays at the initial value,
    // while PC 0xA's did train (down: 50 live keys overflow 16 ways).
    EXPECT_EQ(repl.predictor().counter(0xB), 4);
    EXPECT_NE(repl.predictor().counter(0xA), 4);
}

// ---------------------------------------------------------------------
// Prefetch credit attribution
// ---------------------------------------------------------------------

TEST(Attribution, UsefulCreditGoesToIssuingChild)
{
    sim::MachineConfig cfg;
    cfg.l1_stride_prefetcher = false;
    cache::MemorySystem mem(cfg, 1);
    // Hybrid of two next-line prefetchers with different degrees; the
    // hierarchy must credit the child that issued the consumed line.
    std::vector<std::unique_ptr<prefetch::Prefetcher>> children;
    prefetch::NextLineConfig c1;
    c1.degree = 1;
    children.push_back(std::make_unique<prefetch::NextLine>(c1));
    auto* child0 = children[0].get();
    mem.set_prefetcher(
        0, std::make_unique<prefetch::Hybrid>(std::move(children)));

    // Miss on block 0 triggers a prefetch of block 1; touching block 1
    // must credit the child.
    mem.access(0, 0x4, 0, false, 0);
    mem.access(0, 0x4, 64, false, 100000);
    EXPECT_EQ(child0->stats().useful, 1u);
    // And the hybrid's snapshot aggregates it.
    EXPECT_EQ(mem.prefetcher(0)->snapshot().useful, 1u);
}

TEST(Attribution, UnusedPrefetchGetsNoCredit)
{
    sim::MachineConfig cfg;
    cfg.l1_stride_prefetcher = false;
    cache::MemorySystem mem(cfg, 1);
    prefetch::NextLineConfig c1;
    mem.set_prefetcher(0, std::make_unique<prefetch::NextLine>(c1));
    mem.access(0, 0x4, 0, false, 0); // prefetches block 1, never used
    EXPECT_EQ(mem.prefetcher(0)->snapshot().useful, 0u);
    EXPECT_GT(mem.prefetcher(0)->snapshot().issued(), 0u);
}

// ---------------------------------------------------------------------
// Workload mixing
// ---------------------------------------------------------------------

TEST(SyntheticMix, WeightsApproximatelyRespected)
{
    using namespace workloads;
    // Two kernels in distinct address ranges with 3:1 weights.
    StreamingKernel::Params a;
    a.base = 0x100000000ULL;
    a.seed = 1;
    StreamingKernel::Params b;
    b.base = 0x90000000000ULL;
    b.seed = 2;
    std::vector<WeightedKernel> ks;
    ks.push_back({std::make_unique<StreamingKernel>(a), 3.0});
    ks.push_back({std::make_unique<StreamingKernel>(b), 1.0});
    SyntheticWorkload wl("mix", 7, 40000, std::move(ks));
    sim::TraceRecord r;
    std::uint64_t in_a = 0;
    std::uint64_t total = 0;
    while (wl.next(r)) {
        ++total;
        in_a += r.addr < 0x90000000000ULL ? 1 : 0;
    }
    EXPECT_EQ(total, 40000u);
    EXPECT_NEAR(static_cast<double>(in_a) / static_cast<double>(total),
                0.75, 0.02);
}

// ---------------------------------------------------------------------
// Config helpers
// ---------------------------------------------------------------------

TEST(Config, LlcWayBytesScalesWithCores)
{
    sim::MachineConfig cfg;
    EXPECT_EQ(cfg.llc_way_bytes(1), 2u * 1024 * 1024 / 16);
    EXPECT_EQ(cfg.llc_way_bytes(4), 8u * 1024 * 1024 / 16);
}

TEST(Config, DescribeMentionsKeyParameters)
{
    sim::MachineConfig cfg;
    std::string d = cfg.describe(4);
    EXPECT_NE(d.find("128 ROB"), std::string::npos);
    EXPECT_NE(d.find("x4 cores"), std::string::npos);
    EXPECT_NE(d.find("512 KB"), std::string::npos);
    EXPECT_NE(d.find("32 GB/s"), std::string::npos);
}
