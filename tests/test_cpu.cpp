/**
 * @file
 * Tests for the ROB-window core model: dispatch width, ROB stalls,
 * dependency serialization, MLP.
 */
#include <gtest/gtest.h>

#include <vector>

#include "cache/hierarchy.hpp"
#include "sim/cpu.hpp"

using namespace triage;

namespace {

sim::VectorWorkload
make_trace(std::vector<sim::TraceRecord> recs)
{
    return sim::VectorWorkload("t", std::move(recs));
}

sim::MachineConfig
cfg_no_stride()
{
    sim::MachineConfig cfg;
    cfg.l1_stride_prefetcher = false;
    return cfg;
}

} // namespace

TEST(Core, DispatchWidthBoundsIpc)
{
    // All L1 hits on one line: IPC cannot exceed the fetch width.
    sim::MachineConfig cfg = cfg_no_stride();
    cache::MemorySystem mem(cfg, 1);
    sim::CoreModel core(cfg, mem, 0);
    std::vector<sim::TraceRecord> recs;
    for (int i = 0; i < 4000; ++i)
        recs.push_back({0x400, 0x1000, false, 3, 0});
    auto wl = make_trace(recs);
    core.bind(&wl);
    core.run_records(4000);
    double ipc = static_cast<double>(core.stats().instructions) /
                 static_cast<double>(core.drain());
    EXPECT_LE(ipc, cfg.fetch_width + 0.01);
    EXPECT_GT(ipc, 1.0); // cache hits should sustain decent throughput
}

TEST(Core, DependentChainSerializesOnMemoryLatency)
{
    // Two traces over the same miss-heavy stream: one with load-to-load
    // dependencies, one without. The dependent one must be much slower.
    auto run = [](bool dependent) {
        sim::MachineConfig cfg = cfg_no_stride();
        cache::MemorySystem mem(cfg, 1);
        sim::CoreModel core(cfg, mem, 0);
        std::vector<sim::TraceRecord> recs;
        for (int i = 0; i < 2000; ++i) {
            sim::TraceRecord r;
            r.pc = 0x400;
            r.addr = static_cast<sim::Addr>(i) * 64 * 257; // all misses
            r.nonmem_before = 2;
            r.dep_distance = dependent ? 1 : 0;
            recs.push_back(r);
        }
        auto wl = make_trace(recs);
        core.bind(&wl);
        core.run_records(2000);
        return core.drain();
    };
    sim::Cycle serial = run(true);
    sim::Cycle parallel = run(false);
    EXPECT_GT(serial, 3 * parallel);
}

TEST(Core, RobLimitsMemoryParallelism)
{
    // Independent misses: a bigger ROB must run faster (more MLP).
    auto run = [](std::uint32_t rob) {
        sim::MachineConfig cfg = cfg_no_stride();
        cfg.rob_entries = rob;
        cache::MemorySystem mem(cfg, 1);
        sim::CoreModel core(cfg, mem, 0);
        std::vector<sim::TraceRecord> recs;
        for (int i = 0; i < 2000; ++i) {
            sim::TraceRecord r;
            r.pc = 0x400;
            r.addr = static_cast<sim::Addr>(i) * 64 * 509;
            r.nonmem_before = 8;
            recs.push_back(r);
        }
        auto wl = make_trace(recs);
        core.bind(&wl);
        core.run_records(2000);
        return core.drain();
    };
    EXPECT_GT(run(16), run(256));
}

TEST(Core, StoresDoNotBlockRetirement)
{
    auto run = [](bool writes) {
        sim::MachineConfig cfg = cfg_no_stride();
        cache::MemorySystem mem(cfg, 1);
        sim::CoreModel core(cfg, mem, 0);
        std::vector<sim::TraceRecord> recs;
        for (int i = 0; i < 1000; ++i) {
            sim::TraceRecord r;
            r.pc = 0x400;
            r.addr = static_cast<sim::Addr>(i) * 64 * 127;
            r.is_write = writes;
            r.dep_distance = 1; // would serialize if stores blocked
            recs.push_back(r);
        }
        auto wl = make_trace(recs);
        core.bind(&wl);
        core.run_records(1000);
        return core.drain();
    };
    EXPECT_LT(run(true), run(false) / 4);
}

TEST(Core, CountsInstructionsAndRecords)
{
    sim::MachineConfig cfg = cfg_no_stride();
    cache::MemorySystem mem(cfg, 1);
    sim::CoreModel core(cfg, mem, 0);
    std::vector<sim::TraceRecord> recs;
    for (int i = 0; i < 100; ++i)
        recs.push_back({0x400, 0x1000, (i % 3) == 0, 5, 0});
    auto wl = make_trace(recs);
    core.bind(&wl);
    core.run_records(100);
    EXPECT_EQ(core.stats().mem_records, 100u);
    EXPECT_EQ(core.stats().instructions, 600u); // 5 nonmem + 1 mem each
    EXPECT_EQ(core.stats().loads + core.stats().stores, 100u);
}

TEST(Core, RunRecordsRestartsWorkload)
{
    sim::MachineConfig cfg = cfg_no_stride();
    cache::MemorySystem mem(cfg, 1);
    sim::CoreModel core(cfg, mem, 0);
    std::vector<sim::TraceRecord> recs(10,
                                       {0x400, 0x1000, false, 0, 0});
    auto wl = make_trace(recs);
    core.bind(&wl);
    core.run_records(35); // 3.5 passes
    EXPECT_EQ(core.stats().mem_records, 35u);
}
