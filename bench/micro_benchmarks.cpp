/**
 * @file
 * google-benchmark microbenchmarks for the simulator's hot paths: the
 * structures every figure bench exercises millions of times.
 */
#include <benchmark/benchmark.h>

#include <memory>

#include "cache/cache.hpp"
#include "cache/hierarchy.hpp"
#include "replacement/hawkeye.hpp"
#include "replacement/lru.hpp"
#include "replacement/optgen.hpp"
#include "sim/cpu.hpp"
#include "triage/metadata_store.hpp"
#include "triage/triage.hpp"
#include "util/rng.hpp"
#include "workloads/spec.hpp"

using namespace triage;

static void
BM_CacheAccess(benchmark::State& state)
{
    std::uint32_t assoc = static_cast<std::uint32_t>(state.range(0));
    std::uint64_t size = 512 * 1024;
    std::uint32_t sets =
        static_cast<std::uint32_t>(size / (sim::BLOCK_SIZE * assoc));
    cache::SetAssocCache c(
        {"bm", size, assoc},
        std::make_unique<replacement::Lru>(sets, assoc));
    util::Rng rng(1);
    sim::Cycle now = 0;
    for (auto _ : state) {
        sim::Addr block = rng.next_below(1 << 14);
        auto r = c.access(block, 0x400, ++now, false);
        if (!r.hit)
            c.insert(block, 0x400, now, false, false);
        benchmark::DoNotOptimize(r.hit);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(4)->Arg(8)->Arg(16);

static void
BM_OptGenAccess(benchmark::State& state)
{
    replacement::OptGen og(
        static_cast<std::uint32_t>(state.range(0)), 8);
    util::Rng rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(og.access(rng.next_below(4096)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OptGenAccess)->Arg(16)->Arg(64)->Arg(256);

static void
BM_HawkeyeCacheAccess(benchmark::State& state)
{
    std::uint32_t assoc = 16;
    std::uint64_t size = 512 * 1024;
    std::uint32_t sets =
        static_cast<std::uint32_t>(size / (sim::BLOCK_SIZE * assoc));
    cache::SetAssocCache c(
        {"bm", size, assoc},
        std::make_unique<replacement::Hawkeye>(sets, assoc));
    util::Rng rng(3);
    sim::Cycle now = 0;
    for (auto _ : state) {
        sim::Addr block = rng.next_below(1 << 14);
        auto r = c.access(block, 0x400 + (block & 0xff), ++now, false);
        if (!r.hit)
            c.insert(block, 0x400 + (block & 0xff), now, false, false);
        benchmark::DoNotOptimize(r.hit);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HawkeyeCacheAccess);

static void
BM_MetadataStoreLookupUpdate(benchmark::State& state)
{
    core::MetadataStoreConfig cfg;
    cfg.capacity_bytes = 1024 * 1024;
    cfg.repl = state.range(0) == 0 ? core::StoreRepl::Lru
                                   : core::StoreRepl::Hawkeye;
    core::MetadataStore s(cfg);
    util::Rng rng(4);
    for (auto _ : state) {
        sim::Addr trig = rng.next_below(1 << 20);
        auto lk = s.probe(trig);
        s.commit_access(trig, lk, 0x400, true);
        s.update(trig, trig + 17, 0x400);
        benchmark::DoNotOptimize(lk.hit);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetadataStoreLookupUpdate)->Arg(0)->Arg(1);

static void
BM_WorkloadGeneration(benchmark::State& state)
{
    auto wl = workloads::make_benchmark("mcf", 1.0);
    sim::TraceRecord r;
    for (auto _ : state) {
        if (!wl->next(r))
            wl->reset();
        benchmark::DoNotOptimize(r.addr);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkloadGeneration);

static void
BM_EndToEndSimulation(benchmark::State& state)
{
    // Records simulated per second through the full stack.
    sim::MachineConfig cfg;
    cache::MemorySystem mem(cfg, 1);
    sim::CoreModel cpu(cfg, mem, 0);
    mem.set_prefetcher(0, core::make_triage_dynamic());
    auto wl = workloads::make_benchmark("sphinx3", 1.0);
    cpu.bind(wl.get());
    for (auto _ : state)
        cpu.run_records(1000);
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
