/**
 * @file
 * Parameterized property tests: invariants swept across configuration
 * grids (TEST_P / INSTANTIATE_TEST_SUITE_P).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cache/cache.hpp"
#include "prefetch/stride.hpp"
#include "replacement/belady.hpp"
#include "replacement/lru.hpp"
#include "replacement/optgen.hpp"
#include "sim/dram.hpp"
#include "sim/tlb.hpp"
#include "triage/metadata_store.hpp"
#include "triage/tag_compressor.hpp"
#include "triage/partition.hpp"
#include "triage/triage.hpp"
#include "util/rng.hpp"
#include "workloads/spec.hpp"

using namespace triage;

// ---------------------------------------------------------------------
// Property: OPTgen == Belady for any capacity / locality mix.
// ---------------------------------------------------------------------

class OptGenVsBelady
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, // capacity
                                                 std::uint32_t, // keys
                                                 double>>       // zipf s
{};

TEST_P(OptGenVsBelady, HitCountsMatchExactly)
{
    auto [capacity, keys, zipf_s] = GetParam();
    util::Rng rng(capacity * 7919 + keys);
    const util::ZipfDist zipf(keys, zipf_s);
    std::vector<std::uint64_t> seq;
    seq.reserve(600);
    for (int i = 0; i < 600; ++i) {
        seq.push_back(zipf_s > 0 ? rng.next_zipf(zipf)
                                 : rng.next_below(keys));
    }
    replacement::OptGen og(capacity, /*history_factor=*/2000);
    std::uint64_t og_hits = 0;
    for (auto k : seq)
        og_hits += og.access(k) ? 1 : 0;
    EXPECT_EQ(og_hits, replacement::belady_hits(seq, capacity));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OptGenVsBelady,
    ::testing::Combine(::testing::Values(2u, 3u, 4u, 8u, 16u),
                       ::testing::Values(4u, 16u, 64u),
                       ::testing::Values(0.0, 0.8, 1.2)));

// ---------------------------------------------------------------------
// Property: LRU stack inclusion — more ways never hurt.
// ---------------------------------------------------------------------

class LruStack : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(LruStack, MoreWaysNeverDecreaseHits)
{
    std::uint32_t assoc = GetParam();
    auto run = [](std::uint32_t ways) {
        std::uint32_t sets = 16;
        cache::SetAssocCache c(
            {"p", static_cast<std::uint64_t>(sets) * ways *
                      sim::BLOCK_SIZE,
             ways},
            std::make_unique<replacement::Lru>(sets, ways));
        util::Rng rng(99);
        const util::ZipfDist zipf(4096, 1.0);
        std::uint64_t hits = 0;
        for (int i = 0; i < 20000; ++i) {
            sim::Addr block = rng.next_zipf(zipf);
            if (c.access(block, 1, i, false).hit)
                ++hits;
            else
                c.insert(block, 1, 0, false, false);
        }
        return hits;
    };
    EXPECT_LE(run(assoc), run(assoc * 2));
}

INSTANTIATE_TEST_SUITE_P(Sweep, LruStack,
                         ::testing::Values(1u, 2u, 4u, 8u));

// ---------------------------------------------------------------------
// Property: metadata store never exceeds capacity; resize keeps bound.
// ---------------------------------------------------------------------

class StoreCapacity
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, // bytes
                                                 core::StoreRepl>>
{};

TEST_P(StoreCapacity, ValidEntriesBounded)
{
    auto [bytes, repl] = GetParam();
    core::MetadataStoreConfig cfg;
    cfg.capacity_bytes = bytes;
    cfg.repl = repl;
    core::MetadataStore s(cfg);
    util::Rng rng(static_cast<std::uint64_t>(bytes));
    for (int i = 0; i < 30000; ++i) {
        sim::Addr t = rng.next_below(1u << 20);
        auto lk = s.probe(t);
        s.commit_access(t, lk, 0x4, true);
        s.update(t, t + 1, 0x4);
    }
    EXPECT_LE(s.valid_entries(), s.capacity_entries());
    // Shrink and grow; the bound must hold throughout.
    s.resize(bytes / 2);
    EXPECT_LE(s.valid_entries(), s.capacity_entries());
    s.resize(bytes * 2);
    for (int i = 0; i < 5000; ++i)
        s.update(rng.next_below(1u << 20), i, 0x4);
    EXPECT_LE(s.valid_entries(), s.capacity_entries());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StoreCapacity,
    ::testing::Combine(::testing::Values(4096u, 65536u, 262144u),
                       ::testing::Values(core::StoreRepl::Lru,
                                         core::StoreRepl::Hawkeye)));

// ---------------------------------------------------------------------
// Property: Triage degree-k issues at most k chained prefetches and
// walks the learned chain in order.
// ---------------------------------------------------------------------

namespace {

class CountingHost final : public prefetch::PrefetchHost
{
  public:
    std::vector<sim::Addr> issued;

    prefetch::PfOutcome
    issue_prefetch(unsigned, sim::Addr block, sim::Cycle,
                   prefetch::Prefetcher*) override
    {
        issued.push_back(block);
        return prefetch::PfOutcome::IssuedToDram;
    }
    sim::Cycle llc_latency() const override { return 20; }
    void count_metadata_llc_access(unsigned, bool) override {}
    sim::Cycle
    offchip_metadata_access(unsigned, sim::Cycle now, std::uint32_t,
                            bool, bool) override
    {
        return now;
    }
    void request_metadata_capacity(unsigned, std::uint64_t,
                                   sim::Cycle) override
    {}
};

} // namespace

class TriageDegree : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(TriageDegree, WalksChainInOrder)
{
    std::uint32_t degree = GetParam();
    core::TriageConfig cfg;
    cfg.degree = degree;
    core::Triage t(cfg);
    CountingHost host;
    prefetch::TrainEvent ev;
    ev.pc = 0x40;
    ev.l2_hit = false;
    // Train a chain 100 -> 101 -> ... -> 140.
    for (int pass = 0; pass < 3; ++pass) {
        for (sim::Addr a = 100; a <= 140; ++a) {
            ev.block = a;
            t.train(ev, host);
        }
    }
    host.issued.clear();
    ev.block = 100;
    t.train(ev, host);
    ASSERT_LE(host.issued.size(), degree);
    for (std::size_t i = 0; i < host.issued.size(); ++i)
        EXPECT_EQ(host.issued[i], 101u + i);
    EXPECT_GE(host.issued.size(), std::min<std::uint32_t>(degree, 4u));
}

INSTANTIATE_TEST_SUITE_P(Sweep, TriageDegree,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

// ---------------------------------------------------------------------
// Property: stride prefetcher learns any constant stride.
// ---------------------------------------------------------------------

class StrideSweep : public ::testing::TestWithParam<std::int64_t>
{};

TEST_P(StrideSweep, LearnsStride)
{
    std::int64_t stride = GetParam();
    prefetch::StridePrefetcher pf;
    CountingHost host;
    prefetch::TrainEvent ev;
    ev.pc = 0x4;
    ev.l2_hit = false;
    sim::Addr base = 1u << 20;
    for (int i = 0; i < 16; ++i) {
        ev.block = static_cast<sim::Addr>(
            static_cast<std::int64_t>(base) + i * stride);
        pf.train(ev, host);
    }
    ASSERT_FALSE(host.issued.empty());
    // The last candidates continue the stride beyond the last access.
    auto last_access = static_cast<std::int64_t>(base) + 15 * stride;
    EXPECT_EQ(static_cast<std::int64_t>(host.issued.back()) -
                  last_access,
              stride * std::int64_t{prefetch::StridePrefetcher::DEGREE});
}

INSTANTIATE_TEST_SUITE_P(Sweep, StrideSweep,
                         ::testing::Values(1, -1, 3, -7, 16));

// ---------------------------------------------------------------------
// Property: DRAM queueing is monotonic in offered load and conserves
// traffic accounting across channel counts.
// ---------------------------------------------------------------------

class DramChannels : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(DramChannels, LatencyMonotonicInLoad)
{
    sim::MachineConfig cfg;
    cfg.dram_channels = GetParam();
    auto burst_latency = [&](int n_requests) {
        sim::Dram d(cfg);
        sim::Cycle last = 0;
        for (int i = 0; i < n_requests; ++i)
            last = d.demand_read(static_cast<sim::Addr>(i), 0);
        return last;
    };
    EXPECT_LE(burst_latency(4), burst_latency(64));
    EXPECT_LE(burst_latency(64), burst_latency(256));
}

TEST_P(DramChannels, TrafficIndependentOfChannels)
{
    sim::MachineConfig cfg;
    cfg.dram_channels = GetParam();
    sim::Dram d(cfg);
    for (int i = 0; i < 100; ++i)
        d.demand_read(static_cast<sim::Addr>(i * 977), i * 10);
    EXPECT_EQ(d.traffic().of(sim::TrafficClass::DemandRead),
              100 * sim::BLOCK_SIZE);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DramChannels,
                         ::testing::Values(1u, 2u, 4u, 8u));

// ---------------------------------------------------------------------
// Property: every benchmark analog is deterministic and restartable.
// ---------------------------------------------------------------------

class BenchmarkNames : public ::testing::TestWithParam<std::string>
{};

TEST_P(BenchmarkNames, DeterministicAndRestartable)
{
    auto wl = workloads::make_benchmark(GetParam(), 0.005);
    std::vector<sim::TraceRecord> first;
    sim::TraceRecord r;
    for (int i = 0; i < 2000 && wl->next(r); ++i)
        first.push_back(r);
    ASSERT_FALSE(first.empty());
    wl->reset();
    for (const auto& expect : first) {
        ASSERT_TRUE(wl->next(r));
        EXPECT_EQ(r.addr, expect.addr);
        EXPECT_EQ(r.pc, expect.pc);
        EXPECT_EQ(r.dep_distance, expect.dep_distance);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Irregular, BenchmarkNames,
    ::testing::ValuesIn(workloads::irregular_spec()));
INSTANTIATE_TEST_SUITE_P(
    CloudSuite, BenchmarkNames,
    ::testing::ValuesIn(workloads::cloudsuite()));

// ---------------------------------------------------------------------
// Property: tag compressor round-trips at any width until recycling.
// ---------------------------------------------------------------------

class CompressorWidth : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(CompressorWidth, RoundTripsWithinCapacity)
{
    core::TagCompressorConfig cfg;
    cfg.id_bits = GetParam();
    core::TagCompressor tc(cfg);
    std::uint32_t n = tc.capacity();
    for (std::uint64_t t = 1; t <= n; ++t) {
        auto id = tc.compress(t * 127);
        EXPECT_EQ(tc.decompress(id), t * 127);
    }
    EXPECT_EQ(tc.recycles(), 0u);
    tc.compress(~0ULL); // one past capacity: must recycle, not corrupt
    EXPECT_EQ(tc.recycles(), 1u);
}

namespace {

/**
 * Reference tag compressor with the original victim search: every miss
 * scans all slots for the first never-used one, else the smallest lru
 * stamp (first wins). Same snapshot section as core::TagCompressor, so
 * a reference state can be loaded into the real one.
 */
class ScanCompressor
{
  public:
    struct Slot {
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    explicit ScanCompressor(std::uint32_t id_bits) : slots(1u << id_bits) {}

    std::uint16_t
    compress(std::uint64_t tag)
    {
        if (auto it = ids.find(tag); it != ids.end()) {
            slots[it->second].lru = ++clock;
            return it->second;
        }
        std::uint16_t victim = 0;
        for (std::uint32_t i = 0; i < slots.size(); ++i) {
            if (!slots[i].valid) {
                victim = static_cast<std::uint16_t>(i);
                break;
            }
            if (slots[i].lru < slots[victim].lru)
                victim = static_cast<std::uint16_t>(i);
        }
        if (slots[victim].valid) {
            ids.erase(slots[victim].tag);
            ++recycles;
        }
        slots[victim] = {tag, ++clock, true};
        ids[tag] = victim;
        return victim;
    }

    std::optional<std::uint16_t>
    find(std::uint64_t tag) const
    {
        auto it = ids.find(tag);
        if (it == ids.end())
            return std::nullopt;
        return it->second;
    }

    void
    checkpoint(sim::Snapshot& s)
    {
        s.section("triage.tags");
        s.io_vec(slots, [](sim::Snapshot& a, Slot& e) {
            a.io(e.tag);
            a.io(e.lru);
            a.io(e.valid);
        });
        s.io(clock);
        s.io(recycles);
    }

    std::vector<Slot> slots;
    std::unordered_map<std::uint64_t, std::uint16_t> ids;
    std::uint64_t clock = 0;
    std::uint64_t recycles = 0;
};

/** Save @p from and load it into @p to (both speak "triage.tags"). */
template <typename From, typename To>
void
transfer(From& from, To& to)
{
    sim::Snapshot save;
    from.checkpoint(save);
    sim::Snapshot load;
    ASSERT_TRUE(sim::Snapshot::open(save.seal(1, "tags"), 1, "tags", load));
    to.checkpoint(load);
    ASSERT_TRUE(load.exhausted());
}

/** Random compress/find/decompress mix over a universe twice the
 *  capacity (so hits, fills and recycles all occur), checking ids,
 *  decoded tags and the recycle count after every step. */
void
drive_against_reference(core::TagCompressor& tc, ScanCompressor& ref,
                        util::Rng& rng, std::uint32_t ops)
{
    const std::uint32_t cap = tc.capacity();
    for (std::uint32_t i = 0; i < ops; ++i) {
        const std::uint64_t tag =
            rng.next_below(64) == 0 ? ~0ULL
                                    : rng.next_below(2 * cap + 8) * 127;
        switch (rng.next_below(8)) {
          case 0:
          case 1:
            ASSERT_EQ(tc.find(tag), ref.find(tag)) << "op " << i;
            break;
          case 2: {
            const auto id = static_cast<std::uint16_t>(rng.next_below(cap));
            ASSERT_EQ(tc.decompress(id), ref.slots[id].tag) << "op " << i;
            break;
          }
          default:
            ASSERT_EQ(tc.compress(tag), ref.compress(tag)) << "op " << i;
        }
        ASSERT_EQ(tc.recycles(), ref.recycles) << "op " << i;
    }
}

} // namespace

TEST_P(CompressorWidth, MatchesLinearScanReference)
{
    const std::uint32_t bits = GetParam();
    core::TagCompressorConfig cfg;
    cfg.id_bits = bits;
    util::Rng rng(0x5eed + bits);
    const std::uint32_t cap = 1u << bits;
    // The reference costs O(capacity) per miss, so the op count is
    // capped; the widest table starts nearly full (below) instead of
    // filling from empty.
    const std::uint32_t ops = std::min<std::uint32_t>(16 * cap, 4000);

    if (bits <= 10) {
        core::TagCompressor tc(cfg);
        ScanCompressor ref(bits);
        drive_against_reference(tc, ref, rng, ops);
        // A checkpoint round trip rebuilds the free cursor and the
        // recency list from the slots alone.
        core::TagCompressor restored(cfg);
        transfer(tc, restored);
        drive_against_reference(restored, ref, rng, ops);
    }

    // Nearly full, with lru stamps shuffled against slot order: load a
    // reference state into the compressor and continue both.
    ScanCompressor ref(bits);
    const std::uint32_t used = cap - std::min<std::uint32_t>(cap / 4, 64);
    std::vector<std::uint64_t> stamps(used);
    for (std::uint32_t i = 0; i < used; ++i)
        stamps[i] = i + 1;
    for (std::uint32_t i = used; i > 1; --i)
        std::swap(stamps[i - 1], stamps[rng.next_below(i)]);
    for (std::uint32_t i = 0; i < used; ++i) {
        ref.slots[i] = {std::uint64_t{i} * 127, stamps[i], true};
        ref.ids[std::uint64_t{i} * 127] = static_cast<std::uint16_t>(i);
    }
    ref.clock = used;
    core::TagCompressor tc(cfg);
    transfer(ref, tc);
    drive_against_reference(tc, ref, rng, ops);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CompressorWidth,
                         ::testing::Values(2u, 4u, 8u, 10u, 16u));

// ---------------------------------------------------------------------
// Property: the partition controller generalizes to any size ladder
// (the paper's "time-sharing OPTgen copies" extension).
// ---------------------------------------------------------------------

class PartitionLadder
    : public ::testing::TestWithParam<std::uint32_t> // working-set /64KB
{};

TEST_P(PartitionLadder, SettlesAtSmallestSufficientSize)
{
    std::uint64_t ws_bytes = GetParam() * 64ULL * 1024;
    core::PartitionConfig cfg;
    cfg.sizes = {256 * 1024, 512 * 1024, 1024 * 1024, 2048 * 1024};
    cfg.initial_level = 4;
    cfg.epoch_accesses = 50000;
    core::PartitionController pc(cfg);
    // Uniform random reuse over a working set of ws_bytes/4 triggers.
    auto ws = static_cast<std::uint32_t>(ws_bytes / 4);
    util::Rng rng(ws);
    for (std::uint64_t i = 0; i < 10ULL * ws + 600000; ++i)
        pc.observe(rng.next_below(ws));
    // The chosen store must hold the working set...
    EXPECT_GE(pc.size_bytes(), ws_bytes / 2);
    // ...and not be more than one ladder rung above it.
    EXPECT_LE(pc.size_bytes(), ws_bytes * 4);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PartitionLadder,
                         ::testing::Values(3u, 6u, 12u, 24u));

// ---------------------------------------------------------------------
// Property: a bigger TLB never increases translation latency.
// ---------------------------------------------------------------------

class TlbSize : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(TlbSize, MoreEntriesNeverSlower)
{
    std::uint32_t l1_entries = GetParam();
    auto total_latency = [](std::uint32_t l1, std::uint32_t l2) {
        sim::Tlb tlb(l1, l2, 7, 60);
        util::Rng rng(99);
        const util::ZipfDist zipf(4096, 1.0);
        std::uint64_t sum = 0;
        for (int i = 0; i < 20000; ++i) {
            sim::Addr page = rng.next_zipf(zipf);
            sum += tlb.access(page << 12);
        }
        return sum;
    };
    EXPECT_LE(total_latency(l1_entries * 2, 1024),
              total_latency(l1_entries, 1024));
    EXPECT_LE(total_latency(l1_entries, 2048),
              total_latency(l1_entries, 1024));
}

INSTANTIATE_TEST_SUITE_P(Sweep, TlbSize,
                         ::testing::Values(4u, 16u, 48u));
