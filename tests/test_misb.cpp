/**
 * @file
 * Focused tests for MISB internals: the granule-organized off-chip
 * tables, the metadata cache, structural stream allocation, remap
 * confidence, stream buffers, and traffic accounting invariants.
 */
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "prefetch/misb.hpp"
#include "util/rng.hpp"

using namespace triage;
using namespace triage::prefetch;

namespace {

class Host final : public PrefetchHost
{
  public:
    std::vector<sim::Addr> issued;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    PfOutcome
    issue_prefetch(unsigned, sim::Addr block, sim::Cycle,
                   Prefetcher*) override
    {
        issued.push_back(block);
        return PfOutcome::IssuedToDram;
    }
    sim::Cycle llc_latency() const override { return 20; }
    void count_metadata_llc_access(unsigned, bool) override {}
    sim::Cycle
    offchip_metadata_access(unsigned, sim::Cycle now, std::uint32_t,
                            bool is_write, bool) override
    {
        (is_write ? writes : reads) += 1;
        return now + 170;
    }
    void request_metadata_capacity(unsigned, std::uint64_t,
                                   sim::Cycle) override
    {}
};

TrainEvent
miss(sim::Pc pc, sim::Addr block)
{
    TrainEvent ev;
    ev.pc = pc;
    ev.block = block;
    ev.l2_hit = false;
    return ev;
}

/** A key near a granule boundary (either side), or key 0. */
std::uint64_t
boundary_key(util::Rng& rng, std::uint32_t width)
{
    const std::uint64_t g = rng.next_below(64);
    switch (rng.next_below(4)) {
    case 0:
        return 0;
    case 1:
        return g * width + width - 1; // last slot of a granule
    case 2:
        return (g + 1) * width; // first slot of the next one
    default:
        return g * width + rng.next_below(width);
    }
}

/** Random op stream on a GranuleTable and an unordered_map in lockstep. */
void
granule_table_equivalence_run(std::uint32_t width, std::uint64_t seed)
{
    util::Rng rng(seed);
    GranuleTable t(width);
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    for (int op = 0; op < 20000; ++op) {
        // Mostly dense keys around granule edges, some far-flung ones
        // (sparse rows, huge granule ids).
        const std::uint64_t k = rng.next_below(8) == 0
                                    ? rng.next_u64() >> 2
                                    : boundary_key(rng, width);
        if (rng.next_below(2) == 0) {
            const std::uint64_t v = rng.next_u64() >> 1; // never ABSENT
            t.ref(k) = v;
            ref[k] = v;
        } else {
            const std::uint64_t* p = t.find(k);
            auto it = ref.find(k);
            ASSERT_EQ(p != nullptr, it != ref.end()) << "key " << k;
            if (p != nullptr) {
                EXPECT_EQ(*p, it->second);
            }
        }
        ASSERT_EQ(t.size(), ref.size()) << "op " << op;
    }
    // Every row matches the reference slot for slot, in key order.
    std::unordered_set<std::uint64_t> granules;
    for (const auto& [k, v] : ref)
        granules.insert(k / width);
    for (std::uint64_t g : granules) {
        const std::uint64_t* row = t.row(g);
        ASSERT_NE(row, nullptr) << "granule " << g;
        for (std::uint32_t i = 0; i < width; ++i) {
            auto it = ref.find(g * width + i);
            EXPECT_EQ(row[i], it == ref.end() ? GranuleTable::ABSENT
                                              : it->second);
        }
    }
    EXPECT_EQ(t.row(1000), nullptr); // between the dense and sparse keys
}

sim::SnapshotBlob
save_table(GranuleTable& t)
{
    sim::Snapshot s;
    t.checkpoint(s);
    return s.seal(1, "granules");
}

} // namespace

TEST(GranuleTable, MatchesUnorderedMapAtMisbWidth)
{
    granule_table_equivalence_run(16, 0x6d697362);
}

TEST(GranuleTable, MatchesUnorderedMapAtIsbWidth)
{
    granule_table_equivalence_run(64, 0x697362);
}

TEST(GranuleTable, RefInsertsZeroOnceAndKeepsValue)
{
    GranuleTable t(16);
    EXPECT_EQ(t.find(0), nullptr);
    EXPECT_EQ(t.row(0), nullptr);
    EXPECT_EQ(t.ref(0), 0u);
    t.ref(0) = 7;
    EXPECT_EQ(t.ref(0), 7u);
    EXPECT_EQ(t.size(), 1u);
    // A sibling slot of the same granule is still absent.
    EXPECT_EQ(t.find(1), nullptr);
    ASSERT_NE(t.row(0), nullptr);
    EXPECT_EQ(t.row(0)[1], GranuleTable::ABSENT);
}

TEST(GranuleTable, SnapshotBytesIndependentOfInsertionOrder)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; k < 200; k += 3)
        keys.push_back(k * 7);
    GranuleTable fwd(16);
    GranuleTable rev(16);
    for (std::uint64_t k : keys)
        fwd.ref(k) = k + 1;
    for (auto it = keys.rbegin(); it != keys.rend(); ++it)
        rev.ref(*it) = *it + 1;
    EXPECT_EQ(save_table(fwd), save_table(rev));
}

TEST(GranuleTable, SnapshotRoundTrip)
{
    util::Rng rng(42);
    GranuleTable t(64);
    for (int i = 0; i < 3000; ++i)
        t.ref(rng.next_below(50000)) = rng.next_u64() >> 1;
    const sim::SnapshotBlob blob = save_table(t);

    GranuleTable back(64);
    back.ref(123456789) = 5; // overwritten by the restore
    sim::Snapshot load = sim::Snapshot::open_or_die(blob, 1, "granules");
    back.checkpoint(load);
    EXPECT_TRUE(load.exhausted());
    EXPECT_EQ(back.size(), t.size());
    EXPECT_EQ(back.find(123456789), nullptr);
    for (std::uint64_t k = 0; k < 50000; ++k) {
        const std::uint64_t* a = t.find(k);
        const std::uint64_t* b = back.find(k);
        ASSERT_EQ(a != nullptr, b != nullptr) << "key " << k;
        if (a != nullptr) {
            EXPECT_EQ(*a, *b);
        }
    }
    EXPECT_EQ(save_table(back), blob);
}

TEST(MetadataCache, HitAfterInsert)
{
    MetadataCache c(64, 8);
    EXPECT_FALSE(c.find(42).has_value());
    c.insert(42, 7, false);
    auto v = c.find(42);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7u);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(MetadataCache, UpdateKeepsOneCopy)
{
    MetadataCache c(64, 8);
    c.insert(42, 7, false);
    c.insert(42, 9, true);
    auto v = c.find(42);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 9u);
}

TEST(MetadataCache, EvictionReportsDirty)
{
    MetadataCache c(8, 8); // one set
    for (std::uint64_t k = 0; k < 8; ++k)
        c.insert(k * 64, k, true);
    auto ev = c.insert(999 * 64, 1, false); // evicts the LRU entry
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
}

TEST(MetadataCache, LruOrderRespected)
{
    MetadataCache c(8, 8);
    for (std::uint64_t k = 0; k < 8; ++k)
        c.insert(k, k, false);
    c.find(0); // refresh key 0
    auto ev = c.insert(100, 1, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.key, 1u); // key 1 is now the LRU
}

TEST(Misb, StreamFollowsAcrossManySteps)
{
    Misb pf;
    Host host;
    // One PC, a long fixed irregular sequence, repeated.
    std::vector<sim::Addr> seq;
    for (int i = 0; i < 600; ++i)
        seq.push_back(1000 + ((i * 7919) % 600));
    for (int pass = 0; pass < 3; ++pass)
        for (auto a : seq)
            pf.train(miss(0x4, a), host);
    // On the next pass nearly every trigger predicts the successor.
    host.issued.clear();
    std::unordered_set<sim::Addr> expected;
    for (int i = 0; i < 100; ++i) {
        pf.train(miss(0x4, seq[i]), host);
        expected.insert(seq[i + 1]);
    }
    EXPECT_GT(host.issued.size(), 80u);
    std::size_t matched = 0;
    for (auto a : host.issued)
        matched += expected.count(a);
    EXPECT_GT(matched, host.issued.size() * 8 / 10);
}

TEST(Misb, RemapConfidenceResistsAlternation)
{
    Misb pf;
    Host host;
    // Address 50 alternates successors: (50 -> A) and (50 -> B).
    // With 1-bit remap confidence the mapping must not churn the
    // structural space every occurrence: writes stay bounded.
    for (int i = 0; i < 200; ++i) {
        pf.train(miss(0x4, 50), host);
        pf.train(miss(0x4, i % 2 == 0 ? 111 : 222), host);
        pf.train(miss(0x4, 999), host);
    }
    // Without confidence this would be ~400 remaps (each 2 updates);
    // with it, remaps happen at most every other round.
    EXPECT_LT(pf.stats().meta_offchip_writes, 150u);
}

TEST(Misb, StreamLengthBoundaryStartsNewChunk)
{
    MisbConfig cfg;
    cfg.stream_length = 4; // tiny chunks to hit the boundary quickly
    Misb pf(cfg);
    Host host;
    for (int pass = 0; pass < 4; ++pass)
        for (sim::Addr a = 10; a < 30; ++a)
            pf.train(miss(0x4, a), host);
    host.issued.clear();
    for (sim::Addr a = 10; a < 29; ++a)
        pf.train(miss(0x4, a), host);
    // Predictions continue across chunk boundaries (new chunks are
    // linked by retraining), covering most of the walk.
    EXPECT_GT(host.issued.size(), 10u);
}

TEST(Misb, ChargeTimeOffStillCountsTraffic)
{
    MisbConfig cfg;
    cfg.charge_time = false;
    Misb pf(cfg);
    Host host;
    for (int pass = 0; pass < 2; ++pass)
        for (int i = 0; i < 5000; ++i)
            pf.train(miss(0x4, (i * 2654435761u) % 100000), host);
    EXPECT_GT(host.reads + host.writes, 100u);
}

TEST(Misb, DegreeWalksStructuralSpace)
{
    MisbConfig cfg;
    cfg.degree = 4;
    Misb pf(cfg);
    Host host;
    for (int pass = 0; pass < 3; ++pass)
        for (sim::Addr a = 100; a < 140; ++a)
            pf.train(miss(0x4, a), host);
    host.issued.clear();
    pf.train(miss(0x4, 100), host);
    ASSERT_GE(host.issued.size(), 4u);
    EXPECT_EQ(host.issued[0], 101u);
    EXPECT_EQ(host.issued[3], 104u);
}
