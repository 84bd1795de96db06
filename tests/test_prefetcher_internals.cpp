/**
 * @file
 * White-box tests of prefetcher internals: Best-Offset's learning
 * rounds, SMS generation lifecycle, GHB wraparound, the metadata
 * Hawkeye's aging/victim behaviour, and stride confidence dynamics.
 */
#include <gtest/gtest.h>

#include <unordered_set>

#include "prefetch/best_offset.hpp"
#include "prefetch/ghb_temporal.hpp"
#include "prefetch/sms.hpp"
#include "prefetch/stride.hpp"
#include "replacement/hawkeye.hpp"
#include "util/rng.hpp"

using namespace triage;
using namespace triage::prefetch;

namespace {

class Host final : public PrefetchHost
{
  public:
    std::vector<sim::Addr> issued;

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
                            bool, bool) override
    {
        return now;
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

} // namespace

// ---------------------------------------------------------------------
// Best-Offset internals
// ---------------------------------------------------------------------

TEST(BestOffsetInternals, SwitchesOffsetWhenPatternChanges)
{
    BestOffsetConfig cfg;
    cfg.score_max = 12; // fast learning phases for the test
    cfg.bad_score = 4;
    BestOffset pf(cfg);
    Host host;
    // Phase 1: stride 1.
    for (int i = 0; i < 2000; ++i) {
        sim::Addr b = 1000 + i;
        pf.train(miss(0x4, b), host);
        pf.on_fill(b, 0, false);
    }
    // Any small offset is timely for a unit-stride stream (X-1, X-2,
    // ... are all in the recent-requests table).
    EXPECT_GT(pf.current_offset(), 0);
    EXPECT_LE(pf.current_offset(), 6);
    // Phase 2: stride 4 — BO must migrate its offset.
    for (int i = 0; i < 4000; ++i) {
        sim::Addr b = 100000 + static_cast<sim::Addr>(i) * 4;
        pf.train(miss(0x4, b), host);
        pf.on_fill(b, 0, false);
    }
    EXPECT_EQ(pf.current_offset() % 4, 0);
}

TEST(BestOffsetInternals, PrefetchedFillsTrainTheOffsetBase)
{
    // When a prefetched line fills, BO inserts (X - D) into the RR
    // table; a subsequent trigger at X scores offset D.
    BestOffsetConfig cfg;
    cfg.score_max = 6;
    cfg.bad_score = 2;
    BestOffset pf(cfg);
    Host host;
    for (int i = 0; i < 3000; ++i) {
        sim::Addr b = 5000 + i;
        pf.train(miss(0x4, b), host);
        pf.on_fill(b, 0, /*was_prefetch=*/i % 2 == 0);
    }
    EXPECT_GT(pf.current_offset(), 0);
}

// ---------------------------------------------------------------------
// SMS generation lifecycle
// ---------------------------------------------------------------------

TEST(SmsInternals, SingleBlockGenerationsAreNotRemembered)
{
    Sms pf;
    Host host;
    // Touch each region exactly once (single-block footprints).
    for (int r = 0; r < 200; ++r)
        pf.train(miss(0x9, static_cast<sim::Addr>(r) * 32 + 5), host);
    host.issued.clear();
    // A new region with the same trigger signature must not predict.
    pf.train(miss(0x9, 9999 * 32 + 5), host);
    EXPECT_TRUE(host.issued.empty());
}

TEST(SmsInternals, PatternKeyedByTriggerOffset)
{
    Sms pf;
    Host host;
    // Same PC, different trigger offsets produce distinct patterns.
    auto teach = [&](std::uint32_t off, std::uint32_t other) {
        for (int r = 0; r < 80; ++r) {
            sim::Addr base = static_cast<sim::Addr>(1000 + r) * 32;
            pf.train(miss(0x9, base + off), host);
            pf.train(miss(0x9, base + other), host);
        }
    };
    teach(1, 9);
    teach(2, 17);
    host.issued.clear();
    pf.train(miss(0x9, 5555 * 32 + 1), host); // trigger offset 1
    std::unordered_set<sim::Addr> t1(host.issued.begin(),
                                     host.issued.end());
    EXPECT_TRUE(t1.count(5555 * 32 + 9));
    EXPECT_FALSE(t1.count(5555 * 32 + 17));
}

// ---------------------------------------------------------------------
// GHB wraparound
// ---------------------------------------------------------------------

TEST(GhbInternals, OldEntriesExpireAfterWraparound)
{
    GhbTemporalConfig cfg;
    cfg.ghb_entries = 256; // tiny buffer to force wraparound
    GhbTemporal pf(cfg);
    Host host;
    // Teach a pair, then push it out of the buffer.
    pf.train(miss(0x1, 42), host);
    pf.train(miss(0x1, 43), host);
    for (sim::Addr a = 10000; a < 10000 + 300; ++a)
        pf.train(miss(0x1, a), host);
    host.issued.clear();
    pf.train(miss(0x1, 42), host);
    // The successor 43 fell out of the 256-entry history.
    for (auto b : host.issued)
        EXPECT_NE(b, 43u);
}

TEST(GhbInternals, HistoryLengthCounts)
{
    GhbTemporal pf(GhbTemporalConfig{});
    Host host;
    for (int i = 0; i < 100; ++i)
        pf.train(miss(0x1, 7000 + i), host);
    EXPECT_EQ(pf.history_length(), 100u);
}

// ---------------------------------------------------------------------
// Metadata Hawkeye aging and victims (the policy Triage's metadata
// store runs, driven as the store drives it)
// ---------------------------------------------------------------------

TEST(MetaHawkeyeInternals, AversePcEvictedFirst)
{
    replacement::Hawkeye repl(64, 4);
    // Train PC 0xGOOD positively and 0xBAD negatively via sampling:
    // GOOD's keys recur inside the OPTgen window (hits), BAD's recur
    // far beyond it (misses train the predictor down).
    for (int i = 0; i < 400; ++i) {
        repl.on_miss(0, 500 + (i % 2), 0xd00d);
        repl.on_miss(0, 20000 + (i % 40), 0xbad);
    }
    // Fill a set: three GOOD entries, one BAD entry.
    repl.on_insert({.set = 1, .way = 0, .tag = 1, .pc = 0xd00d});
    repl.on_insert({.set = 1, .way = 1, .tag = 2, .pc = 0xbad});
    repl.on_insert({.set = 1, .way = 2, .tag = 3, .pc = 0xd00d});
    repl.on_insert({.set = 1, .way = 3, .tag = 4, .pc = 0xd00d});
    EXPECT_EQ(repl.victim(1, 0, 4), 1u); // the averse-PC way
}

TEST(MetaHawkeyeInternals, VictimAmongFriendlyDetrains)
{
    replacement::Hawkeye repl(64, 2);
    for (int i = 0; i < 100; ++i)
        repl.on_miss(0, 600 + (i % 2), 0xaaaa);
    auto before = repl.predictor().counter(0xaaaa);
    repl.on_insert({.set = 1, .way = 0, .tag = 1, .pc = 0xaaaa});
    repl.on_insert({.set = 1, .way = 1, .tag = 2, .pc = 0xaaaa});
    repl.victim(1, 0, 2); // all friendly: eviction must detrain the PC
    EXPECT_LT(repl.predictor().counter(0xaaaa), before);
}

// ---------------------------------------------------------------------
// Stride confidence dynamics
// ---------------------------------------------------------------------

TEST(StrideInternals, ConfidenceDecaysBeforeRetraining)
{
    StridePrefetcher pf;
    Host host;
    // Build confidence on stride 2...
    for (int i = 0; i < 8; ++i)
        pf.train(miss(0x8, 100 + i * 2), host);
    std::size_t confident_count = host.issued.size();
    EXPECT_GT(confident_count, 0u);
    // ...one noise access must not immediately retrain to the noise
    // delta (confidence decays first).
    pf.train(miss(0x8, 5000), host);
    host.issued.clear();
    pf.train(miss(0x8, 5003), host);
    EXPECT_TRUE(host.issued.empty()); // not yet confident on delta 3
}

TEST(StrideInternals, SameLineAccessesCarryNoSignal)
{
    StridePrefetcher pf;
    Host host;
    for (int i = 0; i < 20; ++i)
        pf.train(miss(0x8, 777), host); // same block repeatedly
    EXPECT_TRUE(host.issued.empty());
}
